"""Reward formula oracles and per-path reward list semantics.

Expected values here are frozen independently (hand arithmetic) before being
compared against the implementation; tolerances cover only IEEE rounding.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from rlroute import engine
from rlroute.dataplane import ExecutionResult, execute_path
from rlroute.engine import find_route
from rlroute.network import RoutePath, TrafficDemand, build_graph, graph_from_dict, place_traffic
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    KEPT_BOOKS,
    global_rewards_for_path,
    link_scores,
    local_rewards_for_path,
    make_weights,
    reward_hop,
    reward_intensity,
    reward_transmission,
    reward_utilization,
)
from rlroute.topologies import load_builtin
from reference import records_of
from scenarios import chain_rewards, pair_document


class TestTermFormulas:
    def test_hop_is_reciprocal_of_hop_index(self):
        assert reward_hop(1) == 1.0
        assert reward_hop(4) == 0.25

    def test_transmission_is_scaled_arctangent(self):
        assert reward_transmission(50) == pytest.approx(0.9873, abs=5e-5)
        assert reward_transmission(0) == 0.0
        # Saturates toward 1 as the sender gets faster.
        assert reward_transmission(10) < reward_transmission(1000) < 1.0

    def test_intensity_current_and_estimated(self):
        assert reward_intensity(5, 50) == 0.9
        assert reward_intensity(5, 50, 0.5) == 0.89

    def test_utilization_current_and_estimated(self):
        assert reward_utilization(5, 10) == 0.5
        assert reward_utilization(5, 10, 0.5) == pytest.approx(0.45, abs=1e-12)

    def test_intensity_can_go_negative_when_overloaded(self):
        assert reward_intensity(60, 50) < 0
        assert reward_utilization(12, 10) < 0


class TestWeights:
    def test_default_constants(self):
        assert DEFAULT_WEIGHTS.local_constant == 5.1
        assert DEFAULT_WEIGHTS.global_constant == 3.0

    def test_global_constant_ignores_hop_and_transmission(self):
        w = make_weights(7.0, 3.0, 1.0, 1.0, 1.0)
        assert w.global_constant == 3.0
        assert w.local_constant == pytest.approx(13.1)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            make_weights(1, 1, -0.1, 1, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400])
    def test_rejects_non_finite_weight(self, value):
        with pytest.raises(ValueError, match="weight reliability must be a finite number >= 0"):
            make_weights(1, 1, value, 1, 1)

    @pytest.mark.parametrize(
        "value", [True, np.float32(1.0), np.int64(1), "1"], ids=["bool", "float32", "int64", "str"]
    )
    def test_rejects_weights_reports_cannot_write_as_numbers(self, value):
        # Refused at construction, naming the weight, rather than stored
        # as a float: a bool is no weight, and no other numpy scalar is a
        # float subclass.
        with pytest.raises(ValueError, match=r"^weight hop_count must be an int or float, got "):
            make_weights(value, 1, 1, 1, 1)

    def test_numpy_float64_weights_are_floats(self):
        assert make_weights(np.float64(0.5), 1, 1, 1, 1).local_constant == pytest.approx(4.6)

    def test_zero_weights_allowed(self):
        w = make_weights(0, 0, 0, 0, 1)
        assert w.local_constant == pytest.approx(1.1)
        assert w.global_constant == 1.0


class TestCompositeRewards:
    # Shared scenario: hop 4, 50 Mb/s sender, reliability 0.95, receiver at
    # 5 of 50 Mb/s incoming, link at 5 of 10 Mb/s, demand adds 0.5 Mb/s.
    def scenario(self, weights=DEFAULT_WEIGHTS):
        local, glob = chain_rewards(
            hops=4, used=5e6, incoming=5e6, rel=0.95, weights=weights, traffic=0.5e6
        )
        return local[-1], glob[-1]

    def test_local_uses_estimated_forms(self):
        # 0.25 + 0.98727 + 0.95 + 0.89 + 0.45 - 5.1
        value = self.scenario()[0].value
        assert value == pytest.approx(-1.57273, abs=1e-4)

    def test_global_uses_current_forms(self):
        # 0.95 + 0.9 + 0.5 - 3.0
        value = self.scenario()[1].value
        assert value == pytest.approx(-0.65, abs=1e-12)

    def test_local_success_never_beats_negative_margin(self):
        # Perfect hop: every term at its maximum still lands 0.1 below zero.
        local, _ = chain_rewards(hops=1, sender=1e12, traffic=1.0)
        assert local[-1].action_success
        assert local[-1].value <= -0.1

    def test_global_reward_of_perfect_hop_is_zero(self):
        _, glob = chain_rewards(rel=1.0, incoming=0.0, used=0.0)
        assert glob[-1].value == 0.0

    def test_weights_scale_terms(self):
        only_util = make_weights(0, 0, 0, 0, 1)
        local, _ = chain_rewards(used=5e6, max_bw=10e6, weights=only_util, traffic=0.5e6)
        assert local[-1].value == pytest.approx(0.45 - 1.1, abs=1e-12)


class TestRewardLists:
    def demand(self):
        return TrafficDemand(0, 2, 0.5e6)

    def executed(self, nodes, lost=False):
        """Reward records of walking nodes on a graph where 1 branches to
        the destination 2 and to the dead end 3."""
        graph = build_graph(4, [(0, 1, 10e6), (1, 2, 10e6), (1, 3, 10e6)])
        result = execute_path(graph, graph.link_ids(nodes))
        if lost:
            result = result._replace(lost=True)
        scores = link_scores(graph, DEFAULT_WEIGHTS, self.demand())
        return (
            records_of(scores.index, local_rewards_for_path(result, scores)),
            records_of(scores.index, global_rewards_for_path(result, scores)),
        )

    def test_successful_path_all_actions_succeed(self):
        rewards, _ = self.executed((0, 1, 2))
        assert [r.action_success for r in rewards] == [True, True]
        assert [(r.src_id, r.dst_id) for r in rewards] == [(0, 1), (1, 2)]
        assert all(r.value <= -0.1 for r in rewards)

    def test_dead_end_fails_locally_but_not_globally(self):
        # Ends at node 3, demand destination is 2, nothing lost.
        local, glob = self.executed((0, 1, 3))
        assert local[-1].action_success is False
        assert local[-1].value == -DEFAULT_WEIGHTS.local_constant
        assert glob[-1].action_success is True

    def test_lost_packet_fails_both(self):
        local, glob = self.executed((0, 1, 2), lost=True)
        assert local[-1].value == -DEFAULT_WEIGHTS.local_constant
        assert glob[-1].action_success is False
        assert glob[-1].value == -DEFAULT_WEIGHTS.global_constant

    def test_global_success_values_nonpositive(self):
        _, glob = self.executed((0, 1, 2))
        assert all(r.value <= 0 for r in glob)

    def test_loss_only_allowed_on_last_record(self):
        # A lost execution flags its last hop only: every earlier hop keeps
        # its normal, successful reward.
        local, glob = self.executed((0, 1, 2), lost=True)
        clean_local, clean_glob = self.executed((0, 1, 2))
        assert [r.action_success for r in local] == [True, False]
        assert [r.action_success for r in glob] == [True, False]
        assert local[0] == clean_local[0]
        assert glob[0] == clean_glob[0]

    def test_empty_records_rejected(self):
        graph = build_graph(3, [(0, 1, 10e6), (1, 2, 10e6)])
        scores = link_scores(graph, DEFAULT_WEIGHTS, self.demand())
        with pytest.raises(ValueError):
            local_rewards_for_path(ExecutionResult(()), scores)
        with pytest.raises(ValueError):
            global_rewards_for_path(ExecutionResult(()), scores)

    def test_transmission_term_reads_rate_in_mbps(self):
        # Sender at 50 Mb/s must score like atan(50), not atan(5e7).
        w = make_weights(0, 1, 0, 0, 0)
        local, _ = chain_rewards(sender=50e6, weights=w, traffic=1.0)
        assert local[-1].value == pytest.approx(math.atan(50) * 2 / math.pi - 1.1, abs=1e-12)


class TestRecordValidation:
    def test_hop_index_must_be_positive(self):
        with pytest.raises(ValueError):
            reward_hop(0)


class TestRewardSums:
    # Every term is finite, but a link's terms add up past the largest
    # float; the demand's scores refuse it before any episode, naming the link.

    def saturated_pair(self):
        # The state of pair_document(1e308), which build_graph refuses,
        # reached by placing an earlier demand's traffic instead.
        graph = graph_from_dict(pair_document(0.0))
        place_traffic(graph, RoutePath((0, 1), True), TrafficDemand(0, 1, 1e308))
        return graph

    def test_loads_placed_by_earlier_demands(self):
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms sum to a non-"):
            link_scores(self.saturated_pair(), DEFAULT_WEIGHTS, TrafficDemand(0, 1, 1.0))

    def test_global_reward_is_checked_too(self):
        # With zero weights the local terms stay finite.
        weights = make_weights(0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"^link \(0,1\): global reward terms sum to a non-"):
            link_scores(self.saturated_pair(), weights, TrafficDemand(0, 1, 1.0))

    def test_huge_finite_weights(self):
        weights = make_weights(0, 0, 0, 1e308, 1e308)
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
            link_scores(load_builtin("t1"), weights, TrafficDemand(0, 4, 1e5))

    def test_load_free_terms_overflowing_are_refused_on_every_demand(self):
        # The graph keeps its weighted hop, transmission and reliability
        # terms after the first demand; their sum is still checked on each.
        graph = load_builtin("t1")
        weights = make_weights(1e308, 1e308, 1e308, 0, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
                link_scores(graph, weights, TrafficDemand(0, 4, 1e5))

    def test_finite_sums_whose_total_overflows_are_accepted(self):
        # The link's local reward is finite at every position, but its
        # first- and last-hop bounds add past the largest float. The one
        # whole-array test then falls through to the per-link test, which
        # refuses nothing, and numpy warns of nothing.
        graph = graph_from_dict(pair_document(2.0))
        weights = make_weights(0, 0, 0, 0, 5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = link_scores(graph, weights, TrafficDemand(0, 1, 1.0))
        (value,) = local_rewards_for_path(ExecutionResult((0,)), scores).values
        assert math.isfinite(value) and value < -sys.float_info.max / 2

    def test_find_route_fails_before_the_first_episode(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an episode was run")

        monkeypatch.setattr(engine, "find_temp_path", refuse)
        graph = self.saturated_pair()
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
            find_route(TrafficDemand(0, 1, 1.0), graph, None)

    def test_a_new_traffic_value_is_checked_against_loads_placed_since_the_first_demand(self):
        # After the first demand the graph keeps its scores. Placing 1.5e8
        # on a 1e-300 b/s link leaves its global reward finite, near
        # -1.5e308, but a demand of 5e7 takes its estimated utilization
        # past the largest float: that demand's new book must see the load.
        graph = graph_from_dict({
            "nodes": [{"id": i, "processing_rate_bps": 1e8} for i in range(2)],
            "links": [{"src": 0, "dst": 1, "max_bandwidth_bps": 1e-300}],
        })
        weights = make_weights(0, 0, 0, 0, 1)
        link_scores(graph, weights, TrafficDemand(0, 1, 1.0))
        place_traffic(graph, RoutePath((0, 1), True), TrafficDemand(0, 1, 1.5e8))
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
            link_scores(graph, weights, TrafficDemand(0, 1, 5e7))

    def test_a_graph_s_kept_scores_refuse_on_every_call(self):
        # A book is kept only once its check passes, so the scores a graph
        # keeps refuse again on the next call: after a placement took a sum
        # past the largest float, and for weights whose load-free terms do.
        graph = graph_from_dict(pair_document(0.0))
        weights, demand = make_weights(0, 0, 0, 1, 0), TrafficDemand(0, 1, 1e308)
        link_scores(graph, weights, demand)
        place_traffic(graph, RoutePath((0, 1), True), demand)
        huge = make_weights(1e308, 1e308, 1e308, 0, 0)
        for case in (weights, weights, huge, huge):
            with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
                link_scores(graph, case, demand)


    def test_an_int_load_plus_an_int_traffic_past_the_largest_float(self):
        # Their sum is exact as an int but no float holds it: the book built
        # for the demand, and a kept book rescored after a placement, refuse
        # it naming the link.
        big = TrafficDemand(0, 1, 10**308)
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
            link_scores(build_graph(2, [(0, 1, 1.0, 10**308)]), DEFAULT_WEIGHTS, big)
        graph = build_graph(2, [(0, 1, 1.0, 0)])
        link_scores(graph, DEFAULT_WEIGHTS, big)
        place_traffic(graph, RoutePath((0, 1), True), big)
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
            link_scores(graph, DEFAULT_WEIGHTS, big)


class TestKeptScores:
    def test_traffic_values_that_never_repeat_keep_a_bounded_number_of_books(self):
        # Every demand carries a traffic value of its own: the graph keeps
        # books for the KEPT_BOOKS values scored last, each marking at most
        # the graph's links as placed since, and its scores stay those of a
        # never-scored copy.
        graph = load_builtin("t2")
        path, links = RoutePath((0, 1, 3), True), range(len(graph.loads))
        for i in range(3 * KEPT_BOOKS):
            demand = TrafficDemand(0, 3, 1e3 + i)
            kept = link_scores(graph, DEFAULT_WEIGHTS, demand)
            fresh = link_scores(graph.copy(), DEFAULT_WEIGHTS, demand)
            assert [kept.intensity, kept.utilization, kept.global_reward] == [
                fresh.intensity, fresh.utilization, fresh.global_reward
            ]
            place_traffic(graph, path, demand)
            books = graph.scores.books
            assert len(books) == min(i + 1, KEPT_BOOKS)
            assert all(book.placed <= set(links) for book in books.values())
        assert [traffic for _, traffic in books] == [
            1e3 + i for i in range(2 * KEPT_BOOKS, 3 * KEPT_BOOKS)
        ]

    def test_a_copy_of_a_scored_graph_keeps_no_scores(self):
        graph = load_builtin("t2")
        link_scores(graph, DEFAULT_WEIGHTS, TrafficDemand(0, 3, 1e3))
        assert graph.scores is not None and graph.copy().scores is None
        assert graph.copy() == graph
