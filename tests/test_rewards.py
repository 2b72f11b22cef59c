"""Reward formula oracles and per-path reward list semantics.

Expected values here are frozen independently (hand arithmetic) before being
compared against the implementation; tolerances cover only IEEE rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rlroute import engine
from rlroute.dataplane import ExecutionResult, execute_path
from rlroute.engine import find_route
from rlroute.network import RoutePath, TrafficDemand, build_graph, graph_from_dict, place_traffic
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    global_rewards_for_path,
    link_scores,
    local_rewards_for_path,
    make_weights,
    reward_hop,
    reward_intensity,
    reward_reliability,
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

    def test_reliability_is_identity(self):
        assert reward_reliability(0.95) == 0.95

    def test_intensity_current_and_estimated(self):
        assert reward_intensity(5, 50) == 0.9
        assert reward_intensity(5, 50, 0.5) == 0.89

    def test_intensity_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reward_intensity(5, 0)
        with pytest.raises(ValueError):
            reward_intensity(5, 50, -1.0)

    def test_utilization_current_and_estimated(self):
        assert reward_utilization(5, 10) == 0.5
        assert reward_utilization(5, 10, 0.5) == pytest.approx(0.45, abs=1e-12)

    def test_intensity_can_go_negative_when_overloaded(self):
        assert reward_intensity(60, 50) < 0
        assert reward_utilization(12, 10) < 0

    def test_array_terms_equal_scalar_terms(self):
        # The per-demand scores evaluate terms over arrays; elementwise
        # arithmetic must round exactly as the scalar form does.
        incoming = np.array([0.0, 5e6, 3.3e7, 1.7e6])
        rate = np.array([50e6, 1e8, 3e7, 7.77e6])
        for extra in (0.0, 1e5, 3.1e6):
            assert reward_intensity(incoming, rate, extra).tolist() == [
                reward_intensity(i, r, extra) for i, r in zip(incoming.tolist(), rate.tolist())
            ]
            assert reward_utilization(incoming, rate, extra).tolist() == [
                reward_utilization(u, m, extra) for u, m in zip(incoming.tolist(), rate.tolist())
            ]

    def test_array_terms_reject_any_bad_element(self):
        with pytest.raises(ValueError, match="1.2"):
            reward_reliability(np.array([0.5, 1.2, 1.0]))
        with pytest.raises(ValueError):
            reward_intensity(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            reward_utilization(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, value):
        with pytest.raises(ValueError, match="weight reliability must be a finite number >= 0"):
            make_weights(1, 1, value, 1, 1)

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
        result = execute_path(graph, RoutePath(tuple(nodes), nodes[-1] == 2))
        if lost:
            result = replace(result, lost=True)
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

    def test_reliability_bounds(self):
        # Scores check every link's state once per demand, so a bad value
        # anywhere in the graph is refused before any episode runs.
        graph = build_graph(3, [(0, 1, 10e6), (1, 2, 10e6)])
        graph.link(1, 2).reliability = 1.2
        with pytest.raises(ValueError, match="reliability"):
            link_scores(graph, DEFAULT_WEIGHTS, TrafficDemand(0, 2, 1e5))

    def test_negative_load_rejected(self):
        graph = build_graph(3, [(0, 1, 10e6), (1, 2, 10e6)])
        graph.link(0, 1).used_bandwidth = -1.0
        with pytest.raises(ValueError, match="used bandwidth"):
            link_scores(graph, DEFAULT_WEIGHTS, TrafficDemand(0, 2, 1e5))

    def test_zero_rate_or_capacity_rejected(self):
        # The intensity and utilization terms divide by these, and refuse a
        # zero before dividing, whatever a graph's fixed terms hold.
        graph = build_graph(3, [(0, 1, 10e6), (1, 2, 10e6)])
        graph.node(2).processing_rate = 0.0
        with pytest.raises(ValueError, match="receiver processing rate must be > 0"):
            link_scores(graph, DEFAULT_WEIGHTS, TrafficDemand(0, 2, 1e5))
        graph = build_graph(3, [(0, 1, 10e6), (1, 2, 10e6)])
        graph.link(1, 2).max_bandwidth = 0.0
        with pytest.raises(ValueError, match="link max bandwidth must be > 0"):
            link_scores(graph, DEFAULT_WEIGHTS, TrafficDemand(0, 2, 1e5))


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

    def test_find_route_fails_before_the_first_episode(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an episode was run")

        monkeypatch.setattr(engine, "find_temp_path", refuse)
        graph = self.saturated_pair()
        with pytest.raises(ValueError, match=r"^link \(0,1\): local reward terms"):
            find_route(TrafficDemand(0, 1, 1.0), graph, None)
