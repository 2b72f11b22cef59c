"""Q-table lifecycle, temp-path selection, SARSA updates, run orchestration."""

import math
import random
import re

import numpy as np
import pytest

from rlroute import dataplane, engine
from rlroute.dataplane import LossModel
from rlroute.engine import (
    DEFAULT_HYPERPARAMETERS,
    EpisodeTrace,
    Hyperparameters,
    QTable,
    TempPath,
    UnroutableDemandError,
    detect_convergence,
    find_final_path,
    find_route,
    find_temp_path,
    init_local_table,
    update_table,
)
from rlroute.network import RoutePath, TrafficDemand, build_graph
from rlroute.rewards import EpisodeRewards, make_weights
from rlroute.topologies import builtin_demands, load_builtin
from reference import (
    AbsentLinkError,
    RewardRecord,
    node_pairs,
    q_get,
    q_set,
    records_of,
    rewards_of,
)

# Hypothesized trained tables for the five-node, seven-pair network (t2):
# a local table preferring 0-1-2-3 and a global table preferring 0-2.
LOCAL_T2 = {
    (0, 1): -1.5, (0, 2): -1.8, (1, 0): 0.0, (1, 2): -1.1, (1, 3): -1.5,
    (1, 4): -1.2, (2, 0): 0.0, (2, 1): -1.0, (2, 3): -0.8, (2, 4): -1.3,
    (3, 1): 0.0, (3, 2): 0.0, (4, 1): -1.2, (4, 2): -1.1,
}
GLOBAL_T2 = {
    (0, 1): -1.9, (0, 2): -1.7, (1, 0): 0.0, (1, 2): -1.5, (1, 3): -1.4,
    (1, 4): -1.1, (2, 0): 0.0, (2, 1): -0.2, (2, 3): -0.9, (2, 4): -0.9,
    (3, 1): 0.0, (3, 2): 0.0, (4, 1): -0.4, (4, 2): -0.7,
}


def table_from(graph, entries):
    table = QTable.for_graph(graph)
    for (s, a), v in entries.items():
        q_set(table, s, a, v)
    return table


def all_simple_paths(links, src, dst):
    """Exhaustive DFS over a link list; the independent path oracle."""
    out = {}
    for s, d in links:
        out.setdefault(s, []).append(d)
    found = []

    def walk(node, seen, acc):
        if node == dst:
            found.append(tuple(acc))
            return
        for nxt in sorted(out.get(node, [])):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + [nxt])

    walk(src, {src}, [src])
    return found


class TestQTable:
    def test_fresh_table_has_zero_at_links_and_absent_elsewhere(self):
        graph = load_builtin("t1")
        table = QTable.for_graph(graph)
        link_pairs = {(l.src, l.dst) for l in graph.iter_links()}
        assert len(link_pairs) == 5
        # One cell per link, and none for any other pair.
        assert table.q == [0.0] * 5
        for i in range(5):
            for j in range(5):
                if (i, j) in link_pairs:
                    assert q_get(table, i, j) == 0.0
                else:
                    assert (i, j) not in table.index.ids
                    with pytest.raises(AbsentLinkError):
                        q_get(table, i, j)

    def test_absent_cells_refuse_access(self):
        table = QTable.for_graph(load_builtin("t1"))
        with pytest.raises(AbsentLinkError):
            q_get(table, 0, 4)
        with pytest.raises(AbsentLinkError):
            q_set(table, 0, 4, 1.0)

    def test_values_must_stay_finite(self):
        table = QTable.for_graph(load_builtin("t1"))
        with pytest.raises(ValueError):
            q_set(table, 0, 1, float("inf"))
        with pytest.raises(ValueError):
            q_set(table, 0, 1, float("nan"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constructor_refuses_non_finite_values(self, value):
        # Selection compares against -inf and skips NaN, so a table must
        # never hold either; the message names the link as store() does.
        index = load_builtin("t1").link_index()
        q = [0.0] * len(index.targets)
        q[2] = value
        message = f"Q-value for ({index.sources[2]},{index.targets[2]}) must be finite, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            QTable(index, q)

    def test_constructor_refuses_a_value_count_other_than_the_links(self):
        index = load_builtin("t1").link_index()
        with pytest.raises(ValueError, match="4 Q-values for 5 links"):
            QTable(index, [0.0] * 4)
        assert QTable(index, [-1.0] * 5).q == [-1.0] * 5

    def test_copy_is_deep(self):
        table = QTable.for_graph(load_builtin("t1"))
        clone = table.copy()
        q_set(clone, 0, 1, -7.0)
        assert q_get(table, 0, 1) == 0.0
        assert clone != table

    def test_equality_ignores_absent_cells(self):
        graph = load_builtin("t1")
        assert QTable.for_graph(graph) == QTable.for_graph(graph)


class TestHyperparameters:
    def test_defaults(self):
        h = DEFAULT_HYPERPARAMETERS
        assert (h.epsilon, h.alpha, h.gamma, h.ttl, h.episodes) == (0.0, 0.9, 0.9, 32, 75)
        assert h.terminal_q == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1},
            {"epsilon": 1.1},
            {"alpha": 0.0},
            {"alpha": 1.1},
            {"gamma": -0.5},
            {"gamma": 1.01},
            {"ttl": 0},
            {"episodes": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("ttl", 2.5), ("episodes", 3.0), ("ttl", True),
         pytest.param("ttl", np.int64(32), id="ttl-int64"),
         pytest.param("episodes", np.int64(75), id="episodes-int64"),
         ("terminal_q", math.inf), ("terminal_q", math.nan)],
    )
    def test_rejects_fractional_counts_and_non_finite_bootstrap(self, name, value):
        # Counts feed range() and the bootstrap feeds every terminal update,
        # so both are refused here rather than deep inside a run. Counts are
        # Python ints only: report.json writes them as they are.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Hyperparameters(**{name: value})

    @pytest.mark.parametrize("name", ["epsilon", "alpha", "gamma", "terminal_q"])
    @pytest.mark.parametrize("value", [True, np.float32(0.5)], ids=["bool", "float32"])
    def test_rejects_floats_reports_cannot_write(self, name, value):
        # report.json writes the hyperparameters as they are.
        with pytest.raises(ValueError, match=f"^{name} must be an int or float, got "):
            Hyperparameters(**{name: value})


class TestInitLocalTable:
    def test_fresh_table_without_global(self):
        graph = load_builtin("t1")
        table = init_local_table(graph)
        assert table == QTable.for_graph(graph)

    def test_global_copy_is_entry_for_entry_equal(self):
        graph = load_builtin("t2")
        global_table = table_from(graph, GLOBAL_T2)
        local = init_local_table(graph, global_table)
        for (s, a), v in GLOBAL_T2.items():
            assert q_get(local, s, a) == v

    def test_global_copy_is_independent(self):
        graph = load_builtin("t2")
        global_table = table_from(graph, GLOBAL_T2)
        local = init_local_table(graph, global_table)
        q_set(local, 0, 1, 123.0)
        assert q_get(global_table, 0, 1) == GLOBAL_T2[(0, 1)]

    def test_use_global_requires_matching_table(self):
        graph = load_builtin("t1")
        with pytest.raises(ValueError):
            init_local_table(graph, QTable.for_graph(load_builtin("t4")))


class TestFindTempPath:
    def test_t1_unique_path(self):
        # Independent oracle: T1's link set admits exactly one simple 0-4 path.
        links = [(l.src, l.dst) for l in load_builtin("t1").iter_links()]
        assert all_simple_paths(links, 0, 4) == [(0, 1, 2, 3, 4)]

        graph = load_builtin("t1")
        path = find_temp_path(
            TrafficDemand(0, 4, 1e5), QTable.for_graph(graph), DEFAULT_HYPERPARAMETERS
        )
        assert path.nodes == (0, 1, 2, 3, 4)
        assert path.reached_destination

    def test_ties_break_to_lowest_node_id(self):
        graph = load_builtin("t2")
        path = find_temp_path(
            TrafficDemand(0, 3, 1e5), QTable.for_graph(graph), DEFAULT_HYPERPARAMETERS
        )
        assert path.nodes[1] == 1

    def test_greedy_follows_highest_q(self):
        graph = load_builtin("t2")
        path = find_temp_path(
            TrafficDemand(0, 3, 1e5), table_from(graph, LOCAL_T2), DEFAULT_HYPERPARAMETERS
        )
        assert path.nodes == (0, 1, 2, 3)

    def test_dead_end_terminates_unreached(self):
        # Boost the dead-end branch so the first move goes to node 5, whose
        # only out-neighbor is the already-visited source.
        graph = load_builtin("t4")
        table = QTable.for_graph(graph)
        q_set(table, 0, 5, 1.0)
        path = find_temp_path(TrafficDemand(0, 4, 1e5), table, DEFAULT_HYPERPARAMETERS)
        assert path.nodes == (0, 5)
        assert not path.reached_destination

    def test_source_is_never_revisited(self):
        graph = build_graph(3, [(0, 1, 1e6), (1, 0, 1e6), (1, 2, 1e6)])
        path = find_temp_path(
            TrafficDemand(0, 2, 1e5), QTable.for_graph(graph), DEFAULT_HYPERPARAMETERS
        )
        assert path.nodes == (0, 1, 2)

    def test_ttl_caps_hop_count(self):
        graph = build_graph(6, [(i, i + 1, 1e6) for i in range(5)])
        hyper = Hyperparameters(ttl=2)
        path = find_temp_path(TrafficDemand(0, 5, 1e5), QTable.for_graph(graph), hyper)
        assert path.nodes == (0, 1, 2)
        assert not path.reached_destination

    def test_source_without_out_links_gives_zero_hop_path(self):
        graph = build_graph(2, [(1, 0, 1e6)])
        path = find_temp_path(
            TrafficDemand(0, 1, 1e5), QTable.for_graph(graph), DEFAULT_HYPERPARAMETERS
        )
        assert path.nodes == (0,)
        assert not path.reached_destination

    def test_exploration_requires_rng(self):
        graph = load_builtin("t2")
        hyper = Hyperparameters(epsilon=1.0)
        with pytest.raises(ValueError):
            find_temp_path(TrafficDemand(0, 3, 1e5), QTable.for_graph(graph), hyper)

    def test_exploration_is_seed_reproducible(self):
        graph = load_builtin("t2")
        hyper = Hyperparameters(epsilon=1.0)
        demand = TrafficDemand(0, 3, 1e5)
        a = find_temp_path(demand, QTable.for_graph(graph), hyper, random.Random(42))
        b = find_temp_path(demand, QTable.for_graph(graph), hyper, random.Random(42))
        assert a == b

    def test_exploring_paths_stay_simple_and_linked(self):
        graph = load_builtin("t2")
        hyper = Hyperparameters(epsilon=1.0)
        rng = random.Random(3)
        for _ in range(200):
            path = find_temp_path(TrafficDemand(0, 3, 1e5), QTable.for_graph(graph), hyper, rng)
            assert len(set(path.nodes)) == len(path.nodes)
            for s, d in node_pairs(path):
                assert graph.has_link(s, d)

    def test_temp_path_holds_the_chosen_link_ids(self):
        graph = load_builtin("t1")
        path = find_temp_path(
            TrafficDemand(0, 4, 1e5), QTable.for_graph(graph), DEFAULT_HYPERPARAMETERS
        )
        assert path.source == 0
        assert path.links == graph.link_ids(path.nodes)
        assert path.hop_count == len(path.links) == 4
        # The repr shows the path, not the index it reads its nodes from.
        assert repr(path) == (
            f"TempPath(nodes=(0, 1, 2, 3, 4), links={path.links}, reached_destination=True)"
        )

    def test_temp_path_ids_are_the_index_ints(self):
        # Every episode's temp path is kept, so its ids must be the index's
        # own int objects, not new ones: ids above 256 are not shared.
        graph = build_graph(300, [(i, i + 1, 1e6) for i in range(299)])
        index = graph.link_index()
        path = find_temp_path(
            TrafficDemand(0, 299, 1e5), QTable.for_graph(graph), Hyperparameters(ttl=299)
        )
        assert path.reached_destination
        assert all(k is index.ids[pair] for k, pair in zip(path.links, node_pairs(path)))

    def test_temp_paths_compare_by_source_links_and_flag(self):
        t1, copy = load_builtin("t1"), load_builtin("t1")
        demand = TrafficDemand(0, 4, 1e5)
        path = find_temp_path(demand, QTable.for_graph(t1), DEFAULT_HYPERPARAMETERS)
        same = find_temp_path(demand, QTable.for_graph(copy), DEFAULT_HYPERPARAMETERS)
        assert path.index is not same.index
        assert path == same and hash(path) == hash(same)
        assert not path != same
        assert path != path._replace(reached_destination=False)
        assert path != path._replace(links=path.links[:-1])
        assert path != path._replace(source=1)


def repeated(demand, table, hyper=DEFAULT_HYPERPARAMETERS):
    """A greedy path walked twice, the second walk given the first, as
    find_route hands each episode the one before: it carries floors."""
    first = find_temp_path(demand, table, hyper)
    again = find_temp_path(demand, table, hyper, previous=first)
    assert again == first and again is not first
    assert first.floors is None and again.floors is not None
    return again


class TestRememberedWalk:
    def test_strictly_above_every_floor_serves_previous_itself(self):
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        previous = repeated(demand, table)
        assert previous.nodes == (0, 1, 2, 3)
        # Per hop the best rival into a node not yet visited: 0-2, 1-4, 2-4.
        assert previous.floors == (-1.8, -1.2, -1.3)
        assert find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS, previous=previous) is previous
        # Served without a walk: a rival written against the contract (only
        # the path's own links may change) is not even read.
        q_set(table, 0, 2, 5.0)
        assert find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS, previous=previous) is previous
        assert find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS).nodes == (0, 2, 3)

    def test_a_tie_with_a_lower_target_rival_walks_and_the_rival_wins(self):
        # 0-2 beats 0-1 until an update lowers it to exactly 0-1's value:
        # strictly above the floor no longer holds, the walk decides, and
        # the tie goes to the lower target.
        graph = build_graph(4, [(0, 1, 1e6), (0, 2, 1e6), (1, 3, 1e6), (2, 3, 1e6)])
        table = table_from(graph, {(0, 1): -0.5, (0, 2): 0.25})
        demand = TrafficDemand(0, 3, 1e5)
        previous = repeated(demand, table)
        assert previous.nodes == (0, 2, 3) and previous.floors == (-0.5, -math.inf)
        q_set(table, 0, 2, -0.5)
        path = find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS, previous=previous)
        assert path.nodes == (0, 1, 3)
        assert path.floors is None

    def test_a_higher_rival_into_a_visited_node_does_not_stop_serving(self):
        graph = load_builtin("t2")
        table = table_from(graph, {**LOCAL_T2, (1, 0): 9.0, (2, 1): 9.0, (2, 0): 9.0})
        demand = TrafficDemand(0, 3, 1e5)
        previous = repeated(demand, table)
        assert previous.nodes == (0, 1, 2, 3)
        assert previous.floors == (-1.8, -1.2, -1.3)
        assert find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS, previous=previous) is previous

    def test_exploration_serves_nothing_and_draws_the_same(self):
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        previous = repeated(demand, table)
        hyper = Hyperparameters(epsilon=0.3)
        with_previous, without = random.Random(5), random.Random(5)
        for _ in range(200):
            path = find_temp_path(demand, table, hyper, with_previous, previous)
            assert path == find_temp_path(demand, table, hyper, without)
            assert path is not previous and path.floors is None
            assert with_previous.getstate() == without.getstate()

    def test_dead_end_and_ttl_endings_are_served_again(self):
        dead_end = load_builtin("t4")
        table = QTable.for_graph(dead_end)
        q_set(table, 0, 5, 1.0)
        demand = TrafficDemand(0, 4, 1e5)
        previous = repeated(demand, table)
        assert previous.nodes == (0, 5) and not previous.reached_destination
        assert find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS, previous=previous) is previous

        chain = build_graph(6, [(i, i + 1, 1e6) for i in range(5)])
        table, demand = QTable.for_graph(chain), TrafficDemand(0, 5, 1e5)
        hyper = Hyperparameters(ttl=2)
        previous = repeated(demand, table, hyper)
        assert previous.nodes == (0, 1, 2) and not previous.reached_destination
        assert previous.floors == (-math.inf, -math.inf)
        assert find_temp_path(demand, table, hyper, previous=previous) is previous

    def test_a_path_of_another_source_or_index_is_ignored(self):
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        previous = repeated(demand, table)
        other_index = table_from(load_builtin("t2"), LOCAL_T2)
        path = find_temp_path(demand, other_index, DEFAULT_HYPERPARAMETERS, previous=previous)
        assert path == previous and path is not previous and path.floors is None
        other_source = TrafficDemand(1, 3, 1e5)
        path = find_temp_path(other_source, table, DEFAULT_HYPERPARAMETERS, previous=previous)
        assert path.source == 1 and path.floors is None

    def test_floors_are_left_out_of_equality_hash_and_repr(self):
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        first = find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS)
        again = find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS, previous=first)
        assert again == first and hash(again) == hash(first) and repr(again) == repr(first)


class TestUpdateTable:
    def t1(self):
        return load_builtin("t1")

    def test_single_terminal_success_with_alpha_one_stores_reward(self):
        table = QTable.for_graph(self.t1())
        rewards = rewards_of(table.index, [RewardRecord(0, 1, True, -2.5)])
        update_table(table, rewards, Hyperparameters(alpha=1.0))
        assert q_get(table, 0, 1) == -2.5

    def test_accumulative_penalty_minus_3_6_9(self):
        table = QTable.for_graph(load_builtin("t4"))
        failed = rewards_of(table.index, [RewardRecord(0, 5, False, -3.0)])
        for expected in (-3.0, -6.0, -9.0):
            update_table(table, failed, DEFAULT_HYPERPARAMETERS)
            assert q_get(table, 0, 5) == expected

    def test_chain_fixpoint_under_full_learning(self):
        # All rewards -2 with alpha=gamma=1: repeated passes converge to
        # -2 at the tail and -2*k at depth k. Convergence takes four passes
        # because each pass propagates the tail value one entry forward.
        table = QTable.for_graph(self.t1())
        rewards = [
            RewardRecord(0, 1, True, -2.0),
            RewardRecord(1, 2, True, -2.0),
            RewardRecord(2, 3, True, -2.0),
            RewardRecord(3, 4, True, -2.0),
        ]
        hyper = Hyperparameters(alpha=1.0, gamma=1.0)
        snapshots = []
        for _ in range(8):
            update_table(table, rewards_of(table.index, rewards), hyper)
            snapshots.append(tuple(q_get(table, r.src_id, r.dst_id) for r in rewards))
        assert snapshots[-1] == (-8.0, -6.0, -4.0, -2.0)
        assert snapshots[3] == snapshots[-1], "fixpoint is reached by pass 4"
        assert snapshots[1] != snapshots[-1], "two passes are not enough"

    def test_q_next_reads_preceding_episode_value(self):
        # Entry (0,1) must bootstrap from (1,2)'s pre-episode value, not the
        # value (1,2) receives later in the same batch.
        table = QTable.for_graph(self.t1())
        q_set(table, 1, 2, -10.0)
        rewards = [RewardRecord(0, 1, True, -1.0), RewardRecord(1, 2, True, -1.0)]
        update_table(table, rewards_of(table.index, rewards), Hyperparameters(alpha=1.0, gamma=1.0))
        assert q_get(table, 0, 1) == -11.0
        assert q_get(table, 1, 2) == -1.0

    def test_empty_rewards_rejected(self):
        with pytest.raises(ValueError):
            update_table(
                QTable.for_graph(self.t1()), EpisodeRewards((), (), True), DEFAULT_HYPERPARAMETERS
            )

    def test_terminal_bootstrap_knob(self):
        table = QTable.for_graph(self.t1())
        hyper = Hyperparameters(alpha=1.0, gamma=1.0, terminal_q=1.0)
        update_table(table, rewards_of(table.index, [RewardRecord(0, 1, True, -2.0)]), hyper)
        assert q_get(table, 0, 1) == -1.0

    @pytest.mark.parametrize(
        "records, terminal_q",
        [
            # (0,1) bootstraps from (1,2): -1e308 + -1e308.
            ([RewardRecord(0, 1, True, -1e308), RewardRecord(1, 2, True, -1.0)], 0.0),
            # The terminal entry bootstraps from terminal_q: -1e308 + -1e308.
            ([RewardRecord(0, 1, True, -1e308)], -1e308),
            # A failed terminal entry adds its penalty to -1e308.
            ([RewardRecord(0, 1, False, -1e308)], 0.0),
        ],
        ids=["non-terminal", "terminal-bootstrap", "terminal-penalty"],
    )
    def test_an_overflowing_value_is_refused_naming_the_link(self, records, terminal_q):
        table = QTable.for_graph(self.t1())
        q_set(table, 0, 1, -1e308)
        q_set(table, 1, 2, -1e308)
        hyper = Hyperparameters(alpha=1.0, gamma=1.0, terminal_q=terminal_q)
        rewards = rewards_of(table.index, records)
        with pytest.raises(ValueError, match=r"^Q-value for \(0,1\) must be finite, got -inf$"):
            update_table(table, rewards, hyper)
        assert all(math.isfinite(v) for v in table.q)
        assert q_get(table, 0, 1) == q_get(table, 1, 2) == -1e308


class TestFindRoute:
    def test_one_episode_on_t1_finds_unique_path(self):
        graph = load_builtin("t1")
        result = find_route(
            TrafficDemand(0, 4, 1e5),
            graph,
            QTable.for_graph(graph),
            hyper=Hyperparameters(episodes=1),
        )
        assert result.final_path.nodes == (0, 1, 2, 3, 4)
        assert result.final_path.reached_destination
        assert len(result.traces) == 1

    def test_t3_learner_prefers_detour_over_saturated_direct_link(self):
        graph = load_builtin("t3")
        result = find_route(
            TrafficDemand(0, 2, 1e5),
            graph,
            QTable.for_graph(graph),
            weights=make_weights(0, 0, 0, 0, 1),
        )
        assert result.final_path.nodes == (0, 1, 2)

    def test_unroutable_source_raises(self):
        graph = build_graph(2, [(1, 0, 1e6)])
        with pytest.raises(UnroutableDemandError):
            find_route(TrafficDemand(0, 1, 1e5), graph, QTable.for_graph(graph))

    def test_unknown_endpoint_raises(self):
        graph = load_builtin("t1")
        with pytest.raises(ValueError):
            find_route(TrafficDemand(0, 9, 1e5), graph, QTable.for_graph(graph))

    def test_global_table_learns_as_side_effect(self):
        graph = load_builtin("t1")
        global_table = QTable.for_graph(graph)
        find_route(TrafficDemand(0, 4, 1e5), graph, global_table,
                   hyper=Hyperparameters(episodes=3))
        assert q_get(global_table, 0, 1) != 0.0

    def test_traces_are_complete_and_consistent(self, monkeypatch):
        # Traces do not keep the reward records, so capture the local rewards
        # each episode applies where the learner computes them.
        applied = []
        original = engine.local_rewards_for_path

        def capture(*args, **kwargs):
            rewards = original(*args, **kwargs)
            applied.append(rewards)
            return rewards

        monkeypatch.setattr(engine, "local_rewards_for_path", capture)
        graph = load_builtin("t2")
        hyper = Hyperparameters(episodes=10)
        result = find_route(
            TrafficDemand(0, 3, 1e5), graph, QTable.for_graph(graph), hyper=hyper
        )
        assert [t.episode_index for t in result.traces] == list(range(1, 11))
        assert len(applied) == len(result.traces)
        for trace, rewards in zip(result.traces, applied):
            n = len(rewards)
            assert trace.attempted_hops == n == trace.temp_path.hop_count <= hyper.ttl
            assert trace.messages_with_aggregation == n + 1
            assert trace.messages_without_aggregation == 2 * n
            assert rewards.links == trace.temp_path.links
            records = records_of(graph.link_index(), rewards)
            assert [(r.src_id, r.dst_id) for r in records] == node_pairs(trace.temp_path)

    def test_layers_are_called_once_per_episode_and_demand(self, monkeypatch):
        # The benchmark's tracer times the learner by replacing these module
        # globals, so find_route must keep calling each of them by name at
        # call time: per episode one select, execute, local and global score
        # and two updates (rewards passed positionally), per demand one init
        # and one final. The final walk's own selection is not an episode's.
        calls = []
        in_final = []

        def wrap(layer, fn):
            def traced(*args, **kwargs):
                if layer == "select" and in_final:
                    return fn(*args, **kwargs)
                if layer == "final":
                    in_final.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if layer == "final":
                        in_final.pop()
                calls.append((layer, args, result))
                return result

            return traced

        for module, name, layer in (
            (engine, "init_local_table", "init"),
            (engine, "find_temp_path", "select"),
            (dataplane, "execute_path", "execute"),
            (engine, "local_rewards_for_path", "local"),
            (engine, "global_rewards_for_path", "global"),
            (engine, "update_table", "update"),
            (engine, "find_final_path", "final"),
        ):
            monkeypatch.setattr(module, name, wrap(layer, getattr(module, name)))
        graph = load_builtin("t8")
        episodes = DEFAULT_HYPERPARAMETERS.episodes
        find_route(builtin_demands("t8")[0], graph, QTable.for_graph(graph),
                   weights=make_weights(0, 0, 0, 1, 1))

        episode = ["select", "execute", "local", "global", "update", "update"]
        assert [layer for layer, _, _ in calls] == ["init"] + episode * episodes + ["final"]
        # What the tracer's counters read at each boundary.
        for start in range(1, 1 + 6 * episodes, 6):
            select, execute, local, glob, update_local, update_global = calls[start:start + 6]
            assert isinstance(select[2].reached_destination, bool)
            assert len(execute[2].records) == select[2].hop_count
            assert len(local[2]) == len(glob[2]) == len(execute[2].records)
            assert update_local[1][1] is local[2]
            assert update_global[1][1] is glob[2]

    def test_every_select_execute_and_score_goes_through_the_module(self, monkeypatch):
        # The benchmark's tracer counts these calls by replacing the module
        # globals: per demand, one selection per episode plus the final
        # walk's, served ones included, and one execution and one local
        # scoring per episode.
        counts = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        for module, name in (
            (engine, "find_temp_path"),
            (dataplane, "execute_path"),
            (engine, "local_rewards_for_path"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        graph = load_builtin("t8")
        global_table = QTable.for_graph(graph)
        episodes = DEFAULT_HYPERPARAMETERS.episodes
        served = 0
        for demand in builtin_demands("t8"):
            counts.clear()
            result = find_route(demand, graph, global_table, weights=make_weights(0, 0, 0, 1, 1))
            assert counts == {
                "find_temp_path": episodes + 1,
                "execute_path": episodes,
                "local_rewards_for_path": episodes,
            }
            paths = [trace.temp_path for trace in result.traces]
            served += sum(a is b for a, b in zip(paths, paths[1:]))
        assert served > 0

    def test_without_global_table_learns_the_same(self):
        # A global table that nothing reads changes nothing the learner
        # does: the same traces and final path, and the same random draws,
        # both for exploration and for packet loss (t2 links drop 5%).
        def run(global_table):
            graph = load_builtin("t2")
            loss = LossModel(seed=3)
            rng = random.Random(5)
            result = find_route(
                TrafficDemand(0, 4, 1e5), graph, global_table,
                hyper=Hyperparameters(epsilon=0.3), rng=rng, loss=loss,
            )
            return result, rng.getstate(), [loss.packet_lost(0.5) for _ in range(64)]

        result, rng_state, loss_draws = run(None)
        expected, expected_rng_state, expected_loss_draws = run(
            QTable.for_graph(load_builtin("t2"))
        )
        assert result.traces == expected.traces
        assert result.final_path == expected.final_path
        assert rng_state == expected_rng_state
        assert loss_draws == expected_loss_draws
        assert any(t.attempted_hops < t.temp_path.hop_count for t in result.traces)

    def test_global_gamma_true_refused_after_gamma_1(self):
        # The global hyperparameters are built once per gamma; True equals
        # and hashes as 1 and 1.0, yet must not be served their entry.
        graph = load_builtin("t1")
        demand = TrafficDemand(0, 4, 1e5)
        for gamma in (1, 1.0):
            find_route(demand, graph, QTable.for_graph(graph), global_gamma=gamma)
            with pytest.raises(ValueError, match=r"^gamma must be an int or float, got True$"):
                find_route(demand, graph, QTable.for_graph(graph), global_gamma=True)

    def test_global_gamma_discounts_the_global_updates(self):
        # One gamma's hyperparameters are reused across demands; each call
        # must still learn with its own gamma.
        def global_q(gamma):
            graph = load_builtin("t2")
            table = QTable.for_graph(graph)
            find_route(TrafficDemand(0, 3, 1e5), graph, table, global_gamma=gamma)
            return table.q

        assert global_q(0.5) == global_q(0.5) != global_q(0.9)

    def test_greedy_runs_are_deterministic(self):
        graph = load_builtin("t2")
        demand = TrafficDemand(0, 4, 1e5)
        runs = [
            find_route(demand, graph, QTable.for_graph(graph))
            for _ in range(2)
        ]
        assert runs[0].final_path == runs[1].final_path
        assert [t.temp_path for t in runs[0].traces] == [t.temp_path for t in runs[1].traces]


class TestFindFinalPath:
    def test_hypothesized_local_table_prefers_0123(self):
        graph = load_builtin("t2")
        path = find_final_path(
            TrafficDemand(0, 3, 1e5), table_from(graph, LOCAL_T2), DEFAULT_HYPERPARAMETERS
        )
        # The final path leaves the learner, so it is a validated RoutePath.
        assert path == RoutePath((0, 1, 2, 3), True)

    def test_global_argmax_survives_local_initialization(self):
        # The hypothesized global table prefers 0-2; a local table copied
        # from it must make the same greedy first move.
        graph = load_builtin("t2")
        global_table = table_from(graph, GLOBAL_T2)
        local = init_local_table(graph, global_table)
        path = find_final_path(TrafficDemand(0, 3, 1e5), local, DEFAULT_HYPERPARAMETERS)
        assert path.nodes[1] == 2

    def test_ignores_exploration_setting(self):
        graph = load_builtin("t1")
        hyper = Hyperparameters(epsilon=1.0)
        path = find_final_path(TrafficDemand(0, 4, 1e5), QTable.for_graph(graph), hyper)
        assert path.nodes == (0, 1, 2, 3, 4)

    def test_identical_calls_identical_outputs(self):
        graph = load_builtin("t2")
        table = table_from(graph, LOCAL_T2)
        demand = TrafficDemand(0, 4, 1e5)
        assert find_final_path(demand, table, DEFAULT_HYPERPARAMETERS) == find_final_path(
            demand, table, DEFAULT_HYPERPARAMETERS
        )


SQUARE = build_graph(4, [(0, 1, 1e6), (0, 3, 1e6), (1, 2, 1e6), (3, 2, 1e6)])


def trace(i, nodes, reached):
    path = TempPath(nodes[0], SQUARE.link_ids(nodes), reached, SQUARE.link_index())
    return EpisodeTrace(episode_index=i, temp_path=path, attempted_hops=path.hop_count)


class TestDetectConvergence:
    def test_all_identical_reaching_gives_one(self):
        traces = [trace(i, (0, 1, 2), True) for i in range(1, 6)]
        assert detect_convergence(traces) == 1

    def test_stable_suffix_start_is_reported(self):
        traces = [trace(i, (0, 3, 2), True) for i in range(1, 30)]
        traces += [trace(i, (0, 1, 2), True) for i in range(30, 76)]
        assert detect_convergence(traces) == 30

    def test_alternating_paths_never_converge(self):
        traces = []
        for i in range(1, 11):
            nodes = (0, 1, 2) if i % 2 else (0, 3, 2)
            traces.append(trace(i, nodes, True))
        assert detect_convergence(traces) is None

    def test_unreached_final_episode_means_none(self):
        traces = [trace(1, (0, 1, 2), True), trace(2, (0, 3), False)]
        assert detect_convergence(traces) is None

    def test_single_episode_run_counts_as_whole_run(self):
        assert detect_convergence([trace(1, (0, 1, 2), True)]) == 1

    def test_two_episode_stable_suffix_counts(self):
        traces = [
            trace(1, (0, 3, 2), True),
            trace(2, (0, 1, 2), True),
            trace(3, (0, 1, 2), True),
        ]
        assert detect_convergence(traces) == 2

    def test_identical_but_unreached_suffix_means_none(self):
        traces = [trace(i, (0, 3), False) for i in range(1, 4)]
        assert detect_convergence(traces) is None

    def test_empty_traces(self):
        assert detect_convergence([]) is None
