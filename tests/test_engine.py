"""Q-table lifecycle, temp-path selection, SARSA updates, run orchestration."""

import math
import random
import re

import numpy as np
import pytest

from rlroute import dataplane, engine
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
from rlroute.rewards import (
    EpisodeRewards,
    global_rewards_for_path,
    local_rewards_for_path,
    make_weights,
)
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
                    assert not graph.has_link(i, j)
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

    @pytest.mark.parametrize(
        "value, problem",
        [
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be finite, got -inf"),
            (10**400, "must be finite, got an int beyond every float"),
            (10**5000, "must be finite, got an int beyond every float"),
            (True, "must be an int or float, got True"),
            ("0.5", "must be an int or float, got '0.5'"),
            (None, "must be an int or float, got None"),
        ],
        ids=["nan", "inf", "-inf", "huge-int", "unprintable-int", "bool", "str", "None"],
    )
    def test_constructor_refuses_non_finite_values(self, value, problem):
        # Selection compares against -inf and skips NaN, so a table must
        # never hold either, nor a value that is not a number or that no
        # float holds; the message names the link as store() does.
        index = load_builtin("t1").link_index()
        q = [0.0] * len(index.targets)
        q[2] = value
        message = f"Q-value for ({index.sources[2]},{index.targets[2]}) {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QTable(index, q)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QTable.for_graph(load_builtin("t1")).store(2, value)

    def test_constructor_refuses_a_value_count_other_than_the_links(self):
        index = load_builtin("t1").link_index()
        with pytest.raises(ValueError, match="4 Q-values for 5 links"):
            QTable(index, [0.0] * 4)
        assert QTable(index, [-1.0] * 5).q == [-1.0] * 5

    def test_constructor_copies_the_values_it_is_given(self):
        # A table owns its list: NaN written later into the caller's list
        # reaches no table, and a tuple becomes a list the learner can copy.
        graph = load_builtin("t1")
        demand = TrafficDemand(0, 4, 1e5)
        given = [-1.0] * 5
        table = QTable(graph.link_index(), given)
        given[:] = [math.nan] * 5
        assert table.q == [-1.0] * 5
        assert find_route(demand, graph, table).final_path.reached_destination
        table = QTable(graph.link_index(), (-1.0,) * 5)
        assert type(table.q) is list
        assert find_route(demand, graph, table).final_path.reached_destination
        assert table.q != [-1.0] * 5

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
         ("terminal_q", math.inf), ("terminal_q", math.nan), ("terminal_q", -(10**400))],
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
        # Refused at construction, naming the field, rather than stored as
        # a float.
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
        assert all(any(k is j for j in index.out[u]) for k, u in zip(path.links, path.nodes))

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


def walk_with_floors(demand, table):
    """A greedy walk and the floors find_route takes for it once a walk
    repeats it."""
    path = find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS)
    return path, engine._floors(path, table.q)


def recorded_walks(monkeypatch):
    """Wrap engine.find_temp_path, the final walk's included; returns the
    list of paths it walks."""
    walks = []
    select = engine.find_temp_path

    def recording(*args, **kwargs):
        walks.append(select(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(engine, "find_temp_path", recording)
    return walks


class TestRememberedWalk:
    def test_floors_are_each_hop_s_best_rival_into_an_unvisited_node(self):
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        path, floors = walk_with_floors(demand, table)
        assert path.nodes == (0, 1, 2, 3)
        # Per hop the best rival into a node not yet visited: 0-2, 1-4, 2-4.
        assert floors == [-1.8, -1.2, -1.3]
        assert engine._above_floors(path.links, floors, table.q)

    @pytest.mark.parametrize(
        "value, served, nodes",
        [(-1.6, True, (0, 1, 2, 3)), (-1.8, False, (0, 1, 2, 3)), (-2.0, False, (0, 2, 3))],
        ids=["above", "at", "below"],
    )
    def test_a_path_is_served_only_strictly_above_its_floors(self, value, served, nodes):
        # The last update wrote link 0-1 of the path 0-1-2-3, whose floor
        # there is -1.8 (0-2). Strictly above it the path is served; at or
        # below it a walk decides, the tie at -1.8 to the lower target.
        # Served, the path is the one a walk finds.
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        path, floors = walk_with_floors(demand, table)
        assert floors[0] == -1.8
        q_set(table, 0, 1, value)
        assert engine._above_floors(path.links, floors, table.q) is served
        assert find_final_path(demand, table, DEFAULT_HYPERPARAMETERS) == RoutePath(nodes, True)

    def test_a_tie_with_a_lower_target_rival_walks_and_the_rival_wins(self):
        # 0-2 beats 0-1 until an update lowers it to exactly 0-1's value:
        # strictly above the floor no longer holds, the walk decides, and
        # the tie goes to the lower target.
        graph = build_graph(4, [(0, 1, 1e6), (0, 2, 1e6), (1, 3, 1e6), (2, 3, 1e6)])
        table = table_from(graph, {(0, 1): -0.5, (0, 2): 0.25})
        demand = TrafficDemand(0, 3, 1e5)
        path, floors = walk_with_floors(demand, table)
        assert path.nodes == (0, 2, 3) and floors == [-0.5, -math.inf]
        q_set(table, 0, 2, -0.5)
        assert not engine._above_floors(path.links, floors, table.q)
        assert find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS).nodes == (0, 1, 3)

    def test_a_higher_rival_into_a_visited_node_does_not_stop_serving(self):
        graph = load_builtin("t2")
        table = table_from(graph, {**LOCAL_T2, (1, 0): 9.0, (2, 1): 9.0, (2, 0): 9.0})
        demand = TrafficDemand(0, 3, 1e5)
        path, floors = walk_with_floors(demand, table)
        assert path.nodes == (0, 1, 2, 3)
        assert floors == [-1.8, -1.2, -1.3]
        assert engine._above_floors(path.links, floors, table.q)

    def test_a_walk_that_leaves_the_path_drops_its_floors(self, monkeypatch):
        # Updates scripted per episode, each writing only links the episode
        # attempted. The repeated path 0-2-3 gets floors (0, -inf); once 0-2
        # falls to -1 the walk takes 0-1-3, whose 1-3 then falls below 1-4.
        # Served from 0-2-3's floors, 0-1-3 would pass; walked, 0-1-4-3 wins.
        graph = build_graph(5, [
            (0, 1, 1e6), (0, 2, 1e6), (1, 3, 1e6), (1, 4, 1e6), (2, 3, 1e6), (4, 3, 1e6),
        ])
        start = table_from(graph, {(0, 2): 1.0})
        script = iter([{}, {(0, 2): -1.0}, {(0, 1): 5.0, (1, 3): -2.0}, {}])

        def scripted(table, rewards, hyper):
            if table is start:  # the global table, seeding the local one
                return True
            for (s, a), value in next(script).items():
                assert graph.link_ids((s, a))[0] in rewards.links
                q_set(table, s, a, value)
            return True

        monkeypatch.setattr(engine, "update_table", scripted)
        result = find_route(TrafficDemand(0, 3, 1e5), graph, start,
                            hyper=Hyperparameters(episodes=4))
        assert [t.temp_path.nodes for t in result.traces] == [
            (0, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 4, 3),
        ]

    def test_exploration_serves_nothing(self, monkeypatch):
        # Every episode of an exploring run walks, and so does its final
        # path; greedy, the same demand is served once its walk repeats.
        walks = recorded_walks(monkeypatch)
        graph = load_builtin("t2")
        demand = TrafficDemand(0, 3, 1e5)
        hyper = Hyperparameters(epsilon=0.3)
        find_route(demand, graph, None, hyper=hyper, rng=random.Random(5))
        assert len(walks) == hyper.episodes + 1
        walks.clear()
        find_route(demand, graph, None)
        assert len(walks) < hyper.episodes

    def test_dead_end_and_ttl_endings_are_served_again(self, monkeypatch):
        # Once a walk repeats, each later episode and the final path are
        # served, though every episode fails and adds its penalty to the
        # path's last link: it stays above its floor.
        walks = recorded_walks(monkeypatch)
        dead_end = load_builtin("t4")
        table = QTable.for_graph(dead_end)
        q_set(table, 0, 5, 100.0)
        hyper = Hyperparameters(episodes=6)
        result = find_route(TrafficDemand(0, 4, 1e5), dead_end, table, hyper=hyper)
        assert len(walks) == 2
        assert all(t.temp_path is walks[0] for t in result.traces)
        assert result.final_path == RoutePath((0, 5), False)

        walks.clear()
        chain = build_graph(6, [(i, i + 1, 1e6) for i in range(5)])
        hyper = Hyperparameters(ttl=2, episodes=6)
        result = find_route(TrafficDemand(0, 5, 1e5), chain, None, hyper=hyper)
        assert len(walks) == 2
        assert engine._floors(walks[0], QTable.for_graph(chain).q) == [-math.inf, -math.inf]
        assert result.final_path == RoutePath((0, 1, 2), False)

    def test_equal_walks_have_equal_hashes_and_reprs(self):
        graph = load_builtin("t2")
        table, demand = table_from(graph, LOCAL_T2), TrafficDemand(0, 3, 1e5)
        first = find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS)
        again = find_temp_path(demand, table, DEFAULT_HYPERPARAMETERS)
        assert again == first and again is not first
        assert hash(again) == hash(first) and repr(again) == repr(first)


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

    def test_an_overflow_after_an_entry_changed_is_refused_naming_the_link(self):
        # Once an entry has changed the rest are updated without testing for
        # a change; an overflow among them is still refused. (0,1) changes
        # to -1 + -1e308, then (1,2) bootstraps from (2,3): -1e308 + -1e308.
        table = QTable.for_graph(self.t1())
        q_set(table, 1, 2, -1e308)
        q_set(table, 2, 3, -1e308)
        hyper = Hyperparameters(alpha=1.0, gamma=1.0)
        rewards = rewards_of(table.index, [
            RewardRecord(0, 1, True, -1.0),
            RewardRecord(1, 2, True, -1e308),
            RewardRecord(2, 3, True, -1.0),
        ])
        with pytest.raises(ValueError, match=r"^Q-value for \(1,2\) must be finite, got -inf$"):
            update_table(table, rewards, hyper)
        assert all(math.isfinite(v) for v in table.q)
        assert q_get(table, 0, 1) == -1.0 + -1e308
        assert q_get(table, 1, 2) == q_get(table, 2, 3) == -1e308


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

    @pytest.mark.parametrize("src, dst, node", [(0, 9, 9), (-1, 4, -1)])
    def test_unknown_endpoint_raises_naming_it(self, src, dst, node):
        graph = load_builtin("t1")
        message = rf"^demand {src}->{dst} references unknown node {node}$"
        with pytest.raises(ValueError, match=message):
            find_route(TrafficDemand(src, dst, 1e5), graph, QTable.for_graph(graph))

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
        # Without loss an execution is its path's links, so an episode is
        # scored exactly when its path differs from the episode before's;
        # any other updates with the rewards scored last.
        scored = iter(applied)
        before = None
        for trace in result.traces:
            if trace.temp_path != before:
                rewards = next(scored)
            before = trace.temp_path
            n = len(rewards)
            assert trace.attempted_hops == n == trace.temp_path.hop_count <= hyper.ttl
            assert trace.messages_with_aggregation == n + 1
            assert trace.messages_without_aggregation == 2 * n
            assert rewards.links == trace.temp_path.links
            records = records_of(graph.link_index(), rewards)
            assert [(r.src_id, r.dst_id) for r in records] == node_pairs(trace.temp_path)
        assert next(scored, None) is None

    @staticmethod
    def record_layers(monkeypatch):
        """Replace the layer globals the benchmark's tracer replaces with
        wrappers recording (layer, args, result) per call, the final
        walk's own selection left out. Returns the list they append to."""
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
        return calls

    EPISODE = ["execute", "local", "global", "update", "update"]

    def test_layers_are_called_once_per_episode_and_demand(self, monkeypatch):
        # The benchmark's tracer times the learner by replacing these module
        # globals, so find_route must keep calling each of them by name at
        # call time: per demand one init, and per episode that runs one
        # execution and two updates (rewards passed positionally). An
        # episode walks unless find_route serves it the path before, and
        # scores local and global rewards only when its execution differs
        # from the one before's; otherwise it updates with the rewards scored
        # last, the same objects. The first episode that changes neither
        # table settles the demand: nothing runs after it, and its path,
        # served, is the final path without a final walk.
        calls = self.record_layers(monkeypatch)
        graph = load_builtin("t8")
        episodes = DEFAULT_HYPERPARAMETERS.episodes
        result = find_route(builtin_demands("t8")[0], graph, QTable.for_graph(graph),
                            weights=make_weights(0, 0, 0, 1, 1))

        layers = [layer for layer, _, _ in calls]
        assert layers[0] == "init" and "final" not in layers
        episode_calls = calls[1:]
        ran = walked = scored = pos = 0
        execution = local = glob = None
        repeated = False
        while pos < len(episode_calls):
            path = result.traces[ran].temp_path
            if episode_calls[pos][0] == "select":
                selected = episode_calls[pos][2]
                # A walk that repeats the path before keeps that object.
                repeated = selected is not path
                if repeated:
                    assert selected == path and path is result.traces[ran - 1].temp_path
                walked += 1
                pos += 1
            else:
                # Only a path that a walk has repeated is served.
                assert repeated and path is result.traces[ran - 1].temp_path
            execute = episode_calls[pos]
            assert execute[0] == "execute"
            assert execute[1][1] is path.links
            # What the tracer's counters read at each boundary.
            assert len(execute[2].records) == path.hop_count
            pos += 1
            if execute[2] != execution:
                execution = execute[2]
                local_call, glob_call = episode_calls[pos:pos + 2]
                assert [local_call[0], glob_call[0]] == ["local", "global"]
                assert local_call[1][0] is glob_call[1][0] is execution
                assert len(local_call[2]) == len(glob_call[2]) == len(execution.records)
                local, glob = local_call[2], glob_call[2]
                scored += 1
                pos += 2
            update_local, update_global = episode_calls[pos:pos + 2]
            assert [update_local[0], update_global[0]] == ["update", "update"]
            assert update_local[1][1] is local
            assert update_global[1][1] is glob
            pos += 2
            ran += 1
            settled = pos == len(episode_calls)
            assert (update_local[2] or update_global[2]) is not settled
        assert 1 < scored < walked < ran < episodes
        # Every later episode is the settling one under its own index.
        settling = result.traces[ran - 1]
        assert [t.episode_index for t in result.traces] == list(range(1, episodes + 1))
        assert all(
            t.temp_path is settling.temp_path and t.attempted_hops == settling.attempted_hops
            for t in result.traces[ran:]
        )
        assert result.final_path == RoutePath(path.nodes, path.reached_destination)

    @pytest.mark.parametrize("epsilon, lossy", [(0.02, False), (0.0, True)])
    def test_exploring_or_lossy_runs_make_every_call(self, monkeypatch, epsilon, lossy):
        # Exploration and loss draw from their random sources every
        # episode, so every episode runs and executes, even after one that
        # changed no Q-value. The t8 links drop 0.5% to 2% of packets. An
        # episode whose execution equals the one before's updates with that
        # episode's rewards, the same objects, and scores nothing. Each
        # exploring episode walks, and so does its final path; a greedy
        # one is served the path before once a walk has repeated it.
        calls = self.record_layers(monkeypatch)
        graph = load_builtin("t8")
        episodes = DEFAULT_HYPERPARAMETERS.episodes
        find_route(builtin_demands("t8")[0], graph, QTable.for_graph(graph),
                   weights=make_weights(0, 0, 0, 1, 1),
                   hyper=Hyperparameters(epsilon=epsilon), rng=random.Random(3),
                   loss=random.Random(3) if lossy else None)

        layers = [layer for layer, _, _ in calls]
        executions = [result for layer, _, result in calls if layer == "execute"]
        assert len(executions) == episodes
        scored = [True] + [a != b for a, b in zip(executions, executions[1:])]
        expected = ["init"]
        for fresh in scored:
            expected += self.EPISODE if fresh else ["execute", "update", "update"]
        final = layers[-1] == "final"
        assert [layer for layer in layers if layer != "select"] == expected + ["final"] * final
        assert all(
            after == "execute" for layer, after in zip(layers, layers[1:]) if layer == "select"
        )
        walks = layers.count("select")
        assert (walks == episodes and final) if epsilon else 1 < walks < episodes
        assert not all(scored)
        applied = [args[1] for layer, args, _ in calls if layer == "update"][::2]
        assert [a is not b for a, b in zip(applied, applied[1:])] == scored[1:]
        # Some episode before the last changed no Q-value.
        updates = [result for layer, _, result in calls if layer == "update"]
        changed = [local or glob for local, glob in zip(updates[::2], updates[1::2])]
        assert not all(changed[:-1])

    def test_every_select_execute_and_score_goes_through_the_module(self, monkeypatch):
        # The benchmark's tracer counts these calls by replacing the module
        # globals: per demand, one execution per episode that runs, one
        # walk per episode that find_route does not serve plus one per
        # final walk (at most one), and one local scoring per episode whose
        # path differs from the episode before's (without loss an execution
        # is its path's links). Episodes run up to the first that changes
        # neither table, or to the end of the budget.
        counts = {}
        changes = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        update = engine.update_table

        def recording(*args, **kwargs):
            changes.append(update(*args, **kwargs))
            return changes[-1]

        for module, name in (
            (engine, "find_temp_path"),
            (dataplane, "execute_path"),
            (engine, "local_rewards_for_path"),
            (engine, "find_final_path"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(engine, "update_table", recording)
        graph = load_builtin("t8")
        global_table = QTable.for_graph(graph)
        episodes = DEFAULT_HYPERPARAMETERS.episodes
        served = settled = unscored = 0
        for demand in builtin_demands("t8"):
            counts.clear()
            changes.clear()
            result = find_route(demand, graph, global_table, weights=make_weights(0, 0, 0, 1, 1))
            ran = len(changes) // 2
            paths = [trace.temp_path for trace in result.traces[:ran]]
            scored = 1 + sum(a != b for a, b in zip(paths, paths[1:]))
            finals = counts.get("find_final_path", 0)
            walks = counts["find_temp_path"] - finals
            assert counts["execute_path"] == ran
            assert counts["local_rewards_for_path"] == scored
            assert scored <= walks <= ran and finals <= 1
            changed = [local or glob for local, glob in zip(changes[::2], changes[1::2])]
            assert all(changed[:-1])
            assert ran == episodes or not changed[-1]
            assert len(result.traces) == episodes
            settled += ran < episodes
            served += ran - walks
            unscored += ran - scored
        assert served > 0
        assert settled > 0
        # Some executed episodes repeat the path before and score nothing.
        assert unscored > 0

    @pytest.mark.parametrize("reuse", [False, True])
    def test_a_settled_demand_s_final_path_is_its_last_temp_path_served(self, monkeypatch, reuse):
        # A settling episode changed no Q-value, so the table the final path
        # is taken from is the one its temp path was served or walked from.
        # On t8 every settling path is served, so it is the final path, and
        # no final walk runs.
        finals, changes = [], []
        final, update = engine.find_final_path, engine.update_table

        def finishing(*args, **kwargs):
            finals.append(final(*args, **kwargs))
            return finals[-1]

        def recording(*args, **kwargs):
            changes.append(update(*args, **kwargs))
            return changes[-1]

        monkeypatch.setattr(engine, "find_final_path", finishing)
        monkeypatch.setattr(engine, "update_table", recording)
        graph = load_builtin("t8")
        global_table = QTable.for_graph(graph) if reuse else None
        settled = 0
        for demand in builtin_demands("t8"):
            finals.clear()
            changes.clear()
            result = find_route(demand, graph, global_table)
            if reuse:
                changes = [local or glob for local, glob in zip(changes[::2], changes[1::2])]
            if changes[-1]:
                continue
            settled += 1
            last = result.traces[-1].temp_path
            assert result.final_path == RoutePath(last.nodes, last.reached_destination)
            assert not finals
        assert settled > 0

    def test_without_global_table_learns_the_same(self):
        # A global table that nothing reads changes nothing the learner
        # does: the same traces and final path, and the same random draws,
        # both for exploration and for packet loss (t2 links drop 5%).
        def run(global_table):
            graph = load_builtin("t2")
            loss = random.Random(3)
            rng = random.Random(5)
            result = find_route(
                TrafficDemand(0, 4, 1e5), graph, global_table,
                hyper=Hyperparameters(epsilon=0.3), rng=rng, loss=loss,
            )
            return result, rng.getstate(), loss.getstate()

        result, rng_state, loss_state = run(None)
        expected, expected_rng_state, expected_loss_state = run(
            QTable.for_graph(load_builtin("t2"))
        )
        assert result.traces == expected.traces
        assert result.final_path == expected.final_path
        assert rng_state == expected_rng_state
        assert loss_state == expected_loss_state
        assert any(t.attempted_hops < t.temp_path.hop_count for t in result.traces)

    def test_global_gamma_true_refused_after_gamma_1(self):
        # The global hyperparameters are built once per gamma; True equals
        # and hashes as 1 and 1.0, yet must not be served their entry.
        graph = load_builtin("t1")
        demand = TrafficDemand(0, 4, 1e5)
        for gamma in (1, 1.0):
            find_route(demand, graph, QTable.for_graph(graph), global_gamma=gamma)
            with pytest.raises(
                ValueError, match=r"^global_gamma must be an int or float, got True$"
            ):
                find_route(demand, graph, QTable.for_graph(graph), global_gamma=True)

    def test_global_gamma_must_be_a_python_number(self):
        graph = load_builtin("t1")
        with pytest.raises(
            ValueError, match=r"^global_gamma must be an int or float, got \[0\.5\]$"
        ):
            find_route(TrafficDemand(0, 4, 1e5), graph, QTable.for_graph(graph),
                       global_gamma=[0.5])

    @pytest.mark.parametrize("gamma", [1.5, -0.5, math.nan])
    def test_global_gamma_out_of_range_is_refused_naming_it(self, gamma):
        # Worded as ExperimentConfig words it.
        graph = load_builtin("t1")
        with pytest.raises(ValueError, match=rf"^global_gamma {gamma} outside \[0, 1\]$"):
            find_route(TrafficDemand(0, 4, 1e5), graph, QTable.for_graph(graph),
                       global_gamma=gamma)

    def test_global_gamma_without_a_global_table_is_refused(self):
        # Only global updates read global_gamma.
        graph = load_builtin("t1")
        with pytest.raises(
            ValueError, match=r"^global_gamma 0.5 needs a global_table: no global table reads it$"
        ):
            find_route(TrafficDemand(0, 4, 1e5), graph, None, global_gamma=0.5)

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


def test_hot_functions_keep_no_closure_cells():
    # A comprehension or lambda reading a local makes it a closure cell of
    # the whole function (Python 3.11), read through the cell on every use,
    # in every greedy scan, SARSA pass, reward scoring and per-hop loss draw.
    for function in (
        find_temp_path, update_table, find_route, local_rewards_for_path, global_rewards_for_path,
        dataplane.execute_path, engine._floors, engine._above_floors,
    ):
        assert function.__code__.co_cellvars == ()


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
