"""The learner's hot path against the per-hop reference forms in reference.py.

Per-demand link scores (repeated episodes served from their memo),
link-indexed Q-tables and CSR selection must give exactly what per-hop QoS
snapshots, record-based composite rewards and a dense NaN-masked table
give: equal bits, not approximately equal values.
"""

import random
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from reference import RewardRecord, records_of, rewards_of
from rlroute.dataplane import LossModel, execute_path
from rlroute.engine import Hyperparameters, QTable, find_temp_path, update_table
from rlroute.network import NodeState, RoutePath, TrafficDemand, build_graph, place_traffic
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    global_rewards_for_path,
    link_scores,
    local_rewards_for_path,
    make_weights,
)
from rlroute.topologies import load_builtin

seeds = st.integers(min_value=0, max_value=2**32 - 1)
weight_sets = st.builds(make_weights, *[st.floats(min_value=0.0, max_value=5.0)] * 5)
# Few distinct Q-values make ties common; ties must break the same way.
q_values = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5]), st.floats(min_value=-10.0, max_value=10.0)
)


@st.composite
def networks(draw):
    """A random graph with random rates, loads (over-subscription included)
    and reliabilities, plus a demand over it."""
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = [NodeState(i, draw(st.floats(min_value=1e5, max_value=1e9))) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    links = [
        (
            a,
            b,
            draw(st.floats(min_value=1e5, max_value=1e8)),
            draw(st.floats(min_value=0.0, max_value=2e8)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for a, b in chosen
    ]
    graph = build_graph(nodes, links)
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda d: d != src))
    traffic = draw(st.floats(min_value=1.0, max_value=1e8))
    return graph, TrafficDemand(src, dst, traffic)


@st.composite
def tables(draw, graph):
    table = QTable.for_graph(graph)
    for link in graph.iter_links():
        table.set(link.src, link.dst, draw(q_values))
    return table


def exact(rewards):
    """Rewards with values as hex strings, so that == also tells -0.0 from 0.0."""
    return [(r.src_id, r.dst_id, r.action_success, float(r.value).hex()) for r in rewards]


def same_values(table, dense, graph):
    return all(
        float(table.get(l.src, l.dst)).hex() == dense.get(l.src, l.dst).hex()
        for l in graph.iter_links()
    )


class TestLinkScores:
    @settings(max_examples=200, deadline=None)
    @given(networks(), weight_sets, seeds, st.booleans())
    def test_rewards_equal_per_hop_records(self, network, weights, seed, lossy):
        # A random walk ends at the destination, in a dead end or at the
        # TTL; bernoulli loss on random reliabilities drops packets often.
        graph, demand = network
        path = find_temp_path(
            demand, QTable.for_graph(graph), Hyperparameters(epsilon=1.0, ttl=6),
            random.Random(seed),
        )
        assume(path.hop_count > 0)
        result = execute_path(graph, path, LossModel(seed) if lossy else None)
        records = reference.execute_path(graph, path, LossModel(seed) if lossy else None)
        index = graph.link_index()
        assert [(index.sources[k], index.targets[k]) for k in result.records] == [
            (r.src_id, r.dst_id) for r in records
        ]
        assert result.lost == records[-1].has_lost

        scores = link_scores(graph, weights, demand)
        expected_local = exact(reference.local_rewards_for_path(records, weights, demand))
        expected_global = exact(reference.global_rewards_for_path(records, DEFAULT_WEIGHTS))
        # A repeated episode, scored from the demand's memo, gets the same
        # bits as the first; an equal result is a repeat too.
        for again in (result, replace(result)):
            assert exact(records_of(index, local_rewards_for_path(again, scores))) == expected_local
            assert exact(records_of(index, global_rewards_for_path(again, scores))) == expected_global

    @settings(max_examples=100, deadline=None)
    @given(networks(), weight_sets, seeds, st.booleans())
    def test_lost_and_clean_runs_of_one_path_score_apart(self, network, weights, seed, lost_first):
        # Same hops, different loss flag: each result gets its own rewards,
        # whichever the demand's scores saw first.
        graph, demand = network
        path = find_temp_path(
            demand, QTable.for_graph(graph), Hyperparameters(epsilon=1.0, ttl=6),
            random.Random(seed),
        )
        assume(path.hop_count > 0)
        clean = execute_path(graph, path)
        lost = replace(clean, lost=True)
        clean_records = reference.execute_path(graph, path)
        lost_records = clean_records[:-1] + (replace(clean_records[-1], has_lost=True),)
        scores = link_scores(graph, weights, demand)
        index = scores.index
        cases = [(clean, clean_records), (lost, lost_records)]
        for result, records in cases[::-1] if lost_first else cases:
            assert exact(records_of(index, local_rewards_for_path(result, scores))) == exact(
                reference.local_rewards_for_path(records, weights, demand)
            )
            assert exact(records_of(index, global_rewards_for_path(result, scores))) == exact(
                reference.global_rewards_for_path(records, DEFAULT_WEIGHTS)
            )

    def test_scores_read_loads_placed_after_the_graph_was_first_scored(self):
        # The graph keeps its load-free terms from the first scoring; the
        # loads placed after it must still reach the next demand's scores.
        graph = load_builtin("t2")
        demand = TrafficDemand(0, 3, 2e6)
        path = RoutePath((0, 1, 3), True)
        before = link_scores(graph, DEFAULT_WEIGHTS, demand)
        place_traffic(graph, path, demand)
        after = link_scores(graph, DEFAULT_WEIGHTS, demand)
        result = execute_path(graph, path)
        records = reference.execute_path(graph, path)
        index = after.index
        assert exact(records_of(index, local_rewards_for_path(result, after))) == exact(
            reference.local_rewards_for_path(records, DEFAULT_WEIGHTS, demand)
        )
        assert exact(records_of(index, global_rewards_for_path(result, after))) == exact(
            reference.global_rewards_for_path(records, DEFAULT_WEIGHTS)
        )
        assert local_rewards_for_path(result, before) != local_rewards_for_path(result, after)


class TestSelection:
    @settings(max_examples=200, deadline=None)
    @given(
        networks().flatmap(lambda net: st.tuples(st.just(net), tables(net[0]))),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        seeds,
        st.integers(min_value=1, max_value=8),
    )
    def test_csr_selection_matches_dense_table(self, case, epsilon, seed, ttl):
        (graph, demand), table = case
        hyper = Hyperparameters(epsilon=epsilon, ttl=ttl)
        dense = reference.DenseQTable.from_table(graph, table)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        path = find_temp_path(demand, table, hyper, rng)
        assert path == reference.find_temp_path(demand, dense, hyper, graph, reference_rng)
        # The same random draws, not just the same path.
        assert rng.getstate() == reference_rng.getstate()


class TestUpdate:
    @settings(max_examples=200, deadline=None)
    @given(
        networks().flatmap(lambda net: st.tuples(st.just(net), tables(net[0]))),
        seeds,
        st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=8, max_size=8),
        st.booleans(),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_update_matches_dense_table(
        self, case, seed, values, last_success, alpha, gamma, terminal_q
    ):
        (graph, demand), table = case
        path = find_temp_path(
            demand, table, Hyperparameters(epsilon=1.0), random.Random(seed)
        )
        assume(path.hop_count > 0)
        links = path.links()
        rewards = [
            RewardRecord(s, d, i < len(links) - 1 or last_success, values[i])
            for i, (s, d) in enumerate(links)
        ]
        hyper = Hyperparameters(alpha=alpha, gamma=gamma, terminal_q=terminal_q)
        dense = reference.DenseQTable.from_table(graph, table)
        update_table(table, rewards_of(table.index, rewards), hyper)
        reference.update_table(dense, rewards, hyper)
        assert same_values(table, dense, graph)


class TestEpisodes:
    @settings(max_examples=100, deadline=None)
    @given(networks(), weight_sets, st.floats(min_value=0.0, max_value=0.5), seeds, st.booleans())
    def test_learning_loop_matches_per_hop_reference(self, network, weights, epsilon, seed, lossy):
        # Several episodes of select, execute, score and update both tables,
        # each side with its own implementation and identically seeded
        # random sources: the paths and every Q-value stay equal throughout.
        graph, demand = network
        assume(graph.out_neighbors(demand.src))
        hyper = Hyperparameters(epsilon=epsilon, ttl=6)
        table, global_table = QTable.for_graph(graph), QTable.for_graph(graph)
        dense = reference.DenseQTable.from_table(graph, table)
        dense_global = reference.DenseQTable.from_table(graph, global_table)
        rng, loss = random.Random(seed), (LossModel(seed + 1) if lossy else None)
        reference_rng, reference_loss = random.Random(seed), (LossModel(seed + 1) if lossy else None)
        scores = link_scores(graph, weights, demand)
        for _ in range(8):
            path = find_temp_path(demand, table, hyper, rng)
            assert path == reference.find_temp_path(demand, dense, hyper, graph, reference_rng)
            result = execute_path(graph, path, loss)
            records = reference.execute_path(graph, path, reference_loss)
            update_table(table, local_rewards_for_path(result, scores), hyper)
            update_table(global_table, global_rewards_for_path(result, scores), hyper)
            reference.update_table(
                dense, reference.local_rewards_for_path(records, weights, demand), hyper
            )
            reference.update_table(
                dense_global,
                reference.global_rewards_for_path(records, DEFAULT_WEIGHTS),
                hyper,
            )
            assert same_values(table, dense, graph)
            assert same_values(global_table, dense_global, graph)
