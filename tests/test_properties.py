"""Randomized invariant checks for selection, updates, rewards, and IO."""

import math
import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from rlroute.dataplane import LossModel, execute_path
from rlroute.engine import (
    DEFAULT_HYPERPARAMETERS,
    EpisodeTrace,
    Hyperparameters,
    QTable,
    find_temp_path,
    update_table,
)
from rlroute.harness import baseline_min_hop
from rlroute.network import (
    NodeState,
    TrafficDemand,
    build_graph,
    check_path,
    graph_from_dict,
    place_traffic,
)
from rlroute.rewards import link_scores, make_weights, reward_intensity
from reference import (
    RewardRecord,
    graph_to_dict,
    incoming_traffic,
    node_pairs,
    q_get,
    q_set,
    rewards_of,
    sarsa_update,
)
from scenarios import chain_rewards

finite = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def routing_scenarios(draw):
    """A random graph with Q-values on every link plus a demand over it."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    graph = build_graph(n, [(a, b, 1e7) for a, b in chosen])
    table = QTable.for_graph(graph)
    for link in graph.iter_links():
        q_set(table, link.src, link.dst, draw(finite))
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda d: d != src))
    return graph, table, TrafficDemand(src, dst, 1e5)


@st.composite
def placed_graphs(draw):
    """A random graph with fractional link loads, after placing a random
    sequence of fractional demands along their min-hop paths. Nodes process
    1 b/s, so an intensity term keeps nearly every bit of its node's sum."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    rate = st.floats(min_value=1e-3, max_value=1e5)
    nodes = [NodeState(i, 1.0) for i in range(n)]
    graph = build_graph(nodes, [(a, b, 1e7, draw(rate | st.just(0.0))) for a, b in chosen])
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda d: d != src))
        demand = TrafficDemand(src, dst, draw(rate))
        path = baseline_min_hop(graph, demand)
        if path.reached_destination:
            place_traffic(graph, path, demand)
    return graph


@st.composite
def reward_sequences(draw):
    """Rewards along a chain 0->1->...->k plus starting Q-values for it."""
    length = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(finite, min_size=length, max_size=length))
    initial = draw(st.lists(finite, min_size=length, max_size=length))
    last_success = draw(st.booleans())
    records = tuple(
        RewardRecord(i, i + 1, i < length - 1 or last_success, v)
        for i, v in enumerate(values)
    )
    return records, tuple(initial)


def chain_table(length, initial):
    graph = build_graph(length + 1, [(i, i + 1, 1e7) for i in range(length)])
    table = QTable.for_graph(graph)
    for i, q in enumerate(initial):
        q_set(table, i, i + 1, q)
    return table


def bfs_distance(graph, src, dst):
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if node == dst:
            return dist
        for nxt in graph.out_neighbors(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    return None


class TestPathSelection:
    @settings(max_examples=300, deadline=None)
    @given(
        routing_scenarios(),
        st.sampled_from([0.0, 0.3, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6),
    )
    def test_temp_paths_are_loop_free_and_valid(self, scenario, epsilon, seed, ttl):
        graph, table, demand = scenario
        hyper = Hyperparameters(epsilon=epsilon, ttl=ttl)
        path = find_temp_path(demand, table, hyper, rng=random.Random(seed))
        assert path.nodes[0] == demand.src
        assert len(set(path.nodes)) == len(path.nodes)
        assert path.hop_count <= ttl
        # The ids selection chose are the links joining its nodes.
        assert path.links == check_path(graph, path) == graph.link_ids(path.nodes)
        assert path.reached_destination == (path.nodes[-1] == demand.dst)


class TestUpdateAggregation:
    @settings(max_examples=300)
    @given(
        reward_sequences(),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        finite,
    )
    def test_batched_update_matches_two_phase_oracle(self, seq, alpha, gamma, terminal_q):
        # Every entry reads its successor's Q-value before that successor is
        # rewritten, so updating in action order after the walk must equal a
        # two-phase sweep that reads everything from a frozen snapshot.
        rewards, initial = seq
        hyper = Hyperparameters(alpha=alpha, gamma=gamma, terminal_q=terminal_q)
        batched = chain_table(len(rewards), initial)
        update_table(batched, rewards_of(batched.index, rewards), hyper)

        oracle = chain_table(len(rewards), initial)
        snapshot = oracle.copy()
        writes = []
        for i, rec in enumerate(rewards[:-1]):
            succ = rewards[i + 1]
            writes.append((rec.src_id, rec.dst_id, sarsa_update(
                q_get(snapshot, rec.src_id, rec.dst_id), rec.value,
                q_get(snapshot, succ.src_id, succ.dst_id), alpha, gamma,
            )))
        last = rewards[-1]
        if last.action_success:
            writes.append((last.src_id, last.dst_id, sarsa_update(
                q_get(snapshot, last.src_id, last.dst_id), last.value, terminal_q, alpha, gamma,
            )))
        else:
            writes.append((last.src_id, last.dst_id,
                           q_get(snapshot, last.src_id, last.dst_id) + last.value))
        for s, a, v in writes:
            q_set(oracle, s, a, v)

        assert batched == oracle

    @settings(max_examples=200)
    @given(reward_sequences(), st.floats(min_value=0.05, max_value=1.0))
    def test_updates_preserve_mask_and_finiteness(self, seq, alpha):
        rewards, initial = seq
        table = chain_table(len(rewards), initial)
        index = table.index
        update_table(table, rewards_of(index, rewards), Hyperparameters(alpha=alpha))
        # Cells exist for the graph's links only, before and after.
        assert table.index is index
        assert len(table.q) == len(index.targets) == len(rewards)
        assert all(math.isfinite(q) for q in table.q)
        for i in range(len(rewards)):
            assert math.isfinite(q_get(table, i, i + 1))

    @given(
        st.floats(min_value=-10.0, max_value=-0.1),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_failure_penalty_accumulates_independent_of_hyper(self, value, repeats, alpha, gamma):
        # A failed terminal action adds its value directly, so neither the
        # learning rate nor the discount can influence the running total.
        table = chain_table(1, (0.0,))
        rewards = rewards_of(table.index, (RewardRecord(0, 1, False, value),))
        expected = 0.0
        for _ in range(repeats):
            previous = q_get(table, 0, 1)
            update_table(table, rewards, Hyperparameters(alpha=alpha, gamma=gamma))
            expected += value
            assert q_get(table, 0, 1) == expected
            assert q_get(table, 0, 1) < previous


class TestRewardBounds:
    rate = st.floats(min_value=1.0, max_value=1e9)
    load = st.floats(min_value=0.0, max_value=1e9)
    weight_values = st.floats(min_value=0.0, max_value=5.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=32),
        rate, rate, load, rate, load,
        st.floats(min_value=0.0, max_value=1.0),
        st.tuples(weight_values, weight_values, weight_values, weight_values, weight_values),
        st.floats(min_value=0.0, max_value=1e8, exclude_min=True),
    )
    def test_successful_rewards_never_exceed_their_caps(
        self, hops, sender, receiver, other_incoming, max_bw, used, rel, raw_weights, extra
    ):
        # Each term is at most 1, so the weighted sum stays below the
        # normalizing constant: local tops out at -0.1, global at 0.
        # (A demand's traffic is always positive, hence extra > 0.) The
        # receiver's other inbound traffic is drawn apart from the link's
        # load, so intensity varies independently of utilization.
        weights = make_weights(*raw_weights)
        local, glob = chain_rewards(
            hops, sender, receiver, used + other_incoming, max_bw, used, rel, weights, extra
        )
        assert local[-1].action_success and glob[-1].action_success
        assert local[-1].value <= -0.1 + 1e-9
        assert glob[-1].value <= 1e-9


class TestIncomingTraffic:
    @settings(max_examples=200, deadline=None)
    @given(placed_graphs())
    def test_intensity_reads_the_sum_of_inbound_loads(self, graph):
        # Placements add fractional rates link by link; each intensity term
        # still sees its receiver's inbound loads as they now sum.
        demand = TrafficDemand(0, 1, 1.0)
        scores = link_scores(graph, make_weights(0, 0, 0, 1, 0), demand)
        assert scores.intensity == [
            reward_intensity(
                incoming_traffic(graph, dst), graph.node(dst).processing_rate, demand.traffic
            )
            for dst in graph.link_index().targets
        ]


class TestBaselineOptimality:
    @settings(max_examples=300, deadline=None)
    @given(routing_scenarios())
    def test_baseline_matches_bfs_distance(self, scenario):
        graph, _, demand = scenario
        shortest = bfs_distance(graph, demand.src, demand.dst)
        path = baseline_min_hop(graph, demand)
        if shortest is None:
            assert path.nodes == (demand.src,)
            assert not path.reached_destination
        else:
            assert path.reached_destination
            assert path.hop_count == shortest
            assert len(set(path.nodes)) == len(path.nodes)
            check_path(graph, path)


class TestMessageAccounting:
    @settings(max_examples=300, deadline=None)
    @given(routing_scenarios(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_counts_follow_attempted_hops(self, scenario, seed):
        graph, table, demand = scenario
        path = find_temp_path(
            demand, table, DEFAULT_HYPERPARAMETERS, rng=random.Random(seed)
        )
        result = execute_path(graph, path.links)
        n = len(result.records)
        assert n == path.hop_count
        trace = EpisodeTrace(episode_index=1, temp_path=path, attempted_hops=n)
        assert trace.messages_with_aggregation == n + 1
        assert trace.messages_without_aggregation == 2 * n
        assert not result.lost
        index = graph.link_index()
        assert [(index.sources[k], index.targets[k]) for k in result.records] == node_pairs(path)
        assert result.records is path.links

    @settings(max_examples=300, deadline=None)
    @given(
        routing_scenarios(),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=56, max_size=56),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lossy_execution_attempts_a_prefix_of_the_ids(self, scenario, reliabilities, seed):
        # Random reliabilities make losses common: a lost run stops at the
        # losing hop, and only a lost run may stop before the last link.
        base, table, demand = scenario
        graph = build_graph(
            base.num_nodes,
            [(l.src, l.dst, l.max_bandwidth, 0.0, reliability)
             for l, reliability in zip(base.iter_links(), reliabilities)],
        )
        path = find_temp_path(demand, table, Hyperparameters(epsilon=0.3), rng=random.Random(seed))
        result = execute_path(graph, path.links, LossModel(seed))
        n = len(result.records)
        assert result.records == path.links[:n]
        assert n >= 1 or path.hop_count == 0
        assert result.lost or n == path.hop_count


class TestSerialization:
    @settings(max_examples=200)
    @given(
        routing_scenarios(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e7),
    )
    def test_graph_dict_round_trip(self, scenario, reliability, used):
        base, _, _ = scenario
        graph = build_graph(
            base.num_nodes,
            [(l.src, l.dst, l.max_bandwidth, used, reliability) for l in base.iter_links()],
        )
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored == graph
