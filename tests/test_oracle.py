"""The learner's hot path against the per-hop reference forms in reference.py.

Per-demand link scores, link-indexed Q-tables and CSR selection must give exactly what per-hop QoS
snapshots, record-based composite rewards and a dense NaN-masked table
give: equal bits, not approximately equal values.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from reference import (
    RewardRecord,
    node_pairs,
    q_get,
    q_set,
    records_of,
    rewards_of,
    route_of,
    sarsa_update,
)
from rlroute.dataplane import execute_path
from rlroute.engine import Hyperparameters, QTable, find_route, find_temp_path, update_table
from rlroute.network import RoutePath, TrafficDemand, build_graph, place_traffic
from rlroute.harness import baseline_min_hop
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    EpisodeRewards,
    KEPT_BOOKS,
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
def networks(draw, reliabilities=st.floats(min_value=0.0, max_value=1.0)):
    """A random graph with random rates, loads (over-subscription included)
    and reliabilities, plus a demand over it."""
    n = draw(st.integers(min_value=2, max_value=8))
    rates = [draw(st.floats(min_value=1e5, max_value=1e9)) for _ in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    links = [
        (
            a,
            b,
            draw(st.floats(min_value=1e5, max_value=1e8)),
            draw(st.floats(min_value=0.0, max_value=2e8)),
            draw(reliabilities),
        )
        for a, b in chosen
    ]
    graph = build_graph(rates, links)
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda d: d != src))
    traffic = draw(st.floats(min_value=1.0, max_value=1e8))
    return graph, TrafficDemand(src, dst, traffic)


@st.composite
def tables(draw, graph):
    table = QTable.for_graph(graph)
    for link in graph.iter_links():
        q_set(table, link.src, link.dst, draw(q_values))
    return table


# Signed zeros tie under ==, so a scan must keep the first of them.
tie_values = st.sampled_from([-1.0, -0.0, 0.0, 0.5])


@st.composite
def duplex_cases(draw):
    """A dense graph of duplex pairs, a table and a demand. With per-target
    values every node's best out-link leads to the same few nodes, so once
    those are visited the best link at each later step is one to skip;
    leaves (one duplex pair) are dead ends once entered."""
    n = draw(st.integers(min_value=3, max_value=9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1, max_size=len(pairs))
    )
    graph = build_graph(n, [(a, b, 1e7) for a, b in chosen] + [(b, a, 1e7) for a, b in chosen])
    table = QTable.for_graph(graph)
    if draw(st.booleans()):
        by_target = draw(st.lists(tie_values | q_values, min_size=n, max_size=n))
        for link in graph.iter_links():
            q_set(table, link.src, link.dst, by_target[link.dst])
    else:
        for link in graph.iter_links():
            q_set(table, link.src, link.dst, draw(tie_values))
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda d: d != src))
    return graph, table, TrafficDemand(src, dst, 1e5)


def exact(rewards):
    """Rewards with values as hex strings, so that == also tells -0.0 from 0.0."""
    return [(r.src_id, r.dst_id, r.action_success, float(r.value).hex()) for r in rewards]


def same_values(table, dense, graph):
    return all(
        float(q_get(table, l.src, l.dst)).hex() == dense.get(l.src, l.dst).hex()
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
        result = execute_path(graph, path.links, random.Random(seed) if lossy else None)
        records = reference.execute_path(graph, path, random.Random(seed) if lossy else None)
        index = graph.link_index()
        assert [(index.sources[k], index.targets[k]) for k in result.records] == [
            (r.src_id, r.dst_id) for r in records
        ]
        assert result.lost == records[-1].has_lost

        scores = link_scores(graph, weights, demand)
        expected_local = exact(reference.local_rewards_for_path(records, weights, demand))
        expected_global = exact(reference.global_rewards_for_path(records, DEFAULT_WEIGHTS))
        # Scoring leaves the demand's scores as they were: the same or an
        # equal result scored again gets the same bits.
        for again in (result, result._replace()):
            assert exact(records_of(index, local_rewards_for_path(again, scores))) == expected_local
            assert exact(records_of(index, global_rewards_for_path(again, scores))) == expected_global

    @settings(max_examples=100, deadline=None)
    @given(networks(), weight_sets, seeds, st.booleans())
    def test_lost_and_clean_runs_of_one_path_score_apart(self, network, weights, seed, lost_first):
        # Same hops, different loss flag: each result gets its own rewards,
        # whichever is scored first.
        graph, demand = network
        path = find_temp_path(
            demand, QTable.for_graph(graph), Hyperparameters(epsilon=1.0, ttl=6),
            random.Random(seed),
        )
        assume(path.hop_count > 0)
        clean = execute_path(graph, path.links)
        lost = clean._replace(lost=True)
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

    @settings(max_examples=100, deadline=None)
    @given(networks(), weight_sets, weight_sets)
    def test_weight_sets_scored_on_one_graph_keep_apart(self, network, first, second):
        # The graph keeps its weighted terms per weight set: scoring under
        # one set, then another, then the first again gives the bits a
        # never-scored copy of the graph gives each time.
        graph, demand = network
        for weights in (first, second, first):
            kept = link_scores(graph, weights, demand)
            fresh = link_scores(graph.copy(), weights, demand)
            for name in ("hop", "transmission", "reliability", "intensity", "utilization",
                         "global_reward"):
                assert [v.hex() for v in getattr(kept, name)] == [
                    v.hex() for v in getattr(fresh, name)
                ]

    @settings(max_examples=150, deadline=None)
    @given(
        networks(),
        st.lists(weight_sets, min_size=2, max_size=2),
        st.lists(st.floats(min_value=1.0, max_value=1e8), min_size=3, max_size=6, unique=True),
        st.data(),
    )
    def test_kept_scores_equal_fresh_ones_after_every_placement(
        self, network, weight_pair, traffics, data
    ):
        # Placements interleave with scorings under two weight sets and
        # several traffic values, so a book often catches up on several
        # placements at once, and with more than KEPT_BOOKS pairs a dropped
        # book is built again. After each placement the scores the graph
        # keeps have the bits of a full evaluation on a copy of the graph,
        # and an episode's rewards those of the per-hop reference forms.
        graph, _ = network
        n, index = graph.num_nodes, graph.link_index()
        nodes = st.integers(min_value=0, max_value=n - 1)
        books = [(w, t) for w in weight_pair for t in traffics]
        for step in range(data.draw(st.integers(min_value=1, max_value=10), "placements")):
            src = data.draw(nodes, "src")
            dst = data.draw(nodes.filter(lambda d: d != src), "dst")
            placed = TrafficDemand(src, dst, data.draw(st.sampled_from(traffics), "traffic"))
            route = baseline_min_hop(graph, placed)
            if route.reached_destination:
                place_traffic(graph, route, placed)
            last = step == 9 or data.draw(st.booleans(), "last")
            # The last step scores every book; the others one drawn book.
            for weights, traffic in books if last else [data.draw(st.sampled_from(books), "book")]:
                demand = TrafficDemand(src, dst, traffic)
                scores = link_scores(graph, weights, demand)
                fresh = link_scores(graph.copy(), weights, demand)
                for name in ("hop", "transmission", "reliability", "intensity", "utilization",
                             "global_reward"):
                    assert [v.hex() for v in getattr(scores, name)] == [
                        v.hex() for v in getattr(fresh, name)
                    ], name
                assert len(graph.scores.books) <= KEPT_BOOKS
                path = find_temp_path(
                    demand, QTable.for_graph(graph), Hyperparameters(epsilon=1.0, ttl=6),
                    random.Random(step),
                )
                if path.hop_count:
                    result = execute_path(graph, path.links)
                    records = reference.execute_path(graph, path)
                    assert exact(records_of(index, local_rewards_for_path(result, scores))) == (
                        exact(reference.local_rewards_for_path(records, weights, demand))
                    )
                    assert exact(records_of(index, global_rewards_for_path(result, scores))) == (
                        exact(reference.global_rewards_for_path(records, DEFAULT_WEIGHTS))
                    )
            if last:
                break

    def test_scores_read_loads_placed_after_the_graph_was_first_scored(self):
        # The graph keeps its load-free terms from the first scoring; the
        # loads placed after it must still reach the next demand's scores.
        graph = load_builtin("t2")
        demand = TrafficDemand(0, 3, 2e6)
        path = RoutePath((0, 1, 3), True)
        result = execute_path(graph, graph.link_ids(path.nodes))
        # Read before the placement: the graph rescores its kept lists in place.
        before = local_rewards_for_path(result, link_scores(graph, DEFAULT_WEIGHTS, demand))
        place_traffic(graph, path, demand)
        after = link_scores(graph, DEFAULT_WEIGHTS, demand)
        records = reference.execute_path(graph, path)
        index = after.index
        assert exact(records_of(index, local_rewards_for_path(result, after))) == exact(
            reference.local_rewards_for_path(records, DEFAULT_WEIGHTS, demand)
        )
        assert exact(records_of(index, global_rewards_for_path(result, after))) == exact(
            reference.global_rewards_for_path(records, DEFAULT_WEIGHTS)
        )
        assert before != local_rewards_for_path(result, after)


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
        expected = reference.find_temp_path(demand, dense, hyper, graph, reference_rng)
        assert route_of(path) == expected
        # The same random draws, not just the same path.
        assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        duplex_cases(),
        st.sampled_from([0.0, 0.3, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        seeds,
        st.integers(min_value=1, max_value=9),
    )
    def test_selection_skips_visited_best_links_as_the_reference_does(
        self, case, epsilon, seed, ttl
    ):
        graph, table, demand = case
        hyper = Hyperparameters(epsilon=epsilon, ttl=ttl)
        dense = reference.DenseQTable.from_table(graph, table)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        path = find_temp_path(demand, table, hyper, rng)
        expected = reference.find_temp_path(demand, dense, hyper, graph, reference_rng)
        assert route_of(path) == expected
        assert rng.getstate() == reference_rng.getstate()


class TestSarsaUpdate:
    """The reference one-step update that update_table is compared against."""

    def test_alpha_one_substitutes_fully(self):
        assert sarsa_update(0.0, -2.0, -2.0, alpha=1.0, gamma=1.0) == -4.0

    def test_alpha_zero_changes_nothing(self):
        assert sarsa_update(-3.3, 100.0, 50.0, alpha=0.0, gamma=1.0) == -3.3

    def test_worked_blend(self):
        # 0.1*(-1) + 0.9*(-0.65 + 0.9*(-0.5)) = -1.09
        value = sarsa_update(-1.0, -0.65, -0.5, alpha=0.9, gamma=0.9)
        assert value == pytest.approx(-1.09, abs=1e-9)


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
        links = node_pairs(path)
        rewards = [
            RewardRecord(s, d, i < len(links) - 1 or last_success, values[i])
            for i, (s, d) in enumerate(links)
        ]
        hyper = Hyperparameters(alpha=alpha, gamma=gamma, terminal_q=terminal_q)
        dense = reference.DenseQTable.from_table(graph, table)
        update_table(table, rewards_of(table.index, rewards), hyper)
        reference.update_table(dense, rewards, hyper)
        assert same_values(table, dense, graph)

    @settings(max_examples=300, deadline=None)
    @given(
        duplex_cases(),
        seeds,
        st.lists(tie_values | q_values, min_size=9, max_size=9),
        st.booleans(),
        st.sampled_from([0.05, 0.5, 1.0]) | st.floats(min_value=0.05, max_value=1.0),
        st.sampled_from([0.0, 0.9, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        tie_values,
    )
    def test_update_matches_step_interleaved_sarsa_bit_for_bit(
        self, case, seed, values, last_ok, alpha, gamma, terminal_q
    ):
        # Each step writes sarsa_update of the current values before the
        # next step reads; -0.0 in the table, rewards and bootstrap must
        # come out with the same sign.
        graph, table, demand = case
        path = find_temp_path(demand, table, Hyperparameters(epsilon=1.0), random.Random(seed))
        assume(path.hop_count > 0)
        links = path.links
        rewards = EpisodeRewards(links, tuple(values[: len(links)]), last_ok)
        hyper = Hyperparameters(alpha=alpha, gamma=gamma, terminal_q=terminal_q)
        expected = list(table.q)
        for i, k in enumerate(links):
            if i < len(links) - 1:
                q_next = expected[links[i + 1]]
                expected[k] = sarsa_update(expected[k], values[i], q_next, alpha, gamma)
            elif last_ok:
                expected[k] = sarsa_update(expected[k], values[i], terminal_q, alpha, gamma)
            else:
                expected[k] = expected[k] + values[i]
        update_table(table, rewards, hyper)
        assert [v.hex() for v in table.q] == [v.hex() for v in expected]

    @settings(max_examples=300, deadline=None)
    @given(
        duplex_cases(),
        seeds,
        st.lists(tie_values | q_values, min_size=9, max_size=9),
        st.booleans(),
        st.sampled_from([0.5, 1.0]) | st.floats(min_value=0.05, max_value=1.0),
        st.sampled_from([0.0, 0.9]) | st.floats(min_value=0.0, max_value=1.0),
        tie_values,
    )
    def test_update_reports_a_change_exactly_when_a_bit_changed(
        self, case, seed, values, last_ok, alpha, gamma, terminal_q
    ):
        # The same rewards applied again: with alpha 1 a path's values stop
        # moving after a few applications, and signed zeros in the table,
        # rewards and bootstrap give writes that == calls equal.
        graph, table, demand = case
        path = find_temp_path(demand, table, Hyperparameters(epsilon=1.0), random.Random(seed))
        assume(path.hop_count > 0)
        rewards = EpisodeRewards(path.links, tuple(values[: path.hop_count]), last_ok)
        hyper = Hyperparameters(alpha=alpha, gamma=gamma, terminal_q=terminal_q)
        for _ in range(path.hop_count + 2):
            before = [v.hex() for v in table.q]
            changed = update_table(table, rewards, hyper)
            assert changed is ([v.hex() for v in table.q] != before)

    @pytest.mark.parametrize(
        "stored, penalty, changed",
        [
            (0.0, -0.0, False),
            (-0.0, -0.0, False),
            (0.0, 0.0, False),
            (-0.0, 0.0, True),  # -0.0 + 0.0 is 0.0, equal under ==
            (1.0, 0.0, False),
            (1.0, -1.0, True),
        ],
    )
    def test_a_zero_of_the_other_sign_is_a_change(self, stored, penalty, changed):
        graph = build_graph(2, [(0, 1, 1e6)])
        table = QTable(graph.link_index(), [stored])
        assert update_table(table, EpisodeRewards((0,), (penalty,), False), Hyperparameters()) is changed
        assert table.q[0].hex() == (stored + penalty).hex()

    def test_a_sign_change_before_the_last_entry_is_reported(self):
        # Link 0 -> 1 gets 0.0 * -0.0 + 1.0 * (0.0 + 0.9 * 0.0) = 0.0 over
        # -0.0; the failed last entry adds -0.0 to 0.0 and keeps its bits.
        graph = build_graph(3, [(0, 1, 1e6), (1, 2, 1e6)])
        table = QTable(graph.link_index(), [-0.0, 0.0])
        rewards = EpisodeRewards((0, 1), (0.0, -0.0), False)
        assert update_table(table, rewards, Hyperparameters(alpha=1.0)) is True
        assert [v.hex() for v in table.q] == [(0.0).hex(), (0.0).hex()]


class TestEpisodes:
    @settings(max_examples=100, deadline=None)
    @given(
        networks(),
        weight_sets,
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
        st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=50.0)),
        seeds,
        st.booleans(),
    )
    def test_learning_loop_matches_per_hop_reference(
        self, network, weights, epsilon, terminal_q, seed, lossy
    ):
        # Episodes of select, execute, score and update both tables, each
        # side with its own implementation and identically seeded random
        # sources: the paths and every Q-value stay equal throughout.
        # terminal_q above 0 makes path values rise, and at 0 rivals tie.
        graph, demand = network
        assume(graph.out_neighbors(demand.src))
        hyper = Hyperparameters(epsilon=epsilon, ttl=6, terminal_q=terminal_q)
        table, global_table = QTable.for_graph(graph), QTable.for_graph(graph)
        dense = reference.DenseQTable.from_table(graph, table)
        dense_global = reference.DenseQTable.from_table(graph, global_table)
        rng, loss = random.Random(seed), (random.Random(seed + 1) if lossy else None)
        reference_rng, reference_loss = random.Random(seed), (random.Random(seed + 1) if lossy else None)
        scores = link_scores(graph, weights, demand)
        for _ in range(24):
            path = find_temp_path(demand, table, hyper, rng)
            expected = reference.find_temp_path(demand, dense, hyper, graph, reference_rng)
            assert route_of(path) == expected
            result = execute_path(graph, path.links, loss)
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


class TestSettledDemand:
    @settings(max_examples=300, deadline=None)
    @given(
        networks(reliabilities=st.just(1.0) | st.floats(min_value=0.0, max_value=1.0)).flatmap(
            lambda net: st.tuples(st.just(net), tables(net[0]))
        ),
        weight_sets,
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.3)),
        st.sampled_from([0.9, 1.0]),
        st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=50.0)),
        st.integers(min_value=1, max_value=60),
        seeds,
        st.booleans(),
        st.booleans(),
        st.none() | st.floats(min_value=0.0, max_value=1.0),
    )
    def test_find_route_matches_the_loop_that_runs_every_episode(
        self, case, weights, epsilon, alpha, terminal_q, episodes, seed, lossy, reuse, gamma
    ):
        # A demand settled by an episode that changed no Q-value must end as
        # running every episode would: the same traces, final path, global
        # Q-values to the bit and random draws. Exploration and loss draw
        # every episode, so they must run every episode; a local alpha of 1
        # fixes the path's local values long before the global table (alpha
        # 0.9) stops moving.
        (graph, demand), start = case
        assume(graph.out_neighbors(demand.src))
        hyper = Hyperparameters(
            epsilon=epsilon, alpha=alpha, ttl=6, episodes=episodes, terminal_q=terminal_q
        )

        def run(route):
            table = start.copy() if reuse else None
            rng, loss = random.Random(seed), (random.Random(seed + 1) if lossy else None)
            result = route(
                demand, graph, table, weights, hyper, rng, gamma if reuse else None, loss
            )
            traces = [
                (t.episode_index, t.temp_path.source, t.temp_path.links,
                 t.temp_path.reached_destination, t.attempted_hops)
                for t in result.traces
            ]
            return (
                traces,
                result.final_path,
                table and [v.hex() for v in table.q],
                rng.getstate(),
                loss and loss.getstate(),
            )

        assert run(find_route) == run(reference.find_route_every_episode)
