"""Release acceptance checks.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each. Numeric tolerances are pinned here and nowhere else;
the timed criteria use wall-clock bounds generous enough for CI noise.
"""

import random
import time
from dataclasses import replace

import pytest

from rlroute.engine import (
    DEFAULT_HYPERPARAMETERS,
    Hyperparameters,
    QTable,
    find_final_path,
    find_route,
    find_temp_path,
    update_table,
)
from rlroute.harness import (
    ExperimentConfig,
    compare_baseline,
    emit_reports,
    run_gamma_study,
    run_sequence,
)
from rlroute.network import TrafficDemand, build_graph, check_path, place_traffic
from rlroute.rewards import (
    make_weights,
    reward_hop,
    reward_intensity,
    reward_transmission,
    reward_utilization,
)
from rlroute.topologies import builtin_demands, load_builtin, resolve_topology
from reference import RewardRecord, node_pairs, q_get, q_set, rewards_of, sarsa_update

T8_WEIGHTS = make_weights(0, 0, 0, 1, 1)
T8_CHAIN = (4, 7, 6, 10, 14, 18, 19, 23)


def t8_config(**overrides):
    settings = {
        "topology": "t8",
        "demands": builtin_demands("t8"),
        "weights": T8_WEIGHTS,
    }
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def t8_run():
    start = time.perf_counter()
    report = run_sequence(t8_config())
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def t8_traces():
    """The same sequential run driven at engine level, keeping every episode."""
    graph = resolve_topology("t8")
    results = []
    for demand in builtin_demands("t8"):
        result = find_route(demand, graph, None, weights=T8_WEIGHTS)
        results.append(result)
        if result.final_path.reached_destination:
            place_traffic(graph, result.final_path, demand)
    return results


def test_criterion_01_reward_arithmetic():
    start = time.perf_counter()
    assert reward_hop(4) == 0.25
    assert reward_transmission(50) == pytest.approx(0.9873, abs=5e-5)
    assert reward_intensity(5, 50, 0) == 0.9
    assert reward_intensity(5, 50, 0.5) == 0.89
    assert reward_utilization(5, 10, 0) == 0.5
    assert reward_utilization(5, 10, 0.5) == pytest.approx(0.45, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_normalizing_constants():
    weights = make_weights(1, 1, 1, 1, 1)
    assert weights.local_constant == 5.1
    assert weights.global_constant == 3.0


def test_criterion_03_accumulative_penalty_steers_off_dead_end():
    start = time.perf_counter()
    graph = load_builtin("t4")
    table = QTable.for_graph(graph)
    failure = rewards_of(table.index, (RewardRecord(0, 5, False, -3.0),))
    for expected in (-3.0, -6.0, -9.0):
        update_table(table, failure, DEFAULT_HYPERPARAMETERS)
        assert q_get(table, 0, 5) == expected
    final = find_final_path(TrafficDemand(0, 4, 1e5), table, DEFAULT_HYPERPARAMETERS)
    assert final.nodes == (0, 1, 2, 3, 4)
    assert 5 not in final.nodes
    assert time.perf_counter() - start < 1.0


def test_criterion_04_batched_update_equals_interleaved_sarsa():
    rng = random.Random(12345)
    trials = 500
    for _ in range(trials):
        hops = rng.randint(1, 32)
        nodes = rng.sample(range(33), hops + 1)
        graph = build_graph(33, [(nodes[i], nodes[i + 1], 1e7) for i in range(hops)])
        table = QTable.for_graph(graph)
        for i in range(hops):
            q_set(table, nodes[i], nodes[i + 1], rng.uniform(-10, 10))
        rewards = tuple(
            RewardRecord(
                nodes[i], nodes[i + 1],
                i < hops - 1 or rng.random() < 0.5,
                rng.uniform(-10, 10),
            )
            for i in range(hops)
        )
        hyper = Hyperparameters(
            alpha=rng.uniform(0.05, 1.0),
            gamma=rng.uniform(0.0, 1.0),
            terminal_q=rng.uniform(-5.0, 5.0),
        )

        batched = table.copy()
        update_table(batched, rewards_of(table.index, rewards), hyper)

        # On-line oracle: each pair is rewritten as soon as its successor is
        # chosen, reading the successor's still-unmodified value.
        oracle = table.copy()
        for i, rec in enumerate(rewards):
            if i < hops - 1:
                nxt = rewards[i + 1]
                q_set(oracle, rec.src_id, rec.dst_id, sarsa_update(
                    q_get(oracle, rec.src_id, rec.dst_id), rec.value,
                    q_get(oracle, nxt.src_id, nxt.dst_id), hyper.alpha, hyper.gamma,
                ))
            elif rec.action_success:
                q_set(oracle, rec.src_id, rec.dst_id, sarsa_update(
                    q_get(oracle, rec.src_id, rec.dst_id), rec.value,
                    hyper.terminal_q, hyper.alpha, hyper.gamma,
                ))
            else:
                value = q_get(oracle, rec.src_id, rec.dst_id) + rec.value
                q_set(oracle, rec.src_id, rec.dst_id, value)
        assert batched == oracle


def test_criterion_05_temp_paths_loop_free_within_ttl():
    rng = random.Random(987)
    checked = 0
    for trial in range(1000):
        n = rng.randint(2, 10)
        density = rng.uniform(0.1, 0.9)
        links = [
            (a, b, 1e7)
            for a in range(n) for b in range(n)
            if a != b and rng.random() < density
        ]
        graph = build_graph(n, links)
        table = QTable.for_graph(graph)
        for link in graph.iter_links():
            q_set(table, link.src, link.dst, rng.uniform(-5, 5))
        src, dst = rng.sample(range(n), 2)
        hyper = Hyperparameters(
            epsilon=rng.random(),
            ttl=rng.choice([rng.randint(1, 6), 32]),
        )
        path = find_temp_path(
            TrafficDemand(src, dst, 1e5), table, hyper, rng=random.Random(trial)
        )
        assert path.nodes[0] == src
        assert len(set(path.nodes)) == len(path.nodes)
        assert path.hop_count <= hyper.ttl
        check_path(graph, path)
        assert path.reached_destination == (path.nodes[-1] == dst)
        checked += 1
    assert checked >= 1000


def test_criterion_06_message_accounting(t8_run, t8_traces):
    # Loss is off, so every hop of every temp path is attempted and an n-hop
    # episode costs n + 1 messages with aggregation and 2n without, n read
    # from the path itself.
    for result in t8_traces:
        for trace in result.traces:
            n = trace.temp_path.hop_count
            assert trace.attempted_hops == n
            assert trace.messages_with_aggregation == n + 1
            assert trace.messages_without_aggregation == 2 * n
    # The harness report totals must agree with the per-episode trace sums.
    report, _ = t8_run
    for outcome, result in zip(report.outcomes, t8_traces):
        assert outcome.attempted_hops == sum(outcome.temp_path_lengths)
        assert outcome.messages_with_aggregation == sum(
            t.messages_with_aggregation for t in result.traces
        )
        assert outcome.messages_without_aggregation == sum(
            t.messages_without_aggregation for t in result.traces
        )


def test_criterion_07_congested_links_avoided(t8_run):
    report, elapsed = t8_run
    initial = resolve_topology("t8")
    hot_links = {
        (l.src, l.dst) for l in initial.iter_links() if l.used_bandwidth == 9e6
    }
    hot_heads = {dst for _, dst in hot_links}
    assert len(report.outcomes) == 9
    for outcome in report.outcomes:
        assert outcome.routed
        assert outcome.converged_episode is not None
        assert outcome.converged_episode <= 75
        path = outcome.final_path
        assert path.reached_destination
        assert len(set(path.nodes)) == len(path.nodes)
        assert not hot_links & set(node_pairs(path))
        assert not hot_heads & set(path.nodes)
        assert path.nodes[1:-1] == T8_CHAIN
    assert elapsed < 30.0


def test_criterion_08_global_table_reuse_speeds_convergence():
    gammas = (0.3, 0.5, 0.7, 0.9)
    for seed in range(1, 6):
        study = run_gamma_study(t8_config(seed=seed), gammas)
        assert study.control.all_converged
        totals = {"control": study.control.total_convergence_episodes}
        for run in study.runs:
            assert run.all_converged
            totals[run.config.global_gamma] = run.total_convergence_episodes
        assert totals[0.9] < totals["control"]
        assert totals[0.9] <= 1.05 * min(totals.values())


def test_criterion_09_load_balancing_beats_min_hop():
    start = time.perf_counter()
    config = ExperimentConfig(
        topology="t7",
        demands=builtin_demands("t7"),
        weights=make_weights(0, 0, 0, 0, 1),
    )
    comparison = compare_baseline(config)
    learned = comparison.learned.max_link_utilization
    baseline = comparison.baseline_max_link_utilization
    assert learned <= baseline
    assert learned <= 0.55
    assert time.perf_counter() - start < 60.0


def test_criterion_10_byte_identical_reports(tmp_path):
    config = t8_config(
        hyper=replace(DEFAULT_HYPERPARAMETERS, epsilon=0.05),
        seed=7,
    )
    dirs = (tmp_path / "a", tmp_path / "b")
    for out_dir in dirs:
        emit_reports(run_sequence(config), out_dir)
    for name in ("report.json", "links.csv", "convergence.csv", "temp_path_lengths.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
