"""Experiment orchestration, baseline routing, report emission, CLI."""

import csv
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlroute
from rlroute import dataplane, engine, harness, rewards
from rlroute.cli import main
from rlroute.engine import DEFAULT_HYPERPARAMETERS, Hyperparameters
from rlroute.harness import (
    ComparisonReport,
    ExperimentConfig,
    ExperimentReport,
    baseline_min_hop,
    compare_baseline,
    emit_comparison_reports,
    emit_gamma_reports,
    emit_reports,
    run_gamma_study,
    run_sequence,
)
from rlroute.network import TrafficDemand, build_graph
from rlroute.rewards import make_weights
from rlroute.topologies import builtin_demands, load_builtin, resolve_topology
import reference
from reference import graph_to_dict, link_of, node_pairs
from scenarios import OVERFLOWING_TOPOLOGIES, pair_document

UTIL_ONLY = make_weights(0, 0, 0, 0, 1)


def t3_config(**overrides):
    settings = {
        "topology": "t3",
        "demands": [TrafficDemand(0, 2, 1e5)],
        "weights": UTIL_ONLY,
    }
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestExperimentConfig:
    def test_unknown_loss_mode_rejected(self):
        with pytest.raises(ValueError, match=r"loss_mode must be one of .*'coinflip'"):
            ExperimentConfig(topology="t1", demands=[], loss_mode="coinflip")

    @pytest.mark.parametrize("gamma", [1.5, math.nan])
    def test_global_gamma_out_of_range_rejected(self, gamma):
        with pytest.raises(ValueError, match=rf"global_gamma {gamma} outside \[0, 1\]"):
            ExperimentConfig(topology="t1", demands=[], use_global=True, global_gamma=gamma)


    @pytest.mark.parametrize("gamma", [True, np.float32(0.5)], ids=["bool", "float32"])
    def test_global_gamma_must_be_a_python_number(self, gamma):
        # report.json writes global_gamma as it is.
        with pytest.raises(ValueError, match=r"^global_gamma must be an int or float, got "):
            ExperimentConfig(topology="t1", demands=[], use_global=True, global_gamma=gamma)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("use_global", 1, r"use_global must be a bool, got 1"),
            ("use_global", "yes", r"use_global must be a bool, got 'yes'"),
            ("hyper", None, r"hyper must be a Hyperparameters, got None"),
            ("weights", None, r"weights must be a QoSWeights, got None"),
            ("topology", 7, r"topology must be a str, got 7"),
            ("demands", None, r"demands must be a sequence, got None"),
            (
                "demands",
                [TrafficDemand(0, 2, 1e5), {"src": 0, "dst": 1, "traffic": 1e5}],
                r"demand 2 must be a TrafficDemand, got \{'src': 0",
            ),
        ],
        ids=["use_global-int", "use_global-str", "hyper-None", "weights-None", "topology-int",
             "demands-None", "demand-dict"],
    )
    def test_field_types_are_checked_at_construction(self, field, value, message):
        # Each of these used to run, writing the value into report.json, or
        # fail deep inside a study with an error naming no field.
        with pytest.raises(ValueError, match=rf"^{message}"):
            t3_config(**{field: value})

    def test_demands_are_kept_as_a_tuple(self):
        # A dict appended to the caller's list afterwards is not a demand
        # of the config, which its checks never saw.
        demands = [TrafficDemand(0, 2, 1e5)]
        config = t3_config(demands=demands)
        demands.append({"src": 0, "dst": 1, "traffic": 1e5})
        assert config.demands == (TrafficDemand(0, 2, 1e5),)
        assert [outcome.routed for outcome in run_sequence(config).outcomes] == [True]

    @pytest.mark.parametrize(
        "seed", [None, True, 1.0, np.int64(1)], ids=["None", "bool", "float", "int64"]
    )
    def test_seed_must_be_a_python_int(self, seed):
        # None would seed from the clock, yet be reported as the seed.
        with pytest.raises(ValueError, match=r"^seed must be an int, got "):
            ExperimentConfig(topology="t1", demands=[], seed=seed)


class TestRunSequence:
    def test_empty_demand_list_touches_nothing(self):
        report = run_sequence(t3_config(demands=[]))
        assert report.outcomes == []
        assert report.graph == resolve_topology("t3")
        assert report.total_convergence_episodes == 0
        assert report.all_converged

    def test_single_demand_places_traffic(self):
        report = run_sequence(t3_config())
        outcome = report.outcomes[0]
        assert outcome.routed
        assert outcome.final_path.nodes == (0, 1, 2)
        assert link_of(report.graph, 0, 1).used_bandwidth == 1e5
        assert link_of(report.graph, 1, 2).used_bandwidth == 1e5
        assert link_of(report.graph, 0, 2).used_bandwidth == 9.9e6

    def test_placement_conservation(self):
        # Each link's final used bandwidth is its initial value plus the
        # traffic of every demand whose final path crosses it.
        demands = [TrafficDemand(0, 3, 2e5), TrafficDemand(0, 4, 3e5), TrafficDemand(1, 4, 5e5)]
        config = ExperimentConfig(topology="t2", demands=demands)
        report = run_sequence(config)
        initial = resolve_topology("t2")
        for link in report.graph.iter_links():
            expected = link_of(initial, link.src, link.dst).used_bandwidth
            for outcome in report.outcomes:
                if outcome.routed and (link.src, link.dst) in node_pairs(outcome.final_path):
                    expected += outcome.demand.traffic
            assert link.used_bandwidth == pytest.approx(expected)

    def test_unroutable_demand_recorded_and_run_continues(self, tmp_path):
        # Node 3 only has an inbound link, so 3->0 is unroutable.
        graph = build_graph(4, [(0, 1, 1e7), (1, 2, 1e7), (2, 0, 1e7), (2, 3, 1e7)])
        graph_path = tmp_path / "net.json"
        graph_path.write_text(json.dumps(graph_to_dict(graph)), encoding="utf-8")
        config = ExperimentConfig(
            topology=str(graph_path),
            demands=[TrafficDemand(3, 0, 1e5), TrafficDemand(0, 2, 1e5)],
        )
        report = run_sequence(config)
        assert not report.outcomes[0].routed
        assert report.outcomes[0].final_path is None
        assert report.outcomes[0].episodes_run == 0
        assert report.outcomes[1].routed

    def test_unknown_demand_node_fails_before_any_routing(self, monkeypatch):
        # The second demand names node 99 of the 30-node t8: the run must
        # stop before learning the first demand, naming the bad demand.
        from rlroute import harness

        routed = []
        original = harness.find_route

        def counting(*args, **kwargs):
            routed.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "find_route", counting)
        config = ExperimentConfig(
            topology="t8", demands=[TrafficDemand(0, 5, 1e5), TrafficDemand(0, 99, 1e5)]
        )
        with pytest.raises(ValueError, match=r"demand 2 \(0->99\) references unknown node 99"):
            run_sequence(config)
        with pytest.raises(ValueError, match="demand 2"):
            compare_baseline(config)
        assert routed == []

    def test_identical_configs_identical_reports(self):
        a = run_sequence(t3_config())
        b = run_sequence(t3_config())
        assert a.to_dict() == b.to_dict()

    def test_unconverged_demand_charges_full_budget(self):
        report = run_sequence(t3_config())
        outcome = report.outcomes[0]
        assert outcome.converged_episode is not None
        assert report.total_convergence_episodes == outcome.converged_episode

    def test_lossy_run_counts_messages_over_attempted_hops(self):
        # Every t2 link has reliability 0.95, so bernoulli loss cuts some
        # temp paths short; the message counts follow the hops attempted,
        # not the hops the temp paths planned.
        demands = [TrafficDemand(0, 3, 2e5), TrafficDemand(0, 4, 3e5), TrafficDemand(1, 4, 5e5)]
        config = ExperimentConfig(topology="t2", demands=demands, loss_mode="bernoulli")
        cut_short = 0
        for outcome in run_sequence(config).outcomes:
            planned = 2 * sum(outcome.temp_path_lengths)
            without = outcome.messages_without_aggregation
            assert without <= planned
            assert outcome.messages_with_aggregation == without / 2 + outcome.episodes_run
            cut_short += without < planned
        assert cut_short > 0

    def test_loss_and_exploration_draw_independent_streams(self, monkeypatch):
        # Seeded with the run seed itself, the loss stream would draw the
        # exploration stream's numbers; a lossy run must still reproduce.
        # The stream's state is recorded where each demand receives it.
        states = []
        route = harness.find_route

        def recording(*args, loss, **kwargs):
            states.append(loss.getstate())
            return route(*args, loss=loss, **kwargs)

        monkeypatch.setattr(harness, "find_route", recording)
        demands = [TrafficDemand(0, 3, 2e5), TrafficDemand(0, 4, 3e5), TrafficDemand(1, 4, 5e5)]
        config = ExperimentConfig(
            topology="t2", demands=demands, hyper=Hyperparameters(epsilon=0.2),
            loss_mode="bernoulli", seed=7,
        )
        first = run_sequence(config).to_dict()
        assert run_sequence(config).to_dict() == first
        assert len(states) == 2 * len(demands)
        assert states[0] == states[len(demands)]
        loss = random.Random()
        loss.setstate(states[0])
        exploration = random.Random(config.seed)
        assert [loss.random() for _ in range(16)] != [exploration.random() for _ in range(16)]

    @pytest.mark.parametrize(
        "used, weights, traffic, which",
        [
            # Node 1's estimated intensity adds two loads of 1e308.
            (0.0, make_weights(0, 0, 0, 1, 0), 1e308, "local"),
            # The global reward subtracts 9e307 twice.
            (8e307, make_weights(0, 0, 0, 0, 0), 1e307, "global"),
        ],
    )
    def test_a_placement_that_overflows_a_sum_is_refused_at_the_next_demand(
        self, used, weights, traffic, which, tmp_path, monkeypatch
    ):
        # The first demand's sums are finite and it is routed; placing its
        # traffic takes a sum past the largest float. The scores the run's
        # graph keeps must see that placement: the next demand, with the same traffic,
        # is refused before its first episode, naming the link.
        topology = tmp_path / "pair.json"
        topology.write_text(json.dumps(pair_document(used)))
        routed, route = [], harness.find_route

        def counting(demand, *args, **kwargs):
            routed.append(demand)
            return route(demand, *args, **kwargs)

        monkeypatch.setattr(harness, "find_route", counting)
        config = ExperimentConfig(
            topology=str(topology), demands=[TrafficDemand(0, 1, traffic)] * 2, weights=weights
        )
        message = rf"^link \(0,1\): {which} reward terms sum to a non-finite value$"
        with pytest.raises(ValueError, match=message):
            run_sequence(config)
        assert len(routed) == 2

    def test_a_run_imports_no_numpy(self):
        # numpy is a test dependency only: neither importing the package
        # nor running a sequence imports it.
        code = (
            "import sys, rlroute\n"
            "from rlroute.topologies import builtin_demands\n"
            "rlroute.run_sequence(rlroute.ExperimentConfig('t8', builtin_demands('t8')))\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = Path(rlroute.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_global_gamma_defaults_to_framework_gamma(self):
        # Leaving global_gamma unset discounts global updates with the
        # framework default 0.9, not with the local gamma.
        base = ExperimentConfig(
            topology="t8",
            demands=builtin_demands("t8"),
            weights=make_weights(0, 0, 0, 1, 1),
            hyper=Hyperparameters(gamma=0.5),
            use_global=True,
        )
        assert DEFAULT_HYPERPARAMETERS.gamma == 0.9
        unset = run_sequence(base).to_dict()
        default = run_sequence(replace(base, global_gamma=0.9)).to_dict()
        local = run_sequence(replace(base, global_gamma=0.5)).to_dict()
        assert unset["demands"] == default["demands"]
        assert unset["totals"] == default["totals"]
        assert unset["totals"] != local["totals"]

    def test_run_without_reuse_keeps_no_global_table(self, monkeypatch):
        # Nothing reads a global table unless local tables are seeded from
        # it, so a run without reuse neither scores nor updates one: each
        # episode that runs makes one execution and one update, and walks
        # unless find_route serves it the path before. Episodes after one
        # that changed no Q-value do not run, yet each demand keeps its
        # budget. The final walk's selection is not an episode's.
        calls = {"select": 0, "execute": 0, "global": 0, "update": 0}
        in_final = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        select, final = engine.find_temp_path, engine.find_final_path

        def selecting(*args, **kwargs):
            calls["select"] += not in_final
            return select(*args, **kwargs)

        def finishing(*args, **kwargs):
            in_final.append(True)
            try:
                return final(*args, **kwargs)
            finally:
                in_final.pop()

        monkeypatch.setattr(engine, "find_temp_path", selecting)
        monkeypatch.setattr(engine, "find_final_path", finishing)
        monkeypatch.setattr(
            dataplane, "execute_path", counted("execute", dataplane.execute_path)
        )
        monkeypatch.setattr(
            engine, "global_rewards_for_path", counted("global", engine.global_rewards_for_path)
        )
        monkeypatch.setattr(engine, "update_table", counted("update", engine.update_table))
        report = run_sequence(ExperimentConfig(topology="t8", demands=builtin_demands("t8")))
        episodes = sum(o.episodes_run for o in report.outcomes)
        assert episodes == 9 * DEFAULT_HYPERPARAMETERS.episodes
        assert calls["global"] == 0
        assert 0 < calls["select"] < calls["execute"] == calls["update"] < episodes


class TestGammaStudy:
    def test_control_plus_one_run_per_gamma(self):
        study = run_gamma_study(t3_config(), [0.3, 0.9])
        assert study.group_labels() == ["control", "gamma=0.3", "gamma=0.9"]
        assert not study.control.config.use_global
        assert all(r.config.use_global for r in study.runs)
        assert [r.config.global_gamma for r in study.runs] == [0.3, 0.9]

    def test_single_gamma_gives_two_groups(self):
        study = run_gamma_study(t3_config(), [0.9])
        assert len(study.group_reports()) == 2

    def test_bad_gamma_refused_before_any_group_runs(self, monkeypatch):
        # Neither the topology load nor any demand's routing has started.
        calls = []
        for name in ("resolve_topology", "find_route"):
            def recording(*args, fn=getattr(harness, name), name=name, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(harness, name, recording)
        with pytest.raises(ValueError, match=r"global_gamma 1.5 outside \[0, 1\]"):
            run_gamma_study(t3_config(), [0.5, 1.5])
        assert calls == []

    def test_topology_is_loaded_once_per_study(self, monkeypatch):
        # Every group runs on its own graph: the control's placements do not
        # reach the test groups, whose reports equal separate runs'.
        loads = []

        def counted(source):
            loads.append(source)
            return resolve_topology(source)

        monkeypatch.setattr(harness, "resolve_topology", counted)
        config = ExperimentConfig(
            topology="t8", demands=builtin_demands("t8"), weights=make_weights(0, 0, 0, 1, 1)
        )
        study = run_gamma_study(config, [0.3, 0.6, 0.9, 1.0])
        assert loads == ["t8"]
        graphs = [report.graph for report in study.group_reports()]
        assert len({id(graph) for graph in graphs}) == 5
        for report in study.group_reports():
            assert report.to_dict() == run_sequence(report.config).to_dict()

    def test_groups_share_one_term_set(self, monkeypatch):
        # Every group's graph is a copy of one load, and copies share what
        # the graph caches, so the load-free reward terms are built once.
        built, term_set = [], rewards._term_set

        def counted(graph, weights):
            built.append(weights)
            return term_set(graph, weights)

        monkeypatch.setattr(rewards, "_term_set", counted)
        config = ExperimentConfig(
            topology="t8",
            demands=builtin_demands("t8"),
            weights=make_weights(0, 0, 0, 1, 1),
            hyper=Hyperparameters(episodes=1),
        )
        run_gamma_study(config, [0.3, 0.5, 0.7, 0.9])
        assert built == [config.weights]

    def test_lossy_study_writes_what_scoring_every_episode_writes(self, monkeypatch, tmp_path):
        # Under loss every episode executes; one whose result equals the
        # episode before's reuses that episode's rewards. The study's files
        # are those of a loop that scores every episode, from fewer reward
        # calls, and evaluates every demand's terms in full, not from the
        # scores its run keeps. The t8 links drop 0.5% to 2% of packets.
        config = ExperimentConfig(
            topology="t8", demands=builtin_demands("t8"), weights=make_weights(0, 0, 0, 1, 1),
            loss_mode="bernoulli",
        )
        scored = []
        for name in ("local_rewards_for_path", "global_rewards_for_path"):
            def counted(*args, score=getattr(engine, name)):
                scored.append(args)
                return score(*args)

            monkeypatch.setattr(engine, name, counted)

        def study(out):
            scored.clear()
            emit_gamma_reports(run_gamma_study(config, [0.3, 0.9]), out)
            return {p.name: p.read_bytes() for p in out.iterdir()}, len(scored)

        files, calls = study(tmp_path / "engine")
        monkeypatch.setattr(harness, "find_route", reference.find_route_every_episode)
        expected, every = study(tmp_path / "reference")
        assert files == expected
        assert calls < every


class TestBaselineMinHop:
    def test_t1_unique_path(self):
        path = baseline_min_hop(load_builtin("t1"), TrafficDemand(0, 4, 1e5))
        assert path.nodes == (0, 1, 2, 3, 4)
        assert path.reached_destination

    def test_t3_ignores_utilization(self):
        path = baseline_min_hop(load_builtin("t3"), TrafficDemand(0, 2, 1e5))
        assert path.nodes == (0, 2)

    def test_ties_break_to_lowest_id(self):
        # 0-1-3 and 0-2-3 are both two hops on t2.
        path = baseline_min_hop(load_builtin("t2"), TrafficDemand(0, 3, 1e5))
        assert path.nodes == (0, 1, 3)

    def test_unreachable_destination(self):
        graph = build_graph(3, [(0, 1, 1e7)])
        path = baseline_min_hop(graph, TrafficDemand(0, 2, 1e5))
        assert path.nodes == (0,)
        assert not path.reached_destination

    @pytest.mark.parametrize("src,dst,node", [(0, 5, 5), (-1, 2, -1)])
    def test_unknown_node_is_refused(self, src, dst, node):
        graph = build_graph(3, [(0, 1, 1e7), (1, 2, 1e7), (2, 0, 1e7)])
        message = rf"^demand {src}->{dst} references unknown node {node}$"
        with pytest.raises(ValueError, match=message):
            baseline_min_hop(graph, TrafficDemand(src, dst, 1e5))

    @pytest.mark.parametrize("topology", ["t1", "t2", "t3", "t4", "t7", "t8"])
    def test_hop_counts_match_networkx_on_bundled_networks(self, topology):
        assert_min_hop_matches_networkx(load_builtin(topology))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    ))
    def test_hop_counts_match_networkx_on_random_duplex_graphs(self, case):
        # Sparse random duplex graphs fall apart into components often, so
        # unreachable destinations are checked as well.
        n, pairs = case
        duplex = {(a, b) for a, b in pairs if a != b} | {(b, a) for a, b in pairs if a != b}
        assert_min_hop_matches_networkx(build_graph(n, [(a, b, 1e7) for a, b in duplex]))


def assert_min_hop_matches_networkx(graph):
    """Every ordered node pair: the baseline's path is networkx's
    lexicographically smallest shortest path when the destination is
    reachable, and the zero-hop unreached path when it is not."""
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(graph.num_nodes))
    digraph.add_edges_from((link.src, link.dst) for link in graph.iter_links())
    for src in range(graph.num_nodes):
        for dst in range(graph.num_nodes):
            if src == dst:
                continue
            path = baseline_min_hop(graph, TrafficDemand(src, dst, 1e5))
            if nx.has_path(digraph, src, dst):
                assert path.reached_destination
                assert (path.nodes[0], path.nodes[-1]) == (src, dst)
                graph.link_ids(path.nodes)
                assert path.hop_count == nx.shortest_path_length(digraph, src, dst)
                assert path.nodes == tuple(min(nx.all_shortest_paths(digraph, src, dst)))
            else:
                assert path.nodes == (src,)
                assert not path.reached_destination


class TestCompareBaseline:
    def test_t3_learner_spreads_load(self):
        comparison = compare_baseline(t3_config())
        assert comparison.learned.outcomes[0].final_path.nodes == (0, 1, 2)
        assert comparison.baseline_paths[0][1].nodes == (0, 2)
        # Baseline pushes the hot link to saturation; the learner leaves it.
        assert comparison.baseline_max_link_utilization == 1.0
        assert comparison.learned.max_link_utilization == 0.99
        summary = comparison.to_dict()["max_link_utilization"]
        assert summary["learned"] <= summary["baseline"]

    def test_harness_layers_are_called_once_per_demand(self, monkeypatch):
        # The benchmark's tracer times the harness by replacing these module
        # globals, so compare_baseline must keep calling each of them by
        # name: one topology load (the baseline routes on a copy of the
        # graph), per demand one learned route, one convergence check and
        # one baseline route, and one placement per routed path of either
        # router.
        calls = {}

        def wrap(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        for name in (
            "resolve_topology", "find_route", "place_traffic", "detect_convergence",
            "baseline_min_hop",
        ):
            monkeypatch.setattr(harness, name, wrap(name, getattr(harness, name)))
        demands = builtin_demands("t7")
        comparison = compare_baseline(
            ExperimentConfig(topology="t7", demands=demands, weights=UTIL_ONLY)
        )
        routed = sum(o.routed for o in comparison.learned.outcomes) + sum(
            path.reached_destination for _, path in comparison.baseline_paths
        )
        assert routed > 0
        assert calls == {
            "resolve_topology": 1,
            "find_route": len(demands),
            "detect_convergence": len(demands),
            "baseline_min_hop": len(demands),
            "place_traffic": routed,
        }


class TestEmitReports:
    def run_t3(self):
        return run_sequence(t3_config())

    def test_writes_all_four_files(self, tmp_path):
        files = emit_reports(self.run_t3(), tmp_path)
        names = sorted(p.name for p in files)
        assert names == ["convergence.csv", "links.csv", "report.json", "temp_path_lengths.csv"]
        assert all(p.exists() for p in files)

    def test_report_json_matches_links_csv(self, tmp_path):
        report = self.run_t3()
        emit_reports(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        with open(tmp_path / "links.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        max_util_csv = max(float(r["utilization"]) for r in rows)
        assert payload["max_link_utilization"] == max_util_csv
        assert len(rows) == len(payload["links"])

    def test_temp_path_lengths_rows(self, tmp_path):
        report = self.run_t3()
        emit_reports(report, tmp_path)
        with open(tmp_path / "temp_path_lengths.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(o.episodes_run for o in report.outcomes)
        assert all(int(r["length"]) <= report.config.hyper.ttl for r in rows)

    def test_convergence_rows(self, tmp_path):
        report = self.run_t3()
        emit_reports(report, tmp_path)
        with open(tmp_path / "convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.outcomes)
        assert int(rows[0]["converged_episode"]) == report.outcomes[0].converged_episode

    def test_empty_run_emits_headers_only(self, tmp_path):
        emit_reports(run_sequence(t3_config(demands=[])), tmp_path)
        for name in ("links.csv", "temp_path_lengths.csv", "convergence.csv"):
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.reader(fh))
            if name == "links.csv":
                assert len(rows) == 4  # header + the three t3 links
            else:
                assert len(rows) == 1

    def test_gamma_reports_shape(self, tmp_path):
        study = run_gamma_study(t3_config(), [0.3, 0.9])
        emit_gamma_reports(study, tmp_path)
        with open(tmp_path / "convergence.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["demand_index", "src", "dst", "control", "gamma=0.3", "gamma=0.9"]
        assert rows[-1][0] == "total"
        assert int(rows[-1][3]) == study.control.total_convergence_episodes
        payload = json.loads((tmp_path / "report.json").read_text())
        assert {t["group"] for t in payload["totals"]} == {"control", "gamma=0.3", "gamma=0.9"}

    def test_comparison_reports_shape(self, tmp_path):
        comparison = compare_baseline(t3_config())
        emit_comparison_reports(comparison, tmp_path)
        assert (tmp_path / "links_baseline.csv").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["max_link_utilization"]["baseline"] == 1.0


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--topology", "t3", "--demands", self.demand_file(tmp_path),
            "--weights", "0,0,0,0,1", "--out", str(out_dir),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "0->1->2" in captured
        assert (out_dir / "report.json").exists()

    def demand_file(self, tmp_path):
        path = tmp_path / "demands.json"
        path.write_text(json.dumps([{"src": 0, "dst": 2, "traffic_bps": 1e5}]))
        return str(path)

    def test_lossy_run_writes_the_library_report(self, tmp_path, capsys):
        # --loss-mode sets ExperimentConfig.loss_mode; messages without
        # aggregation then count the hops attempted, fewer than planned
        # where the packet was lost.
        demands = [TrafficDemand(0, 3, 2e5), TrafficDemand(0, 4, 3e5), TrafficDemand(1, 4, 5e5)]
        demand_file = tmp_path / "demands.json"
        demand_file.write_text(json.dumps(
            [{"src": d.src, "dst": d.dst, "traffic_bps": d.traffic} for d in demands]
        ))
        code = main([
            "run", "--topology", "t2", "--demands", str(demand_file),
            "--loss-mode", "bernoulli", "--out", str(tmp_path / "cli"),
        ])
        assert code == 0
        report = run_sequence(ExperimentConfig(topology="t2", demands=demands, loss_mode="bernoulli"))
        emit_reports(report, tmp_path / "library")
        written = (tmp_path / "cli" / "report.json").read_bytes()
        assert written == (tmp_path / "library" / "report.json").read_bytes()
        entries = json.loads(written)["demands"]
        for entry, outcome in zip(entries, report.outcomes, strict=True):
            assert entry["messages_without_aggregation"] == 2 * outcome.attempted_hops
        attempted = sum(o.attempted_hops for o in report.outcomes)
        assert attempted < sum(sum(o.temp_path_lengths) for o in report.outcomes)

    @pytest.mark.parametrize("weights", ["inf,0,0,0,0", "nan,0,0,0,0"])
    def test_non_finite_weights_rejected(self, weights, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--topology", "t1", "--weights", weights])
        assert info.value.code != 0
        assert "argument --weights: weight hop_count must be a finite number" in (
            capsys.readouterr().err
        )

    def test_unknown_loss_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--topology", "t8", "--loss-mode", "sometimes"])

    @pytest.mark.parametrize("flags", [["--use-global"], ["--global-gamma", "0.1"]])
    def test_gamma_study_refuses_the_flags_it_sets_per_group(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gamma-study", "--topology", "t3", "--demands", self.demand_file(tmp_path)]
                 + flags)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_global_gamma_needs_use_global(self, tmp_path, capsys):
        # Without a global table nothing reads global_gamma, so a report
        # recording one would name a discount that no update applied.
        with pytest.raises(ValueError, match=r"global_gamma 0\.1 needs use_global"):
            ExperimentConfig(topology="t3", demands=[], global_gamma=0.1)
        argv = ["run", "--topology", "t3", "--demands", self.demand_file(tmp_path)]
        assert main(argv + ["--global-gamma", "0.1"]) == 1
        assert capsys.readouterr().err.startswith("error: global_gamma 0.1 needs use_global")
        assert main(argv + ["--global-gamma", "0.1", "--use-global"]) == 0

    @pytest.mark.parametrize("gamma", ["1.5", "nan"])
    def test_global_gamma_out_of_range(self, gamma, capsys):
        # Refused as the config is built, under its own name, not as --gamma.
        assert main(["run", "--topology", "t8", "--use-global", "--global-gamma", gamma]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: global_gamma {gamma} outside [0, 1]\n"
        assert captured.out == ""

    @pytest.mark.parametrize("gamma", ["1.5", "nan"])
    def test_gamma_list_out_of_range(self, gamma, tmp_path, capsys, monkeypatch):
        # The study builds every group's config before any group runs, so
        # a bad gamma anywhere in the list is refused with nothing routed.
        routed = []
        monkeypatch.setattr(harness, "find_route", lambda *args, **kwargs: routed.append(args))
        out_dir = tmp_path / "study"
        argv = ["gamma-study", "--topology", "t3", "--demands", self.demand_file(tmp_path),
                "--gammas", f"0.5,{gamma}", "--out", str(out_dir)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: global_gamma {gamma} outside [0, 1]\n"
        assert captured.out == ""
        assert routed == []
        assert not out_dir.exists()

    def test_load_errors_name_the_file(self, tmp_path, capsys):
        topology = tmp_path / "net.json"
        topology.write_text('{"nodes": [', encoding="utf-8")
        assert main(["validate-topology", "--topology", str(topology)]) == 1
        assert capsys.readouterr().err == (
            f"invalid topology: {topology}: Expecting value: line 1 column 12 (char 11)\n"
        )
        demands = tmp_path / "demands.json"
        demands.write_text('[{"src": 0, "dst": 2, "traffic_bps": 1e5}', encoding="utf-8")
        assert main(["run", "--topology", "t3", "--demands", str(demands)]) == 1
        assert capsys.readouterr().err == (
            f"error: {demands}: Expecting ',' delimiter: line 1 column 42 (char 41)\n"
        )

    def test_directory_as_input_path(self, tmp_path, capsys):
        demands = self.demand_file(tmp_path)
        for paths in (["t8", str(tmp_path)], [str(tmp_path), demands]):
            argv = ["run", "--topology", paths[0], "--demands", paths[1]]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
            assert captured.out == ""

    def test_run_uses_bundled_demands_for_t8(self, capsys):
        code = main(["run", "--topology", "t8", "--weights", "0,0,0,1,1", "--episodes", "75"])
        assert code == 0
        assert "max link utilization" in capsys.readouterr().out

    def test_run_requires_demands_for_custom_topology(self, tmp_path):
        topo = tmp_path / "net.json"
        topo.write_text(json.dumps(graph_to_dict(load_builtin("t1"))), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["run", "--topology", str(topo)])

    def test_gamma_study_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        code = main([
            "gamma-study", "--topology", "t3", "--demands", self.demand_file(tmp_path),
            "--weights", "0,0,0,0,1", "--gammas", "0.5,0.9", "--out", str(out_dir),
        ])
        assert code == 0
        assert "control" in capsys.readouterr().out
        assert (out_dir / "convergence.csv").exists()

    def test_compare_baseline_subcommand(self, tmp_path, capsys):
        code = main([
            "compare-baseline", "--topology", "t3", "--demands", self.demand_file(tmp_path),
            "--weights", "0,0,0,0,1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "learned max link utilization" in out
        assert "baseline max link utilization" in out

    def test_validate_topology_ok(self, capsys):
        assert main(["validate-topology", "--topology", "t7"]) == 0
        assert "16 nodes, 52 links" in capsys.readouterr().out

    def test_validate_topology_missing_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate-topology", "--topology", "nosuch.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "invalid topology: 'nosuch.json' is neither a builtin topology id "
            "(T1, T2, T3, T4, T7, T8) nor an existing file\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "gammas, message",
        [
            ("0.3,x", "bad gamma list '0.3,x'"),
            (",", "bad gamma list ','"),
            ("0.3,,0.5", "bad gamma list '0.3,,0.5'"),
            ("0.3,", "bad gamma list '0.3,'"),
        ],
    )
    def test_bad_gamma_lists_refused(self, gammas, message, capsys, monkeypatch):
        monkeypatch.setattr(harness, "find_route", lambda *args, **kwargs: pytest.fail("routed"))
        with pytest.raises(SystemExit) as exit_info:
            main(["gamma-study", "--topology", "t8", "--gammas", gammas])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --gammas: {message}\n")

    def test_run_reports_a_demand_from_a_node_without_out_links(self, tmp_path, capsys):
        # Node 2 of this chain has no out-links: its demand is recorded as
        # unrouted and the run goes on to the next.
        topology = tmp_path / "net.json"
        topology.write_text(json.dumps(graph_to_dict(build_graph(
            3, [(0, 1, 1e7, 0.0, 1.0), (1, 2, 1e7, 0.0, 1.0)]
        ))))
        demands = tmp_path / "demands.json"
        demands.write_text(json.dumps([
            {"src": 2, "dst": 0, "traffic_bps": 1e5}, {"src": 0, "dst": 2, "traffic_bps": 1e5},
        ]))
        assert main(["run", "--topology", str(topology), "--demands", str(demands)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "demand 2->0: not routed"
        assert lines[1].startswith("demand 0->2: 0->1->2 (")

    def test_validate_topology_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [], "links": [{"src": 0, "dst": 1}]}')
        assert main(["validate-topology", "--topology", str(bad)]) == 1
        assert "invalid topology" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TOPOLOGIES))
    def test_overflowing_loads_rejected_before_routing(self, name, tmp_path, capsys, monkeypatch):
        document, (src, dst), message = OVERFLOWING_TOPOLOGIES[name]
        topology = tmp_path / "net.json"
        topology.write_text(json.dumps(document))
        assert main(["validate-topology", "--topology", str(topology)]) == 1
        captured = capsys.readouterr()
        assert "topology ok" not in captured.out
        assert re.search(message, captured.err)

        def refuse(*args, **kwargs):
            raise AssertionError("a demand was routed")

        monkeypatch.setattr(harness, "find_route", refuse)
        demands = tmp_path / "demands.json"
        demands.write_text(json.dumps([{"src": src, "dst": dst, "traffic_bps": 1e5}]))
        assert main(["run", "--topology", str(topology), "--demands", str(demands)]) == 1
        assert re.search(message, capsys.readouterr().err)

    def test_bad_weights_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--topology", "t3", "--weights", "1,2,3"])

    def test_missing_topology_file(self, capsys):
        code = main(["run", "--topology", "nosuch.json", "--demands", "also_missing.json"])
        assert code == 1
