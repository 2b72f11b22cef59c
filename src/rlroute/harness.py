"""Experiment harness.

Runs ordered demand sequences through the learner, placing each routed
demand's traffic before the next demand starts, and turns the traces into
machine-readable reports: a JSON summary plus CSV series for link loads,
temp-path lengths per episode, and convergence episodes.

Three study shapes are supported: a plain sequence run, a gamma study (a
control run without global-table reuse next to one run per gamma value that
reuses a shared global table, the gamma applied to global updates only), and
a comparison against a breadth-first min-hop baseline router.

All randomness flows from the config seed, and reports contain no
wall-clock data, so identical configs produce byte-identical report.json.
"""

from __future__ import annotations

import csv
import json
import random
from collections import deque
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .dataplane import LossModel, control_messages
from .engine import (
    DEFAULT_HYPERPARAMETERS,
    Hyperparameters,
    QTable,
    UnroutableDemandError,
    detect_convergence,
    find_route,
)
from .network import NetworkGraph, RoutePath, TrafficDemand, check_float, check_int, place_traffic
from .rewards import DEFAULT_WEIGHTS, QoSWeights
from .topologies import resolve_topology

DEFAULT_SEED = 1
# "off" runs with no loss model, "bernoulli" with a dataplane.LossModel.
LOSS_MODES = ("off", "bernoulli")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run depends on. topology is a builtin id or a file
    path; demands are handled strictly in the given order. global_gamma
    discounts global-table updates, so it needs use_global. seed is a
    Python int and global_gamma a Python int or float (see
    network.check_int and check_float), as reports write them."""

    topology: str
    demands: Sequence[TrafficDemand]
    weights: QoSWeights = DEFAULT_WEIGHTS
    hyper: Hyperparameters = DEFAULT_HYPERPARAMETERS
    use_global: bool = False
    global_gamma: Optional[float] = None
    seed: int = DEFAULT_SEED
    loss_mode: str = "off"

    def __post_init__(self) -> None:
        check_int(self.seed, "seed")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        gamma = self.global_gamma
        if gamma is not None:
            check_float(gamma, "global_gamma")
            if not 0.0 <= gamma <= 1.0:
                raise ValueError(f"global_gamma {gamma} outside [0, 1]")
            if not self.use_global:
                raise ValueError(f"global_gamma {gamma} needs use_global: no global table reads it")


@dataclass(frozen=True)
class DemandOutcome:
    """One demand's results: the final path (None if the demand was
    unroutable), when the learner converged (None if it never settled), the
    per-episode temp-path lengths, and the hops the data plane attempted
    over all episodes."""

    demand_index: int
    demand: TrafficDemand
    final_path: Optional[RoutePath]
    converged_episode: Optional[int]
    temp_path_lengths: tuple[int, ...]
    attempted_hops: int

    @property
    def routed(self) -> bool:
        return self.final_path is not None and self.final_path.reached_destination

    @property
    def episodes_run(self) -> int:
        return len(self.temp_path_lengths)

    @property
    def messages_with_aggregation(self) -> int:
        return control_messages(self.attempted_hops, self.episodes_run)[0]

    @property
    def messages_without_aggregation(self) -> int:
        return control_messages(self.attempted_hops, self.episodes_run)[1]

    # Unconverged demands cost their whole episode budget, so totals charge
    # episodes_run when converged_episode is absent.
    @property
    def convergence_cost(self) -> int:
        return self.converged_episode if self.converged_episode is not None else self.episodes_run

    def to_dict(self) -> dict:
        return {
            "index": self.demand_index,
            "src": self.demand.src,
            "dst": self.demand.dst,
            "traffic_bps": self.demand.traffic,
            "routed": self.routed,
            "final_path": list(self.final_path.nodes) if self.final_path is not None else None,
            "converged_episode": self.converged_episode,
            "episodes_run": self.episodes_run,
            "temp_path_lengths": list(self.temp_path_lengths),
            "messages_with_aggregation": self.messages_with_aggregation,
            "messages_without_aggregation": self.messages_without_aggregation,
        }


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    outcomes: list[DemandOutcome]
    graph: NetworkGraph

    @property
    def max_link_utilization(self) -> float:
        return self.graph.max_link_utilization()

    @property
    def total_convergence_episodes(self) -> int:
        return sum(o.convergence_cost for o in self.outcomes)

    @property
    def all_converged(self) -> bool:
        return all(o.converged_episode is not None for o in self.outcomes)

    @property
    def total_messages_with_aggregation(self) -> int:
        return sum(o.messages_with_aggregation for o in self.outcomes)

    @property
    def total_messages_without_aggregation(self) -> int:
        return sum(o.messages_without_aggregation for o in self.outcomes)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "topology": cfg.topology,
            "seed": cfg.seed,
            "loss_mode": cfg.loss_mode,
            "use_global": cfg.use_global,
            "global_gamma": cfg.global_gamma,
            "weights": asdict(cfg.weights),
            "hyperparameters": asdict(cfg.hyper),
            "demands": [o.to_dict() for o in self.outcomes],
            "totals": {
                "routed_demands": sum(1 for o in self.outcomes if o.routed),
                "convergence_episodes": self.total_convergence_episodes,
                "all_converged": self.all_converged,
                "messages_with_aggregation": self.total_messages_with_aggregation,
                "messages_without_aggregation": self.total_messages_without_aggregation,
            },
            "links": _links_json(self.graph),
            "max_link_utilization": self.max_link_utilization,
        }


# The per-link columns of every report: the JSON "links" blocks and the
# links CSVs. Topology files have their own schema (see network.graph_from_dict).
_LINK_COLUMNS = ("src", "dst", "max_bandwidth_bps", "used_bandwidth_bps", "utilization")


def _link_rows(graph: NetworkGraph) -> list[list]:
    return [
        [link.src, link.dst, link.max_bandwidth, link.used_bandwidth, link.utilization]
        for link in graph.iter_links()
    ]


def _links_json(graph: NetworkGraph) -> list[dict]:
    return [dict(zip(_LINK_COLUMNS, row)) for row in _link_rows(graph)]


def run_sequence(config: ExperimentConfig) -> ExperimentReport:
    """Route every demand in order, placing traffic after each success.

    One RNG lives for the whole sequence, with loss_mode "bernoulli" one
    loss model, and with use_global one global table; each demand gets its
    own local table, seeded from the global one when there is one. A demand
    whose source has no outgoing links is recorded as unrouted and the run
    continues. A demand naming a node the graph lacks fails the run before
    the first demand is routed.
    """
    graph = resolve_topology(config.topology)
    for index, demand in enumerate(config.demands, start=1):
        for node in (demand.src, demand.dst):
            if not graph.has_node(node):
                raise ValueError(
                    f"demand {index} ({demand.src}->{demand.dst}) references unknown node {node}"
                )
    # Packet loss draws from a stream of its own: seeded with config.seed
    # itself, it would repeat the exploration stream's draws.
    loss = LossModel(f"loss {config.seed}") if config.loss_mode == "bernoulli" else None
    # Only a run that seeds local tables from it needs a global table.
    global_table = QTable.for_graph(graph) if config.use_global else None
    rng = random.Random(config.seed)
    outcomes: list[DemandOutcome] = []
    for index, demand in enumerate(config.demands, start=1):
        try:
            result = find_route(
                demand,
                graph,
                global_table,
                weights=config.weights,
                hyper=config.hyper,
                rng=rng,
                global_gamma=config.global_gamma,
                loss=loss,
            )
        except UnroutableDemandError:
            final_path, traces = None, []
        else:
            final_path, traces = result.final_path, result.traces
        outcome = DemandOutcome(
            demand_index=index,
            demand=demand,
            final_path=final_path,
            converged_episode=detect_convergence(traces),
            temp_path_lengths=tuple(t.temp_path.hop_count for t in traces),
            attempted_hops=sum(t.attempted_hops for t in traces),
        )
        if outcome.routed:
            place_traffic(graph, final_path, demand)
        outcomes.append(outcome)
    return ExperimentReport(config=config, outcomes=outcomes, graph=graph)


@dataclass
class GammaStudyReport:
    """Control run (no global-table reuse) beside one run per gamma value;
    each run's gamma is its config.global_gamma."""

    control: ExperimentReport
    runs: list[ExperimentReport]

    def group_labels(self) -> list[str]:
        return ["control"] + [f"gamma={r.config.global_gamma}" for r in self.runs]

    def group_reports(self) -> list[ExperimentReport]:
        return [self.control] + self.runs

    def to_dict(self) -> dict:
        return {
            "topology": self.control.config.topology,
            "seed": self.control.config.seed,
            "control": self.control.to_dict(),
            "runs": [{"gamma": r.config.global_gamma, "report": r.to_dict()} for r in self.runs],
            "totals": [
                {"group": label, "convergence_episodes": report.total_convergence_episodes}
                for label, report in zip(self.group_labels(), self.group_reports())
            ],
        }


def run_gamma_study(base: ExperimentConfig, gammas: Sequence[float]) -> GammaStudyReport:
    """Same topology, demands, and seed for every group; test groups turn on
    global-table reuse and apply their gamma to global updates only. Every
    group's config is built, and so checked, before the first group runs."""
    control = replace(base, use_global=False, global_gamma=None)
    groups = [replace(base, use_global=True, global_gamma=gamma) for gamma in gammas]
    return GammaStudyReport(
        control=run_sequence(control), runs=[run_sequence(config) for config in groups]
    )


def _in_neighbors(graph: NetworkGraph) -> dict[int, list[int]]:
    """Each node's in-neighbors in link-id order, cached per graph."""
    index, reverse = graph.link_index(), {}
    for src, dst in zip(index.sources, index.targets):
        reverse.setdefault(dst, []).append(src)
    return reverse


def baseline_min_hop(graph: NetworkGraph, demand: TrafficDemand) -> RoutePath:
    """Breadth-first shortest path by hop count, every tie broken toward the
    lowest node id. Unreachable destination yields a zero-hop unfinished
    path, mirroring the learner's unroutable shape."""
    dist = {demand.dst: 0}
    reverse = graph.cached(_in_neighbors)
    queue = deque([demand.dst])
    while queue:
        node = queue.popleft()
        for prev in reverse.get(node, ()):
            if prev not in dist:
                dist[prev] = dist[node] + 1
                queue.append(prev)
    if demand.src not in dist:
        return RoutePath((demand.src,), False)
    nodes = [demand.src]
    current = demand.src
    while current != demand.dst:
        current = next(
            v for v in graph.out_neighbors(current) if dist.get(v) == dist[current] - 1
        )
        nodes.append(current)
    return RoutePath(tuple(nodes), True)


@dataclass
class ComparisonReport:
    """The learner and the min-hop baseline routing the same sequence on
    separate copies of the same starting network."""

    learned: ExperimentReport
    baseline_graph: NetworkGraph
    baseline_paths: list[tuple[TrafficDemand, RoutePath]]

    @property
    def baseline_max_link_utilization(self) -> float:
        return self.baseline_graph.max_link_utilization()

    def to_dict(self) -> dict:
        return {
            "learned": self.learned.to_dict(),
            "baseline": {
                "paths": [
                    {
                        "src": demand.src,
                        "dst": demand.dst,
                        "traffic_bps": demand.traffic,
                        "routed": path.reached_destination,
                        "final_path": list(path.nodes) if path.reached_destination else None,
                    }
                    for demand, path in self.baseline_paths
                ],
                "links": _links_json(self.baseline_graph),
                "max_link_utilization": self.baseline_max_link_utilization,
            },
            "max_link_utilization": {
                "learned": self.learned.max_link_utilization,
                "baseline": self.baseline_max_link_utilization,
            },
        }


def compare_baseline(config: ExperimentConfig) -> ComparisonReport:
    learned = run_sequence(config)
    graph = resolve_topology(config.topology)
    paths: list[tuple[TrafficDemand, RoutePath]] = []
    for demand in config.demands:
        path = baseline_min_hop(graph, demand)
        if path.reached_destination:
            place_traffic(graph, path, demand)
        paths.append((demand, path))
    return ComparisonReport(learned=learned, baseline_graph=graph, baseline_paths=paths)


def _emit(out_dir: str | Path, payload: dict, tables: dict[str, tuple]) -> list[Path]:
    """Write payload as report.json, then each table as a CSV named by its
    key from a (header, rows) pair, in order. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    paths = [report_path]
    for name, (header, rows) in tables.items():
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


_DEMAND_COLUMNS = ["demand_index", "src", "dst"]


def _demand_cells(outcome: DemandOutcome) -> list:
    return [outcome.demand_index, outcome.demand.src, outcome.demand.dst]


def _episode_cell(episode: Optional[int]):
    return "" if episode is None else episode


def emit_reports(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, links.csv, temp_path_lengths.csv, convergence.csv.

    An empty run still produces all four files, CSVs as header rows only.
    Returns the written paths.
    """
    lengths = (
        _demand_cells(outcome) + [episode, length]
        for outcome in report.outcomes
        for episode, length in enumerate(outcome.temp_path_lengths, start=1)
    )
    convergence = (
        _demand_cells(outcome) + [_episode_cell(outcome.converged_episode), outcome.episodes_run]
        for outcome in report.outcomes
    )
    return _emit(
        out_dir,
        report.to_dict(),
        {
            "links.csv": (_LINK_COLUMNS, _link_rows(report.graph)),
            "temp_path_lengths.csv": (_DEMAND_COLUMNS + ["episode", "length"], lengths),
            "convergence.csv": (
                _DEMAND_COLUMNS + ["converged_episode", "episodes_run"],
                convergence,
            ),
        },
    )


def emit_gamma_reports(study: GammaStudyReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus a wide convergence.csv: one column per group,
    one row per demand, and a Total row where an unconverged demand is
    charged its full episode budget."""
    reports = study.group_reports()
    rows = [
        _demand_cells(outcome)
        + [_episode_cell(report.outcomes[i].converged_episode) for report in reports]
        for i, outcome in enumerate(study.control.outcomes)
    ]
    rows.append(["total", "", ""] + [report.total_convergence_episodes for report in reports])
    header = _DEMAND_COLUMNS + study.group_labels()
    return _emit(out_dir, study.to_dict(), {"convergence.csv": (header, rows)})


def emit_comparison_reports(comparison: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus per-link load tables for both routers."""
    return _emit(
        out_dir,
        comparison.to_dict(),
        {
            "links.csv": (_LINK_COLUMNS, _link_rows(comparison.learned.graph)),
            "links_baseline.csv": (_LINK_COLUMNS, _link_rows(comparison.baseline_graph)),
        },
    )
