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

import json
import random
import sys
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace
from itertools import count
from operator import attrgetter, itemgetter, truediv
from pathlib import Path
from typing import Optional

from .dataplane import control_messages
from .engine import (
    DEFAULT_HYPERPARAMETERS,
    Hyperparameters,
    QTable,
    UnroutableDemandError,
    check_global_gamma,
    detect_convergence,
    find_route,
)
from .network import NetworkGraph, RoutePath, TrafficDemand, check_int, place_traffic
from .rewards import DEFAULT_WEIGHTS, QoSWeights
from .topologies import resolve_topology

DEFAULT_SEED = 1
_FLOAT_MAX = sys.float_info.max
# "off" runs without loss draws; "bernoulli" gives the data plane a loss
# stream, which loses each hop with probability 1 - the link's reliability.
LOSS_MODES = ("off", "bernoulli")
# The ExperimentConfig fields whose type alone its constructor checks.
_CONFIG_TYPES = {
    "topology": str, "weights": QoSWeights, "hyper": Hyperparameters, "use_global": bool
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run depends on, each field's type checked at
    construction. topology is a builtin id or a file path; demands are
    handled strictly in the given order and kept as a tuple, so a list the
    caller changes later changes no config. global_gamma discounts
    global-table updates, so it needs use_global. seed is a Python int and
    global_gamma a Python int or float (see network.check_int and
    engine.check_global_gamma), as reports write them."""

    topology: str
    demands: Sequence[TrafficDemand]
    weights: QoSWeights = DEFAULT_WEIGHTS
    hyper: Hyperparameters = DEFAULT_HYPERPARAMETERS
    use_global: bool = False
    global_gamma: Optional[float] = None
    seed: int = DEFAULT_SEED
    loss_mode: str = "off"

    def __post_init__(self) -> None:
        for name, kind in _CONFIG_TYPES.items():
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not isinstance(self.demands, Sequence):
            raise ValueError(f"demands must be a sequence, got {self.demands!r}")
        object.__setattr__(self, "demands", tuple(self.demands))
        for index, demand in enumerate(self.demands, start=1):
            if not isinstance(demand, TrafficDemand):
                raise ValueError(f"demand {index} must be a TrafficDemand, got {demand!r}")
        check_int(self.seed, "seed")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        gamma = self.global_gamma
        if gamma is not None:
            check_global_gamma(gamma)
            if not self.use_global:
                raise ValueError(f"global_gamma {gamma} needs use_global: no global table reads it")


# The to_dict methods below are the one statement of the report schema. They
# take a payload's large leaves, each graph's links block and each demand's
# temp_path_lengths, from a leaves object: _PLAIN gives the plain lists and
# dicts to_dict returns; the report writer passes a _Leaves, whose _Leaf
# objects it formats and checks itself (see _texts) rather than through
# json's pure-Python indenting encoder.

# The per-link columns of every report, the JSON "links" blocks and the
# links CSVs. Topology files have their own schema (see
# network.graph_from_dict).
_LINK_COLUMNS = ("src", "dst", "max_bandwidth_bps", "used_bandwidth_bps", "utilization")


def _link_columns(graph: NetworkGraph) -> tuple[list, ...]:
    """graph's links as the lists of _LINK_COLUMNS, indexed by link id, read
    from the graph's columns. Utilization is used / max, computed as
    LinkState.utilization computes it."""
    index, loads = graph.link_index(), graph.loads
    utilization = list(map(truediv, loads, index.max_bandwidth))
    return index.sources, index.targets, index.max_bandwidth, loads, utilization


class _PlainLeaves:
    """A payload's large leaves as plain data."""

    def links(self, graph: NetworkGraph) -> list[dict]:
        return [dict(zip(_LINK_COLUMNS, row)) for row in zip(*_link_columns(graph))]

    def lengths(self, outcome: DemandOutcome) -> list:
        return list(outcome.temp_path_lengths)


_PLAIN = _PlainLeaves()


@dataclass(frozen=True)
class DemandOutcome:
    """One demand's results: the final path (None if the demand was
    unroutable), when the learner converged (None if it never settled), the
    per-episode temp-path lengths, and the hops the data plane attempted
    over all episodes. The index, episode and hops are Python ints (see
    network.check_int), as reports write them."""

    demand_index: int
    demand: TrafficDemand
    final_path: Optional[RoutePath]
    converged_episode: Optional[int]
    temp_path_lengths: tuple[int, ...]
    attempted_hops: int

    def __post_init__(self) -> None:
        check_int(self.demand_index, "demand index")
        if self.converged_episode is not None:
            check_int(self.converged_episode, f"demand {self.demand_index}: converged_episode")
        check_int(self.attempted_hops, f"demand {self.demand_index}: attempted_hops")

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

    def to_dict(self, leaves=_PLAIN) -> dict:
        return {
            "index": self.demand_index,
            "src": self.demand.src,
            "dst": self.demand.dst,
            "traffic_bps": self.demand.traffic,
            "routed": self.routed,
            "final_path": list(self.final_path.nodes) if self.final_path is not None else None,
            "converged_episode": self.converged_episode,
            "episodes_run": self.episodes_run,
            "temp_path_lengths": leaves.lengths(self),
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

    def to_dict(self, leaves=_PLAIN) -> dict:
        cfg = self.config
        return {
            "topology": cfg.topology,
            "seed": cfg.seed,
            "loss_mode": cfg.loss_mode,
            "use_global": cfg.use_global,
            "global_gamma": cfg.global_gamma,
            "weights": asdict(cfg.weights),
            "hyperparameters": asdict(cfg.hyper),
            "demands": [o.to_dict(leaves) for o in self.outcomes],
            "totals": {
                "routed_demands": sum(1 for o in self.outcomes if o.routed),
                "convergence_episodes": self.total_convergence_episodes,
                "all_converged": self.all_converged,
                "messages_with_aggregation": self.total_messages_with_aggregation,
                "messages_without_aggregation": self.total_messages_without_aggregation,
            },
            "links": leaves.links(self.graph),
            "max_link_utilization": self.max_link_utilization,
        }


def run_sequence(config: ExperimentConfig) -> ExperimentReport:
    """Route every demand in order, placing traffic after each success.

    One RNG lives for the whole sequence, with loss_mode "bernoulli" one
    loss stream, and with use_global one global table; each demand gets its
    own local table, seeded from the global one when there is one. A demand
    whose source has no outgoing links is recorded as unrouted and the run
    continues. A demand naming a node the graph lacks fails the run before
    the first demand is routed.
    """
    return _run_sequence(config, resolve_topology(config.topology))


def _run_sequence(config: ExperimentConfig, graph: NetworkGraph) -> ExperimentReport:
    """run_sequence on graph, a fresh load of config.topology; each routed
    demand's traffic is placed on it."""
    for index, demand in enumerate(config.demands, start=1):
        graph.check_endpoints(demand, index)
    # Packet loss draws from a stream of its own: seeded with config.seed
    # itself, it would repeat the exploration stream's draws.
    loss = random.Random(f"loss {config.seed}") if config.loss_mode == "bernoulli" else None
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
            temp_path_lengths=tuple(map(attrgetter("temp_path.hop_count"), traces)),
            attempted_hops=sum(map(attrgetter("attempted_hops"), traces)),
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

    def to_dict(self, leaves=_PLAIN) -> dict:
        return {
            "topology": self.control.config.topology,
            "seed": self.control.config.seed,
            "control": self.control.to_dict(leaves),
            "runs": [
                {"gamma": r.config.global_gamma, "report": r.to_dict(leaves)} for r in self.runs
            ],
            "totals": [
                {"group": label, "convergence_episodes": report.total_convergence_episodes}
                for label, report in zip(self.group_labels(), self.group_reports())
            ],
        }


def run_gamma_study(base: ExperimentConfig, gammas: Sequence[float]) -> GammaStudyReport:
    """Same topology, demands, and seed for every group; test groups turn on
    global-table reuse and apply their gamma to global updates only. Every
    group's config is built, and so checked, before the first group runs.
    The topology is loaded once; each test group runs on a copy of it made
    before the control places any traffic."""
    control = replace(base, use_global=False, global_gamma=None)
    groups = [replace(base, use_global=True, global_gamma=gamma) for gamma in gammas]
    graph = resolve_topology(base.topology)
    copies = [graph.copy() for _ in groups]
    return GammaStudyReport(
        control=_run_sequence(control, graph),
        runs=[_run_sequence(config, copy) for config, copy in zip(groups, copies)],
    )


def baseline_min_hop(graph: NetworkGraph, demand: TrafficDemand) -> RoutePath:
    """Breadth-first shortest path by hop count, forward from the source over
    the link index. Each node keeps its first parent and out-links are
    scanned in id order, so this is the lexicographically smallest shortest
    path: every tie goes to the lowest node id. An unreachable destination
    yields a zero-hop unfinished path, mirroring the learner's unroutable
    shape; a node the graph lacks is refused with a ValueError."""
    graph.check_endpoints(demand)
    src, dst = demand.src, demand.dst
    index = graph.link_index()
    out, targets = index.out, index.targets
    parent = {src: src}
    queue = deque([src])
    while queue and dst not in parent:
        node = queue.popleft()
        for k in out[node]:
            target = targets[k]
            if target not in parent:
                parent[target] = node
                queue.append(target)
    if dst not in parent:
        return RoutePath((src,), False)
    nodes = [dst]
    while nodes[-1] != src:
        nodes.append(parent[nodes[-1]])
    return RoutePath(tuple(reversed(nodes)), True)


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

    def to_dict(self, leaves=_PLAIN) -> dict:
        # Each graph's max utilization is computed once and written twice.
        learned = self.learned.to_dict(leaves)
        baseline = self.baseline_max_link_utilization
        return {
            "learned": learned,
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
                "links": leaves.links(self.baseline_graph),
                "max_link_utilization": baseline,
            },
            "max_link_utilization": {
                "learned": learned["max_link_utilization"],
                "baseline": baseline,
            },
        }


def compare_baseline(config: ExperimentConfig) -> ComparisonReport:
    """Run the learner on the loaded topology and the baseline on a copy of
    it made before the learner places any traffic."""
    graph = resolve_topology(config.topology)
    baseline_graph = graph.copy()
    learned = _run_sequence(config, graph)
    paths: list[tuple[TrafficDemand, RoutePath]] = []
    for demand in config.demands:
        path = baseline_min_hop(baseline_graph, demand)
        if path.reached_destination:
            place_traffic(baseline_graph, path, demand)
        paths.append((demand, path))
    return ComparisonReport(learned=learned, baseline_graph=baseline_graph, baseline_paths=paths)


# Report writing. report.json is json.dumps(payload, indent=2,
# sort_keys=True, allow_nan=False) plus a newline, and each CSV is what
# csv.writer writes from its rows, byte for byte. Links blocks and
# temp_path_lengths take _texts' number rule; the other CSV cells are ints
# construction checked. No cell needs quoting: a line joins them by commas.


def _texts(values: Sequence, name: Callable[[int], str]) -> list[str]:
    """Each value's text as a report number, the text both json and csv
    write for it: a Python int's repr, or a finite float's float.__repr__
    (a subclass such as numpy.float64 included). Any other value is refused
    with a ValueError naming name(i), i its position: json would write a
    bool as true, NaN and the infinities as no JSON, and others not at all."""
    for value in values:
        kind = type(value)
        if kind is not int and not (kind is float and -_FLOAT_MAX <= value <= _FLOAT_MAX):
            break
    else:
        return list(map(repr, values))
    for i, value in enumerate(values):
        if type(value) is not int and not (isinstance(value, float) and abs(value) <= _FLOAT_MAX):
            raise ValueError(f"{name(i)} must be an int or a finite float, got {value!r}")
    return [repr(value) if type(value) is int else float.__repr__(value) for value in values]


class _Leaf:
    """A list that _write_json formats itself, given as the json texts of
    its cells: with columns, rows of cells, each row an object keyed by the
    columns; without, bare cells."""

    __slots__ = ("texts", "columns")

    def __init__(self, texts: list, columns: Optional[Sequence[str]] = None):
        self.texts, self.columns = texts, columns

    def json(self, indent: str) -> str:
        """The list as json.dumps(indent=2, sort_keys=True) writes it on a
        line that starts with indent."""
        if not self.texts:
            return "[]"
        inner = indent + "  "
        if self.columns is None:
            return f"[\n{inner}" + f",\n{inner}".join(self.texts) + f"\n{indent}]"
        columns = self.columns
        order = sorted(range(len(columns)), key=columns.__getitem__)
        fields = ",\n".join(
            f"{inner}  {json.dumps(columns[i]).replace('%', '%%')}: %s" for i in order
        )
        row, pick = f"{inner}{{\n{fields}\n{inner}}}", itemgetter(*order)
        return "[\n" + ",\n".join([row % pick(texts) for texts in self.texts]) + f"\n{indent}]"


class _Leaves:
    """A payload's large leaves as _Leaf objects. A graph's link cells and
    an outcome's temp-path lengths are formatted once per _Leaves, for
    report.json and for their CSV, and the cells of a LinkIndex's own
    columns (src, dst, max_bandwidth_bps) once for all graphs sharing it."""

    def __init__(self) -> None:
        self._tables: dict[int, tuple[list, list]] = {}
        self._fixed: dict[int, list[list[str]]] = {}
        self._lengths: dict[int, list[str]] = {}

    def link_table(self, graph: NetworkGraph) -> tuple[list[tuple[str, ...]], list[str]]:
        """graph's links as (each row's cell texts, its CSV lines), read a
        column at a time from the graph's own columns: each container made
        per link is more work for the garbage collector. A refusal names the
        link and column."""
        try:
            return self._tables[id(graph)]
        except KeyError:
            pass
        index = graph.link_index()
        sources, targets = index.sources, index.targets

        def column_texts(values: list, column: str) -> list[str]:
            return _texts(values, lambda i: f"link ({sources[i]},{targets[i]}): {column}")

        values = _link_columns(graph)
        fixed = self._fixed.get(id(index))
        if fixed is None:
            fixed = self._fixed[id(index)] = list(map(column_texts, values[:3], _LINK_COLUMNS))
        columns = fixed + list(map(column_texts, values[3:], _LINK_COLUMNS[3:]))
        texts = list(zip(*columns))
        table = self._tables[id(graph)] = texts, [",".join(row) + "\r\n" for row in texts]
        return table

    def links(self, graph: NetworkGraph) -> _Leaf:
        return _Leaf(self.link_table(graph)[0], _LINK_COLUMNS)

    def length_texts(self, outcome: DemandOutcome) -> list[str]:
        """outcome's temp_path_lengths as texts; a refusal names the demand."""
        texts = self._lengths.get(id(outcome))
        if texts is None:
            name = f"demand {outcome.demand_index}: temp_path_lengths"
            texts = self._lengths[id(outcome)] = _texts(
                outcome.temp_path_lengths, lambda i: f"{name}[{i}]"
            )
        return texts

    def lengths(self, outcome: DemandOutcome) -> _Leaf:
        return _Leaf(self.length_texts(outcome))


def _write_json(path: Path, payload: dict) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    plus a newline, byte for byte, formatting each _Leaf in payload itself.
    json.dumps writes the rest with a marker string in each leaf's place;
    the text is written piece by piece, each leaf's list where its marker
    stood. A marker is retried with another suffix until no string of the
    payload's own (say, a topology path) writes its text too."""
    leaves: list[_Leaf] = []
    for suffix in count():
        marker = f"\0{suffix}"

        def default(value):
            if type(value) is not _Leaf:
                return json.JSONEncoder().default(value)  # raises TypeError
            leaves.append(value)
            return marker

        leaves.clear()
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=default)
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(leaves) + 1:
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pieces[0])
        for leaf, before, after in zip(leaves, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1:]
            fh.write(leaf.json(line[:len(line) - len(line.lstrip(" "))]))
            fh.write(after)
        fh.write("\n")


def _emit(out_dir: str | Path, payload: dict, tables: dict[str, tuple]) -> list[Path]:
    """Write payload as report.json, then each (header, CSV lines) table as
    the CSV its key names, in order. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    _write_json(report_path, payload)
    paths = [report_path]
    for name, (header, lines) in tables.items():
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.write("".join(lines))
        paths.append(path)
    return paths


_DEMAND_COLUMNS = ["demand_index", "src", "dst"]


def _demand_text(outcome: DemandOutcome) -> str:
    return f"{outcome.demand_index},{outcome.demand.src},{outcome.demand.dst}"


def _convergence_line(outcome: DemandOutcome, counts: Sequence[Optional[int]]) -> str:
    """A convergence.csv line: outcome's demand cells, then counts (None blank)."""
    cells = ["" if count is None else repr(count) for count in counts]
    return ",".join([_demand_text(outcome)] + cells) + "\r\n"


def _length_lines(outcome: DemandOutcome, leaves: _Leaves) -> list[str]:
    """The outcome's temp_path_lengths.csv lines: its demand cells, then
    each episode and its temp path's length."""
    head, texts = _demand_text(outcome), leaves.length_texts(outcome)
    return [f"{head},{episode},{text}\r\n" for episode, text in enumerate(texts, 1)]


def emit_reports(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, links.csv, temp_path_lengths.csv, convergence.csv.

    An empty run still produces all four files, CSVs as header rows only.
    Returns the written paths.
    """
    leaves = _Leaves()
    return _emit(
        out_dir,
        report.to_dict(leaves),
        {
            "links.csv": (_LINK_COLUMNS, leaves.link_table(report.graph)[1]),
            "temp_path_lengths.csv": (
                _DEMAND_COLUMNS + ["episode", "length"],
                [line for outcome in report.outcomes for line in _length_lines(outcome, leaves)],
            ),
            "convergence.csv": (
                _DEMAND_COLUMNS + ["converged_episode", "episodes_run"],
                [
                    _convergence_line(outcome, (outcome.converged_episode, outcome.episodes_run))
                    for outcome in report.outcomes
                ],
            ),
        },
    )


def emit_gamma_reports(study: GammaStudyReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus a wide convergence.csv: one column per group,
    one row per demand, and a Total row where an unconverged demand is
    charged its full episode budget."""
    reports = study.group_reports()
    lines = [
        _convergence_line(outcome, [r.outcomes[i].converged_episode for r in reports])
        for i, outcome in enumerate(study.control.outcomes)
    ]
    totals = [repr(r.total_convergence_episodes) for r in reports]
    lines.append(",".join(["total", "", ""] + totals) + "\r\n")
    header = _DEMAND_COLUMNS + study.group_labels()
    return _emit(out_dir, study.to_dict(_Leaves()), {"convergence.csv": (header, lines)})


def emit_comparison_reports(comparison: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus per-link load tables for both routers."""
    leaves = _Leaves()
    return _emit(
        out_dir,
        comparison.to_dict(leaves),
        {
            "links.csv": (_LINK_COLUMNS, leaves.link_table(comparison.learned.graph)[1]),
            "links_baseline.csv": (_LINK_COLUMNS, leaves.link_table(comparison.baseline_graph)[1]),
        },
    )
