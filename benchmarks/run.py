#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for rlroute.

    python3 benchmarks/run.py --workload t8-gamma --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 7 --seconds 35

One invocation runs one workload in this process, closed loop: one caller
runs one study after another for about --seconds seconds. A study is one
library call as the matching CLI subcommand makes it, plus writing its report
files. With --trace 0 the only instrumentation is a timer pair around each
find_route call and the end-to-end metrics are printed; with --trace 1
traced and untraced studies alternate and the per-layer metrics are printed.
End-to-end times are scaled to a reference speed measured between studies
(see REFERENCE_NOMINAL_S).
Every study's outputs are checked. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is nonzero when any check failed. --workload all runs every workload,
untraced and traced, each in a fresh process.

The program is imported from src/ of the checkout this file sits in; the
benchmark refuses to run without it. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOAD_NAMES = ("t8-gamma", "synth-100-reuse", "synth-400-compare")
DEFAULT_SEED = 1
# p90 needs at least ten samples beyond it.
MIN_DEMAND_SAMPLES = 100
# Set-up is sampled after every untraced study, so that its median spans the
# same stretch of time as the studies' and not only the first half second.
SETUP_LOADS_PER_STUDY = 5
# Layers that run on one workload only. A time per call would read 0 on
# every run of the others, so they report calls and share only.
ONE_WORKLOAD_LAYERS = ("harness.baseline",)
# A shared host switches between a fast and a ~1.6x slower state within
# tenths of a second, and the share of time it is slow drifts over minutes.
# Every timed study and set-up batch sits between two runs of a fixed
# reference loop, and its times are scaled by REFERENCE_NOMINAL_S over the
# mean of the two, so that the time metrics read as on a host where the loop
# takes REFERENCE_NOMINAL_S (about its median on the 2-vCPU VM the bounds were
# set on). A change to the program moves them; a change of host speed mostly
# does not.
REFERENCE_ITERATIONS = 20_000
REFERENCE_NOMINAL_S = 0.010
T8_GAMMAS = (0.3, 0.5, 0.7, 0.9)
T8_WEIGHTS = (0.0, 0.0, 0.0, 1.0, 1.0)


def _import_program():
    """Import rlroute from this checkout's src/, never from anywhere else."""
    package = SRC_DIR / "rlroute" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout with src/rlroute")
    sys.path.insert(0, str(SRC_DIR))
    import rlroute

    if Path(rlroute.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported rlroute from {rlroute.__file__}, not from {SRC_DIR}")
    return rlroute


@dataclass(frozen=True)
class Instance:
    """One input set: a builtin topology id or a topology file path relative
    to the repository root, and a demand file (None: the builtin set)."""

    topology: str
    demands: Optional[str]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in README.md and BENCHMARK.json."""

    name: str
    # Instances drawn from one seed. Several instances per run average out
    # how much a single random graph and demand set differs from the next.
    instances: int
    make_inputs: Callable[[int, int], Instance]
    make_config: Callable
    run: Callable
    emit: Callable


def _workloads(rl) -> dict[str, Workload]:
    from generate import write_instance

    def synthetic(name: str, nodes: int, demands: int) -> Callable[[int, int], Instance]:
        def make(seed: int, index: int) -> Instance:
            paths = write_instance(
                OUT_DIR / "inputs" / f"{name}-seed{seed}" / str(index), nodes, demands, seed, index
            )
            topology, demand_file = (str(p.relative_to(ROOT)) for p in paths)
            return Instance(topology, demand_file)

        return make

    return {
        w.name: w
        for w in (
            Workload(
                "t8-gamma",
                1,
                lambda seed, index: Instance("t8", None),
                lambda inst, demands, seed: rl.ExperimentConfig(
                    topology=inst.topology,
                    demands=demands,
                    weights=rl.make_weights(*T8_WEIGHTS),
                    seed=seed,
                ),
                lambda config: rl.run_gamma_study(config, T8_GAMMAS),
                rl.emit_gamma_reports,
            ),
            Workload(
                "synth-100-reuse",
                8,
                synthetic("synth-100-reuse", 100, 100),
                lambda inst, demands, seed: rl.ExperimentConfig(
                    topology=inst.topology, demands=demands, use_global=True, seed=seed
                ),
                rl.run_sequence,
                rl.emit_reports,
            ),
            Workload(
                "synth-400-compare",
                8,
                synthetic("synth-400-compare", 400, 20),
                lambda inst, demands, seed: rl.ExperimentConfig(
                    topology=inst.topology,
                    demands=demands,
                    hyper=rl.Hyperparameters(episodes=300),
                    seed=seed,
                ),
                rl.compare_baseline,
                rl.emit_comparison_reports,
            ),
        )
    }


def _groups(rl, result) -> list:
    """(label, ExperimentReport) for every learned run inside a study result."""
    if isinstance(result, rl.GammaStudyReport):
        return list(zip(result.group_labels(), result.group_reports()))
    if isinstance(result, rl.ComparisonReport):
        return [("learned", result.learned)]
    return [("run", result)]


@contextmanager
def _recorded_find_route(harness, times: list, captured: list):
    """The untraced run's only instrumentation: one timer pair around each
    find_route call. What the checks need of the result is kept for after
    the study."""
    from checks import episode_evidence

    original = harness.find_route

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        times.append(perf_counter() - start)
        captured.append((args[0], episode_evidence(result)))
        return result

    harness.find_route = timed
    try:
        yield
    finally:
        harness.find_route = original


def _reference_seconds() -> float:
    """Time one run of the fixed reference loop: dict reads and writes,
    tuple keys, float arithmetic and list appends, the kind of interpreter
    work the learner's loops do. It must not change, or the scaled times of
    two commits stop being comparable."""
    start = perf_counter()
    table: dict = {}
    acc = 0.0
    path: list = []
    for i in range(REFERENCE_ITERATIONS):
        key = (i & 255, i & 7)
        acc += table.get(key, 0.5) * 0.9
        table[key] = acc % 1.0
        path.append(key)
        if len(path) > 32:
            path.clear()
    return perf_counter() - start


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    """One workload at one seed: its inputs, studies, checks and samples."""

    def __init__(self, rl, workload: Workload, seed: int):
        self.rl = rl
        self.workload = workload
        self.seed = seed
        self.instances = [workload.make_inputs(seed, i) for i in range(workload.instances)]
        self.work_dir = OUT_DIR / f"work-{os.getpid()}"
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
        self.expected_digests = expected[workload.name] if seed == DEFAULT_SEED else None
        self.setup_samples: list[float] = []
        self.loaded: list = []
        self.configs: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.demand_times: list[float] = []
        # Untraced study walls as measured, and scaled to the reference speed.
        self.walls: dict = defaultdict(list)
        self.scaled_walls: dict = defaultdict(list)
        self.reference_times: list[float] = []
        self.traced_walls: dict = defaultdict(list)
        self.layer_studies: list[dict] = []
        self.first_digests: dict = {}
        self.outcomes: dict = {}
        self.last_tracer = None

    def load(self, index: int) -> tuple:
        """Load and validate one instance's topology and demands the way the
        CLI does; returns them and the time it took."""
        from rlroute.topologies import builtin_demands, load_demands, resolve_topology

        inst = self.instances[index]
        start = perf_counter()
        graph = resolve_topology(inst.topology)
        demands = load_demands(inst.demands) if inst.demands else builtin_demands(inst.topology)
        return (graph, demands), perf_counter() - start

    def setup(self) -> None:
        self.loaded = [self.load(i)[0] for i in range(len(self.instances))]
        self.configs = [
            self.workload.make_config(inst, demands, self.seed)
            for inst, (_, demands) in zip(self.instances, self.loaded)
        ]

    def study(self, index: int, traced: bool) -> Optional[tuple]:
        """Run, time and check one study of instance index. Returns the
        study wall and its find_route times, or None when a check failed;
        a traced study's spans are kept as one layer sample."""
        from tracer import REPORT_LAYER, ROOT_LAYER, Tracer

        rl, workload, config = self.rl, self.workload, self.configs[index]
        out = self.work_dir / "emit"
        shutil.rmtree(out, ignore_errors=True)
        times: list[float] = []
        captured: list = []
        tracer = Tracer() if traced else None

        def body():
            result = workload.run(config)
            if tracer is None:
                workload.emit(result, out)
            else:
                tracer.call(REPORT_LAYER, workload.emit, result, out)
            return result

        self.attempted += 1
        try:
            with _recorded_find_route(rl.harness, times, captured):
                with tracer.installed() if tracer else nullcontext():
                    start = perf_counter()
                    result = tracer.call(ROOT_LAYER, body) if tracer else body()
                    wall = perf_counter() - start
            files = sorted(out.iterdir())
            report_bytes = sum(p.stat().st_size for p in files)
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
            failures = self.check(index, result, captured, digests)
        except Exception:
            failures = [traceback.format_exc()]
        if failures:
            self.failed += 1
            self.failures.extend(failures)
            return None
        if tracer is None:
            return wall, times
        self.traced_walls[index].append(wall)
        calls, seconds = tracer.layer_totals()
        self.layer_studies.append(
            {
                "wall": wall,
                "calls": calls,
                "seconds": seconds,
                "counts": tracer.counts,
                "report_bytes": report_bytes,
            }
        )
        self.last_tracer = tracer
        return wall, times

    def check(self, index: int, result, captured: list, digests: dict) -> list[str]:
        from checks import check_episodes, check_loads, check_same_files

        rl = self.rl
        graph, _ = self.loaded[index]
        ttl = self.configs[index].hyper.ttl
        label = f"{self.workload.name} instance {index}"
        failures = []
        for demand, evidence in captured:
            failures += check_episodes(graph, demand, evidence, ttl)
        groups = _groups(rl, result)
        for name, report in groups:
            routed = [(o.demand, o.final_path) for o in report.outcomes if o.routed]
            failures += check_loads(graph, report.graph, routed, f"{label} {name}")
        if isinstance(result, rl.ComparisonReport):
            routed = [(d, p) for d, p in result.baseline_paths if p.reached_destination]
            failures += check_loads(graph, result.baseline_graph, routed, f"{label} baseline")
        if index in self.first_digests:
            failures += check_same_files(self.first_digests[index], digests, label)
        else:
            self.first_digests[index] = digests
            if self.expected_digests is not None:
                digest = digests["report.json"]
                if digest != self.expected_digests[index]:
                    failures.append(
                        f"{label}: report.json sha256 {digest} differs from the pinned "
                        f"{self.expected_digests[index]}"
                    )
            reports = [report for _, report in groups]
            self.outcomes[index] = {
                "episodes": sum(o.episodes_run for r in reports for o in r.outcomes),
                "demands": sum(len(r.outcomes) for r in reports),
                "routed": sum(o.routed for r in reports for o in r.outcomes),
                "convergence_episodes": sum(r.total_convergence_episodes for r in reports),
                "max_link_util": max(r.max_link_utilization for r in reports),
            }
        return failures

    def measure(self, seconds: float, traced: bool) -> None:
        """Warm up on one study, then run whole cycles over the instances
        until the elapsed time is nearest to seconds. Each untraced study and
        each batch of set-up loads is scaled to the reference speed measured
        just before and after it. A traced run pairs an untraced and a
        traced study of each instance."""
        self.study(0, traced=False)
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            for index in range(len(self.instances)):
                before = _reference_seconds()
                timing = self.study(index, traced=False)
                middle = _reference_seconds()
                loads = [self.load(index)[1] for _ in range(SETUP_LOADS_PER_STUDY)]
                after = _reference_seconds()
                self.reference_times += [before, middle, after]
                if timing is not None:
                    wall, times = timing
                    scale = 2 * REFERENCE_NOMINAL_S / (before + middle)
                    self.walls[index].append(wall)
                    self.scaled_walls[index].append(wall * scale)
                    self.demand_times.extend(t * scale for t in times)
                scale = 2 * REFERENCE_NOMINAL_S / (middle + after)
                self.setup_samples.extend(t * scale for t in loads)
                if traced:
                    self.study(index, traced=True)
            now = perf_counter()
            enough = len(self.demand_times) >= MIN_DEMAND_SAMPLES or self.failed
            if enough and now - start + (now - cycle_start) / 2 >= seconds:
                break
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def end_to_end(self) -> dict:
        outcomes = [self.outcomes[i] for i in range(len(self.instances))]
        deciles = statistics.quantiles(self.demand_times, n=10)
        walls = self.scaled_walls
        episodes = sum(self.outcomes[i]["episodes"] * len(w) for i, w in walls.items())
        return {
            "episodes_per_s": (episodes / sum(map(sum, walls.values())), "1/s"),
            "demand_ms_p50": (statistics.median(self.demand_times) * 1e3, "ms"),
            "demand_ms_p90": (deciles[8] * 1e3, "ms"),
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "routed_share": (
                sum(o["routed"] for o in outcomes) / sum(o["demands"] for o in outcomes),
                "ratio",
            ),
            "convergence_episodes": (sum(o["convergence_episodes"] for o in outcomes), "count"),
            "max_link_util": (statistics.median(o["max_link_util"] for o in outcomes), "ratio"),
        }

    def per_layer(self) -> dict:
        from tracer import ENTRIES, HOPS, LAYER_NAMES, REACHED, RECORDS, ROOT_LAYER

        studies = self.layer_studies
        n = len(studies)
        metrics = {}
        for layer in LAYER_NAMES:
            calls = [s["calls"].get(layer, 0) for s in studies]
            per_call = [
                s["seconds"][layer] / c * 1e6 for s, c in zip(studies, calls) if c
            ]
            metrics[f"{layer}.calls"] = (sum(calls) / n, "count")
            if layer not in ONE_WORKLOAD_LAYERS:
                metrics[f"{layer}.self_us_per_call"] = (_median(per_call), "us")
            metrics[f"{layer}.share"] = (
                _median([s["seconds"].get(layer, 0.0) / s["wall"] for s in studies]),
                "ratio",
            )
        metrics["harness.self.share"] = (
            _median([s["seconds"][ROOT_LAYER] / s["wall"] for s in studies]),
            "ratio",
        )
        counts: Counter = Counter()
        for s in studies:
            counts.update(s["counts"])
        selects = sum(s["calls"].get("engine.select", 0) for s in studies)
        executes = sum(s["calls"].get("dataplane.execute", 0) for s in studies)
        metrics["engine.reach_ratio"] = (counts[REACHED] / selects, "ratio")
        metrics["dataplane.hops_per_episode"] = (counts[HOPS] / executes, "hops")
        metrics["rewards.records"] = (counts[RECORDS] / n, "count")
        metrics["engine.entries_written"] = (counts[ENTRIES] / n, "count")
        metrics["harness.report_bytes"] = (
            sum(s["report_bytes"] for s in studies) / n,
            "bytes",
        )
        metrics["trace.overhead"] = (
            statistics.fmean(s["wall"] for s in studies)
            / statistics.fmean(w for walls in self.walls.values() for w in walls),
            "ratio",
        )
        metrics["trace.coverage"] = (
            _median(
                [
                    sum(v for k, v in s["seconds"].items() if k != ROOT_LAYER) / s["wall"]
                    for s in studies
                ]
            ),
            "ratio",
        )
        return metrics


def _commit() -> Optional[str]:
    """HEAD of the checkout's git repository, read from .git; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _write_record(bench: Bench, args, metrics: dict, result: dict) -> Path:
    """Per-run result record for the benchmark trajectory."""
    import numpy

    record = {
        "workload": bench.workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "instances": [vars(inst) for inst in bench.instances],
        "samples": {
            "setup": len(bench.setup_samples),
            "studies": {i: len(w) for i, w in sorted(bench.walls.items())},
            "traced_studies": {i: len(w) for i, w in sorted(bench.traced_walls.items())},
            "demand_timings": len(bench.demand_times),
            "reference_loops": len(bench.reference_times),
        },
        "reference_s": {
            "nominal": REFERENCE_NOMINAL_S,
            "median": _median(bench.reference_times),
            "min": min(bench.reference_times, default=0.0),
            "max": max(bench.reference_times, default=0.0),
        },
        "study_walls_s": [bench.walls[i] for i in sorted(bench.walls)],
        "scaled_study_walls_s": [bench.scaled_walls[i] for i in sorted(bench.scaled_walls)],
        "report_sha256": [d["report.json"] for _, d in sorted(bench.first_digests.items())],
        "check_failures": bench.failures[:20],
        **result,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    path = OUT_DIR / "records" / f"{bench.workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def run_one(args) -> int:
    rl = _import_program()
    # Topology paths in reports are relative to the root, so digests do not
    # depend on where the checkout lives.
    os.chdir(ROOT)
    workload = _workloads(rl)[args.workload]
    bench = Bench(rl, workload, args.seed)
    bench.setup()
    bench.measure(args.seconds, traced=bool(args.trace))

    ok = not bench.failed
    metrics = (bench.per_layer() if args.trace else bench.end_to_end()) if ok else {}
    result = {"correct": ok, "attempted": bench.attempted, "failed": bench.failed}
    record = _write_record(bench, args, metrics, result)
    if args.trace and bench.last_tracer is not None:
        bench.last_tracer.write_jsonl(
            OUT_DIR / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
        )

    for failure in bench.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(
        f"  {len(bench.instances)} instance(s), {bench.attempted} studies, "
        f"{len(bench.demand_times)} timed demand samples, {len(bench.setup_samples)} set-ups"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  record: {record.relative_to(ROOT)}")
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
            summary["correct"] &= result["correct"] and proc.returncode == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"][f"{name}/trace{trace}"] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rlroute benchmark (see README.md)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
