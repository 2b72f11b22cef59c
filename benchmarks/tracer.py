"""In-memory span tracer that wraps the program's layer functions from outside.

The learner looks its layer functions up as module globals at call time
(``find_route`` in harness, ``find_temp_path``/``update_table``/... in engine,
``execute_path`` in dataplane), so replacing those globals for the length of
one study sees every call without changing the program. A later change that
inlines one of these names has to keep its span, and doing so is a change to
this benchmark.

Each span records its layer, start, end, the index of the span that was open
when it started (its parent) and the demand it belongs to. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

import rlroute.dataplane
import rlroute.engine
import rlroute.harness

ROOT_LAYER = "harness.study"
REPORT_LAYER = "harness.report"
FINAL_LAYER = "engine.final"
# Counts kept at the layer boundaries.
REACHED = "engine.select.reached"
HOPS = "dataplane.hops"
RECORDS = "rewards.records"
ENTRIES = "engine.entries_written"


def _reached(args, kwargs, result) -> int:
    return int(result.reached_destination)


def _hops(args, kwargs, result) -> int:
    return len(result.records)


def _records(args, kwargs, result) -> int:
    return len(result)


def _entries(args, kwargs, result) -> int:
    return len(args[1] if len(args) > 1 else kwargs["rewards"])


@dataclass(frozen=True)
class Layer:
    """A module global the tracer replaces, and the span its calls record."""

    module: ModuleType
    name: str
    layer: str
    # find_route and baseline_min_hop each route one demand; spans opened
    # inside them, and the per-demand work after them, carry its id.
    starts_demand: bool = False
    in_demand: bool = True
    # (count name, function of (args, kwargs, result) giving the increment)
    count: Optional[tuple[str, Callable]] = None


LAYERS = (
    Layer(rlroute.harness, "resolve_topology", "topologies.resolve", in_demand=False),
    Layer(rlroute.harness, "find_route", "engine.loop", starts_demand=True),
    Layer(rlroute.engine, "init_local_table", "engine.init"),
    Layer(rlroute.engine, "find_temp_path", "engine.select", count=(REACHED, _reached)),
    Layer(rlroute.dataplane, "execute_path", "dataplane.execute", count=(HOPS, _hops)),
    Layer(rlroute.engine, "local_rewards_for_path", "rewards.local", count=(RECORDS, _records)),
    Layer(rlroute.engine, "global_rewards_for_path", "rewards.global", count=(RECORDS, _records)),
    Layer(rlroute.engine, "update_table", "engine.update", count=(ENTRIES, _entries)),
    Layer(rlroute.engine, "find_final_path", FINAL_LAYER),
    Layer(rlroute.harness, "place_traffic", "network.place"),
    Layer(rlroute.harness, "detect_convergence", "harness.convergence"),
    Layer(rlroute.harness, "baseline_min_hop", "harness.baseline", starts_demand=True),
)
LAYER_NAMES = tuple(spec.layer for spec in LAYERS) + (REPORT_LAYER,)


class Tracer:
    """Spans of one study, kept in memory as tuples
    (layer, start, end, parent index, demand id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = []
        self._demand: Optional[int] = None
        self._demands = 0

    def wrap(
        self,
        layer: str,
        fn: Callable,
        starts_demand: bool = False,
        in_demand: bool = True,
        count: Optional[tuple[str, Callable]] = None,
    ) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            # find_final_path walks the table with find_temp_path; that walk
            # is the final layer's own work, not an episode's selection.
            if layer == "engine.select" and stack and stack[-1][1] == FINAL_LAYER:
                return fn(*args, **kwargs)
            if starts_demand:
                self._demands += 1
                self._demand = self._demands
            demand = self._demand if in_demand else None
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, demand)
            if count is not None:
                key, increment = count
                counts[key] = counts.get(key, 0) + increment(args, kwargs, result)
            return result

        return traced

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own, outside any demand."""
        return self.wrap(layer, fn, in_demand=False)(*args, **kwargs)

    @contextmanager
    def installed(self):
        """Replace every layer global with its traced wrapper; restore on exit."""
        saved = []
        try:
            for spec in LAYERS:
                original = getattr(spec.module, spec.name)
                saved.append((spec.module, spec.name, original))
                setattr(
                    spec.module,
                    spec.name,
                    self.wrap(spec.layer, original, spec.starts_demand, spec.in_demand, spec.count),
                )
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the durations of direct children."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        return self_time

    def layer_totals(self) -> tuple[dict, dict]:
        """Calls and summed self seconds per layer."""
        calls: dict = defaultdict(int)
        seconds: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            seconds[span[0]] += own
        return calls, seconds

    def write_jsonl(self, path: Path) -> None:
        """Write the spans, times in microseconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, ((layer, start, end, parent, demand), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                record = {
                    "id": index,
                    "layer": layer,
                    "parent": parent,
                    "demand": demand,
                    "start_us": round((start - origin) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3),
                    "self_us": round(own * 1e6, 3),
                }
                fh.write(json.dumps(record) + "\n")
