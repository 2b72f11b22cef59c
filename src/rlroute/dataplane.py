"""Simulated data plane.

Executing a path walks its links in order and records the id of each link
attempted (see NetworkGraph.link_index); the graph is never mutated here,
so the QoS state every hop sees is the one its demand started with. An
optional Bernoulli loss model can drop the packet mid-path, in which case
the losing hop is the last one recorded and later hops never happen.

Message accounting models the control traffic of two reporting schemes over
n attempted hops: one report per hop plus a single path-level request when
hops aggregate (n + 1), versus a request/report pair per hop without
aggregation (2n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .network import NetworkGraph, RoutePath


class LossModel:
    """Per-hop packet loss. Mode "off" never drops; "bernoulli" drops each
    hop independently with probability 1 - link reliability."""

    MODES = ("off", "bernoulli")

    def __init__(self, mode: str = "off", seed: Optional[int] = None):
        if mode not in self.MODES:
            raise ValueError(f"loss mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self._rng = random.Random(seed)

    def packet_lost(self, reliability: float) -> bool:
        if self.mode == "off":
            return False
        return self._rng.random() >= reliability


class ControlMessages:
    """Message accounting (see the module docstring) for a record that has
    attempted_hops and episodes_run: n + 1 and 2n for one n-hop episode."""

    @property
    def messages_with_aggregation(self) -> int:
        return self.attempted_hops + self.episodes_run

    @property
    def messages_without_aggregation(self) -> int:
        return 2 * self.attempted_hops


@dataclass(frozen=True)
class ExecutionResult:
    """What one episode's path attempt produced: the link ids of the
    attempted hops, in order, and whether the packet was lost on the last."""

    records: tuple[int, ...]
    lost: bool = False


def execute_path(
    graph: NetworkGraph,
    path: RoutePath,
    loss: Optional[LossModel] = None,
) -> ExecutionResult:
    """Attempt a path hop by hop, consulting the loss model at each hop.
    Stops early if it drops the packet; the losing hop is kept as the last
    record and the result is flagged lost. A path using a link the graph
    lacks raises KeyError before any hop is attempted."""
    records = graph.link_ids(path.nodes)
    if loss is not None and loss.mode != "off":
        links = graph.link_index().links
        for hop, k in enumerate(records, start=1):
            if loss.packet_lost(links[k].reliability):
                return ExecutionResult(records[:hop], lost=True)
    return ExecutionResult(records)


class DataPlane:
    """A graph plus a loss model, presented as the environment a learner
    executes paths against."""

    def __init__(self, graph: NetworkGraph, loss: Optional[LossModel] = None):
        self.graph = graph
        self.loss = loss if loss is not None else LossModel("off")

    def execute(self, path: RoutePath) -> ExecutionResult:
        return execute_path(self.graph, path, self.loss)
