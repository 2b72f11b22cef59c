"""Simulated data plane.

Executing a path walks its links in order and snapshots the QoS state each
hop saw BEFORE any traffic from the demand is placed; the graph is never
mutated here. An optional Bernoulli loss model can drop the packet mid-path,
in which case the losing hop's record is flagged and later hops never happen.

Message accounting models the control traffic of two reporting schemes over
n attempted hops: one report per hop plus a single path-level request when
hops aggregate (n + 1), versus a request/report pair per hop without
aggregation (2n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .network import NetworkGraph, RoutePath, TrafficDemand
from .rewards import HopQoSRecord


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
    """What one episode's path attempt produced. records holds one QoS
    snapshot per attempted hop; only the last may be loss-flagged."""

    records: tuple[HopQoSRecord, ...]


def snapshot_qos(graph: NetworkGraph, src: int, dst: int, hop_index: int) -> HopQoSRecord:
    """Read one hop's QoS state without touching it."""
    link = graph.link(src, dst)
    sender = graph.node(src)
    receiver = graph.node(dst)
    return HopQoSRecord(
        hop_index=hop_index,
        src_id=src,
        dst_id=dst,
        sender_processing_rate=sender.processing_rate,
        receiver_processing_rate=receiver.processing_rate,
        receiver_incoming_traffic=receiver.incoming_traffic,
        link_max_bandwidth=link.max_bandwidth,
        link_used_bandwidth=link.used_bandwidth,
        link_reliability=link.reliability,
    )


def execute_path(
    graph: NetworkGraph,
    path: RoutePath,
    demand: TrafficDemand,
    loss: Optional[LossModel] = None,
) -> ExecutionResult:
    """Attempt a path hop by hop, snapshotting QoS state as each hop is
    reached. Stops early if the loss model drops the packet; the record of
    the losing hop is kept, flagged, and is the last one."""
    records: list[HopQoSRecord] = []
    for hop_index, (src, dst) in enumerate(path.links(), start=1):
        record = snapshot_qos(graph, src, dst, hop_index)
        if loss is not None and loss.packet_lost(record.link_reliability):
            records.append(replace(record, has_lost=True))
            break
        records.append(record)
    return ExecutionResult(records=tuple(records))


class DataPlane:
    """A graph plus a loss model, presented as the environment a learner
    executes paths against."""

    def __init__(self, graph: NetworkGraph, loss: Optional[LossModel] = None):
        self.graph = graph
        self.loss = loss if loss is not None else LossModel("off")

    def execute(self, path: RoutePath, demand: TrafficDemand) -> ExecutionResult:
        return execute_path(self.graph, path, demand, self.loss)
