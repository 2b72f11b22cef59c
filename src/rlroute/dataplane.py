"""Simulated data plane.

A path arrives as the ordered link ids selection chose, a segment list in
the terms of segment routing (RFC 8402), so executing it resolves nothing:
it walks the ids in order and records each link attempted (see
NetworkGraph.link_index). The graph is never mutated here, so the QoS state
every hop sees is the one its demand started with. An optional Bernoulli
loss model can drop the packet mid-path, in which case the losing hop is
the last one recorded and later hops never happen.

Message accounting (control_messages) models the control traffic of two
reporting schemes over n attempted hops: one report per hop plus a single
path-level request when hops aggregate (n + 1), versus a request/report
pair per hop without aggregation (2n).
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .network import NetworkGraph


class LossModel:
    """Bernoulli per-hop packet loss: each hop drops the packet
    independently with probability 1 - link reliability. A run without
    loss has no model at all (None)."""

    def __init__(self, seed: int | str | None = None):
        self._rng = random.Random(seed)

    def packet_lost(self, reliability: float) -> bool:
        return self._rng.random() >= reliability


def control_messages(attempted_hops: int, episodes: int) -> tuple[int, int]:
    """Controller messages (with aggregation, without) for episodes
    episodes that attempted attempted_hops hops in all: each episode's path
    request plus one report per hop, n + episodes, against a request/report
    pair per hop, 2n."""
    return attempted_hops + episodes, 2 * attempted_hops


class ExecutionResult(NamedTuple):
    """What one episode's path attempt produced: the link ids of the
    attempted hops, in order, and whether the packet was lost on the last."""

    records: tuple[int, ...]
    lost: bool = False


def execute_path(
    graph: NetworkGraph,
    links: tuple[int, ...],
    loss: Optional[LossModel] = None,
) -> ExecutionResult:
    """Attempt the links, ids of graph's link index, hop by hop, consulting
    the loss model, if any, at each hop. With no loss model every hop is
    attempted and the records are links itself. Stops early if the model
    drops the packet; the losing hop is kept as the last record and the
    result is flagged lost."""
    if loss is not None:
        reliability = graph.link_index().reliability
        for hop, k in enumerate(links, start=1):
            if loss.packet_lost(reliability[k]):
                return ExecutionResult(links[:hop], True)
    return tuple.__new__(ExecutionResult, (links, False))
