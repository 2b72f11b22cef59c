"""Simulated data plane.

A path arrives as the ordered link ids selection chose, a segment list in
the terms of segment routing (RFC 8402), so executing it resolves nothing:
it walks the ids in order and records each link attempted (see
NetworkGraph.link_index). The graph is never mutated here, so the QoS state
every hop sees is the one its demand started with. Per-hop Bernoulli loss,
drawn from a random source the caller gives, is the only randomness: a hop
is lost when its draw is at least the link's reliability, in which case the
losing hop is the last one recorded and later hops never happen.

Message accounting (control_messages) models the control traffic of two
reporting schemes over n attempted hops: one report per hop plus a single
path-level request when hops aggregate (n + 1), versus a request/report
pair per hop without aggregation (2n).
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .network import NetworkGraph


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
    loss: Optional[random.Random] = None,
) -> ExecutionResult:
    """Attempt the links, ids of graph's link index, hop by hop. With a loss
    stream, each hop draws loss.random() once and is lost when the draw is
    at least the link's reliability, so with probability 1 - reliability;
    the losing hop is kept as the last record, later hops are not drawn and
    the result is flagged lost. Without one every hop is attempted and the
    records are links itself."""
    if loss is not None:
        reliability, draw = graph.link_index().reliability, loss.random
        for hop, k in enumerate(links, start=1):
            if draw() >= reliability[k]:
                return ExecutionResult(links[:hop], True)
    return tuple.__new__(ExecutionResult, (links, False))
