"""Small graphs that put one hop in a chosen QoS state, for reward tests,
and topology documents whose finite loads overflow once derived."""

from rlroute.dataplane import execute_path
from rlroute.network import DEFAULT_PROCESSING_RATE, TrafficDemand, build_graph
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    global_rewards_for_path,
    link_scores,
    local_rewards_for_path,
)
from reference import records_of


def chain_rewards(
    hops=1,
    sender=50e6,
    receiver=50e6,
    incoming=None,
    max_bw=10e6,
    used=0.0,
    rel=1.0,
    weights=DEFAULT_WEIGHTS,
    traffic=1e5,
    lost=False,
):
    """Local and global reward records for walking the chain 0 -> 1 -> ...
    -> hops to its end, the demand's destination.

    The last hop's sender and receiver process at the given rates and its
    link has the given bandwidth, load and reliability. The receiver's
    incoming traffic, the sum of its inbound links' loads, is the last
    link's load; given incoming >= used, a spare node's link into the
    receiver carries the rest, incoming - used. lost drops the packet on
    the last hop.
    """
    rates = [DEFAULT_PROCESSING_RATE] * (hops - 1) + [sender, receiver]
    links = [(i, i + 1, 10e6) for i in range(hops - 1)] + [(hops - 1, hops, max_bw, used, rel)]
    if incoming is not None:
        rates.append(DEFAULT_PROCESSING_RATE)
        links.append((hops + 1, hops, 10e6, incoming - used))
    graph = build_graph(rates, links)
    demand = TrafficDemand(0, hops, traffic)
    result = execute_path(graph, graph.link_ids(range(hops + 1)))
    if lost:
        result = result._replace(lost=True)
    scores = link_scores(graph, weights, demand)
    return (
        records_of(scores.index, local_rewards_for_path(result, scores)),
        records_of(scores.index, global_rewards_for_path(result, scores)),
    )


def _nodes(*rates):
    return [{"id": i, "processing_rate_bps": rate} for i, rate in enumerate(rates)]


def _link(src, dst, max_bw, used):
    return {"src": src, "dst": dst, "max_bandwidth_bps": max_bw, "used_bandwidth_bps": used}


def pair_document(used):
    """Two nodes processing 1 b/s, joined by one 1 b/s link carrying used."""
    return {"nodes": _nodes(1, 1), "links": [_link(0, 1, 1, used)]}


# Each entry: a document of finite numbers, a demand it can route, and the
# error build_graph must raise for the derived value that overflows.
OVERFLOWING_TOPOLOGIES = {
    # Both ratios are 1e308, but the global reward adds their terms: -2e308.
    "global": (
        pair_document(1e308),
        (0, 1),
        r"link \(0,1\): global reward overflows",
    ),
    # Two inbound links at 1e308 sum to inf incoming traffic at node 2.
    "incoming": (
        {"nodes": _nodes(1e8, 1e8, 1e8),
         "links": [_link(0, 1, 1e7, 0.0), _link(0, 2, 1e7, 1e308), _link(1, 2, 1e7, 1e308)]},
        (0, 2),
        r"node 2: incoming traffic inf / rate overflows",
    ),
    # Finite incoming traffic over a tiny processing rate.
    "intensity": (
        {"nodes": _nodes(1e8, 1e-300, 1e8),
         "links": [_link(0, 1, 1e11, 1e10), _link(1, 2, 1e7, 0.0), _link(0, 2, 1e7, 0.0)]},
        (0, 2),
        r"node 1: incoming traffic 10000000000.0 / rate overflows",
    ),
    # A load over a tiny capacity.
    "utilization": (
        {"nodes": _nodes(1e8, 1e8, 1e8),
         "links": [_link(0, 1, 1e-300, 1e10), _link(1, 2, 1e7, 0.0), _link(0, 2, 1e7, 0.0)]},
        (0, 2),
        r"link \(0,1\): used / max bandwidth overflows",
    ),
}
