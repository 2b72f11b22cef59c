"""Small graphs that put one hop in a chosen QoS state, for reward tests."""

from dataclasses import replace

from rlroute.dataplane import execute_path
from rlroute.network import DEFAULT_PROCESSING_RATE, NodeState, RoutePath, TrafficDemand, build_graph
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    global_rewards_for_path,
    link_scores,
    local_rewards_for_path,
)


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
    """Local and global rewards for walking the chain 0 -> 1 -> ... -> hops
    to its end, the demand's destination.

    The last hop's sender and receiver process at the given rates and its
    link has the given bandwidth, load and reliability. The receiver's
    incoming traffic is the last link's load, as the graph derives it,
    unless incoming overrides it. lost drops the packet on the last hop.
    """
    nodes = [NodeState(i, DEFAULT_PROCESSING_RATE) for i in range(hops - 1)]
    nodes += [NodeState(hops - 1, sender), NodeState(hops, receiver)]
    links = [(i, i + 1, 10e6) for i in range(hops - 1)] + [(hops - 1, hops, max_bw, used, rel)]
    graph = build_graph(nodes, links)
    if incoming is not None:
        graph.node(hops).incoming_traffic = incoming
    demand = TrafficDemand(0, hops, traffic)
    result = execute_path(graph, RoutePath(tuple(range(hops + 1)), True), demand)
    if lost:
        result = replace(result, lost=True)
    scores = link_scores(graph, weights, demand)
    return local_rewards_for_path(result, scores), global_rewards_for_path(result, scores)
