"""Output checks run on every study of every workload.

Each function returns a list of failure messages; an empty list means the
check passed. The benchmark counts a study with any failure as a failed
operation and exits nonzero.
"""

from __future__ import annotations

from rlroute import NetworkGraph, RoutePath, RouteResult, TrafficDemand


def episode_evidence(result: RouteResult) -> tuple[RoutePath, list[tuple]]:
    """What check_episodes needs from a route result: the final path and,
    per episode, (index, temp path, messages with and without aggregation).
    Keeping only this, not the reward records, leaves peak memory to the program."""
    return result.final_path, [
        (
            t.episode_index,
            t.temp_path,
            t.messages_with_aggregation,
            t.messages_without_aggregation,
        )
        for t in result.traces
    ]


def check_episodes(
    graph: NetworkGraph, demand: TrafficDemand, evidence: tuple, ttl: int
) -> list[str]:
    """Message accounting and temp-path shape for every episode of one demand.

    With aggregation an n-hop episode costs n + 1 controller messages, without
    it 2n. Every temp path starts at the source, is simple, stays within the
    TTL, uses only links of the graph, and is marked reached exactly when it
    ends at the destination. The final path obeys the same shape rules.
    """
    final_path, episodes = evidence
    failures = []
    where = f"demand {demand.src}->{demand.dst}"
    for episode, path, with_aggregation, without_aggregation in episodes:
        hops = path.hop_count
        if with_aggregation != hops + 1:
            failures.append(
                f"{where} episode {episode}: {with_aggregation} messages with aggregation "
                f"over {hops} hops, expected {hops + 1}"
            )
        if without_aggregation != 2 * hops:
            failures.append(
                f"{where} episode {episode}: {without_aggregation} messages without "
                f"aggregation over {hops} hops, expected {2 * hops}"
            )
    paths = [(f"episode {episode}", path) for episode, path, _, _ in episodes]
    for label, path in paths + [("final path", final_path)]:
        nodes = path.nodes
        if nodes[0] != demand.src:
            failures.append(f"{where} {label}: starts at {nodes[0]}")
        if len(set(nodes)) != len(nodes):
            failures.append(f"{where} {label}: {list(nodes)} repeats a node")
        if path.hop_count > ttl:
            failures.append(f"{where} {label}: {path.hop_count} hops exceed ttl {ttl}")
        if path.reached_destination != (nodes[-1] == demand.dst):
            failures.append(f"{where} {label}: reached flag disagrees with its last node")
        missing = [pair for pair in zip(nodes[:-1], nodes[1:]) if not graph.has_link(*pair)]
        if missing:
            failures.append(f"{where} {label}: uses missing links {missing}")
    return failures


def check_loads(initial: NetworkGraph, final: NetworkGraph, routed: list, label: str) -> list[str]:
    """Final link loads equal the initial loads plus, in routing order, the
    traffic of every routed demand along its final path.

    routed holds (demand, path) pairs for the routed demands only. The sums
    are formed in the order the harness places traffic, so they are exact.
    """
    expected = {(link.src, link.dst): link.used_bandwidth for link in initial.iter_links()}
    for demand, path in routed:
        for pair in zip(path.nodes[:-1], path.nodes[1:]):
            expected[pair] += demand.traffic
    failures = []
    for link in final.iter_links():
        want = expected.pop((link.src, link.dst), None)
        if want != link.used_bandwidth:
            failures.append(
                f"{label}: link ({link.src},{link.dst}) carries {link.used_bandwidth} bps, "
                f"expected {want}"
            )
    if expected:
        failures.append(f"{label}: final graph lacks links {sorted(expected)[:5]}")
    return failures


def check_same_files(first: dict, again: dict, label: str) -> list[str]:
    """Two emits of the same study are byte-identical, file by file; both
    arguments map file names to sha256 digests."""
    if first.keys() != again.keys():
        return [f"{label}: emitted files {sorted(again)} differ from {sorted(first)}"]
    return [
        f"{label}: {name} differs between emits" for name in first if first[name] != again[name]
    ]
