"""Directed-graph network model: nodes, links, demands, paths, topology loading.

This module is the single source of truth for all QoS state the simulator
reads. All data rates are bits per second unless a name says otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import repeat
from math import isfinite
from operator import add, eq, mul, truediv
from pathlib import Path
from typing import (
    IO, TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union
)

if TYPE_CHECKING:
    from .rewards import KeptScores

# Processing rate assigned when a graph is built from a bare node count.
DEFAULT_PROCESSING_RATE = 50e6

# Every rate, load, weight and Q-value kept is a float within +-FLOAT_MAX.
FLOAT_MAX = sys.float_info.max


class TopologyError(ValueError):
    """Raised when a topology document or construction input is invalid."""


def check_int(value, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise error naming name unless value is a Python int: not bool and
    not a numpy integer, since reports write it as it is."""
    if type(value) is not int:
        raise error(f"{name} must be an int, got {value!r}")


def check_float(value, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise error naming name unless value is a Python int or float (a
    float subclass such as numpy.float64 included): not bool, and not
    another numpy scalar. Ranges are the caller's to check; once they pass,
    the caller stores float(value), so every number it keeps is a float."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise error(f"{name} must be an int or float, got {value!r}")


def _check_rate(node_id: int, rate) -> None:
    """TopologyError naming node_id unless rate, its processing rate, is a
    Python int or float (see check_float), finite and > 0. build_graph and
    the topology loader call it."""
    if type(rate) is not float:
        check_float(rate, f"node {node_id}: processing_rate", TopologyError)
    if not 0 < rate <= FLOAT_MAX:
        need = "be finite" if rate > 0 else "be > 0"
        raise TopologyError(f"node {node_id}: processing_rate must {need}, got {rate}")


def _check_link(src, dst, max_bandwidth, used_bandwidth, reliability) -> None:
    """TopologyError naming the link unless src and dst are distinct Python
    ints and its numbers are Python ints or floats (see check_float), finite,
    with max_bandwidth > 0, used_bandwidth >= 0 and reliability in [0, 1].
    The one statement of a link's construction checks: build_graph and the
    topology loader call it."""
    # Tested inline first: build_graph checks every link.
    if type(src) is not int or type(dst) is not int:
        check_int(src, "link src", TopologyError)
        check_int(dst, "link dst", TopologyError)
    if src == dst:
        raise TopologyError(f"link ({src},{dst}): self loops are not allowed")
    # Tested inline first, as the ids are; the loader passes floats.
    if not type(max_bandwidth) is type(used_bandwidth) is type(reliability) is float:
        link = f"link ({src},{dst})"
        check_float(max_bandwidth, f"{link}: max_bandwidth", TopologyError)
        check_float(used_bandwidth, f"{link}: used_bandwidth", TopologyError)
        check_float(reliability, f"{link}: reliability", TopologyError)
    if not 0 < max_bandwidth <= FLOAT_MAX:
        need = "be finite" if max_bandwidth > 0 else "be > 0"
        raise TopologyError(
            f"link ({src},{dst}): max_bandwidth must {need}, got {max_bandwidth}"
        )
    _check_load(src, dst, used_bandwidth)
    if not 0.0 <= reliability <= 1.0:
        raise TopologyError(f"link ({src},{dst}): reliability {reliability} outside [0, 1]")


def _check_load(src: int, dst: int, used_bandwidth) -> None:
    """TopologyError naming link (src, dst) unless used_bandwidth, a number,
    is finite and >= 0: _check_link's load check, which place_traffic runs on
    each new load."""
    if not 0 <= used_bandwidth <= FLOAT_MAX:
        need = f"be finite, got {used_bandwidth}" if used_bandwidth > 0 else "be >= 0"
        raise TopologyError(f"link ({src},{dst}): used_bandwidth must {need}")


class LinkState(NamedTuple):
    """One directed link's numbers as a plain record, unchecked. A graph
    does not hold these: it keeps its links as columns (see LinkIndex and
    NetworkGraph.loads), and iter_links builds one record per link from
    them. used_bandwidth may exceed max_bandwidth: over-subscription is an
    observable (and penalized) state.
    """

    src: int
    dst: int
    max_bandwidth: float
    used_bandwidth: float = 0.0
    reliability: float = 1.0

    @property
    def utilization(self) -> float:
        """used / max bandwidth."""
        return self.used_bandwidth / self.max_bandwidth


@dataclass(frozen=True)
class TrafficDemand:
    """A (source, destination, estimated traffic rate) triple; the unit of
    work. src and dst are Python ints (see check_int), as reports write
    them; traffic is accepted as an int or float (see check_float) and
    stored as a float."""

    src: int
    dst: int
    traffic: float

    def __post_init__(self) -> None:
        check_int(self.src, "demand src")
        check_int(self.dst, "demand dst")
        if self.src == self.dst:
            raise ValueError(f"demand src and dst must differ, got {self.src}")
        check_float(self.traffic, "demand traffic")
        if not 0 < self.traffic <= FLOAT_MAX:
            raise ValueError(f"demand traffic must be > 0 and finite, got {self.traffic}")
        object.__setattr__(self, "traffic", float(self.traffic))


@dataclass(frozen=True)
class RoutePath:
    """A simple (loop-free) node sequence, validated on construction: the
    form a path takes where it leaves the learner (its final path) or
    enters from outside (traffic placement, the baseline router). Its nodes
    are Python ints (see check_int), as reports write them."""

    nodes: tuple[int, ...]
    reached_destination: bool = False

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a path must contain at least its start node")
        for node in self.nodes:
            check_int(node, f"path {list(self.nodes)}: node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path {list(self.nodes)} repeats a node")

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1


@dataclass(frozen=True)
class LinkIndex:
    """A graph's nodes and numbered links as columns: all but the loads,
    which each graph holds itself (NetworkGraph.loads). Built with the graph
    and shared with all of its copies.

    rates[i] is node i's processing rate. Link k is the k-th link in (src,
    dst) order, the iter_links order, so out[u], the ids of the links
    leaving node u, ascend and so do their targets; a path that holds ids
    from out holds no ints of its own. rates, max_bandwidth and reliability
    hold floats, checked on entry (see _check_link).
    terms, the rewards.TermSet of each set of weights scored with, is the
    only thing written after construction. Two indexes are equal when they
    number the same link set.
    """

    out: list[tuple[int, ...]]
    targets: list[int]
    sources: list[int] = field(compare=False)
    max_bandwidth: list[float] = field(compare=False)
    reliability: list[float] = field(compare=False)
    rates: tuple[float, ...] = field(compare=False)
    terms: dict = field(default_factory=dict, compare=False, repr=False)

    def link_id(self, src: int, dst: int) -> int | None:
        """The id of link (src, dst), found among out[src]; None when there
        is none. An endpoint that is not an int node id has none: it never
        indexes out, so a negative id cannot wrap around."""
        if type(src) is int and type(dst) is int and 0 <= src < len(self.out):
            for k in self.out[src]:
                if self.targets[k] == dst:
                    return k
        return None


class NetworkGraph:
    """Directed graph held as columns: the LinkIndex it shares with its
    copies, which holds its nodes' rates and its links' fixed numbers, and
    its own loads. Node ids are dense 0..N-1. At most one link exists per
    ordered (src, dst) pair. loads[k] is link k's used bandwidth, a float,
    and the only state that changes: place_traffic writes it. scores, the
    rewards.KeptScores its first scoring makes, keeps its links' reward
    terms for its loads; place_traffic tells it which loads it changed.
    Construct through build_graph or load_topology.
    """

    __slots__ = ("_index", "loads", "scores")

    def __init__(self, index: LinkIndex, loads: list[float]):
        self._index = index
        self.loads = loads
        self.scores: Optional[KeptScores] = None

    @property
    def rates(self) -> tuple[float, ...]:
        return self._index.rates

    @property
    def num_nodes(self) -> int:
        return len(self.rates)

    def check_endpoints(self, demand: TrafficDemand, index: int | None = None) -> None:
        """ValueError naming the first of demand's endpoints that is not a
        node of the graph. The message names the demand as "demand 0->99"
        or, given its 1-based position in a sequence, "demand 2 (0->99)"."""
        for node in (demand.src, demand.dst):
            if not 0 <= node < len(self.rates):
                name = f"{demand.src}->{demand.dst}"
                if index is not None:
                    name = f"{index} ({name})"
                raise ValueError(f"demand {name} references unknown node {node}")

    def has_link(self, src: int, dst: int) -> bool:
        return self._index.link_id(src, dst) is not None

    def link_ids(self, nodes: Sequence[int]) -> tuple[int, ...]:
        """The ids of the links joining consecutive nodes, in order: how a
        node path that enters from outside the learner becomes link ids.
        ValueError naming the path and its first pair with no link."""
        ids = tuple(map(self._index.link_id, nodes, nodes[1:]))
        if None in ids:
            i = ids.index(None)
            raise ValueError(f"path {list(nodes)} uses missing link ({nodes[i]},{nodes[i + 1]})")
        return ids

    def out_neighbors(self, node_id: int) -> list[int]:
        """Next-hop candidates from node_id, in ascending id order."""
        targets = self._index.targets
        return [targets[k] for k in self._index.out[node_id]]

    def link_index(self) -> LinkIndex:
        """The graph's nodes, links, their numbering and fixed numbers,
        which Q-tables, reward scores and copies of the graph share. Built
        with the graph: its node and link sets never change."""
        return self._index

    def iter_links(self) -> Iterator[LinkState]:
        """All links in id order, which is (src, dst) order, each a LinkState
        record built from the columns at the time it is yielded."""
        index = self._index
        rows = zip(index.sources, index.targets, index.max_bandwidth, self.loads, index.reliability)
        return map(LinkState._make, rows)

    def copy(self) -> "NetworkGraph":
        """A graph with the same nodes and links. Only loads change, so the
        copy shares this graph's LinkIndex; its loads list, which
        place_traffic writes, and its scores are its own."""
        return NetworkGraph(self._index, self.loads.copy())

    def max_link_utilization(self) -> float:
        return max(map(truediv, self.loads, self._index.max_bandwidth), default=0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        a, b = self._index, other._index
        return (
            self.rates == other.rates
            and self.loads == other.loads
            and (a.sources, a.targets, a.max_bandwidth, a.reliability)
            == (b.sources, b.targets, b.max_bandwidth, b.reliability)
        )

    def __repr__(self) -> str:
        return f"NetworkGraph(nodes={len(self.rates)}, links={len(self.loads)})"


def build_graph(nodes: int | Sequence[float], links: Iterable[tuple] = ()) -> NetworkGraph:
    """Build a validated NetworkGraph.

    nodes: either a node count, a Python int >= 0 (every node gets
    DEFAULT_PROCESSING_RATE), or node i's processing rate at position i.
    links: tuples (src, dst, max_bw[, used_bw[, reliability]]), such as the
    LinkState records iter_links yields.

    Each rate passes _check_rate and each link _check_link, in the order
    given, its numbers then stored as floats; the checked specs are
    transposed into columns, and _graph checks the link set and the sums of
    loads. Finite loads can still overflow: TopologyError when a node's
    incoming traffic (its inbound links' used bandwidth summed) / processing
    rate or a link's used / max is not finite, or when a link's global
    reward at these loads is not.
    """
    if isinstance(nodes, Sequence):
        for node_id, rate in enumerate(nodes):
            _check_rate(node_id, rate)
        rates = tuple(map(float, nodes))
    else:
        check_int(nodes, "node count", TopologyError)
        if nodes < 0:
            raise TopologyError(f"node count must be >= 0, got {nodes}")
        rates = (DEFAULT_PROCESSING_RATE,) * nodes
    rows = []
    for i, spec in enumerate(links):
        if not (isinstance(spec, tuple) and 3 <= len(spec) <= 5):
            raise TopologyError(f"links[{i}]: expected a tuple of 3 to 5 values, got {spec!r}")
        src, dst, max_bw, used, rel = LinkState(*spec)
        _check_link(src, dst, max_bw, used, rel)
        rows.append((src, dst, float(max_bw), float(used), float(rel)))
    return _graph(rates, *_columns(rows))


def _columns(rows: list[tuple]) -> tuple[list, list, list, list, list]:
    """The five columns of (src, dst, max_bw, used_bw, reliability) rows."""
    return tuple(map(list, zip(*rows))) or ([], [], [], [], [])


def _graph(
    rates: tuple[float, ...],
    sources: list[int],
    targets: list[int],
    max_bandwidth: list[float],
    loads: list[float],
    reliability: list[float],
) -> NetworkGraph:
    """build_graph for checked rates and for links given as columns whose
    rows passed _check_link, or the topology loader's column tests: the
    checks on the link set and on sums of loads, and the columns put in
    (src, dst) order.

    Each check is one test of whole columns inside builtins: endpoints by
    their least and greatest, duplicate pairs by a set of src * n + dst
    keys, the order by one sort of those keys, and the overflows by one
    pass of isfinite over every link's receiver intensity + utilization.
    Only when a test fails does a loop over the rows, in the order given,
    name the first fault.
    """
    n, m = len(rates), len(sources)
    # Once every target is a node id, two links share a key only when they
    # share a pair, and key order is (src, dst) order: the least and the
    # greatest source come first and last.
    keys = list(map(add, map(mul, sources, repeat(n)), targets))
    order = sorted(range(m), key=keys.__getitem__)
    if m and not (
        0 <= min(targets) and max(targets) < n
        and 0 <= sources[order[0]] and sources[order[-1]] < n
        and len(set(keys)) == m
    ):
        seen = set()
        for key in zip(sources, targets):
            link = f"link ({key[0]},{key[1]})"
            for end in key:
                if not 0 <= end < n:
                    raise TopologyError(f"{link}: endpoint {end} is not a node id")
            if key in seen:
                raise TopologyError(f"duplicate {link}")
            seen.add(key)
    sources, targets, max_bandwidth, loads, reliability = (
        list(map(column.__getitem__, order))
        for column in (sources, targets, max_bandwidth, loads, reliability)
    )
    # The links leaving node u are the ids from starts[u] to starts[u + 1].
    starts = [bisect_left(sources, u) for u in range(n + 1)]
    index = LinkIndex(
        out=[tuple(range(a, b)) for a, b in zip(starts, starts[1:])],
        targets=targets,
        sources=sources,
        max_bandwidth=max_bandwidth,
        reliability=reliability,
        rates=rates,
    )

    incoming = incoming_traffic(rates, targets, loads)
    intensity = list(map(truediv, incoming, rates))
    # The link's global reward adds 1 - intensity at its receiver and
    # 1 - utilization, so it is finite exactly when their sum is. Each is
    # >= 0 and not NaN, so every sum is finite only when every intensity
    # with an in-link and every utilization is too; a node with none
    # receives 0.0.
    utilization = list(map(truediv, loads, max_bandwidth))
    if not all(map(isfinite, map(add, map(intensity.__getitem__, targets), utilization))):
        for node_id, (total, ratio) in enumerate(zip(incoming, intensity)):
            if not isfinite(ratio):
                raise TopologyError(f"node {node_id}: incoming traffic {total} / rate overflows")
        for src, dst, ratio in zip(sources, targets, utilization):
            if not isfinite(ratio):
                raise TopologyError(f"link ({src},{dst}): used / max bandwidth overflows")
            if not isfinite(intensity[dst] + ratio):
                raise TopologyError(f"link ({src},{dst}): global reward overflows")
    return NetworkGraph(index, loads)


def incoming_traffic(rates: Sequence[float], targets: list[int], loads: list[float]) -> list[float]:
    """Each node's incoming traffic, as _graph checks it and rewards.KeptScores
    keeps it: its inbound links' loads summed in link-id order from 0.0 with
    +=, not sum(), which is compensated on Python 3.12+."""
    incoming = [0.0] * len(rates)
    for v, used in zip(targets, loads):
        incoming[v] += used
    return incoming


def place_traffic(graph: NetworkGraph, path: RoutePath, demand: TrafficDemand) -> NetworkGraph:
    """Place demand.traffic along path, which must be valid in graph, must
    have reached its destination and must connect the demand's endpoints:
    each path link's entry in graph.loads grows by the demand's rate. Every
    new load is computed and checked before any is written, so a load that
    overflows is refused, naming its link, with the path's loads unchanged.
    The graph's kept scores learn which loads changed."""
    link_ids = graph.link_ids(path.nodes)
    if not path.reached_destination:
        raise ValueError("refusing to place traffic on a path that did not reach its destination")
    if path.nodes[0] != demand.src or path.nodes[-1] != demand.dst:
        raise ValueError(
            f"path {list(path.nodes)} does not connect demand "
            f"{demand.src}->{demand.dst}"
        )
    loads, traffic = graph.loads, demand.traffic
    placed = [loads[k] + traffic for k in link_ids]
    for src, dst, used in zip(path.nodes, path.nodes[1:], placed):
        _check_load(src, dst, used)
    for k, used in zip(link_ids, placed):
        loads[k] = used
    if graph.scores is not None:
        graph.scores.placed(link_ids)
    return graph


# ---------------------------------------------------------------------------
# Topology document i/o
#
# Schema:
#   {"nodes": [{"id": 0, "processing_rate_bps": 1.0e8}],
#    "links": [{"src": 0, "dst": 1, "max_bandwidth_bps": 1.0e7,
#               "used_bandwidth_bps": 1.0e6, "reliability": 0.95}]}
# used_bandwidth_bps defaults to 0.0 and reliability to 1.0 when omitted.
# Demand lists: [{"src": 0, "dst": 26, "traffic_bps": 1.0e5}, ...]
# ---------------------------------------------------------------------------

def _want_number(obj: dict, where: str, key: str, *, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise TopologyError(f"{where}.{key}: required field missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"{where}.{key}: expected a number, got {value!r}")
    # One comparison rejects NaN, the infinities and integers too large to
    # convert to a float.
    if not -FLOAT_MAX <= value <= FLOAT_MAX:
        if isinstance(value, int):
            raise TopologyError(f"{where}.{key}: integer too large for a float")
        raise TopologyError(f"{where}.{key}: expected a finite number, got {value!r}")
    return value


def _want_int(obj: dict, where: str, key: str) -> int:
    value = _want_number(obj, where, key)
    if not isinstance(value, int):
        raise TopologyError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def graph_from_dict(document: dict) -> NetworkGraph:
    """Parse and validate one topology document (already JSON-decoded).

    The fields are read a column at a time, an optional one taking its
    default, and tested whole by _well_formed_columns: every entry an
    object, ids Python ints and numbers floats, every number finite and in
    range, node ids dense 0..N-1 in any order and each given once, and no
    self loop. _graph then checks that every endpoint is a node id, the link
    set and the sums of loads the same way. Only a document that fails a
    column test, or whose endpoints _graph refuses, is read entry by entry
    (_entry_columns): the per-field checkers and _check_rate and _check_link
    name the first entry it got wrong, in document order, or convert its
    JSON ints, and _graph names the first fault in the link set or its
    loads.
    """
    if not isinstance(document, dict):
        raise TopologyError("topology document must be a JSON object")
    for section in ("nodes", "links"):
        if section not in document or not isinstance(document[section], list):
            raise TopologyError(f"{section}: required list missing")
    nodes, links = document["nodes"], document["links"]
    columns = _well_formed_columns(nodes, links)
    try:
        return _graph(*(columns or _entry_columns(nodes, links)))
    except ValueError:
        # An endpoint _graph refuses (or cannot print) may be an int no float
        # holds: the entry-by-entry reading names it before any other fault.
        if columns is not None:
            _entry_columns(nodes, links)
        raise


def _well_formed_columns(nodes: list, links: list) -> Optional[tuple]:
    """The rates in id order and the five link columns of a document whose
    entries all pass the column tests; None when one fails. A document that
    passes them holds nothing _entry_columns would refuse or convert but an
    endpoint no float holds, which is no node id, so both give the same
    columns or _graph refuses them."""
    if not {*map(type, nodes), *map(type, links)} <= {dict}:
        return None
    try:
        ids = [entry["id"] for entry in nodes]
        rates = [entry["processing_rate_bps"] for entry in nodes]
        sources = [entry["src"] for entry in links]
        targets = [entry["dst"] for entry in links]
        max_bandwidth = [entry["max_bandwidth_bps"] for entry in links]
    except KeyError:
        return None
    loads = [entry.get("used_bandwidth_bps", 0.0) for entry in links]
    reliability = [entry.get("reliability", 1.0) for entry in links]
    numbers = (rates, max_bandwidth, loads, reliability)
    # Types first: the tests below compare, hash and add.
    if not (
        {*map(type, ids), *map(type, sources), *map(type, targets)} <= {int}
        and {*map(type, rates), *map(type, max_bandwidth), *map(type, loads),
             *map(type, reliability)} <= {float}
    ):
        return None
    # n entries give every id in range(n) a rate only when each is given
    # once.
    by_id = dict(zip(ids, rates))
    rates = tuple(map(by_id.get, range(len(nodes))))
    # A sum is finite only when every term is: it catches the NaN and
    # Infinity json.loads accepts, which min and max can pass over. One that
    # overflows on finite terms only sends the document entry by entry.
    if (
        None not in rates
        and all(isfinite(sum(column)) for column in numbers)
        and 0.0 < min(rates, default=1.0)
        and 0.0 < min(max_bandwidth, default=1.0)
        and 0.0 <= min(loads, default=0.0)
        and 0.0 <= min(reliability, default=0.0)
        and max(reliability, default=1.0) <= 1.0
        and not any(map(eq, sources, targets))
    ):
        return rates, sources, targets, max_bandwidth, loads, reliability
    return None


def _entry_columns(nodes: list, links: list) -> tuple:
    """The rates in id order and the five link columns, read entry by
    entry: TopologyError naming the first entry, in document order, that is
    not an object, lacks a field, holds a field of the wrong type or out of
    range, or repeats or skips a node id. JSON ints in number fields become
    floats."""
    n = len(nodes)
    rates: list = [None] * n
    for i, entry in enumerate(nodes):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise TopologyError(f"{where}: expected an object")
        node_id = _want_int(entry, where, "id")
        rate = float(_want_number(entry, where, "processing_rate_bps"))
        if not 0 <= node_id < n or rates[node_id] is not None:
            raise TopologyError(
                f"{where}: node ids must be dense 0..{n - 1}, each once, got {node_id}"
            )
        try:
            _check_rate(node_id, rate)
        except TopologyError as exc:
            raise TopologyError(f"{where}: {exc}") from None
        rates[node_id] = rate

    rows = []
    for i, entry in enumerate(links):
        where = f"links[{i}]"
        if not isinstance(entry, dict):
            raise TopologyError(f"{where}: expected an object")
        src, dst = _want_int(entry, where, "src"), _want_int(entry, where, "dst")
        max_bw = float(_want_number(entry, where, "max_bandwidth_bps"))
        used = float(_want_number(entry, where, "used_bandwidth_bps", default=0.0))
        rel = float(_want_number(entry, where, "reliability", default=1.0))
        try:
            _check_link(src, dst, max_bw, used, rel)
        except TopologyError as exc:
            raise TopologyError(f"{where}: {exc}") from None
        rows.append((src, dst, max_bw, used, rel))
    return (tuple(rates), *_columns(rows))


# What demands_from_list reads from an entry that is not an object: no field
# at all.
_NO_FIELDS: Callable = {}.get


def demands_from_list(document, source: str) -> list[TrafficDemand]:
    """Parse and validate one demand list (already JSON-decoded). Errors
    name the source and the offending entry, as in "demands.json[3].src".
    A well-formed entry, an object with int ends and a float traffic
    within +-FLOAT_MAX, takes one inline test; only an entry that fails it
    runs the per-field checkers, as graph_from_dict's entry-by-entry
    reading does."""
    if not isinstance(document, list):
        raise TopologyError(f"demand file {source} must hold a JSON list")
    hi = FLOAT_MAX
    demands = []
    for i, item in enumerate(document):
        get = item.get if type(item) is dict else _NO_FIELDS
        src, dst, traffic = get("src"), get("dst"), get("traffic_bps")
        if not (type(src) is type(dst) is int and type(traffic) is float
                and -hi <= src <= hi and -hi <= dst <= hi and -hi <= traffic <= hi):
            where = f"{source}[{i}]"
            if not isinstance(item, dict):
                raise TopologyError(f"{where}: expected an object")
            src, dst = _want_int(item, where, "src"), _want_int(item, where, "dst")
            traffic = float(_want_number(item, where, "traffic_bps"))
        try:
            demands.append(TrafficDemand(src=src, dst=dst, traffic=traffic))
        except ValueError as exc:
            raise TopologyError(f"{source}[{i}]: {exc}") from None
    return demands


def load_topology(source: Union[str, Path, IO[str]]) -> NetworkGraph:
    """Load a topology document from a path or open text file. From a path,
    text that is not valid JSON or not a valid topology raises TopologyError
    prefixed with the path."""
    if not isinstance(source, (str, Path)):
        return graph_from_dict(json.load(source))
    try:
        return graph_from_dict(json.loads(Path(source).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise TopologyError(f"{source}: {exc}") from None
