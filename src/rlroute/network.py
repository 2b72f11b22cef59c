"""Directed-graph network model: nodes, links, demands, paths, topology loading.

This module is the single source of truth for all QoS state the simulator
reads. All data rates are bits per second unless a name says otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from math import isfinite
from pathlib import Path
from typing import IO, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar, Union

# Processing rate assigned when a graph is built from a bare node count.
DEFAULT_PROCESSING_RATE = 50e6

_FLOAT_MAX = sys.float_info.max

_T = TypeVar("_T")


class TopologyError(ValueError):
    """Raised when a topology document or construction input is invalid."""


def check_int(value, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise error naming name unless value is a Python int: not bool and
    not a numpy integer, since reports write it as it is."""
    if type(value) is not int:
        raise error(f"{name} must be an int, got {value!r}")


def check_float(value, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise error naming name unless value is a Python int or float
    (a float subclass such as numpy.float64 included): not bool, which
    reports would write as true or false, and not another numpy scalar,
    which they cannot write at all. Ranges are the caller's to check."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise error(f"{name} must be an int or float, got {value!r}")


@dataclass
class NodeState:
    """One network node. Its incoming traffic is not stored: it is the sum
    of its inbound links' used bandwidth. The processing rate, a Python int
    or float (see check_float), is read, and checked, the first time the
    graph is scored under a set of weights (rewards.TermSet); the rewards do
    not see it reassigned after that.
    """

    node_id: int
    processing_rate: float

    def __post_init__(self) -> None:
        check_int(self.node_id, "node id", TopologyError)
        if self.node_id < 0:
            raise TopologyError(f"node id {self.node_id} is negative")
        rate = self.processing_rate
        if type(rate) is not float:
            check_float(rate, f"node {self.node_id}: processing_rate", TopologyError)
        if not rate > 0:
            raise TopologyError(
                f"node {self.node_id}: processing_rate must be > 0, "
                f"got {self.processing_rate}"
            )


@dataclass
class LinkState:
    """One directed link.

    Its numbers are Python ints or floats (see check_float), as reports
    write them. used_bandwidth may exceed max_bandwidth: over-subscription
    is an observable (and penalized) state, not a construction error. Loads
    are read, and checked, per demand. max_bandwidth and reliability are
    read, and checked, the first time the graph is scored under a set of
    weights (rewards.TermSet); the rewards do not see one reassigned after
    that.
    """

    src: int
    dst: int
    max_bandwidth: float
    used_bandwidth: float = 0.0
    reliability: float = 1.0

    def __post_init__(self) -> None:
        # Tested inline first: a topology builds one LinkState per link.
        if type(self.src) is not int or type(self.dst) is not int:
            check_int(self.src, "link src", TopologyError)
            check_int(self.dst, "link dst", TopologyError)
        if self.src == self.dst:
            raise TopologyError(f"link ({self.src},{self.dst}): self loops are not allowed")
        # Tested inline first, as the ids are; the loaders pass floats.
        if not (
            type(self.max_bandwidth) is type(self.used_bandwidth) is type(self.reliability) is float
        ):
            link = f"link ({self.src},{self.dst})"
            for name in ("max_bandwidth", "used_bandwidth", "reliability"):
                check_float(getattr(self, name), f"{link}: {name}", TopologyError)
        if not self.max_bandwidth > 0:
            raise TopologyError(
                f"link ({self.src},{self.dst}): max_bandwidth must be > 0, "
                f"got {self.max_bandwidth}"
            )
        if self.used_bandwidth < 0:
            raise TopologyError(
                f"link ({self.src},{self.dst}): used_bandwidth must be >= 0"
            )
        if not 0.0 <= self.reliability <= 1.0:
            raise TopologyError(
                f"link ({self.src},{self.dst}): reliability {self.reliability} "
                f"outside [0, 1]"
            )

    @property
    def utilization(self) -> float:
        return self.used_bandwidth / self.max_bandwidth


@dataclass(frozen=True)
class TrafficDemand:
    """A (source, destination, estimated traffic rate) triple; the unit of
    work. src and dst are Python ints and traffic a Python int or float
    (see check_int and check_float), as reports write them."""

    src: int
    dst: int
    traffic: float

    def __post_init__(self) -> None:
        check_int(self.src, "demand src")
        check_int(self.dst, "demand dst")
        if self.src == self.dst:
            raise ValueError(f"demand src and dst must differ, got {self.src}")
        check_float(self.traffic, "demand traffic")
        if not 0 < self.traffic <= _FLOAT_MAX:
            raise ValueError(f"demand traffic must be > 0 and finite, got {self.traffic}")


@dataclass(frozen=True)
class RoutePath:
    """A simple (loop-free) node sequence, validated on construction: the
    form a path takes where it leaves the learner (its final path) or
    enters from outside (traffic placement, the baseline router)."""

    nodes: tuple[int, ...]
    reached_destination: bool = False

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a path must contain at least its start node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path {list(self.nodes)} repeats a node")

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1


@dataclass(frozen=True)
class LinkIndex:
    """Dense link ids.

    Link k is the k-th link in (src, dst) order, the iter_links order, so
    out[u], the ids of the links leaving node u, ascend and so do their
    targets. The ids in out are the int objects of ids' values, so a path
    that holds them holds no ints of its own. Two indexes are equal when
    they number the same link set.
    """

    out: list[tuple[int, ...]]
    targets: list[int]
    sources: list[int] = field(compare=False)
    ids: dict[tuple[int, int], int] = field(compare=False)
    # The graph's LinkState objects by id; their loads are read, not copied.
    links: list[LinkState] = field(compare=False)


class MissingLinkError(KeyError):
    """A node pair that is not a link of the graph."""

    def __init__(self, src: int, dst: int):
        super().__init__(f"no link ({src},{dst}) in graph")
        self.src, self.dst = src, dst


class NetworkGraph:
    """Directed graph of NodeState / LinkState.

    Node ids are dense 0..N-1. At most one link exists per ordered (src, dst)
    pair. The links are held once, in the graph's LinkIndex, numbered at
    construction. Construct through build_graph or load_topology.
    """

    def __init__(self, nodes: list[NodeState], links: dict[tuple[int, int], LinkState]):
        self._nodes = nodes
        keys = sorted(links)
        ids = {key: k for k, key in enumerate(keys)}
        out: list[list[int]] = [[] for _ in nodes]
        for (src, _), k in ids.items():
            out[src].append(k)
        self._index = LinkIndex(
            out=[tuple(ks) for ks in out],
            targets=[dst for _, dst in keys],
            sources=[src for src, _ in keys],
            ids=ids,
            links=[links[key] for key in keys],
        )
        self._cache: dict = {}

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[NodeState]:
        return self._nodes

    def node(self, node_id: int) -> NodeState:
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._nodes)

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self._index.ids

    def link_ids(self, nodes: Sequence[int]) -> tuple[int, ...]:
        """The ids of the links joining consecutive nodes, in order. Raises
        MissingLinkError, a KeyError, naming the first pair with no link."""
        ids = self._index.ids
        try:
            return tuple(map(ids.__getitem__, zip(nodes, nodes[1:])))
        except KeyError as exc:
            raise MissingLinkError(*exc.args[0]) from None

    def out_neighbors(self, node_id: int) -> list[int]:
        """Next-hop candidates from node_id, in ascending id order."""
        targets = self._index.targets
        return [targets[k] for k in self._index.out[node_id]]

    def link_index(self) -> LinkIndex:
        """The graph's links and their numbering, which Q-tables and reward
        scores share. Built with the graph: its link set never changes."""
        return self._index

    def cached(self, build: Callable[..., _T], *args: Hashable) -> _T:
        """build(self, *args), computed on the first call with these args
        and kept for the graph's lifetime. build and args are the key, so
        pass a module-level function, not a fresh lambda; rewards.TermSet and
        the baseline's in-neighbor lists are built this way. A build that
        raises keeps nothing, so the next call builds again.

        Only for what depends on nothing but args and the fixed part of the
        graph: its link set, link capacities and reliabilities and node
        processing rates, none of which change after construction. Loads do
        change (place_traffic writes them), so nothing derived from a load
        may be cached here.
        """
        key = (build, *args)
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build(self, *args)
            return value

    def iter_links(self) -> Iterator[LinkState]:
        """All links in id order, which is (src, dst) order."""
        return iter(self._index.links)

    def copy(self) -> "NetworkGraph":
        links = {(l.src, l.dst): replace(l) for l in self._index.links}
        return NetworkGraph([replace(n) for n in self._nodes], links)

    def max_link_utilization(self) -> float:
        return max((l.utilization for l in self._index.links), default=0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._index.links == other._index.links

    def __repr__(self) -> str:
        return f"NetworkGraph(nodes={len(self._nodes)}, links={len(self._index.links)})"


LinkSpec = Union[LinkState, tuple]


def build_graph(
    nodes: Union[int, Iterable[NodeState]],
    links: Iterable[LinkSpec] = (),
) -> NetworkGraph:
    """Build a validated NetworkGraph.

    nodes: either a node count (every node gets DEFAULT_PROCESSING_RATE) or
    an iterable of NodeState with dense ids 0..N-1.
    links: LinkState instances or tuples (src, dst, max_bw[, used_bw[, reliability]]).

    Finite loads can still overflow: TopologyError when a node's incoming
    traffic (its inbound links' used bandwidth summed) / processing rate or
    a link's used / max is not finite, or when a link's global reward at
    these loads is not. The given nodes and links are not written to.
    """
    if isinstance(nodes, int):
        node_list = [NodeState(i, DEFAULT_PROCESSING_RATE) for i in range(nodes)]
    else:
        node_list = sorted(list(nodes), key=lambda n: n.node_id)
        ids = [n.node_id for n in node_list]
        if ids != list(range(len(node_list))):
            raise TopologyError(f"node ids must be dense 0..N-1, got {ids}")

    link_map: dict[tuple[int, int], LinkState] = {}
    for spec in links:
        link = spec if isinstance(spec, LinkState) else LinkState(*spec)
        key = (link.src, link.dst)
        for end in key:
            if not 0 <= end < len(node_list):
                raise TopologyError(
                    f"link ({link.src},{link.dst}): endpoint {end} is not a node id"
                )
        if key in link_map:
            raise TopologyError(f"duplicate link ({link.src},{link.dst})")
        link_map[key] = link

    graph = NetworkGraph(node_list, link_map)
    # Summed in link-id order, as rewards.link_scores sums them.
    incoming = [0.0] * len(node_list)
    for link in graph.iter_links():
        incoming[link.dst] += link.used_bandwidth
    intensity = [total / node.processing_rate for total, node in zip(incoming, node_list)]
    for node, total, ratio in zip(node_list, incoming, intensity):
        if not isfinite(ratio):
            raise TopologyError(f"node {node.node_id}: incoming traffic {total} / rate overflows")
    for link in graph.iter_links():
        utilization = link.utilization
        if not isfinite(utilization):
            raise TopologyError(f"link ({link.src},{link.dst}): used / max bandwidth overflows")
        # The link's global reward adds 1 - intensity at its receiver and
        # 1 - utilization, so it is finite exactly when their sum is.
        if not isfinite(intensity[link.dst] + utilization):
            raise TopologyError(f"link ({link.src},{link.dst}): global reward overflows")
    return graph


def check_path(graph: NetworkGraph, path: RoutePath) -> tuple[int, ...]:
    """The ids of path's links; ValueError unless every consecutive pair of
    path is a graph link."""
    try:
        return graph.link_ids(path.nodes)
    except MissingLinkError as exc:
        missing = f"({exc.src},{exc.dst})"
        raise ValueError(f"path {list(path.nodes)} uses missing link {missing}") from None


def place_traffic(graph: NetworkGraph, path: RoutePath, demand: TrafficDemand) -> NetworkGraph:
    """Place demand.traffic along path: every path link's used_bandwidth
    grows by the demand's rate, and nothing else changes. The path must be
    valid in graph, must have reached its destination, and must connect the
    demand's endpoints.
    """
    link_ids = check_path(graph, path)
    if not path.reached_destination:
        raise ValueError("refusing to place traffic on a path that did not reach its destination")
    if path.nodes[0] != demand.src or path.nodes[-1] != demand.dst:
        raise ValueError(
            f"path {list(path.nodes)} does not connect demand "
            f"{demand.src}->{demand.dst}"
        )
    links = graph.link_index().links
    for k in link_ids:
        links[k].used_bandwidth += demand.traffic
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
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        if isinstance(value, int):
            raise TopologyError(f"{where}.{key}: integer too large for a float")
        raise TopologyError(f"{where}.{key}: expected a finite number, got {value!r}")
    return value


def _want_int(obj: dict, where: str, key: str) -> int:
    value = _want_number(obj, where, key)
    if not isinstance(value, int):
        raise TopologyError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


# What a loader reads from an entry that is not an object: no field at all.
_NO_FIELDS: Callable = {}.get


def graph_from_dict(document: dict) -> NetworkGraph:
    """Parse and validate one topology document (already JSON-decoded). A
    well-formed entry, an object with int ids and float numbers all within
    +-_FLOAT_MAX, takes one inline test. Only an entry that fails it runs the
    per-field checkers, which name what it got wrong or convert its JSON
    ints. NodeState, LinkState and build_graph check the rest."""
    if not isinstance(document, dict):
        raise TopologyError("topology document must be a JSON object")
    for section in ("nodes", "links"):
        if section not in document or not isinstance(document[section], list):
            raise TopologyError(f"{section}: required list missing")
    hi = _FLOAT_MAX

    nodes = []
    for i, entry in enumerate(document["nodes"]):
        get = entry.get if type(entry) is dict else _NO_FIELDS
        node_id, rate = get("id"), get("processing_rate_bps")
        if not (type(node_id) is int and type(rate) is float
                and -hi <= node_id <= hi and -hi <= rate <= hi):
            where = f"nodes[{i}]"
            if not isinstance(entry, dict):
                raise TopologyError(f"{where}: expected an object")
            node_id = _want_int(entry, where, "id")
            rate = float(_want_number(entry, where, "processing_rate_bps"))
        try:
            nodes.append(NodeState(node_id, rate))
        except TopologyError as exc:
            raise TopologyError(f"nodes[{i}]: {exc}") from None

    links = []
    for i, entry in enumerate(document["links"]):
        get = entry.get if type(entry) is dict else _NO_FIELDS
        src, dst, max_bw = get("src"), get("dst"), get("max_bandwidth_bps")
        used, rel = get("used_bandwidth_bps", 0.0), get("reliability", 1.0)
        if not (type(src) is type(dst) is int and type(max_bw) is type(used) is type(rel) is float
                and -hi <= src <= hi and -hi <= dst <= hi and -hi <= max_bw <= hi
                and -hi <= used <= hi and -hi <= rel <= hi):
            where = f"links[{i}]"
            if not isinstance(entry, dict):
                raise TopologyError(f"{where}: expected an object")
            src, dst = _want_int(entry, where, "src"), _want_int(entry, where, "dst")
            max_bw = float(_want_number(entry, where, "max_bandwidth_bps"))
            used = float(_want_number(entry, where, "used_bandwidth_bps", default=0.0))
            rel = float(_want_number(entry, where, "reliability", default=1.0))
        try:
            links.append(LinkState(src, dst, max_bw, used, rel))
        except TopologyError as exc:
            raise TopologyError(f"links[{i}]: {exc}") from None

    return build_graph(nodes, links)


def demands_from_list(document, source: str) -> list[TrafficDemand]:
    """Parse and validate one demand list (already JSON-decoded). Errors
    name the source and the offending entry, as in "demands.json[3].src".
    As in graph_from_dict, a well-formed entry takes one inline test and
    only an entry that fails it runs the per-field checkers."""
    if not isinstance(document, list):
        raise TopologyError(f"demand file {source} must hold a JSON list")
    hi = _FLOAT_MAX
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
