"""Graph model, traffic placement, and topology document round-trips."""

import gc
import io
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlroute import network
from rlroute.network import (
    DEFAULT_PROCESSING_RATE,
    LinkIndex,
    LinkState,
    NetworkGraph,
    RoutePath,
    TopologyError,
    TrafficDemand,
    build_graph,
    demands_from_list,
    graph_from_dict,
    load_topology,
    place_traffic,
)
from rlroute.rewards import DEFAULT_WEIGHTS, link_scores, make_weights, reward_intensity
from rlroute.topologies import (
    BUILTIN_DEMAND_SETS,
    BUILTIN_TOPOLOGIES,
    builtin_demands,
    load_builtin,
    load_demands,
    resolve_topology,
)
import reference
from reference import graph_to_dict, incoming_traffic, link_of
from scenarios import OVERFLOWING_TOPOLOGIES

T1_LINKS = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 0)]


def t1():
    return build_graph(5, [(s, d, 10e6, 0.0, 0.95) for s, d in T1_LINKS])


# What json.load can return: nested lists and objects over every JSON scalar,
# with NaN, the infinities and integers of any size. Small integers and the
# schema's own keys make documents that get past the first checks common.
SCHEMA_KEYS = [
    "nodes", "links", "id", "processing_rate_bps", "src", "dst",
    "max_bandwidth_bps", "used_bandwidth_bps", "reliability", "traffic_bps",
]
edge_numbers = st.sampled_from(
    [2**1024, -(10**400), float("nan"), float("inf"), float("-inf"), -1, 0, -0.0, 1.5, True]
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1, max_value=3),
    st.integers(),
    edge_numbers,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), children, max_size=6),
    max_leaves=40,
)
entries = st.dictionaries(st.sampled_from(SCHEMA_KEYS), json_scalars, max_size=6)


@st.composite
def corrupted_documents(draw):
    """A valid topology document or demand list, with one to three fields
    of its entries overwritten by arbitrary JSON scalars."""
    n = draw(st.integers(min_value=2, max_value=4))
    node_ids = st.integers(min_value=0, max_value=n - 1)
    nodes = [{"id": i, "processing_rate_bps": draw(st.floats(1e3, 1e9))} for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(node_ids, node_ids).filter(lambda p: p[0] != p[1]), unique=True, max_size=6
    ))
    links = [
        {
            "src": a,
            "dst": b,
            "max_bandwidth_bps": draw(st.floats(1.0, 1e9)),
            "used_bandwidth_bps": draw(st.floats(0.0, 1e9)),
            "reliability": draw(st.floats(0.0, 1.0)),
        }
        for a, b in pairs
    ]
    demands = [
        {"src": a, "dst": b, "traffic_bps": draw(st.floats(1.0, 1e9))} for a, b in pairs[:3]
    ]
    if draw(st.booleans()):
        document, rows = {"nodes": nodes, "links": links}, nodes + links
    else:
        document, rows = demands, demands
    for _ in range(draw(st.integers(min_value=1, max_value=3)) if rows else 0):
        entry = draw(st.sampled_from(rows))
        entry[draw(st.sampled_from(list(entry)))] = draw(edge_numbers | json_scalars)
    return document


class TestValidation:
    def test_node_rejects_nonpositive_rate(self):
        with pytest.raises(TopologyError):
            build_graph([1e6, 0.0])

    def test_link_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            build_graph(4, [(3, 3, 1e6)])

    def test_link_rejects_nonpositive_capacity(self):
        with pytest.raises(TopologyError):
            build_graph(2, [(0, 1, 0.0)])

    def test_link_rejects_reliability_outside_unit_interval(self):
        with pytest.raises(TopologyError):
            build_graph(2, [(0, 1, 1e6, 0.0, 1.5)])

    def test_a_graph_s_rates_cannot_be_written(self):
        # The rewards read each rate once per graph, not again per demand.
        graph = build_graph([1e6, 2e6])
        assert graph.rates == (1e6, 2e6)
        with pytest.raises(TypeError):
            graph.rates[0] = 3e6

    def test_replace_builds_through_the_checks(self):
        # A record is plain; a replaced one is checked when a graph is built
        # with it.
        link = LinkState(0, 1, 1e6)
        graph = build_graph(2, [link._replace(used_bandwidth=2e6)])
        assert list(graph.iter_links()) == [LinkState(0, 1, 1e6, 2e6)]
        with pytest.raises(TopologyError, match=r"^link \(0,1\): used_bandwidth must be >= 0$"):
            build_graph(2, [link._replace(used_bandwidth=-1.0)])
        with pytest.raises(TopologyError, match=r"^node 0: processing_rate must be > 0, got 0\.0$"):
            build_graph([0.0])

    def test_link_allows_oversubscription(self):
        # Used above max is a observable state, not a construction error.
        link = next(build_graph(2, [(0, 1, 1e6, 2e6)]).iter_links())
        assert link.utilization == 2.0

    def test_demand_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            TrafficDemand(2, 2, 1e5)

    @pytest.mark.parametrize(
        "name, value",
        [("src", 0.5), ("src", True), ("src", np.int64(0)), ("dst", np.int64(3))],
        ids=["src-float", "src-bool", "src-int64", "dst-int64"],
    )
    def test_demand_endpoints_must_be_python_ints(self, name, value):
        # Endpoints index lists and are written to report.json as they are.
        ends = {"src": 0, "dst": 3, name: value}
        with pytest.raises(ValueError, match=f"^demand {name} must be an int, got "):
            TrafficDemand(ends["src"], ends["dst"], 1e5)

    @pytest.mark.parametrize(
        "traffic", [True, np.float32(1e5), "1e5"], ids=["bool", "float32", "str"]
    )
    def test_demand_traffic_must_be_a_python_number(self, traffic):
        # True would be written as "traffic_bps": true; a float32 fails only
        # when the report is written, after the whole study.
        with pytest.raises(ValueError, match=r"^demand traffic must be an int or float, got "):
            TrafficDemand(0, 4, traffic)

    def test_demand_traffic_may_be_a_numpy_float64(self):
        assert TrafficDemand(0, 4, np.float64(1e5)).traffic == 1e5

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: build_graph(2, [(v, 1, 1e6)]), "link src"),
            (lambda v: build_graph(2, [(0, v, 1e6)]), "link dst"),
        ],
        ids=["link-src", "link-dst"],
    )
    @pytest.mark.parametrize("value", [0.0, True, np.int64(0)], ids=["float", "bool", "int64"])
    def test_ids_must_be_python_ints(self, make, field, value):
        # Ids index lists and are written to reports as they are: a link
        # from 0.0 would be written "src": 0.0.
        with pytest.raises(TopologyError, match=f"^{field} must be an int, got "):
            make(value)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: build_graph([v]), "node 0: processing_rate"),
            (lambda v: build_graph(2, [(0, 1, v)]), "link (0,1): max_bandwidth"),
            (lambda v: build_graph(2, [(0, 1, 1e7, v)]), "link (0,1): used_bandwidth"),
            (lambda v: build_graph(2, [(0, 1, 1e7, 0.0, v)]), "link (0,1): reliability"),
        ],
        ids=["rate", "capacity", "load", "reliability"],
    )
    @pytest.mark.parametrize("value", [True, np.float32(0.5)], ids=["bool", "float32"])
    def test_link_and_node_numbers_must_be_python_numbers(self, make, field, value):
        # Reports write these as they are: a load of True as
        # "used_bandwidth_bps": true, and a float32 not at all.
        with pytest.raises(TopologyError, match=rf"^{re.escape(field)} must be an int or float, got "):
            make(value)

    def test_link_and_node_numbers_may_be_ints_or_numpy_float64(self):
        graph = build_graph([np.float64(1e6), 1], [(0, 1, 10_000_000, np.float64(1e6), 1)])
        link = next(graph.iter_links())
        assert (link.max_bandwidth, link.used_bandwidth, link.reliability) == (1e7, 1e6, 1.0)
        assert graph.rates == (1e6, 1)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: build_graph([v]), "node 0: processing_rate"),
            (lambda v: build_graph(2, [(0, 1, v)]), "link (0,1): max_bandwidth"),
            (lambda v: build_graph(2, [(0, 1, 1e7, v)]), "link (0,1): used_bandwidth"),
        ],
        ids=["rate", "capacity", "load"],
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_link_and_node_numbers_must_be_finite(self, make, field, value):
        # The loaders refuse these already; a graph built in code would
        # otherwise write "max_bandwidth_bps": Infinity, which is not JSON.
        with pytest.raises(TopologyError, match=rf"^{re.escape(field)} must be "):
            make(value)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            (-3, "node count must be >= 0, got -3"),
            (True, "node count must be an int, got True"),
            (2.0, "node count must be an int, got 2.0"),
        ],
        ids=["negative", "bool", "float"],
    )
    def test_node_count_must_be_an_int_at_least_zero(self, nodes, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_graph(nodes, [])

    @pytest.mark.parametrize(
        "spec", [(0, 1), (0, 1, 1e6, 0.0, 1.0, 0.0), [0, 1, 1e6]], ids=["short", "long", "list"]
    )
    def test_link_spec_must_be_a_tuple_of_three_to_five_values(self, spec):
        message = f"links[1]: expected a tuple of 3 to 5 values, got {spec!r}"
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_graph(2, [(1, 0, 1e6), spec])

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("nodes", "processing_rate_bps", 0.0, "node 1: processing_rate must be > 0, got 0.0"),
            ("links", "max_bandwidth_bps", 0.0, "link (1,0): max_bandwidth must be > 0, got 0.0"),
            ("links", "reliability", 1.5, "link (1,0): reliability 1.5 outside [0, 1]"),
        ],
        ids=["rate", "capacity", "reliability"],
    )
    def test_loader_and_build_graph_refuse_alike(self, section, field, value, message):
        # The loader runs build_graph's rate and link checks and names the
        # entry they refuse.
        document = graph_to_dict(build_graph(2, [(0, 1, 1e6), (1, 0, 1e6)]))
        document[section][1][field] = value
        with pytest.raises(TopologyError) as loaded:
            graph_from_dict(document)
        assert str(loaded.value) == f"{section}[1]: {message}"
        rates = [node["processing_rate_bps"] for node in document["nodes"]]
        links = [tuple(link.values()) for link in document["links"]]
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_graph(rates, links)

    def test_built_graph_refuses_an_infinite_capacity(self):
        with pytest.raises(TopologyError, match=r"^link \(0,1\): max_bandwidth must be finite, got inf$"):
            build_graph(2, [(0, 1, math.inf), (1, 0, 1e7)])

    def test_demand_rejects_infinite_traffic(self):
        with pytest.raises(ValueError, match="demand traffic must be > 0 and finite, got inf"):
            TrafficDemand(0, 4, math.inf)

    def test_demand_rejects_nonpositive_traffic(self):
        with pytest.raises(ValueError):
            TrafficDemand(0, 1, 0.0)

    def test_path_rejects_repeated_node(self):
        with pytest.raises(ValueError):
            RoutePath((0, 1, 0))

    def test_path_rejects_empty(self):
        with pytest.raises(ValueError):
            RoutePath(())

    @pytest.mark.parametrize("node", [True, np.int64(1), 1.0])
    def test_path_nodes_must_be_python_ints(self, node):
        # Reports write a final path's nodes as they are: a bool as true.
        message = re.escape(f"path [0, {node!r}]: node must be an int, got {node!r}")
        with pytest.raises(ValueError, match=message):
            RoutePath((0, node), True)


class TestBuildGraph:
    def test_t1_example(self):
        graph = t1()
        assert graph.num_nodes == 5
        assert sorted((l.src, l.dst) for l in graph.iter_links()) == sorted(T1_LINKS)
        assert all(l.max_bandwidth == 10e6 for l in graph.iter_links())

    def test_out_neighbors_ascending(self):
        graph = build_graph(4, [(0, 3, 1e6), (0, 1, 1e6), (0, 2, 1e6)])
        assert graph.out_neighbors(0) == [1, 2, 3]
        assert graph.out_neighbors(3) == []

    @pytest.mark.parametrize(
        "ids, bad", [((0, 2), 1), ((1, 1), 1), ((-1, 0), 0)], ids=["sparse", "repeated", "negative"]
    )
    def test_rejects_sparse_node_ids(self, ids, bad):
        # Node ids index the rates; the loader names the first entry whose
        # id is not one of the dense ids 0..N-1 or repeats one.
        document = {"nodes": [{"id": i, "processing_rate_bps": 1e6} for i in ids], "links": []}
        message = f"nodes[{bad}]: node ids must be dense 0..1, each once, got {ids[bad]}"
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            graph_from_dict(document)

    @pytest.mark.parametrize(
        "links, message",
        [
            ([(0, 1, 1e6), (2, 0, 1e6)], "link (2,0): endpoint 2 is not a node id"),
            ([(0, 1, 1e6), (-1, 0, 1e6)], "link (-1,0): endpoint -1 is not a node id"),
            ([(0, 1, 1e6), (1, 2, 1e6)], "link (1,2): endpoint 2 is not a node id"),
            ([(1, 0, 1e6), (0, 1, 1e6), (1, 0, 1e6), (0, 5, 1e6)], "duplicate link (1,0)"),
        ],
        ids=["source", "negative-source", "target", "duplicate-first"],
    )
    def test_rejects_the_first_link_off_the_node_ids_or_repeated(self, links, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_graph(2, links)

    def test_loader_takes_node_ids_in_any_order(self):
        document = graph_to_dict(build_graph([1e6, 2e6, 3e6]))
        document["nodes"].reverse()
        assert graph_from_dict(document).rates == (1e6, 2e6, 3e6)

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(TopologyError, match="endpoint"):
            build_graph(2, [(0, 5, 1e6)])

    def test_rejects_duplicate_link(self):
        with pytest.raises(TopologyError, match="duplicate"):
            build_graph(2, [(0, 1, 1e6), (0, 1, 2e6)])

    def test_incoming_traffic_derived_from_inbound_used(self):
        # Read where the learner reads it, in the intensity terms: node 2
        # receives 3e6 + 4e6, node 0 receives 5e6, node 1 nothing.
        graph = build_graph(
            3, [(0, 2, 1e7, 3e6), (1, 2, 1e7, 4e6), (2, 0, 1e7, 5e6), (2, 1, 1e7, 0.0)]
        )
        scores = link_scores(graph, make_weights(0, 0, 0, 1, 0), TrafficDemand(0, 2, 1e5))
        incoming = {0: 5e6, 1: 0.0, 2: 7e6}
        assert scores.intensity == [
            reward_intensity(incoming[dst], DEFAULT_PROCESSING_RATE, 1e5)
            for dst in graph.link_index().targets
        ]

    def test_copy_is_independent(self):
        # Traffic placed on either graph does not reach the other.
        graph = t1()
        clone = graph.copy()
        place_traffic(clone, RoutePath((0, 1), True), TrafficDemand(0, 1, 5e6))
        place_traffic(graph, RoutePath((1, 2), True), TrafficDemand(1, 2, 1e6))
        assert link_of(clone, 0, 1).used_bandwidth == 5e6
        assert link_of(clone, 1, 2).used_bandwidth == 0.0
        assert link_of(graph, 0, 1).used_bandwidth == 0.0
        assert link_of(graph, 1, 2).used_bandwidth == 1e6
        assert clone != graph

    def test_copy_shares_the_link_index_and_its_term_sets(self):
        # Only loads change, so a copy shares the link index, node rates,
        # capacities, reliabilities and term sets included; only its loads
        # list, which placement writes, is its own.
        graph = t1()
        place_traffic(graph, RoutePath((0, 1), True), TrafficDemand(0, 1, 2e6))
        clone = graph.copy()
        assert clone.link_index() is graph.link_index()
        assert clone == graph
        assert clone.rates is graph.rates is graph.link_index().rates
        assert clone.loads == graph.loads
        assert clone.loads is not graph.loads
        place_traffic(clone, RoutePath((1, 2), True), TrafficDemand(1, 2, 1e6))
        assert clone.loads != graph.loads
        assert clone.link_index() is graph.link_index()
        index = graph.link_index()
        assert index.terms == {}
        demand = TrafficDemand(0, 4, 1e5)
        link_scores(clone, DEFAULT_WEIGHTS, demand)
        terms = index.terms[DEFAULT_WEIGHTS]
        link_scores(graph, DEFAULT_WEIGHTS, demand)
        link_scores(clone.copy(), DEFAULT_WEIGHTS, demand)
        assert list(index.terms) == [DEFAULT_WEIGHTS]
        assert index.terms[DEFAULT_WEIGHTS] is terms
        # A graph holds its index and its loads, and nothing else.
        assert not hasattr(graph, "__dict__")
        with pytest.raises(AttributeError):
            graph.cached = None

    def test_max_link_utilization(self):
        graph = build_graph(3, [(0, 1, 1e7, 2e6), (1, 2, 1e7, 9e6)])
        assert graph.max_link_utilization() == 0.9
        assert build_graph(2, []).max_link_utilization() == 0.0

    def test_missing_link_lookup_raises(self):
        with pytest.raises(ValueError, match=r"^path \[0, 4\] uses missing link \(0,4\)$"):
            link_of(t1(), 0, 4)

    def test_link_index_numbers_links_in_iteration_order(self):
        graph = build_graph(4, [(2, 0, 1e6), (0, 3, 1e6), (0, 1, 1e6), (3, 2, 1e6)])
        index = graph.link_index()
        links = list(graph.iter_links())
        columns = index.sources, index.targets, index.max_bandwidth, graph.loads, index.reliability
        assert list(zip(*columns)) == links
        assert index.out == [(0, 1), (), (2,), (3,)]
        ids = {(link.src, link.dst): graph.link_ids((link.src, link.dst))[0] for link in links}
        assert ids == {(0, 1): 0, (0, 3): 1, (2, 0): 2, (3, 2): 3}
        # Cached: links never change after construction.
        assert graph.link_index() is index
        # A copy shares the index; loads do not enter an index comparison.
        clone = graph.copy()
        place_traffic(clone, RoutePath((0, 1), True), TrafficDemand(0, 1, 5e5))
        assert clone.link_index() is index
        reloaded = build_graph(4, links)
        place_traffic(reloaded, RoutePath((0, 1), True), TrafficDemand(0, 1, 5e5))
        assert reloaded.link_index() == index
        assert reloaded.link_index() is not index
        assert build_graph(3, [(0, 1, 1e6)]).link_index() != index


class TestPairLookup:
    # A link is found among its source's out-links: no pair-to-id table
    # is kept beside the columns.

    @pytest.mark.parametrize("seed", range(3))
    def test_has_link_holds_exactly_for_the_links(self, seed):
        graph = graph_from_dict(float_document(30, seed)[0])
        links = {(link.src, link.dst) for link in graph.iter_links()}
        nodes = range(graph.num_nodes)
        assert {(u, v) for u in nodes for v in nodes if graph.has_link(u, v)} == links

    @pytest.mark.parametrize("seed", range(3))
    def test_a_link_s_pair_gives_its_id(self, seed):
        graph = graph_from_dict(float_document(30, seed)[0])
        for k, link in enumerate(graph.iter_links()):
            assert graph.link_ids((link.src, link.dst)) == (k,)

    @pytest.mark.parametrize(
        "src, dst",
        # Each but (0, -1) and the out-of-range ones would find a t1 link if
        # it indexed out or compared as given: -3 wraps to node 2, which
        # links to 3, and True and 1.0 equal 1.
        [(-3, 3), (0, -1), (5, 0), (0, 5), (True, 2), (0, True), (1.0, 2), (0, 1.0)],
        ids=["negative-src", "negative-dst", "src-out-of-range", "dst-out-of-range",
             "bool-src", "bool-dst", "float-src", "float-dst"],
    )
    def test_an_endpoint_that_is_not_an_int_node_id_is_no_link(self, src, dst):
        graph = t1()
        assert graph.has_link(src, dst) is False
        message = f"path [{src!r}, {dst!r}] uses missing link ({src},{dst})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph.link_ids((src, dst))

    def test_a_loaded_graph_s_containers_grow_with_its_nodes_not_its_links(self):
        def document(num_nodes, degree):
            links = [(u, (u + d) % num_nodes) for u in range(num_nodes) for d in range(1, degree + 1)]
            return {
                "nodes": [{"id": i, "processing_rate_bps": 1e8} for i in range(num_nodes)],
                "links": [{"src": u, "dst": v, "max_bandwidth_bps": 1e7} for u, v in links],
            }

        def containers(graph):
            # Lists, tuples, dicts and sets reachable from the graph, each once.
            seen, stack = {id(graph)}, [graph]
            while stack:
                for ref in gc.get_referents(stack.pop()):
                    if isinstance(ref, (list, tuple, dict, set, LinkIndex)) and id(ref) not in seen:
                        seen.add(id(ref))
                        stack.append(ref)
            return len(seen)

        sparse = containers(graph_from_dict(document(40, 2)))
        assert containers(graph_from_dict(document(40, 8))) == sparse
        # One tuple of out-link ids per node.
        assert containers(graph_from_dict(document(80, 2))) == sparse + 40


class TestPaths:
    def test_hop_count(self):
        path = RoutePath((0, 1, 2), reached_destination=True)
        assert path.hop_count == 2

    def test_missing_link_raises_where_node_paths_enter(self):
        # Node paths enter from outside the learner; their pairs are
        # resolved to link ids here, and the first missing pair is named.
        graph = build_graph(4, [(0, 1, 10e6), (1, 2, 10e6), (2, 3, 10e6)])
        assert graph.link_ids((0, 1, 2, 3)) == (0, 1, 2)
        with pytest.raises(ValueError, match=r"^path \[1, 2, 0, 3\] uses missing link \(2,0\)$"):
            graph.link_ids((1, 2, 0, 3))
        with pytest.raises(ValueError, match=r"^path \[1, 2, 0\] uses missing link \(2,0\)$"):
            place_traffic(graph, RoutePath((1, 2, 0), True), TrafficDemand(1, 0, 1e5))

    def test_link_ids_accepts_t1_chain(self):
        assert t1().link_ids(RoutePath((0, 1, 2, 3, 4), True).nodes) == (0, 1, 3, 4)

    def test_link_ids_rejects_missing_link(self):
        with pytest.raises(ValueError, match="missing link"):
            t1().link_ids(RoutePath((0, 2, 3), True).nodes)

    def test_place_traffic_t1_chain(self):
        # 0.5 Mb/s along 0-1-2-3-4 grows every path link's load and nothing
        # else, so every non-source node's inbound loads sum to 0.5 Mb/s.
        graph = t1()
        demand = TrafficDemand(0, 4, 0.5e6)
        place_traffic(graph, RoutePath((0, 1, 2, 3, 4), True), demand)
        for src, dst in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            assert link_of(graph, src, dst).used_bandwidth == 0.5e6
        assert link_of(graph, 2, 0).used_bandwidth == 0.0
        assert graph.rates == t1().rates
        for node_id in (1, 2, 3, 4):
            assert incoming_traffic(graph, node_id) == 0.5e6
        assert incoming_traffic(graph, 0) == 0.0

    def test_place_traffic_refuses_an_overflowing_load_and_changes_no_load(self):
        # Every new load of the path is computed, and checked, before any
        # is written: the first link's new load is not written either.
        graph = build_graph(3, [(0, 1, 1e7), (1, 2, 1e7, 1.7e308)])
        loads = graph.loads
        message = r"^link \(1,2\): used_bandwidth must be finite, got inf$"
        with pytest.raises(TopologyError, match=message):
            place_traffic(graph, RoutePath((0, 1, 2), True), TrafficDemand(0, 2, 1e308))
        assert graph.loads is loads
        assert loads == [0.0, 1.7e308]
        assert [l.used_bandwidth for l in graph.iter_links()] == [0.0, 1.7e308]

    def test_place_traffic_rejects_unreached_path(self):
        with pytest.raises(ValueError, match="did not reach"):
            place_traffic(t1(), RoutePath((0, 1)), TrafficDemand(0, 1, 1e5))

    def test_place_traffic_rejects_endpoint_mismatch(self):
        with pytest.raises(ValueError, match="does not connect"):
            place_traffic(t1(), RoutePath((0, 1, 2), True), TrafficDemand(0, 4, 1e5))


class TestTopologyDocuments:
    def test_round_trip(self):
        graph = t1()
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_t1_document_round_trip_via_file(self, tmp_path):
        graph = t1()
        path = tmp_path / "net.json"
        path.write_text(json.dumps(graph_to_dict(graph), indent=2), encoding="utf-8")
        assert load_topology(path) == graph

    def test_load_from_open_file(self):
        doc = json.dumps(graph_to_dict(t1()))
        assert load_topology(io.StringIO(doc)) == t1()

    def test_defaults_for_used_and_reliability(self):
        doc = {
            "nodes": [{"id": 0, "processing_rate_bps": 1e8}, {"id": 1, "processing_rate_bps": 1e8}],
            "links": [{"src": 0, "dst": 1, "max_bandwidth_bps": 1e7}],
        }
        link = link_of(graph_from_dict(doc), 0, 1)
        assert link.used_bandwidth == 0.0
        assert link.reliability == 1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"nodes": [{"id": 0, "processing_rate_bps": 1e8}], "links": '
             '[{"src": 0, "dst": 5, "max_bandwidth_bps": 1e7}]}',
             "link (0,5): endpoint 5 is not a node id"),
            ('{"nodes": [', "Expecting value: line 1 column 12 (char 11)"),
        ],
        ids=["endpoint", "truncated"],
    )
    def test_file_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TopologyError) as info:
            resolve_topology(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_error_names_field_path(self):
        doc = {
            "nodes": [{"id": 0, "processing_rate_bps": 1e8}],
            "links": [{"src": 0, "dst": 1}],
        }
        with pytest.raises(TopologyError, match=r"links\[0\].max_bandwidth_bps"):
            graph_from_dict(doc)

    def test_error_on_non_numeric(self):
        doc = {"nodes": [{"id": 0, "processing_rate_bps": "fast"}], "links": []}
        with pytest.raises(TopologyError, match=r"nodes\[0\].processing_rate_bps"):
            graph_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("used_bandwidth_bps", float("nan")),
            ("max_bandwidth_bps", float("inf")),
            ("max_bandwidth_bps", float("-inf")),
            ("reliability", float("nan")),
        ],
    )
    def test_error_on_non_finite(self, field, value):
        # JSON files may spell NaN and Infinity; the loader must refuse them
        # where they appear rather than let a run fail later.
        doc = graph_to_dict(t1())
        doc["links"][0][field] = value
        text = json.dumps(doc)
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(TopologyError, match=rf"links\[0\]\.{field}: expected a finite number"):
            load_topology(io.StringIO(text))

    def test_error_on_huge_integer(self):
        # 10**400 is a valid JSON number that no float can hold.
        doc = graph_to_dict(t1())
        doc["links"][0]["max_bandwidth_bps"] = 10**400
        text = json.dumps(doc)
        with pytest.raises(TopologyError, match=r"links\[0\]\.max_bandwidth_bps: integer too large"):
            load_topology(io.StringIO(text))

    def test_error_on_non_finite_node_rate(self):
        text = '{"nodes": [{"id": 0, "processing_rate_bps": Infinity}], "links": []}'
        with pytest.raises(TopologyError, match=r"nodes\[0\]\.processing_rate_bps"):
            load_topology(io.StringIO(text))

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TOPOLOGIES))
    def test_error_on_loads_that_overflow_once_derived(self, name):
        # Every number is finite, but a node's incoming traffic, its ratio
        # to the processing rate or a link's utilization is not; a run
        # would fail deep in the learner on a non-finite Q-value.
        document, _, message = OVERFLOWING_TOPOLOGIES[name]
        with pytest.raises(TopologyError, match=message):
            graph_from_dict(document)

    def test_builtin_t1_matches_construction(self):
        assert load_builtin("t1") == t1()


class TestLoaderFuzz:
    # Anything json.load returns is either accepted or refused with a
    # TopologyError that names the field; no other exception escapes.

    @settings(max_examples=300, deadline=None)
    @given(json_values | st.lists(entries, max_size=4))
    def test_arbitrary_json_is_accepted_or_refused(self, document):
        accepted_or_refused(document)

    @settings(max_examples=300, deadline=None)
    @given(corrupted_documents())
    def test_corrupted_documents_are_accepted_or_refused(self, document):
        accepted_or_refused(document)


def accepted_or_refused(document):
    for load in (graph_from_dict, lambda doc: demands_from_list(doc, "demands.json")):
        try:
            load(document)
        except TopologyError:
            pass


class TestDemandFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "demands.json"
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_valid_entries(self, tmp_path):
        path = self.write(tmp_path, '[{"src": 0, "dst": 26, "traffic_bps": 100000}]')
        assert load_demands(path) == [TrafficDemand(0, 26, 1e5)]

    def test_bundled_sets_parse(self):
        assert len(builtin_demands("t7")) > 0
        assert all(isinstance(d.src, int) for d in builtin_demands("t8"))

    def test_ids_without_bundled_data_are_refused(self):
        # A topology id is refused with the ids that exist, and so is a
        # builtin topology that ships without a demand set.
        with pytest.raises(
            ValueError, match=r"^unknown builtin topology 't5'; choose from T1, T2, T3, T4, T7, T8$"
        ):
            load_builtin("t5")
        with pytest.raises(ValueError, match=r"^no bundled demand set for 't1'; available: T7, T8$"):
            builtin_demands("t1")

    def test_a_missing_topology_file_is_refused_naming_the_builtin_ids(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError, match=(
            r"^'nosuch\.json' is neither a builtin topology id \(T1, T2, T3, T4, T7, T8\) "
            r"nor an existing file$"
        )):
            resolve_topology("nosuch.json")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"src": 0.9, "dst": 1, "traffic_bps": 1e5}', r"\[1\]\.src: expected an integer"),
            ('{"src": "1", "dst": 2, "traffic_bps": 1e5}', r"\[1\]\.src: expected a number"),
            ('{"src": true, "dst": 2, "traffic_bps": 1e5}', r"\[1\]\.src: expected a number"),
            ('{"src": 0, "dst": 2.0, "traffic_bps": 1e5}', r"\[1\]\.dst: expected an integer"),
            ('{"src": 0, "dst": 2, "traffic_bps": "1e5"}', r"\[1\]\.traffic_bps: expected a number"),
            ('{"src": 0, "dst": 2, "traffic_bps": NaN}', r"\[1\]\.traffic_bps: expected a finite"),
            ('{"src": 0, "dst": 2, "traffic_bps": Infinity}', r"\[1\]\.traffic_bps: expected a finite"),
            ('{"src": 0, "dst": 2}', r"\[1\]\.traffic_bps: required field missing"),
            ('{"src": 2, "dst": 2, "traffic_bps": 1e5}', r"\[1\]: demand src and dst must differ"),
            ('{"src": 0, "dst": 2, "traffic_bps": 0}', r"\[1\]: demand traffic must be > 0"),
            ('[0, 2, 1e5]', r"\[1\]: expected an object"),
        ],
    )
    def test_rejects_bad_entry_naming_file_and_index(self, tmp_path, entry, message):
        path = self.write(tmp_path, '[{"src": 0, "dst": 1, "traffic_bps": 1e5}, %s]' % entry)
        with pytest.raises(TopologyError, match=message) as info:
            load_demands(path)
        assert str(info.value).startswith(f"{path}[1]")

    def test_rejects_huge_integer_traffic(self, tmp_path):
        path = self.write(tmp_path, '[{"src": 0, "dst": 2, "traffic_bps": 1%s}]' % ("0" * 400))
        with pytest.raises(TopologyError, match=r"\[0\]\.traffic_bps: integer too large"):
            load_demands(path)

    def test_rejects_truncated_json_naming_file(self, tmp_path):
        path = self.write(tmp_path, '[{"src": 0, "dst": 1, "traffic_bps": 1e5}')
        with pytest.raises(TopologyError) as info:
            load_demands(path)
        assert str(info.value) == f"{path}: Expecting ',' delimiter: line 1 column 42 (char 41)"

    def test_rejects_non_list_document(self, tmp_path):
        path = self.write(tmp_path, '{"src": 0, "dst": 1, "traffic_bps": 1e5}')
        with pytest.raises(TopologyError, match="must hold a JSON list"):
            load_demands(path)


# ---------------------------------------------------------------------------
# The loaders test a well-formed entry inline and read any other one field
# by field; reference.graph_from_dict and reference.demands_from_list read
# every entry field by field. Both must accept, build and refuse the same.

MISSING = object()
OPTIONAL = {"used_bandwidth_bps", "reliability"}
ENTRY_FIELDS = {
    "nodes": ("id", "processing_rate_bps"),
    "links": ("src", "dst", "max_bandwidth_bps", "used_bandwidth_bps", "reliability"),
    "demands": ("src", "dst", "traffic_bps"),
}
ID_FIELDS = {"id", "src", "dst"}
BAD_VALUES = {
    "missing": MISSING,
    "true": True,
    "null": None,
    "string": "1",
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "huge": 10**400,
    "-huge": -(10**400),
}


def load_outcome(load, document):
    """What load makes of document: the built value, as text that tells a
    float from an int, or the type and message of what it raised."""
    try:
        value = load(document)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, NetworkGraph):
        return "graph", json.dumps(graph_to_dict(value))
    return "demands", repr(value)


def loaders_agree(document):
    """The topology and demand loaders' outcomes on document, each checked
    equal to its reference's."""
    outcomes = []
    for load, ref in (
        (graph_from_dict, reference.graph_from_dict),
        (lambda doc: demands_from_list(doc, "demands.json"),
         lambda doc: reference.demands_from_list(doc, "demands.json")),
    ):
        outcome = load_outcome(load, document)
        assert outcome == load_outcome(ref, document)
        outcomes.append(outcome)
    return outcomes


def small_documents():
    """A valid topology document of three nodes and three links, and a
    valid demand list of three entries; bad entries go at index 1."""
    topology = {
        "nodes": [{"id": i, "processing_rate_bps": 1e8} for i in range(3)],
        "links": [
            {"src": s, "dst": d, "max_bandwidth_bps": 1e7,
             "used_bandwidth_bps": 1e6, "reliability": 0.95}
            for s, d in ((0, 1), (1, 2), (2, 0))
        ],
    }
    demands = [{"src": s, "dst": d, "traffic_bps": 1e5} for s, d in ((0, 1), (1, 2), (2, 0))]
    return topology, demands


def malformed_cases():
    for section, fields in ENTRY_FIELDS.items():
        for key in fields:
            values = dict(BAD_VALUES)
            if key in ID_FIELDS:
                values["float-id"] = 1.0
            for name, value in values.items():
                refused = not (value is MISSING and key in OPTIONAL)
                yield pytest.param(section, key, value, refused, id=f"{section}-{key}-{name}")
        yield pytest.param(section, None, [0, 1, 1e5], True, id=f"{section}-not-an-object")


@st.composite
def valid_documents(draw):
    """A valid topology document and demand list whose numbers are floats
    or JSON ints and whose optional keys may be left out."""
    def number(low, high):
        return draw(st.one_of(
            st.floats(low, high),
            st.integers(math.ceil(low), math.floor(high)),
            st.sampled_from([v for v in (0, 0.0, -0.0, 1, 1.0) if low <= v <= high]),
        ))

    n = draw(st.integers(min_value=2, max_value=6))
    ids = draw(st.permutations(range(n)))
    nodes = [{"id": i, "processing_rate_bps": number(1.0, 1e12)} for i in ids]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        unique=True, max_size=12,
    ))
    links = []
    for src, dst in pairs:
        link = {"src": src, "dst": dst, "max_bandwidth_bps": number(1.0, 1e12)}
        if draw(st.booleans()):
            link["used_bandwidth_bps"] = number(0.0, 1e12)
        if draw(st.booleans()):
            link["reliability"] = number(0.0, 1.0)
        links.append(link)
    demands = [{"src": s, "dst": d, "traffic_bps": number(1.0, 1e12)} for s, d in pairs[:4]]
    return {"nodes": nodes, "links": links}, demands


class TestLoaderAgreesWithFieldByFieldReference:
    @settings(max_examples=200, deadline=None)
    @given(valid_documents())
    def test_valid_documents_build_the_same(self, documents):
        topology, demands = documents
        graph_outcome, _ = loaders_agree(topology)
        _, demands_outcome = loaders_agree(demands)
        assert graph_outcome[0] == "graph"
        assert demands_outcome[0] == "demands"

    @settings(max_examples=200, deadline=None)
    @given(corrupted_documents())
    def test_corrupted_documents_load_the_same(self, document):
        loaders_agree(document)

    @settings(max_examples=200, deadline=None)
    @given(json_values | st.lists(entries, max_size=4))
    def test_arbitrary_json_loads_the_same(self, document):
        loaders_agree(document)

    @pytest.mark.parametrize("section, key, value, refused", malformed_cases())
    def test_malformed_entry_refused_word_for_word(self, section, key, value, refused):
        topology, demands = small_documents()
        rows = demands if section == "demands" else topology[section]
        if key is None:
            rows[1] = value
        elif value is MISSING:
            del rows[1][key]
        else:
            rows[1][key] = value
        graph_outcome, demands_outcome = loaders_agree(
            demands if section == "demands" else topology
        )
        outcome = demands_outcome if section == "demands" else graph_outcome
        assert (outcome[0] is TopologyError) == refused
        if refused:
            prefix = "demands.json[1]" if section == "demands" else f"{section}[1]"
            assert outcome[1].startswith(prefix)

    def test_huge_id_is_refused_as_too_large_not_as_an_endpoint(self):
        topology, _ = small_documents()
        topology["links"][1]["src"] = 10**400
        with pytest.raises(TopologyError) as info:
            graph_from_dict(topology)
        assert str(info.value) == "links[1].src: integer too large for a float"

    @pytest.mark.parametrize("key", ["src", "dst"])
    @pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["huge", "-huge"])
    def test_an_unprintable_id_is_refused_as_too_large(self, key, value):
        # An endpoint is range-tested only as a node id, whose message
        # cannot print an int of over 4,300 digits: the entry-by-entry
        # reading still names it.
        topology, _ = small_documents()
        topology["links"][1][key] = value
        with pytest.raises(TopologyError) as info:
            graph_from_dict(topology)
        assert str(info.value) == f"links[1].{key}: integer too large for a float"


def float_document(num_nodes, seed):
    """A ring plus random chords over num_nodes nodes, every number a
    float, and one demand per node, as topology and demand files hold."""
    rng = random.Random(seed)
    pairs = {(i, (i + 1) % num_nodes) for i in range(num_nodes)}
    while len(pairs) < 4 * num_nodes:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            pairs.add((u, v))
    topology = {
        "nodes": [
            {"id": i, "processing_rate_bps": rng.choice([1e8, 2e8])} for i in range(num_nodes)
        ],
        "links": [
            {"src": u, "dst": v, "max_bandwidth_bps": rng.choice([1e7, 4e7]),
             "used_bandwidth_bps": round(rng.uniform(0.0, 5e6), -3),
             "reliability": round(rng.uniform(0.95, 1.0), 4)}
            for u, v in sorted(pairs)
        ],
    }
    demands = [
        {"src": i, "dst": (i + 1 + rng.randrange(num_nodes - 1)) % num_nodes, "traffic_bps": 1e5}
        for i in range(num_nodes)
    ]
    return topology, demands


class TestWellFormedEntriesSkipTheFieldCheckers:
    # Every bundled file and a generated document hold float numbers, so
    # they must load through the column tests alone: without a single
    # per-field check, and without reading any entry on its own.

    @pytest.fixture(autouse=True)
    def no_field_checkers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"per-entry check called with {args}")

        for name in ("_want_number", "_want_int", "_check_rate", "_check_link", "_entry_columns"):
            monkeypatch.setattr(network, name, refuse)

    @pytest.mark.parametrize("name", BUILTIN_TOPOLOGIES)
    def test_bundled_topologies(self, name):
        assert load_builtin(name).num_nodes > 0

    @pytest.mark.parametrize("name", BUILTIN_DEMAND_SETS)
    def test_bundled_demand_sets(self, name):
        assert builtin_demands(name)

    def test_generated_100_node_document(self, tmp_path):
        topology, demands = float_document(100, seed=4)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(topology), encoding="utf-8")
        assert resolve_topology(str(path)).num_nodes == 100
        path = tmp_path / "demands.json"
        path.write_text(json.dumps(demands), encoding="utf-8")
        assert len(load_demands(path)) == 100

    def test_generated_400_node_document(self):
        topology, _ = float_document(400, seed=5)
        graph = graph_from_dict(topology)
        assert (graph.num_nodes, len(graph.loads)) == (400, 1600)


# One field of a 32-link float document set away from the first entry,
# where a loader that tested only a column's first or least values would
# miss it: (name, section, index, key, value, message), message None when
# the loaders accept the result. Non-finite values come back from JSON text
# as the NaN and Infinity literals json.loads reads.
FIELD_EDGES = [
    *(
        (f"{key}-{literal}", section, index, key, float(literal),
         f"{section}[{index}].{key}: expected a finite number, got {float(literal)!r}")
        for section, index, key in (
            ("nodes", 7, "processing_rate_bps"),
            ("links", 31, "max_bandwidth_bps"),
            ("links", 31, "used_bandwidth_bps"),
            ("links", 31, "reliability"),
        )
        for literal in ("NaN", "Infinity", "-Infinity")
    ),
    *(
        (f"{key}-true", section, 5, key, True, f"{section}[5].{key}: expected a number, got True")
        for section, key in (("nodes", "id"), ("links", "src"), ("links", "dst"))
    ),
    ("zero-rate", "nodes", 6, "processing_rate_bps", 0.0,
     "nodes[6]: node 6: processing_rate must be > 0, got 0.0"),
    ("zero-capacity", "links", 20, "max_bandwidth_bps", 0.0,
     "links[20]: link (5,3): max_bandwidth must be > 0, got 0.0"),
    ("negative-load", "links", 20, "used_bandwidth_bps", -1.0,
     "links[20]: link (5,3): used_bandwidth must be >= 0"),
    ("negative-zero-load", "links", 20, "used_bandwidth_bps", -0.0, None),
    ("reliability-0", "links", 20, "reliability", 0.0, None),
    ("reliability-1", "links", 20, "reliability", 1.0, None),
    ("reliability-above-1", "links", 20, "reliability", 1.5,
     "links[20]: link (5,3): reliability 1.5 outside [0, 1]"),
    ("reliability-below-0", "links", 20, "reliability", -0.5,
     "links[20]: link (5,3): reliability -0.5 outside [0, 1]"),
    ("repeated-id", "nodes", 6, "id", 2, "nodes[6]: node ids must be dense 0..7, each once, got 2"),
    ("id-past-the-last", "nodes", 6, "id", 8,
     "nodes[6]: node ids must be dense 0..7, each once, got 8"),
    ("self-loop", "links", 20, "dst", 5, "links[20]: link (5,5): self loops are not allowed"),
    ("endpoint-past-the-last", "links", 20, "dst", 8, "link (5,8): endpoint 8 is not a node id"),
    ("negative-endpoint", "links", 20, "dst", -1, "link (5,-1): endpoint -1 is not a node id"),
]


def out_of_order(document):
    document["links"].reverse()
    document["nodes"].reverse()


def distant_duplicate(document):
    document["links"].append(dict(document["links"][1]))


def no_nodes(document):
    document["nodes"].clear()


def no_links(document):
    document["links"].clear()


def no_nodes_or_links(document):
    no_nodes(document)
    no_links(document)


def one_pair_sum_overflows(document):
    # Receiver 3's intensity and link (7,3)'s utilization are each 1e308;
    # only their sum, on this one link, passes the largest float.
    document["nodes"][3]["processing_rate_bps"] = 1.0
    document["links"][30].update(max_bandwidth_bps=1.0, used_bandwidth_bps=1e308)


def int_capacities(document):
    for link in document["links"]:
        link["max_bandwidth_bps"] = int(link["max_bandwidth_bps"])


# Edits of the whole document: (edit, message), as in FIELD_EDGES.
DOCUMENT_EDGES = {
    "out-of-order": (out_of_order, None),
    "distant-duplicate": (distant_duplicate, "duplicate link (0,3)"),
    "no-nodes": (no_nodes, "link (0,1): endpoint 0 is not a node id"),
    "no-links": (no_links, None),
    "no-nodes-or-links": (no_nodes_or_links, None),
    "one-pair-sum-overflows": (one_pair_sum_overflows, "link (7,3): global reward overflows"),
    "int-capacities": (int_capacities, None),
}


class TestColumnTestsAgreeWithFieldByFieldReference:
    # Documents at the edges of the column tests, each read back from JSON
    # text: they load, word for word, as the field-by-field reference
    # loads them.

    def loads_the_same(self, document, message):
        document = json.loads(json.dumps(document))
        outcome, _ = loaders_agree(document)
        if message is None:
            assert outcome[0] == "graph"
        else:
            assert outcome == (TopologyError, message)

    @pytest.mark.parametrize(
        "section, index, key, value, message",
        [pytest.param(*case[1:], id=case[0]) for case in FIELD_EDGES],
    )
    def test_a_field_at_an_edge(self, section, index, key, value, message):
        document, _ = float_document(8, seed=1)
        document[section][index][key] = value
        self.loads_the_same(document, message)

    @pytest.mark.parametrize("edit, message", DOCUMENT_EDGES.values(), ids=DOCUMENT_EDGES)
    def test_a_document_at_an_edge(self, edit, message):
        document, _ = float_document(8, seed=1)
        edit(document)
        self.loads_the_same(document, message)
