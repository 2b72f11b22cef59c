"""Graph model, traffic placement, and topology document round-trips."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlroute.network import (
    DEFAULT_PROCESSING_RATE,
    LinkState,
    NetworkGraph,
    NodeState,
    RoutePath,
    TopologyError,
    TrafficDemand,
    build_graph,
    check_path,
    demands_from_list,
    graph_from_dict,
    graph_to_dict,
    load_topology,
    place_traffic,
    save_topology,
)
from rlroute.rewards import link_scores, make_weights, reward_intensity
from rlroute.topologies import builtin_demands, load_builtin, load_demands, resolve_topology
from reference import incoming_traffic
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
            NodeState(0, 0.0)

    def test_link_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            LinkState(3, 3, 1e6)

    def test_link_rejects_nonpositive_capacity(self):
        with pytest.raises(TopologyError):
            LinkState(0, 1, 0.0)

    def test_link_rejects_reliability_outside_unit_interval(self):
        with pytest.raises(TopologyError):
            LinkState(0, 1, 1e6, 0.0, 1.5)

    def test_link_allows_oversubscription(self):
        # Used above max is a observable state, not a construction error.
        link = LinkState(0, 1, 1e6, 2e6)
        assert link.utilization == 2.0

    def test_demand_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            TrafficDemand(2, 2, 1e5)

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

    def test_rejects_sparse_node_ids(self):
        with pytest.raises(TopologyError, match="dense"):
            build_graph([NodeState(0, 1e6), NodeState(2, 1e6)], [])

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
        graph = t1()
        clone = graph.copy()
        clone.link(0, 1).used_bandwidth = 5e6
        clone.node(1).processing_rate = 5e6
        assert graph.link(0, 1).used_bandwidth == 0.0
        assert graph.node(1).processing_rate == DEFAULT_PROCESSING_RATE
        assert clone != graph

    def test_max_link_utilization(self):
        graph = build_graph(3, [(0, 1, 1e7, 2e6), (1, 2, 1e7, 9e6)])
        assert graph.max_link_utilization() == 0.9
        assert build_graph(2, []).max_link_utilization() == 0.0

    def test_missing_link_lookup_raises(self):
        with pytest.raises(KeyError):
            t1().link(0, 4)

    def test_link_index_numbers_links_in_iteration_order(self):
        graph = build_graph(4, [(2, 0, 1e6), (0, 3, 1e6), (0, 1, 1e6), (3, 2, 1e6)])
        index = graph.link_index()
        links = list(graph.iter_links())
        assert list(zip(index.sources, index.targets)) == [(l.src, l.dst) for l in links]
        assert all(a is b for a, b in zip(index.links, links))
        assert index.offsets == [0, 2, 2, 3, 4]
        assert index.ids == {(0, 1): 0, (0, 3): 1, (2, 0): 2, (3, 2): 3}
        # Cached: links never change after construction.
        assert graph.link_index() is index
        # A copy numbers the same links; loads do not enter the comparison.
        clone = graph.copy()
        clone.link(0, 1).used_bandwidth = 5e5
        assert clone.link_index() == index
        assert clone.link_index() is not index
        assert build_graph(3, [(0, 1, 1e6)]).link_index() != index


class TestPaths:
    def test_hop_count_and_links(self):
        path = RoutePath((0, 1, 2), reached_destination=True)
        assert path.hop_count == 2
        assert path.links() == [(0, 1), (1, 2)]

    def test_check_path_accepts_t1_chain(self):
        check_path(t1(), RoutePath((0, 1, 2, 3, 4), True))

    def test_check_path_rejects_missing_link(self):
        with pytest.raises(ValueError, match="missing link"):
            check_path(t1(), RoutePath((0, 2, 3), True))

    def test_place_traffic_t1_chain(self):
        # 0.5 Mb/s along 0-1-2-3-4 grows every path link's load and nothing
        # else, so every non-source node's inbound loads sum to 0.5 Mb/s.
        graph = t1()
        demand = TrafficDemand(0, 4, 0.5e6)
        place_traffic(graph, RoutePath((0, 1, 2, 3, 4), True), demand)
        for src, dst in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            assert graph.link(src, dst).used_bandwidth == 0.5e6
        assert graph.link(2, 0).used_bandwidth == 0.0
        assert graph.nodes == t1().nodes
        for node_id in (1, 2, 3, 4):
            assert incoming_traffic(graph, node_id) == 0.5e6
        assert incoming_traffic(graph, 0) == 0.0

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
        save_topology(graph, path)
        assert load_topology(path) == graph

    def test_load_from_open_file(self):
        doc = json.dumps(graph_to_dict(t1()))
        assert load_topology(io.StringIO(doc)) == t1()

    def test_defaults_for_used_and_reliability(self):
        doc = {
            "nodes": [{"id": 0, "processing_rate_bps": 1e8}, {"id": 1, "processing_rate_bps": 1e8}],
            "links": [{"src": 0, "dst": 1, "max_bandwidth_bps": 1e7}],
        }
        link = graph_from_dict(doc).link(0, 1)
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
