"""Graph model, traffic placement, and topology document round-trips."""

import io
import json

import pytest

from rlroute.network import (
    LinkState,
    NetworkGraph,
    NodeState,
    RoutePath,
    TopologyError,
    TrafficDemand,
    build_graph,
    check_path,
    graph_from_dict,
    graph_to_dict,
    load_topology,
    place_traffic,
    save_topology,
)
from rlroute.topologies import builtin_demands, load_builtin, load_demands

T1_LINKS = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 0)]


def t1():
    return build_graph(5, [(s, d, 10e6, 0.0, 0.95) for s, d in T1_LINKS])


class TestValidation:
    def test_node_rejects_nonpositive_rate(self):
        with pytest.raises(TopologyError):
            NodeState(0, 0.0)

    def test_node_rejects_negative_incoming(self):
        with pytest.raises(TopologyError):
            NodeState(0, 1e6, -1.0)

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
        graph = build_graph(3, [(0, 2, 1e7, 3e6), (1, 2, 1e7, 4e6), (2, 0, 1e7, 5e6)])
        assert graph.node(2).incoming_traffic == 7e6
        assert graph.node(0).incoming_traffic == 5e6
        assert graph.node(1).incoming_traffic == 0.0

    def test_copy_is_independent(self):
        graph = t1()
        clone = graph.copy()
        clone.link(0, 1).used_bandwidth = 5e6
        clone.node(1).incoming_traffic = 5e6
        assert graph.link(0, 1).used_bandwidth == 0.0
        assert graph.node(1).incoming_traffic == 0.0
        assert clone != graph

    def test_max_link_utilization(self):
        graph = build_graph(3, [(0, 1, 1e7, 2e6), (1, 2, 1e7, 9e6)])
        assert graph.max_link_utilization() == 0.9
        assert build_graph(2, []).max_link_utilization() == 0.0

    def test_missing_link_lookup_raises(self):
        with pytest.raises(KeyError):
            t1().link(0, 4)


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
        # 0.5 Mb/s along 0-1-2-3-4 grows every path link and every non-source node.
        graph = t1()
        demand = TrafficDemand(0, 4, 0.5e6)
        place_traffic(graph, RoutePath((0, 1, 2, 3, 4), True), demand)
        for src, dst in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            assert graph.link(src, dst).used_bandwidth == 0.5e6
        assert graph.link(2, 0).used_bandwidth == 0.0
        for node_id in (1, 2, 3, 4):
            assert graph.node(node_id).incoming_traffic == 0.5e6
        assert graph.node(0).incoming_traffic == 0.0

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

    def test_error_on_non_finite_node_rate(self):
        text = '{"nodes": [{"id": 0, "processing_rate_bps": Infinity}], "links": []}'
        with pytest.raises(TopologyError, match=r"nodes\[0\]\.processing_rate_bps"):
            load_topology(io.StringIO(text))

    def test_builtin_t1_matches_construction(self):
        assert load_builtin("t1") == t1()


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

    def test_rejects_non_list_document(self, tmp_path):
        path = self.write(tmp_path, '{"src": 0, "dst": 1, "traffic_bps": 1e5}')
        with pytest.raises(TopologyError, match="must hold a JSON list"):
            load_demands(path)
