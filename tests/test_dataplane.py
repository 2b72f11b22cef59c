"""Path execution, QoS snapshots, loss handling, message accounting."""

import pytest

from rlroute.dataplane import DataPlane, LossModel, execute_path, snapshot_qos
from rlroute.engine import EpisodeTrace
from rlroute.network import RoutePath, TrafficDemand, build_graph
from rlroute.topologies import load_builtin


def messages(path, result):
    """Controller messages (with, without aggregation) of one episode that
    attempted the hops in result."""
    trace = EpisodeTrace(episode_index=1, temp_path=path, attempted_hops=len(result.records))
    return trace.messages_with_aggregation, trace.messages_without_aggregation


def chain_graph():
    return build_graph(4, [(0, 1, 10e6, 2e6, 0.9), (1, 2, 10e6, 0.0, 0.8), (2, 3, 10e6, 0.0, 1.0)])


class TestSnapshot:
    def test_reads_link_and_node_state(self):
        graph = chain_graph()
        rec = snapshot_qos(graph, 0, 1, 1)
        assert rec.hop_index == 1
        assert rec.link_max_bandwidth == 10e6
        assert rec.link_used_bandwidth == 2e6
        assert rec.link_reliability == 0.9
        assert rec.sender_processing_rate == graph.node(0).processing_rate
        assert rec.receiver_incoming_traffic == 2e6

    def test_idle_t1_first_hop(self):
        rec = snapshot_qos(load_builtin("t1"), 0, 1, 1)
        assert rec.link_used_bandwidth == 0.0
        assert rec.receiver_incoming_traffic == 0.0

    def test_does_not_mutate(self):
        graph = chain_graph()
        before = graph.copy()
        snapshot_qos(graph, 0, 1, 1)
        assert graph == before


class TestExecutePath:
    def test_full_delivery(self):
        graph = chain_graph()
        path = RoutePath((0, 1, 2, 3), True)
        result = execute_path(graph, path, TrafficDemand(0, 3, 1e5))
        assert not any(r.has_lost for r in result.records)
        assert [r.hop_index for r in result.records] == [1, 2, 3]
        assert [(r.src_id, r.dst_id) for r in result.records] == [(0, 1), (1, 2), (2, 3)]
        assert messages(path, result) == (4, 6)

    def test_unreached_path_not_delivered(self):
        # Every hop is attempted and none is lost, yet nothing is delivered:
        # the path itself stops short of the destination.
        path = RoutePath((0, 1, 2))
        result = execute_path(chain_graph(), path, TrafficDemand(0, 3, 1e5))
        assert not path.reached_destination
        assert [(r.src_id, r.dst_id) for r in result.records] == path.links()
        assert not any(r.has_lost for r in result.records)

    def test_execution_never_mutates_graph(self):
        graph = chain_graph()
        before = graph.copy()
        execute_path(graph, RoutePath((0, 1, 2, 3), True), TrafficDemand(0, 3, 1e5))
        assert graph == before

    def test_zero_hop_path(self):
        path = RoutePath((0,))
        result = execute_path(chain_graph(), path, TrafficDemand(0, 3, 1e5))
        assert result.records == ()
        assert messages(path, result) == (1, 0)


class TestLoss:
    def test_off_never_drops(self):
        loss = LossModel("off", seed=1)
        assert not any(loss.packet_lost(0.0) for _ in range(100))

    def test_bernoulli_extremes(self):
        loss = LossModel("bernoulli", seed=1)
        assert not any(loss.packet_lost(1.0) for _ in range(100))
        assert all(loss.packet_lost(0.0) for _ in range(100))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            LossModel("coinflip")

    def test_loss_truncates_and_flags_last_record(self):
        # Reliability 0 on the second link forces the drop at hop 2.
        graph = build_graph(4, [(0, 1, 1e7, 0, 1.0), (1, 2, 1e7, 0, 0.0), (2, 3, 1e7, 0, 1.0)])
        path = RoutePath((0, 1, 2, 3), True)
        result = execute_path(
            graph, path, TrafficDemand(0, 3, 1e5), loss=LossModel("bernoulli", seed=7)
        )
        assert len(result.records) == 2
        assert result.records[-1].has_lost
        assert not result.records[0].has_lost
        # Counts follow the two attempted hops, not the path's three.
        assert messages(path, result) == (3, 4)

    def test_at_most_one_lost_record(self):
        graph = build_graph(3, [(0, 1, 1e7, 0, 0.5), (1, 2, 1e7, 0, 0.5)])
        for seed in range(50):
            result = execute_path(
                graph, RoutePath((0, 1, 2), True), TrafficDemand(0, 2, 1e5),
                loss=LossModel("bernoulli", seed=seed),
            )
            flagged = [r for r in result.records if r.has_lost]
            assert len(flagged) <= 1
            if flagged:
                # Delivery stops at the lost hop: nothing is attempted after it.
                assert result.records[-1].has_lost
                assert len(result.records) == flagged[0].hop_index
            else:
                assert len(result.records) == 2


class TestDataPlane:
    def test_wraps_graph_and_loss(self):
        graph = chain_graph()
        env = DataPlane(graph)
        result = env.execute(RoutePath((0, 1, 2, 3), True), TrafficDemand(0, 3, 1e5))
        assert len(result.records) == 3
        assert not any(r.has_lost for r in result.records)
        assert env.graph is graph
        assert env.loss.mode == "off"
