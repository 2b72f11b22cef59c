"""Path execution, QoS snapshots, loss handling, message accounting."""

import pytest

from reference import execute_path as reference_execute_path
from reference import snapshot_qos
from rlroute.dataplane import LossModel, execute_path
from rlroute.engine import EpisodeTrace
from rlroute.network import RoutePath, build_graph
from rlroute.topologies import load_builtin


def messages(path, result):
    """Controller messages (with, without aggregation) of one episode that
    attempted the hops in result."""
    trace = EpisodeTrace(episode_index=1, temp_path=path, attempted_hops=len(result.records))
    return trace.messages_with_aggregation, trace.messages_without_aggregation


def attempted(graph, result):
    """The (src, dst) links of the hops in result, in order."""
    index = graph.link_index()
    return [(index.sources[k], index.targets[k]) for k in result.records]


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
        result = execute_path(graph, path)
        assert not result.lost
        assert attempted(graph, result) == [(0, 1), (1, 2), (2, 3)]
        assert messages(path, result) == (4, 6)

    def test_unreached_path_not_delivered(self):
        # Every hop is attempted and none is lost, yet nothing is delivered:
        # the path itself stops short of the destination.
        graph = chain_graph()
        path = RoutePath((0, 1, 2))
        result = execute_path(graph, path)
        assert not path.reached_destination
        assert attempted(graph, result) == path.links()
        assert not result.lost

    def test_execution_never_mutates_graph(self):
        graph = chain_graph()
        before = graph.copy()
        execute_path(graph, RoutePath((0, 1, 2, 3), True))
        assert graph == before

    def test_zero_hop_path(self):
        path = RoutePath((0,))
        result = execute_path(chain_graph(), path)
        assert result.records == ()
        assert not result.lost
        assert messages(path, result) == (1, 0)

    def test_missing_link_raises_before_any_hop(self):
        # Link ids are resolved for the whole path before the loss model is
        # consulted, so a bad path never draws from it.
        loss, untouched = LossModel(seed=0), LossModel(seed=0)
        for model in (None, loss):
            with pytest.raises(KeyError, match=r"no link \(2,0\) in graph"):
                execute_path(chain_graph(), RoutePath((1, 2, 0)), model)
        draws = [loss.packet_lost(0.5) for _ in range(32)]
        assert draws == [untouched.packet_lost(0.5) for _ in range(32)]


class TestLoss:
    def test_bernoulli_extremes(self):
        loss = LossModel(seed=1)
        assert not any(loss.packet_lost(1.0) for _ in range(100))
        assert all(loss.packet_lost(0.0) for _ in range(100))

    def test_loss_truncates_and_flags_last_record(self):
        # Reliability 0 on the second link forces the drop at hop 2.
        graph = build_graph(4, [(0, 1, 1e7, 0, 1.0), (1, 2, 1e7, 0, 0.0), (2, 3, 1e7, 0, 1.0)])
        path = RoutePath((0, 1, 2, 3), True)
        result = execute_path(graph, path, loss=LossModel(seed=7))
        assert attempted(graph, result) == [(0, 1), (1, 2)]
        assert result.lost
        # Counts follow the two attempted hops, not the path's three.
        assert messages(path, result) == (3, 4)

    def test_at_most_one_lost_record(self):
        graph = build_graph(3, [(0, 1, 1e7, 0, 0.5), (1, 2, 1e7, 0, 0.5)])
        path = RoutePath((0, 1, 2), True)
        outcomes = set()
        for seed in range(50):
            result = execute_path(graph, path, loss=LossModel(seed=seed))
            # The attempted hops are a prefix of the path; delivery stops at
            # the lost hop, so only a lost execution may end early.
            hops = attempted(graph, result)
            assert hops == path.links()[: len(hops)]
            assert result.lost or len(hops) == 2
            # The loss model is consulted per hop exactly as the per-hop
            # snapshot walk consults it, so the same seed loses the same hop.
            records = reference_execute_path(graph, path, LossModel(seed=seed))
            assert hops == [(r.src_id, r.dst_id) for r in records]
            assert result.lost == records[-1].has_lost
            outcomes.add((len(hops), result.lost))
        assert outcomes == {(1, True), (2, True), (2, False)}
