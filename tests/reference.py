"""Reference implementations the fast paths in rlroute are tested against.

These are the straightforward per-hop forms of the learner's hot path: a QoS
snapshot record per attempted hop, composite rewards computed from each
record, a dense N x N Q-table with NaN marking cells that have no link, and
selection and updates through guarded per-cell reads. rlroute instead
evaluates reward terms once per demand over all links (rewards.LinkScores),
aligns an episode's rewards with its link ids (rewards.EpisodeRewards) and
keeps Q-values in a list indexed by link id; tests require its results to
equal these exactly, not approximately. RewardRecord is the (src, dst) view
of one action's reward, and records_of / rewards_of convert between it and
EpisodeRewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from rlroute.engine import AbsentLinkError, sarsa_update
from rlroute.network import LinkIndex, NetworkGraph, RoutePath, TrafficDemand
from rlroute.rewards import (
    MBPS,
    EpisodeRewards,
    QoSWeights,
    reward_hop,
    reward_intensity,
    reward_reliability,
    reward_transmission,
    reward_utilization,
)


class RewardRecord(NamedTuple):
    """One action's reward: the (state, action) node pair, whether the action
    counts as successfully performed, and the reward value."""

    src_id: int
    dst_id: int
    action_success: bool
    value: float


def records_of(index: LinkIndex, rewards: EpisodeRewards) -> list[RewardRecord]:
    """The per-action records of an EpisodeRewards: each link id becomes its
    node pair, and only the last action may be failed."""
    last = len(rewards) - 1
    return [
        RewardRecord(index.sources[k], index.targets[k], i < last or rewards.last_ok, value)
        for i, (k, value) in enumerate(zip(rewards.links, rewards.values))
    ]


def rewards_of(index: LinkIndex, records: Sequence[RewardRecord]) -> EpisodeRewards:
    """The EpisodeRewards of a record list whose pairs are links of index
    and whose actions all succeed but possibly the last."""
    if any(not r.action_success for r in records[:-1]):
        raise ValueError("only the last action of an episode may be failed")
    return EpisodeRewards(
        tuple(index.ids[(r.src_id, r.dst_id)] for r in records),
        tuple(r.value for r in records),
        records[-1].action_success,
    )


@dataclass(frozen=True)
class HopQoSRecord:
    """Per-hop observation for action src->dst.

    hop_index is the 1-based position of the hop in the performed sequence.
    Rates are bits/s. has_lost marks the hop where the packet was lost; only
    the last record of an execution may carry it.
    """

    hop_index: int
    src_id: int
    dst_id: int
    sender_processing_rate: float
    receiver_processing_rate: float
    receiver_incoming_traffic: float
    link_max_bandwidth: float
    link_used_bandwidth: float
    link_reliability: float
    has_lost: bool = False

    def __post_init__(self) -> None:
        if self.hop_index < 1:
            raise ValueError(f"hop_index must be >= 1, got {self.hop_index}")
        for name in (
            "sender_processing_rate",
            "receiver_processing_rate",
            "receiver_incoming_traffic",
            "link_max_bandwidth",
            "link_used_bandwidth",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.link_reliability <= 1.0:
            raise ValueError(f"link_reliability {self.link_reliability} outside [0, 1]")


def incoming_traffic(graph: NetworkGraph, node_id: int) -> float:
    """The sum of node_id's inbound links' used bandwidth, in link-id order."""
    total = 0.0
    for link in graph.iter_links():
        if link.dst == node_id:
            total += link.used_bandwidth
    return total


def snapshot_qos(graph: NetworkGraph, src: int, dst: int, hop_index: int) -> HopQoSRecord:
    """Read one hop's QoS state without touching it."""
    link = graph.link(src, dst)
    sender = graph.node(src)
    receiver = graph.node(dst)
    return HopQoSRecord(
        hop_index=hop_index,
        src_id=src,
        dst_id=dst,
        sender_processing_rate=sender.processing_rate,
        receiver_processing_rate=receiver.processing_rate,
        receiver_incoming_traffic=incoming_traffic(graph, dst),
        link_max_bandwidth=link.max_bandwidth,
        link_used_bandwidth=link.used_bandwidth,
        link_reliability=link.reliability,
    )


def execute_path(graph: NetworkGraph, path: RoutePath, loss=None) -> tuple[HopQoSRecord, ...]:
    """Snapshot each hop as it is reached; stop after the hop the loss model
    drops, flagging its record."""
    records: list[HopQoSRecord] = []
    for hop_index, (src, dst) in enumerate(path.links(), start=1):
        record = snapshot_qos(graph, src, dst, hop_index)
        if loss is not None and loss.packet_lost(record.link_reliability):
            records.append(replace(record, has_lost=True))
            break
        records.append(record)
    return tuple(records)


def local_reward(record: HopQoSRecord, weights: QoSWeights, demand_traffic: float) -> float:
    """Composite local reward of one successfully performed hop."""
    return (
        weights.hop_count * reward_hop(record.hop_index)
        + weights.transmission * reward_transmission(record.sender_processing_rate / MBPS)
        + weights.reliability * reward_reliability(record.link_reliability)
        + weights.intensity
        * reward_intensity(
            record.receiver_incoming_traffic, record.receiver_processing_rate, demand_traffic
        )
        + weights.utilization
        * reward_utilization(record.link_used_bandwidth, record.link_max_bandwidth, demand_traffic)
        - weights.local_constant
    )


def global_reward(record: HopQoSRecord, weights: QoSWeights) -> float:
    """Composite global reward of one hop: network status only."""
    return (
        weights.reliability * reward_reliability(record.link_reliability)
        + weights.intensity
        * reward_intensity(record.receiver_incoming_traffic, record.receiver_processing_rate)
        + weights.utilization
        * reward_utilization(record.link_used_bandwidth, record.link_max_bandwidth)
        - weights.global_constant
    )


def _check_records(records: Sequence[HopQoSRecord]) -> None:
    if not records:
        raise ValueError("cannot compute rewards for an empty record list")
    for record in records[:-1]:
        if record.has_lost:
            raise ValueError("only the last record of an execution may carry has_lost")


def local_rewards_for_path(
    records: Sequence[HopQoSRecord], weights: QoSWeights, demand: TrafficDemand
) -> list[RewardRecord]:
    """Local rewards in hop order; the last hop fails on loss or when its
    receiver is not the destination, valued at -local_constant."""
    _check_records(records)
    rewards = [
        RewardRecord(r.src_id, r.dst_id, True, local_reward(r, weights, demand.traffic))
        for r in records[:-1]
    ]
    last = records[-1]
    if last.has_lost or last.dst_id != demand.dst:
        rewards.append(RewardRecord(last.src_id, last.dst_id, False, -weights.local_constant))
    else:
        rewards.append(
            RewardRecord(last.src_id, last.dst_id, True, local_reward(last, weights, demand.traffic))
        )
    return rewards


def global_rewards_for_path(
    records: Sequence[HopQoSRecord], weights: QoSWeights
) -> list[RewardRecord]:
    """Global rewards in hop order; the last hop fails only on loss, valued
    at -global_constant."""
    _check_records(records)
    rewards = [
        RewardRecord(r.src_id, r.dst_id, True, global_reward(r, weights))
        for r in records[:-1]
    ]
    last = records[-1]
    if last.has_lost:
        rewards.append(RewardRecord(last.src_id, last.dst_id, False, -weights.global_constant))
    else:
        rewards.append(RewardRecord(last.src_id, last.dst_id, True, global_reward(last, weights)))
    return rewards


class DenseQTable:
    """N x N Q-values indexed [state][action]; NaN marks cells with no link."""

    def __init__(self, values: np.ndarray):
        self.values = values

    @classmethod
    def from_table(cls, graph: NetworkGraph, table) -> "DenseQTable":
        """The dense form of an rlroute QTable over graph."""
        values = np.full((graph.num_nodes, graph.num_nodes), np.nan)
        for link in graph.iter_links():
            values[link.src, link.dst] = table.get(link.src, link.dst)
        return cls(values)

    def get(self, state: int, action: int) -> float:
        value = self.values[state, action]
        if math.isnan(value):
            raise AbsentLinkError(f"no link ({state},{action}); Q-value is absent")
        return float(value)

    def set(self, state: int, action: int, value: float) -> None:
        if math.isnan(self.values[state, action]):
            raise AbsentLinkError(f"no link ({state},{action}); refusing to write")
        if not math.isfinite(value):
            raise ValueError(f"Q-value for ({state},{action}) must be finite, got {value}")
        self.values[state, action] = value

    def add(self, state: int, action: int, delta: float) -> None:
        self.set(state, action, self.get(state, action) + delta)


def find_temp_path(
    demand: TrafficDemand,
    table: DenseQTable,
    hyper,
    graph: NetworkGraph,
    rng=None,
) -> RoutePath:
    """Loop-free selection: a uniform random unvisited out-neighbor with
    probability epsilon, else the highest Q-value, ties to the lowest id."""
    visited = {demand.src}
    nodes = [demand.src]
    current = demand.src
    for _ in range(hyper.ttl):
        candidates = [v for v in graph.out_neighbors(current) if v not in visited]
        if not candidates:
            break
        if hyper.epsilon > 0 and rng.random() < hyper.epsilon:
            nxt = candidates[rng.randrange(len(candidates))]
        else:
            nxt = candidates[0]
            best = table.get(current, nxt)
            for v in candidates[1:]:
                q = table.get(current, v)
                if q > best:
                    best = q
                    nxt = v
        nodes.append(nxt)
        visited.add(nxt)
        current = nxt
        if current == demand.dst:
            break
    return RoutePath(tuple(nodes), current == demand.dst)


def update_table(table: DenseQTable, rewards: Sequence[RewardRecord], hyper) -> DenseQTable:
    """SARSA updates in action order, each reading the current value of the
    next pair; a failed last action has its value added outright."""
    if not rewards:
        raise ValueError("cannot update a table with an empty reward list")
    for i, record in enumerate(rewards[:-1]):
        if not record.action_success:
            raise ValueError("only the last action of an episode may be failed")
        succ = rewards[i + 1]
        q_sa = table.get(record.src_id, record.dst_id)
        q_next = table.get(succ.src_id, succ.dst_id)
        table.set(
            record.src_id,
            record.dst_id,
            sarsa_update(q_sa, record.value, q_next, hyper.alpha, hyper.gamma),
        )
    last = rewards[-1]
    if last.action_success:
        q_sa = table.get(last.src_id, last.dst_id)
        table.set(
            last.src_id,
            last.dst_id,
            sarsa_update(q_sa, last.value, hyper.terminal_q, hyper.alpha, hyper.gamma),
        )
    else:
        table.add(last.src_id, last.dst_id, last.value)
    return table
