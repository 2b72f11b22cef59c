"""Reference implementations the fast paths in rlroute are tested against.

These are the straightforward per-hop forms of the learner's hot path: a QoS
snapshot record per attempted hop, composite rewards computed from each
record, a dense N x N Q-table with NaN marking cells that have no link, and
selection and updates through guarded per-cell reads. rlroute instead
keeps each link's reward terms with its graph, rescoring after a placement
only the links it changed (rewards.KeptScores, read per demand as a
LinkScores), aligns an episode's rewards with its link ids (rewards.EpisodeRewards) and
keeps Q-values in a list indexed by link id; tests require its results to
equal these exactly, not approximately. sarsa_update is the one-step
update engine.update_table computes inline. RewardRecord is the (src, dst)
view of one action's reward, and records_of / rewards_of convert between it
and EpisodeRewards; node_pairs and route_of give a path's node form;
graph_to_dict writes the topology document graph_from_dict reads, and
graph_from_dict and demands_from_list are the loaders' field-by-field form.
find_route_every_episode is engine.find_route's loop without its settle
rule or its serving: every episode of the budget runs and walks, and each
demand's terms are evaluated in full. q_get, q_set and link_of read and
write a table cell or a link by its node pair, which the learner never does:
it works in link ids throughout.
report_json and csv_text are the report files as json and csv.writer write
them, from to_dict and from the rows each CSV holds (link_rows,
length_rows, convergence_rows); the harness formats most of their cells
itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from rlroute import dataplane, engine, rewards
from rlroute.engine import DEFAULT_HYPERPARAMETERS, EpisodeTrace, QTable, RouteResult
from rlroute.network import (
    LinkIndex,
    LinkState,
    NetworkGraph,
    RoutePath,
    TopologyError,
    TrafficDemand,
    _check_link,
    _check_rate,
    build_graph,
)
from rlroute.rewards import (
    DEFAULT_WEIGHTS,
    MBPS,
    EpisodeRewards,
    QoSWeights,
    reward_hop,
    reward_intensity,
    reward_transmission,
    reward_utilization,
)

_FLOAT_MAX = sys.float_info.max


class AbsentLinkError(KeyError):
    """Raised on any read or write of a Q-table cell with no underlying link."""


def pair_link_id(index: LinkIndex, src: int, dst: int) -> int:
    """The id of link (src, dst) in index; AbsentLinkError if there is none."""
    k = index.link_id(src, dst)
    if k is None:
        raise AbsentLinkError(f"no link ({src},{dst}); Q-value is absent")
    return k


def q_link_id(table: QTable, state: int, action: int) -> int:
    """The id of link (state, action) in table's index."""
    return pair_link_id(table.index, state, action)


def q_get(table: QTable, state: int, action: int) -> float:
    return table.q[q_link_id(table, state, action)]


def q_set(table: QTable, state: int, action: int, value: float) -> None:
    """Write one cell through QTable.store, which refuses non-finite values."""
    table.store(q_link_id(table, state, action), value)


def link_of(graph: NetworkGraph, src: int, dst: int) -> LinkState:
    """The LinkState record of the graph's link (src, dst), read from its
    columns now; a ValueError if there is none."""
    k = graph.link_ids((src, dst))[0]
    return list(graph.iter_links())[k]


def sarsa_update(q_sa: float, reward: float, q_next: float, alpha: float, gamma: float) -> float:
    """One-step update: (1 - alpha) * q_sa + alpha * (reward + gamma * q_next)."""
    return (1.0 - alpha) * q_sa + alpha * (reward + gamma * q_next)


def graph_to_dict(graph: NetworkGraph) -> dict:
    """The topology document of graph; graph_from_dict reads it back."""
    return {
        "nodes": [
            {"id": node_id, "processing_rate_bps": rate}
            for node_id, rate in enumerate(graph.rates)
        ],
        "links": [
            {
                "src": l.src,
                "dst": l.dst,
                "max_bandwidth_bps": l.max_bandwidth,
                "used_bandwidth_bps": l.used_bandwidth,
                "reliability": l.reliability,
            }
            for l in graph.iter_links()
        ],
    }


# The topology and demand loaders as they were before they gained their
# inline test: every field of every entry goes through _want_number or
# _want_int. rlroute's loaders must accept, build and refuse exactly what
# these do, with the same messages.

def _want_number(obj: dict, where: str, key: str, *, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise TopologyError(f"{where}.{key}: required field missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"{where}.{key}: expected a number, got {value!r}")
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


def graph_from_dict(document: dict) -> NetworkGraph:
    """Parse and validate one topology document, field by field."""
    if not isinstance(document, dict):
        raise TopologyError("topology document must be a JSON object")
    for section in ("nodes", "links"):
        if section not in document or not isinstance(document[section], list):
            raise TopologyError(f"{section}: required list missing")

    n = len(document["nodes"])
    rates = {}
    for i, entry in enumerate(document["nodes"]):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise TopologyError(f"{where}: expected an object")
        node_id = _want_int(entry, where, "id")
        rate = float(_want_number(entry, where, "processing_rate_bps"))
        if node_id not in range(n) or node_id in rates:
            raise TopologyError(
                f"{where}: node ids must be dense 0..{n - 1}, each once, got {node_id}"
            )
        try:
            _check_rate(node_id, rate)
        except TopologyError as exc:
            raise TopologyError(f"{where}: {exc}") from None
        rates[node_id] = rate

    links = []
    for i, entry in enumerate(document["links"]):
        where = f"links[{i}]"
        if not isinstance(entry, dict):
            raise TopologyError(f"{where}: expected an object")
        src = _want_int(entry, where, "src")
        dst = _want_int(entry, where, "dst")
        max_bw = _want_number(entry, where, "max_bandwidth_bps")
        used = _want_number(entry, where, "used_bandwidth_bps", default=0.0)
        rel = _want_number(entry, where, "reliability", default=1.0)
        link = (src, dst, float(max_bw), float(used), float(rel))
        try:
            _check_link(*link)
        except TopologyError as exc:
            raise TopologyError(f"{where}: {exc}") from None
        links.append(link)

    return build_graph([rates[node_id] for node_id in range(n)], links)


def demands_from_list(document, source: str) -> list[TrafficDemand]:
    """Parse and validate one demand list, field by field."""
    if not isinstance(document, list):
        raise TopologyError(f"demand file {source} must hold a JSON list")
    demands = []
    for i, item in enumerate(document):
        where = f"{source}[{i}]"
        if not isinstance(item, dict):
            raise TopologyError(f"{where}: expected an object")
        src = _want_int(item, where, "src")
        dst = _want_int(item, where, "dst")
        traffic = _want_number(item, where, "traffic_bps")
        try:
            demands.append(TrafficDemand(src=src, dst=dst, traffic=float(traffic)))
        except ValueError as exc:
            raise TopologyError(f"{where}: {exc}") from None
    return demands


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
        tuple(pair_link_id(index, r.src_id, r.dst_id) for r in records),
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
    link = link_of(graph, src, dst)
    return HopQoSRecord(
        hop_index=hop_index,
        src_id=src,
        dst_id=dst,
        sender_processing_rate=graph.rates[src],
        receiver_processing_rate=graph.rates[dst],
        receiver_incoming_traffic=incoming_traffic(graph, dst),
        link_max_bandwidth=link.max_bandwidth,
        link_used_bandwidth=link.used_bandwidth,
        link_reliability=link.reliability,
    )


def node_pairs(path) -> list[tuple[int, int]]:
    """The (src, dst) pairs of consecutive nodes of a path: a RoutePath, or
    anything else with nodes, such as the learner's TempPath."""
    return list(zip(path.nodes[:-1], path.nodes[1:]))


def route_of(path) -> RoutePath:
    """A path with nodes and a reached flag as a validated RoutePath, which
    compares equal to the RoutePath the reference forms return."""
    return RoutePath(path.nodes, path.reached_destination)


def execute_path(graph: NetworkGraph, path, loss=None) -> tuple[HopQoSRecord, ...]:
    """Snapshot each hop of path, read as its node pairs, as it is reached.
    With a loss stream each hop draws loss.random() once and is lost when
    the draw is at least its link's reliability: stop after that hop,
    flagging its record."""
    records: list[HopQoSRecord] = []
    for hop_index, (src, dst) in enumerate(node_pairs(path), start=1):
        record = snapshot_qos(graph, src, dst, hop_index)
        if loss is not None and loss.random() >= record.link_reliability:
            records.append(replace(record, has_lost=True))
            break
        records.append(record)
    return tuple(records)


def local_reward(record: HopQoSRecord, weights: QoSWeights, demand_traffic: float) -> float:
    """Composite local reward of one successfully performed hop."""
    return (
        weights.hop_count * reward_hop(record.hop_index)
        + weights.transmission * reward_transmission(record.sender_processing_rate / MBPS)
        + weights.reliability * record.link_reliability
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
        weights.reliability * record.link_reliability
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
            values[link.src, link.dst] = q_get(table, link.src, link.dst)
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


def find_route_every_episode(
    demand: TrafficDemand,
    graph: NetworkGraph,
    global_table,
    weights=None,
    hyper=None,
    rng=None,
    global_gamma=None,
    loss=None,
) -> RouteResult:
    """engine.find_route as a loop that runs every episode of the budget:
    walk, execute, score and update, with no episode skipped or served, and
    a final walk. Every demand's terms are evaluated in full, not read from
    the scores the graph keeps."""
    weights = DEFAULT_WEIGHTS if weights is None else weights
    hyper = DEFAULT_HYPERPARAMETERS if hyper is None else hyper
    global_hyper = DEFAULT_HYPERPARAMETERS
    if global_gamma is not None:
        global_hyper = replace(DEFAULT_HYPERPARAMETERS, gamma=global_gamma)
    local_table = engine.init_local_table(graph, global_table)
    # The engine's scoring, not this module's per-hop forms of the same names.
    scores = rewards.KeptScores(graph).link_scores(weights, demand)
    traces = []
    for episode in range(1, hyper.episodes + 1):
        temp_path = engine.find_temp_path(demand, local_table, hyper, rng)
        result = dataplane.execute_path(graph, temp_path.links, loss)
        engine.update_table(local_table, engine.local_rewards_for_path(result, scores), hyper)
        if global_table is not None:
            engine.update_table(
                global_table, engine.global_rewards_for_path(result, scores), global_hyper
            )
        traces.append(EpisodeTrace(episode, temp_path, len(result.records)))
    final_path = engine.find_final_path(demand, local_table, hyper)
    return RouteResult(final_path=final_path, traces=traces)


def report_json(report) -> str:
    """A report's report.json: its to_dict as json writes it, plus a newline."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def csv_text(header: Sequence, rows) -> str:
    """header and rows as csv.writer writes them."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def link_rows(graph: NetworkGraph) -> list[list]:
    """links.csv's rows: src, dst, max_bandwidth_bps, used_bandwidth_bps,
    utilization."""
    return [
        [l.src, l.dst, l.max_bandwidth, l.used_bandwidth, l.utilization]
        for l in graph.iter_links()
    ]


def _demand_cells(outcome) -> list:
    return [outcome.demand_index, outcome.demand.src, outcome.demand.dst]


def length_rows(report) -> list[list]:
    """temp_path_lengths.csv's rows: the demand's index, src and dst, then
    the episode and its temp path length."""
    return [
        _demand_cells(o) + [episode, length]
        for o in report.outcomes
        for episode, length in enumerate(o.temp_path_lengths, start=1)
    ]


def convergence_rows(report) -> list[list]:
    """A run's convergence.csv rows: the demand's index, src and dst, its
    converged episode (blank when it never settled) and episodes run."""
    return [
        _demand_cells(o)
        + ["" if o.converged_episode is None else o.converged_episode, o.episodes_run]
        for o in report.outcomes
    ]


def gamma_convergence_rows(study) -> list[list]:
    """A gamma study's convergence.csv rows: per demand its index, src and
    dst, then each group's converged episode (blank when it never settled);
    then a total row of each group's convergence episodes."""
    reports = study.group_reports()
    rows = [
        _demand_cells(outcome)
        + ["" if (e := r.outcomes[i].converged_episode) is None else e for r in reports]
        for i, outcome in enumerate(study.control.outcomes)
    ]
    return rows + [["total", "", ""] + [r.total_convergence_episodes for r in reports]]
