"""Modified SARSA path learner.

The learner differs from textbook SARSA in three ways:

1. Aggregated action selection: a whole episode's loop-free action sequence
   (the temp path) is chosen before anything executes. On a simple path,
   updating Q-values afterwards in action order is exactly equivalent to
   updating after every step, because no later update can touch an earlier
   pair's q_next read.
2. Dual tables: action selection uses a per-demand local table (user
   weights); a persistent global table is updated alongside with framework
   default weights and can seed future local tables.
3. Failure penalties accumulate: the last action of an episode that failed
   (packet lost, or never reached the destination) gets its raw penalty
   ADDED to the entry instead of a SARSA update, so repeated failures sink
   an action monotonically.

Successful entries follow the standard update

    Q(s,a) <- (1 - alpha) * Q(s,a) + alpha * (R + gamma * Q(s',a'))

with Q(s',a') read in performed-action order and the terminal successful
action bootstrapping from Hyperparameters.terminal_q (default 0).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Sequence

import numpy as np

from .dataplane import ControlMessages
from .network import NetworkGraph, RoutePath, TrafficDemand
from .rewards import (
    DEFAULT_WEIGHTS,
    QoSWeights,
    RewardRecord,
    global_rewards_for_path,
    local_rewards_for_path,
)


class AbsentLinkError(KeyError):
    """Raised on any read or write of a Q-table cell with no underlying link."""


class UnroutableDemandError(ValueError):
    """Raised when a demand's source node has no outgoing links at all."""


@dataclass(frozen=True)
class Hyperparameters:
    """Learning controls. Defaults are the framework's standard setting.

    terminal_q is the bootstrap value used in place of Q(s',a') when updating
    the last successfully performed action of an episode.
    """

    epsilon: float = 0.0
    alpha: float = 0.9
    gamma: float = 0.9
    ttl: int = 32
    episodes: int = 75
    terminal_q: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        if self.ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {self.ttl}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")


DEFAULT_HYPERPARAMETERS = Hyperparameters()


class QTable:
    """Dense N x N table of Q-values indexed [state node][next-hop node].

    Cells without an underlying link hold NaN, the absent marker, which is
    never read, written, or compared by learning code. set() refuses
    non-finite values, so NaN can mean nothing else, and the guarded
    accessors keep it out of all arithmetic.
    """

    def __init__(self, values: np.ndarray):
        self.values = values

    @classmethod
    def for_graph(cls, graph: NetworkGraph, fill: float = 0.0) -> "QTable":
        n = graph.num_nodes
        values = np.full((n, n), np.nan)
        for link in graph.iter_links():
            values[link.src, link.dst] = fill
        return cls(values)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def has_entry(self, state: int, action: int) -> bool:
        return not math.isnan(self.values[state, action])

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

    def copy(self) -> "QTable":
        return QTable(self.values.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return np.array_equal(self.values, other.values, equal_nan=True)

    def __repr__(self) -> str:
        return f"QTable(size={self.size}, entries={int(np.count_nonzero(~np.isnan(self.values)))})"


@dataclass(frozen=True)
class EpisodeTrace(ControlMessages):
    """One learning episode's evidence: the temp path and how many of its
    hops the data plane attempted, which set the controller message counts."""

    episode_index: int
    temp_path: RoutePath
    attempted_hops: int
    episodes_run: ClassVar[int] = 1


@dataclass
class RouteResult:
    """Outcome of one learning run: the greedy final path plus all traces."""

    final_path: RoutePath
    traces: list[EpisodeTrace]


def init_local_table(
    graph: NetworkGraph,
    global_table: Optional[QTable] = None,
    use_global: bool = False,
) -> QTable:
    """Fresh local table: a deep copy of the global table when use_global,
    otherwise 0 for every existing link and the absent marker elsewhere."""
    if use_global:
        if global_table is None:
            raise ValueError("use_global requires a global table")
        if global_table.size != graph.num_nodes:
            raise ValueError(
                f"global table size {global_table.size} does not match "
                f"graph with {graph.num_nodes} nodes"
            )
        return global_table.copy()
    return QTable.for_graph(graph)


def find_temp_path(
    demand: TrafficDemand,
    table: QTable,
    hyper: Hyperparameters,
    graph: NetworkGraph,
    rng: Optional[random.Random] = None,
) -> RoutePath:
    """Select one episode's loop-free action sequence.

    Starting at the demand source (which is marked visited immediately, so a
    path can never return to it), each step picks among the current node's
    unvisited out-neighbors: a uniform random one with probability epsilon,
    otherwise the one with the highest Q-value, ties to the lowest node id.
    Stops on reaching the destination, on a dead end, or after ttl hops.
    A source with no out-neighbors yields a zero-hop, not-reached path.
    """
    if hyper.epsilon > 0 and rng is None:
        raise ValueError("epsilon > 0 requires a random source")
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


def find_final_path(
    demand: TrafficDemand,
    table: QTable,
    hyper: Hyperparameters,
    graph: NetworkGraph,
) -> RoutePath:
    """Greedy path extraction: find_temp_path with epsilon forced to 0,
    deterministic under the lowest-id tie-break."""
    greedy = replace(hyper, epsilon=0.0)
    return find_temp_path(demand, table, greedy, graph)


def sarsa_update(q_sa: float, reward: float, q_next: float, alpha: float, gamma: float) -> float:
    """One-step update: (1 - alpha) * q_sa + alpha * (reward + gamma * q_next)."""
    return (1.0 - alpha) * q_sa + alpha * (reward + gamma * q_next)


def update_table(table: QTable, rewards: Sequence[RewardRecord], hyper: Hyperparameters) -> QTable:
    """Apply one episode's rewards to a table, in performed-action order.

    Entries up to the second-to-last get the standard update, each reading
    the CURRENT stored value of the next pair as q_next; processing in order
    over a simple path means that read always sees the pre-episode value.
    The last entry either bootstraps from hyper.terminal_q (success) or has
    its penalty value added outright (failure), so failures accumulate.
    """
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


def find_route(
    demand: TrafficDemand,
    env,
    global_table: QTable,
    weights: Optional[QoSWeights] = None,
    hyper: Optional[Hyperparameters] = None,
    use_global: bool = False,
    rng: Optional[random.Random] = None,
    global_hyper: Optional[Hyperparameters] = None,
) -> RouteResult:
    """Learn a path for one demand over env's graph.

    Runs hyper.episodes episodes of: select temp path -> execute on the data
    plane -> score local rewards (caller weights) and global rewards
    (framework default weights) -> update both tables. The local table starts
    fresh or as a deep copy of global_table (use_global); global_table is
    mutated in place throughout and is the knowledge reused by later runs.
    Global updates use the framework default hyperparameters unless
    global_hyper overrides them; per-demand customization (weights, hyper)
    touches only the local table. Returns the greedy final path plus
    per-episode traces.
    """
    graph = env.graph
    if not (graph.has_node(demand.src) and graph.has_node(demand.dst)):
        raise ValueError(f"demand {demand.src}->{demand.dst} references unknown nodes")
    if not graph.out_neighbors(demand.src):
        raise UnroutableDemandError(f"node {demand.src} has no outgoing links")
    weights = DEFAULT_WEIGHTS if weights is None else weights
    hyper = DEFAULT_HYPERPARAMETERS if hyper is None else hyper
    global_hyper = DEFAULT_HYPERPARAMETERS if global_hyper is None else global_hyper

    local_table = init_local_table(graph, global_table, use_global)
    traces: list[EpisodeTrace] = []
    for episode in range(1, hyper.episodes + 1):
        temp_path = find_temp_path(demand, local_table, hyper, graph, rng)
        result = env.execute(temp_path, demand)
        local_rewards = local_rewards_for_path(result.records, weights, demand)
        global_rewards = global_rewards_for_path(result.records, DEFAULT_WEIGHTS)
        update_table(local_table, local_rewards, hyper)
        update_table(global_table, global_rewards, global_hyper)
        traces.append(EpisodeTrace(episode, temp_path, len(result.records)))
    final_path = find_final_path(demand, local_table, hyper, graph)
    return RouteResult(final_path=final_path, traces=traces)


def detect_convergence(traces: Sequence[EpisodeTrace]) -> Optional[int]:
    """First episode index from which every temp path is identical and
    destination-reaching through the end of the run.

    None when there is no such suffix: the last episode did not reach, or
    the only stable "suffix" is the final episode by itself. A lone final
    episode shows no repetition, so it only counts when it IS the whole run.
    """
    if not traces:
        return None
    last = traces[-1].temp_path
    if not last.reached_destination:
        return None
    start_pos = len(traces) - 1
    for pos in range(len(traces) - 2, -1, -1):
        if traces[pos].temp_path != last:
            break
        start_pos = pos
    if len(traces) - start_pos < 2 and start_pos != 0:
        return None
    return traces[start_pos].episode_index
