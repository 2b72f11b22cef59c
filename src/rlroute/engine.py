"""Modified SARSA path learner.

The learner differs from textbook SARSA in three ways:

1. Aggregated action selection: a whole episode's loop-free action sequence
   (the temp path) is chosen before anything executes. On a simple path,
   updating Q-values afterwards in action order is exactly equivalent to
   updating after every step, because no later update can touch an earlier
   pair's q_next read.
2. Dual tables: action selection uses a per-demand local table (user
   weights); a persistent global table, where the caller keeps one, seeds
   each demand's local table and is updated alongside with framework
   default weights.
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

import random
from dataclasses import dataclass, replace
from math import isfinite
from numbers import Integral
from typing import ClassVar, Optional, Sequence

from . import dataplane
from .network import LinkIndex, NetworkGraph, RoutePath, TrafficDemand
from .rewards import (
    DEFAULT_WEIGHTS,
    EpisodeRewards,
    QoSWeights,
    global_rewards_for_path,
    link_scores,
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
        for name in ("ttl", "episodes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isfinite(self.terminal_q):
            raise ValueError(f"terminal_q must be finite, got {self.terminal_q}")


DEFAULT_HYPERPARAMETERS = Hyperparameters()


class QTable:
    """Q-values of one graph's links: q[k] belongs to link k of index, the
    state being the link's source node and the action its target.

    Only links have cells, so a (state, action) pair without a link is
    absent: the accessors raise AbsentLinkError for it. set() refuses
    non-finite values.
    """

    def __init__(self, index: LinkIndex, q: list[float]):
        self.index = index
        self.q = q

    @classmethod
    def for_graph(cls, graph: NetworkGraph) -> "QTable":
        """A table holding 0 for every link of graph."""
        index = graph.link_index()
        return cls(index, [0.0] * len(index.targets))

    def link_id(self, state: int, action: int) -> int:
        try:
            return self.index.ids[(state, action)]
        except KeyError:
            raise AbsentLinkError(f"no link ({state},{action}); Q-value is absent") from None

    def get(self, state: int, action: int) -> float:
        return self.q[self.link_id(state, action)]

    def set(self, state: int, action: int, value: float) -> None:
        self.store(self.link_id(state, action), value)

    def store(self, k: int, value: float) -> None:
        """Write the Q-value of link id k, refusing non-finite values."""
        if not isfinite(value):
            state, action = self.index.sources[k], self.index.targets[k]
            raise ValueError(f"Q-value for ({state},{action}) must be finite, got {value}")
        self.q[k] = value

    def copy(self) -> "QTable":
        return QTable(self.index, self.q.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return self.index == other.index and self.q == other.q

    def __repr__(self) -> str:
        return f"QTable(nodes={len(self.index.offsets) - 1}, entries={len(self.q)})"


@dataclass(frozen=True)
class EpisodeTrace(dataplane.ControlMessages):
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


def init_local_table(graph: NetworkGraph, global_table: Optional[QTable] = None) -> QTable:
    """Fresh local table: a deep copy of global_table when one is given,
    otherwise 0 for every link of the graph. This is where a caller's table
    meets the graph, so a global table numbering other links is refused."""
    if global_table is None:
        return QTable.for_graph(graph)
    index = graph.link_index()
    if global_table.index is not index and global_table.index != index:
        raise ValueError(f"Q-table does not match the links of {graph!r}")
    return global_table.copy()


def find_temp_path(
    demand: TrafficDemand,
    table: QTable,
    hyper: Hyperparameters,
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
    epsilon, destination = hyper.epsilon, demand.dst
    explore = epsilon > 0
    if explore and rng is None:
        raise ValueError("epsilon > 0 requires a random source")
    index = table.index
    offsets, targets, q = index.offsets, index.targets, table.q
    visited = {demand.src}
    nodes = [demand.src]
    current = demand.src
    for _ in range(hyper.ttl):
        # Link ids leaving current, in ascending target order.
        out = range(offsets[current], offsets[current + 1])
        chosen = -1
        if explore:
            out = [k for k in out if targets[k] not in visited]
            if out and rng.random() < epsilon:
                chosen = out[rng.randrange(len(out))]
        if chosen < 0:
            # Greedy: strict > keeps the first of equal values, so ties go
            # to the lowest id.
            for k in out:
                if targets[k] not in visited and (chosen < 0 or q[k] > best):
                    chosen, best = k, q[k]
            if chosen < 0:
                break
        current = targets[chosen]
        nodes.append(current)
        visited.add(current)
        if current == destination:
            break
    return RoutePath(tuple(nodes), current == destination)


def find_final_path(
    demand: TrafficDemand,
    table: QTable,
    hyper: Hyperparameters,
) -> RoutePath:
    """Greedy path extraction: find_temp_path with epsilon forced to 0,
    deterministic under the lowest-id tie-break."""
    greedy = replace(hyper, epsilon=0.0)
    return find_temp_path(demand, table, greedy)


def sarsa_update(q_sa: float, reward: float, q_next: float, alpha: float, gamma: float) -> float:
    """One-step update: (1 - alpha) * q_sa + alpha * (reward + gamma * q_next)."""
    return (1.0 - alpha) * q_sa + alpha * (reward + gamma * q_next)


def update_table(table: QTable, rewards: EpisodeRewards, hyper: Hyperparameters) -> QTable:
    """Apply one episode's rewards to a table, in performed-action order.

    rewards.values[i] updates q[rewards.links[i]]. Entries up to the
    second-to-last get the standard update, each reading the CURRENT stored
    value of the next link as q_next; processing in order over a simple path
    means that read always sees the pre-episode value. The last entry either
    bootstraps from hyper.terminal_q (success) or has its penalty value added
    outright (failure), so failures accumulate.
    """
    if not rewards:
        raise ValueError("cannot update a table with an empty reward list")
    q, links, values = table.q, rewards.links, rewards.values
    alpha, gamma = hyper.alpha, hyper.gamma
    for k, k_next, reward in zip(links, links[1:], values):
        value = sarsa_update(q[k], reward, q[k_next], alpha, gamma)
        if not isfinite(value):
            table.store(k, value)  # raises, naming the pair
        q[k] = value
    k, last = links[-1], values[-1]
    if rewards.last_ok:
        table.store(k, sarsa_update(q[k], last, hyper.terminal_q, alpha, gamma))
    else:
        table.store(k, q[k] + last)
    return table


def find_route(
    demand: TrafficDemand,
    graph: NetworkGraph,
    global_table: Optional[QTable],
    weights: Optional[QoSWeights] = None,
    hyper: Optional[Hyperparameters] = None,
    rng: Optional[random.Random] = None,
    global_hyper: Optional[Hyperparameters] = None,
    loss: Optional[dataplane.LossModel] = None,
) -> RouteResult:
    """Learn a path for one demand over graph.

    Runs hyper.episodes episodes of: select temp path -> execute on the data
    plane -> score local rewards (caller weights) -> update the local table.
    A given global_table is the knowledge reused across demands: the local
    table starts as a deep copy of it, and each episode also scores global
    rewards (framework default weights) right after the local ones and
    updates global_table in place after the local table. With None the local
    table starts at 0 and nothing global is scored or kept. Global updates
    use the framework default hyperparameters unless global_hyper overrides
    them; per-demand customization (weights, hyper) touches only the local
    table. Packets are lost only to a given loss model. Returns the greedy
    final path plus per-episode traces.
    """
    if not (graph.has_node(demand.src) and graph.has_node(demand.dst)):
        raise ValueError(f"demand {demand.src}->{demand.dst} references unknown nodes")
    if not graph.out_neighbors(demand.src):
        raise UnroutableDemandError(f"node {demand.src} has no outgoing links")
    weights = DEFAULT_WEIGHTS if weights is None else weights
    hyper = DEFAULT_HYPERPARAMETERS if hyper is None else hyper
    global_hyper = DEFAULT_HYPERPARAMETERS if global_hyper is None else global_hyper

    local_table = init_local_table(graph, global_table)
    # Executing paths never changes the graph, so one demand's reward terms
    # are fixed for all of its episodes.
    scores = link_scores(graph, weights, demand)
    traces: list[EpisodeTrace] = []
    for episode in range(1, hyper.episodes + 1):
        temp_path = find_temp_path(demand, local_table, hyper, rng)
        # Looked up on the module at call time, so wrapping it there sees every call.
        result = dataplane.execute_path(graph, temp_path, loss)
        local_rewards = local_rewards_for_path(result, scores)
        if global_table is None:
            update_table(local_table, local_rewards, hyper)
        else:
            global_rewards = global_rewards_for_path(result, scores)
            update_table(local_table, local_rewards, hyper)
            update_table(global_table, global_rewards, global_hyper)
        traces.append(EpisodeTrace(episode, temp_path, len(result.records)))
    final_path = find_final_path(demand, local_table, hyper)
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
