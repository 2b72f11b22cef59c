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

An episode's rewards are a function of its execution alone, so an episode
is scored only when its execution differs from the episode before's; an
equal one reuses that episode's rewards. A demand's episodes stop early,
with the same result, once they can only repeat: with no exploration and no
packet loss, an episode whose updates change no Q-value of either table is
what every later episode would be (see find_route).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from math import copysign, inf, isfinite
from typing import NamedTuple, Optional, Sequence

from . import dataplane
from .network import LinkIndex, NetworkGraph, RoutePath, TrafficDemand, check_float
from .rewards import (
    DEFAULT_WEIGHTS,
    EpisodeRewards,
    QoSWeights,
    global_rewards_for_path,
    link_scores,
    local_rewards_for_path,
)


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
        for name in ("epsilon", "alpha", "gamma", "terminal_q"):
            check_float(getattr(self, name), name)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        for name in ("ttl", "episodes"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isfinite(self.terminal_q):
            raise ValueError(f"terminal_q must be finite, got {self.terminal_q}")


DEFAULT_HYPERPARAMETERS = Hyperparameters()


def check_global_gamma(gamma) -> None:
    """ValueError naming global_gamma unless gamma is a Python int or float
    in [0, 1]: find_route's and ExperimentConfig's one check of it."""
    check_float(gamma, "global_gamma")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"global_gamma {gamma} outside [0, 1]")


@lru_cache
def _global_hyperparameters(gamma: float) -> Hyperparameters:
    """The framework defaults with gamma as gamma, built once per gamma."""
    return replace(DEFAULT_HYPERPARAMETERS, gamma=gamma)


class QTable:
    """Q-values of one graph's links: q[k] belongs to link k of index, the
    state being the link's source node and the action its target.

    Only links have cells, so a (state, action) pair without a link has
    none. Every Q-value is a finite Python int or float: the constructor and
    store() refuse any other, and selection relies on it. The constructor
    copies q.
    """

    def __init__(self, index: LinkIndex, q: Sequence[float]):
        q = list(q)
        if len(q) != len(index.targets):
            raise ValueError(f"{len(q)} Q-values for {len(index.targets)} links")
        self.index = index
        self.q = q
        for k, value in enumerate(q):
            self.store(k, value)  # refuses a bad value, naming the link

    @classmethod
    def _of(cls, index: LinkIndex, q: list[float]) -> "QTable":
        """A table over values already known to be finite, unchecked."""
        table = cls.__new__(cls)
        table.index, table.q = index, q
        return table

    @classmethod
    def for_graph(cls, graph: NetworkGraph) -> "QTable":
        """A table holding 0 for every link of graph."""
        index = graph.link_index()
        return cls._of(index, [0.0] * len(index.targets))

    def store(self, k: int, value: float) -> None:
        """Write the Q-value of link id k, refusing a value that is not a
        Python int or float (see check_float) or not finite, naming the link."""
        if type(value) is not float or not isfinite(value):
            name = f"Q-value for ({self.index.sources[k]},{self.index.targets[k]})"
            check_float(value, name)
            try:
                finite = isfinite(value)
            except OverflowError:
                # Not printed: an int of over 4,300 digits cannot be.
                raise ValueError(f"{name} must be finite, got an int beyond every float") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")
        self.q[k] = value

    def copy(self) -> "QTable":
        return QTable._of(self.index, self.q.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return self.index == other.index and self.q == other.q

    def __repr__(self) -> str:
        return f"QTable(nodes={len(self.index.out)}, entries={len(self.q)})"


class TempPath(NamedTuple):
    """One episode's temp path as selection chose it: the source node, the
    ids of the links taken, in order, and whether the last one reaches the
    destination. Selection never revisits a node, so it is simple by
    construction and is not validated again. Two temp paths are equal when
    their source, links and reached flag are; index only names the links.
    """

    source: int
    links: tuple[int, ...]
    reached_destination: bool
    index: LinkIndex

    @property
    def nodes(self) -> tuple[int, ...]:
        """The source, then the target of each link taken."""
        return (self.source, *map(self.index.targets.__getitem__, self.links))

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TempPath):
            return NotImplemented
        return self[:3] == other[:3]

    # tuple defines its own __ne__, which would compare the index too.
    def __ne__(self, other: object) -> bool:
        if not isinstance(other, TempPath):
            return NotImplemented
        return self[:3] != other[:3]

    def __hash__(self) -> int:
        return hash(self[:3])

    def __repr__(self) -> str:
        return (
            f"TempPath(nodes={self.nodes}, links={self.links}, "
            f"reached_destination={self.reached_destination})"
        )


class EpisodeTrace(NamedTuple):
    """One learning episode's evidence: the temp path and how many of its
    hops the data plane attempted, which set the controller message counts."""

    episode_index: int
    temp_path: TempPath
    attempted_hops: int

    @property
    def messages_with_aggregation(self) -> int:
        return dataplane.control_messages(self.attempted_hops, 1)[0]

    @property
    def messages_without_aggregation(self) -> int:
        return dataplane.control_messages(self.attempted_hops, 1)[1]


@dataclass
class RouteResult:
    """Outcome of one learning run: the greedy final path, a validated
    RoutePath, plus one trace per episode, whose temp path is the link ids
    selection chose."""

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
) -> TempPath:
    """Select one episode's loop-free action sequence.

    Starting at the demand source (which is marked visited immediately, so a
    path can never return to it), each step picks among the current node's
    unvisited out-neighbors: a uniform random one with probability epsilon,
    otherwise the one with the highest Q-value, ties to the lowest node id.
    Stops on reaching the destination, on a dead end, or after ttl hops.
    A source with no out-neighbors yields a zero-hop, not-reached path.
    Returns the ids of the links chosen, the index's own ints, as a
    TempPath; execution takes them as they are.

    A greedy step scans the node's out-links in id order, keeping the best
    so far: a link replaces it only if its Q-value is strictly higher, and
    only then is its target looked up in visited, a list of one flag per
    node id made for the call. Every Q-value is finite (QTable holds no
    other), so this keeps the highest-valued unvisited link, the first of
    equal values.
    """
    epsilon, destination = hyper.epsilon, demand.dst
    explore = epsilon > 0
    if explore and rng is None:
        raise ValueError("epsilon > 0 requires a random source")
    index = table.index
    out_links, targets, q = index.out, index.targets, table.q
    source = current = demand.src
    visited = [False] * len(out_links)
    visited[source] = True
    links = []
    for _ in range(hyper.ttl):
        # Link ids leaving current, in ascending target order.
        out = out_links[current]
        chosen = -1
        if explore:
            # A loop, not a comprehension: one would make targets and visited
            # closure cells, read through cells by every greedy scan.
            unvisited = []
            for k in out:
                if not visited[targets[k]]:
                    unvisited.append(k)
            out = unvisited
            if out and rng.random() < epsilon:
                chosen = out[rng.randrange(len(out))]
        if chosen < 0:
            # Greedy: strict > keeps the first of equal values, so ties go
            # to the lowest id; every finite value beats -inf.
            best = -inf
            for k in out:
                if q[k] > best and not visited[targets[k]]:
                    chosen, best = k, q[k]
            if chosen < 0:
                break
        current = targets[chosen]
        links.append(chosen)
        visited[current] = True
        if current == destination:
            break
    # As namedtuple's _make does: the generated __new__ parses arguments first.
    return tuple.__new__(TempPath, (source, tuple(links), current == destination, index))


def _floors(path: TempPath, q: list[float]) -> list[float]:
    """Per hop of path, the best Q-value among the hop node's other links
    into nodes the path has not visited by then (-inf if none). While each
    of path's links stays strictly above its floor (see _above_floors), a
    greedy walk from path's source takes path again."""
    out_links, targets = path.index.out, path.index.targets
    # Hop j's floor: the best of u_j's other links not into u_0..u_j. A
    # comprehension here would make q a closure cell and slow every scan.
    floors, visited = [], [False] * len(out_links)
    for u, chosen in zip(path.nodes, path.links):
        visited[u] = True
        best = -inf
        for k in out_links[u]:
            if k != chosen and q[k] > best and not visited[targets[k]]:
                best = q[k]
        floors.append(best)
    return floors


def _above_floors(links: tuple[int, ...], floors: list[float], q: list[float]) -> bool:
    """Whether every link's Q-value is strictly above its hop's floor: a tie
    is not, so the lowest-id tie-break is always a walk's to decide."""
    for k, floor in zip(links, floors):
        if q[k] <= floor:
            return False
    return True


def find_final_path(demand: TrafficDemand, table: QTable, hyper: Hyperparameters) -> RoutePath:
    """Greedy path extraction: find_temp_path with epsilon forced to 0,
    deterministic under the lowest-id tie-break, as a validated RoutePath."""
    greedy = hyper if hyper.epsilon == 0 else replace(hyper, epsilon=0.0)
    path = find_temp_path(demand, table, greedy)
    return RoutePath(path.nodes, path.reached_destination)


def update_table(table: QTable, rewards: EpisodeRewards, hyper: Hyperparameters) -> bool:
    """Apply one episode's rewards to a table, in performed-action order,
    and report whether any stored Q-value changed in any bit.

    rewards.values[i] updates q[rewards.links[i]]. Entries up to the
    second-to-last get the standard update, each reading the CURRENT stored
    value of the next link as q_next; processing in order over a simple path
    means that read always sees the pre-episode value. The last entry either
    bootstraps from hyper.terminal_q (success) or has its penalty value added
    outright (failure), so failures accumulate.

    Each entry is computed inline, a success as keep * q[k] + alpha * (reward
    + gamma * q_next) with keep = 1 - alpha (the module docstring's operations
    in order, so the same bits) and a failure as q[k] + penalty. table.store
    is called only to refuse a value that is not finite, naming the link.
    A value equal to the old one is a change only when it is a zero of the
    other sign: == does not tell 0.0 from -0.0.
    """
    if not rewards.links:
        raise ValueError("cannot update a table with an empty reward list")
    q, links, values = table.q, rewards.links, rewards.values
    alpha, gamma = hyper.alpha, hyper.gamma
    keep = 1.0 - alpha
    changed = False
    steps = zip(links, links[1:], values)
    # Entries are tested for a change only until one has changed; the
    # second loop takes the rest untested. Testing every entry cost 12% of
    # a 28-entry update (synth-400 updates replayed on CPython 3.11).
    for k, k_next, reward in steps:
        old = q[k]
        value = keep * old + alpha * (reward + gamma * q[k_next])
        if not isfinite(value):
            table.store(k, value)  # raises, naming the pair
        q[k] = value
        if value != old or not value and copysign(1.0, value) != copysign(1.0, old):
            changed = True
            break
    for k, k_next, reward in steps:
        value = keep * q[k] + alpha * (reward + gamma * q[k_next])
        if not isfinite(value):
            table.store(k, value)  # raises, naming the pair
        q[k] = value
    k, last = links[-1], values[-1]
    old = q[k]
    if rewards.last_ok:
        value = keep * old + alpha * (last + gamma * hyper.terminal_q)
    else:
        value = old + last
    if not isfinite(value):
        table.store(k, value)  # raises, naming the pair
    q[k] = value
    return changed or value != old or not value and copysign(1.0, value) != copysign(1.0, old)


def find_route(
    demand: TrafficDemand,
    graph: NetworkGraph,
    global_table: Optional[QTable],
    weights: Optional[QoSWeights] = None,
    hyper: Optional[Hyperparameters] = None,
    rng: Optional[random.Random] = None,
    global_gamma: Optional[float] = None,
    loss: Optional[random.Random] = None,
) -> RouteResult:
    """Learn a path for one demand over graph.

    Runs hyper.episodes episodes of: select temp path -> execute on the data
    plane -> score local rewards (caller weights) -> update the local table.
    A given global_table is the knowledge reused across demands: the local
    table starts as a deep copy of it, and each episode also scores global
    rewards (framework default weights) right after the local ones and
    updates global_table in place after the local table. With None the local
    table starts at 0 and nothing global is scored or kept. Global updates
    use the framework default hyperparameters, with global_gamma as gamma
    when given (it needs a global_table); per-demand customization (weights,
    hyper) touches only the local table. Packets are lost only with a loss
    stream, which the data plane draws once per attempted hop (see
    dataplane.execute_path). Every episode that runs executes, and is scored
    exactly when its ExecutionResult differs from the episode before's; one
    equal to it reuses that episode's rewards and runs only the updates.
    The demand's reward terms are read before the first episode from the
    scores graph keeps (rewards.link_scores). Returns the greedy final path
    plus one trace per episode.

    Serving a repeated walk: an update writes only the links an episode
    attempted, so between two episodes only the temp path's links change in
    the local table. At epsilon 0, a walk that repeats the temp path gives
    it floors (see _floors); while each of its links stays strictly above
    its floor, no rival can win a hop, so an episode takes the temp path,
    the same object, without a walk, and so does the final path.

    An episode settles the demand when epsilon is 0, no loss stream is given
    and its updates leave every Q-value of both tables unchanged: each later
    episode would select from the same table, execute and score the same
    path and update nothing again, so its trace, a copy of the settling
    episode's under its own index, is appended without running it.
    """
    graph.check_endpoints(demand)
    if not graph.link_index().out[demand.src]:
        raise UnroutableDemandError(f"node {demand.src} has no outgoing links")
    weights = DEFAULT_WEIGHTS if weights is None else weights
    hyper = DEFAULT_HYPERPARAMETERS if hyper is None else hyper
    global_hyper = DEFAULT_HYPERPARAMETERS
    if global_gamma is not None:
        check_global_gamma(global_gamma)
        if global_table is None:
            raise ValueError(
                f"global_gamma {global_gamma} needs a global_table: no global table reads it"
            )
        global_hyper = _global_hyperparameters(global_gamma)
    greedy = hyper.epsilon == 0
    # With neither exploration nor loss draws, an episode is a function of
    # the tables alone.
    may_settle = greedy and loss is None

    local_table = init_local_table(graph, global_table)
    q = local_table.q
    # Executing paths never changes the graph, so one demand's reward terms
    # are fixed for all of its episodes.
    scores = link_scores(graph, weights, demand)
    traces: list[EpisodeTrace] = []
    temp_path = floors = result = None
    episodes = hyper.episodes
    for episode in range(1, episodes + 1):
        if floors is None or not _above_floors(temp_path.links, floors, q):
            selected = find_temp_path(demand, local_table, hyper, rng)
            # Every walk starts at the source, so equal links are a repeat.
            if temp_path is None or selected.links != temp_path.links:
                temp_path, floors = selected, None
            elif greedy and floors is None:
                floors = _floors(temp_path, q)
        # Looked up on the module at call time, so wrapping it there sees every call.
        executed = dataplane.execute_path(graph, temp_path.links, loss)
        # An execution equal to the one before scores as it did.
        if executed != result:
            result = executed
            attempted = len(result.records)
            local_rewards = local_rewards_for_path(result, scores)
            if global_table is not None:
                global_rewards = global_rewards_for_path(result, scores)
        changed = update_table(local_table, local_rewards, hyper)
        if global_table is not None:
            changed = update_table(global_table, global_rewards, global_hyper) or changed
        traces.append(tuple.__new__(EpisodeTrace, (episode, temp_path, attempted)))
        if may_settle and not changed:
            for later in range(episode + 1, episodes + 1):
                traces.append(tuple.__new__(EpisodeTrace, (later, temp_path, attempted)))
            break
    if floors is not None and _above_floors(temp_path.links, floors, q):
        final_path = RoutePath(temp_path.nodes, temp_path.reached_destination)
    else:
        final_path = find_final_path(demand, local_table, hyper)
    return RouteResult(final_path=final_path, traces=traces)


def detect_convergence(traces: Sequence[EpisodeTrace]) -> Optional[int]:
    """First episode index from which every temp path is identical and
    destination-reaching through the end of the run.

    None when there is no such suffix: the last episode did not reach, or
    the only stable "suffix" is the final episode by itself. A lone final
    episode shows no repetition, so it only counts when it IS the whole run.
    Temp paths are compared by identity first: a repeated or settled
    episode's trace holds the same TempPath object as the one before.
    """
    if not traces:
        return None
    last = traces[-1].temp_path
    if not last.reached_destination:
        return None
    start_pos = len(traces) - 1
    for pos in range(len(traces) - 2, -1, -1):
        path = traces[pos].temp_path
        if path is not last and path != last:
            break
        start_pos = pos
    if len(traces) - start_pos < 2 and start_pos != 0:
        return None
    return traces[start_pos].episode_index
