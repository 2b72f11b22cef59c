"""Pure reward arithmetic for QoS-aware path learning.

Five per-factor rewards, each capped at 1 for admissible inputs:

    hop reward          1 / hop_index
    transmission reward (2/pi) * atan(sender processing rate in Mb/s)
    reliability reward  the link's reliability fraction, read as it is
    intensity reward    1 - (receiver incoming traffic + extra) / receiver rate
    utilization reward  1 - (link used bandwidth + extra) / link max bandwidth

A node's incoming traffic is the sum of its inbound links' loads. The
"extra" term switches intensity/utilization between their current form
(extra = 0) and their estimated form (extra = the demand's traffic rate).

Composite rewards subtract a weight-derived normalizer so that every
successfully performed action scores negative:

    local reward   = Wc*hop + Wt*trans + Wr*rel + Wi*inten_est + Wu*util_est
                     - (Wc + Wt + Wr + Wi + Wu + 0.1)
    global reward  = Wr*rel + Wi*inten + Wu*util - (Wr + Wi + Wu)

Local rewards drive per-demand action selection with user weights and the
estimated forms; global rewards describe network status with the framework
default weights and the current forms. Rates are bits/s; only the
transmission reward reads its argument numerically in Mb/s.

Every term but the hop reward depends on one link and on loads that change
only between demands, when a routed demand's traffic is placed. A demand's
LinkScores holds those terms for all links, so an episode's rewards only
index lists by link id. A graph keeps them from demand to demand
(KeptScores) and rescores only the links a placement changed; what no load
enters is evaluated once per LinkIndex, which a graph's copies share, and
set of weights (TermSet).

Every number is checked where it enters, and kept as a float: by the
TrafficDemand and QoSWeights constructors and by the rate and link checks of
build_graph and the topology loader. After construction only a graph's
loads change, through place_traffic, which checks each new load, so nothing
is checked again here. Only sums can still overflow; link_scores refuses a
non-finite one, naming its link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite, nan
from typing import TYPE_CHECKING

from .network import (
    FLOAT_MAX, LinkIndex, NetworkGraph, TrafficDemand, check_float, incoming_traffic
)

if TYPE_CHECKING:
    from .dataplane import ExecutionResult

# One megabit per second, in bits/s; the transmission reward's unit scale.
MBPS = 1.0e6

# Margin added to the local normalizer so successful local rewards are <= -0.1.
LOCAL_MARGIN = 0.1


@dataclass(frozen=True)
class QoSWeights:
    """Finite nonnegative weights for the five QoS factors, each accepted as
    an int or float (see check_float) and stored as a float, plus derived
    constants."""

    hop_count: float
    transmission: float
    reliability: float
    intensity: float
    utilization: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_float(value, f"weight {name}")
            if not 0 <= value <= FLOAT_MAX:
                raise ValueError(f"weight {name} must be a finite number >= 0, got {value}")
            object.__setattr__(self, name, float(value))

    @property
    def local_constant(self) -> float:
        """Normalizer for local rewards: sum of all weights plus 0.1."""
        return (
            self.hop_count
            + self.transmission
            + self.reliability
            + self.intensity
            + self.utilization
            + LOCAL_MARGIN
        )

    @property
    def global_constant(self) -> float:
        """Normalizer for global rewards: reliability + intensity + utilization."""
        return self.reliability + self.intensity + self.utilization


def make_weights(
    wc: float, wt: float, wr: float, wi: float, wu: float
) -> QoSWeights:
    """Build QoSWeights from the five factor weights, in the conventional
    order: hop count, transmission, reliability, intensity, utilization."""
    return QoSWeights(wc, wt, wr, wi, wu)


# Framework default weights, used for every global-table update.
DEFAULT_WEIGHTS = make_weights(1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass(slots=True)
class EpisodeRewards:
    """One episode's rewards, aligned with the links it attempted: values[i]
    rewards link id links[i]. Every action but the last counts as
    successfully performed; last_ok tells whether the last one does.

    Slotted rather than frozen: a learner builds one or two per executed
    episode, and a frozen dataclass's constructor costs more than twice as
    much. Nothing writes to one after it is built."""

    links: tuple[int, ...]
    values: tuple[float, ...]
    last_ok: bool

    def __len__(self) -> int:
        return len(self.links)


# The term functions below are the formulas alone; their inputs are checked
# where they enter, as the module docstring says. Scoring evaluates the same
# operations inline, once per node or link, so a kept term has the bits of
# the same term evaluated per hop.


def reward_hop(hop_index: int) -> float:
    """Hop-position reward, 1/hop_index; in (0, 1]."""
    if hop_index < 1:
        raise ValueError(f"hop_index must be >= 1, got {hop_index}")
    return 1.0 / hop_index


def reward_transmission(sender_rate_mbps: float) -> float:
    """Transmission-delay reward, (2/pi)*atan(rate); the argument is the
    sending node's processing rate expressed numerically in Mb/s."""
    return (2.0 / math.pi) * math.atan(sender_rate_mbps)


def reward_intensity(
    receiver_incoming: float, receiver_rate: float, extra: float = 0.0
) -> float:
    """Traffic-intensity reward at the receiving node, 1 - (incoming+extra)/rate.

    extra = 0 gives the current form; extra = the demand's traffic gives the
    estimated form. May go negative when the node is overloaded.
    """
    return 1.0 - (receiver_incoming + extra) / receiver_rate


def reward_utilization(used: float, max_bandwidth: float, extra: float = 0.0) -> float:
    """Link-utilization reward, 1 - (used+extra)/max; negative when the link
    is over-subscribed (deliberately unclamped)."""
    return 1.0 - (used + extra) / max_bandwidth


@dataclass(frozen=True)
class TermSet:
    """What scoring reads of a graph under one set of weights that no load
    enters: hop[i], the weighted reward of hop i + 1; per link id, the
    weighted transmission and reliability terms, lists every LinkScores
    with these weights shares; partial_range, bounds on any link's hop +
    transmission + reliability at any hop, or NaNs when a term is not
    finite; least_capacity, the least link max bandwidth; and inbound[v],
    the ids of the links into node v, ascending.

    Capacities, reliabilities and processing rates are fixed at
    construction, and a graph's copies share its LinkIndex, which keeps the
    TermSet of each set of weights (LinkIndex.terms), so a study builds one
    TermSet per set of weights for all of its copies and runs.
    """

    hop: list[float]
    transmission: list[float]
    reliability: list[float]
    partial_range: tuple[float, float]
    least_capacity: float
    inbound: list[list[int]]


def _term_set(index: LinkIndex, weights: QoSWeights) -> TermSet:
    rates, wt, wr = index.rates, weights.transmission, weights.reliability
    # A simple path has at most num_nodes - 1 hops.
    hop = [weights.hop_count * reward_hop(i) for i in range(1, len(rates))]
    sending = [wt * reward_transmission(rate / MBPS) for rate in rates]
    transmission = list(map(sending.__getitem__, index.sources))
    reliability = [wr * r for r in index.reliability]
    # Hop rewards fall with the hop, and rounding is monotone in each
    # operand. A finite total has only finite terms.
    partial_range = (nan, nan)
    if transmission and isfinite(sum(transmission) + sum(reliability)):
        partial_range = (
            hop[-1] + min(transmission) + min(reliability),
            hop[0] + max(transmission) + max(reliability),
        )
    inbound: list[list[int]] = [[] for _ in rates]
    for k, v in enumerate(index.targets):
        inbound[v].append(k)
    return TermSet(
        hop=hop,
        transmission=transmission,
        reliability=reliability,
        partial_range=partial_range,
        least_capacity=min(index.max_bandwidth, default=math.inf),
        inbound=inbound,
    )


@dataclass(frozen=True)
class LinkScores:
    """One demand's weighted reward terms, each a list indexed by link id.

    transmission, reliability, intensity and utilization are the local
    terms, the last two in their estimated form; hop[i] is the weighted hop
    reward of hop i + 1. global_reward is each link's whole global reward.
    """

    index: LinkIndex
    destination: int
    hop: list[float]
    transmission: list[float]
    reliability: list[float]
    intensity: list[float]
    utilization: list[float]
    local_constant: float
    global_reward: list[float]
    global_constant: float


# A graph keeps books for at most this many (weights, traffic) pairs, the
# least recently scored going first, so its kept scores hold O(links)
# floats however many traffic values its demands carry.
KEPT_BOOKS = 8


class _Book:
    """The estimated intensity and utilization terms of one (weights,
    traffic), per link id, and the placed links they have not caught up
    on."""

    __slots__ = ("intensity", "utilization", "placed")

    def __init__(self, intensity: list[float], utilization: list[float]):
        self.intensity, self.utilization = intensity, utilization
        self.placed: set[int] = set()


class KeptScores:
    """One graph's reward terms, kept from demand to demand.

    A graph keeps one (NetworkGraph.scores), made by its first scoring, and
    each run places its demands on a graph of its own, so these are a run's
    scores. Between two demands only the loads of a placed path change, and
    place_traffic, which writes them, passes its link ids to placed(). So
    the graph keeps each node's incoming traffic, each link's global reward,
    and books of the estimated intensity and utilization terms for the
    KEPT_BOOKS (weights, traffic) pairs scored last. placed() only records
    link ids. The next link_scores call brings what it reads up to date,
    rescoring only what the placements since it was last read changed: each
    placed link's utilization, each placed link's target's incoming
    traffic, and the intensity terms and global reward of every link into
    those targets. A pair scored for the first time, or again after its
    book was dropped, pays one full evaluation of its book.

    Every value is computed by the operations of the term functions, in the
    same order, so kept scores have the bits of terms evaluated per hop. A
    node's incoming traffic is summed as network.incoming_traffic sums it. A
    node's intensity term is computed once, then copied to its in-links.
    The current intensity leaves out adding extra = 0.0, which changes no
    float but -0.0, and a sum from 0.0 of loads >= 0 is never -0.0.
    """

    __slots__ = ("index", "loads", "incoming", "global_reward", "most_load", "stale", "books")

    def __init__(self, graph: NetworkGraph):
        index, loads = graph.link_index(), graph.loads
        self.index, self.loads = index, loads
        incoming = incoming_traffic(index.rates, index.targets, loads)
        g = DEFAULT_WEIGHTS
        gr, gi, gu, constant = g.reliability, g.intensity, g.utilization, g.global_constant
        node = [gi * (1.0 - total / rate) for total, rate in zip(incoming, index.rates)]
        columns = index.reliability, index.targets, loads, index.max_bandwidth
        self.incoming = incoming
        self.global_reward = [
            gr * r + node[v] + gu * (1.0 - (used + 0.0) / capacity) - constant
            for r, v, used, capacity in zip(*columns)
        ]
        self.most_load = max(loads, default=0.0)
        # Links placed since the incoming traffic, global rewards and
        # most_load were brought up to date.
        self.stale: set[int] = set()
        self.books: dict[tuple, _Book] = {}

    def placed(self, links: tuple[int, ...]) -> None:
        """Record that place_traffic changed the loads of links."""
        self.stale.update(links)
        for book in self.books.values():
            book.placed.update(links)

    def link_scores(self, weights: QoSWeights, demand: TrafficDemand) -> LinkScores:
        """Every link's reward terms on the graph's current loads.

        Local terms use weights and the demand's traffic; the global reward
        uses the framework default weights and the current forms. What no
        load enters comes from the TermSet for these weights in the graph's
        LinkIndex, built on the first call with them. Raises ValueError
        naming the first link, in id order, whose local reward at its first
        or last hop or whose global reward sums to a non-finite value: the
        local one, unless the local sums are finite there. A book is kept
        only once its check passes, so a refusal repeats on every later
        call. The returned lists are the kept ones: they hold until the
        next call.
        """
        index = self.index
        terms = index.terms.get(weights)
        if terms is None:
            terms = index.terms[weights] = _term_set(index, weights)
        if self.stale:
            self._rescore_global(terms)
        traffic = demand.traffic
        key = (weights, traffic)
        # Out of the dict until its check passes, then back in as the most
        # recently scored.
        books = self.books
        book = books.pop(key, None)
        if book is None:
            book = self._build_book(terms, weights, traffic)
        elif book.placed:
            self._rescore_book(book, terms, weights, traffic)
        books[key] = book
        if len(books) > KEPT_BOOKS:
            del books[next(iter(books))]
        return LinkScores(
            index=index,
            destination=demand.dst,
            hop=terms.hop,
            transmission=terms.transmission,
            reliability=terms.reliability,
            intensity=book.intensity,
            utilization=book.utilization,
            local_constant=weights.local_constant,
            global_reward=self.global_reward,
            global_constant=DEFAULT_WEIGHTS.global_constant,
        )

    def _rescore_global(self, terms: TermSet) -> None:
        """Rescore the incoming traffic of the stale links' targets and the
        global reward of their in-links."""
        index, loads, g = self.index, self.loads, DEFAULT_WEIGHTS
        incoming, global_reward, targets = self.incoming, self.global_reward, index.targets
        reliability, rates, capacity = index.reliability, index.rates, index.max_bandwidth
        gr, gi, gu, constant = g.reliability, g.intensity, g.utilization, g.global_constant
        stale = self.stale
        self.most_load = max(self.most_load, max(map(loads.__getitem__, stale)))
        for v in {targets[k] for k in stale}:
            inbound = terms.inbound[v]
            total = 0.0
            for k in inbound:
                total += loads[k]
            incoming[v] = total
            node = gi * (1.0 - total / rates[v])
            for k in inbound:
                global_reward[k] = (
                    gr * reliability[k] + node + gu * (1.0 - (loads[k] + 0.0) / capacity[k])
                    - constant
                )
        stale.clear()

    def _build_book(self, terms: TermSet, weights: QoSWeights, traffic: float) -> _Book:
        index, wi, wu = self.index, weights.intensity, weights.utilization
        constant, (low, high) = weights.local_constant, terms.partial_range
        node = [
            wi * (1.0 - (total + traffic) / rate) for total, rate in zip(self.incoming, index.rates)
        ]
        intensity, columns = [node[v] for v in index.targets], (self.loads, index.max_bandwidth)
        utilization = [wu * (1.0 - (used + traffic) / capacity) for used, capacity in zip(*columns)]
        book = _Book(intensity, utilization)
        # A local sum adds ((partial + intensity) + utilization) - constant,
        # and rounding is monotone in each operand: when the sums of the
        # least and of the greatest terms are finite, so is every link's. A
        # finite total has only finite terms. The utilization terms are
        # bounded without reading them. None exceeds wu, as (used + traffic)
        # / capacity >= 0. None is below wu * (1.0 - 2.0 * q), q = (most
        # load + traffic) / least capacity: rounding each operation moves a
        # result by a factor of at most 1 + 2**-52, so no link's ratio
        # exceeds 2q.
        q = (self.most_load + traffic) / terms.least_capacity
        if utilization and not (
            isfinite(sum(node) + sum(self.global_reward))
            and isfinite(low + min(node) + wu * (1.0 - 2.0 * q) - constant)
            and isfinite(high + max(node) + wu - constant)
        ):
            self._refuse(terms, book, constant)
        return book

    def _rescore_book(
        self, book: _Book, terms: TermSet, weights: QoSWeights, traffic: float
    ) -> None:
        index, loads, incoming = self.index, self.loads, self.incoming
        intensity, utilization, links = book.intensity, book.utilization, book.placed
        wi, wu, constant = weights.intensity, weights.utilization, weights.local_constant
        capacity, rates, targets = index.max_bandwidth, index.rates, index.targets
        for k in links:
            utilization[k] = wu * (1.0 - (loads[k] + traffic) / capacity[k])
        top, bottom = terms.hop[0], terms.hop[-1]
        t, r, global_reward = terms.transmission, terms.reliability, self.global_reward
        total = 0.0
        for v in {targets[k] for k in links}:
            node = wi * (1.0 - (incoming[v] + traffic) / rates[v])
            for k in terms.inbound[v]:
                intensity[k] = node
                # Only these links' sums changed; a non-finite one makes the
                # total non-finite.
                total += (
                    (top + t[k] + r[k] + node + utilization[k] - constant)
                    + (bottom + t[k] + r[k] + node + utilization[k] - constant)
                    + global_reward[k]
                )
        links.clear()
        if not isfinite(total):
            self._refuse(terms, book, constant)

    def _refuse(self, terms: TermSet, book: _Book, constant: float) -> None:
        """ValueError naming the first link, in id order, whose local sum at
        its first or last hop, ((hop + t) + r + ie) + ue - constant, or whose
        global reward is not finite; returns if there is none."""
        top, bottom = terms.hop[0], terms.hop[-1]
        columns = terms.transmission, terms.reliability, book.intensity, book.utilization
        for k, (t, r, ie, ue) in enumerate(zip(*columns)):
            local = isfinite(top + t + r + ie + ue - constant) and isfinite(
                bottom + t + r + ie + ue - constant
            )
            if not (local and isfinite(self.global_reward[k])):
                index = self.index
                which = "global" if local else "local"
                raise ValueError(
                    f"link ({index.sources[k]},{index.targets[k]}): "
                    f"{which} reward terms sum to a non-finite value"
                )


def link_scores(graph: NetworkGraph, weights: QoSWeights, demand: TrafficDemand) -> LinkScores:
    """Every link's reward terms on the graph's current loads, from the
    scores the graph keeps (NetworkGraph.scores), made on its first call;
    refuses a non-finite sum as KeptScores.link_scores says. The returned
    lists hold until the graph's next scoring."""
    kept = graph.scores
    if kept is None:
        kept = graph.scores = KeptScores(graph)
    return kept.link_scores(weights, demand)


def local_rewards_for_path(result: "ExecutionResult", scores: LinkScores) -> EpisodeRewards:
    """Local rewards for an executed hop sequence, aligned with its links.

    A successful hop scores Wc*hop + Wt*trans + Wr*rel + Wi*inten_est +
    Wu*util_est - local_constant, added in that order, which is <= -0.1
    whenever the per-factor rewards are <= 1. Every hop but the last is
    successful. The last hop fails if the packet was lost OR its receiver is
    not the demand's destination (a dead end or truncation); a failed hop is
    valued at -local_constant, the penalty that update rules accumulate.
    """
    links = result.records
    if not links:
        raise ValueError("cannot compute rewards for an empty record list")
    hop, t, r = scores.hop, scores.transmission, scores.reliability
    ie, ue, constant = scores.intensity, scores.utilization, scores.local_constant
    # A loop, not a comprehension, which would make these locals closure cells.
    values = []
    for i, k in enumerate(links):
        values.append(hop[i] + t[k] + r[k] + ie[k] + ue[k] - constant)
    last_ok = not result.lost and scores.index.targets[links[-1]] == scores.destination
    if not last_ok:
        values[-1] = -constant
    return EpisodeRewards(links, tuple(values), last_ok)


def global_rewards_for_path(result: "ExecutionResult", scores: LinkScores) -> EpisodeRewards:
    """Global rewards for an executed hop sequence, aligned with its links.

    The last hop fails only on packet loss; reaching a dead end still yields
    a normal network-status reward. A failed hop is valued at -global_constant.
    """
    links = result.records
    if not links:
        raise ValueError("cannot compute rewards for an empty record list")
    # Unpacked rather than tuple(map(...)), which raised the peak RSS of 40
    # T8 gamma studies in one process by about 2 MB.
    values = (*map(scores.global_reward.__getitem__, links),)
    if result.lost:
        return EpisodeRewards(links, (*values[:-1], -scores.global_constant), False)
    return EpisodeRewards(links, values, True)
