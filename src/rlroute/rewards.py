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
only between demands, when a routed demand's traffic is placed. LinkScores
evaluates those terms for all links once per demand, so an episode's
rewards only index lists by link id. What no load enters is evaluated once
per LinkIndex, which a graph's copies share, and set of weights (TermSet).

Every number is checked where it enters: by the TrafficDemand constructor
and by the rate and link checks build_graph and the topology loader share.
After construction only a graph's loads change, through place_traffic,
which checks each new load, so nothing is checked again here. Only sums can
still overflow; link_scores refuses a non-finite one, naming its link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .network import LinkIndex, NetworkGraph, TrafficDemand, check_float

if TYPE_CHECKING:
    from .dataplane import ExecutionResult

# One megabit per second, in bits/s; the transmission reward's unit scale.
MBPS = 1.0e6

# Margin added to the local normalizer so successful local rewards are <= -0.1.
LOCAL_MARGIN = 0.1


@dataclass(frozen=True)
class QoSWeights:
    """Finite nonnegative weights for the five QoS factors, plus derived
    constants."""

    hop_count: float
    transmission: float
    reliability: float
    intensity: float
    utilization: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_float(value, f"weight {name}")
            if not 0 <= value < math.inf:
                raise ValueError(f"weight {name} must be a finite number >= 0, got {value}")

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
# where they enter, as the module docstring says. All but reward_hop and
# reward_transmission also take numpy arrays: elementwise + - * / round
# exactly as on Python floats, so a term evaluated over all links at once
# equals the same term evaluated per hop.


def reward_hop(hop_index: int) -> float:
    """Hop-position reward, 1/hop_index; in (0, 1]."""
    if hop_index < 1:
        raise ValueError(f"hop_index must be >= 1, got {hop_index}")
    return 1.0 / hop_index


def reward_transmission(sender_rate_mbps: float) -> float:
    """Transmission-delay reward, (2/pi)*atan(rate); the argument is the
    sending node's processing rate expressed numerically in Mb/s. A number
    only: np.arctan may differ from math.atan in the last bit."""
    return (2.0 / math.pi) * math.atan(sender_rate_mbps)


def reward_intensity(receiver_incoming, receiver_rate, extra: float = 0.0):
    """Traffic-intensity reward at the receiving node, 1 - (incoming+extra)/rate.

    extra = 0 gives the current form; extra = the demand's traffic gives the
    estimated form. May go negative when the node is overloaded.
    """
    return 1.0 - (receiver_incoming + extra) / receiver_rate


def reward_utilization(used, max_bandwidth, extra: float = 0.0):
    """Link-utilization reward, 1 - (used+extra)/max; negative when the link
    is over-subscribed (deliberately unclamped)."""
    return 1.0 - (used + extra) / max_bandwidth


@dataclass(frozen=True)
class TermSet:
    """What link_scores reads of a graph under one set of weights that no
    load enters, built by link_scores on the first scoring with these
    weights: each link's target, each node's processing rate, each link's
    capacity and the global reward's (default-weighted) reliability term,
    as numpy arrays; the weighted hop (by position), transmission and
    reliability terms, as the lists every LinkScores with these weights
    shares; and partial, each link's hop + transmission + reliability for
    the first and the last hop, which link_scores extends to bound the local
    rewards.

    Capacities, reliabilities and processing rates are fixed at
    construction, and a graph's copies share its LinkIndex, which keeps the
    TermSet of each set of weights (LinkIndex.terms), so a study builds one
    TermSet per set of weights for all of its copies.
    """

    targets: np.ndarray
    rate: np.ndarray
    max_bandwidth: np.ndarray
    global_reliability: np.ndarray
    hop: list[float]
    transmission: list[float]
    reliability: list[float]
    partial: np.ndarray


def _term_set(index: LinkIndex, weights: QoSWeights) -> TermSet:
    reliability = np.array(index.reliability)
    max_bandwidth = np.array(index.max_bandwidth)
    rates = index.rates
    rate = np.array(rates)
    transmission = np.array([reward_transmission(r / MBPS) for r in rates])
    # hop[i] is the reward of hop i + 1; a simple path has at most
    # num_nodes - 1 hops.
    hop = np.array([reward_hop(i) for i in range(1, len(rates))])
    # A sum that overflows is reported by link_scores, naming the link.
    with np.errstate(over="ignore", invalid="ignore"):
        hop = weights.hop_count * hop
        transmission = weights.transmission * transmission[np.array(index.sources, dtype=np.intp)]
        weighted_reliability = weights.reliability * reliability
        ends = hop[[0, -1], None] if len(hop) else hop[:, None]
        partial = ends + transmission + weighted_reliability
    return TermSet(
        targets=np.array(index.targets, dtype=np.intp),
        rate=rate,
        max_bandwidth=max_bandwidth,
        global_reliability=DEFAULT_WEIGHTS.reliability * reliability,
        hop=hop.tolist(),
        transmission=transmission.tolist(),
        reliability=weighted_reliability.tolist(),
        partial=partial,
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


def link_scores(graph: NetworkGraph, weights: QoSWeights, demand: TrafficDemand) -> LinkScores:
    """Evaluate every link's reward terms on the graph's current state.

    Local terms use weights and the demand's traffic; the global reward uses
    the framework default weights and the current forms. Only the loads are
    read per call; the rest comes from the TermSet for these weights in the
    graph's LinkIndex, which its copies share: built through _term_set on
    the first call with these weights and kept in LinkIndex.terms.
    Raises ValueError naming the first link whose local or global reward
    sums to a non-finite value. One test of the total of all sums clears
    the usual case; only a total that is not finite (a NaN, an inf, or
    finite sums that overflow) runs the exact per-link test.
    """
    index = graph.link_index()
    terms = index.terms.get(weights)
    if terms is None:
        terms = index.terms[weights] = _term_set(index, weights)
    targets = terms.targets
    used = np.array(graph.loads)
    # Each node's inbound loads, summed in link-id order.
    incoming = np.bincount(targets, weights=used, minlength=graph.num_nodes)
    w, g = weights, DEFAULT_WEIGHTS
    # Overflow is checked below, naming the link, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        utilization = w.utilization * reward_utilization(used, terms.max_bandwidth, demand.traffic)
        intensity = (w.intensity * reward_intensity(incoming, terms.rate, demand.traffic))[targets]
        global_reward = (
            terms.global_reliability
            + (g.intensity * reward_intensity(incoming, terms.rate))[targets]
            + g.utilization * reward_utilization(used, terms.max_bandwidth)
            - g.global_constant
        )
        # A hop's local reward adds hop + t + r + ie + ue - K in this order. Each
        # partial sum is monotone in the hop term, so summing with the first and
        # the last hop's terms bounds the sums at every position.
        local = terms.partial + intensity + utilization - w.local_constant
        if not math.isfinite(local.sum() + global_reward.sum()):
            finite = np.isfinite(local).all(axis=0) & np.isfinite(global_reward)
            if not finite.all():
                k = int(np.argmin(finite))
                which = "global" if np.isfinite(local[:, k]).all() else "local"
                link = f"({index.sources[k]},{index.targets[k]})"
                raise ValueError(f"link {link}: {which} reward terms sum to a non-finite value")
    return LinkScores(
        index=index,
        destination=demand.dst,
        hop=terms.hop,
        transmission=terms.transmission,
        reliability=terms.reliability,
        intensity=intensity.tolist(),
        utilization=utilization.tolist(),
        local_constant=w.local_constant,
        global_reward=global_reward.tolist(),
        global_constant=g.global_constant,
    )


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
