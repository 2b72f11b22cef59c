"""Pure reward arithmetic for QoS-aware path learning.

Five per-factor rewards, each capped at 1 for admissible inputs:

    hop reward          1 / hop_index
    transmission reward (2/pi) * atan(sender processing rate in Mb/s)
    reliability reward  the link's reliability fraction
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
rewards only index lists by link id, and an episode that repeats an earlier
one's hops and loss flag gets the rewards already computed. The inputs no
load enters (FixedTerms) are evaluated once per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .network import LinkIndex, NetworkGraph, TrafficDemand

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


@dataclass(frozen=True)
class EpisodeRewards:
    """One episode's rewards, aligned with the links it attempted: values[i]
    rewards link id links[i]. Every action but the last counts as
    successfully performed; last_ok tells whether the last one does."""

    links: tuple[int, ...]
    values: tuple[float, ...]
    last_ok: bool

    def __len__(self) -> int:
        return len(self.links)


def _check(ok, values, message: str) -> None:
    """Raise ValueError(message) with the first of values where ok fails.
    ok and values are numbers, or arrays of one shape."""
    ok = np.asarray(ok)
    if np.count_nonzero(ok) != ok.size:
        raise ValueError(f"{message}, got {np.asarray(values)[~ok].flat[0]}")


# The term functions below take numbers or, all but reward_hop and
# reward_transmission, numpy arrays: elementwise + - * / round exactly as on
# Python floats, so a term evaluated over all links at once equals the same
# term evaluated per hop.


def reward_hop(hop_index: int) -> float:
    """Hop-position reward, 1/hop_index; in (0, 1]."""
    if hop_index < 1:
        raise ValueError(f"hop_index must be >= 1, got {hop_index}")
    return 1.0 / hop_index


def reward_transmission(sender_rate_mbps: float) -> float:
    """Transmission-delay reward, (2/pi)*atan(rate); the argument is the
    sending node's processing rate expressed numerically in Mb/s. A number
    only: np.arctan may differ from math.atan in the last bit."""
    if sender_rate_mbps < 0:
        raise ValueError(f"sender rate must be >= 0, got {sender_rate_mbps}")
    return (2.0 / math.pi) * math.atan(sender_rate_mbps)


def reward_reliability(reliability):
    """Link-reliability reward; the identity on [0, 1]."""
    _check((0.0 <= reliability) & (reliability <= 1.0), reliability,
           "reliability outside [0, 1]")
    return reliability


def reward_intensity(receiver_incoming, receiver_rate, extra: float = 0.0):
    """Traffic-intensity reward at the receiving node, 1 - (incoming+extra)/rate.

    extra = 0 gives the current form; extra = the demand's traffic gives the
    estimated form. May go negative when the node is overloaded.
    """
    _check(receiver_rate > 0, receiver_rate, "receiver processing rate must be > 0")
    _check(receiver_incoming >= 0, receiver_incoming, "receiver incoming traffic must be >= 0")
    _check(extra >= 0, extra, "extra traffic must be >= 0")
    return 1.0 - (receiver_incoming + extra) / receiver_rate


def reward_utilization(used, max_bandwidth, extra: float = 0.0):
    """Link-utilization reward, 1 - (used+extra)/max; negative when the link
    is over-subscribed (deliberately unclamped)."""
    _check(max_bandwidth > 0, max_bandwidth, "link max bandwidth must be > 0")
    _check(used >= 0, used, "link used bandwidth must be >= 0")
    _check(extra >= 0, extra, "extra traffic must be >= 0")
    return 1.0 - (used + extra) / max_bandwidth


@dataclass(frozen=True)
class FixedTerms:
    """A graph's reward inputs that no load enters, as numpy arrays: each
    link's target, each node's processing rate, and per link the sender's
    transmission reward, the reliability reward and the capacity.
    Capacities, reliabilities and processing rates are fixed after
    construction (only place_traffic writes to a graph, and it writes
    loads), so a graph evaluates these once; one reassigned on a built
    graph after its first scoring is not seen. Reliabilities are checked
    here, rates and capacities by the intensity and utilization terms,
    which divide by them."""

    targets: np.ndarray
    rate: np.ndarray
    transmission: np.ndarray
    reliability: np.ndarray
    max_bandwidth: np.ndarray
    # hop[i] is the reward of hop i + 1; a simple path has at most
    # num_nodes - 1 hops.
    hop: np.ndarray


def _fixed_terms(graph: NetworkGraph) -> FixedTerms:
    index = graph.link_index()
    rates = [n.processing_rate for n in graph.nodes]
    transmission = np.array([reward_transmission(r / MBPS) for r in rates])
    reliability = reward_reliability(np.array([l.reliability for l in index.links]))
    return FixedTerms(
        targets=np.array(index.targets, dtype=np.intp),
        rate=np.array(rates),
        transmission=transmission[np.array(index.sources, dtype=np.intp)],
        reliability=reliability,
        max_bandwidth=np.array([l.max_bandwidth for l in index.links]),
        hop=np.array([reward_hop(i) for i in range(1, graph.num_nodes)]),
    )


@dataclass(frozen=True)
class LinkScores:
    """One demand's weighted reward terms, each a list indexed by link id.

    transmission, reliability, intensity and utilization are the local
    terms, the last two in their estimated form; hop[i] is the weighted hop
    reward of hop i + 1. global_reward is each link's whole global reward.

    The terms are fixed for the demand, so an episode's rewards depend only
    on its executed hops and loss flag: the reward functions keep the
    EpisodeRewards computed for each such pair and hand a repeat the same one.
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
    local_memo: dict = field(default_factory=dict, compare=False, repr=False)
    global_memo: dict = field(default_factory=dict, compare=False, repr=False)


def link_scores(graph: NetworkGraph, weights: QoSWeights, demand: TrafficDemand) -> LinkScores:
    """Evaluate every link's reward terms on the graph's current state.

    Local terms use weights and the demand's traffic; the global reward uses
    the framework default weights and the current forms. Raises ValueError,
    as the term functions do, if any node or link holds an inadmissible value,
    and names the first link whose local or global reward sums to a
    non-finite value. Only the loads are read per call; the rest comes from
    the graph's FixedTerms, built on its first call.
    """
    fixed = graph.cached(_fixed_terms)
    index = graph.link_index()
    targets = fixed.targets
    used = np.array([l.used_bandwidth for l in index.links])
    # Each node's inbound loads, summed in link-id order.
    incoming = np.bincount(targets, weights=used, minlength=graph.num_nodes)
    w, g = weights, DEFAULT_WEIGHTS
    # Overflow is checked below, naming the link, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        hop = w.hop_count * fixed.hop
        transmission = w.transmission * fixed.transmission
        reliability = w.reliability * fixed.reliability
        # Before intensity, so that a bad load is reported as its link's.
        utilization = w.utilization * reward_utilization(used, fixed.max_bandwidth, demand.traffic)
        intensity = (w.intensity * reward_intensity(incoming, fixed.rate, demand.traffic))[targets]
        global_reward = (
            g.reliability * fixed.reliability
            + (g.intensity * reward_intensity(incoming, fixed.rate))[targets]
            + g.utilization * reward_utilization(used, fixed.max_bandwidth)
            - g.global_constant
        )
        # A hop's local reward adds hop + t + r + ie + ue - K in this order. Each
        # partial sum is monotone in the hop term, so summing with the first and
        # the last hop's terms bounds the sums at every position.
        ends = hop[[0, -1], None] if len(hop) else hop[:, None]
        local = ends + transmission + reliability + intensity + utilization - w.local_constant
    finite = np.isfinite(local).all(axis=0) & np.isfinite(global_reward)
    if not finite.all():
        k = int(np.argmin(finite))
        which = "global" if np.isfinite(local[:, k]).all() else "local"
        link = f"({index.sources[k]},{index.targets[k]})"
        raise ValueError(f"link {link}: {which} reward terms sum to a non-finite value")
    return LinkScores(
        index=index,
        destination=demand.dst,
        hop=hop.tolist(),
        transmission=transmission.tolist(),
        reliability=reliability.tolist(),
        intensity=intensity.tolist(),
        utilization=utilization.tolist(),
        local_constant=w.local_constant,
        global_reward=global_reward.tolist(),
        global_constant=g.global_constant,
    )


def _links_of(result: "ExecutionResult") -> tuple[int, ...]:
    if not result.records:
        raise ValueError("cannot compute rewards for an empty record list")
    return result.records


def local_rewards_for_path(result: "ExecutionResult", scores: LinkScores) -> EpisodeRewards:
    """Local rewards for an executed hop sequence, aligned with its links.

    A successful hop scores Wc*hop + Wt*trans + Wr*rel + Wi*inten_est +
    Wu*util_est - local_constant, added in that order, which is <= -0.1
    whenever the per-factor rewards are <= 1. Every hop but the last is
    successful. The last hop fails if the packet was lost OR its receiver is
    not the demand's destination (a dead end or truncation); a failed hop is
    valued at -local_constant, the penalty that update rules accumulate.
    """
    key = (result.records, result.lost)
    rewards = scores.local_memo.get(key)
    if rewards is None:
        links = _links_of(result)
        hop, t, r = scores.hop, scores.transmission, scores.reliability
        ie, ue, constant = scores.intensity, scores.utilization, scores.local_constant
        values = [hop[i] + t[k] + r[k] + ie[k] + ue[k] - constant for i, k in enumerate(links)]
        last_ok = not result.lost and scores.index.targets[links[-1]] == scores.destination
        if not last_ok:
            values[-1] = -constant
        rewards = scores.local_memo[key] = EpisodeRewards(links, tuple(values), last_ok)
    return rewards


def global_rewards_for_path(result: "ExecutionResult", scores: LinkScores) -> EpisodeRewards:
    """Global rewards for an executed hop sequence, aligned with its links.

    The last hop fails only on packet loss; reaching a dead end still yields
    a normal network-status reward. A failed hop is valued at -global_constant.
    """
    key = (result.records, result.lost)
    rewards = scores.global_memo.get(key)
    if rewards is None:
        links = _links_of(result)
        values = list(map(scores.global_reward.__getitem__, links))
        if result.lost:
            values[-1] = -scores.global_constant
        rewards = scores.global_memo[key] = EpisodeRewards(links, tuple(values), not result.lost)
    return rewards
