"""Node- and link-level transmission metrics behind the path score that
ranks candidate routes (scheduling.path_scores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Link-lifetime cap and the relative-speed floor below which it applies.
SD_CAP = 1000.0
SPEED_EPS = 1e-3


@dataclass
class NodeStatus:
    """Queue occupancy and relaying history of one node."""

    queue_len: int = 0
    queue_max: int = 5
    relayed_ok: int = 0
    relay_received: int = 0


@dataclass(frozen=True)
class MetricWeights:
    """Weights of the three node-characteristic terms."""

    kappa1: float = 0.4
    kappa2: float = 0.3
    kappa3: float = 0.3

    def __post_init__(self):
        if min(self.kappa1, self.kappa2, self.kappa3) < 0:
            raise ValueError("metric weights must be nonnegative")


@dataclass
class PathCandidate:
    """Ordered relay sequence with its path score."""

    hops: tuple
    path_value: float

    def __post_init__(self):
        if len(self.hops) < 2 or len(set(self.hops)) != len(self.hops):
            raise ValueError(f"hops must be >= 2 distinct nodes, got {self.hops}")
        if self.path_value < 0:
            raise ValueError("path_value must be nonnegative")


def vehicle_status(q: int, q_max: int) -> int:
    """1 while the processing queue has room (q <= q_max), else 0."""
    if q < 0 or q_max <= 0:
        raise ValueError("queue length must be >= 0 and queue_max > 0")
    return 1 if q <= q_max else 0


def neighbor_transmit_count(statuses: Sequence[int]) -> int:
    """Number of neighbors currently able to take a transfer."""
    return int(sum(statuses))


def relay_reliability(relayed_ok: int, relay_received: int) -> float:
    """Fraction of relay tasks completed; 1 with no history (benefit of the doubt)."""
    if relayed_ok > relay_received:
        raise ValueError("relayed_ok cannot exceed relay_received")
    if relay_received == 0:
        return 1.0
    return relayed_ok / relay_received


def staying_time(r_v: float, delta_p: float, v_i: float, v_j: float) -> float:
    """Expected remaining link lifetime in seconds, capped at SD_CAP.

    Near-equal speeds would give an infinite lifetime; the cap keeps the
    ordering while staying finite.
    """
    if delta_p > r_v:
        raise ValueError(f"separation {delta_p} exceeds communication range {r_v}")
    dv = abs(v_i - v_j)
    if dv < SPEED_EPS:
        return SD_CAP
    return min((r_v - delta_p) / dv, SD_CAP)


def hop_alignment(
    p_u: Sequence[float], p_w: Sequence[float], p_z: Sequence[float]
) -> float:
    """How much of the hop u->w is spent moving toward the destination z.

    1 for a hop straight at the destination, 0 for sideways or backward
    relays; unlike an end-to-end remaining-distance ratio this does not
    punish short hops, which is what "matching movement direction" needs.
    """
    hop_len = math.hypot(p_w[0] - p_u[0], p_w[1] - p_u[1])
    if hop_len == 0.0:
        return 0.0
    gained = math.hypot(p_z[0] - p_u[0], p_z[1] - p_u[1]) - math.hypot(
        p_z[0] - p_w[0], p_z[1] - p_w[1]
    )
    return min(max(gained / hop_len, 0.0), 1.0)


def node_weight(
    status: int,
    n_path: int,
    reliability: float,
    weights: MetricWeights,
    can_transmit: bool,
) -> float:
    """Composite node weight; a node that cannot transmit gets weight 1."""
    if not can_transmit:
        return 1.0
    return (
        weights.kappa1 * status
        + weights.kappa2 * n_path
        + weights.kappa3 * reliability
    )
