"""LoS path loss, SINR, Shannon rate, slot-level delivery probabilities and
the Bernoulli / Gilbert-Elliott loss processes gating packet delivery.

Everything except the loss process is a pure function. Each directed link
owns one LossProcess; given equal seeds the full delivery trace of a run is
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 3.0e8


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer constants of the V2V/V2I links.

    varpi is stored in dB and converted with 10^(varpi/10) when a linear
    value is needed; varpi_linear overrides the conversion directly since
    the dBm reading makes every delivery probability underflow.
    """

    fc: float = 5.9e9
    c: float = SPEED_OF_LIGHT
    eta_los: float = 0.0
    p_tx: float = 23.0
    n_noise: float = -96.0
    bandwidth: float = 10.0e6
    tau_slot: float = 0.1
    varpi: float = -96.0
    varpi_linear: float | None = None
    xi0: float = 5.0
    l0: float = 50.0
    l_v2i_0: float = 200.0

    def __post_init__(self):
        if self.fc <= 0 or self.bandwidth <= 0 or self.tau_slot <= 0:
            raise ValueError("fc, bandwidth and tau_slot must be positive")
        if self.l0 < 0 or self.l_v2i_0 < 0:
            raise ValueError("vertical offsets must be nonnegative")

    @property
    def effective_varpi(self) -> float:
        if self.varpi_linear is not None:
            return self.varpi_linear
        return 10.0 ** (self.varpi / 10.0)


@dataclass(frozen=True)
class LinkSnapshot:
    """Per-pair channel and mobility quantities at one slot."""

    distance: float
    path_loss: float
    sinr: float
    rate: float
    delivery_prob: float

    def __post_init__(self):
        if not 0.0 <= self.delivery_prob <= 1.0:
            raise ValueError("delivery_prob must lie in [0, 1]")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


class LossKind(Enum):
    BERNOULLI = "bernoulli"
    GILBERT_ELLIOTT = "gilbert_elliott"


class LinkState(Enum):
    GOOD = "good"
    BAD = "bad"


@dataclass
class LossProcess:
    """Per-link loss chain: i.i.d. drops (Bernoulli) or a bursty two-state
    Markov chain (Gilbert-Elliott) whose Bad state forces delivery failure."""

    kind: LossKind = LossKind.BERNOULLI
    p_drop: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    state: LinkState = LinkState.GOOD
    rng_seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        for p in (self.p_drop, self.p_good_to_bad, self.p_bad_to_good):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        self._rng = np.random.default_rng(np.random.SeedSequence(self.rng_seed))


def path_loss_los(distance: float, params: ChannelParams) -> float:
    """Line-of-sight path loss in dB; strictly increasing in distance."""
    if distance <= 0:
        raise ValueError("distance must be positive (log singularity at 0)")
    return (
        20.0 * math.log10(4.0 * math.pi * params.fc / params.c)
        + 20.0 * math.log10(distance)
        + params.eta_los
    )


def sinr_db(p_tx: float, path_loss: float, n_noise: float) -> float:
    """Receiver SINR in dB from transmit power, path loss and noise floor."""
    return p_tx - path_loss - n_noise


def shannon_rate(bandwidth: float, sinr: float) -> float:
    """Link rate in bits/second for a given SINR in dB."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return bandwidth * math.log2(1.0 + 10.0 ** (sinr / 10.0))


def relative_distance(
    p_i: Sequence[float], p_j: Sequence[float], l0: float
) -> float:
    """Link distance including the vertical offset: sqrt(planar_gap^2 + l0^2)."""
    gap = math.hypot(p_j[0] - p_i[0], p_j[1] - p_i[1])
    return math.hypot(gap, l0)


def slot_success_prob(
    theta: float,
    n_contenders: int,
    params: ChannelParams,
    distance_l: float,
) -> float:
    """Success probability of moving theta bits over one slot on a link of
    (offset) length distance_l with n_contenders sharing the channel."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if n_contenders < 1:
        raise ValueError("n_contenders must be at least 1")
    if distance_l <= 0:
        raise ValueError("distance_l must be positive")
    if theta == 0:
        return 1.0
    load = theta * n_contenders / (params.bandwidth * params.tau_slot)
    exponent = -(2.0**load - 1.0) / params.effective_varpi * distance_l**2
    return math.exp(exponent)


def sample_delivery(prob: float, loss: LossProcess) -> int:
    """Draw the per-slot delivery indicator.

    Bernoulli kind layers an extra i.i.d. drop of p_drop on top of the channel
    probability; Gilbert-Elliott forces failure while the chain is Bad.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError("prob must lie in [0, 1]")
    delivered = loss._rng.random() < prob
    if loss.kind is LossKind.BERNOULLI:
        if loss.p_drop > 0.0:
            delivered = delivered and loss._rng.random() >= loss.p_drop
    elif loss.state is LinkState.BAD:
        delivered = False
    return 1 if delivered else 0


def markov_step(loss: LossProcess) -> LossProcess:
    """Advance the Gilbert-Elliott chain one slot; no-op for Bernoulli kind."""
    if loss.kind is not LossKind.GILBERT_ELLIOTT:
        return loss
    u = loss._rng.random()
    if loss.state is LinkState.GOOD:
        if u < loss.p_good_to_bad:
            loss.state = LinkState.BAD
    else:
        if u < loss.p_bad_to_good:
            loss.state = LinkState.GOOD
    return loss
