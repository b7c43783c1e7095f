"""Nonholonomic vehicle model, input saturation and the following-mode
barrier safety function with the discrete-time CBF condition.

All functions here are pure; state objects are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import ArrayLike

TWO_PI = 2.0 * math.pi


def wrap_angle(psi: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    psi = math.fmod(psi, TWO_PI)
    if psi <= -math.pi:
        psi += TWO_PI
    elif psi > math.pi:
        psi -= TWO_PI
    return psi


@dataclass(frozen=True)
class VehicleState:
    """Planar pose, heading and longitudinal speed of one vehicle."""

    px: float
    py: float
    psi: float
    v: float

    def position(self) -> tuple[float, float]:
        return (self.px, self.py)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.px, self.py, self.psi, self.v)))


@dataclass(frozen=True)
class ControlInput:
    """Turning rate and longitudinal acceleration command."""

    r: float = 0.0
    a: float = 0.0


@dataclass(frozen=True)
class SafetyParams:
    """Vehicle geometry of the barrier and the CBF decay rate alpha."""

    w: float = 2.0
    l_w: float = 4.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.w <= 0 or self.l_w <= 0:
            raise ValueError("w and l_w must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def step(state: VehicleState, inp: ControlInput, dt: float) -> VehicleState:
    """Forward-Euler step of the nonholonomic model.

    The position update uses the pre-step heading and speed; psi is
    re-normalized into (-pi, pi] afterwards.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not state.is_finite():
        raise ValueError(f"non-finite state: {state}")
    return VehicleState(
        px=state.px + state.v * math.cos(state.psi) * dt,
        py=state.py + state.v * math.sin(state.psi) * dt,
        psi=wrap_angle(state.psi + inp.r * dt),
        v=state.v + inp.a * dt,
    )


def clamp_input(inp: ControlInput, r_max: float, a_max: float) -> ControlInput:
    """Saturate both input components into the admissible box."""
    if r_max <= 0 or a_max <= 0:
        raise ValueError("input bounds must be positive")
    r = min(max(inp.r, -r_max), r_max)
    a = min(max(inp.a, -a_max), a_max)
    if r == inp.r and a == inp.a:
        return inp
    return replace(inp, r=r, a=a)


def safety_function(p_i: ArrayLike, p_f: ArrayLike, params: SafetyParams) -> np.ndarray:
    """Following-mode barrier h = D^2 - (2W)^2 toward the vehicle ahead at
    p_f, with safety distance D = |delta_p| - l_w; positive means safe margin.

    p_i and p_f broadcast over leading axes; x and y are the first two
    entries of the last axis, so planar points and (..., 4) state rows both
    work. The solver's CBF check and the run's record both evaluate h here.
    """
    p_i = np.asarray(p_i, dtype=float)
    p_f = np.asarray(p_f, dtype=float)
    gap = np.hypot(p_f[..., 0] - p_i[..., 0], p_f[..., 1] - p_i[..., 1])
    return (gap - params.l_w) ** 2 - (2.0 * params.w) ** 2


def cbf_condition_holds(h_next: ArrayLike, h_curr: ArrayLike, alpha: float):
    """Discrete-time CBF decrease condition h(k+1) - h(k) >= -alpha*h(k)
    with a 1e-9 slack, elementwise over arrays of barrier values."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return h_next - h_curr >= -alpha * h_curr - 1e-9
