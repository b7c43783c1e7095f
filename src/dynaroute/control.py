"""Per-vehicle distributed MPC: the followers' control problems as one
array batch, the candidate rollout, feasibility and cost kernels, and a
candidate-search solver.

The solver evaluates a candidate input set (shifted previous solution,
deterministic safety candidates, seeded Gaussian perturbations) against box
bounds, the discrete CBF condition toward the predecessor and the
self-deviation constraint, then picks the cheapest feasible candidate. All
candidate math is vectorized over the candidates of every problem solved
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import (
    ControlInput,
    SafetyParams,
    VehicleState,
    cbf_condition_holds,
    safety_function,
    wrap_angle,
)

STATE_DIM = 4
INPUT_DIM = 2
# solve_dmpc's fixed candidates per problem: shifted plan, zero input,
# max-brake, formation feedback
DETERMINISTIC_CANDIDATES = 4
MAX_BRAKE_CANDIDATE = 2


@dataclass
class PlatoonConfig:
    """Horizon, cost weights and box bounds of the per-vehicle controller.

    comfort_r / comfort_a bound the candidate search (ride-comfort envelope);
    r_max / a_max remain the hard actuator limits used by clamp_input.
    """

    horizon: int = 10
    dt: float = 0.1
    weight_r: float = 0.2
    weight_f: float = 0.5
    weight_g: float = 1.0
    gamma: float = 1.0
    v_min: float = 0.0
    v_max: float = 40.0
    psi_min: float = -math.pi / 2
    psi_max: float = math.pi / 2
    r_min: float = -0.5
    r_max: float = 0.5
    a_min: float = -2.5
    a_max: float = 2.5
    n_candidates: int = 64
    comfort_r: float = 0.1
    comfort_a: float = 1.0

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if min(self.weight_r, self.weight_f, self.weight_g) < 0:
            raise ValueError("cost weights must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.a_min >= self.a_max or self.v_min >= self.v_max:
            raise ValueError("box bounds must be ordered")
        if self.n_candidates < DETERMINISTIC_CANDIDATES:
            raise ValueError(
                f"n_candidates must be at least {DETERMINISTIC_CANDIDATES}, "
                "the deterministic candidates"
            )
        self.comfort_r = min(self.comfort_r, self.r_max)
        self.comfort_a = min(self.comfort_a, self.a_max)


def state_vector(state: VehicleState) -> np.ndarray:
    return np.array([state.px, state.py, state.psi, state.v], dtype=float)


@dataclass
class NeighborRecord:
    """Last received state of one neighbor plus the formation offset the ego
    vehicle keeps relative to it (desired ego_state - neighbor_state)."""

    state: VehicleState
    slot: int
    delivered: bool
    offset: np.ndarray
    is_reference_anchor: bool = False


@dataclass
class NeighborView:
    """Per-neighbor communication memory; stale entries keep the last
    delivered state. now tracks the consumer's current slot so predictions
    can compensate for record staleness."""

    records: dict = field(default_factory=dict)
    now: int = 0

    def any_delivered(self) -> bool:
        return any(rec.delivered for rec in self.records.values())

    def mark_slot_start(self) -> None:
        for rec in self.records.values():
            rec.delivered = False

    def receive(self, node, state: VehicleState, slot: int) -> None:
        rec = self.records[node]
        if slot < rec.slot:
            raise ValueError("received state older than current record")
        rec.state = state
        rec.slot = slot
        rec.delivered = True

    def lag_of(self, rec: NeighborRecord) -> int:
        return max(0, self.now - rec.slot)


def predict_neighbor(
    rec: NeighborRecord, view: NeighborView, horizon: int, dt: float
) -> np.ndarray:
    """Constant-velocity prediction of a neighbor over slots now..now+horizon,
    advancing the stored state by its staleness first."""
    lag = view.lag_of(rec)
    return extrapolate_states(rec.state, horizon + lag, dt)[lag:]


def extrapolate_states(state: VehicleState, horizon: int, dt: float) -> np.ndarray:
    """Constant-speed, constant-heading prediction; rows are slots 0..horizon."""
    k = np.arange(horizon + 1, dtype=float)
    out = np.empty((horizon + 1, STATE_DIM))
    out[:, 0] = state.px + state.v * math.cos(state.psi) * dt * k
    out[:, 1] = state.py + state.v * math.sin(state.psi) * dt * k
    out[:, 2] = state.psi
    out[:, 3] = state.v
    return out


@dataclass(frozen=True)
class ControlBatch:
    """The followers' control problems as arrays, one row per problem: start
    states (V, 4), references (V, T+1, 4), predecessor predictions
    (V, T+1, 4) with a has-predecessor mask (V,), and neighbor formation
    targets (V, K, T, 4) padded with zeros to the largest neighbor count K,
    with a presence mask (V, K). Every row shares the barrier parameters
    safety. The harness builds one per GA step and one per baseline slot;
    the candidate kernels read it with one row per candidate (repeat)."""

    starts: np.ndarray
    references: np.ndarray
    predecessors: np.ndarray
    has_predecessor: np.ndarray
    targets: np.ndarray
    present: np.ndarray
    safety: SafetyParams

    @classmethod
    def build(
        cls,
        states: Sequence[VehicleState],
        views: Sequence[NeighborView],
        platoon: PlatoonConfig,
        safety: SafetyParams,
    ) -> "ControlBatch":
        """One row per (state, view), predicting every neighbor in view once
        over the horizon.

        The reference is the anchor's prediction plus its offset, or the
        vehicle's own extrapolation without an anchor. The barrier partner
        is the last non-anchor neighbor (the predecessor), or the anchor
        when it is the only one. A neighbor's target is its prediction over
        slots 1..T plus its offset, in view order.
        """
        t, dt = platoon.horizon, platoon.dt
        n = len(states)
        k_max = max((len(view.records) for view in views), default=0)
        starts = np.empty((n, STATE_DIM))
        references = np.empty((n, t + 1, STATE_DIM))
        predecessors = np.zeros((n, t + 1, STATE_DIM))
        has_predecessor = np.zeros(n, dtype=bool)
        targets = np.zeros((n, k_max, t, STATE_DIM))
        present = np.zeros((n, k_max), dtype=bool)
        for v, (state, view) in enumerate(zip(states, views)):
            starts[v] = state_vector(state)
            anchored = False
            for k, rec in enumerate(view.records.values()):
                pred = predict_neighbor(rec, view, t, dt)
                offset = np.asarray(rec.offset, dtype=float)
                targets[v, k] = pred[1:] + offset
                present[v, k] = True
                if rec.is_reference_anchor:
                    references[v] = pred + offset
                    anchored = True
                if not rec.is_reference_anchor or len(view.records) == 1:
                    predecessors[v] = pred
                    has_predecessor[v] = True
            if not anchored:
                references[v] = extrapolate_states(state, t, dt)
        return cls(starts, references, predecessors, has_predecessor, targets, present, safety)

    def repeat(self, m: int) -> "ControlBatch":
        """Every row m times over, row v * m + i the i-th copy of row v."""
        return ControlBatch(
            np.repeat(self.starts, m, axis=0),
            np.repeat(self.references, m, axis=0),
            np.repeat(self.predecessors, m, axis=0),
            np.repeat(self.has_predecessor, m, axis=0),
            np.repeat(self.targets, m, axis=0),
            np.repeat(self.present, m, axis=0),
            self.safety,
        )


def rollout_candidates(starts: np.ndarray, inputs: np.ndarray, dt: float) -> np.ndarray:
    """Euler-roll candidate input sequences from (C, 4) start states;
    returns (C, T+1, 4)."""
    cands, horizon, _ = inputs.shape
    states = np.empty((cands, horizon + 1, STATE_DIM))
    states[:, 0, :] = starts
    for k in range(horizon):
        s = states[:, k, :]
        states[:, k + 1, 0] = s[:, 0] + s[:, 3] * np.cos(s[:, 2]) * dt
        states[:, k + 1, 1] = s[:, 1] + s[:, 3] * np.sin(s[:, 2]) * dt
        psi = s[:, 2] + inputs[:, k, 0] * dt
        states[:, k + 1, 2] = np.arctan2(np.sin(psi), np.cos(psi))
        states[:, k + 1, 3] = s[:, 3] + inputs[:, k, 1] * dt
    return states


def feasibility_mask(
    states: np.ndarray,
    inputs: np.ndarray,
    rows: ControlBatch,
    config: PlatoonConfig,
    deviation: tuple | None = None,
) -> np.ndarray:
    """Box bounds + CBF + self-deviation, per candidate; rows holds one
    control problem per candidate.

    The CBF condition toward the predecessor binds the rows that have one;
    when no row has, the barrier is not evaluated. deviation is (budgets,
    has_budget), both (C,): has_budget marks the rows that have a previous
    plan. Such a row is rejected when its gamma-scaled reference deviation
    over slots 1..T-1 exceeds the previous plan's budget (the contraction
    form of the self-deviation constraint); the other rows, and every row
    without deviation, skip the check.
    """
    ok = np.ones(states.shape[0], dtype=bool)
    ok &= (inputs[:, :, 0] >= config.r_min - 1e-9).all(axis=1)
    ok &= (inputs[:, :, 0] <= config.r_max + 1e-9).all(axis=1)
    ok &= (inputs[:, :, 1] >= config.a_min - 1e-9).all(axis=1)
    ok &= (inputs[:, :, 1] <= config.a_max + 1e-9).all(axis=1)
    ok &= (states[:, :, 3] >= config.v_min - 1e-9).all(axis=1)
    ok &= (states[:, :, 3] <= config.v_max + 1e-9).all(axis=1)
    ok &= (states[:, :, 2] >= config.psi_min - 1e-9).all(axis=1)
    ok &= (states[:, :, 2] <= config.psi_max + 1e-9).all(axis=1)
    if rows.has_predecessor.any():
        h = safety_function(states, rows.predecessors, rows.safety)
        cbf_ok = cbf_condition_holds(h[:, 1:], h[:, :-1], rows.safety.alpha).all(axis=1)
        ok &= cbf_ok | ~rows.has_predecessor
    if deviation is not None:
        budgets, has_budget = deviation
        t = states.shape[1] - 1
        dev = config.weight_g * np.linalg.norm(
            states[:, 1:t, :] - rows.references[:, 1:t, :], axis=2
        )
        ok &= (config.gamma * dev.sum(axis=1) <= budgets + 1e-9) | ~has_budget
    return ok


def trajectory_costs(
    states: np.ndarray, inputs: np.ndarray, rows: ControlBatch, config: PlatoonConfig
) -> np.ndarray:
    """Input effort + reference deviation + formation error per candidate,
    summed in that order, one neighbor after another; rows holds one
    control problem per candidate, and a padded neighbor adds exactly 0.0.
    """
    cost = config.weight_r * np.hypot(inputs[:, :, 0], inputs[:, :, 1]).sum(axis=1)
    cost += config.weight_f * np.linalg.norm(
        states[:, 1:, :] - rows.references[:, 1:, :], axis=2
    ).sum(axis=1)
    for k in range(rows.targets.shape[1]):
        term = config.weight_g * np.linalg.norm(
            states[:, 1:, :] - rows.targets[:, k], axis=2
        ).sum(axis=1)
        cost += np.where(rows.present[:, k], term, 0.0)
    return cost


def formation_feedback_input(
    start: np.ndarray, reference: np.ndarray, config: PlatoonConfig
) -> tuple[float, float]:
    """Proportional pull from the (4,) start state toward the reference
    point one slot ahead, clamped to the comfort envelope."""
    px, py, psi, v = start.tolist()
    ref1 = reference[1]
    a_fb = 0.3 * (ref1[0] - px - v * config.dt) + 0.8 * (ref1[3] - v)
    r_fb = -0.8 * (py - ref1[1]) - 1.5 * wrap_angle(psi)
    return (
        float(np.clip(r_fb, -config.comfort_r, config.comfort_r)),
        float(np.clip(a_fb, -config.comfort_a, config.comfort_a)),
    )


def feedback_plans(batch: ControlBatch, config: PlatoonConfig) -> np.ndarray:
    """(V, T, 2) plans holding each row's formation feedback input over the
    horizon: a candidate of the solver and a seed genome of the GA."""
    feedback = np.array([
        formation_feedback_input(start, reference, config)
        for start, reference in zip(batch.starts, batch.references)
    ]).reshape(-1, 1, INPUT_DIM)
    return np.repeat(feedback, config.horizon, axis=1)


def shift_plans(inputs: np.ndarray) -> np.ndarray:
    """Input plans (..., T, 2) advanced by one slot: the consumed first input
    is dropped and the last one repeated."""
    return np.concatenate([inputs[..., 1:, :], inputs[..., -1:, :]], axis=-2)


@dataclass(frozen=True, eq=False)
class DmpcSolution:
    """One solved control problem: the chosen candidate's inputs (T, 2) and
    predicted states (T+1, 4), row 0 the measured state. The next solve of
    the same vehicle warm-starts from these arrays."""

    inputs: np.ndarray
    states: np.ndarray
    cost: float
    infeasible_fallback: bool = False

    @cached_property
    def first_input(self) -> ControlInput:
        return ControlInput(float(self.inputs[0, 0]), float(self.inputs[0, 1]))


class DmpcSolutions(tuple):
    """solve_dmpc's result: one DmpcSolution per problem, in problem order."""

    @property
    def infeasible_fallback(self) -> int:
        """How many of the problems fell back to max-brake."""
        return sum(sol.infeasible_fallback for sol in self)


def solve_dmpc(
    batch: ControlBatch,
    prev_plans: Sequence[DmpcSolution | None],
    config: PlatoonConfig,
    rngs: Sequence[np.random.Generator],
) -> DmpcSolutions:
    """Candidate-search receding-horizon solve of the batch's independent
    control problems, with one call of each candidate kernel over all of
    them.

    Each problem gets a block of n_candidates rows: its previous plan
    shifted by one slot (zero input without one), zero input, max-brake,
    formation feedback, then Gaussian perturbations drawn from its own rng
    around the shifted plan and the feedback in turn. A problem with a
    previous plan also rejects candidates that deviate from the reference
    more than that plan does. Each problem takes the cheapest feasible row
    of its block; when none is feasible, the max-brake row, flagged as
    infeasible fallback.
    """
    t, dt = config.horizon, config.dt
    n, c = len(batch.starts), config.n_candidates

    has_plan = np.array([plan is not None for plan in prev_plans], dtype=bool)
    prev_inputs = np.zeros((n, t, INPUT_DIM))
    prev_states = np.zeros((n, t + 1, STATE_DIM))
    for f, plan in enumerate(prev_plans):
        if plan is not None:
            prev_inputs[f] = plan.inputs
            prev_states[f] = plan.states
    base = shift_plans(prev_inputs)
    # the slot-aligned previous plan's reference deviation over T-1 slots
    budgets = (
        config.weight_g
        * np.linalg.norm(prev_states[:, 1:t] - batch.references[:, : t - 1], axis=2)
    ).sum(axis=1)

    feedback = feedback_plans(batch, config)
    brake = np.broadcast_to([0.0, -config.comfort_a], (n, t, INPUT_DIM))
    deterministic = np.stack([base, np.zeros_like(base), brake, feedback], axis=1)

    n_samples = c - DETERMINISTIC_CANDIDATES
    noise = np.stack([rng.normal(size=(n_samples, t, INPUT_DIM)) for rng in rngs])
    noise[..., 0] *= 0.25 * config.comfort_r
    noise[..., 1] *= 0.35 * config.comfort_a
    even = (np.arange(n_samples) % 2 == 0)[None, :, None, None]
    sampled = np.where(even, base[:, None], feedback[:, None]) + noise

    # row f * c + i is candidate i of problem f
    inputs = np.concatenate([deterministic, sampled], axis=1).reshape(n * c, t, INPUT_DIM)
    inputs[:, :, 0] = np.clip(inputs[:, :, 0], -config.comfort_r, config.comfort_r)
    inputs[:, :, 1] = np.clip(inputs[:, :, 1], -config.comfort_a, config.comfort_a)

    rows = batch.repeat(c)
    states = rollout_candidates(rows.starts, inputs, dt)
    feasible = feasibility_mask(
        states, inputs, rows, config, (np.repeat(budgets, c), np.repeat(has_plan, c))
    ).reshape(n, c)
    costs = trajectory_costs(states, inputs, rows, config).reshape(n, c)

    solved = feasible.any(axis=1)
    masked = np.where(feasible, costs, np.inf)
    idx = np.where(solved, np.argmin(masked, axis=1), MAX_BRAKE_CANDIDATE)
    picked = np.arange(n) * c + idx
    chosen_inputs, chosen_states = inputs[picked], states[picked]
    # saturate at the actuator limits, as clamp_input does
    chosen_inputs[:, :, 0] = np.clip(chosen_inputs[:, :, 0], -config.r_max, config.r_max)
    chosen_inputs[:, :, 1] = np.clip(chosen_inputs[:, :, 1], -config.a_max, config.a_max)
    cost = np.where(solved, masked[np.arange(n), idx], np.inf)
    return DmpcSolutions(
        DmpcSolution(chosen_inputs[f], chosen_states[f], float(cost[f]), not solved[f])
        for f in range(n)
    )
