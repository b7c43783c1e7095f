"""Per-vehicle distributed MPC: the per-follower control problem, the
candidate rollout, feasibility and cost kernels, and a candidate-search
solver.

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


@dataclass
class SafetyContext:
    """Barrier partner of the feasibility check: the predecessor's predicted
    states, (T+1, 4) for every candidate or (C, T+1, 4) per candidate row,
    or None. With per-row partners, has_predecessor (C,) marks the rows
    that have one; the barrier check skips the others."""

    params: SafetyParams
    predecessor: np.ndarray | None = None
    has_predecessor: np.ndarray | None = None


def extrapolate_states(state: VehicleState, horizon: int, dt: float) -> np.ndarray:
    """Constant-speed, constant-heading prediction; rows are slots 0..horizon."""
    k = np.arange(horizon + 1, dtype=float)
    out = np.empty((horizon + 1, STATE_DIM))
    out[:, 0] = state.px + state.v * math.cos(state.psi) * dt * k
    out[:, 1] = state.py + state.v * math.sin(state.psi) * dt * k
    out[:, 2] = state.psi
    out[:, 3] = state.v
    return out


@dataclass
class ControlProblem:
    """Per-follower ingredients of the control objective: the measured state,
    the (T+1, 4) reference, (predicted states, formation offset) per
    neighbor, and the barrier partner."""

    current_state: VehicleState
    reference: np.ndarray
    neighbors: list
    safety_ctx: SafetyContext | None = None


def build_control_problem(
    state: VehicleState,
    view: NeighborView,
    config: PlatoonConfig,
    safety: SafetyParams | None = None,
) -> ControlProblem:
    """Predict every neighbor in view once over the horizon.

    The reference is the anchor's prediction plus its offset, or the
    vehicle's own extrapolation without an anchor. With safety given, the
    barrier partner is the last non-anchor neighbor (the predecessor), or
    the anchor when it is the only one.
    """
    t, dt = config.horizon, config.dt
    neighbors = []
    anchor = predecessor = None
    for rec in view.records.values():
        pred = predict_neighbor(rec, view, t, dt)
        neighbors.append((pred, rec.offset))
        if rec.is_reference_anchor:
            anchor = (pred, rec.offset)
        if not rec.is_reference_anchor or len(view.records) == 1:
            predecessor = pred
    if anchor is not None:
        reference = anchor[0] + np.asarray(anchor[1], dtype=float)[None, :]
    else:
        reference = extrapolate_states(state, t, dt)
    safety_ctx = None if safety is None else SafetyContext(safety, predecessor)
    return ControlProblem(state, reference, neighbors, safety_ctx)


def rollout_candidates(current, inputs: np.ndarray, dt: float) -> np.ndarray:
    """Euler-roll candidate input sequences; returns (C, T+1, 4).

    current may be one VehicleState shared by all candidates or a (C, 4)
    array of per-candidate initial states.
    """
    cands, horizon, _ = inputs.shape
    states = np.empty((cands, horizon + 1, STATE_DIM))
    if isinstance(current, VehicleState):
        states[:, 0, :] = state_vector(current)
    else:
        states[:, 0, :] = np.asarray(current, dtype=float)
    for k in range(horizon):
        s = states[:, k, :]
        states[:, k + 1, 0] = s[:, 0] + s[:, 3] * np.cos(s[:, 2]) * dt
        states[:, k + 1, 1] = s[:, 1] + s[:, 3] * np.sin(s[:, 2]) * dt
        psi = s[:, 2] + inputs[:, k, 0] * dt
        states[:, k + 1, 2] = np.arctan2(np.sin(psi), np.cos(psi))
        states[:, k + 1, 3] = s[:, 3] + inputs[:, k, 1] * dt
    return states


def _h_series(ego: np.ndarray, partner: np.ndarray, params: SafetyParams) -> np.ndarray:
    """Following-mode barrier values along predicted trajectories; ego
    (C, T+1, 4), partner (T+1, 4) or (C, T+1, 4)."""
    gap = np.hypot(partner[..., 0] - ego[:, :, 0], partner[..., 1] - ego[:, :, 1])
    return (gap - params.l_w) ** 2 - (2.0 * params.w) ** 2


def feasibility_mask(
    states: np.ndarray,
    inputs: np.ndarray,
    config: PlatoonConfig,
    safety_ctx: SafetyContext | None,
    deviation_ctx: tuple | None,
) -> np.ndarray:
    """Box bounds + CBF + self-deviation, per candidate.

    deviation_ctx is (references, budgets, has_budget): references (T+1, 4)
    or (C, T+1, 4), budgets a scalar or (C,), and has_budget (C,) marks the
    rows that have a previous plan. Such a row is rejected when its
    gamma-scaled reference deviation over slots 1..T-1 exceeds the previous
    plan's budget (the contraction form of the self-deviation constraint);
    the other rows skip the check.
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
    if safety_ctx is not None and safety_ctx.predecessor is not None:
        alpha = safety_ctx.params.alpha
        h = _h_series(states, safety_ctx.predecessor, safety_ctx.params)
        cbf_ok = (h[:, 1:] - h[:, :-1] >= -alpha * h[:, :-1] - 1e-9).all(axis=1)
        if safety_ctx.has_predecessor is not None:
            cbf_ok |= ~safety_ctx.has_predecessor
        ok &= cbf_ok
    if deviation_ctx is not None:
        references, budgets, has_budget = deviation_ctx
        t = states.shape[1] - 1
        dev = config.weight_g * np.linalg.norm(
            states[:, 1:t, :] - references[..., 1:t, :], axis=2
        )
        ok &= (config.gamma * dev.sum(axis=1) <= budgets + 1e-9) | ~has_budget
    return ok


def neighbor_targets(neighbors: Sequence[tuple], horizon: int) -> np.ndarray:
    """(K, T, 4) formation targets over slots 1..T: each neighbor's
    predicted states plus its offset."""
    targets = np.empty((len(neighbors), horizon, STATE_DIM))
    for k, (pred, offset) in enumerate(neighbors):
        targets[k] = pred[1:] + np.asarray(offset, dtype=float)
    return targets


@dataclass(frozen=True)
class ControlBatch:
    """Control problems as arrays, one row per problem, for the kernels'
    per-row form: start states (V, 4), references (V, T+1, 4), predecessor
    predictions (V, T+1, 4) with a has-predecessor mask, and neighbor
    targets (V, K, T, 4) padded to the largest neighbor count K with a
    presence mask (V, K). Padding is zeros. The GA's population evaluation
    and the batched DMPC solve both read it.

    The barrier check needs one set of safety parameters for all problems.
    """

    starts: np.ndarray
    references: np.ndarray
    predecessors: np.ndarray
    has_predecessor: np.ndarray
    targets: np.ndarray
    present: np.ndarray
    safety: SafetyParams | None  # of the followers with a barrier partner

    @classmethod
    def build(cls, problems: Sequence, horizon: int) -> "ControlBatch":
        n = len(problems)
        k_max = max((len(p.neighbors) for p in problems), default=0)
        starts = np.empty((n, STATE_DIM))
        references = np.empty((n, horizon + 1, STATE_DIM))
        predecessors = np.zeros((n, horizon + 1, STATE_DIM))
        has_predecessor = np.zeros(n, dtype=bool)
        targets = np.zeros((n, k_max, horizon, STATE_DIM))
        present = np.zeros((n, k_max), dtype=bool)
        safety = None
        for v, problem in enumerate(problems):
            starts[v] = state_vector(problem.current_state)
            references[v] = problem.reference
            ctx = problem.safety_ctx
            if ctx is not None and ctx.predecessor is not None:
                if safety is not None and ctx.params != safety:
                    raise ValueError("followers must share the safety parameters")
                safety = ctx.params
                predecessors[v] = ctx.predecessor
                has_predecessor[v] = True
            k = len(problem.neighbors)
            targets[v, :k] = neighbor_targets(problem.neighbors, horizon)
            present[v, :k] = True
        return cls(starts, references, predecessors, has_predecessor, targets, present, safety)


def trajectory_costs(
    states: np.ndarray,
    inputs: np.ndarray,
    reference: np.ndarray,
    targets: np.ndarray,
    config: PlatoonConfig,
    present: np.ndarray | None = None,
) -> np.ndarray:
    """Input effort + reference deviation + formation error per candidate,
    summed in that order, one neighbor after another.

    reference is (T+1, 4) for every candidate or (C, T+1, 4) per row;
    targets (neighbor_targets) is (K, T, 4) or (C, K, T, 4). With per-row
    targets padded to a common K, present (C, K) marks the real ones; a
    padded neighbor adds exactly 0.0.
    """
    cost = config.weight_r * np.hypot(inputs[:, :, 0], inputs[:, :, 1]).sum(axis=1)
    cost += config.weight_f * np.linalg.norm(
        states[:, 1:, :] - reference[..., 1:, :], axis=2
    ).sum(axis=1)
    for k in range(targets.shape[-3]):
        term = config.weight_g * np.linalg.norm(
            states[:, 1:, :] - targets[..., k, :, :], axis=2
        ).sum(axis=1)
        cost += term if present is None else np.where(present[:, k], term, 0.0)
    return cost


def formation_feedback_input(
    current_state: VehicleState, reference: np.ndarray, config: PlatoonConfig
) -> tuple[float, float]:
    """Proportional pull toward the reference point one slot ahead, clamped
    to the comfort envelope; shared warm start of the solver and the GA."""
    ref1 = reference[1]
    a_fb = 0.3 * (ref1[0] - current_state.px - current_state.v * config.dt) + 0.8 * (
        ref1[3] - current_state.v
    )
    r_fb = -0.8 * (current_state.py - ref1[1]) - 1.5 * wrap_angle(current_state.psi)
    return (
        float(np.clip(r_fb, -config.comfort_r, config.comfort_r)),
        float(np.clip(a_fb, -config.comfort_a, config.comfort_a)),
    )


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
    problems: Sequence[ControlProblem],
    prev_plans: Sequence[DmpcSolution | None],
    config: PlatoonConfig,
    rngs: Sequence[np.random.Generator],
) -> DmpcSolutions:
    """Candidate-search receding-horizon solve of independent control
    problems, with one call of each candidate kernel over all of them.

    Each problem gets a block of n_candidates rows: its previous plan
    shifted by one slot (zero input without one), zero input, max-brake,
    formation feedback, then Gaussian perturbations drawn from its own rng
    around the shifted plan and the feedback in turn. A problem with a
    previous plan also rejects candidates that deviate from the reference
    more than that plan does. Each problem takes the cheapest feasible row
    of its block; when none is feasible, the max-brake row, flagged as
    infeasible fallback.
    """
    if not problems:
        return DmpcSolutions()
    t, dt = config.horizon, config.dt
    n, c = len(problems), config.n_candidates
    batch = ControlBatch.build(problems, t)

    has_plan = np.array([plan is not None for plan in prev_plans], dtype=bool)
    base = np.zeros((n, t, INPUT_DIM))
    prev_states = np.zeros((n, t + 1, STATE_DIM))
    for f, plan in enumerate(prev_plans):
        if plan is not None:
            # warm start: drop the consumed first input and repeat the last one
            base[f, :-1] = plan.inputs[1:]
            base[f, -1] = plan.inputs[-1]
            prev_states[f] = plan.states
    # the slot-aligned previous plan's reference deviation over T-1 slots
    budgets = (
        config.weight_g
        * np.linalg.norm(prev_states[:, 1:t] - batch.references[:, : t - 1], axis=2)
    ).sum(axis=1)

    # formation feedback held constant over the horizon
    feedback = np.repeat(
        np.array(
            [formation_feedback_input(p.current_state, p.reference, config) for p in problems]
        )[:, None, :],
        t,
        axis=1,
    )
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

    states = rollout_candidates(np.repeat(batch.starts, c, axis=0), inputs, dt)
    references = np.repeat(batch.references, c, axis=0)
    safety = None
    if batch.safety is not None:
        safety = SafetyContext(
            batch.safety,
            np.repeat(batch.predecessors, c, axis=0),
            np.repeat(batch.has_predecessor, c),
        )
    feasible = feasibility_mask(
        states, inputs, config, safety,
        (references, np.repeat(budgets, c), np.repeat(has_plan, c)),
    ).reshape(n, c)
    costs = trajectory_costs(
        states, inputs, references, np.repeat(batch.targets, c, axis=0), config,
        np.repeat(batch.present, c, axis=0),
    ).reshape(n, c)

    solved = feasible.any(axis=1)
    masked = np.where(feasible, costs, np.inf)
    idx = np.where(solved, np.argmin(masked, axis=1), MAX_BRAKE_CANDIDATE)
    rows = np.arange(n) * c + idx
    chosen_inputs, chosen_states = inputs[rows], states[rows]
    # saturate at the actuator limits, as clamp_input does
    chosen_inputs[:, :, 0] = np.clip(chosen_inputs[:, :, 0], -config.r_max, config.r_max)
    chosen_inputs[:, :, 1] = np.clip(chosen_inputs[:, :, 1], -config.a_max, config.a_max)
    cost = np.where(solved, masked[np.arange(n), idx], np.inf)
    return DmpcSolutions(
        DmpcSolution(chosen_inputs[f], chosen_states[f], float(cost[f]), not solved[f])
        for f in range(n)
    )
