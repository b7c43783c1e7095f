import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dynaroute.control as control_mod
import oracles
from dynaroute.control import (
    ControlProblem,
    DmpcSolution,
    NeighborRecord,
    NeighborView,
    PlatoonConfig,
    PredictedTrajectory,
    SafetyContext,
    build_control_problem,
    default_a_mat,
    extrapolate_states,
    predict_neighbor,
    propagate_state,
    rollout_candidates,
    self_deviation_ok,
    solve_dmpc,
    stage_cost,
    state_from_vector,
    state_vector,
)
from dynaroute.dynamics import ControlInput, SafetyParams, VehicleState


def make_config(**kw) -> PlatoonConfig:
    return PlatoonConfig(**kw)


def straight_traj(x0: float, v: float, horizon: int, dt: float) -> PredictedTrajectory:
    states = tuple(
        VehicleState(x0 + v * dt * k, 0.0, 0.0, v) for k in range(horizon + 1)
    )
    return PredictedTrajectory(states=states, inputs=(ControlInput(),) * horizon)


def formation_view(gap: float = 10.0, v: float = 15.0) -> NeighborView:
    leader = VehicleState(2 * gap, 0.0, 0.0, v)
    pred = VehicleState(gap, 0.0, 0.0, v)
    return NeighborView(
        records={
            0: NeighborRecord(
                state=leader, slot=0, delivered=True,
                offset=np.array([-2 * gap, 0.0, 0.0, 0.0]),
                is_reference_anchor=True,
            ),
            1: NeighborRecord(
                state=pred, slot=0, delivered=True,
                offset=np.array([-gap, 0.0, 0.0, 0.0]),
            ),
        }
    )


def test_stage_cost_perfect_formation_is_zero():
    cfg = make_config()
    ego = VehicleState(0, 0, 0, 15.0)
    neighbor = VehicleState(10.0, 0, 0, 15.0)
    cost = stage_cost(
        ControlInput(0, 0), ego, ego,
        [(neighbor, np.array([-10.0, 0, 0, 0]))], cfg,
    )
    assert cost == 0.0


def test_stage_cost_single_terms():
    cfg = make_config(weight_r=2.0, weight_f=0.0, weight_g=1.0)
    ego = VehicleState(0, 0, 0, 15.0)
    neighbor = VehicleState(9.0, 0, 0, 15.0)
    only_gap = stage_cost(
        ControlInput(0, 0), ego, ego, [(neighbor, np.array([-10.0, 0, 0, 0]))], cfg
    )
    assert only_gap == pytest.approx(1.0)
    only_input = stage_cost(ControlInput(0, 1.0), ego, ego, [], cfg)
    assert only_input == pytest.approx(2.0)


@given(dx=st.floats(-500, 500), dy=st.floats(-500, 500))
def test_stage_cost_translation_invariant(dx, dy):
    cfg = make_config()
    ego = VehicleState(3.0, 1.0, 0.05, 14.0)
    ref = VehicleState(4.0, 0.0, 0.0, 15.0)
    nb = VehicleState(12.0, 0.5, 0.0, 15.5)
    off = np.array([-10.0, 0, 0, 0])
    base = stage_cost(ControlInput(0.01, 0.4), ego, ref, [(nb, off)], cfg)

    def shift(s):
        return VehicleState(s.px + dx, s.py + dy, s.psi, s.v)

    moved = stage_cost(
        ControlInput(0.01, 0.4), shift(ego), shift(ref), [(shift(nb), off)], cfg
    )
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_self_deviation_cases():
    cfg = make_config(horizon=5)
    ref = straight_traj(0.0, 10.0, 5, cfg.dt)
    assert self_deviation_ok(ref, ref, gamma=1.0, config=cfg)  # zero deviation

    shifted = PredictedTrajectory(
        states=tuple(
            VehicleState(s.px + 1.0, s.py, s.psi, s.v) for s in ref.states
        ),
        inputs=ref.inputs,
    )
    # constant deviation: boundary at gamma=1, violated at gamma=2
    assert self_deviation_ok(shifted, ref, gamma=1.0, config=cfg)
    assert not self_deviation_ok(shifted, ref, gamma=2.0, config=cfg)


def test_propagate_state_identity_and_coupling():
    cfg = make_config()
    x = np.array([1.0, 2.0, 0.0, 10.0])
    xj = np.array([5.0, 2.0, 0.0, 11.0])
    ident = PlatoonConfig(a_mat=np.eye(4), f_mat=np.zeros((4, 2)))
    assert np.allclose(propagate_state(x, np.zeros(2), xj, 0, ident), x)
    assert np.allclose(propagate_state(x, np.zeros(2), xj, 1, ident), xj)
    # double integrator moves position by v*dt
    out = propagate_state(x, np.zeros(2), xj, 0, cfg)
    assert out[0] == pytest.approx(1.0 + 10.0 * cfg.dt)
    with pytest.raises(ValueError):
        propagate_state(x[:3], np.zeros(2), xj, 0, cfg)
    with pytest.raises(ValueError):
        propagate_state(x, np.zeros(2), xj, 2, cfg)


def test_default_a_mat_shape():
    a = default_a_mat(0.1)
    assert a.shape == (4, 4) and a[0, 3] == 0.1


def test_extrapolate_states_constant_velocity():
    out = extrapolate_states(VehicleState(0, 0, 0, 10.0), horizon=3, dt=0.1)
    assert np.allclose(out[:, 0], [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(out[:, 3], 10.0)


def solve(ego, view, cfg, seed):
    problem = build_control_problem(ego, view, cfg)
    return solve_dmpc([problem], [None], cfg, [np.random.default_rng(seed)])[0]


def test_build_control_problem_reference_and_predecessor():
    cfg = make_config()
    params = SafetyParams()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.now = 2  # both records are two slots stale
    problem = build_control_problem(ego, view, cfg, params)
    leader = predict_neighbor(view.records[0], view, cfg.horizon, cfg.dt)
    pred = predict_neighbor(view.records[1], view, cfg.horizon, cfg.dt)
    assert problem.current_state is ego
    assert np.array_equal(problem.reference, leader + view.records[0].offset[None, :])
    (leader_pred, leader_off), (pred_pred, pred_off) = problem.neighbors
    assert np.array_equal(leader_pred, leader) and np.array_equal(pred_pred, pred)
    assert leader_off is view.records[0].offset and pred_off is view.records[1].offset
    # the barrier partner is the predecessor, not the anchor
    assert problem.safety_ctx.params is params
    assert np.array_equal(problem.safety_ctx.predecessor, pred)
    assert build_control_problem(ego, view, cfg).safety_ctx is None


def test_build_control_problem_anchor_only_and_no_anchor():
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    # first follower: the leader is both the anchor and the barrier partner
    view = formation_view()
    del view.records[1]
    problem = build_control_problem(ego, view, cfg, SafetyParams())
    assert np.array_equal(problem.safety_ctx.predecessor, problem.neighbors[0][0])
    # no anchor: the reference is the vehicle's own extrapolation
    view = formation_view()
    del view.records[0]
    problem = build_control_problem(ego, view, cfg, SafetyParams())
    assert np.array_equal(problem.reference, extrapolate_states(ego, cfg.horizon, cfg.dt))
    assert np.array_equal(problem.safety_ctx.predecessor, problem.neighbors[0][0])
    empty = build_control_problem(ego, NeighborView(), cfg, SafetyParams())
    assert empty.neighbors == [] and empty.safety_ctx.predecessor is None


def test_solve_dmpc_predicts_no_neighbor_itself(monkeypatch):
    # every neighbor is predicted once, by build_control_problem
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.records[0].state = VehicleState(24.0, 0.0, 0.0, 17.0)
    problem = build_control_problem(ego, view, cfg, SafetyParams())
    expected = solve_dmpc([problem], [None], cfg, [np.random.default_rng(5)])[0]

    def forbidden(*args):
        raise AssertionError("solve_dmpc predicted a neighbor")

    monkeypatch.setattr(control_mod, "predict_neighbor", forbidden)
    monkeypatch.setattr(control_mod, "extrapolate_states", forbidden)
    out = solve_dmpc([problem], [None], cfg, [np.random.default_rng(5)])[0]
    assert np.array_equal(out.inputs, expected.inputs)
    assert np.array_equal(out.states, expected.states) and out.cost == expected.cost


def test_solve_dmpc_stationary_formation_zero_input():
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    out = solve(ego, view, cfg, 0)
    assert not out.infeasible_fallback
    assert out.first_input == ControlInput(0.0, 0.0)
    assert out.cost == pytest.approx(0.0, abs=1e-9)
    assert np.array_equal(out.states[0], state_vector(ego))


def test_solve_dmpc_first_input_is_first_planned_input():
    # receding horizon: the applied input is the plan's first input itself
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.records[0].state = VehicleState(24.0, 0.0, 0.0, 17.0)
    for seed in range(3):
        out = solve(ego, view, cfg, seed)
        assert out.first_input == ControlInput(*map(float, out.inputs[0]))


def test_solve_dmpc_follower_accelerates_behind_faster_leader():
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    # leader pulled ahead and speeding up: reference demands catching up
    view.records[0].state = VehicleState(24.0, 0.0, 0.0, 17.0)
    view.records[1].state = VehicleState(12.0, 0.0, 0.0, 16.0)
    out = solve(ego, view, cfg, 1)
    assert not out.infeasible_fallback
    assert out.first_input.a > 0.0


def test_solve_dmpc_cbf_forces_fallback():
    cfg = make_config()
    params = SafetyParams(w=2.0, l_w=4.0)
    ego = VehicleState(0.0, 0.0, 0.0, 20.0)
    # predecessor essentially on top of the ego and decelerating hard:
    # every candidate loses barrier value
    predecessor = extrapolate_states(VehicleState(2.0, 0.0, 0.0, 0.0), cfg.horizon, cfg.dt)
    problem = ControlProblem(
        current_state=ego,
        reference=extrapolate_states(ego, cfg.horizon, cfg.dt),
        neighbors=[],
        safety_ctx=SafetyContext(params=params, predecessor=predecessor),
    )
    out = solve_dmpc([problem], [None], cfg, [np.random.default_rng(2)])[0]
    assert out.infeasible_fallback
    assert out.first_input.a == pytest.approx(-cfg.comfort_a)


def test_solve_dmpc_deterministic_given_seed():
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.records[0].state = VehicleState(25.0, 0.0, 0.0, 16.5)
    a = solve(ego, view, cfg, 42)
    b = solve(ego, view, cfg, 42)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.states, b.states)
    assert a.cost == b.cost


def test_solve_dmpc_respects_comfort_bounds():
    cfg = make_config(comfort_a=1.0, comfort_r=0.1)
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.records[0].state = VehicleState(80.0, 0.0, 0.0, 25.0)
    out = solve(ego, view, cfg, 3)
    for r, a in out.inputs:
        assert abs(a) <= cfg.comfort_a + 1e-12
        assert abs(r) <= cfg.comfort_r + 1e-12


def random_dmpc_problem(rng, cfg: PlatoonConfig, params: SafetyParams) -> ControlProblem:
    """A follower's problem with 0-2 neighbors (anchor first, then the
    predecessor; either may be missing), stale records, with or without a
    barrier partner. Three rarer kinds probe the checks: no candidate can
    solve it (a stopped predecessor 2 m ahead of a fast ego); a vehicle
    standing at the origin without an anchor, whose reference is all zeros
    like a missing plan; and a corrupted (NaN) anchor beacon."""
    ego = VehicleState(
        rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2),
        rng.uniform(5.0, 25.0),
    )
    kind = rng.random()
    if kind < 0.15:
        stopped = VehicleState(ego.px + 2.0, ego.py, 0.0, 0.0)
        return ControlProblem(
            current_state=ego,
            reference=extrapolate_states(ego, cfg.horizon, cfg.dt),
            neighbors=[],
            safety_ctx=SafetyContext(params, extrapolate_states(stopped, cfg.horizon, cfg.dt)),
        )
    if kind < 0.25:
        ego = VehicleState(0.0, 0.0, 0.0, 0.0)
    view = NeighborView(now=3)
    for vid, is_anchor, gap in ((0, True, 20.0), (1, False, 10.0)):
        if rng.random() < 0.3 or (is_anchor and kind < 0.25):
            continue
        state = VehicleState(
            ego.px + gap + rng.normal(0.0, 2.0), ego.py + rng.normal(0.0, 0.3),
            rng.normal(0.0, 0.05), ego.v + rng.normal(0.0, 2.0),
        )
        if is_anchor and kind > 0.97:
            state = VehicleState(math.nan, state.py, state.psi, state.v)
        view.records[vid] = NeighborRecord(
            state=state, slot=int(rng.integers(0, 4)), delivered=True,
            offset=np.array([-gap, 0.0, 0.0, 0.0]), is_reference_anchor=is_anchor,
        )
    return build_control_problem(ego, view, cfg, params if rng.random() < 0.8 else None)


def random_plan(rng, cfg: PlatoonConfig, problem: ControlProblem) -> DmpcSolution:
    """A previous plan near the problem's start, off the reference by a
    random amount, so the deviation budget binds in some problems only."""
    inputs = np.stack([
        rng.uniform(-cfg.comfort_r, cfg.comfort_r, cfg.horizon),
        rng.uniform(-cfg.comfort_a, cfg.comfort_a, cfg.horizon),
    ], axis=1)
    states = rollout_candidates(problem.current_state, inputs[None], cfg.dt)[0]
    states[1:] += rng.normal(0.0, rng.uniform(0.0, 3.0), size=states[1:].shape)
    return DmpcSolution(inputs, states, 0.0)


def test_solve_dmpc_matches_single_problem_reference_exactly():
    # one batched solve per set equals the per-problem loop bit for bit
    rng = np.random.default_rng(2024)
    params = SafetyParams()
    seen = {"fallback_beside_feasible": 0, "plan": 0, "no_plan": 0, "no_predecessor": 0}
    for _trial in range(200):
        cfg = PlatoonConfig(
            horizon=int(rng.integers(2, 11)),
            n_candidates=int(rng.choice([4, 5, 17, 64])),
            comfort_a=float(rng.choice([1.0, 2.0])),
        )
        n = int(rng.integers(1, 7))
        problems = [random_dmpc_problem(rng, cfg, params) for _ in range(n)]
        plans = [random_plan(rng, cfg, p) if rng.random() < 0.5 else None for p in problems]
        seeds = rng.integers(0, 2**32, size=n)
        rngs = [np.random.default_rng(s) for s in seeds]
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        out = solve_dmpc(problems, plans, cfg, rngs)
        assert len(out) == n
        assert out.infeasible_fallback == sum(sol.infeasible_fallback for sol in out)
        for problem, plan, sol, rng_f, ref_rng in zip(problems, plans, out, rngs, ref_rngs):
            ref_inputs, ref_states, ref_cost, ref_fallback = oracles.solve_dmpc(
                problem,
                None if plan is None else plan.inputs,
                None if plan is None else plan.states,
                cfg,
                ref_rng,
            )
            assert sol.inputs.tobytes() == ref_inputs.tobytes()
            assert sol.states.tobytes() == ref_states.tobytes()
            assert type(sol.cost) is float
            assert sol.cost == ref_cost or (math.isnan(sol.cost) and math.isnan(ref_cost))
            assert sol.infeasible_fallback == ref_fallback
            assert rng_f.random() == ref_rng.random()
            seen["plan" if plan is not None else "no_plan"] += 1
            ctx = problem.safety_ctx
            seen["no_predecessor"] += ctx is None or ctx.predecessor is None
        flags = {sol.infeasible_fallback for sol in out}
        seen["fallback_beside_feasible"] += flags == {True, False}
    assert all(seen.values()), seen


def test_neighbor_view_receive_and_reset():
    view = formation_view()
    view.mark_slot_start()
    assert not view.any_delivered()
    view.receive(1, VehicleState(12.0, 0, 0, 15.0), slot=3)
    assert view.any_delivered()
    assert view.records[1].slot == 3
    with pytest.raises(ValueError):
        view.receive(1, VehicleState(12.0, 0, 0, 15.0), slot=2)


def test_batched_cost_matches_scalar_stage_cost():
    # the vectorized candidate cost must agree with summing the scalar op
    from dynaroute.control import neighbor_targets, trajectory_costs, rollout_candidates

    cfg = make_config(horizon=4)
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    rng = np.random.default_rng(7)
    inputs = rng.normal(scale=[0.05, 0.5], size=(3, cfg.horizon, 2))
    states = rollout_candidates(ego, inputs, cfg.dt)
    reference = extrapolate_states(VehicleState(1.0, 0.0, 0.0, 15.5), cfg.horizon, cfg.dt)
    nb = extrapolate_states(VehicleState(10.0, 0.0, 0.0, 15.0), cfg.horizon, cfg.dt)
    off = np.array([-10.0, 0.0, 0.0, 0.0])
    targets = neighbor_targets([(nb, off)], cfg.horizon)
    batched = trajectory_costs(states, inputs, reference, targets, cfg)
    for c in range(3):
        scalar = sum(
            stage_cost(
                ControlInput(*inputs[c, k]),
                state_from_vector(states[c, k + 1]),
                state_from_vector(reference[k + 1]),
                [(nb[k + 1], off)],
                cfg,
            )
            for k in range(cfg.horizon)
        )
        assert batched[c] == pytest.approx(scalar, rel=1e-9)


def test_predicted_trajectory_validation():
    with pytest.raises(ValueError):
        PredictedTrajectory(states=(VehicleState(0, 0, 0, 0),), inputs=(ControlInput(),))
    assert straight_traj(0, 10, 5, 0.1).horizon == 5


def test_state_vector_roundtrip():
    s = VehicleState(1.0, -2.0, 0.3, 12.5)
    assert state_from_vector(state_vector(s)) == s
