import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dynaroute.control as control_mod
import oracles
from dynaroute.control import (
    ControlBatch,
    DmpcSolution,
    NeighborRecord,
    NeighborView,
    PlatoonConfig,
    extrapolate_states,
    feasibility_mask,
    predict_neighbor,
    rollout_candidates,
    solve_dmpc,
    state_vector,
    trajectory_costs,
)
from dynaroute.dynamics import ControlInput, SafetyParams, VehicleState


def make_config(**kw) -> PlatoonConfig:
    return PlatoonConfig(**kw)


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
    cost = oracles.stage_cost(
        ControlInput(0, 0), ego, ego,
        [(neighbor, np.array([-10.0, 0, 0, 0]))], cfg,
    )
    assert cost == 0.0


def test_stage_cost_single_terms():
    cfg = make_config(weight_r=2.0, weight_f=0.0, weight_g=1.0)
    ego = VehicleState(0, 0, 0, 15.0)
    neighbor = VehicleState(9.0, 0, 0, 15.0)
    only_gap = oracles.stage_cost(
        ControlInput(0, 0), ego, ego, [(neighbor, np.array([-10.0, 0, 0, 0]))], cfg
    )
    assert only_gap == pytest.approx(1.0)
    only_input = oracles.stage_cost(ControlInput(0, 1.0), ego, ego, [], cfg)
    assert only_input == pytest.approx(2.0)


@given(dx=st.floats(-500, 500), dy=st.floats(-500, 500))
def test_stage_cost_translation_invariant(dx, dy):
    cfg = make_config()
    ego = VehicleState(3.0, 1.0, 0.05, 14.0)
    ref = VehicleState(4.0, 0.0, 0.0, 15.0)
    nb = VehicleState(12.0, 0.5, 0.0, 15.5)
    off = np.array([-10.0, 0, 0, 0])
    base = oracles.stage_cost(ControlInput(0.01, 0.4), ego, ref, [(nb, off)], cfg)

    def shift(s):
        return VehicleState(s.px + dx, s.py + dy, s.psi, s.v)

    moved = oracles.stage_cost(
        ControlInput(0.01, 0.4), shift(ego), shift(ref), [(shift(nb), off)], cfg
    )
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_self_deviation_cases():
    # the contraction form in feasibility_mask: a row's gamma-scaled
    # reference deviation over slots 1..T-1 must fit the previous plan's
    # budget; rows without a previous plan skip the check
    ego = VehicleState(0.0, 0.0, 0.0, 10.0)
    ref = extrapolate_states(ego, 5, 0.1)
    states = np.stack([ref, ref + np.array([1.0, 0.0, 0.0, 0.0])])
    inputs = np.zeros((2, 5, 2))

    def feasible(gamma, budget, has_budget=True):
        cfg = make_config(horizon=5, gamma=gamma)
        # no neighbors: the reference is the ego's own extrapolation
        rows = ControlBatch.build([ego, ego], [NeighborView(), NeighborView()], cfg, SafetyParams())
        deviation = (np.full(2, budget), np.array([has_budget, has_budget]))
        return feasibility_mask(states, inputs, rows, cfg, deviation).tolist()

    assert feasible(1.0, 0.0) == [True, False]  # zero deviation fits a zero budget
    # constant 1 m deviation over slots 1..4: boundary at gamma=1, violated at gamma=2
    assert feasible(1.0, 4.0) == [True, True]
    assert feasible(2.0, 4.0) == [True, False]
    assert feasible(2.0, 0.0, has_budget=False) == [True, True]


def test_extrapolate_states_constant_velocity():
    out = extrapolate_states(VehicleState(0, 0, 0, 10.0), horizon=3, dt=0.1)
    assert np.allclose(out[:, 0], [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(out[:, 3], 10.0)


def build(ego, view, cfg, params=None) -> ControlBatch:
    return ControlBatch.build([ego], [view], cfg, params or SafetyParams())


def solve(ego, view, cfg, seed):
    return solve_dmpc(build(ego, view, cfg), [None], cfg, [np.random.default_rng(seed)])[0]


def test_control_batch_reference_and_predecessor():
    cfg = make_config()
    params = SafetyParams(w=1.5)
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.now = 2  # both records are two slots stale
    batch = build(ego, view, cfg, params)
    leader = predict_neighbor(view.records[0], view, cfg.horizon, cfg.dt)
    pred = predict_neighbor(view.records[1], view, cfg.horizon, cfg.dt)
    assert np.array_equal(batch.starts, state_vector(ego)[None])
    assert np.array_equal(batch.references[0], leader + view.records[0].offset[None, :])
    # one target per neighbor, in view order: prediction over slots 1..T plus offset
    assert np.array_equal(batch.targets[0, 0], leader[1:] + view.records[0].offset)
    assert np.array_equal(batch.targets[0, 1], pred[1:] + view.records[1].offset)
    assert batch.present.tolist() == [[True, True]]
    # the barrier partner is the predecessor, not the anchor
    assert batch.has_predecessor.tolist() == [True]
    assert np.array_equal(batch.predecessors[0], pred)
    assert batch.safety is params


def test_control_batch_anchor_only_no_anchor_and_empty_view():
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    # first follower: the leader is both the anchor and the barrier partner
    anchor_only = formation_view()
    del anchor_only.records[1]
    # no anchor: the reference is the vehicle's own extrapolation
    no_anchor = formation_view()
    del no_anchor.records[0]
    batch = ControlBatch.build(
        [ego] * 3, [anchor_only, no_anchor, NeighborView()], cfg, SafetyParams()
    )
    leader = predict_neighbor(anchor_only.records[0], anchor_only, cfg.horizon, cfg.dt)
    pred = predict_neighbor(no_anchor.records[1], no_anchor, cfg.horizon, cfg.dt)
    assert np.array_equal(batch.predecessors[0], leader)
    assert np.array_equal(batch.references[1], extrapolate_states(ego, cfg.horizon, cfg.dt))
    assert np.array_equal(batch.predecessors[1], pred)
    assert np.array_equal(batch.targets[1, 0], pred[1:] + no_anchor.records[1].offset)
    # an empty view: own extrapolation, no partner and only padding
    assert np.array_equal(batch.references[2], extrapolate_states(ego, cfg.horizon, cfg.dt))
    assert batch.has_predecessor.tolist() == [True, True, False]
    assert batch.present.tolist() == [[True], [True], [False]]
    assert not batch.predecessors[2].any() and not batch.targets[2].any()
    empty = build(ego, NeighborView(), cfg)
    assert empty.targets.shape == (1, 0, cfg.horizon, 4) and empty.present.shape == (1, 0)


def test_control_batch_predicts_each_neighbor_once(monkeypatch):
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    views = [formation_view(), formation_view(gap=12.0)]
    del views[1].records[1]
    calls = []

    def counted(rec, view, horizon, dt):
        calls.append(rec)
        return predict_neighbor(rec, view, horizon, dt)

    monkeypatch.setattr(control_mod, "predict_neighbor", counted)
    ControlBatch.build([ego, ego], views, cfg, SafetyParams())
    records = [rec for view in views for rec in view.records.values()]
    assert len(calls) == len(records) and all(a is b for a, b in zip(calls, records))


def test_solve_dmpc_predicts_no_neighbor_itself(monkeypatch):
    # every neighbor is predicted once, by ControlBatch.build
    cfg = make_config()
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = formation_view()
    view.records[0].state = VehicleState(24.0, 0.0, 0.0, 17.0)
    batch = build(ego, view, cfg)
    expected = solve_dmpc(batch, [None], cfg, [np.random.default_rng(5)])[0]

    def forbidden(*args):
        raise AssertionError("solve_dmpc predicted a neighbor")

    monkeypatch.setattr(control_mod, "predict_neighbor", forbidden)
    monkeypatch.setattr(control_mod, "extrapolate_states", forbidden)
    out = solve_dmpc(batch, [None], cfg, [np.random.default_rng(5)])[0]
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
    view = NeighborView(records={
        1: NeighborRecord(
            state=VehicleState(2.0, 0.0, 0.0, 0.0), slot=0, delivered=True,
            offset=np.zeros(4),
        ),
    })
    out = solve_dmpc(build(ego, view, cfg, params), [None], cfg, [np.random.default_rng(2)])[0]
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


def random_dmpc_batch(rng, n: int, cfg: PlatoonConfig, params: SafetyParams) -> ControlBatch:
    """n followers' problems, each with 0-2 neighbors (anchor first, then
    the predecessor; either may be missing) and stale records; about a
    fifth of the rows lose their barrier partner. Three rarer kinds probe
    the checks: no candidate can solve it (a stopped predecessor 2 m ahead
    of a fast ego); a vehicle standing at the origin without an anchor,
    whose reference is all zeros like a missing plan; and a corrupted (NaN)
    anchor beacon."""
    states, views = [], []
    for _ in range(n):
        ego = VehicleState(
            rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2),
            rng.uniform(5.0, 25.0),
        )
        view = NeighborView(now=3)
        kind = rng.random()
        if kind < 0.15:
            view.records[1] = NeighborRecord(
                state=VehicleState(ego.px + 2.0, ego.py, 0.0, 0.0), slot=3, delivered=True,
                offset=np.array([-10.0, 0.0, 0.0, 0.0]),
            )
        else:
            if kind < 0.25:
                ego = VehicleState(0.0, 0.0, 0.0, 0.0)
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
        states.append(ego)
        views.append(view)
    batch = ControlBatch.build(states, views, cfg, params)
    dropped = rng.random(n) < 0.2
    batch.has_predecessor[dropped] = False
    batch.predecessors[dropped] = 0.0
    return batch


def random_plan(rng, cfg: PlatoonConfig, start: np.ndarray) -> DmpcSolution:
    """A previous plan from the (4,) start state, off the reference by a
    random amount, so the deviation budget binds in some problems only."""
    inputs = np.stack([
        rng.uniform(-cfg.comfort_r, cfg.comfort_r, cfg.horizon),
        rng.uniform(-cfg.comfort_a, cfg.comfort_a, cfg.horizon),
    ], axis=1)
    states = rollout_candidates(start[None], inputs[None], cfg.dt)[0]
    states[1:] += rng.normal(0.0, rng.uniform(0.0, 3.0), size=states[1:].shape)
    return DmpcSolution(inputs, states, 0.0)


def test_solve_dmpc_matches_single_problem_reference_exactly():
    # one batched solve per set equals the per-problem loop bit for bit
    rng = np.random.default_rng(2024)
    params = SafetyParams()
    seen = {"fallback_beside_feasible": 0, "plan": 0, "no_plan": 0, "no_predecessor": 0,
            "no_barrier": 0, "mixed_neighbor_counts": 0}
    for _trial in range(200):
        cfg = PlatoonConfig(
            horizon=int(rng.integers(2, 11)),
            n_candidates=int(rng.choice([4, 5, 17, 64])),
            comfort_a=float(rng.choice([1.0, 2.0])),
        )
        n = int(rng.integers(1, 7))
        batch = random_dmpc_batch(rng, n, cfg, params)
        plans = [
            random_plan(rng, cfg, start) if rng.random() < 0.5 else None for start in batch.starts
        ]
        seeds = rng.integers(0, 2**32, size=n)
        rngs = [np.random.default_rng(s) for s in seeds]
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        out = solve_dmpc(batch, plans, cfg, rngs)
        assert len(out) == n
        assert out.infeasible_fallback == sum(sol.infeasible_fallback for sol in out)
        for v, (plan, sol, rng_f, ref_rng) in enumerate(zip(plans, out, rngs, ref_rngs)):
            ref_inputs, ref_states, ref_cost, ref_fallback = oracles.solve_dmpc(
                batch, v,
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
            seen["no_predecessor"] += not batch.has_predecessor[v]
        flags = {sol.infeasible_fallback for sol in out}
        seen["fallback_beside_feasible"] += flags == {True, False}
        # no row has a partner, so the barrier is not evaluated
        seen["no_barrier"] += not batch.has_predecessor.any()
        seen["mixed_neighbor_counts"] += len(set(batch.present.sum(axis=1).tolist())) > 1
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
    # the vectorized candidate cost must agree with summing the scalar
    # reference stage cost
    cfg = make_config(horizon=4)
    ego = VehicleState(0.0, 0.0, 0.0, 15.0)
    view = NeighborView(records={
        0: NeighborRecord(
            state=VehicleState(11.0, 0.0, 0.0, 15.5), slot=0, delivered=True,
            offset=np.array([-10.0, 0.0, 0.0, 0.0]), is_reference_anchor=True,
        ),
        1: NeighborRecord(
            state=VehicleState(10.0, 0.0, 0.0, 15.0), slot=0, delivered=True,
            offset=np.array([-10.0, 0.0, 0.0, 0.0]),
        ),
    })
    rng = np.random.default_rng(7)
    inputs = rng.normal(scale=[0.05, 0.5], size=(3, cfg.horizon, 2))
    rows = build(ego, view, cfg).repeat(3)
    states = rollout_candidates(rows.starts, inputs, cfg.dt)
    batched = trajectory_costs(states, inputs, rows, cfg)
    reference = rows.references[0]
    neighbors = [
        (predict_neighbor(rec, view, cfg.horizon, cfg.dt), rec.offset)
        for rec in view.records.values()
    ]
    for c in range(3):
        scalar = sum(
            oracles.stage_cost(
                ControlInput(*inputs[c, k]),
                oracles.state_from_vector(states[c, k + 1]),
                oracles.state_from_vector(reference[k + 1]),
                [(pred[k + 1], off) for pred, off in neighbors],
                cfg,
            )
            for k in range(cfg.horizon)
        )
        assert batched[c] == pytest.approx(scalar, rel=1e-9)


def test_state_vector_roundtrip():
    s = VehicleState(1.0, -2.0, 0.3, 12.5)
    assert oracles.state_from_vector(state_vector(s)) == s
