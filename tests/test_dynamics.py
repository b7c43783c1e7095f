import math

import pytest
from hypothesis import given, strategies as st

from dynaroute.dynamics import (
    ControlInput,
    SafetyParams,
    VehicleState,
    cbf_condition_holds,
    clamp_input,
    safety_function,
    step,
    wrap_angle,
)

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
speeds = st.floats(min_value=0.0, max_value=60.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


def test_step_straight_motion():
    out = step(VehicleState(0, 0, 0.0, 1.0), ControlInput(0, 0), dt=1.0)
    assert out == VehicleState(1.0, 0.0, 0.0, 1.0)


def test_step_pure_y_motion():
    out = step(VehicleState(0, 0, math.pi / 2, 2.0), ControlInput(0, 0), dt=0.5)
    assert out.px == pytest.approx(0.0, abs=1e-12)
    assert out.py == pytest.approx(1.0)
    assert out.psi == pytest.approx(math.pi / 2)
    assert out.v == 2.0


def test_step_euler_from_rest():
    out = step(VehicleState(0, 0, 0, 0), ControlInput(r=0.1, a=2.5), dt=0.1)
    assert out.v == pytest.approx(0.25)
    assert out.psi == pytest.approx(0.01)
    assert out.px == 0.0 and out.py == 0.0


def test_step_rejects_bad_dt_and_state():
    with pytest.raises(ValueError):
        step(VehicleState(0, 0, 0, 0), ControlInput(), dt=0.0)
    with pytest.raises(ValueError):
        step(VehicleState(math.nan, 0, 0, 0), ControlInput(), dt=0.1)


@given(
    px=finite, py=finite, psi=angles, v=speeds,
    r=st.floats(-2, 2), a=st.floats(-5, 5),
    dt=st.floats(min_value=1e-3, max_value=1.0),
)
def test_step_preserves_finiteness_and_psi_range(px, py, psi, v, r, a, dt):
    out = step(VehicleState(px, py, psi, v), ControlInput(r, a), dt)
    assert out.is_finite()
    assert -math.pi < out.psi <= math.pi


def test_wrap_angle_branches():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.25) == 0.25


def test_clamp_input_interior_and_saturation():
    assert clamp_input(ControlInput(0, 0), 1.0, 2.5) == ControlInput(0, 0)
    assert clamp_input(ControlInput(9, -9), 1.0, 2.5) == ControlInput(1.0, -2.5)
    boundary = ControlInput(-0.3, 2.5)
    assert clamp_input(boundary, 1.0, 2.5) == boundary


@given(r=st.floats(-50, 50), a=st.floats(-50, 50))
def test_clamp_input_idempotent(r, a):
    once = clamp_input(ControlInput(r, a), 1.0, 2.5)
    assert clamp_input(once, 1.0, 2.5) == once


PARAMS = SafetyParams(w=2.0, l_w=4.0)


def test_safety_distance_modes():
    # only the following mode is left: D = |delta_p - l_w|, read back from
    # h = D^2 - (2W)^2; the old FOLLOWING case, D = 6 at 10 m, still holds
    def distance(p_i, p_f):
        return math.sqrt(safety_function(p_i, p_f, PARAMS) + (2.0 * PARAMS.w) ** 2)

    assert distance((0, 0), (10, 0)) == pytest.approx(6.0)
    assert distance((0, 0), (0, 10)) == pytest.approx(6.0)
    assert distance((0, 0), (1, 0)) == pytest.approx(3.0)
    assert distance((0, 0), (4, 0)) == pytest.approx(0.0)


def test_safety_function_values():
    # safety distance D = |10 - l_w| = 6, so h = 36 - (2W)^2
    h = safety_function((0, 0), (10, 0), PARAMS)
    assert h == pytest.approx(20.0)
    # boundary of the safe set: D = 2W
    h0 = safety_function((0, 0), (8, 0), PARAMS)
    assert h0 == pytest.approx(0.0)
    h_neg = safety_function((0, 0), (7, 0), PARAMS)
    assert h_neg == pytest.approx(-7.0)
    # planar distance, either side of l_w
    assert safety_function((1, 1), (4, 5), PARAMS) == pytest.approx(1.0 - 16.0)
    assert safety_function((0, 0), (0, 2), PARAMS) == pytest.approx(4.0 - 16.0)


def test_cbf_condition_cases():
    assert cbf_condition_holds(20.0, 20.0, 0.5)
    assert not cbf_condition_holds(9.0, 20.0, 0.5)
    assert cbf_condition_holds(10.0, 20.0, 0.5)
    # the same 1e-9 slack as the solver's feasibility check
    assert cbf_condition_holds(10.0 - 5e-10, 20.0, 0.5)
    assert not cbf_condition_holds(10.0 - 2e-9, 20.0, 0.5)
    with pytest.raises(ValueError):
        cbf_condition_holds(1.0, 1.0, 1.5)


@given(
    h0=st.floats(min_value=0.0, max_value=100.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    drops=st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=30),
)
def test_cbf_recursion_keeps_h_nonnegative(h0, alpha, drops):
    # any sequence satisfying the decrease condition stays >= (1-alpha)^k * h0;
    # drop fractions stay below 1 so float rounding cannot put a transition
    # infinitesimally past the exact constraint boundary
    h = h0
    for frac in drops:
        h_next = h - frac * alpha * h
        assert cbf_condition_holds(h_next, h, alpha)
        h = h_next
        assert h >= -1e-12
    assert h >= (1 - alpha) ** len(drops) * h0 - 1e-9
