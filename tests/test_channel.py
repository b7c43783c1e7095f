import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynaroute.channel import (
    ChannelParams,
    LinkState,
    LossKind,
    LossProcess,
    markov_step,
    path_loss_los,
    relative_distance,
    sample_delivery,
    shannon_rate,
    sinr_db,
    slot_success_prob,
)

DEFAULT = ChannelParams()


def test_path_loss_closed_form():
    params = ChannelParams(fc=5.9e9, eta_los=0.0)
    assert path_loss_los(100.0, params) == pytest.approx(87.85881241889156)
    # distance term vanishes at 1 m
    assert path_loss_los(1.0, params) == pytest.approx(47.85881241889156)
    with pytest.raises(ValueError):
        path_loss_los(0.0, params)


@given(d=st.floats(min_value=1e-3, max_value=1e5))
def test_path_loss_doubling_adds_6dB(d):
    delta = path_loss_los(2 * d, DEFAULT) - path_loss_los(d, DEFAULT)
    assert delta == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_sinr_is_exact_subtraction():
    assert sinr_db(0.0, 0.0, -96.0) == 96.0
    assert sinr_db(23.0, 87.86, -96.0) == pytest.approx(31.14)
    base = sinr_db(23.0, 80.0, -96.0)
    assert sinr_db(23.0, 86.0, -96.0) == pytest.approx(base - 6.0)


def test_shannon_rate_points():
    assert shannon_rate(5e6, 0.0) == pytest.approx(5e6)
    assert shannon_rate(10e6, 10.0) == pytest.approx(34594316.18637297)
    assert shannon_rate(1e6, -300.0) == pytest.approx(0.0, abs=1e-9)


@given(
    b=st.floats(min_value=1e3, max_value=1e8),
    s1=st.floats(min_value=-60, max_value=60),
    bump=st.floats(min_value=0.1, max_value=30),
)
def test_shannon_rate_monotone_and_linear_in_bandwidth(b, s1, bump):
    assert shannon_rate(b, s1 + bump) > shannon_rate(b, s1)
    assert shannon_rate(2 * b, s1) == pytest.approx(2 * shannon_rate(b, s1))


def test_relative_distance_triangles():
    assert relative_distance((0, 0), (0, 0), 50.0) == 50.0
    assert relative_distance((0, 0), (120, 0), 50.0) == pytest.approx(130.0)
    assert relative_distance((3, 4), (6, 8), 0.0) == pytest.approx(5.0)


def test_slot_success_prob_points():
    assert slot_success_prob(0.0, 5, DEFAULT, 100.0) == 1.0
    # unit plug-in: load exponent 1, varpi 1, L 1 -> exp(-1)
    params = ChannelParams(bandwidth=1e6, tau_slot=1.0, varpi_linear=1.0)
    assert slot_success_prob(1e6, 1, params, 1.0) == pytest.approx(math.exp(-1))


@given(
    theta=st.floats(min_value=1e3, max_value=2e5),
    n=st.integers(min_value=1, max_value=10),
    dist=st.floats(min_value=1.0, max_value=300.0),
)
def test_slot_success_prob_strictly_decreasing(theta, n, dist):
    params = ChannelParams(bandwidth=1e7, tau_slot=0.1, varpi_linear=1e5)
    base = slot_success_prob(theta, n, params, dist)
    assert 0.0 < base <= 1.0
    assert slot_success_prob(theta * 1.5, n, params, dist) < base
    assert slot_success_prob(theta, n + 1, params, dist) < base
    assert slot_success_prob(theta, n, params, dist * 1.5) < base


def test_sample_delivery_degenerate_probs():
    proc = LossProcess(kind=LossKind.BERNOULLI, rng_seed=7)
    assert all(sample_delivery(1.0, proc) == 1 for _ in range(100))
    assert all(sample_delivery(0.0, proc) == 0 for _ in range(100))


def test_sample_delivery_empirical_mean():
    proc = LossProcess(kind=LossKind.BERNOULLI, rng_seed=123)
    mean = np.mean([sample_delivery(0.7, proc) for _ in range(100_000)])
    assert mean == pytest.approx(0.7, abs=0.01)


def test_sample_delivery_reproducible():
    a = LossProcess(kind=LossKind.BERNOULLI, p_drop=0.2, rng_seed=9)
    b = LossProcess(kind=LossKind.BERNOULLI, p_drop=0.2, rng_seed=9)
    assert [sample_delivery(0.6, a) for _ in range(500)] == [
        sample_delivery(0.6, b) for _ in range(500)
    ]


def test_gilbert_elliott_bad_state_forces_loss():
    proc = LossProcess(
        kind=LossKind.GILBERT_ELLIOTT, p_good_to_bad=0.5, p_bad_to_good=0.5,
        state=LinkState.BAD, rng_seed=1,
    )
    assert sample_delivery(1.0, proc) == 0


def test_markov_step_absorbing_good():
    proc = LossProcess(kind=LossKind.GILBERT_ELLIOTT, p_good_to_bad=0.0, p_bad_to_good=0.3)
    for _ in range(1000):
        markov_step(proc)
    assert proc.state is LinkState.GOOD


def test_markov_step_stationary_fraction():
    proc = LossProcess(
        kind=LossKind.GILBERT_ELLIOTT, p_good_to_bad=0.5, p_bad_to_good=0.5, rng_seed=42
    )
    bad = 0
    for _ in range(100_000):
        markov_step(proc)
        bad += proc.state is LinkState.BAD
    assert bad / 100_000 == pytest.approx(0.5, abs=0.02)


def test_markov_step_deterministic_alternation():
    proc = LossProcess(kind=LossKind.GILBERT_ELLIOTT, p_good_to_bad=1.0, p_bad_to_good=1.0)
    seen = []
    for _ in range(6):
        markov_step(proc)
        seen.append(proc.state)
    assert seen == [LinkState.BAD, LinkState.GOOD] * 3


def test_markov_step_noop_on_bernoulli():
    proc = LossProcess(kind=LossKind.BERNOULLI, rng_seed=3)
    before = proc.state
    markov_step(proc)
    assert proc.state is before
