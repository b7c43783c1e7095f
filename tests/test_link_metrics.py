import math

import pytest
from hypothesis import given, strategies as st

import oracles
from dynaroute.link_metrics import (
    SD_CAP,
    MetricWeights,
    PathCandidate,
    neighbor_transmit_count,
    node_weight,
    relay_reliability,
    staying_time,
    vehicle_status,
)
from dynaroute.scheduling import SIGMA_SCORE_FLOOR, TopologySnapshot, path_score


def hop(numerator: float, prob: float) -> tuple:
    """Per-hop factors (staying time, delivery prob, node weight, mobility
    numerator) as TopologySnapshot.hop_factors caches them for path_score."""
    return (numerator, prob, 1.0, numerator)


def score(factors: list, sigma: float) -> float:
    """path_score of the chain 0 -> 1 -> ... -> n whose hops have the given
    factors and whose node speeds have population standard deviation sigma:
    exactly sigma for one hop (speeds 0 and 2 sigma), sigma up to rounding
    for two (speeds s - d, s, s + d with d = sigma * sqrt(3/2))."""
    n = len(factors)
    if n == 1:
        speeds = [0.0, 2.0 * sigma]
    elif n == 2:
        d = sigma * math.sqrt(1.5)
        speeds = [20.0 - d, 20.0, 20.0 + d]
    else:
        raise ValueError("one or two hops")
    topo = TopologySnapshot(
        positions={i: (0.0, 0.0) for i in range(n + 1)},
        speeds=dict(enumerate(speeds)),
        statuses={},
        links={},
        comm_range=300.0,
    )
    for u, f in enumerate(factors):
        topo._hop_cache[(u, u + 1, n)] = f
    return path_score(topo, tuple(range(n + 1)))


def test_vehicle_status_boundary_inclusive():
    assert vehicle_status(0, 5) == 1
    assert vehicle_status(5, 5) == 1
    assert vehicle_status(6, 5) == 0


def test_neighbor_transmit_count():
    assert neighbor_transmit_count([]) == 0
    assert neighbor_transmit_count([1, 1, 0]) == 2
    assert neighbor_transmit_count([1] * 7) == 7


def test_relay_reliability():
    assert relay_reliability(0, 0) == 1.0
    assert relay_reliability(3, 4) == 0.75
    assert relay_reliability(9, 9) == 1.0
    with pytest.raises(ValueError):
        relay_reliability(5, 4)


def test_staying_time():
    assert staying_time(300.0, 100.0, 20.0, 10.0) == pytest.approx(20.0)
    assert staying_time(300.0, 100.0, 15.0, 15.0) == SD_CAP
    assert staying_time(300.0, 300.0, 20.0, 10.0) == 0.0
    with pytest.raises(ValueError):
        staying_time(300.0, 301.0, 20.0, 10.0)


def test_velocity_variance():
    assert oracles.velocity_variance([10, 10, 10]) == 0.0
    assert oracles.velocity_variance([8, 12]) == pytest.approx(2.0)
    assert oracles.velocity_variance([17.3]) == 0.0


def test_node_weight():
    w = MetricWeights(0.4, 0.3, 0.3)
    assert node_weight(1, 2, 1.0, w, can_transmit=True) == pytest.approx(1.3)
    assert node_weight(1, 2, 1.0, w, can_transmit=False) == 1.0
    assert node_weight(1, 2, 1.0, MetricWeights(0, 0, 0), can_transmit=True) == 0.0


def test_path_score_single_hop_formula():
    # mobility numerator / speed dispersion x delivery prob, over one hop
    assert score([hop(26.0, 0.9)], 2.0) == pytest.approx(11.7)
    assert score([hop(26.0, 0.0)], 2.0) == 0.0


def test_path_value_annihilator_and_product():
    # delivery probabilities multiply along the path; the mobility terms
    # combine by geometric mean and the score is per channel use
    assert score([hop(26.0, 0.9), hop(26.0, 0.0)], 2.0) == 0.0
    total = score([hop(26.0, 0.9), hop(26.0, 0.9)], 2.0)
    assert total == pytest.approx(13.0 * 0.9 * 0.9 / 2)


def test_path_value_sigma_floor():
    one = score([hop(10.0, 1.0)], 0.0)
    assert one == pytest.approx(10.0 / SIGMA_SCORE_FLOOR)


@given(
    sd=st.floats(min_value=0.0, max_value=SD_CAP),
    p=st.floats(min_value=0.0, max_value=1.0),
    bump=st.floats(min_value=0.01, max_value=0.3),
    sigma=st.floats(min_value=0.01, max_value=10.0),
)
def test_path_value_monotonicity(sd, p, bump, sigma):
    base = score([hop(sd, p)], sigma)
    assert score([hop(sd, min(1.0, p + bump))], sigma) >= base
    assert score([hop(sd + bump, p)], sigma) >= base
    assert score([hop(sd, p)], sigma + bump) <= base


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=6),
)
def test_removing_sub_unit_hop_never_decreases_product(values):
    total = oracles.aggregate_hop_values(values)
    for i, v in enumerate(values):
        if v < 1.0:
            reduced = oracles.aggregate_hop_values(values[:i] + values[i + 1 :])
            assert reduced >= total - 1e-12


def test_path_candidate_validation():
    with pytest.raises(ValueError):
        PathCandidate(hops=(1,), path_value=0.0)
    with pytest.raises(ValueError):
        PathCandidate(hops=(1, 2, 1), path_value=1.0)
    with pytest.raises(ValueError):
        PathCandidate(hops=(1, 2), path_value=-1.0)
    cand = PathCandidate(hops=(1, 2), path_value=8.0)
    assert cand.hops == (1, 2) and cand.path_value == 8.0
