"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

The two-platoon scenario runs are expensive and shared module-wide; expect
several minutes of wall time for the full module.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from dynaroute.channel import ChannelParams, path_loss_los, slot_success_prob
from dynaroute.config import default_config
from dynaroute.harness import (
    compute_e2e_delay,
    compute_throughput,
    export,
    run,
)
from dynaroute.link_metrics import NodeStatus
from dynaroute.optimizer import (
    Individual,
    non_dominated_sort,
    reference_points,
)
from dynaroute.scheduling import (
    Packet,
    TopologySnapshot,
    check_feasible,
    solve_schedule_exact,
    solve_schedule_greedy,
)
from dynaroute.channel import LinkSnapshot
from oracles import dominates

N_SEEDS = 20
RUNTIME_TARGET_S = 60.0


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def scenario_runs():
    """20-seed dynaroute runs of both shipped cases, with wall times."""
    runs = {}
    for case in ("case1", "case2"):
        cfg = default_config(case)
        for seed in range(N_SEEDS):
            start = time.perf_counter()
            log = run(cfg, seed=seed, mode="dynaroute")
            runs[(case, seed)] = (cfg, log, time.perf_counter() - start)
    return runs


def test_safety_reproduction(scenario_runs):
    worst_gap = math.inf
    worst_time = 0.0
    for (case, seed), (_cfg, log, wall) in scenario_runs.items():
        assert not log.collision, f"collision in {case} seed {seed}"
        gaps = [r["gap_to_pred"] for r in log.rows if not math.isnan(r["gap_to_pred"])]
        assert min(gaps) > 0.0, f"gap <= 0 in {case} seed {seed}"
        worst_gap = min(worst_gap, min(gaps))
        worst_time = max(worst_time, wall)
        assert wall < RUNTIME_TARGET_S, f"{case} seed {seed} took {wall:.1f}s"
    _report(
        "safety reproduction (both cases, 20 seeds, min gap > 0)",
        True,
        f"worst gap {worst_gap:.2f} m, slowest run {worst_time:.1f}s",
    )


def test_acceleration_boundedness(scenario_runs):
    bounds = {"case1": 1.0, "case2": 2.0}
    worst = {"case1": 0.0, "case2": 0.0}
    for (case, seed), (cfg, log, _wall) in scenario_runs.items():
        follower = log.max_abs_follower_accel()
        worst[case] = max(worst[case], follower)
        assert follower <= bounds[case] * 1.1 + 1e-12, (case, seed, follower)
        assert log.max_abs_accel() <= 2.5 + 1e-12, (case, seed)
    _report(
        "acceleration boundedness (1/2 m/s^2 +10%; hard clamp 2.5)",
        True,
        f"worst case1 {worst['case1']:.3f}, case2 {worst['case2']:.3f}",
    )


def test_leader_kinematics(scenario_runs):
    cfg, log, _ = scenario_runs[("case1", 0)]
    tol = cfg.dt * cfg.platoon.a_max
    v = {r["slot"]: r["v"] for r in log.rows if r["vehicle_id"] == 0}
    gain_10 = v[99] - cfg.init_speed
    net_21 = v[209] - cfg.init_speed
    assert abs(gain_10 - 3.5) <= tol, gain_10
    assert abs(net_21 - (-1.0)) <= tol, net_21
    _report(
        "leader kinematics (+3.5 m/s by 10 s, -1.0 m/s by 21 s)",
        True,
        f"measured {gain_10:+.2f} and {net_21:+.2f} (tol {tol:.2f})",
    )


def test_throughput_delay_ordering():
    base = default_config("case1")
    results = {}
    for load in (2.0, 4.0):
        cfg = dataclasses.replace(
            base, traffic=dataclasses.replace(base.traffic, load=load)
        )
        wins = 0
        for seed in range(N_SEEDS):
            logs = {m: run(cfg, seed=seed, mode=m) for m in ("dynaroute", "baseline")}
            thr_ok = compute_throughput(logs["dynaroute"]) >= compute_throughput(
                logs["baseline"]
            )
            delay_ok = compute_e2e_delay(logs["dynaroute"]) <= compute_e2e_delay(
                logs["baseline"]
            )
            wins += thr_ok and delay_ok
        results[load] = wins
        assert wins >= int(0.8 * N_SEEDS), f"load {load}: only {wins}/{N_SEEDS} wins"
    _report(
        "throughput/delay ordering at the two highest loads (>=80% of seeds)",
        True,
        ", ".join(f"load {ld}: {w}/{N_SEEDS}" for ld, w in results.items()),
    )


def _brute_force_fronts(population):
    remaining = list(population)
    fronts = []
    while remaining:
        front = [
            p for p in remaining
            if not any(dominates(q, p) for q in remaining if q is not p)
        ]
        ids = {id(p) for p in front}
        remaining = [p for p in remaining if id(p) not in ids]
        fronts.append(front)
    return fronts


def test_sorting_oracle():
    rng = np.random.default_rng(505)
    for _trial in range(100):
        population = []
        for _ in range(64):
            ind = Individual(
                control_genes=np.zeros((0, 2, 2)), routing_genes=np.zeros(0, dtype=int)
            )
            ind.objective_y = float(rng.integers(0, 10))
            ind.objective_j = float(rng.integers(0, 10))
            ind.feasible = bool(rng.random() < 0.9)
            population.append(ind)
        fast = non_dominated_sort(population)
        slow = _brute_force_fronts(population)
        assert [sorted(map(id, f)) for f in fast] == [sorted(map(id, f)) for f in slow]
    _report("sorting oracle (100 populations of 64 vs brute force)", True)


def _mesh_topology(rng, n):
    positions = {i: (float(40 * i + rng.integers(0, 10)), float(6 * (i % 2))) for i in range(n)}
    speeds = {i: 14.0 + float(rng.random() * 3) for i in range(n)}
    links = {}
    for i, j in itertools.permutations(range(n), 2):
        if rng.random() < 0.85:
            links[(i, j)] = LinkSnapshot(
                distance=60.0, path_loss=90.0, sinr=25.0, rate=1e7,
                delivery_prob=float(0.4 + 0.6 * rng.random()),
            )
    return TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(n)},
        links=links, comm_range=300.0, path_cap=6,
    )


def test_scheduling_oracle():
    rng = np.random.default_rng(909)
    compared = 0
    for _trial in range(200):
        n = int(rng.integers(3, 5))
        topo = _mesh_topology(rng, n)
        packets = []
        for pid in range(int(rng.integers(0, 4))):
            src, dst = rng.choice(n, size=2, replace=False)
            packets.append(
                Packet(pid, int(rng.integers(0, 2)), int(rng.integers(1, 4)),
                       1e5, int(src), int(dst))
            )
        horizon = int(rng.integers(2, 5))
        channels = int(rng.integers(1, 3))
        try:
            exact = solve_schedule_exact(packets, topo, channels, horizon)
        except ValueError:
            continue
        greedy = solve_schedule_greedy(packets, topo, channels, horizon)
        assert check_feasible(exact, packets, topo, channels)
        assert check_feasible(greedy, packets, topo, channels)
        assert greedy.objective() <= exact.objective() + 1e-9
        compared += 1
    assert compared >= 150

    # independence-structured: disjoint node sets, ample channels
    equalities = 0
    for seed in range(20):
        rng2 = np.random.default_rng(1000 + seed)
        topo = _mesh_topology(rng2, 4)
        packets = [
            Packet(0, 0, 3, 1e5, 0, 1),
            Packet(1, 0, 3, 1e5, 2, 3),
        ]
        if (0, 1) not in topo.links or (2, 3) not in topo.links:
            continue
        exact = solve_schedule_exact(packets, topo, 2, 4)
        greedy = solve_schedule_greedy(packets, topo, 2, 4)
        assert greedy.objective() == pytest.approx(exact.objective(), rel=1e-9)
        equalities += 1
    assert equalities >= 10
    _report(
        "scheduling oracle (greedy <= exact on random instances; equality on "
        "independence-structured)",
        True,
        f"{compared} comparisons, {equalities} equality checks",
    )


def test_channel_properties():
    params = ChannelParams(bandwidth=1e7, tau_slot=0.1, varpi_linear=1e5)
    assert slot_success_prob(0.0, 5, params, 123.0) == 1.0

    rng = np.random.default_rng(7)
    for _ in range(1000):
        theta = float(rng.uniform(1e3, 2e5))
        n = int(rng.integers(1, 10))
        dist = float(rng.uniform(1.0, 300.0))
        base = slot_success_prob(theta, n, params, dist)
        assert 0.0 < base <= 1.0
        assert slot_success_prob(theta * 1.5, n, params, dist) < base
        assert slot_success_prob(theta, n + 1, params, dist) < base
        assert slot_success_prob(theta, n, params, dist * 1.5) < base

    doubling = 20.0 * math.log10(2.0)
    for d in (0.5, 3.0, 47.0, 1500.0):
        delta = path_loss_los(2 * d, params) - path_loss_los(d, params)
        assert abs(delta - doubling) <= 1e-9
    _report(
        "channel properties (theta=0 exact, monotone over 1000 triples, "
        "doubling adds 6.02 dB)",
        True,
    )


def test_reference_point_counts():
    nine = reference_points(9)
    assert len(nine.points) == 55
    one = reference_points(1)
    assert len(one.points) == 3
    vertex_set = {tuple(p) for p in one.points}
    assert vertex_set == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    _report("reference points (divisions=9 -> 55; divisions=1 -> 3 vertices)", True)


def test_export_determinism(tmp_path, scenario_runs):
    cfg, cached, _ = scenario_runs[("case1", 0)]
    fresh = run(cfg, seed=0, mode="dynaroute")
    export(cached, "csv", tmp_path / "a")
    export(fresh, "csv", tmp_path / "b")
    for name in ("trace.csv", "summary.csv", "packets.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _report("determinism (identical config/seed/mode -> byte-identical CSVs)", True)


def test_cbf_invariance(scenario_runs):
    checked = 0
    for (case, seed), (cfg, log, _wall) in scenario_runs.items():
        alpha = cfg.safety.alpha
        for pair, series in log.h_series.items():
            if not series or series[0] < 0:
                continue
            h0 = series[0]
            envelope = h0
            for k in range(1, len(series)):
                holds = series[k] - series[k - 1] >= -alpha * series[k - 1] - 1e-9
                if not holds:
                    break
                envelope *= 1.0 - alpha
                assert series[k] >= envelope - 1e-9, (case, seed, pair, k)
                assert series[k] >= -1e-9, (case, seed, pair, k)
                checked += 1
    assert checked > 0
    _report(
        "CBF invariance (h stays >= (1-alpha)^k h0 while the condition holds)",
        True,
        f"{checked} slot transitions checked",
    )
