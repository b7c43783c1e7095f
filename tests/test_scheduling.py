import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracles
from dynaroute.channel import LinkSnapshot
from dynaroute.control import ControlBatch, PlatoonConfig
from dynaroute.dynamics import SafetyParams
from dynaroute.link_metrics import NodeStatus
from dynaroute.optimizer import JointContext, decode_schedule
from dynaroute.scheduling import (
    Packet,
    ScheduleDecision,
    TopologySnapshot,
    _item_paths,
    _loop_free_hops,
    _search_items,
    enumerate_paths,
    path_scores,
)
from oracles import (
    check_feasible,
    grants,
    hop_slots,
    objective,
    solve_schedule_exact,
    solve_schedule_greedy,
)


def make_link(prob=0.9, rate=1e7) -> LinkSnapshot:
    return LinkSnapshot(distance=50.0, rate=rate, delivery_prob=prob)


def line_topology(n=3, spacing=50.0, probs=None) -> TopologySnapshot:
    """Chain 0-1-...-(n-1) with bidirectional links between adjacent nodes."""
    positions = {i: (i * spacing, 0.0) for i in range(n)}
    speeds = {i: 15.0 + 0.5 * i for i in range(n)}
    links = {}
    for i in range(n - 1):
        p = probs[i] if probs else 0.9
        links[(i, i + 1)] = make_link(p)
        links[(i + 1, i)] = make_link(p)
    return TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(n)},
        links=links, comm_range=300.0,
    )


def complete_topology(n=4) -> TopologySnapshot:
    positions = {i: (i * 40.0, (i % 2) * 6.0) for i in range(n)}
    speeds = {i: 14.0 + i for i in range(n)}
    links = {
        (i, j): make_link(0.8 + 0.02 * (i + j))
        for i, j in itertools.permutations(range(n), 2)
    }
    return TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(n)},
        links=links, comm_range=300.0,
    )


def test_enumerate_paths_line():
    topo = line_topology(3)
    cands = enumerate_paths(topo, 0, 2, max_hops=2)
    assert [c.hops for c in cands] == [(0, 1, 2)]


def test_enumerate_paths_includes_direct():
    topo = complete_topology(3)
    hops = [c.hops for c in enumerate_paths(topo, 0, 2, max_hops=2)]
    assert (0, 2) in hops


def test_enumerate_paths_complete_graph_count():
    topo = complete_topology(4)
    cands = enumerate_paths(topo, 0, 3, max_hops=3)
    assert len(cands) == 5  # direct, 2 one-relay, 2 two-relay


def test_enumerate_paths_no_route():
    topo = line_topology(3)
    topo.links.pop((1, 2))
    topo.links.pop((2, 1))
    assert enumerate_paths(topo, 0, 2, max_hops=3) == []


def test_replaced_snapshot_builds_its_own_caches():
    # a snapshot changed with dataclasses.replace must not answer from the
    # neighbor lists, link and destination tables, hop factors or paths
    # cached by the one it was made from
    topo = complete_topology(3)
    assert sorted(c.hops for c in topo.candidate_paths(0, 2, 2)) == [(0, 1, 2), (0, 2)]
    assert topo.candidate_paths(0, 2, 2, keep=1) == topo.candidate_paths(0, 2, 2)[:1]
    assert topo.toward(1).best_weighted[0] > 0.0  # via relay 2
    cut = dataclasses.replace(
        topo, links={key: link for key, link in topo.links.items() if key != (0, 2)}
    )
    assert cut.neighbors(0) == [1]
    assert (0, 2) not in cut.link_table and (0, 2) in topo.link_table
    assert cut.toward(1).best_weighted[0] == 0.0 and cut.toward(1).best_prob[0] == 0.0
    assert [c.hops for c in cut.candidate_paths(0, 2, 2)] == [(0, 1, 2)]
    assert [c.hops for c in cut.candidate_paths(0, 2, 2, keep=1)] == [(0, 1, 2)]
    assert (0, 2, 2) not in cut._hop_cache
    assert cut.candidate_paths(0, 2, 2) == oracles.candidate_paths(cut, 0, 2, 2)


def test_path_values_are_nonnegative_and_loop_free():
    topo = complete_topology(4)
    for cand in enumerate_paths(topo, 0, 3, max_hops=3):
        assert cand.path_value >= 0.0
        assert len(set(cand.hops)) == len(cand.hops)


def test_check_feasible_empty_and_conflicts():
    topo = line_topology(3)
    packets = [Packet(0, 0, 4, 1e5, 0, 2)]
    assert check_feasible(ScheduleDecision(), {}, packets, topo, n_channels=1)

    cand = topo.candidate_paths(0, 2, 3)[0]
    routed = ScheduleDecision(route_assign={(0, 0): cand})
    # routed but no grants: window usage exceeds granted channels
    assert not check_feasible(routed, {}, packets, topo, n_channels=1)

    plan = {(0, 0): (0, 1), (0, 1): (1, 2)}
    assert grants(routed) == plan
    assert check_feasible(routed, plan, packets, topo, n_channels=1)
    # boundary: grants exactly equal usage inside the window
    assert not check_feasible(routed, plan, packets, topo, n_channels=0)


def test_exact_single_packet_objective():
    topo = line_topology(2)
    packets = [Packet(0, 0, 3, 1e5, 0, 1)]
    out = solve_schedule_exact(packets, topo, n_channels=1, horizon=4)
    expected = topo.candidate_paths(0, 1, 3)[0].path_value
    assert objective(out) == pytest.approx(expected)
    assert check_feasible(out, grants(out), packets, topo, 1)


def test_exact_two_packets_one_channel_one_slot():
    topo = complete_topology(3)
    packets = [Packet(0, 0, 1, 1e5, 0, 2), Packet(1, 0, 1, 1e5, 1, 2)]
    out = solve_schedule_exact(packets, topo, n_channels=1, horizon=1)
    assert len(out.route_assign) == 1
    # only single-hop paths fit in one slot: the higher direct value wins
    values = {
        p.id: next(
            c.path_value
            for c in topo.candidate_paths(p.source, p.destination, 3)
            if len(c.hops) == 2
        )
        for p in packets
    }
    (chosen_pid, _), cand = next(iter(out.route_assign.items()))
    assert len(cand.hops) == 2
    assert values[chosen_pid] == max(values.values())


def test_exact_zero_packets():
    topo = line_topology(2)
    out = solve_schedule_exact([], topo, n_channels=1, horizon=2)
    assert objective(out) == 0.0
    assert out.route_assign == {} and grants(out) == {}


def test_exact_rejects_large_instance():
    topo = line_topology(2)
    packets = [Packet(i, 0, 2, 1e5, 0, 1) for i in range(4)]
    with pytest.raises(ValueError):
        solve_schedule_exact(packets, topo, n_channels=1, horizon=2)
    with pytest.raises(ValueError):
        solve_schedule_exact([], topo, n_channels=1, horizon=9)


def _random_instance(rng):
    n = int(rng.integers(3, 5))
    topo = complete_topology(n)
    # drop a few random directed links to vary structure
    for (i, j) in list(topo.links):
        if rng.random() < 0.2 and abs(i - j) > 1:
            topo.links.pop((i, j))
    n_pkts = int(rng.integers(0, 4))
    packets = []
    for pid in range(n_pkts):
        src, dst = rng.choice(n, size=2, replace=False)
        packets.append(
            Packet(pid, int(rng.integers(0, 2)), int(rng.integers(1, 4)), 1e5,
                   int(src), int(dst))
        )
    horizon = int(rng.integers(2, 5))
    n_channels = int(rng.integers(1, 3))
    topo.path_cap = 6
    return packets, topo, n_channels, horizon


def test_greedy_never_beats_exact_on_random_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        packets, topo, n_channels, horizon = _random_instance(rng)
        try:
            exact = solve_schedule_exact(packets, topo, n_channels, horizon)
        except ValueError:
            continue
        greedy = solve_schedule_greedy(packets, topo, n_channels, horizon)
        assert check_feasible(exact, grants(exact), packets, topo, n_channels)
        assert check_feasible(greedy, grants(greedy), packets, topo, n_channels)
        assert objective(greedy) <= objective(exact) + 1e-9
        checked += 1
    assert checked >= 150


def test_fit_never_beats_exact_on_random_instances():
    # the GA packets' best-value-first deadline fit, on the same instances
    rng = np.random.default_rng(2024)
    checked = routed = 0
    for _ in range(200):
        packets, topo, n_channels, horizon = _random_instance(rng)
        try:
            exact = solve_schedule_exact(packets, topo, n_channels, horizon)
        except ValueError:
            continue
        cfg = PlatoonConfig()
        ctx = JointContext(
            platoon=cfg, control=ControlBatch.build([], [], cfg, SafetyParams()),
            packets=packets,
            candidates=[topo.candidate_paths(p.source, p.destination, 3) for p in packets],
            n_channels=n_channels, schedule_start=0, schedule_end=horizon,
        )
        fitted = decode_schedule(ctx)
        assert check_feasible(fitted, grants(fitted), packets, topo, n_channels)
        assert objective(fitted) <= objective(exact) + 1e-9
        checked += 1
        routed += len(fitted.route_assign)
    assert checked >= 150 and routed > 100


def test_greedy_matches_exact_on_disjoint_packets():
    topo = line_topology(4)
    packets = [Packet(0, 0, 3, 1e5, 0, 1), Packet(1, 0, 3, 1e5, 2, 3)]
    exact = solve_schedule_exact(packets, topo, n_channels=2, horizon=4)
    greedy = solve_schedule_greedy(packets, topo, n_channels=2, horizon=4)
    assert objective(greedy) == pytest.approx(objective(exact))


def test_greedy_channel_starved_counts():
    topo = complete_topology(3)
    packets = [Packet(i, 0, 1, 1e5, 0, 2) for i in range(6)]
    out = solve_schedule_greedy(packets, topo, n_channels=1, horizon=2)
    assert len(out.route_assign) <= 1 * 2  # n_channels * horizon
    assert check_feasible(out, grants(out), packets, topo, 1)


def test_objective_invariant_under_packet_relabeling():
    topo = complete_topology(4)
    packets = [Packet(0, 0, 2, 1e5, 0, 3), Packet(1, 0, 2, 1e5, 1, 3)]
    relabeled = [Packet(7, 0, 2, 1e5, 0, 3), Packet(3, 0, 2, 1e5, 1, 3)]
    a = solve_schedule_greedy(packets, topo, 2, 3)
    b = solve_schedule_greedy(relabeled, topo, 2, 3)
    assert objective(a) == pytest.approx(objective(b))


def test_packets_never_scheduled_outside_window():
    rng = np.random.default_rng(77)
    for _ in range(50):
        packets, topo, n_channels, horizon = _random_instance(rng)
        out = solve_schedule_greedy(packets, topo, n_channels, horizon)
        by_id = {p.id: p for p in packets}
        for (pid, k0), cand in out.route_assign.items():
            p = by_id[pid]
            assert k0 >= p.arrival_slot
            last_tx = max(slot for _, slot in hop_slots(cand, k0))
            assert last_tx <= p.arrival_slot + p.deadline_slots


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(0, 0, 0, 1e5, 0, 1)
    with pytest.raises(ValueError):
        Packet(0, 0, 3, 0.0, 0, 1)


def random_scoring_topology(seed: int) -> TopologySnapshot:
    """Vehicles and RSU-style ids (repr order differs from numeric order),
    with repeated speeds and mirrored positions so that scores tie."""
    rng = np.random.default_rng(seed)
    nodes = [0, 1, 2, 3, 4, 1000, 1001][: int(rng.integers(3, 8))]
    positions = {}
    for n in nodes:
        x = float(rng.choice([0.0, 40.0, 80.0, 120.0, float(rng.uniform(0, 200))]))
        positions[n] = (x, float(rng.choice([0.0, 6.0, 10.0])))
    if len(set(positions.values())) < len(positions):
        positions = {n: (37.0 * k + float(rng.uniform(0, 1)), 0.0) for k, n in enumerate(nodes)}
    speeds = {n: (0.0 if n >= 1000 else float(rng.choice([15.0, 15.0, 16.5]))) for n in nodes}
    links = {
        (a, b): LinkSnapshot(
            distance=50.0, rate=1e7,
            delivery_prob=float(rng.choice([0.5, 0.9])),
        )
        for a, b in itertools.permutations(nodes, 2)
        if not (a >= 1000 and b >= 1000) and rng.random() < 0.8
    }
    statuses = {n: NodeStatus(queue_len=int(rng.integers(0, 7)), relayed_ok=1, relay_received=2)
                for n in nodes}
    return TopologySnapshot(
        positions=positions, speeds=speeds, statuses=statuses, links=links,
        comm_range=300.0, path_cap=int(rng.integers(1, 9)),
        lifetime_horizon=float(rng.choice([2.0, math.inf])),
    )


def test_candidate_paths_match_reference_scoring_exactly():
    compared = 0
    for seed in range(60):
        topo = random_scoring_topology(seed)
        reference_topo = random_scoring_topology(seed)
        for src, dst in itertools.permutations(sorted(topo.positions), 2):
            for max_hops in (1, 2, 3, 4):
                kept = topo.candidate_paths(src, dst, max_hops)
                assert kept == oracles.candidate_paths(reference_topo, src, dst, max_hops)
                compared += len(kept)
    assert compared > 1000


def test_enumerate_paths_lexicographic_in_node_repr():
    for seed in range(20):
        topo = random_scoring_topology(seed)
        reference_topo = random_scoring_topology(seed)
        for src, dst in itertools.permutations(sorted(topo.positions), 2):
            hops = [c.hops for c in enumerate_paths(topo, src, dst, 3)]
            assert hops == sorted(hops, key=lambda h: tuple(repr(n) for n in h))
            assert enumerate_paths(topo, src, dst, 3) == [
                oracles.build_path_candidate(reference_topo, h) for h in hops
            ]


def test_search_bounds_cover_every_path_and_its_score():
    # the search items split the loop-free paths between them, and no path
    # scores above the bound of its item, at any hop limit
    bounded = 0
    for seed in range(60):
        topo = random_scoring_topology(seed)
        for src, dst in itertools.permutations(sorted(topo.positions), 2):
            for max_hops in (1, 2, 3, 4):
                covered = []
                for bound, hops in _search_items(topo, src, dst, max_hops):
                    paths = _item_paths(topo, hops, dst, max_hops)
                    for score in path_scores(topo, paths):
                        assert score <= bound, (seed, hops, score, bound)
                    covered += paths
                    bounded += math.isfinite(bound) * len(paths)
                assert sorted(covered) == sorted(_loop_free_hops(topo, src, dst, max_hops))
    assert bounded > 10000


def test_keep_one_matches_reference_head_before_and_after_full_list():
    compared = 0
    for seed in range(60):
        reference_topo = random_scoring_topology(seed)
        alone, after_full = random_scoring_topology(seed), random_scoring_topology(seed)
        for src, dst in itertools.permutations(sorted(reference_topo.positions), 2):
            for max_hops in (1, 2, 3):
                head = oracles.candidate_paths(reference_topo, src, dst, max_hops)[:1]
                assert alone.candidate_paths(src, dst, max_hops, keep=1) == head
                full = after_full.candidate_paths(src, dst, max_hops)
                assert after_full.candidate_paths(src, dst, max_hops, keep=1) == head == full[:1]
                # answered from the cached full list, not searched again
                assert (src, dst, max_hops, 1) not in after_full._path_cache or after_full.path_cap == 1
                compared += len(head)
    assert compared > 500
