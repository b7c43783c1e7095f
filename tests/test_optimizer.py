import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from dynaroute import optimizer
from dynaroute.channel import LinkSnapshot
from dynaroute.control import ControlProblem, PlatoonConfig, SafetyContext, extrapolate_states
from dynaroute.dynamics import SafetyParams, VehicleState
from dynaroute.link_metrics import NodeStatus
from dynaroute.optimizer import (
    BOUNDARY_SENTINEL,
    GaParams,
    Individual,
    JointContext,
    crossover_mutate,
    crowding_distance,
    decode_schedule,
    evaluate_population,
    evolve,
    non_dominated_sort,
    reference_points,
    scalarize_select,
    tournament_select,
)
from dynaroute.scheduling import Packet, TopologySnapshot, check_feasible
from oracles import dominates


def make_individual(y: float, j: float, feasible: bool = True) -> Individual:
    ind = Individual(
        control_genes=np.zeros((0, 2, 2)), routing_genes=np.zeros(0, dtype=int)
    )
    ind.objective_y, ind.objective_j, ind.feasible = y, j, feasible
    return ind


def small_topology() -> TopologySnapshot:
    positions = {0: (0.0, 0.0), 1: (60.0, 0.0), 2: (120.0, 0.0)}
    speeds = {0: 15.0, 1: 15.5, 2: 16.0}
    links = {}
    for i, j in itertools.permutations(range(3), 2):
        links[(i, j)] = LinkSnapshot(
            distance=60.0, path_loss=90.0, sinr=25.0, rate=1e7,
            delivery_prob=0.9 - 0.1 * abs(i - j),
        )
    return TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(3)},
        links=links, comm_range=300.0,
    )


def routing_objective(ctx: JointContext, genes) -> float:
    """Y of a control-free genome with the given routing genes."""
    ind = Individual(
        control_genes=np.zeros((0, ctx.platoon.horizon, 2)),
        routing_genes=np.array(genes, dtype=int),
    )
    evaluate_population([ind], ctx)
    return ind.objective_y


def make_context(n_packets=2, with_vehicle=True, horizon=4) -> tuple:
    topo = small_topology()
    cfg = PlatoonConfig(horizon=horizon)
    packets = [Packet(i, 0, 6, 1e5, 0, 2) for i in range(n_packets)]
    candidates = [topo.candidate_paths(p.source, p.destination, 3) for p in packets]
    problems = []
    if with_vehicle:
        ref = extrapolate_states(VehicleState(1.0, 0.0, 0.0, 15.2), horizon, cfg.dt)
        nb = extrapolate_states(VehicleState(10.0, 0.0, 0.0, 15.0), horizon, cfg.dt)
        problems.append(
            ControlProblem(
                current_state=VehicleState(0.0, 0.0, 0.0, 15.0),
                reference=ref,
                neighbors=[(nb, np.array([-10.0, 0.0, 0.0, 0.0]))],
            )
        )
    ctx = JointContext(
        platoon=cfg, problems=problems, packets=packets, candidates=candidates,
        n_channels=2, schedule_start=0, schedule_end=8,
    )
    return ctx, topo


def test_dominates_basic_cases():
    assert dominates(make_individual(2, 1), make_individual(1, 2))
    assert not dominates(make_individual(2, 2), make_individual(1, 1))
    assert not dominates(make_individual(1, 1), make_individual(2, 2))
    assert not dominates(make_individual(1, 1), make_individual(1, 1))


def test_dominates_feasible_first():
    feas = make_individual(0.0, 100.0, feasible=True)
    infeas = make_individual(50.0, 0.0, feasible=False)
    assert dominates(feas, infeas)
    assert not dominates(infeas, feas)


@given(
    ys=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    js=st.lists(st.integers(0, 5), min_size=3, max_size=3),
)
def test_dominates_irreflexive_antisymmetric(ys, js):
    inds = [make_individual(float(y), float(j)) for y, j in zip(ys, js)]
    for a in inds:
        assert not dominates(a, a)
        for b in inds:
            if dominates(a, b):
                assert not dominates(b, a)


@given(base_y=st.integers(0, 5), base_j=st.integers(0, 5))
def test_dominates_transitive_on_ordered_triples(base_y, base_j):
    a = make_individual(float(base_y + 2), float(base_j))
    b = make_individual(float(base_y + 1), float(base_j + 1))
    c = make_individual(float(base_y), float(base_j + 2))
    assert dominates(a, b) and dominates(b, c)
    assert dominates(a, c)


def brute_force_fronts(population):
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


def test_sort_single_front_and_chain():
    # higher transmission value comes with higher control cost: one front
    trade = [make_individual(float(i), float(i)) for i in range(5)]
    assert len(non_dominated_sort(trade)) == 1
    # higher value with lower cost: a strictly ordered chain
    chain = [make_individual(float(i), float(-i)) for i in range(5)]
    fronts = non_dominated_sort(chain)
    assert [len(f) for f in fronts] == [1] * 5


def test_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pop = [
            make_individual(float(rng.integers(0, 8)), float(rng.integers(0, 8)),
                            feasible=bool(rng.random() < 0.9))
            for _ in range(64)
        ]
        fast = non_dominated_sort(pop)
        ranks = [ind.rank for ind in pop]
        slow = brute_force_fronts(pop)
        assert [sorted(map(id, f)) for f in fast] == [sorted(map(id, f)) for f in slow]
        # exact front order and ranks of the pairwise reference sort
        for ind in pop:
            ind.rank = -1
        reference = oracles.non_dominated_sort(pop)
        assert [list(map(id, f)) for f in fast] == [list(map(id, f)) for f in reference]
        assert ranks == [ind.rank for ind in pop]


def test_sort_matches_reference_order_with_ties_and_nan():
    rng = np.random.default_rng(5)
    for n in list(range(0, 6)) + [16, 32, 33, 64] * 20:
        pop = [
            make_individual(float(rng.integers(0, 4)), float(rng.integers(0, 4)),
                            feasible=bool(rng.random() < 0.7))
            for _ in range(n)
        ]
        for ind in pop:
            if rng.random() < 0.05:
                ind.objective_j = math.nan
        fast = non_dominated_sort(pop)
        ranks = [ind.rank for ind in pop]
        for ind in pop:
            ind.rank = -1
        reference = oracles.non_dominated_sort(pop)
        assert [list(map(id, f)) for f in fast] == [list(map(id, f)) for f in reference]
        assert ranks == [ind.rank for ind in pop]


def test_crowding_small_fronts_get_sentinel():
    front = [make_individual(1, 1), make_individual(2, 2)]
    dists = crowding_distance(front)
    assert dists == [BOUNDARY_SENTINEL, BOUNDARY_SENTINEL]


def test_crowding_three_point_example():
    front = [make_individual(0.0, 5.0), make_individual(1.0, 5.0), make_individual(2.0, 5.0)]
    dists = crowding_distance(front)
    assert dists[0] == BOUNDARY_SENTINEL and dists[2] == BOUNDARY_SENTINEL
    # middle: full span share on Y, zero-span J contributes nothing
    assert dists[1] == pytest.approx(1.0)


def test_crowding_degenerate_front():
    front = [make_individual(1.0, 1.0) for _ in range(4)]
    dists = crowding_distance(front)
    assert dists[0] == BOUNDARY_SENTINEL and dists[-1] == BOUNDARY_SENTINEL
    assert dists[1] == 0.0 and dists[2] == 0.0


def test_crowding_additive_fallback():
    front = [
        make_individual(0.0, 0.0), make_individual(1.0, 1.0), make_individual(2.0, 2.0)
    ]
    combined = crowding_distance(front, combined=True)
    additive = crowding_distance(front, combined=False)
    assert combined[1] == pytest.approx(0.0)  # 1.0 - 1.0
    assert additive[1] == pytest.approx(2.0)


def test_reference_points_counts():
    assert len(reference_points(1).points) == 3
    assert len(reference_points(9).points) == 55
    assert len(reference_points(10).points) == 66
    pts = reference_points(9).points
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert (pts >= 0).all()


def test_tournament_select():
    pop = [make_individual(float(i), 0.0) for i in range(6)]
    non_dominated_sort(pop)
    for front in non_dominated_sort(pop):
        crowding_distance(front)
    rng = np.random.default_rng(0)
    best = tournament_select(pop, k=len(pop), rng=rng)
    assert best.rank == 0
    # k=1 is a uniform draw: over many seeds more than one rank appears
    ranks = {tournament_select(pop, 1, np.random.default_rng(s)).rank for s in range(60)}
    assert len(ranks) > 1


def test_tournament_rank_order_wins():
    a, b = make_individual(2.0, 1.0), make_individual(1.0, 2.0)
    b2 = make_individual(0.5, 3.0)  # dominated by a
    pop = [a, b2]
    non_dominated_sort(pop)
    for front in non_dominated_sort(pop):
        crowding_distance(front)
    assert tournament_select(pop, 2, np.random.default_rng(5)) is a


def test_crossover_mutate_zero_rates_copies_parents():
    params = GaParams(population=4, generations=1, crossover_rate=0.0, mutation_rate=0.0)
    pa = Individual(control_genes=np.ones((1, 3, 2)), routing_genes=np.array([1, 2]))
    pb = Individual(control_genes=np.zeros((1, 3, 2)), routing_genes=np.array([0, 0]))
    ca, cb = crossover_mutate(pa, pb, params, np.random.default_rng(0))
    assert np.array_equal(ca.control_genes, pa.control_genes)
    assert np.array_equal(cb.routing_genes, pb.routing_genes)


def test_crossover_identical_parents_fixed_point():
    params = GaParams(population=4, generations=1, crossover_rate=1.0, mutation_rate=0.0)
    pa = Individual(control_genes=np.full((1, 3, 2), 0.3), routing_genes=np.array([2]))
    pb = Individual(control_genes=np.full((1, 3, 2), 0.3), routing_genes=np.array([2]))
    ca, cb = crossover_mutate(pa, pb, params, np.random.default_rng(1))
    assert np.allclose(ca.control_genes, 0.3) and np.allclose(cb.control_genes, 0.3)
    assert ca.routing_genes[0] == 2 and cb.routing_genes[0] == 2


def test_mutation_keeps_routing_in_range():
    params = GaParams(population=4, generations=1, crossover_rate=0.0, mutation_rate=1.0)
    pa = Individual(control_genes=np.zeros((1, 3, 2)), routing_genes=np.array([0, 0]))
    pb = Individual(control_genes=np.zeros((1, 3, 2)), routing_genes=np.array([1, 1]))
    for seed in range(20):
        ca, cb = crossover_mutate(
            pa, pb, params, np.random.default_rng(seed),
            control_bounds=(0.1, 1.0), routing_sizes=[3, 4],
        )
        for child in (ca, cb):
            assert 0 <= child.routing_genes[0] < 3
            assert 0 <= child.routing_genes[1] < 4
            assert np.all(np.abs(child.control_genes[..., 0]) <= 0.1 + 1e-12)
            assert np.all(np.abs(child.control_genes[..., 1]) <= 1.0 + 1e-12)


def test_evaluate_empty_routing_genome():
    ctx, _ = make_context(n_packets=0)
    ind = Individual(
        control_genes=np.zeros((1, ctx.platoon.horizon, 2)),
        routing_genes=np.zeros(0, dtype=int),
    )
    evaluate_population([ind], ctx)
    assert ind.objective_y == 0.0 and ind.feasible


def test_evaluate_perfect_formation_zero_cost():
    ctx, _ = make_context(n_packets=0)
    # align reference and neighbor exactly with the stationary rollout
    cfg = ctx.platoon
    ref = extrapolate_states(VehicleState(0.0, 0.0, 0.0, 15.0), cfg.horizon, cfg.dt)
    nb = extrapolate_states(VehicleState(10.0, 0.0, 0.0, 15.0), cfg.horizon, cfg.dt)
    ctx.problems = [
        ControlProblem(
            current_state=VehicleState(0.0, 0.0, 0.0, 15.0),
            reference=ref,
            neighbors=[(nb, np.array([-10.0, 0.0, 0.0, 0.0]))],
        )
    ]
    ind = Individual(
        control_genes=np.zeros((1, cfg.horizon, 2)), routing_genes=np.zeros(0, dtype=int)
    )
    evaluate_population([ind], ctx)
    assert ind.objective_j == pytest.approx(0.0, abs=1e-9)
    assert ind.feasible


def test_evaluate_matches_exact_scheduler_on_toy():
    from dynaroute.channel import LinkSnapshot
    from dynaroute.link_metrics import NodeStatus
    from dynaroute.scheduling import TopologySnapshot, solve_schedule_exact

    # two packets on disjoint pairs with ample channels: the decoded genome
    # objective must equal the exhaustive maximizer exactly
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (10.0, 6.0), 3: (90.0, 6.0)}
    speeds = {0: 15.0, 1: 15.5, 2: 16.0, 3: 16.5}
    links = {
        (a, b): LinkSnapshot(
            distance=80.0, path_loss=90.0, sinr=25.0, rate=1e7,
            delivery_prob=0.7 + 0.05 * a,
        )
        for a, b in itertools.permutations(range(4), 2)
    }
    topo = TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(4)},
        links=links, comm_range=300.0, path_cap=6,
    )
    packets = [Packet(0, 0, 3, 1e5, 0, 1), Packet(1, 0, 3, 1e5, 2, 3)]
    candidates = [topo.candidate_paths(p.source, p.destination, 2) for p in packets]
    ctx = JointContext(
        platoon=PlatoonConfig(), problems=[], packets=packets,
        candidates=candidates, n_channels=2, schedule_start=0, schedule_end=4,
    )
    exact = solve_schedule_exact(packets, topo, n_channels=2, horizon=4, max_hops=2)
    best_y = max(
        routing_objective(ctx, combo)
        for combo in itertools.product(*(range(s) for s in ctx.routing_gene_sizes()))
    )
    assert best_y == pytest.approx(exact.objective(), rel=1e-9)


def test_scalarize_select_rules():
    solo = make_individual(5.0, 1.0)
    assert scalarize_select([solo]) is solo
    a, b = make_individual(5.0, 1.0), make_individual(6.0, 3.0)
    assert scalarize_select([a, b]) is a  # 4 > 3
    c, d = make_individual(5.0, 1.0), make_individual(6.0, 2.0)
    assert scalarize_select([c, d]) is c  # equal Y-J, lower J wins


def test_evolve_generations_zero_returns_initial_front():
    ctx, _ = make_context()
    params = GaParams(population=8, generations=0, rng_seed=3)
    front = evolve(ctx, params)
    assert front
    assert all(ind.rank == 0 for ind in front)


def test_evolve_deterministic_and_bounded():
    ctx, topo = make_context()
    params = GaParams(population=8, generations=5, rng_seed=9)
    front_a = evolve(ctx, params)
    front_b = evolve(ctx, params)
    assert [i.genome_key() for i in front_a] == [i.genome_key() for i in front_b]
    assert len(front_a) <= params.population
    cfg = ctx.platoon
    for ind in front_a:
        assert np.all(np.abs(ind.control_genes[..., 0]) <= cfg.comfort_r + 1e-9)
        assert np.all(np.abs(ind.control_genes[..., 1]) <= cfg.comfort_a + 1e-9)
        decision = decode_schedule(ctx, ind.routing_genes)
        assert check_feasible(decision, ctx.packets, topo, ctx.n_channels)


def test_evolve_monotone_best_scalarized():
    ctx, _ = make_context()
    params = GaParams(population=8, generations=12, rng_seed=21)
    stats = {}
    evolve(ctx, params, stats=stats)
    best = stats["best_y_minus_j"]
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(best, best[1:]))


def test_evolve_degenerate_y_converges_to_min_j():
    ctx, _ = make_context(n_packets=0)  # Y identically zero
    params = GaParams(population=8, generations=15, rng_seed=4)
    stats = {}
    front = evolve(ctx, params, stats=stats)
    js = stats["best_j"]
    assert all(j2 <= j1 + 1e-9 for j1, j2 in zip(js, js[1:]))
    assert min(i.objective_j for i in front) <= js[0] + 1e-9


def test_evolve_finite_routing_space_matches_enumeration():
    ctx, _ = make_context(n_packets=2, with_vehicle=False)
    sizes = ctx.routing_gene_sizes()
    best_y = max(
        routing_objective(ctx, combo) for combo in itertools.product(*(range(s) for s in sizes))
    )
    params = GaParams(population=8, generations=50, rng_seed=1)
    front = evolve(ctx, params)
    front_best = max(i.objective_y for i in front)
    assert front_best == pytest.approx(best_y)


def random_decode_context(rng) -> tuple:
    """Random topology, packets and channel budget; the last node has no
    links, so packets to or from it have no candidates."""
    n = int(rng.integers(3, 7))
    positions = {i: (float(rng.uniform(0, 250)), float(rng.choice([0.0, 6.0]))) for i in range(n)}
    speeds = {i: float(rng.choice([15.0, 15.5, 16.0])) for i in range(n)}
    links = {
        (a, b): LinkSnapshot(
            distance=50.0, path_loss=90.0, sinr=25.0, rate=1e7,
            delivery_prob=float(rng.choice([0.6, 0.8, 0.9])),
        )
        for a, b in itertools.permutations(range(n - 1), 2)
        if rng.random() < 0.7
    }
    topo = TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(n)},
        links=links, comm_range=300.0, path_cap=int(rng.integers(1, 7)),
    )
    start = int(rng.integers(0, 4))
    end = start + int(rng.integers(1, 9))
    ids = rng.permutation(12)
    packets, candidates = [], []
    for pid in ids[: int(rng.integers(0, 12))]:
        src, dst = (int(x) for x in rng.choice(n, size=2, replace=False))
        packets.append(
            Packet(int(pid), start + int(rng.integers(-3, 4)), int(rng.integers(1, 7)), 1e5,
                   src, dst)
        )
        cands = list(topo.candidate_paths(src, dst, int(rng.integers(1, 4))))
        if cands and rng.random() < 0.3:
            cands.append(cands[0])  # tied path values at two gene values
        candidates.append(cands)
    ctx = JointContext(
        platoon=PlatoonConfig(horizon=2), problems=[], packets=packets,
        candidates=candidates, n_channels=int(rng.integers(1, 4)),
        schedule_start=start, schedule_end=end,
    )
    return ctx, topo


def random_routing_genes(ctx, rng) -> np.ndarray:
    # negative and out-of-range genes wrap modulo the candidate count
    return np.array([int(rng.integers(-3, s + 3)) for s in ctx.routing_gene_sizes()], dtype=int)


def test_decode_matches_reference_decode_exactly():
    rng = np.random.default_rng(2025)
    seen = {"no_candidates": 0, "early_arrival": 0, "cut_by_end": 0, "gene_wraps": 0,
            "routed": 0, "unrouted": 0}
    for _ in range(300):
        ctx, topo = random_decode_context(rng)
        population = []
        for _ in range(8):
            genes = random_routing_genes(ctx, rng)
            decision = decode_schedule(ctx, genes)
            reference = oracles.decode_schedule(ctx, genes)
            assert list(decision.route_assign) == list(reference.route_assign)
            assert all(
                a is b
                for a, b in zip(decision.route_assign.values(), reference.route_assign.values())
            )
            assert decision.channel_assign == reference.channel_assign
            assert check_feasible(decision, ctx.packets, topo, ctx.n_channels)
            population.append(
                Individual(control_genes=np.zeros((0, 2, 2)), routing_genes=genes)
            )
            sizes = ctx.routing_gene_sizes()
            seen["gene_wraps"] += any(g < 0 or g >= s for g, s in zip(genes, sizes))
            seen["routed"] += len(decision.route_assign)
            seen["unrouted"] += sum(1 for c in ctx.candidates if c) - len(decision.route_assign)
        evaluate_population(population, ctx)
        for ind in population:
            expected = oracles.decode_schedule(ctx, ind.routing_genes).objective()
            assert ind.objective_y == expected
            assert type(ind.objective_y) is type(expected)
        seen["no_candidates"] += sum(1 for c in ctx.candidates if not c)
        seen["early_arrival"] += sum(p.arrival_slot < ctx.schedule_start for p in ctx.packets)
        seen["cut_by_end"] += sum(p.last_slot >= ctx.schedule_end for p in ctx.packets)
    assert min(seen.values()) > 50, seen


def test_evolve_matches_reference_decode_and_sort(monkeypatch):
    rng = np.random.default_rng(8)
    contexts = [make_context(n_packets=3)[0]]
    for _ in range(4):
        ctx, _ = random_decode_context(rng)
        ctx.platoon = contexts[0].platoon
        ctx.problems = contexts[0].problems
        contexts.append(ctx)

    def summary(front, stats):
        return (
            [(i.genome_key(), i.objective_y, i.objective_j, i.feasible, i.rank, i.crowding)
             for i in front],
            stats,
        )

    runs = []
    for ctx in contexts:
        params = GaParams(population=8, generations=6, rng_seed=int(rng.integers(1 << 30)))
        stats: dict = {}
        front = evolve(ctx, params, stats)
        champion = scalarize_select([i for i in front if i.feasible] or front)
        decision = decode_schedule(ctx, champion.routing_genes)
        runs.append((ctx, params, summary(front, stats), decision))

    real_evaluate = optimizer.evaluate_population

    def reference_evaluate(individuals, ctx):
        real_evaluate(individuals, ctx)
        for ind in individuals:
            ind.objective_y = oracles.decode_schedule(ctx, ind.routing_genes).objective()

    monkeypatch.setattr(optimizer, "evaluate_population", reference_evaluate)
    monkeypatch.setattr(optimizer, "non_dominated_sort", oracles.non_dominated_sort)
    for ctx, params, expected, decision in runs:
        stats = {}
        front = evolve(ctx, params, stats)
        assert summary(front, stats) == expected
        champion = scalarize_select([i for i in front if i.feasible] or front)
        reference = oracles.decode_schedule(ctx, champion.routing_genes)
        assert list(decision.route_assign.items()) == list(reference.route_assign.items())


def random_control_context(rng) -> JointContext:
    """Followers spaced behind each other with 0-3 neighbors each and a
    barrier partner that may be missing (no safety context, or one without
    a predecessor); close partners make the barrier bind for some genomes."""
    cfg = PlatoonConfig(horizon=int(rng.integers(2, 8)))
    t, dt = cfg.horizon, cfg.dt
    params = SafetyParams(w=2.0, l_w=4.0)
    problems = []
    for v in range(int(rng.integers(1, 6))):
        x = -12.0 * (v + 1) + float(rng.uniform(-3.0, 3.0))
        state = VehicleState(x, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.05, 0.05)),
                             float(rng.uniform(12.0, 18.0)))
        neighbors = []
        for _ in range(int(rng.integers(0, 4))):
            other = VehicleState(x + float(rng.uniform(5.0, 25.0)), float(rng.uniform(-1.0, 1.0)),
                                 0.0, float(rng.uniform(12.0, 18.0)))
            offset = np.array([-10.0, 0.0, 0.0, 0.0]) + rng.normal(scale=0.1, size=4)
            neighbors.append((extrapolate_states(other, t, dt), offset))
        if neighbors:
            reference = neighbors[0][0] + neighbors[0][1][None, :]
        else:
            reference = extrapolate_states(state, t, dt)
        kind = int(rng.integers(0, 4))
        if kind == 0:
            safety_ctx = None
        elif kind == 1:
            safety_ctx = SafetyContext(params, None)
        else:
            partner = VehicleState(x + float(rng.uniform(7.5, 14.0)), 0.0, 0.0,
                                   float(rng.uniform(8.0, 18.0)))
            safety_ctx = SafetyContext(params, extrapolate_states(partner, t, dt))
        problems.append(ControlProblem(state, reference, neighbors, safety_ctx))
    return JointContext(platoon=cfg, problems=problems, packets=[], candidates=[])


def random_control_population(ctx: JointContext, rng) -> list:
    # genes up to 1.6x the actuator limits, so box bounds reject some genomes
    cfg = ctx.platoon
    population = []
    for _ in range(int(rng.integers(1, 12))):
        genes = np.empty((ctx.n_vehicles, cfg.horizon, 2))
        genes[..., 0] = rng.uniform(-1.6 * cfg.r_max, 1.6 * cfg.r_max, size=genes.shape[:2])
        genes[..., 1] = rng.uniform(-1.6 * cfg.a_max, 1.6 * cfg.a_max, size=genes.shape[:2])
        if rng.random() < 0.5:
            genes = np.clip(genes, [-cfg.comfort_r, -cfg.comfort_a], [cfg.comfort_r, cfg.comfort_a])
        population.append(Individual(control_genes=genes, routing_genes=np.zeros(0, dtype=int)))
    return population


def test_evaluate_population_matches_per_follower_reference_exactly():
    rng = np.random.default_rng(2026)
    seen = {"feasible": 0, "infeasible": 0, "no_safety_ctx": 0, "no_predecessor": 0,
            "mixed_neighbor_counts": 0, "no_neighbors": 0}
    for _ in range(200):
        ctx = random_control_context(rng)
        population = random_control_population(ctx, rng)
        reference = [ind.copy() for ind in population]
        evaluate_population(population, ctx)
        oracles.evaluate_population(reference, ctx)
        for ind, ref in zip(population, reference):
            assert ind.objective_j == ref.objective_j and type(ind.objective_j) is float
            assert ind.feasible == ref.feasible and type(ind.feasible) is bool
            assert ind.indicators == ref.indicators
            assert all(type(x) is float for x in ind.indicators)
            seen["feasible" if ind.feasible else "infeasible"] += 1
        counts = {len(p.neighbors) for p in ctx.problems}
        seen["mixed_neighbor_counts"] += len(counts) > 1
        seen["no_neighbors"] += 0 in counts
        seen["no_safety_ctx"] += any(p.safety_ctx is None for p in ctx.problems)
        seen["no_predecessor"] += any(
            p.safety_ctx is not None and p.safety_ctx.predecessor is None for p in ctx.problems
        )
    assert min(seen.values()) > 30, seen


def test_control_batch_needs_shared_safety_params():
    ctx = random_control_context(np.random.default_rng(3))
    t, dt = ctx.platoon.horizon, ctx.platoon.dt
    pred = extrapolate_states(VehicleState(10.0, 0.0, 0.0, 15.0), t, dt)
    problem = ctx.problems[0]
    for w in (2.0, 2.5):
        ctx.problems.append(ControlProblem(problem.current_state, problem.reference, [],
                                           SafetyContext(SafetyParams(w=w), pred)))
    with pytest.raises(ValueError):
        ctx.control_batch


def test_niche_truncate_matches_reference_exactly():
    rng = np.random.default_rng(77)
    seen = {"tied_indicators": 0, "tied_crowding": 0, "degenerate_axis": 0, "partial": 0}
    for _ in range(400):
        ref_pts = reference_points(int(rng.integers(1, 10)))
        # few distinct values per indicator, so members share coordinates
        levels = [rng.uniform(0.0, 2.0, size=int(rng.integers(1, 4))) for _ in range(3)]

        def member():
            ind = make_individual(0.0, 0.0)
            ind.indicators = tuple(float(rng.choice(level)) for level in levels)
            ind.crowding = float(rng.choice([0.0, 0.25, BOUNDARY_SENTINEL, rng.uniform(-1, 1)]))
            return ind

        front = [member() for _ in range(int(rng.integers(1, 24)))]
        selected = [member() for _ in range(int(rng.integers(0, 24)))]
        k = int(rng.integers(0, len(front) + 2))
        picks = optimizer._niche_truncate(front, k, ref_pts, selected)
        expected = oracles.niche_truncate(front, k, ref_pts, selected)
        assert [id(ind) for ind in picks] == [id(ind) for ind in expected]
        everyone = selected + front
        seen["tied_indicators"] += len({i.indicators for i in everyone}) < len(everyone)
        seen["tied_crowding"] += len({i.crowding for i in front}) < len(front)
        seen["degenerate_axis"] += any(len(level) == 1 for level in levels)
        seen["partial"] += 0 < k < len(front)
    assert min(seen.values()) > 50, seen
