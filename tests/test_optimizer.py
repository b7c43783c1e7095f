import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from dynaroute import optimizer
from dynaroute.channel import LinkSnapshot
from dynaroute.control import ControlBatch, PlatoonConfig, extrapolate_states, state_vector
from dynaroute.dynamics import SafetyParams, VehicleState
from dynaroute.link_metrics import NodeStatus
from dynaroute.optimizer import (
    BOUNDARY_SENTINEL,
    GaParams,
    Individual,
    JointContext,
    best_of,
    crossover_mutate,
    crowding_distance,
    decode_schedule,
    evaluate_population,
    evolve,
    non_dominated_sort,
    rank_key,
    select_survivors,
    tournament_select,
)
from dynaroute.scheduling import Packet, TopologySnapshot
from oracles import dominates


def make_individual(j: float, feasible: bool = True) -> Individual:
    ind = Individual(control_genes=np.zeros((0, 2, 2)))
    ind.objective_j, ind.feasible = j, feasible
    return ind


def small_topology() -> TopologySnapshot:
    positions = {0: (0.0, 0.0), 1: (60.0, 0.0), 2: (120.0, 0.0)}
    speeds = {0: 15.0, 1: 15.5, 2: 16.0}
    links = {}
    for i, j in itertools.permutations(range(3), 2):
        links[(i, j)] = LinkSnapshot(
            distance=60.0, rate=1e7,
            delivery_prob=0.9 - 0.1 * abs(i - j),
        )
    return TopologySnapshot(
        positions=positions, speeds=speeds,
        statuses={i: NodeStatus() for i in range(3)},
        links=links, comm_range=300.0,
    )


def no_followers(cfg: PlatoonConfig) -> ControlBatch:
    return ControlBatch.build([], [], cfg, SafetyParams())


def one_follower(state: VehicleState, reference: np.ndarray, neighbor: np.ndarray) -> ControlBatch:
    """One follower at state tracking reference, 10 m behind one neighbor
    (predicted states), without a barrier partner."""
    return ControlBatch(
        starts=state_vector(state)[None],
        references=reference[None],
        predecessors=np.zeros((1,) + reference.shape),
        has_predecessor=np.zeros(1, dtype=bool),
        targets=(neighbor[1:] + np.array([-10.0, 0.0, 0.0, 0.0]))[None, None],
        present=np.ones((1, 1), dtype=bool),
        safety=SafetyParams(),
    )


def make_context(n_packets=2, with_vehicle=True, horizon=4) -> tuple:
    topo = small_topology()
    cfg = PlatoonConfig(horizon=horizon)
    packets = [Packet(i, 0, 6, 1e5, 0, 2) for i in range(n_packets)]
    candidates = [topo.candidate_paths(p.source, p.destination, 3) for p in packets]
    control = no_followers(cfg)
    if with_vehicle:
        control = one_follower(
            VehicleState(0.0, 0.0, 0.0, 15.0),
            extrapolate_states(VehicleState(1.0, 0.0, 0.0, 15.2), horizon, cfg.dt),
            extrapolate_states(VehicleState(10.0, 0.0, 0.0, 15.0), horizon, cfg.dt),
        )
    ctx = JointContext(
        platoon=cfg, control=control, packets=packets, candidates=candidates,
        n_channels=2, schedule_start=0, schedule_end=8,
    )
    return ctx, topo


# the brute-force reference: feasible-first domination on J (oracles.dominates)
def test_dominates_basic_cases():
    assert dominates(make_individual(1.0), make_individual(2.0))
    assert not dominates(make_individual(2.0), make_individual(1.0))
    assert not dominates(make_individual(1.0), make_individual(1.0))
    assert dominates(make_individual(1e9), make_individual(math.nan))
    assert not dominates(make_individual(math.nan), make_individual(math.nan))


def test_dominates_feasible_first():
    feas = make_individual(100.0, feasible=True)
    infeas = make_individual(0.0, feasible=False)
    assert dominates(feas, infeas)
    assert not dominates(infeas, feas)
    assert dominates(make_individual(math.nan), infeas)


@given(
    js=st.lists(st.sampled_from([0.0, 1.0, 2.0, math.inf, math.nan]), min_size=3, max_size=3),
    feasible=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_dominates_irreflexive_antisymmetric(js, feasible):
    inds = [make_individual(j, f) for j, f in zip(js, feasible)]
    for a in inds:
        assert not dominates(a, a)
        for b in inds:
            if dominates(a, b):
                assert not dominates(b, a)


@given(base_j=st.integers(0, 5), feasible=st.lists(st.booleans(), min_size=3, max_size=3))
def test_dominates_transitive_on_ordered_triples(base_j, feasible):
    # feasibility sorted so that no later member is feasible before an earlier one
    fa, fb, fc = sorted(feasible, reverse=True)
    a = make_individual(float(base_j), fa)
    b = make_individual(float(base_j + 1), fb)
    c = make_individual(float(base_j + 2), fc)
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
    # equal cost: one front, in index order
    tied = [make_individual(3.0) for _ in range(5)]
    assert non_dominated_sort(tied) == [tied]
    # distinct costs: a chain of single fronts by rising cost
    chain = [make_individual(float(-i)) for i in range(5)]
    fronts = non_dominated_sort(chain)
    assert fronts == [[ind] for ind in reversed(chain)]
    assert [ind.rank for ind in chain] == [4, 3, 2, 1, 0]


def test_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pop = [
            make_individual(float(rng.integers(0, 8)), feasible=bool(rng.random() < 0.9))
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
            make_individual(float(rng.integers(0, 4)), feasible=bool(rng.random() < 0.7))
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


def test_sort_ranks_nan_after_every_j_of_its_class():
    nan_feasible, nan_infeasible = make_individual(math.nan), make_individual(math.nan, False)
    low, high = make_individual(0.0), make_individual(math.inf)
    infeasible = make_individual(-1.0, False)
    other_nan = make_individual(math.nan)
    pop = [nan_infeasible, nan_feasible, high, infeasible, low, other_nan]
    fronts = non_dominated_sort(pop)
    # the feasible NaNs share one front, in index order, before any infeasible genome
    assert fronts == [[low], [high], [nan_feasible, other_nan], [infeasible], [nan_infeasible]]
    assert [ind.rank for ind in pop] == [4, 2, 1, 3, 0, 2]
    assert rank_key(nan_feasible) == rank_key(other_nan)


def test_crowding_small_fronts_get_sentinel():
    one = [make_individual(1.0)]
    assert crowding_distance(one) == [BOUNDARY_SENTINEL]
    assert one[0].crowding == BOUNDARY_SENTINEL
    front = [make_individual(1.0), make_individual(1.0)]
    dists = crowding_distance(front)
    assert dists == [BOUNDARY_SENTINEL, BOUNDARY_SENTINEL]
    with pytest.raises(ValueError):
        crowding_distance([])


def test_crowding_three_point_example():
    front = [make_individual(5.0) for _ in range(3)]
    dists = crowding_distance(front)
    assert dists == [BOUNDARY_SENTINEL, 0.0, BOUNDARY_SENTINEL]
    assert [ind.crowding for ind in front] == dists


def test_crowding_degenerate_front():
    # the members of a front tie on their key: only the ends are boundary members
    front = [make_individual(1.0) for _ in range(5)]
    dists = crowding_distance(front)
    assert dists == [BOUNDARY_SENTINEL, 0.0, 0.0, 0.0, BOUNDARY_SENTINEL]
    assert all(type(d) is float for d in dists)


def truncation_reference(merged: list, size: int) -> list:
    """The size best by key, each front in index order, the overflowing
    front taken as its first and last member, then the rest in order."""
    fronts = oracles.non_dominated_sort(merged)
    kept: list = []
    for front in fronts:
        room = size - len(kept)
        if len(front) <= room:
            kept.extend(front)
            continue
        ends = front[:1] + front[-1:] if len(front) > 1 else front
        kept.extend((ends + front[1:-1])[:room])
        break
    return kept


def test_truncation_keeps_the_best_keys_in_stable_order():
    rng = np.random.default_rng(77)
    seen = {"cut_front": 0, "cut_at_boundary": 0, "cut_after_ends": 0}
    for _ in range(300):
        merged = [
            make_individual(float(rng.integers(0, 5)), feasible=bool(rng.random() < 0.8))
            for _ in range(int(rng.integers(1, 40)))
        ]
        for ind in merged:
            ind.crowding = -1.0
        size = int(rng.integers(1, len(merged) + 2))
        kept = select_survivors(merged, size)
        assert [id(i) for i in kept] == [id(i) for i in truncation_reference(merged, size)]
        assert [rank_key(i) for i in kept] == sorted(map(rank_key, merged))[:size]
        # every member of a front that was reached got its crowding
        last = kept[-1].rank
        assert all(ind.crowding in (0.0, BOUNDARY_SENTINEL) for ind in merged if ind.rank <= last)
        tail = sum(ind.rank == last for ind in kept)
        cut = sum(ind.rank == last for ind in merged) > tail
        seen["cut_front"] += cut
        seen["cut_at_boundary"] += cut and tail == 2
        seen["cut_after_ends"] += cut and tail > 2
    assert min(seen.values()) > 20, seen


def test_tournament_select():
    pop = [make_individual(float(i)) for i in range(6)]
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
    a = make_individual(1.0)
    b2 = make_individual(3.0)  # dominated by a
    pop = [b2, a]
    non_dominated_sort(pop)
    for front in non_dominated_sort(pop):
        crowding_distance(front)
    assert tournament_select(pop, 2, np.random.default_rng(5)) is a


def test_crossover_mutate_zero_rates_copies_parents():
    params = GaParams(population=4, generations=1, crossover_rate=0.0, mutation_rate=0.0)
    pa = Individual(control_genes=np.ones((1, 3, 2)))
    pb = Individual(control_genes=np.zeros((1, 3, 2)))
    ca, cb = crossover_mutate(pa, pb, params, np.random.default_rng(0), (1.0, 1.0))
    assert np.array_equal(ca.control_genes, pa.control_genes)
    assert np.array_equal(cb.control_genes, pb.control_genes)
    assert ca.control_genes is not pa.control_genes


def test_crossover_identical_parents_fixed_point():
    params = GaParams(population=4, generations=1, crossover_rate=1.0, mutation_rate=0.0)
    pa = Individual(control_genes=np.full((1, 3, 2), 0.3))
    pb = Individual(control_genes=np.full((1, 3, 2), 0.3))
    ca, cb = crossover_mutate(pa, pb, params, np.random.default_rng(1), (1.0, 1.0))
    assert np.allclose(ca.control_genes, 0.3) and np.allclose(cb.control_genes, 0.3)


def test_mutation_keeps_control_in_bounds():
    params = GaParams(population=4, generations=1, crossover_rate=0.0, mutation_rate=1.0)
    pa = Individual(control_genes=np.zeros((1, 3, 2)))
    pb = Individual(control_genes=np.full((1, 3, 2), 0.05))
    for seed in range(20):
        ca, cb = crossover_mutate(
            pa, pb, params, np.random.default_rng(seed), control_bounds=(0.1, 1.0)
        )
        for child in (ca, cb):
            assert np.all(np.abs(child.control_genes[..., 0]) <= 0.1 + 1e-12)
            assert np.all(np.abs(child.control_genes[..., 1]) <= 1.0 + 1e-12)


def test_variation_draws_match_scalar_reference():
    # children and the generator's later random, integers and choice draws
    # must equal those of the control-only reference's one scalar draw per
    # gene, also when an earlier integers draw left half of a 64-bit word
    # buffered
    checked = 0
    for seed in range(40):
        meta = np.random.default_rng(seed)
        shape = (int(meta.integers(0, 4)), int(meta.integers(1, 5)), 2)
        pa = Individual(meta.uniform(-2.0, 2.0, shape))
        pb = Individual(meta.uniform(-2.0, 2.0, shape))
        for rate in (0.0, 0.1, 1.0):
            params = GaParams(crossover_rate=float(meta.choice([0.0, 0.9])), mutation_rate=rate)
            for buffered in (False, True):
                fast, slow = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
                if buffered:
                    fast.integers(0, 5), slow.integers(0, 5)
                got = crossover_mutate(pa, pb, params, fast, (0.5, 1.5))
                want = oracles.crossover_mutate(pa, pb, params, slow, (0.5, 1.5))
                for g, w in zip(got, want):
                    assert g.control_genes.shape == w.control_genes.shape
                    assert g.control_genes.tobytes() == w.control_genes.tobytes()
                assert fast.random() == slow.random()
                assert fast.integers(0, 1000) == slow.integers(0, 1000)
                assert (fast.choice(10, size=3, replace=False).tolist()
                        == slow.choice(10, size=3, replace=False).tolist())
                checked += 1
    assert checked == 40 * 3 * 2


def test_random_individual_draws_match_scalar_reference():
    for seed in range(20):
        ctx, _ = make_context(n_packets=4, with_vehicle=seed % 4 != 3, horizon=2 + seed % 5)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            fast.integers(0, 5), slow.integers(0, 5)
        got = optimizer.random_individual(ctx, fast)
        want = oracles.random_individual(ctx, slow)
        assert got.control_genes.shape == want.control_genes.shape
        assert got.control_genes.tobytes() == want.control_genes.tobytes()
        assert fast.random() == slow.random() and fast.integers(0, 9) == slow.integers(0, 9)


def test_evaluate_without_packets():
    ctx, _ = make_context(n_packets=0)
    ind = Individual(control_genes=np.zeros((1, ctx.platoon.horizon, 2)))
    evaluate_population([ind], ctx)
    assert ind.feasible and type(ind.objective_j) is float and ind.objective_j >= 0.0
    assert decode_schedule(ctx).route_assign == {}


def test_evaluate_perfect_formation_zero_cost():
    ctx, _ = make_context(n_packets=0)
    # align reference and neighbor exactly with the stationary rollout
    cfg = ctx.platoon
    ref = extrapolate_states(VehicleState(0.0, 0.0, 0.0, 15.0), cfg.horizon, cfg.dt)
    nb = extrapolate_states(VehicleState(10.0, 0.0, 0.0, 15.0), cfg.horizon, cfg.dt)
    ctx.control = one_follower(VehicleState(0.0, 0.0, 0.0, 15.0), ref, nb)
    ind = Individual(control_genes=np.zeros((1, cfg.horizon, 2)))
    evaluate_population([ind], ctx)
    assert ind.objective_j == pytest.approx(0.0, abs=1e-9)
    assert ind.feasible


def test_evaluate_matches_exact_scheduler_on_toy():
    # two packets on disjoint pairs with ample channels: the fit's summed
    # path value must equal the exhaustive maximizer's
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (10.0, 6.0), 3: (90.0, 6.0)}
    speeds = {0: 15.0, 1: 15.5, 2: 16.0, 3: 16.5}
    links = {
        (a, b): LinkSnapshot(
            distance=80.0, rate=1e7,
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
        platoon=PlatoonConfig(), control=no_followers(PlatoonConfig()), packets=packets,
        candidates=candidates, n_channels=2, schedule_start=0, schedule_end=4,
    )
    exact = oracles.solve_schedule_exact(packets, topo, n_channels=2, horizon=4, max_hops=2)
    routed = oracles.objective(decode_schedule(ctx))
    assert routed == pytest.approx(oracles.objective(exact), rel=1e-9)


def test_best_of_rules():
    solo = make_individual(1.0)
    assert best_of([solo]) is solo
    a, b = make_individual(3.0), make_individual(1.0)
    assert best_of([a, b]) is b
    # the champion rule prefers any feasible member, else picks among all
    e = make_individual(0.0, feasible=False)
    assert best_of([e, a]) is a
    assert best_of([make_individual(2.0, feasible=False), e]) is e
    # equal J: the lexicographically least genome, not the first in order
    c, d = make_individual(1.0), make_individual(1.0)
    c.control_genes, d.control_genes = np.full((1, 1, 2), 0.5), np.full((1, 1, 2), -0.5)
    assert best_of([c, d, make_individual(2.0)]) is d
    with pytest.raises(ValueError):
        best_of([])


def test_evolve_generations_zero_returns_initial_front():
    ctx, _ = make_context()
    params = GaParams(population=8, generations=0)
    front = evolve(ctx, params, 3)
    assert front
    assert all(ind.rank == 0 for ind in front)


def test_evolve_deterministic_and_bounded():
    ctx, topo = make_context()
    params = GaParams(population=8, generations=5)
    front_a = evolve(ctx, params, 9)
    front_b = evolve(ctx, params, 9)
    assert [i.genome_key() for i in front_a] == [i.genome_key() for i in front_b]
    assert len(front_a) <= params.population
    cfg = ctx.platoon
    for ind in front_a:
        assert np.all(np.abs(ind.control_genes[..., 0]) <= cfg.comfort_r + 1e-9)
        assert np.all(np.abs(ind.control_genes[..., 1]) <= cfg.comfort_a + 1e-9)
    decision = decode_schedule(ctx)
    assert oracles.check_feasible(
        decision, oracles.grants(decision), ctx.packets, topo, ctx.n_channels
    )


def test_evolve_best_j_never_increases():
    # the champion's J falls or stays while its feasibility stays; it can
    # rise only where an infeasible champion gives way to a feasible one
    rng = np.random.default_rng(3)
    seen = {"kept_feasibility": 0, "improved": 0}
    for seed in range(24):
        ctx = random_control_context(rng)
        params = GaParams(population=8, generations=12)
        initial = optimizer._initial_population(
            ctx, params, np.random.default_rng(np.random.SeedSequence(seed))
        )
        evaluate_population(initial, ctx)
        stats = {}
        front = evolve(ctx, params, seed, stats=stats)
        js = stats["best_j"]
        assert len(js) == params.generations
        champion = best_of(front)
        assert js[-1] == champion.objective_j
        if best_of(initial).feasible == champion.feasible:
            assert all(j2 <= j1 for j1, j2 in zip(js, js[1:]))
            assert js[0] <= best_of(initial).objective_j
            seen["kept_feasibility"] += 1
            seen["improved"] += js[-1] < js[0]
    assert min(seen.values()) > 5, seen


def test_evolve_champion_prefers_any_feasible_genome(monkeypatch):
    # J is the summed |gene| and only a narrow band of J is feasible, so
    # the infeasible zero genome (J = 0) is the first champion unless a
    # random genome lands in the band: the champion is the least feasible
    # J, turns feasible at most once, and best_j follows it
    def evaluate(individuals, ctx):
        for ind in individuals:
            ind.objective_j = float(np.abs(ind.control_genes).sum())
            ind.feasible = 1.0 < ind.objective_j < 1.2

    monkeypatch.setattr(optimizer, "evaluate_population", evaluate)
    seen = {"feasible": 0, "switched": 0}
    for seed in range(24):
        ctx, _ = make_context(n_packets=0)
        stats = {}
        front = evolve(ctx, GaParams(population=8, generations=10), seed, stats)
        champion = best_of(front)
        js = stats["best_j"]
        assert js[-1] == champion.objective_j
        if not champion.feasible:
            assert js == [0.0] * 10  # the zero genome throughout
            continue
        assert all(ind.feasible for ind in front)
        first = next(g for g, j in enumerate(js) if j > 0.0)
        assert js[:first] == [0.0] * first
        assert all(1.0 < j2 <= j1 < 1.2 for j1, j2 in zip(js[first:], js[first + 1:]))
        seen["feasible"] += 1
        seen["switched"] += first > 0
    assert seen["switched"] > 0 and seen["feasible"] > 10, seen


def test_evolve_degenerate_y_converges_to_min_j():
    ctx, _ = make_context(n_packets=0)  # no packets, nothing to route
    params = GaParams(population=8, generations=15)
    stats = {}
    front = evolve(ctx, params, 4, stats=stats)
    js = stats["best_j"]
    assert all(j2 <= j1 + 1e-9 for j1, j2 in zip(js, js[1:]))
    assert min(i.objective_j for i in front) <= js[0] + 1e-9


def test_evolve_leaves_the_routes_to_decode(monkeypatch):
    # no genome changes the routes: evolve never computes the
    # deadline-order fit, and the decode afterwards is the oracle's
    ctx, _ = make_context(n_packets=3)
    reads = []
    real_fit = optimizer.fit_deadline_order

    def counting_fit(*args):
        reads.append(args)
        return real_fit(*args)

    monkeypatch.setattr(optimizer, "fit_deadline_order", counting_fit)
    front = evolve(ctx, GaParams(population=8, generations=4), 1)
    assert front and reads == []
    decision = decode_schedule(ctx)
    assert len(reads) == 1 and decision.route_assign
    assert list(decision.route_assign.items()) == list(
        oracles.decode_schedule(ctx).route_assign.items()
    )


def random_decode_context(rng) -> tuple:
    """Random topology, packets and channel budget; the last node has no
    links, so packets to or from it have no candidates. In half of the
    contexts most packets share one linked (source, destination) pair, so
    they compete for the same links and some take a later candidate."""
    n = int(rng.integers(3, 7))
    positions = {i: (float(rng.uniform(0, 250)), float(rng.choice([0.0, 6.0]))) for i in range(n)}
    speeds = {i: float(rng.choice([15.0, 15.5, 16.0])) for i in range(n)}
    links = {
        (a, b): LinkSnapshot(
            distance=50.0, rate=1e7,
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
    hot_pair = rng.random() < 0.5
    pair = [int(x) for x in rng.choice(n - 1, size=2, replace=False)]
    packets, candidates = [], []
    for pid in ids[: int(rng.integers(0, 12))]:
        src, dst = (int(x) for x in rng.choice(n, size=2, replace=False))
        max_hops = int(rng.integers(1, 4))
        if hot_pair and rng.random() < 0.7:
            (src, dst), max_hops = pair, 3
        packets.append(
            Packet(int(pid), start + int(rng.integers(-3, 4)), int(rng.integers(1, 7)), 1e5,
                   src, dst)
        )
        cands = list(topo.candidate_paths(src, dst, max_hops))
        if cands and rng.random() < 0.3:
            cands.append(cands[0])  # a tied value later in candidate order
        candidates.append(cands)
    cfg = PlatoonConfig(horizon=2)
    ctx = JointContext(
        platoon=cfg, control=no_followers(cfg), packets=packets,
        candidates=candidates, n_channels=int(rng.integers(1, 4)),
        schedule_start=start, schedule_end=end,
    )
    return ctx, topo


def test_decode_matches_reference_decode_exactly():
    rng = np.random.default_rng(2025)
    seen = {"no_candidates": 0, "early_arrival": 0, "cut_by_end": 0, "later_option": 0,
            "routed": 0, "unrouted": 0}
    for _ in range(600):
        ctx, topo = random_decode_context(rng)
        decision = decode_schedule(ctx)
        reference = oracles.decode_schedule(ctx)
        assert list(decision.route_assign) == list(reference.route_assign)
        assert all(
            a is b
            for a, b in zip(decision.route_assign.values(), reference.route_assign.values())
        )
        assert oracles.check_feasible(
            decision, oracles.grants(decision), ctx.packets, topo, ctx.n_channels
        )
        first = {id(p): cands[0] for p, cands in zip(ctx.packets, ctx.candidates) if cands}
        by_id = {p.id: id(p) for p in ctx.packets}
        seen["later_option"] += sum(
            cand is not first[by_id[pid]] for (pid, _k0), cand in decision.route_assign.items()
        )
        seen["routed"] += len(decision.route_assign)
        seen["unrouted"] += len(first) - len(decision.route_assign)
        seen["no_candidates"] += sum(1 for c in ctx.candidates if not c)
        seen["early_arrival"] += sum(p.arrival_slot < ctx.schedule_start for p in ctx.packets)
        seen["cut_by_end"] += sum(p.last_slot >= ctx.schedule_end for p in ctx.packets)
    assert seen.pop("later_option") > 20 and min(seen.values()) > 50, seen


def test_decode_falls_back_to_a_later_candidate():
    # three packets 0 -> 2 with a two-slot window and two channels: the
    # best-valued candidate cannot carry all three, so one takes the other
    topo = small_topology()
    packets = [Packet(i, 0, 1, 1e5, 0, 2) for i in range(3)]
    cands = topo.candidate_paths(0, 2, 2)
    assert sorted(c.hops for c in cands) == [(0, 1, 2), (0, 2)]
    cfg = PlatoonConfig()
    ctx = JointContext(
        platoon=cfg, control=no_followers(cfg), packets=packets, candidates=[cands] * 3,
        n_channels=2, schedule_start=0, schedule_end=8,
    )
    decision = decode_schedule(ctx)
    assert len(decision.route_assign) == 3
    assert {id(c) for c in decision.route_assign.values()} == {id(c) for c in cands}
    assert list(decision.route_assign.items()) == list(
        oracles.decode_schedule(ctx).route_assign.items()
    )


def test_evolve_matches_reference_decode_and_sort(monkeypatch):
    rng = np.random.default_rng(8)
    contexts = [make_context(n_packets=3)[0]]
    for _ in range(4):
        ctx, _ = random_decode_context(rng)
        ctx.platoon = contexts[0].platoon
        ctx.control = contexts[0].control
        contexts.append(ctx)

    def summary(front, stats):
        return (
            [(i.genome_key(), i.objective_j, i.feasible, i.rank, i.crowding) for i in front],
            stats,
        )

    params = GaParams(population=8, generations=6)
    runs = []
    for ctx in contexts:
        seed = int(rng.integers(1 << 30))
        stats: dict = {}
        front = evolve(ctx, params, seed, stats)
        runs.append((ctx, seed, summary(front, stats), decode_schedule(ctx)))

    monkeypatch.setattr(optimizer, "evaluate_population", oracles.evaluate_population)
    monkeypatch.setattr(optimizer, "non_dominated_sort", oracles.non_dominated_sort)
    for ctx, seed, expected, decision in runs:
        stats = {}
        front = evolve(ctx, params, seed, stats)
        assert summary(front, stats) == expected
        reference = oracles.decode_schedule(ctx)
        assert list(decision.route_assign.items()) == list(reference.route_assign.items())


def random_control_context(rng) -> JointContext:
    """Followers spaced behind each other with 0-3 neighbors each, as
    ControlBatch arrays: the first neighbor, if any, anchors the reference,
    and about half the rows have a barrier partner, none in a quarter of
    the batches; close partners make the barrier bind for some genomes."""
    cfg = PlatoonConfig(horizon=int(rng.integers(2, 8)))
    t, dt = cfg.horizon, cfg.dt
    counts = rng.integers(0, 4, size=int(rng.integers(1, 6)))
    n = len(counts)
    no_barrier = rng.random() < 0.25
    starts = np.empty((n, 4))
    references = np.empty((n, t + 1, 4))
    predecessors = np.zeros((n, t + 1, 4))
    has_predecessor = np.zeros(n, dtype=bool)
    targets = np.zeros((n, int(counts.max()), t, 4))
    present = np.zeros((n, int(counts.max())), dtype=bool)
    for v, count in enumerate(counts):
        x = -12.0 * (v + 1) + float(rng.uniform(-3.0, 3.0))
        state = VehicleState(x, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.05, 0.05)),
                             float(rng.uniform(12.0, 18.0)))
        starts[v] = state_vector(state)
        references[v] = extrapolate_states(state, t, dt)
        for k in range(count):
            other = VehicleState(x + float(rng.uniform(5.0, 25.0)), float(rng.uniform(-1.0, 1.0)),
                                 0.0, float(rng.uniform(12.0, 18.0)))
            offset = np.array([-10.0, 0.0, 0.0, 0.0]) + rng.normal(scale=0.1, size=4)
            pred = extrapolate_states(other, t, dt)
            targets[v, k] = pred[1:] + offset
            present[v, k] = True
            if k == 0:
                references[v] = pred + offset
        if not no_barrier and rng.random() < 0.5:
            partner = VehicleState(x + float(rng.uniform(7.5, 14.0)), 0.0, 0.0,
                                   float(rng.uniform(8.0, 18.0)))
            predecessors[v] = extrapolate_states(partner, t, dt)
            has_predecessor[v] = True
    control = ControlBatch(starts, references, predecessors, has_predecessor, targets, present,
                           SafetyParams(w=2.0, l_w=4.0))
    return JointContext(platoon=cfg, control=control, packets=[], candidates=[])


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
        population.append(Individual(control_genes=genes))
    return population


def test_evaluate_population_matches_per_follower_reference_exactly():
    rng = np.random.default_rng(2026)
    seen = {"feasible": 0, "infeasible": 0, "no_barrier": 0, "no_predecessor": 0,
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
            seen["feasible" if ind.feasible else "infeasible"] += 1
        counts = set(ctx.control.present.sum(axis=1).tolist())
        has_predecessor = ctx.control.has_predecessor
        seen["mixed_neighbor_counts"] += len(counts) > 1
        seen["no_neighbors"] += 0 in counts
        # no row has a partner, so the barrier is not evaluated
        seen["no_barrier"] += not has_predecessor.any()
        seen["no_predecessor"] += has_predecessor.any() and not has_predecessor.all()
    assert min(seen.values()) > 30, seen
