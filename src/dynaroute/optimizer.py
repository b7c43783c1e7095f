"""NSGA-II over joint control/routing genomes: feasible-first domination on
(transmission value, -control cost), fast non-dominated sorting, the combined
subtractive crowding rule, simplex-lattice reference points with niche-based
truncation, tournament selection and blend/uniform variation.

Objectives are evaluated against an immutable JointContext snapshot; all
stochastic draws come from one seeded generator so runs are reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .control import (
    ControlBatch,
    PlatoonConfig,
    SafetyContext,
    feasibility_mask,
    rollout_candidates,
    trajectory_costs,
)
from .scheduling import ScheduleDecision, fit_deadline_order, slot_options

BOUNDARY_SENTINEL = sys.float_info.max


@dataclass
class GaParams:
    """Search-budget and variation knobs of the genetic loop."""

    population: int = 64
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    tournament_size: int = 2
    rng_seed: int = 0
    combined_crowding: bool = True
    divisions: int = 9

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise ValueError("population must be even and at least 4")
        for rate in (self.crossover_rate, self.mutation_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be at least 1")
        if self.divisions < 1:
            raise ValueError("divisions must be at least 1")


@dataclass(eq=False)
class Individual:
    """One genome: per-vehicle input sequences plus per-packet path choices."""

    control_genes: np.ndarray
    routing_genes: np.ndarray
    objective_y: float = math.nan
    objective_j: float = math.nan
    feasible: bool = False
    rank: int = -1
    crowding: float = 0.0
    indicators: tuple = (0.0, 0.0, 0.0)

    def genome_key(self) -> tuple:
        return (
            tuple(int(g) for g in self.routing_genes),
            tuple(float(g) for g in self.control_genes.ravel()),
        )

    def copy(self) -> "Individual":
        return Individual(
            control_genes=self.control_genes.copy(),
            routing_genes=self.routing_genes.copy(),
        )


@dataclass(frozen=True)
class ReferencePointSet:
    points: np.ndarray
    divisions: int

    @cached_property
    def norms(self) -> np.ndarray:
        return np.maximum(np.linalg.norm(self.points, axis=1), 1e-12)


@dataclass
class JointContext:
    """Evaluation snapshot: follower control problems (control.ControlProblem)
    plus the pending packet set with pre-scored candidate paths and the
    channel budget."""

    platoon: PlatoonConfig
    problems: list
    packets: list
    candidates: list
    n_channels: int = 2
    schedule_start: int = 0
    schedule_end: int = 32
    seed_control: list = field(default_factory=list)

    @property
    def n_vehicles(self) -> int:
        return len(self.problems)

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    def routing_gene_sizes(self) -> list:
        return [max(len(c), 1) for c in self.candidates]

    @cached_property
    def decode_table(self) -> "DecodeTable":
        return DecodeTable.build(self)

    @cached_property
    def control_batch(self) -> "ControlBatch":
        return ControlBatch.build(self.problems, self.platoon.horizon)


@dataclass(frozen=True)
class DecodeTable:
    """Per-context decode inputs: the packets with candidates in deadline
    order, each as (position in ctx.packets, packet, SlotOptions), with
    start bits counted from the context's schedule_start."""

    rows: tuple
    n_links: int
    n_channels: int
    origin: int

    @classmethod
    def build(cls, ctx: JointContext) -> "DecodeTable":
        order = sorted(
            range(len(ctx.packets)), key=lambda i: (ctx.packets[i].last_slot, ctx.packets[i].id)
        )
        link_ids: dict = {}
        rows = tuple(
            (i, ctx.packets[i], slot_options(
                ctx.packets[i], ctx.candidates[i], ctx.schedule_start, ctx.schedule_end, link_ids
            ))
            for i in order
            if ctx.candidates[i]
        )
        return cls(rows, len(link_ids), ctx.n_channels, ctx.schedule_start)

    def fit(self, routing_genes: np.ndarray) -> list:
        """(packet, option, start slot) per placed packet, in deadline order:
        each packet tries only its gene-chosen path (gene modulo the number
        of candidates), at the earliest workable start."""
        genes = np.asarray(routing_genes, dtype=int).tolist()
        placed = fit_deadline_order(
            ((options[genes[i] % len(options)],) for i, _packet, options in self.rows),
            self.n_links, self.n_channels,
        )
        rows = self.rows
        return [(rows[pos][1], option, self.origin + start) for pos, option, start in placed]


def decode_schedule(ctx: JointContext, routing_genes: np.ndarray) -> ScheduleDecision:
    """Turn per-packet path indices into a feasible schedule.

    Packets are fitted in deadline order at their earliest workable start
    slot; one route per packet and one grant per link-slot hold by
    construction, so decoded schedules always pass the feasibility check.
    """
    return ScheduleDecision.with_grants({
        (packet.id, k0): option.cand for packet, option, k0 in ctx.decode_table.fit(routing_genes)
    })


def evaluate_population(individuals: Sequence[Individual], ctx: JointContext) -> None:
    """Score genomes in place, with one batch of control rollouts over all
    (follower, genome) rows.

    Y sums the path values of the decoded schedule in deadline order, the
    same sum as ScheduleDecision.objective; the channel grants are not
    needed for it and are left to decode_schedule. J, feasibility and the
    niching indicators are summed over followers in follower order.
    """
    n = len(individuals)
    if n == 0:
        return
    table = ctx.decode_table
    for ind in individuals:
        placed = table.fit(ind.routing_genes)
        ind.objective_y = sum([option.cand.path_value for _packet, option, _k0 in placed])

    cfg = ctx.platoon
    costs = np.zeros(n)
    feasible = np.ones(n, dtype=bool)
    effort = np.zeros(n)
    speed_dev = np.zeros(n)
    pos_dev = np.zeros(n)
    n_followers = ctx.n_vehicles
    if n_followers:
        batch = ctx.control_batch
        # rows are follower-major: row v * n + i is follower v of genome i
        inputs = np.stack([ind.control_genes for ind in individuals], axis=1).reshape(
            n_followers * n, cfg.horizon, 2
        )
        references = np.repeat(batch.references, n, axis=0)
        safety = None
        if batch.safety is not None:
            safety = SafetyContext(
                batch.safety,
                np.repeat(batch.predecessors, n, axis=0),
                np.repeat(batch.has_predecessor, n),
            )
        states = rollout_candidates(np.repeat(batch.starts, n, axis=0), inputs, cfg.dt)
        row_feasible = feasibility_mask(states, inputs, cfg, safety, None).reshape(
            n_followers, n
        )
        row_costs = trajectory_costs(
            states, inputs, references, np.repeat(batch.targets, n, axis=0), cfg,
            np.repeat(batch.present, n, axis=0),
        ).reshape(n_followers, n)
        row_effort = np.abs(inputs).mean(axis=(1, 2)).reshape(n_followers, n)
        row_speed = np.abs(states[:, :, 3] - references[:, :, 3]).mean(axis=1).reshape(
            n_followers, n
        )
        row_pos = np.abs(states[:, :, 0] - references[:, :, 0]).mean(axis=1).reshape(
            n_followers, n
        )
        for v in range(n_followers):
            feasible &= row_feasible[v]
            costs += row_costs[v]
            effort += row_effort[v]
            speed_dev += row_speed[v]
            pos_dev += row_pos[v]

    for i, ind in enumerate(individuals):
        ind.objective_j = float(costs[i])
        ind.feasible = bool(feasible[i])
        ind.indicators = (float(effort[i]), float(speed_dev[i]), float(pos_dev[i]))


def non_dominated_sort(population: Sequence[Individual]) -> list:
    """Fast non-dominated sort; assigns ranks and returns the fronts.

    Feasible-first dominance on (Y, -J) is computed as one boolean matrix;
    fronts are then peeled from its dominator counts. Front 0 is in index
    order; a later front is ordered by the position, within the previous
    front, of each member's last dominator there, ties by index.
    """
    n = len(population)
    if n == 0:
        return []
    y = np.array([ind.objective_y for ind in population], dtype=float)
    j = np.array([ind.objective_j for ind in population], dtype=float)
    feas = np.array([ind.feasible for ind in population], dtype=bool)
    yc, yr, jc, jr = y[:, None], y[None, :], j[:, None], j[None, :]
    pareto = (yc >= yr) & (jc <= jr) & ((yc > yr) | (jc < jr))
    fc, fr = feas[:, None], feas[None, :]
    dom = np.where(fc == fr, pareto, fc & ~fr)

    counts = dom.sum(axis=0).tolist()
    dominated_by: list = [[] for _ in range(n)]
    for p, q in zip(*(ix.tolist() for ix in np.nonzero(dom))):
        dominated_by[p].append(q)
    fronts = []
    front = [p for p in range(n) if counts[p] == 0]
    while front:
        fronts.append([population[p] for p in front])
        nxt = []
        for p in front:
            for q in dominated_by[p]:
                counts[q] -= 1
                if counts[q] == 0:
                    nxt.append(q)
        front = nxt
    for rank, members in enumerate(fronts):
        for ind in members:
            ind.rank = rank
    return fronts


def crowding_distance(front: Sequence[Individual], combined: bool = True) -> list:
    """Per-individual diversity measure inside one front.

    Distance is the normalized neighbor gap on Y, DISTANCE the same on -J;
    the default combines them by subtraction, the fallback adds them.
    Boundary individuals on either objective get the largest finite sentinel.
    """
    n = len(front)
    if n == 0:
        raise ValueError("front must be non-empty")
    dist_y = [0.0] * n
    dist_j = [0.0] * n
    boundary = [False] * n

    for values, out in (
        ([ind.objective_y for ind in front], dist_y),
        ([-ind.objective_j for ind in front], dist_j),
    ):
        order = sorted(range(n), key=lambda i: values[i])
        boundary[order[0]] = boundary[order[-1]] = True
        span = values[order[-1]] - values[order[0]]
        if span < 1e-12:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            out[i] = (values[order[pos + 1]] - values[order[pos - 1]]) / span

    result = []
    for i in range(n):
        if boundary[i]:
            d = BOUNDARY_SENTINEL
        elif combined:
            d = dist_y[i] - dist_j[i]
        else:
            d = dist_y[i] + dist_j[i]
        front[i].crowding = d
        result.append(d)
    return result


def reference_points(divisions: int) -> ReferencePointSet:
    """Simplex-lattice anchors over the three search indicators."""
    if divisions < 1:
        raise ValueError("divisions must be at least 1")
    pts = []
    for i in range(divisions + 1):
        for j in range(divisions + 1 - i):
            k = divisions - i - j
            pts.append((i / divisions, j / divisions, k / divisions))
    return ReferencePointSet(points=np.array(pts), divisions=divisions)


def _nearest_niches(normed: np.ndarray, ref_points: ReferencePointSet) -> list:
    """Per row of normed, the index of the reference direction with the
    smallest perpendicular distance to it, from one (rows x points)
    distance matrix."""
    points, norms = ref_points.points, ref_points.norms
    proj = (normed[:, None, :] * points[None, :, :]).sum(axis=2) / norms[None, :]
    perp = np.linalg.norm(
        normed[:, None, :] - proj[:, :, None] * points[None, :, :] / norms[None, :, None],
        axis=2,
    )
    return np.argmin(perp, axis=1).tolist()


def _niche_truncate(
    front: Sequence[Individual],
    k: int,
    ref_points: ReferencePointSet,
    already_selected: Sequence[Individual],
) -> list:
    """Pick k members of the overflowing front, favoring under-covered
    reference directions, then higher crowding; deterministic."""
    if k <= 0:
        return []
    everyone = list(already_selected) + list(front)
    coords = np.array([ind.indicators for ind in everyone], dtype=float)
    span = coords.max(axis=0) - coords.min(axis=0)
    span[span < 1e-12] = 1.0
    normed = (coords - coords.min(axis=0)) / span
    niches = _nearest_niches(normed, ref_points)

    niche_count: dict = {}
    for niche in niches[: len(already_selected)]:
        niche_count[niche] = niche_count.get(niche, 0) + 1
    member_niches = niches[len(already_selected) :]
    neg_crowding = [-ind.crowding for ind in front]

    chosen: list = []
    remaining = set(range(len(front)))
    while len(chosen) < k and remaining:
        _count, _crowd, pick = min(
            (niche_count.get(member_niches[i], 0), neg_crowding[i], i) for i in remaining
        )
        remaining.discard(pick)
        chosen.append(front[pick])
        niche_count[member_niches[pick]] = niche_count.get(member_niches[pick], 0) + 1
    return chosen


def tournament_select(
    population: Sequence[Individual], k: int, rng: np.random.Generator
) -> Individual:
    """Best of k draws without replacement, by rank then crowding."""
    if not population:
        raise ValueError("population must be non-empty")
    k = min(k, len(population))
    picks = rng.choice(len(population), size=k, replace=False)
    best = population[int(picks[0])]
    for idx in picks[1:]:
        cand = population[int(idx)]
        if (cand.rank, -cand.crowding) < (best.rank, -best.crowding):
            best = cand
    return best


def crossover_mutate(
    parent_a: Individual,
    parent_b: Individual,
    params: GaParams,
    rng: np.random.Generator,
    control_bounds: tuple | None = None,
    routing_sizes: Sequence[int] | None = None,
) -> tuple:
    """Blend crossover + bounded Gaussian mutation on control genes; uniform
    crossover + index resampling on routing genes."""
    if parent_a.control_genes.shape != parent_b.control_genes.shape:
        raise ValueError("parents must share the genome shape")
    a_control, b_control = parent_a.control_genes, parent_b.control_genes
    a_routing, b_routing = parent_a.routing_genes, parent_b.routing_genes
    if rng.random() < params.crossover_rate:
        beta = rng.random(size=a_control.shape)
        swap = rng.random(size=a_routing.shape) < 0.5
        children = (
            Individual(
                beta * a_control + (1 - beta) * b_control, np.where(swap, b_routing, a_routing)
            ),
            Individual(
                (1 - beta) * a_control + beta * b_control, np.where(swap, a_routing, b_routing)
            ),
        )
    else:
        children = (parent_a.copy(), parent_b.copy())

    mutate_control = params.mutation_rate > 0 and a_control.size > 0
    mutate_routing = params.mutation_rate > 0 and routing_sizes is not None and a_routing.size > 0
    noise_scale = 0.1
    if control_bounds is not None:
        r_bound, a_bound = control_bounds
        noise_scale = np.array([0.25 * r_bound, 0.25 * a_bound])
        upper = np.array([r_bound, a_bound])
        lower = -upper
    for child in children:
        if mutate_control:
            mask = rng.random(size=a_control.shape) < params.mutation_rate
            noise = rng.normal(size=a_control.shape)
            noise *= noise_scale
            child.control_genes = child.control_genes + mask * noise
        if control_bounds is not None:
            # np.clip per input column, as one max/min pair over both
            genes = child.control_genes
            np.minimum(np.maximum(genes, lower, out=genes), upper, out=genes)
        if mutate_routing:
            routing = child.routing_genes
            for i, size in enumerate(routing_sizes):
                if rng.random() < params.mutation_rate:
                    routing[i] = int(rng.integers(0, size))
    return children


def random_individual(ctx: JointContext, rng: np.random.Generator) -> Individual:
    cfg = ctx.platoon
    control = np.empty((ctx.n_vehicles, cfg.horizon, 2))
    control[..., 0] = rng.uniform(-cfg.comfort_r, cfg.comfort_r, size=control[..., 0].shape)
    control[..., 1] = rng.uniform(-cfg.comfort_a, cfg.comfort_a, size=control[..., 1].shape)
    sizes = ctx.routing_gene_sizes()
    routing = np.array([rng.integers(0, s) for s in sizes], dtype=int)
    return Individual(control_genes=control, routing_genes=routing)


def _initial_population(ctx: JointContext, params: GaParams, rng) -> list:
    population = []
    sizes = ctx.routing_gene_sizes()
    greedy_routing = np.zeros(len(sizes), dtype=int)
    zero_control = np.zeros((ctx.n_vehicles, ctx.platoon.horizon, 2))
    population.append(Individual(control_genes=zero_control, routing_genes=greedy_routing.copy()))
    for genes in ctx.seed_control:
        population.append(
            Individual(control_genes=np.asarray(genes, dtype=float).copy(),
                       routing_genes=greedy_routing.copy())
        )
        if len(population) >= params.population:
            break
    while len(population) < params.population:
        population.append(random_individual(ctx, rng))
    return population[: params.population]


def scalarize_select(front: Sequence[Individual]) -> Individual:
    """Final pick: argmax of Y - J, ties to lower J then lexicographic genome."""
    if not front:
        raise ValueError("front must be non-empty")
    best_scalar = max(ind.objective_y - ind.objective_j for ind in front)
    tied = [ind for ind in front if ind.objective_y - ind.objective_j == best_scalar]
    if len(tied) == 1:
        return tied[0]
    best_j = min(ind.objective_j for ind in tied)
    tied = [ind for ind in tied if ind.objective_j == best_j]
    return min(tied, key=Individual.genome_key) if len(tied) > 1 else tied[0]


def evolve(ctx: JointContext, params: GaParams, stats: dict | None = None) -> list:
    """Elitist generational loop; returns the final first front.

    The best feasible scalarized individual is explicitly protected during
    truncation, so the best known Y - J never regresses between generations.
    """
    rng = np.random.default_rng(np.random.SeedSequence(params.rng_seed))
    ref_pts = reference_points(params.divisions)
    population = _initial_population(ctx, params, rng)
    evaluate_population(population, ctx)
    fronts = non_dominated_sort(population)
    for front in fronts:
        crowding_distance(front, combined=params.combined_crowding)

    if stats is not None:
        stats.setdefault("best_y_minus_j", [])
        stats.setdefault("best_j", [])

    bounds = (ctx.platoon.comfort_r, ctx.platoon.comfort_a)
    sizes = ctx.routing_gene_sizes()

    def best_of(pop):
        feas = [i for i in pop if i.feasible] or list(pop)
        return scalarize_select(feas)

    champion = best_of(population)
    for _gen in range(params.generations):
        offspring = []
        while len(offspring) < params.population:
            pa = tournament_select(population, params.tournament_size, rng)
            pb = tournament_select(population, params.tournament_size, rng)
            ca, cb = crossover_mutate(pa, pb, params, rng, bounds, sizes)
            offspring.extend([ca, cb])
        offspring = offspring[: params.population]
        evaluate_population(offspring, ctx)

        merged = population + offspring
        fronts = non_dominated_sort(merged)
        next_pop: list = []
        for front in fronts:
            crowding_distance(front, combined=params.combined_crowding)
            if len(next_pop) + len(front) <= params.population:
                next_pop.extend(front)
            else:
                next_pop.extend(
                    _niche_truncate(front, params.population - len(next_pop), ref_pts, next_pop)
                )
                break
        candidate_champion = best_of(merged)
        if _scalarized(candidate_champion) > _scalarized(champion) or (
            champion.feasible is False and candidate_champion.feasible
        ):
            champion = candidate_champion
        if champion not in next_pop:
            next_pop[-1] = champion
        population = next_pop
        fronts = non_dominated_sort(population)
        for front in fronts:
            crowding_distance(front, combined=params.combined_crowding)
        if stats is not None:
            stats["best_y_minus_j"].append(_scalarized(best_of(population)))
            stats["best_j"].append(min(i.objective_j for i in population))
    return fronts[0] if population else []


def _scalarized(ind: Individual) -> float:
    return ind.objective_y - ind.objective_j
