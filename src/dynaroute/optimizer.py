"""A feasible-first elitist GA over the followers' control inputs: genomes
rank by (infeasible, control cost J), the merged parents and offspring are
truncated in that order, and parents are drawn by tournament on rank, then
blended and mutated with bounded Gaussian noise.

The GA optimises control only. Its packets are routed by one
best-value-first deadline-order fit per context (scheduling.
fit_deadline_order, read by decode_schedule), which no genome changes.
Genomes are evaluated against an immutable JointContext snapshot; all
stochastic draws come from one seeded generator so runs are reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .control import (
    ControlBatch,
    PlatoonConfig,
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

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise ValueError("population must be even and at least 4")
        for rate in (self.crossover_rate, self.mutation_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be at least 1")


@dataclass(eq=False)
class Individual:
    """One genome: per-follower input sequences, (followers, horizon, 2)."""

    control_genes: np.ndarray
    objective_j: float = math.nan
    feasible: bool = False
    rank: int = -1
    crowding: float = 0.0

    def genome_key(self) -> tuple:
        return tuple(self.control_genes.ravel().tolist())

    def copy(self) -> "Individual":
        return Individual(control_genes=self.control_genes.copy())


@dataclass
class JointContext:
    """Evaluation snapshot: the followers' control problems, one
    control.ControlBatch row each, plus the pending packet set with
    pre-scored candidate paths and the channel budget, which the
    deadline-order fit routes once per context."""

    platoon: PlatoonConfig
    control: ControlBatch
    packets: list
    candidates: list
    n_channels: int = 2
    schedule_start: int = 0
    schedule_end: int = 32
    seed_control: list = field(default_factory=list)
    _repeated: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_vehicles(self) -> int:
        return len(self.control.starts)

    def control_rows(self, n: int) -> ControlBatch:
        """control.repeat(n), built once per context and population size."""
        rows = self._repeated.get(n)
        if rows is None:
            rows = self._repeated[n] = self.control.repeat(n)
        return rows

    @cached_property
    def decode_table(self) -> "DecodeTable":
        return DecodeTable.build(self)

    @cached_property
    def fit(self) -> list:
        """(row position in decode_table, option, start bit) per placed
        packet, in deadline order: scheduling.fit_deadline_order over each
        packet's candidates, best value first."""
        table = self.decode_table
        return fit_deadline_order(
            [options for _i, _packet, options in table.rows],
            table.n_links, table.n_channels, table.n_slots,
        )


@dataclass(frozen=True)
class DecodeTable:
    """Per-context decode inputs: the packets with candidates in deadline
    order, each as (position in ctx.packets, packet, SlotOptions), with
    start bits counted from the context's schedule_start."""

    rows: tuple
    n_links: int
    n_channels: int
    origin: int
    n_slots: int

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
        return cls(
            rows, len(link_ids), ctx.n_channels, ctx.schedule_start,
            ctx.schedule_end - ctx.schedule_start,
        )


def decode_schedule(ctx: JointContext) -> ScheduleDecision:
    """The routes of the context's packets.

    Packets are fitted in deadline order, each on its best-valued candidate
    that has a workable start slot, at the earliest such slot
    (JointContext.fit); a packet without one gets no route.
    """
    table = ctx.decode_table
    return ScheduleDecision({
        (table.rows[pos][1].id, table.origin + start): option.cand
        for pos, option, start in ctx.fit
    })


def evaluate_population(individuals: Sequence[Individual], ctx: JointContext) -> None:
    """Score genomes in place, with one batch of control rollouts over all
    (follower, genome) rows: J and feasibility, summed over followers in
    follower order."""
    n = len(individuals)
    if n == 0:
        return
    cfg = ctx.platoon
    costs = np.zeros(n)
    feasible = np.ones(n, dtype=bool)
    n_followers = ctx.n_vehicles
    if n_followers:
        # rows are follower-major: row v * n + i is follower v of genome i
        rows = ctx.control_rows(n)
        inputs = np.stack([ind.control_genes for ind in individuals], axis=1).reshape(
            n_followers * n, cfg.horizon, 2
        )
        states = rollout_candidates(rows.starts, inputs, cfg.dt)
        row_feasible = feasibility_mask(states, inputs, rows, cfg).reshape(n_followers, n)
        row_costs = trajectory_costs(states, inputs, rows, cfg).reshape(n_followers, n)
        for v in range(n_followers):
            feasible &= row_feasible[v]
            costs += row_costs[v]

    for ind, cost, ok in zip(individuals, costs.tolist(), feasible.tolist()):
        ind.objective_j = cost
        ind.feasible = ok


def rank_key(ind: Individual) -> tuple:
    """(infeasible, J): feasible genomes first, then lower J; a NaN J ranks
    after every other J of its feasibility class."""
    j = ind.objective_j
    return (not ind.feasible, j != j, 0.0 if j != j else j)


def non_dominated_sort(population: Sequence[Individual]) -> list:
    """Rank the population by rank_key; assigns ranks and returns the fronts.

    A stable sort, so a front is one run of equal keys in index order, and
    rank is the front's index.
    """
    fronts = [list(front) for _key, front in groupby(sorted(population, key=rank_key), rank_key)]
    for rank, front in enumerate(fronts):
        for ind in front:
            ind.rank = rank
    return fronts


def crowding_distance(front: Sequence[Individual]) -> list:
    """Per-member diversity inside one front: members of a front tie on
    their key, so the first and last get the largest finite sentinel and
    the others 0.0."""
    n = len(front)
    if n == 0:
        raise ValueError("front must be non-empty")
    result = [0.0] * n
    result[0] = result[-1] = BOUNDARY_SENTINEL
    for ind, d in zip(front, result):
        ind.crowding = d
    return result


def tournament_select(
    population: Sequence[Individual], k: int, rng: np.random.Generator
) -> Individual:
    """Best of k draws without replacement, by rank then crowding."""
    if not population:
        raise ValueError("population must be non-empty")
    k = min(k, len(population))
    picks = rng.choice(len(population), size=k, replace=False).tolist()
    best = population[picks[0]]
    for idx in picks[1:]:
        cand = population[idx]
        if (cand.rank, -cand.crowding) < (best.rank, -best.crowding):
            best = cand
    return best


def crossover_mutate(
    parent_a: Individual,
    parent_b: Individual,
    params: GaParams,
    rng: np.random.Generator,
    control_bounds: tuple,
) -> tuple:
    """Blend crossover + bounded Gaussian mutation on control genes, clipped
    to +-control_bounds (r bound, a bound)."""
    if parent_a.control_genes.shape != parent_b.control_genes.shape:
        raise ValueError("parents must share the genome shape")
    a_control, b_control = parent_a.control_genes, parent_b.control_genes
    if rng.random() < params.crossover_rate:
        beta = rng.random(size=a_control.shape)
        rest = 1 - beta
        children = (
            Individual(beta * a_control + rest * b_control),
            Individual(rest * a_control + beta * b_control),
        )
    else:
        children = (parent_a.copy(), parent_b.copy())

    mutate = params.mutation_rate > 0 and a_control.size > 0
    noise_scale, lower, upper = _bound_arrays(*control_bounds)
    for child in children:
        if mutate:
            mask = rng.random(size=a_control.shape) < params.mutation_rate
            noise = rng.normal(size=a_control.shape)
            noise *= noise_scale
            child.control_genes = child.control_genes + mask * noise
        # np.clip per input column, as one max/min pair over both
        genes = child.control_genes
        np.minimum(np.maximum(genes, lower, out=genes), upper, out=genes)
    return children


@lru_cache(maxsize=16)
def _bound_arrays(r_bound: float, a_bound: float) -> tuple:
    """(mutation noise scale, lower clip, upper clip) per input column,
    shared between calls and so read-only."""
    upper = np.array([r_bound, a_bound])
    arrays = (np.array([0.25 * r_bound, 0.25 * a_bound]), -upper, upper)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def random_individual(ctx: JointContext, rng: np.random.Generator) -> Individual:
    cfg = ctx.platoon
    control = np.empty((ctx.n_vehicles, cfg.horizon, 2))
    control[..., 0] = rng.uniform(-cfg.comfort_r, cfg.comfort_r, size=control[..., 0].shape)
    control[..., 1] = rng.uniform(-cfg.comfort_a, cfg.comfort_a, size=control[..., 1].shape)
    return Individual(control_genes=control)


def _initial_population(ctx: JointContext, params: GaParams, rng) -> list:
    population = [Individual(control_genes=np.zeros((ctx.n_vehicles, ctx.platoon.horizon, 2)))]
    for genes in ctx.seed_control:
        population.append(Individual(control_genes=np.asarray(genes, dtype=float).copy()))
        if len(population) >= params.population:
            break
    while len(population) < params.population:
        population.append(random_individual(ctx, rng))
    return population[: params.population]


def select_survivors(merged: Sequence[Individual], size: int) -> list:
    """The size best members of merged: whole fronts in rank order, each
    given its crowding, and the overflowing front cut by crowding (its
    first and last members, then the rest in order)."""
    survivors: list = []
    for front in non_dominated_sort(merged):
        crowding_distance(front)
        room = size - len(survivors)
        if len(front) <= room:
            survivors.extend(front)
        else:
            survivors.extend(sorted(front, key=lambda ind: -ind.crowding)[:room])
            break
    return survivors


def best_of(population: Sequence[Individual]) -> Individual:
    """Champion rule: the least rank_key, i.e. least J among the feasible
    members (among all of them when none is feasible), ties to the
    lexicographically least genome."""
    if not population:
        raise ValueError("population must be non-empty")
    least = min(map(rank_key, population))
    tied = [ind for ind in population if rank_key(ind) == least]
    return tied[0] if len(tied) == 1 else min(tied, key=Individual.genome_key)


def evolve(
    ctx: JointContext, params: GaParams, rng_seed: int, stats: dict | None = None
) -> list:
    """Elitist generational loop seeded with rng_seed; returns the final
    first front.

    Parents and offspring are merged and cut back to the population size
    by select_survivors. The champion (best_of) is protected during
    truncation and replaced only by a genome of lower rank_key, so its J
    never rises while it stays feasible; stats["best_j"] records its J per
    generation.
    """
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    population = _initial_population(ctx, params, rng)
    evaluate_population(population, ctx)
    fronts = non_dominated_sort(population)
    for front in fronts:
        crowding_distance(front)

    if stats is not None:
        stats.setdefault("best_j", [])

    bounds = (ctx.platoon.comfort_r, ctx.platoon.comfort_a)

    champion = best_of(population)
    for _gen in range(params.generations):
        offspring = []
        while len(offspring) < params.population:
            pa = tournament_select(population, params.tournament_size, rng)
            pb = tournament_select(population, params.tournament_size, rng)
            ca, cb = crossover_mutate(pa, pb, params, rng, bounds)
            offspring.extend([ca, cb])
        offspring = offspring[: params.population]
        evaluate_population(offspring, ctx)

        merged = population + offspring
        next_pop = select_survivors(merged, params.population)
        candidate_champion = best_of(merged)
        if rank_key(candidate_champion) < rank_key(champion):
            champion = candidate_champion
        if champion not in next_pop:
            next_pop[-1] = champion
        population = next_pop
        fronts = non_dominated_sort(population)
        for front in fronts:
            crowding_distance(front)
        if stats is not None:
            stats["best_j"].append(champion.objective_j)
    return fronts[0] if population else []
