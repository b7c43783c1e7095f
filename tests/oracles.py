"""Reference implementations kept for the tests: straightforward per-genome,
per-follower, per-problem, per-member, per-path and per-packet loops that
the table-driven and batched code in `dynaroute` must reproduce exactly
(same placements, same float bits, same front order, same niche picks, same
kept paths, same routes), and the scalar formulas (stage cost, path speed
dispersion, hop aggregation, pairwise dominance) the vectorized kernels
compute. The offline schedule references live here too: the feasibility
check of routes against a channel plan, the exhaustive small-instance
solver and the deadline-first greedy solver, which bound and check the
routes of the GA decode.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from dynaroute.control import (
    INPUT_DIM,
    ControlBatch,
    PlatoonConfig,
    feasibility_mask,
    formation_feedback_input,
    rollout_candidates,
    state_vector,
    trajectory_costs,
)
from dynaroute.dynamics import ControlInput, VehicleState, clamp_input
from dynaroute.link_metrics import PathCandidate, hop_alignment, staying_time
from dynaroute.optimizer import Individual, JointContext
from dynaroute.scheduling import (
    SIGMA_SCORE_FLOOR,
    Packet,
    ScheduleDecision,
    TopologySnapshot,
)

EXACT_MAX_PACKETS = 3
EXACT_MAX_CHANNELS = 2
EXACT_MAX_HORIZON = 4
EXACT_MAX_PATHS = 6


def state_from_vector(vec: Sequence[float]) -> VehicleState:
    return VehicleState(float(vec[0]), float(vec[1]), float(vec[2]), float(vec[3]))


def stage_cost(
    inp: ControlInput,
    predicted_state: VehicleState,
    reference_state: VehicleState,
    neighbor_states: Sequence[tuple],
    config: PlatoonConfig,
) -> float:
    """One-slot cost: input effort + reference deviation + formation error;
    control.trajectory_costs sums it over the horizon.

    neighbor_states holds (neighbor_state, desired_offset) pairs with the
    offset expressed in state space.
    """
    u = math.hypot(inp.r, inp.a)
    pred = state_vector(predicted_state)
    ref_err = float(np.linalg.norm(pred - state_vector(reference_state)))
    gap_err = 0.0
    for neighbor, offset in neighbor_states:
        nvec = neighbor if isinstance(neighbor, np.ndarray) else state_vector(neighbor)
        gap_err += float(np.linalg.norm(pred - nvec - np.asarray(offset, dtype=float)))
    return config.weight_r * u + config.weight_f * ref_err + config.weight_g * gap_err


def velocity_variance(velocities: Sequence[float]) -> float:
    """Population standard deviation of the path speeds."""
    if not velocities:
        raise ValueError("velocities must be non-empty")
    mean = sum(velocities) / len(velocities)
    return math.sqrt(sum((v - mean) ** 2 for v in velocities) / len(velocities))


def aggregate_hop_values(values: Sequence[float]) -> float:
    """Combine per-hop values along a path (product aggregation)."""
    total = 1.0
    for v in values:
        total *= v
    return total


def normalized_hop_aggregate(values: Sequence[float]) -> float:
    """Hop-count-normalized combination: the geometric mean of the hop values.

    The raw product grows by orders of magnitude per added hop once the
    lifetime cap and dispersion floor kick in (near-equal platoon speeds),
    so a product ranking would always prefer the longest admissible path;
    the geometric mean keeps scores comparable across hop counts.
    """
    if not values:
        return 0.0
    total = aggregate_hop_values(values)
    if total <= 0:
        return 0.0
    return total ** (1.0 / len(values))


def dominates(a: Individual, b: Individual) -> bool:
    """Feasible-first Pareto dominance on (Y, -J), one pair at a time."""
    if a.feasible != b.feasible:
        return a.feasible
    no_worse = a.objective_y >= b.objective_y and a.objective_j <= b.objective_j
    better = a.objective_y > b.objective_y or a.objective_j < b.objective_j
    return no_worse and better


def decode_schedule(ctx: JointContext) -> ScheduleDecision:
    """Best-value-first deadline-order fit over (link, slot) sets: packets
    in (last slot, id) order, each trying its candidates in order (by value,
    ties in enumeration order); the first candidate with a start whose hops
    find the link idle and a channel free wins, at its earliest such start."""
    decision = ScheduleDecision()
    slot_load: dict = {}
    link_busy: set = set()
    order = sorted(range(len(ctx.packets)), key=lambda i: (ctx.packets[i].last_slot, ctx.packets[i].id))
    for i in order:
        packet: Packet = ctx.packets[i]
        placed = False
        for cand in ctx.candidates[i]:
            n_hops = len(cand.hops) - 1
            first = max(packet.arrival_slot, ctx.schedule_start)
            last_start = min(packet.last_slot - n_hops + 1, ctx.schedule_end - n_hops)
            for k0 in range(first, last_start + 1):
                events = hop_slots(cand, k0)
                ok = True
                counts: dict = {}
                for link, slot in events:
                    if (link, slot) in link_busy:
                        ok = False
                        break
                    counts[slot] = counts.get(slot, 0) + 1
                    if slot_load.get(slot, 0) + counts[slot] > ctx.n_channels:
                        ok = False
                        break
                if ok:
                    decision.route_assign[(packet.id, k0)] = cand
                    for link, slot in events:
                        link_busy.add((link, slot))
                        slot_load[slot] = slot_load.get(slot, 0) + 1
                    placed = True
                    break
            if placed:
                break
    return decision


def non_dominated_sort(population) -> list:
    """Pairwise fast non-dominated sort (Deb et al. 2002); assigns ranks and
    returns the fronts as lists of individuals."""
    n = len(population)
    dominated_by: list = [[] for _ in range(n)]
    counts = [0] * n
    fronts = [[]]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if dominates(population[p], population[q]):
                dominated_by[p].append(q)
            elif dominates(population[q], population[p]):
                counts[p] += 1
        if counts[p] == 0:
            population[p].rank = 0
            fronts[0].append(p)
    i = 0
    while fronts[i]:
        nxt = []
        for p in fronts[i]:
            for q in dominated_by[p]:
                counts[q] -= 1
                if counts[q] == 0:
                    population[q].rank = i + 1
                    nxt.append(q)
        i += 1
        fronts.append(nxt)
    fronts.pop()
    return [[population[i] for i in front] for front in fronts]


def solve_schedule_greedy(
    packets, topology: TopologySnapshot, n_channels: int, horizon: int, max_hops: int = 3
) -> ScheduleDecision:
    """Deadline-first greedy over explicit (candidate, start) options tried
    by value, candidate index and start."""
    slot_load: dict = {}
    link_busy: set = set()
    decision = ScheduleDecision()

    def fits(events) -> bool:
        counts: dict = {}
        for link, slot in events:
            if (link, slot) in link_busy:
                return False
            counts[slot] = counts.get(slot, 0) + 1
            if slot_load.get(slot, 0) + counts[slot] > n_channels:
                return False
        return True

    def best_value(packet: Packet) -> float:
        cands = topology.candidate_paths(packet.source, packet.destination, max_hops)
        return cands[0].path_value if cands else 0.0

    for packet in sorted(packets, key=lambda p: (p.last_slot, -best_value(p), p.id)):
        options = _packet_options(packet, topology, horizon, max_hops)
        options.sort(key=lambda o: (-o[1].path_value, o[0], o[2]))
        for _idx, cand, k0 in options:
            events = hop_slots(cand, k0)
            if fits(events):
                decision.route_assign[(packet.id, k0)] = cand
                for link, slot in events:
                    link_busy.add((link, slot))
                    slot_load[slot] = slot_load.get(slot, 0) + 1
                break
    return decision


def objective(decision: ScheduleDecision) -> float:
    """Summed path values of the routes, in route order."""
    return sum(c.path_value for c in decision.route_assign.values())


def hop_slots(cand: PathCandidate, start_slot: int) -> list:
    """(link, slot) pairs of a path started at start_slot, one hop per slot."""
    return [
        ((u, w), start_slot + h)
        for h, (u, w) in enumerate(zip(cand.hops[:-1], cand.hops[1:]))
    ]


def _grants_for(transmissions: Iterable) -> dict | None:
    """Assign channels per slot (one link per channel-slot, one grant per
    link-slot); None when some link fires twice in one slot."""
    per_slot: dict = {}
    for link, slot in transmissions:
        per_slot.setdefault(slot, []).append(link)
    channel_assign = {}
    for slot, links in per_slot.items():
        if len(set(links)) != len(links):
            return None
        for channel, link in enumerate(sorted(links, key=repr)):
            channel_assign[(channel, slot)] = link
    return channel_assign


def grants(decision: ScheduleDecision) -> dict:
    """Channel plan of a set of routes: (channel, slot) -> link, each slot's
    links granted channels in link order; empty when some link fires twice
    in one slot."""
    return _grants_for(
        ev for (_pid, k0), cand in decision.route_assign.items() for ev in hop_slots(cand, k0)
    ) or {}


def check_feasible(
    decision: ScheduleDecision,
    channel_assign: dict,
    packets: Sequence[Packet],
    topology: TopologySnapshot,
    n_channels: int,
) -> bool:
    """Validate the three scheduling constraint families of routes and a
    channel plan ((channel, slot) -> link).

    (1) at most one route per packet and slot, (2) for every packet window,
    per-link usage never exceeds the channel grants the link received inside
    that window, (3) one link per channel and slot with channel indices in
    range.
    """
    by_packet = {p.id: p for p in packets}
    for (pid, k0), cand in decision.route_assign.items():
        if pid not in by_packet:
            return False
        for link, _slot in hop_slots(cand, k0):
            if link not in topology.links:
                return False
    for (channel, _slot), link in channel_assign.items():
        if not 0 <= channel < n_channels:
            return False
        if link not in topology.links:
            return False

    usage: dict = {}
    for (pid, k0), cand in decision.route_assign.items():
        for link, slot in hop_slots(cand, k0):
            usage[(link, slot)] = usage.get((link, slot), 0) + 1

    link_grants: dict = {}
    for (_channel, slot), link in channel_assign.items():
        link_grants[(link, slot)] = link_grants.get((link, slot), 0) + 1

    for packet in packets:
        window = range(packet.arrival_slot, packet.last_slot + 1)
        links = {link for (link, slot) in usage if slot in window}
        for link in links:
            used = sum(usage.get((link, k), 0) for k in window)
            granted = sum(link_grants.get((link, k), 0) for k in window)
            if used > granted:
                return False
    return True


def _packet_options(
    packet: Packet,
    topology: TopologySnapshot,
    horizon: int,
    max_hops: int,
) -> list:
    """(candidate, start_slot) choices completing inside window and horizon."""
    options = []
    cands = topology.candidate_paths(packet.source, packet.destination, max_hops)
    for idx, cand in enumerate(cands):
        n_hops = len(cand.hops) - 1
        for k0 in range(packet.arrival_slot, packet.last_slot - n_hops + 2):
            if k0 + n_hops - 1 <= min(packet.last_slot, horizon - 1):
                options.append((idx, cand, k0))
    return options


def solve_schedule_exact(
    packets: Sequence[Packet],
    topology: TopologySnapshot,
    n_channels: int,
    horizon: int,
    max_hops: int = 3,
) -> ScheduleDecision:
    """Exhaustive maximizer of the summed path values, for small instances
    only. Ties resolve toward the lexicographically first assignment."""
    if len(packets) > EXACT_MAX_PACKETS or n_channels > EXACT_MAX_CHANNELS:
        raise ValueError("instance too large for exact search; use the greedy solver")
    if horizon > EXACT_MAX_HORIZON:
        raise ValueError("horizon too long for exact search; use the greedy solver")

    ordered = sorted(packets, key=lambda p: p.id)
    per_packet = []
    for packet in ordered:
        options = _packet_options(packet, topology, horizon, max_hops)
        if len({idx for idx, _, _ in options}) > EXACT_MAX_PATHS:
            raise ValueError("too many candidate paths for exact search")
        per_packet.append([None] + options)

    best: ScheduleDecision | None = None
    best_obj = -math.inf
    for combo in itertools.product(*per_packet):
        transmissions = []
        route_assign = {}
        ok = True
        for packet, choice in zip(ordered, combo):
            if choice is None:
                continue
            _idx, cand, k0 = choice
            events = hop_slots(cand, k0)
            transmissions.extend(events)
            route_assign[(packet.id, k0)] = cand
        slot_counts: dict = {}
        for link, slot in transmissions:
            slot_counts[slot] = slot_counts.get(slot, 0) + 1
            if slot_counts[slot] > n_channels:
                ok = False
                break
        if not ok:
            continue
        if _grants_for(transmissions) is None:
            continue
        obj = sum(c.path_value for c in route_assign.values())
        if obj > best_obj + 1e-12:
            best_obj = obj
            best = ScheduleDecision(route_assign)
    return best if best is not None else ScheduleDecision()


def build_path_candidate(topology: TopologySnapshot, hops) -> PathCandidate:
    """Score one relay sequence hop by hop from the link metrics."""
    dst = hops[-1]
    sigma = velocity_variance([topology.speeds.get(n, 0.0) for n in hops])
    mobility = []
    success = 1.0
    for u, w in zip(hops[:-1], hops[1:]):
        link = topology.links[(u, w)]
        pu, pw = topology.positions[u], topology.positions[w]
        planar = math.hypot(pw[0] - pu[0], pw[1] - pu[1])
        sd = staying_time(
            topology.comm_range,
            min(planar, topology.comm_range),
            topology.speeds.get(u, 0.0),
            topology.speeds.get(w, 0.0),
        )
        weight = topology.node_weights[w]
        pz = topology.positions[dst]
        align = hop_alignment(
            planar,
            math.hypot(pz[0] - pu[0], pz[1] - pu[1]),
            math.hypot(pz[0] - pw[0], pz[1] - pw[1]),
        )
        sigma_eff = max(sigma, SIGMA_SCORE_FLOOR)
        mobility.append(min(sd, topology.lifetime_horizon) * weight * align / sigma_eff)
        success *= link.delivery_prob
    score = normalized_hop_aggregate(mobility) * success / len(mobility)
    return PathCandidate(hops=tuple(hops), path_value=score)


def candidate_paths(topology: TopologySnapshot, source, destination, max_hops: int) -> list:
    """Score every loop-free path, sort by value (stable), keep path_cap."""
    adjacency = topology.neighbor_lists
    found = []

    def dfs(node, path):
        if len(path) - 1 >= max_hops:
            return
        for nxt in adjacency.get(node, ()):
            if nxt in path:
                continue
            if nxt == destination:
                found.append(tuple(path + [nxt]))
            else:
                dfs(nxt, path + [nxt])

    dfs(source, [source])
    found.sort(key=lambda hops: tuple(repr(h) for h in hops))
    cands = [build_path_candidate(topology, hops) for hops in found]
    cands.sort(key=lambda c: -c.path_value)
    return cands[: topology.path_cap]


def _problem_rows(batch: ControlBatch, v: int, m: int) -> ControlBatch:
    """Row v of batch alone, m times over, its neighbor targets cut to the
    real ones, which come first in each row (no padding)."""
    k = int(batch.present[v].sum())
    return ControlBatch(
        np.repeat(batch.starts[v : v + 1], m, axis=0),
        np.repeat(batch.references[v : v + 1], m, axis=0),
        np.repeat(batch.predecessors[v : v + 1], m, axis=0),
        np.repeat(batch.has_predecessor[v : v + 1], m, axis=0),
        np.repeat(batch.targets[v : v + 1, :k], m, axis=0),
        np.repeat(batch.present[v : v + 1, :k], m, axis=0),
        batch.safety,
    )


def crossover_mutate(parent_a, parent_b, params, rng, control_bounds) -> tuple:
    """Control-only variation, one scalar draw per gene: the reference for
    the draws of optimizer.crossover_mutate. A crossover test, then per gene
    a blend weight; per child, per gene a mutation test, then per gene a
    normal draw; then the box clip."""
    a_control, b_control = parent_a.control_genes, parent_b.control_genes
    shape = a_control.shape
    if rng.random() < params.crossover_rate:
        beta = np.array([rng.random() for _ in range(a_control.size)]).reshape(shape)
        children = (
            Individual(beta * a_control + (1 - beta) * b_control),
            Individual((1 - beta) * a_control + beta * b_control),
        )
    else:
        children = (Individual(a_control.copy()), Individual(b_control.copy()))
    r_bound, a_bound = control_bounds
    for child in children:
        if params.mutation_rate > 0 and a_control.size > 0:
            mask = np.array(
                [rng.random() < params.mutation_rate for _ in range(a_control.size)]
            ).reshape(shape)
            noise = np.array([rng.normal() for _ in range(a_control.size)]).reshape(shape)
            noise *= np.array([0.25 * r_bound, 0.25 * a_bound])
            child.control_genes = child.control_genes + mask * noise
        child.control_genes = np.clip(child.control_genes, [-r_bound, -a_bound], [r_bound, a_bound])
    return children


def random_individual(ctx: JointContext, rng: np.random.Generator) -> Individual:
    """One scalar uniform draw per gene, all speed inputs first, then all
    accelerations: the reference for optimizer.random_individual."""
    cfg = ctx.platoon
    shape = (ctx.n_vehicles, cfg.horizon)
    control = np.empty(shape + (2,))
    for column, bound in ((0, cfg.comfort_r), (1, cfg.comfort_a)):
        control[..., column] = np.array(
            [rng.uniform(-bound, bound) for _ in range(shape[0] * shape[1])]
        ).reshape(shape)
    return Individual(control)


def evaluate_population(individuals, ctx: JointContext) -> None:
    """Score genomes in place, one kernel call per follower over the
    population: the control objective, feasibility and niching indicators
    summed in follower order. Y is left to the decode oracle."""
    n = len(individuals)
    if n == 0:
        return
    cfg = ctx.platoon
    costs = np.zeros(n)
    feasible = np.ones(n, dtype=bool)
    effort = np.zeros(n)
    speed_dev = np.zeros(n)
    pos_dev = np.zeros(n)
    for v in range(ctx.n_vehicles):
        rows = _problem_rows(ctx.control, v, n)
        reference = ctx.control.references[v]
        inputs = np.stack([ind.control_genes[v] for ind in individuals])
        states = rollout_candidates(rows.starts, inputs, cfg.dt)
        feasible &= feasibility_mask(states, inputs, rows, cfg)
        costs += trajectory_costs(states, inputs, rows, cfg)
        effort += np.abs(inputs).mean(axis=(1, 2))
        speed_dev += np.abs(states[:, :, 3] - reference[None, :, 3]).mean(axis=1)
        pos_dev += np.abs(states[:, :, 0] - reference[None, :, 0]).mean(axis=1)

    for i, ind in enumerate(individuals):
        ind.objective_j = float(costs[i])
        ind.feasible = bool(feasible[i])
        ind.indicators = (float(effort[i]), float(speed_dev[i]), float(pos_dev[i]))


def _nearest_niche(vec, points) -> int:
    """Index of the reference direction with the smallest perpendicular
    distance to vec."""
    norms = np.maximum(np.linalg.norm(points, axis=1), 1e-12)
    proj = (vec[None, :] * points).sum(axis=1) / norms
    perp = np.linalg.norm(vec[None, :] - proj[:, None] * points / norms[:, None], axis=1)
    return int(np.argmin(perp))


def niche_truncate(front, k: int, ref_points, already_selected) -> list:
    """Niche truncation with one distance computation per individual and a
    full sort of the remaining members per pick."""
    if k <= 0:
        return []
    everyone = list(already_selected) + list(front)
    coords = np.array([ind.indicators for ind in everyone], dtype=float)
    span = coords.max(axis=0) - coords.min(axis=0)
    span[span < 1e-12] = 1.0
    normed = (coords - coords.min(axis=0)) / span
    niches = [_nearest_niche(normed[i], ref_points.points) for i in range(len(everyone))]

    niche_count: dict = {}
    for niche in niches[: len(already_selected)]:
        niche_count[niche] = niche_count.get(niche, 0) + 1
    member_niches = niches[len(already_selected) :]

    chosen: list = []
    remaining = set(range(len(front)))
    while len(chosen) < k and remaining:
        ranked = sorted(
            (niche_count.get(member_niches[i], 0), -front[i].crowding, i)
            for i in remaining
        )
        pick = ranked[0][2]
        remaining.discard(pick)
        chosen.append(front[pick])
        niche_count[member_niches[pick]] = niche_count.get(member_niches[pick], 0) + 1
    return chosen


def solve_dmpc(
    batch: ControlBatch,
    v: int,
    prev_inputs: np.ndarray | None,
    prev_states: np.ndarray | None,
    config: PlatoonConfig,
    rng: np.random.Generator,
) -> tuple:
    """Candidate search of the batch's row v alone: (inputs (T, 2), states
    (T+1, 4), cost, infeasible fallback); prev_inputs/prev_states are the
    previous plan, or None without one.

    Candidates: shifted previous solution, zero input, max-brake,
    formation-feedback, and seeded Gaussian perturbations around the
    shifted solution and the feedback in turn. The self-deviation check
    against the previous plan's reference-deviation budget runs here, per
    problem, after the kernel's box and barrier checks.
    """
    t, dt = config.horizon, config.dt
    start, reference = batch.starts[v], batch.references[v]

    base = np.zeros((t, INPUT_DIM))
    if prev_inputs is not None:
        base = np.vstack([prev_inputs[1:], prev_inputs[-1:]])

    feedback = np.tile(formation_feedback_input(start, reference, config), (t, 1))
    brake = np.tile([0.0, -config.comfort_a], (t, 1))
    deterministic = np.stack([base, np.zeros((t, INPUT_DIM)), brake, feedback])

    n_samples = max(config.n_candidates - len(deterministic), 0)
    noise = rng.normal(size=(n_samples, t, INPUT_DIM))
    noise[:, :, 0] *= 0.25 * config.comfort_r
    noise[:, :, 1] *= 0.35 * config.comfort_a
    centers = np.where(
        (np.arange(n_samples) % 2 == 0)[:, None, None], base[None], feedback[None]
    )
    sampled = centers + noise

    inputs = np.concatenate([deterministic, sampled], axis=0)
    inputs[:, :, 0] = np.clip(inputs[:, :, 0], -config.comfort_r, config.comfort_r)
    inputs[:, :, 1] = np.clip(inputs[:, :, 1], -config.comfort_a, config.comfort_a)

    rows = _problem_rows(batch, v, len(inputs))
    states = rollout_candidates(rows.starts, inputs, dt)
    feasible = feasibility_mask(states, inputs, rows, config)
    if prev_states is not None:
        aligned = np.vstack([prev_states[1:], prev_states[-1:]])
        budget = float(
            (config.weight_g * np.linalg.norm(aligned[0 : t - 1] - reference[0 : t - 1], axis=1)).sum()
        )
        dev = config.weight_g * np.linalg.norm(
            states[:, 1:t, :] - reference[None, 1:t, :], axis=2
        )
        feasible &= config.gamma * dev.sum(axis=1) <= budget + 1e-9
    costs = trajectory_costs(states, inputs, rows, config)

    if not feasible.any():
        idx = 2  # max-brake fallback
        fallback = True
    else:
        costs = np.where(feasible, costs, np.inf)
        idx = int(np.argmin(costs))
        fallback = False

    chosen_inputs = tuple(
        clamp_input(ControlInput(float(r), float(a)), config.r_max, config.a_max)
        for r, a in inputs[idx]
    )
    chosen_states = tuple(state_from_vector(states[idx, k]) for k in range(t + 1))
    return (
        np.array([[i.r, i.a] for i in chosen_inputs]),
        np.array([state_vector(s) for s in chosen_states]),
        float(costs[idx]) if feasible.any() else math.inf,
        fallback,
    )


def baseline_route(topology: TopologySnapshot, packet: Packet, holder=None):
    """Greedy geographic forwarding with a status lookup per neighbor:
    the hop tuple, or None at a void."""
    position = topology.positions
    dst = packet.destination
    node = packet.source if holder is None else holder
    path = [node]
    while node != dst:
        best = None
        best_dist = math.hypot(
            position[dst][0] - position[node][0], position[dst][1] - position[node][1]
        )
        for nxt in topology.neighbors(node):
            if nxt in path:
                continue
            if nxt != dst and topology.status_bit(nxt) != 1:
                continue
            d = math.hypot(
                position[dst][0] - position[nxt][0], position[dst][1] - position[nxt][1]
            )
            if d < best_dist - 1e-12:
                best, best_dist = nxt, d
        if best is None:
            return None
        path.append(best)
        node = best
    return tuple(path)
