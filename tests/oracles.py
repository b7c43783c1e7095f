"""Reference implementations kept for the tests: straightforward per-genome,
per-follower, per-problem, per-member, per-path and per-packet loops that
the table-driven and batched code in `dynaroute` must reproduce exactly
(same placements, same float bits, same front order, same niche picks, same
kept paths, same routes).
"""

from __future__ import annotations

import math

import numpy as np

from dynaroute.control import (
    INPUT_DIM,
    ControlProblem,
    PlatoonConfig,
    feasibility_mask,
    formation_feedback_input,
    neighbor_targets,
    rollout_candidates,
    state_from_vector,
    state_vector,
    trajectory_costs,
)
from dynaroute.dynamics import ControlInput, clamp_input
from dynaroute.link_metrics import (
    PathCandidate,
    hop_alignment,
    normalized_hop_aggregate,
    staying_time,
    velocity_variance,
)
from dynaroute.optimizer import JointContext, dominates
from dynaroute.scheduling import (
    SIGMA_SCORE_FLOOR,
    Packet,
    ScheduleDecision,
    TopologySnapshot,
    _grants_for,
    _packet_options,
    hop_slots,
)


def decode_schedule(ctx: JointContext, routing_genes) -> ScheduleDecision:
    """Deadline-order decode over (link, slot) sets: each packet takes its
    gene-chosen candidate at the earliest start whose hops find the link
    idle and a channel free."""
    decision = ScheduleDecision()
    slot_load: dict = {}
    link_busy: set = set()
    order = sorted(range(len(ctx.packets)), key=lambda i: (ctx.packets[i].last_slot, ctx.packets[i].id))
    for i in order:
        packet: Packet = ctx.packets[i]
        cands = ctx.candidates[i]
        if not cands:
            continue
        cand = cands[int(routing_genes[i]) % len(cands)]
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
                break
    grants = _grants_for(
        ev for (pid, k0), cand in decision.route_assign.items() for ev in hop_slots(cand, k0)
    )
    decision.channel_assign = grants or {}
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

    all_events = [
        ev for (pid, k0), cand in decision.route_assign.items()
        for ev in hop_slots(cand, k0)
    ]
    grants = _grants_for(all_events)
    decision.channel_assign = grants if grants is not None else {}
    return decision


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
        weight = topology.node_weight_of(w)
        align = hop_alignment(pu, pw, topology.positions[dst])
        sigma_eff = max(sigma, SIGMA_SCORE_FLOOR)
        mobility.append(min(sd, topology.lifetime_horizon) * weight * align / sigma_eff)
        success *= link.delivery_prob
    score = normalized_hop_aggregate(mobility) * success / len(mobility)
    return PathCandidate(hops=tuple(hops), path_value=score)


def candidate_paths(topology: TopologySnapshot, source, destination, max_hops: int) -> list:
    """Score every loop-free path, sort by value (stable), keep path_cap."""
    adjacency = topology._neighbor_lists()
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
    for v, problem in enumerate(ctx.problems):
        inputs = np.stack([ind.control_genes[v] for ind in individuals])
        states = rollout_candidates(problem.current_state, inputs, cfg.dt)
        feasible &= feasibility_mask(states, inputs, cfg, problem.safety_ctx, None)
        targets = neighbor_targets(problem.neighbors, cfg.horizon)
        costs += trajectory_costs(states, inputs, problem.reference, targets, cfg)
        effort += np.abs(inputs).mean(axis=(1, 2))
        speed_dev += np.abs(states[:, :, 3] - problem.reference[None, :, 3]).mean(axis=1)
        pos_dev += np.abs(states[:, :, 0] - problem.reference[None, :, 0]).mean(axis=1)

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
    problem: ControlProblem,
    prev_inputs: np.ndarray | None,
    prev_states: np.ndarray | None,
    config: PlatoonConfig,
    rng: np.random.Generator,
) -> tuple:
    """Single-problem candidate search: (inputs (T, 2), states (T+1, 4),
    cost, infeasible fallback); prev_inputs/prev_states are the previous
    plan, or None without one.

    Candidates: shifted previous solution, zero input, max-brake,
    formation-feedback, and seeded Gaussian perturbations around the
    shifted solution and the feedback in turn. The self-deviation check
    against the previous plan's reference-deviation budget runs here, per
    problem, after the kernel's box and barrier checks.
    """
    t, dt = config.horizon, config.dt
    current_state, reference = problem.current_state, problem.reference

    base = np.zeros((t, INPUT_DIM))
    if prev_inputs is not None:
        base = np.vstack([prev_inputs[1:], prev_inputs[-1:]])

    feedback = np.tile(formation_feedback_input(current_state, reference, config), (t, 1))
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

    states = rollout_candidates(current_state, inputs, dt)
    feasible = feasibility_mask(states, inputs, config, problem.safety_ctx, None)
    if prev_states is not None:
        aligned = np.vstack([prev_states[1:], prev_states[-1:]])
        budget = float(
            (config.weight_g * np.linalg.norm(aligned[0 : t - 1] - reference[0 : t - 1], axis=1)).sum()
        )
        dev = config.weight_g * np.linalg.norm(
            states[:, 1:t, :] - reference[None, 1:t, :], axis=2
        )
        feasible &= config.gamma * dev.sum(axis=1) <= budget + 1e-9
    targets = neighbor_targets(problem.neighbors, t)
    costs = trajectory_costs(states, inputs, reference, targets, config)

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
    chosen_states = (current_state,) + tuple(
        state_from_vector(states[idx, k]) for k in range(1, t + 1)
    )
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
