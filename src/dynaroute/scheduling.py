"""Deadline-constrained packet routing and channel scheduling: loop-free path
enumeration, the scheduling feasibility check, an exact small-instance solver
and a greedy heuristic.

A packet assigned at slot k0 to an H-hop path crosses hop h at slot k0+h-1
and must finish inside its deadline window. Both solvers build schedules
where each slot carries at most n_channels transmissions and each link fires
at most once per slot; the feasibility checker validates the weaker printed
constraint (window usage <= window grants), so every solver output passes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .link_metrics import (
    MetricWeights,
    NodeStatus,
    PathCandidate,
    hop_alignment,
    neighbor_transmit_count,
    node_weight,
    relay_reliability,
    staying_time,
    vehicle_status,
)

EXACT_MAX_PACKETS = 3
EXACT_MAX_CHANNELS = 2
EXACT_MAX_HORIZON = 4
EXACT_MAX_PATHS = 6

# dispersion floor for path scores: unlike the division guard SIGMA_EPS,
# this is a physical scale (m/s) that keeps scores commensurate with the
# control cost when all platoon speeds coincide
SIGMA_SCORE_FLOOR = 0.25


@dataclass(frozen=True)
class Packet:
    """One transfer request: size bits from source to destination, to be
    completed within deadline_slots of the arrival slot."""

    id: int
    arrival_slot: int
    deadline_slots: int
    size: float
    source: object
    destination: object

    def __post_init__(self):
        if self.deadline_slots < 1:
            raise ValueError("deadline_slots must be at least 1")
        if self.size <= 0:
            raise ValueError("size must be positive")

    @property
    def last_slot(self) -> int:
        return self.arrival_slot + self.deadline_slots


@dataclass
class TopologySnapshot:
    """Immutable view of the network at one slot: node kinematics and
    statuses plus directed links with their channel quantities."""

    positions: dict
    speeds: dict
    statuses: dict
    links: dict
    comm_range: float
    weights: MetricWeights = field(default_factory=MetricWeights)
    path_cap: int = 8
    # link lifetimes beyond this horizon are equivalent for ranking: a link
    # only needs to outlive the delivery deadline
    lifetime_horizon: float = math.inf
    _path_cache: dict = field(default_factory=dict, repr=False)
    _neighbor_cache: dict | None = field(default=None, repr=False)
    _weight_cache: dict | None = field(default=None, repr=False)
    _hop_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for i, j in self.links:
            if i not in self.positions or j not in self.positions:
                raise ValueError(f"link ({i}, {j}) references unknown node")

    def _neighbor_lists(self) -> dict:
        if self._neighbor_cache is None:
            lists: dict = {n: [] for n in self.positions}
            for i, j in self.links:
                lists[i].append(j)
            for outs in lists.values():
                outs.sort(key=repr)
            self._neighbor_cache = lists
        return self._neighbor_cache

    def neighbors(self, node) -> list:
        return self._neighbor_lists().get(node, [])

    def node_status(self, node) -> NodeStatus:
        return self.statuses.get(node, NodeStatus())

    def status_bit(self, node) -> int:
        st = self.node_status(node)
        return vehicle_status(st.queue_len, st.queue_max)

    @cached_property
    def status_bits(self) -> dict:
        """status_bit of every node, computed once per snapshot."""
        return {n: self.status_bit(n) for n in self.positions}

    def node_weight_of(self, node) -> float:
        if self._weight_cache is None:
            self._weight_cache = {}
            bits = self.status_bits
            for n in self.positions:
                st = self.node_status(n)
                n_path = neighbor_transmit_count([bits[j] for j in self.neighbors(n)])
                rel = relay_reliability(st.relayed_ok, st.relay_received)
                self._weight_cache[n] = node_weight(
                    bits[n], n_path, rel, self.weights, can_transmit=bits[n] == 1
                )
        return self._weight_cache[node]

    def hop_factors(self, u, w, destination) -> tuple:
        """(staying time, delivery prob, node weight, lifetime-capped
        mobility numerator) of the hop u->w toward destination, computed
        once per snapshot."""
        key = (u, w, destination)
        factors = self._hop_cache.get(key)
        if factors is None:
            pu, pw = self.positions[u], self.positions[w]
            planar = math.hypot(pw[0] - pu[0], pw[1] - pu[1])
            sd = staying_time(
                self.comm_range,
                min(planar, self.comm_range),
                self.speeds.get(u, 0.0),
                self.speeds.get(w, 0.0),
            )
            weight = self.node_weight_of(w)
            align = hop_alignment(pu, pw, self.positions[destination])
            factors = (
                sd,
                self.links[(u, w)].delivery_prob,
                weight,
                min(sd, self.lifetime_horizon) * weight * align,
            )
            self._hop_cache[key] = factors
        return factors

    def candidate_paths(self, source, destination, max_hops: int) -> list:
        """Best path_cap candidates by value, enumeration order preserved on ties."""
        key = (source, destination, max_hops)
        if key not in self._path_cache:
            found = _loop_free_hops(self, source, destination, max_hops)
            scores = path_scores(self, found)
            keep = sorted(range(len(found)), key=lambda i: -scores[i])[: self.path_cap]
            self._path_cache[key] = [PathCandidate(found[i], scores[i]) for i in keep]
        return self._path_cache[key]


def path_scores(topology: TopologySnapshot, paths: Iterable) -> list:
    """path_score of each hop tuple, in one local loop."""
    speeds = topology.speeds
    cache = topology._hop_cache
    hop_factors = topology.hop_factors
    sqrt = math.sqrt
    scores = []
    for hops in paths:
        velocities = [speeds.get(node, 0.0) for node in hops]
        n_nodes = len(velocities)
        mean = sum(velocities) / n_nodes
        sigma = sqrt(sum([(v - mean) ** 2 for v in velocities]) / n_nodes)
        sigma_eff = max(sigma, SIGMA_SCORE_FLOOR)
        dst = hops[-1]
        total = success = 1.0
        u = hops[0]
        for w in hops[1:]:
            factors = cache.get((u, w, dst)) or hop_factors(u, w, dst)
            total *= factors[3] / sigma_eff
            success *= factors[1]
            u = w
        n_hops = n_nodes - 1
        aggregate = 0.0 if total <= 0 else total ** (1.0 / n_hops)
        scores.append(aggregate * success / n_hops)
    return scores


def path_score(topology: TopologySnapshot, hops: Sequence) -> float:
    """Ranking value of one relay sequence, the only path score.

    The geometric mean of the per-hop mobility factors (lifetime x receiver
    weight x progress alignment over the speed dispersion sigma of the path
    nodes, floored at SIGMA_SCORE_FLOOR) times the end-to-end delivery
    probability per channel use: relaying only scores higher when the direct
    link is genuinely poor enough to pay for the extra transmissions.
    path_scores computes it with the float operations of the scalar
    references velocity_variance and normalized_hop_aggregate in
    tests/oracles.py, in their order.
    """
    return path_scores(topology, (hops,))[0]


# kept only because bench/tracer.py spans it by name; the simulation never calls it
def build_path_candidate(
    topology: TopologySnapshot, hops: Sequence
) -> PathCandidate:
    """One relay sequence with its path_score as the path value."""
    return PathCandidate(tuple(hops), path_score(topology, hops))


def _loop_free_hops(
    topology: TopologySnapshot, source, destination, max_hops: int
) -> list:
    """Hop tuples of all loop-free source->destination paths of at most
    max_hops edges, in lexicographic order of the node reprs: the
    depth-first walk visits repr-sorted neighbor lists, so it finds the
    paths in that order."""
    if source == destination:
        raise ValueError("source and destination must differ")
    if max_hops < 1:
        raise ValueError("max_hops must be at least 1")
    found: list = []
    _extend_paths(topology._neighbor_lists(), destination, (source,), max_hops, found)
    return found


def _extend_paths(adjacency: dict, destination, path: tuple, hops_left: int, found: list):
    if hops_left == 1:
        if destination in adjacency.get(path[-1], ()):
            found.append((*path, destination))
        return
    for nxt in adjacency.get(path[-1], ()):
        if nxt == destination:
            found.append((*path, nxt))
        elif nxt not in path:
            _extend_paths(adjacency, destination, (*path, nxt), hops_left - 1, found)


# kept only because bench/tracer.py spans it by name; the simulation never calls it
def enumerate_paths(
    topology: TopologySnapshot, source, destination, max_hops: int
) -> list:
    """All loop-free source->destination paths of at most max_hops edges,
    in lexicographic node-id order."""
    return [
        build_path_candidate(topology, hops)
        for hops in _loop_free_hops(topology, source, destination, max_hops)
    ]


@dataclass
class ScheduleDecision:
    """Joint routing and channel-grant assignment.

    route_assign maps (packet_id, start_slot) to the chosen PathCandidate;
    channel_assign maps (channel, slot) to the granted directed link.
    """

    route_assign: dict = field(default_factory=dict)
    channel_assign: dict = field(default_factory=dict)

    def objective(self) -> float:
        return sum(c.path_value for c in self.route_assign.values())

    @classmethod
    def with_grants(cls, route_assign: dict) -> "ScheduleDecision":
        """Decision for collision-free routes, granting each slot's links
        channels in link order."""
        grants = _grants_for(
            ev for (_pid, k0), cand in route_assign.items() for ev in hop_slots(cand, k0)
        )
        return cls(route_assign, grants or {})


def hop_slots(cand: PathCandidate, start_slot: int) -> list:
    """(link, slot) pairs of a path started at start_slot, one hop per slot."""
    return [
        ((u, w), start_slot + h)
        for h, (u, w) in enumerate(zip(cand.hops[:-1], cand.hops[1:]))
    ]


def check_feasible(
    decision: ScheduleDecision,
    packets: Sequence[Packet],
    topology: TopologySnapshot,
    n_channels: int,
) -> bool:
    """Validate the three scheduling constraint families.

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
    for (channel, _slot), link in decision.channel_assign.items():
        if not 0 <= channel < n_channels:
            return False
        if link not in topology.links:
            return False

    usage: dict = {}
    for (pid, k0), cand in decision.route_assign.items():
        for link, slot in hop_slots(cand, k0):
            usage[(link, slot)] = usage.get((link, slot), 0) + 1

    grants: dict = {}
    for (_channel, slot), link in decision.channel_assign.items():
        grants[(link, slot)] = grants.get((link, slot), 0) + 1

    for packet in packets:
        window = range(packet.arrival_slot, packet.last_slot + 1)
        links = {link for (link, slot) in usage if slot in window}
        for link in links:
            used = sum(usage.get((link, k), 0) for k in window)
            granted = sum(grants.get((link, k), 0) for k in window)
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


def _grants_for(transmissions: Iterable) -> dict | None:
    """Assign channels per slot (one link per channel-slot, one grant per
    link-slot); None when some slot needs more channels than allowed."""
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
        channel_assign = _grants_for(transmissions)
        if channel_assign is None:
            continue
        obj = sum(c.path_value for c in route_assign.values())
        if obj > best_obj + 1e-12:
            best_obj = obj
            best = ScheduleDecision(route_assign, channel_assign)
    return best if best is not None else ScheduleDecision()


class SlotOption(NamedTuple):
    """One candidate path of a packet, prepared for the bitmask fit."""

    cand: PathCandidate
    links: tuple  # integer link id per hop
    starts: int  # allowed start slots; bit s is slot origin + s


def slot_options(
    packet: Packet, cands: Sequence[PathCandidate], origin: int, end: int, link_ids: dict
) -> tuple:
    """Bitmask options of each candidate: path started no earlier than
    max(arrival, origin), finishing by the packet's last slot and before end.

    link_ids maps each directed link to its integer id and is extended with
    links not yet seen.
    """
    first = max(packet.arrival_slot, origin)
    options = []
    for cand in cands:
        hops = cand.hops
        n_hops = len(hops) - 1
        last = min(packet.last_slot - n_hops + 1, end - n_hops)
        starts = ((1 << (last - first + 1)) - 1) << (first - origin) if last >= first else 0
        links = tuple(
            link_ids.setdefault(link, len(link_ids)) for link in zip(hops[:-1], hops[1:])
        )
        options.append(SlotOption(cand, links, starts))
    return tuple(options)


def fit_deadline_order(choices: Iterable, n_links: int, n_channels: int) -> list:
    """The deadline-order schedule fit shared by the GA decode and the
    greedy solver.

    choices holds, per packet in fitting order, the SlotOptions to try in
    turn; the first option with a workable start is placed at its earliest
    one, where every hop h of a start s needs link l_h idle and a free
    channel in slot s + h. Occupancy is kept as integer bitmasks over slots,
    so one route per packet and one grant per link-slot hold by
    construction. Returns (position in choices, option, start bit) per
    placed packet.
    """
    busy = [0] * n_links
    load: dict = {}
    full = 0 if n_channels > 0 else -1
    placed = []
    for pos, options in enumerate(choices):
        for option in options:
            _cand, links, starts = option
            bad = 0
            h = 0
            for link in links:
                bad |= (busy[link] | full) >> h
                h += 1
            free = starts & ~bad
            if not free:
                continue
            start = (free & -free).bit_length() - 1
            slot, bit = start, 1 << start
            for link in links:
                busy[link] |= bit
                n = load.get(slot, 0) + 1
                load[slot] = n
                if n == n_channels:
                    full |= bit
                slot, bit = slot + 1, bit << 1
            placed.append((pos, option, start))
            break
    return placed


def solve_schedule_greedy(
    packets: Sequence[Packet],
    topology: TopologySnapshot,
    n_channels: int,
    horizon: int,
    max_hops: int = 3,
) -> ScheduleDecision:
    """Deadline-first greedy assignment; always returns a feasible decision.

    Each packet takes its highest-valued candidate that still has a
    workable start, at the earliest such start.
    """

    def best_value(packet: Packet) -> float:
        cands = topology.candidate_paths(packet.source, packet.destination, max_hops)
        return cands[0].path_value if cands else 0.0

    ordered = sorted(packets, key=lambda p: (p.last_slot, -best_value(p), p.id))
    origin = min((p.arrival_slot for p in ordered), default=0)
    link_ids: dict = {}
    choices = []
    for packet in ordered:
        cands = topology.candidate_paths(packet.source, packet.destination, max_hops)
        options = slot_options(packet, cands, origin, horizon, link_ids)
        # stable: equal values keep candidate order
        choices.append(sorted(options, key=lambda o: -o.cand.path_value))

    return ScheduleDecision.with_grants({
        (ordered[pos].id, origin + start): option.cand
        for pos, option, start in fit_deadline_order(choices, len(link_ids), n_channels)
    })
