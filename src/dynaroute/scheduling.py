"""Deadline-constrained packet routing: the topology snapshot, loop-free
path enumeration, the mobility-aware path score and the deadline-order fit
that decides which GA packets get a route.

A packet assigned at slot k0 to an H-hop path crosses hop h at slot k0+h-1
and must finish inside its deadline window. The fit keeps each slot within
n_channels transmissions and each link to one transmission per slot. The
run grants channels slot by slot by path value, so no channel plan is kept;
tests/oracles.py holds the schedule feasibility check and the exact and
greedy schedule solvers as test references.
"""

from __future__ import annotations

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

# dispersion floor for path scores: a physical scale (m/s) that keeps
# scores commensurate with the control cost when all platoon speeds coincide
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
    # per-snapshot caches: not constructor fields, so dataclasses.replace
    # gives a changed snapshot empty ones
    _path_cache: dict = field(default_factory=dict, init=False, repr=False)
    _hop_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for i, j in self.links:
            if i not in self.positions or j not in self.positions:
                raise ValueError(f"link ({i}, {j}) references unknown node")

    @cached_property
    def neighbor_lists(self) -> dict:
        """Each node's link targets, sorted by repr, built once per snapshot."""
        lists: dict = {n: [] for n in self.positions}
        for i, j in self.links:
            lists[i].append(j)
        for outs in lists.values():
            outs.sort(key=repr)
        return lists

    def neighbors(self, node) -> list:
        return self.neighbor_lists.get(node, [])

    def node_status(self, node) -> NodeStatus:
        return self.statuses.get(node, NodeStatus())

    def status_bit(self, node) -> int:
        st = self.node_status(node)
        return vehicle_status(st.queue_len, st.queue_max)

    @cached_property
    def status_bits(self) -> dict:
        """status_bit of every node, computed once per snapshot."""
        return {n: self.status_bit(n) for n in self.positions}

    @cached_property
    def node_weights(self) -> dict:
        """node_weight of every node, computed once per snapshot."""
        bits = self.status_bits
        weights = {}
        for n in self.positions:
            st = self.node_status(n)
            n_path = neighbor_transmit_count([bits[j] for j in self.neighbors(n)])
            rel = relay_reliability(st.relayed_ok, st.relay_received)
            weights[n] = node_weight(bits[n], n_path, rel, self.weights, can_transmit=bits[n] == 1)
        return weights

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
            weight = self.node_weights[w]
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
    _extend_paths(topology.neighbor_lists, destination, (source,), max_hops, found)
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
    """Routes of one decoded GA genome: route_assign maps (packet_id,
    start_slot) to the chosen PathCandidate. The run grants channels slot by
    slot by path value, so no channel plan is kept."""

    route_assign: dict = field(default_factory=dict)


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


def fit_deadline_order(options: Iterable, n_links: int, n_channels: int) -> list:
    """The deadline-order schedule fit of the GA decode.

    options holds one SlotOption per packet, in fitting order. Each is
    placed at its earliest workable start, where every hop h of a start s
    needs link l_h idle and a free channel in slot s + h; a packet without
    one stays unplaced. Occupancy is kept as integer bitmasks over slots, so
    one route per packet and one transmission per link-slot hold by
    construction. Returns (position in options, option, start bit) per
    placed packet.
    """
    busy = [0] * n_links
    load: dict = {}
    full = 0 if n_channels > 0 else -1
    placed = []
    for pos, option in enumerate(options):
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
    return placed
