"""Deadline-constrained packet routing: the topology snapshot, the
mobility-aware path score, the best-first search for the best-scored
loop-free paths and the best-value-first deadline-order fit that routes
the GA packets.

A packet assigned at slot k0 to an H-hop path crosses hop h at slot k0+h-1
and must finish inside its deadline window. The fit keeps each slot within
n_channels transmissions and each link to one transmission per slot. The
run grants channels slot by slot by path value, so no channel plan is kept;
tests/oracles.py holds the schedule feasibility check and the exact and
greedy schedule solvers as test references.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
# relative headroom of a path-search bound over the rounding of its own
# float operations, which run in another order than the exact score's
BOUND_SLACK = 1.0 + 1e-9


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
    _toward_cache: dict = field(default_factory=dict, init=False, repr=False)

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

    @cached_property
    def link_table(self) -> dict:
        """(delivery prob, lifetime-capped staying time x receiver weight,
        hop length) of every link, computed once per snapshot."""
        positions, speeds, weights = self.positions, self.speeds, self.node_weights
        table = {}
        for (u, w), link in self.links.items():
            pu, pw = positions[u], positions[w]
            planar = math.hypot(pw[0] - pu[0], pw[1] - pu[1])
            sd = staying_time(
                self.comm_range,
                min(planar, self.comm_range),
                speeds.get(u, 0.0),
                speeds.get(w, 0.0),
            )
            table[(u, w)] = (
                link.delivery_prob, min(sd, self.lifetime_horizon) * weights[w], planar
            )
        return table

    @cached_property
    def link_matrices(self) -> tuple:
        """(node -> row index, lifetime-capped staying time x receiver
        weight, delivery prob): the link table as dense node x node arrays,
        0.0 where there is no link."""
        index = {n: i for i, n in enumerate(self.positions)}
        weighted, prob = np.zeros((2, len(index), len(index)))
        for (u, w), (p, lifetime_weight, _len) in self.link_table.items():
            i, j = index[u], index[w]
            weighted[i, j], prob[i, j] = lifetime_weight, p
        return index, weighted, prob

    @cached_property
    def repr_rank(self) -> dict:
        """Each node's position in repr order, the order path enumeration
        visits neighbors in."""
        return {n: i for i, n in enumerate(sorted(self.positions, key=repr))}

    def toward(self, destination) -> "Toward":
        """Per-destination tables, built once per snapshot and destination."""
        table = self._toward_cache.get(destination)
        if table is None:
            table = self._toward_cache[destination] = Toward.build(self, destination)
        return table

    def hop_factors(self, u, w, destination) -> tuple:
        """(delivery prob, mobility numerator) of the hop u->w toward
        destination, computed once per snapshot. The numerator is the
        link's lifetime-capped staying time x receiver weight, times the
        hop's alignment toward destination."""
        prob, lifetime_weight, hop_len = self.link_table[(u, w)]
        dist = self.toward(destination).dist
        factors = (prob, lifetime_weight * hop_alignment(hop_len, dist[u], dist[w]))
        self._hop_cache[(u, w, destination)] = factors
        return factors

    def candidate_paths(self, source, destination, max_hops: int, keep: int | None = None) -> list:
        """Best keep (default path_cap) candidates by value, ties in
        enumeration order. A call with keep below path_cap answers from the
        full list when that is cached already."""
        if keep is None:
            keep = self.path_cap
        cache = self._path_cache
        kept = cache.get((source, destination, max_hops, keep))
        if kept is None:
            full = cache.get((source, destination, max_hops, self.path_cap))
            if full is not None and keep <= self.path_cap:
                return full[:keep]
            kept = _best_paths(self, source, destination, max_hops, keep)
            cache[(source, destination, max_hops, keep)] = kept
        return kept


class Toward(NamedTuple):
    """Tables of one snapshot toward one destination d: each node's
    distance to d, and per node a the largest product over relays b of the
    links a->b->d of lifetime-capped staying time x receiver weight
    (best_weighted) and of delivery prob (best_prob), 0.0 without such a
    relay. The maxima only bound 3-hop scores in the best-first search, so
    numpy computes them: they never become a score."""

    dist: dict
    best_weighted: dict
    best_prob: dict

    @classmethod
    def build(cls, topology: TopologySnapshot, destination) -> "Toward":
        pd = topology.positions[destination]
        dist = {
            n: math.hypot(pd[0] - p[0], pd[1] - p[1]) for n, p in topology.positions.items()
        }
        index, weighted, prob = topology.link_matrices
        d = index[destination]
        return cls(
            dist,
            dict(zip(index, (weighted * weighted[:, d]).max(axis=1).tolist())),
            dict(zip(index, (prob * prob[:, d]).max(axis=1).tolist())),
        )


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
            prob, numerator = cache.get((u, w, dst)) or hop_factors(u, w, dst)
            total *= numerator / sigma_eff
            success *= prob
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


def _best_paths(
    topology: TopologySnapshot, source, destination, max_hops: int, keep: int
) -> list:
    """The keep best loop-free source->destination paths of at most
    max_hops edges as PathCandidates, ranked as a full enumeration would
    rank them: by value, ties in enumeration order.

    Best-first threshold search over _search_items: items are scored
    exactly, by path_scores, in descending bound order until the next bound
    falls strictly below the keep-th best score so far. An item whose bound
    ties that score is still scored, since a tie can win on enumeration
    order.
    """
    if source == destination:
        raise ValueError("source and destination must differ")
    if max_hops < 1:
        raise ValueError("max_hops must be at least 1")
    if keep < 1:
        return []
    scored = []
    best: list = []  # min-heap of the keep best scores so far
    for bound, hops in _search_items(topology, source, destination, max_hops):
        if len(best) == keep and bound < best[0]:
            break
        paths = _item_paths(topology, hops, destination, max_hops)
        for path, score in zip(paths, path_scores(topology, paths)):
            if len(best) < keep:
                heapq.heappush(best, score)
            elif score > best[0]:
                heapq.heapreplace(best, score)
            elif score < best[0]:
                continue  # below the keep-th best for good
            scored.append((score, path))
    rank = topology.repr_rank
    scored.sort(key=lambda item: (-item[0], [rank[n] for n in item[1]]))
    return [PathCandidate(path, score) for score, path in scored[:keep]]


def _search_items(topology: TopologySnapshot, source, destination, max_hops: int) -> list:
    """(upper bound on the scores, hops) per item of the path search, in
    descending bound order. An item is the direct path, a 2-hop path, or
    (source, a), which stands for the paths of 3 or more hops through first
    relay a (_item_paths).

    A first relay's bound over 3-hop paths takes the dispersion from the
    three known speeds (the population variance of four values is at least
    3/4 of that of three of them, and the floor applies to both), the first
    hop's exact numerator and probability, the per-relay maxima of Toward
    for the last two hops (alignment at most 1 in the middle, exactly 1 on
    the last hop), and BOUND_SLACK for the rounding of its own operations.
    Paths of more than 3 hops get no finite bound, so they are all scored.
    """
    table = topology.link_table
    toward = topology.toward(destination)
    cache = topology._hop_cache
    hop_factors = topology.hop_factors
    speeds = topology.speeds
    sqrt = math.sqrt
    v_s, v_d = speeds.get(source, 0.0), speeds.get(destination, 0.0)

    items = []
    direct = table.get((source, destination))
    if direct is not None:
        sigma = max(abs(v_s - v_d) / 2, SIGMA_SCORE_FLOOR)
        items.append((direct[1] / sigma * direct[0] * BOUND_SLACK, (source, destination)))
    if max_hops >= 2:
        for a in topology.neighbor_lists.get(source, ()):
            if a == destination:
                continue
            v_a = speeds.get(a, 0.0)
            mean = (v_s + v_a + v_d) / 3
            var = ((v_s - mean) ** 2 + (v_a - mean) ** 2 + (v_d - mean) ** 2) / 3
            prob, numerator = cache.get((source, a, destination)) or hop_factors(
                source, a, destination
            )
            last = table.get((a, destination))
            if last is not None:
                sigma = max(sqrt(var), SIGMA_SCORE_FLOOR)
                bound = sqrt(numerator * last[1]) / sigma * prob * last[0] / 2
                items.append((bound * BOUND_SLACK, (source, a, destination)))
            if max_hops >= 3:
                if max_hops == 3:
                    sigma = max(sqrt(0.75 * var), SIGMA_SCORE_FLOOR)
                    bound = (numerator * toward.best_weighted[a]) ** (1.0 / 3.0) / sigma
                    bound *= prob * toward.best_prob[a] / 3 * BOUND_SLACK
                else:
                    bound = math.inf
                items.append((bound, (source, a)))
    items.sort(key=itemgetter(0), reverse=True)
    return items


def _item_paths(topology: TopologySnapshot, hops: tuple, destination, max_hops: int) -> list:
    """The paths one search item stands for, in enumeration order."""
    if hops[-1] == destination:
        return [hops]
    adjacency = topology.neighbor_lists
    source, relay = hops
    paths: list = []
    for b in adjacency.get(relay, ()):
        if b != source and b != destination:
            _extend_paths(adjacency, destination, (source, relay, b), max_hops - 2, paths)
    return paths


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
    """Routes of the GA packets from the deadline-order fit: route_assign
    maps (packet_id, start_slot) to the chosen PathCandidate. The run grants
    channels slot by slot by path value, so no channel plan is kept."""

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


def fit_deadline_order(
    packet_options: Iterable, n_links: int, n_channels: int, n_slots: int
) -> list:
    """The best-value-first deadline-order fit that routes the GA packets.

    packet_options holds, per packet in fitting order, the packet's
    SlotOptions in candidate order (by value, ties in enumeration order),
    with start bits counted from the slot origin; every hop falls before
    slot origin + n_slots. Each packet takes the first option that has a
    workable start, at that option's earliest one, where every hop h of a
    start s needs link l_h idle and a free channel in slot s + h; a packet
    without one stays unplaced. Occupancy is kept as integer bitmasks over
    slots, so one route per packet and one transmission per link-slot hold
    by construction. Returns (position in packet_options, option, start
    bit) per placed packet.
    """
    busy = [0] * n_links
    load = [0] * n_slots
    full = 0 if n_channels > 0 else -1
    placed = []
    for pos, options in enumerate(packet_options):
        for option in options:
            links = option[1]
            bad = 0
            h = 0
            for link in links:
                bad |= (busy[link] | full) >> h
                h += 1
            free = option[2] & ~bad
            if free:
                break
        else:
            continue
        start = (free & -free).bit_length() - 1
        slot, bit = start, 1 << start
        for link in links:
            busy[link] |= bit
            load[slot] += 1
            if load[slot] == n_channels:
                full |= bit
            slot += 1
            bit <<= 1
        placed.append((pos, option, start))
    return placed
