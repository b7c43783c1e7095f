"""Scenario construction, the per-slot co-simulation loop coupling platoon
control with packet transmission, the greedy-geographic baseline router,
metrics computation and CSV export.

One run is fully determined by (config, seed, mode): every random draw comes
from a generator keyed on the master seed, a stream tag and the consuming
entity, and all per-slot iteration orders are sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import (
    ChannelParams,
    LinkSnapshot,
    LossProcess,
    markov_step,
    path_loss_los,
    relative_distance,
    sample_delivery,
    shannon_rate,
    sinr_db,
    slot_success_prob,
)
from .config import ScenarioConfig, default_config
from .control import (
    ControlBatch,
    ControlInput,
    DmpcSolution,
    NeighborRecord,
    NeighborView,
    feedback_plans,
    shift_plans,
    solve_dmpc,
)
from .dynamics import (
    VehicleState,
    cbf_condition_holds,
    clamp_input,
    safety_function,
    step,
)
from .link_metrics import NodeStatus
from .optimizer import (
    Individual,
    JointContext,
    best_of,
    decode_schedule,
    evolve,
)
from .scheduling import Packet, TopologySnapshot

RSU_ID_BASE = 1000

# Eq.-style piecewise lead-vehicle acceleration profile (seconds, m/s^2),
# interval bounds inclusive.
LEAD_PROFILE = (
    (3.5, 5.5, 0.5),
    (6.0, 7.5, 1.0),
    (8.0, 10.0, 0.5),
    (14.5, 16.5, -0.5),
    (17.0, 18.5, -1.0),
    (19.0, 21.0, -1.0),
)


def lead_acceleration(t: float) -> float:
    """Scheduled acceleration of every platoon leader at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    for lo, hi, acc in LEAD_PROFILE:
        if lo <= t <= hi:
            return acc
    return 0.0


@dataclass
class VehicleAgent:
    vid: int
    platoon: int
    index: int
    state: VehicleState
    applied: ControlInput = field(default_factory=ControlInput)
    view: NeighborView | None = None
    solution: DmpcSolution | None = None
    held_inputs: list = field(default_factory=list)
    held_offset: int = 0

    @property
    def is_leader(self) -> bool:
        return self.index == 0


@dataclass
class Rsu:
    rid: int
    x: float
    y: float


@dataclass
class PacketState:
    packet: Packet
    holder: object
    path: tuple = ()
    path_pos: int = 0
    path_value: float = 0.0
    delivered_slot: int | None = None
    dropped: bool = False

    @property
    def in_flight(self) -> bool:
        return self.delivered_slot is None and not self.dropped

    def next_link(self):
        if self.path and self.path_pos + 1 < len(self.path):
            return (self.path[self.path_pos], self.path[self.path_pos + 1])
        return None


@dataclass
class World:
    """The scenario layout plus the state the slot loop carries from one
    slot to the next: packets in flight and the last GA champion."""

    config: ScenarioConfig
    vehicles: list
    rsus: list
    losses: dict
    relay_stats: dict
    seed: int = 0
    mode: str = "dynaroute"
    followers: list = field(default_factory=list)
    # vehicle id -> destinations its packets are drawn from
    destinations: dict = field(default_factory=dict)
    traffic_rng: np.random.Generator | None = None
    pending: dict = field(default_factory=dict)
    champion: Individual | None = None

    def node_position(self, node):
        if node >= RSU_ID_BASE:
            rsu = self.rsus[node - RSU_ID_BASE]
            return (rsu.x, rsu.y)
        v = self.vehicles[node].state
        return (v.px, v.py)

    def node_speed(self, node) -> float:
        if node >= RSU_ID_BASE:
            return 0.0
        return self.vehicles[node].state.v

    def all_nodes(self) -> list:
        return [v.vid for v in self.vehicles] + [r.rid for r in self.rsus]


@dataclass
class MetricsLog:
    """Per-slot time series plus packet ledger; aggregates are recomputed
    from the records."""

    dt: float
    mode: str
    seed: int
    rows: list = field(default_factory=list)
    packets: dict = field(default_factory=dict)
    h_series: dict = field(default_factory=dict)
    cbf_ok_series: dict = field(default_factory=dict)
    collision: bool = False
    halted_slot: int | None = None
    slots_recorded: int = 0

    def injected_bits(self) -> float:
        return sum(ps.packet.size for ps in self.packets.values())

    def delivered_bits(self) -> float:
        return sum(
            ps.packet.size for ps in self.packets.values() if ps.delivered_slot is not None
        )

    def min_gap(self) -> float:
        gaps = [r["gap_to_pred"] for r in self.rows if not math.isnan(r["gap_to_pred"])]
        return min(gaps) if gaps else math.nan

    def max_abs_accel(self) -> float:
        return max((abs(r["a"]) for r in self.rows), default=0.0)

    def max_abs_follower_accel(self) -> float:
        vals = [abs(r["a"]) for r in self.rows if not math.isnan(r["gap_to_pred"])]
        return max(vals, default=0.0)

    def tracking_violations(self) -> tuple:
        bad_v = sum(1 for r in self.rows if not r["track_v_ok"])
        bad_p = sum(1 for r in self.rows if not r["track_p_ok"])
        return bad_v, bad_p

    def duration(self) -> float:
        return self.slots_recorded * self.dt


def compute_throughput(log: MetricsLog) -> float:
    """Delivered bits per second over the recorded horizon."""
    dur = log.duration()
    return log.delivered_bits() / dur if dur > 0 else 0.0


def compute_e2e_delay(log: MetricsLog) -> float:
    """Mean delivery delay in seconds; nan marks a run with no deliveries."""
    delays = [
        (ps.delivered_slot - ps.packet.arrival_slot) * log.dt
        for ps in log.packets.values()
        if ps.delivered_slot is not None
    ]
    return float(np.mean(delays)) if delays else math.nan


def _link_pairs(nodes: list) -> list:
    """Ordered node pairs that can carry a link or a beacon: all but the
    RSU-to-RSU pairs, whose backhaul is not simulated."""
    return [
        (a, b) for a in nodes for b in nodes
        if a != b and (a < RSU_ID_BASE or b < RSU_ID_BASE)
    ]


def build_scenario(config: ScenarioConfig, seed: int = 0) -> World:
    """Lay out the platoons and roadside units; deterministic given config."""
    config.validate()
    vehicles = []
    vid = 0
    for p in range(config.n_platoons):
        lead_x = (config.vehicles_per_platoon - 1) * config.desired_gap - p * config.platoon_stagger
        lane_y = p * config.lane_offset
        for i in range(config.vehicles_per_platoon):
            state = VehicleState(
                px=lead_x - i * config.desired_gap, py=lane_y, psi=0.0, v=config.init_speed
            )
            vehicles.append(VehicleAgent(vid=vid, platoon=p, index=i, state=state))
            vid += 1

    rsus = [Rsu(rid=RSU_ID_BASE + i, x=x, y=y) for i, (x, y) in enumerate(config.rsu_positions)]

    loss = config.loss_settings
    losses = {}
    node_ids = [v.vid for v in vehicles] + [r.rid for r in rsus]
    for a, b in _link_pairs(node_ids):
        # each link owns its generator, so the set of links moves no draw
        link_seed = int(
            np.random.SeedSequence((seed, 4, a, b)).generate_state(1)[0]
        )
        losses[(a, b)] = LossProcess(
            kind=loss.kind,
            p_drop=loss.p_drop,
            p_good_to_bad=loss.p_good_to_bad,
            p_bad_to_good=loss.p_bad_to_good,
            rng_seed=link_seed,
        )

    # followers track the platoon leader (reference anchor) and their
    # immediate predecessor; the initial formation is known at build time
    for agent in vehicles:
        if agent.is_leader:
            continue
        leader = vehicles[agent.vid - agent.index]
        predecessor = vehicles[agent.vid - 1]
        records = {
            leader.vid: NeighborRecord(
                state=leader.state, slot=0, delivered=True,
                offset=np.array([-agent.index * config.desired_gap, 0.0, 0.0, 0.0]),
                is_reference_anchor=True,
            )
        }
        if predecessor.vid != leader.vid:
            records[predecessor.vid] = NeighborRecord(
                state=predecessor.state, slot=0, delivered=True,
                offset=np.array([-config.desired_gap, 0.0, 0.0, 0.0]),
            )
        agent.view = NeighborView(records=records)

    # packets cross to the other platoon(s), or to any other vehicle when
    # there is only one platoon
    destinations = {}
    for v in vehicles:
        others = [w.vid for w in vehicles if w.platoon != v.platoon]
        destinations[v.vid] = others or [w.vid for w in vehicles if w.vid != v.vid]

    relay_stats = {n: NodeStatus(queue_max=config.queue_max) for n in node_ids}
    return World(
        config=config, vehicles=vehicles, rsus=rsus, losses=losses,
        relay_stats=relay_stats, seed=seed,
        followers=[v for v in vehicles if not v.is_leader],
        destinations=destinations,
        traffic_rng=np.random.default_rng(np.random.SeedSequence((seed, 1))),
    )


def build_topology(world: World, pending: dict) -> TopologySnapshot:
    """Channel-and-status snapshot over all vehicle/RSU nodes."""
    config = world.config
    params: ChannelParams = config.channel
    nodes = world.all_nodes()
    positions = {n: world.node_position(n) for n in nodes}
    speeds = {n: world.node_speed(n) for n in nodes}

    queue_len: dict = {}
    for ps in pending.values():
        if ps.in_flight:
            queue_len[ps.holder] = queue_len.get(ps.holder, 0) + 1
    mult = config.loss_settings.contender_multiplier
    contenders = max(1, int(round(mult * len(queue_len))))

    statuses = {}
    for n in nodes:
        st = world.relay_stats[n]
        statuses[n] = NodeStatus(
            queue_len=queue_len.get(n, 0),
            queue_max=st.queue_max,
            relayed_ok=st.relayed_ok,
            relay_received=st.relay_received,
        )

    links = {}
    for a, b in _link_pairs(nodes):
        pa, pb = positions[a], positions[b]
        planar = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
        if planar <= 0 or planar > config.comm_range:
            continue
        offset = params.l_v2i_0 if (a >= RSU_ID_BASE or b >= RSU_ID_BASE) else params.l0
        snr = sinr_db(params.p_tx, path_loss_los(planar, params), params.n_noise)
        if snr < params.xi0:
            continue
        dist = relative_distance(pa, pb, offset)
        links[(a, b)] = LinkSnapshot(
            distance=dist,
            rate=shannon_rate(params.bandwidth, snr),
            delivery_prob=slot_success_prob(
                config.traffic.size_bits, contenders, params, dist
            ),
        )
    return TopologySnapshot(
        positions=positions, speeds=speeds, statuses=statuses, links=links,
        comm_range=config.comm_range, weights=config.metric_weights,
        path_cap=config.paths_per_pair,
        lifetime_horizon=config.traffic.deadline_slots * config.dt,
    )


def baseline_route(topology: TopologySnapshot, packet: Packet, holder=None) -> tuple | None:
    """Greedy geographic forwarding: repeatedly take the transmit-capable
    neighbor closest to the destination. Returns the hop tuple, or None
    when a void is reached; the route carries no score."""
    position = topology.positions
    bits = topology.status_bits
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
            if nxt != dst and bits[nxt] != 1:
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


def _beacon_prob(world: World, topo: TopologySnapshot, src: int, dst: int) -> float:
    link = topo.links.get((src, dst))
    if link is None:
        return 0.0
    config = world.config
    holders = 1  # beacons are short; contention handled through the snapshot
    return slot_success_prob(
        config.beacon_bits, holders, config.channel, link.distance
    )


def _select_ga_packets(pending: dict, cap: int) -> list:
    live = [ps for ps in pending.values() if ps.in_flight]
    live.sort(key=lambda ps: (ps.packet.last_slot, ps.packet.id))
    return live[:cap]


def run(config: ScenarioConfig | None = None, seed: int = 0, mode: str = "dynaroute") -> MetricsLog:
    """Co-simulate one scenario; deterministic per (config, seed, mode).

    Each slot takes a topology snapshot, then runs the phases below in
    order; a collision ends the run after the slot is recorded.
    """
    if mode not in ("dynaroute", "baseline"):
        raise ValueError("mode must be 'dynaroute' or 'baseline'")
    if config is None:
        config = default_config()
    world = build_scenario(config, seed)
    world.mode = mode
    log = MetricsLog(dt=config.dt, mode=mode, seed=seed)
    for k in range(config.n_slots):
        for agent in world.followers:
            agent.view.now = k
        topo = build_topology(world, world.pending)
        if mode == "dynaroute" and world.followers and k % config.ga_period == 0:
            _ga_step(world, topo, k)
        _apply_controls(world, k)
        _exchange_beacons(world, topo, k)
        _inject_traffic(world, log, k)
        _assign_routes(world, topo)
        delivered = _transmit(world, _grant_channels(world, topo), k)
        _expire(world, k)
        _advance_dynamics(world)
        _record(world, log, k, delivered)
        if log.collision:
            break
    return log


def _ga_step(world: World, topo: TopologySnapshot, k: int) -> None:
    """GA step over the followers' input sequences: route the
    earliest-deadline packets by the best-value-first deadline-order fit
    (decode_schedule) and hold the champion's inputs for the followers."""
    config = world.config
    ga_packets = _select_ga_packets(world.pending, config.ga_packet_cap)
    packets = []
    candidates = []
    for ps in ga_packets:
        pkt = ps.packet
        moved = Packet(
            id=pkt.id, arrival_slot=pkt.arrival_slot,
            deadline_slots=pkt.deadline_slots, size=pkt.size,
            source=ps.holder, destination=pkt.destination,
        )
        packets.append(moved)
        candidates.append(
            topo.candidate_paths(moved.source, moved.destination, config.max_hops)
        )
    followers = world.followers
    batch = ControlBatch.build(
        [f.state for f in followers], [f.view for f in followers], config.platoon, config.safety
    )
    seeds = [feedback_plans(batch, config.platoon)]
    if world.champion is not None:
        seeds.append(shift_plans(world.champion.control_genes))
    ctx = JointContext(
        platoon=config.platoon,
        control=batch,
        packets=packets,
        candidates=candidates,
        n_channels=config.n_channels,
        schedule_start=k,
        schedule_end=k + config.traffic.deadline_slots,
        seed_control=seeds,
    )
    rng_seed = int(np.random.SeedSequence((world.seed, 3, k)).generate_state(1)[0])
    world.champion = champion = best_of(evolve(ctx, config.ga, rng_seed))
    decision = decode_schedule(ctx)
    routed = {pid: cand for (pid, _k0), cand in decision.route_assign.items()}
    for ps in ga_packets:
        cand = routed.get(ps.packet.id)
        if cand is not None:
            ps.path = cand.hops
            ps.path_pos = 0
            ps.path_value = cand.path_value
    for f_idx, agent in enumerate(world.followers):
        agent.held_inputs = [
            ControlInput(float(r), float(a)) for r, a in champion.control_genes[f_idx]
        ]
        agent.held_offset = 0


def _apply_controls(world: World, k: int) -> None:
    """Leaders follow the scheduled profile. Baseline followers with fresh
    beacons or no plan re-solve their DMPC, all in one solve, and apply
    the first input (receding horizon). Dynaroute followers step through
    the GA's held inputs: the offset into them advances every slot, but
    the applied input changes only in slot 0 or in a slot after a beacon
    arrived, and is held otherwise."""
    config = world.config
    for agent in world.vehicles:
        if agent.is_leader:
            agent.applied = ControlInput(0.0, lead_acceleration(k * config.dt))
    if world.mode == "dynaroute":
        for agent in world.followers:
            if agent.held_inputs and (agent.view.any_delivered() or k == 0):
                offset = min(agent.held_offset, len(agent.held_inputs) - 1)
                agent.applied = agent.held_inputs[offset]
            agent.held_offset += 1
        return
    stale = [
        agent for agent in world.followers
        if agent.view.any_delivered() or agent.solution is None
    ]
    if stale:
        solutions = solve_dmpc(
            ControlBatch.build(
                [agent.state for agent in stale], [agent.view for agent in stale],
                config.platoon, config.safety,
            ),
            [agent.solution for agent in stale],
            config.platoon,
            [
                np.random.default_rng(np.random.SeedSequence((world.seed, 2, agent.vid, k)))
                for agent in stale
            ],
        )
        for agent, sol in zip(stale, solutions):
            agent.solution = sol
            agent.applied = sol.first_input


def _exchange_beacons(world: World, topo: TopologySnapshot, k: int) -> None:
    """Advance every link's loss chain one slot, then deliver each
    follower's neighbor beacons over the snapshot's links."""
    for key in sorted(world.losses):
        markov_step(world.losses[key])
    for agent in world.followers:
        agent.view.mark_slot_start()
        for nb_vid in sorted(agent.view.records):
            prob = _beacon_prob(world, topo, nb_vid, agent.vid)
            if sample_delivery(prob, world.losses[(nb_vid, agent.vid)]):
                agent.view.receive(nb_vid, world.vehicles[nb_vid].state, k)


def _inject_traffic(world: World, log: MetricsLog, k: int) -> None:
    """Each vehicle starts a packet with the per-slot arrival probability."""
    config = world.config
    arrival_prob = min(1.0, config.traffic.load * config.dt / config.traffic.interval_s)
    rng = world.traffic_rng
    for vehicle in world.vehicles:
        destinations = world.destinations[vehicle.vid]
        if destinations and rng.random() < arrival_prob:
            pkt = Packet(
                id=len(log.packets), arrival_slot=k,
                deadline_slots=config.traffic.deadline_slots,
                size=config.traffic.size_bits,
                source=vehicle.vid, destination=int(rng.choice(destinations)),
            )
            ps = PacketState(packet=pkt, holder=vehicle.vid)
            world.pending[pkt.id] = ps
            log.packets[pkt.id] = ps


def _assign_routes(world: World, topo: TopologySnapshot) -> None:
    """Baseline re-routes every packet greedily and drops it at a void,
    walking each (holder, destination) route once per snapshot;
    dynaroute gives a packet whose next link is gone the best candidate
    path from its holder."""
    max_hops = world.config.max_hops
    routes: dict = {}
    for pid in sorted(world.pending):
        ps = world.pending[pid]
        if not ps.in_flight:
            continue
        if world.mode == "baseline":
            key = (ps.holder, ps.packet.destination)
            if key not in routes:
                routes[key] = baseline_route(topo, ps.packet, holder=ps.holder)
            hops = routes[key]
            if hops is None:
                ps.dropped = True
            else:
                ps.path, ps.path_pos = hops, 0
            continue
        link = ps.next_link()
        if link is None or link not in topo.links:
            cands = topo.candidate_paths(ps.holder, ps.packet.destination, max_hops, keep=1)
            if cands:
                ps.path, ps.path_pos, ps.path_value = cands[0].hops, 0, cands[0].path_value
            else:
                ps.path, ps.path_pos, ps.path_value = (), 0, 0.0


def _grant_channels(world: World, topo: TopologySnapshot) -> list:
    """(packet id, link, link snapshot) per granted request: at most
    n_channels grants and one per link. Dynaroute serves by path
    value (the score the deadline-order fit ranks candidates by), letting
    hopeless requests expire; the baseline has no value concept and serves
    in arrival order."""
    config = world.config
    requests = []
    for pid in sorted(world.pending):
        ps = world.pending[pid]
        if not ps.in_flight:
            continue
        link = ps.next_link()
        if link is None or link not in topo.links:
            continue
        snapshot = topo.links[link]
        if ps.packet.size > snapshot.rate * config.channel.tau_slot:
            continue
        requests.append((ps.packet.last_slot, ps.path_value, pid, link, snapshot))
    if world.mode == "dynaroute":
        requests.sort(key=lambda r: (-r[1], r[0], r[2]))
    else:
        requests.sort(key=lambda r: r[2])

    granted_links: set = set()
    grants = []
    for _last, _value, pid, link, snapshot in requests:
        if len(grants) >= config.n_channels:
            break
        if link in granted_links:
            continue
        granted_links.add(link)
        grants.append((pid, link, snapshot))
    return grants


def _transmit(world: World, grants: list, k: int) -> dict:
    """Sample each granted hop; returns the bits delivered this slot per
    packet source."""
    delivered_bits_by_source: dict = {}
    for pid, link, snapshot in grants:
        ps = world.pending[pid]
        dst = link[1]
        if not sample_delivery(snapshot.delivery_prob, world.losses[link]):
            continue
        if ps.holder != ps.packet.source:
            # the forwarding node just completed a relay task
            world.relay_stats[ps.holder].relayed_ok += 1
        ps.holder = dst
        ps.path_pos += 1
        if dst == ps.packet.destination:
            ps.delivered_slot = k
            delivered_bits_by_source[ps.packet.source] = (
                delivered_bits_by_source.get(ps.packet.source, 0.0) + ps.packet.size
            )
        else:
            world.relay_stats[dst].relay_received += 1
    return delivered_bits_by_source


def _expire(world: World, k: int) -> None:
    """Drop packets whose deadline slot has come and keep the rest pending."""
    for ps in world.pending.values():
        if ps.in_flight and k >= ps.packet.last_slot:
            ps.dropped = True
    world.pending = {pid: ps for pid, ps in world.pending.items() if ps.in_flight}


def _advance_dynamics(world: World) -> None:
    """Saturate each vehicle's applied input at the actuator limits, the
    one place the plant input is clamped, and step the vehicle."""
    config = world.config.platoon
    for agent in world.vehicles:
        agent.applied = clamp_input(agent.applied, config.r_max, config.a_max)
        nxt = step(agent.state, agent.applied, world.config.dt)
        if nxt.v < config.v_min or nxt.v > config.v_max:
            nxt = VehicleState(
                nxt.px, nxt.py, nxt.psi, min(max(nxt.v, config.v_min), config.v_max)
            )
        agent.state = nxt


def _record_barrier(world: World, log: MetricsLog) -> None:
    """Append every follower's barrier value toward its predecessor, and
    from the second slot on its CBF flag, evaluated in one call each."""
    safety = world.config.safety
    followers = world.followers
    if not followers:
        return
    preds = [world.vehicles[agent.vid - 1] for agent in followers]
    pairs = [(pred.vid, agent.vid) for pred, agent in zip(preds, followers)]
    h = safety_function(
        np.array([agent.state.position() for agent in followers]),
        np.array([pred.state.position() for pred in preds]),
        safety,
    )
    series = [log.h_series.setdefault(pair, []) for pair in pairs]
    if series[0]:
        prev = np.array([values[-1] for values in series])
        flags = cbf_condition_holds(h, prev, safety.alpha).tolist()
        for pair, ok in zip(pairs, flags):
            log.cbf_ok_series.setdefault(pair, []).append(ok)
    for values, value in zip(series, h.tolist()):
        values.append(value)


def _record(world: World, log: MetricsLog, k: int, delivered_bits_by_source: dict) -> None:
    """Append one trace row per vehicle and the follower barrier series;
    flag the run as halted when a follower reached its predecessor."""
    config = world.config
    collision = False
    _record_barrier(world, log)
    for agent in world.vehicles:
        if agent.is_leader:
            gap = math.nan
        else:
            # signed longitudinal separation to the predecessor
            gap = world.vehicles[agent.vid - 1].state.px - agent.state.px
            if gap <= 0.0:
                collision = True
        leader = world.vehicles[agent.vid - agent.index]
        ref_v = leader.state.v
        ref_px = leader.state.px - agent.index * config.desired_gap
        log.rows.append(
            {
                "slot": k,
                "vehicle_id": agent.vid,
                "px": agent.state.px,
                "py": agent.state.py,
                "psi": agent.state.psi,
                "v": agent.state.v,
                "a": agent.applied.a,
                "gap_to_pred": gap,
                "delivered_bits": delivered_bits_by_source.get(agent.vid, 0.0),
                "track_v_ok": abs(agent.state.v - ref_v) <= config.err_v_bound,
                "track_p_ok": abs(agent.state.px - ref_px) <= config.err_p_bound,
            }
        )
    log.slots_recorded = k + 1
    if collision:
        log.collision = True
        log.halted_slot = k


# ------------------------------------------------------------------ export

TRACE_HEADER = (
    "slot,vehicle_id,px,py,psi,v,a,gap_to_pred,delivered_bits,track_v_ok,track_p_ok"
)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.6f}"
    return str(x)


def export(log: MetricsLog, fmt: str, out_dir: str | Path) -> list:
    """Write trace/summary/packets CSVs (and optionally a companion plot
    script); byte-stable for identical logs."""
    if fmt not in ("csv", "plotscript"):
        raise ValueError("format must be 'csv' or 'plotscript'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    trace = out / "trace.csv"
    lines = [TRACE_HEADER]
    for r in log.rows:
        lines.append(
            ",".join(
                _fmt(r[col])
                for col in (
                    "slot", "vehicle_id", "px", "py", "psi", "v", "a",
                    "gap_to_pred", "delivered_bits", "track_v_ok", "track_p_ok",
                )
            )
        )
    trace.write_text("\n".join(lines) + "\n")
    written.append(trace)

    packets = out / "packets.csv"
    plines = ["packet_id,source,destination,size_bits,arrival_slot,delivered_slot,dropped"]
    for pid in sorted(log.packets):
        ps = log.packets[pid]
        plines.append(
            ",".join(
                [
                    str(pid), str(ps.packet.source), str(ps.packet.destination),
                    _fmt(float(ps.packet.size)), str(ps.packet.arrival_slot),
                    "" if ps.delivered_slot is None else str(ps.delivered_slot),
                    "1" if ps.dropped else "0",
                ]
            )
        )
    packets.write_text("\n".join(plines) + "\n")
    written.append(packets)

    bad_v, bad_p = log.tracking_violations()
    summary = out / "summary.csv"
    delay = compute_e2e_delay(log)
    slines = [
        "metric,value",
        f"mode,{log.mode}",
        f"seed,{log.seed}",
        f"throughput_bps,{_fmt(compute_throughput(log))}",
        f"mean_delay_s,{_fmt(delay)}",
        f"min_gap_m,{_fmt(log.min_gap())}",
        f"max_abs_accel,{_fmt(log.max_abs_accel())}",
        f"injected_bits,{_fmt(log.injected_bits())}",
        f"delivered_bits,{_fmt(log.delivered_bits())}",
        f"collision,{1 if log.collision else 0}",
        f"tracking_violations_v,{bad_v}",
        f"tracking_violations_p,{bad_p}",
    ]
    summary.write_text("\n".join(slines) + "\n")
    written.append(summary)

    if fmt == "plotscript":
        script = out / "plot_trace.py"
        script.write_text(PLOT_SCRIPT)
        written.append(script)
    return written


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot gaps, velocities and accelerations from trace.csv (same directory)."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).parent
series = defaultdict(lambda: defaultdict(list))
with open(here / "trace.csv") as fh:
    for row in csv.DictReader(fh):
        vid = int(row["vehicle_id"])
        series[vid]["slot"].append(float(row["slot"]))
        for col in ("v", "a", "gap_to_pred"):
            series[vid][col].append(float(row[col]))

for col, fname, ylabel in (
    ("gap_to_pred", "gaps.png", "inter-vehicle gap [m]"),
    ("v", "velocity.png", "velocity [m/s]"),
    ("a", "acceleration.png", "acceleration [m/s^2]"),
):
    fig, ax = plt.subplots(figsize=(8, 4))
    for vid, data in sorted(series.items()):
        ax.plot(data["slot"], data[col], label=f"vehicle {vid}")
    ax.set_xlabel("slot")
    ax.set_ylabel(ylabel)
    ax.legend(fontsize=7, ncol=4)
    fig.tight_layout()
    fig.savefig(here / fname, dpi=120)
print("wrote gaps.png velocity.png acceleration.png")
'''
