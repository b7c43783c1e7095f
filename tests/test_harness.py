import dataclasses
import math
import sys

import numpy as np
import pytest

import dynaroute.config as config_mod
import oracles
from dynaroute.cli import main as cli_main
from dynaroute.config import LossSettings, config_to_dict, default_config
from dynaroute.channel import LossKind
from dynaroute.dynamics import VehicleState, cbf_condition_holds, safety_function
from dynaroute.harness import (
    MetricsLog,
    PacketState,
    _assign_routes,
    _record,
    baseline_route,
    build_scenario,
    build_topology,
    compute_e2e_delay,
    compute_throughput,
    export,
    lead_acceleration,
    run,
)
from dynaroute.scheduling import Packet, TopologySnapshot


def quick_config(case="case1", **kw):
    cfg = default_config(case)
    traffic = kw.pop("traffic", None)
    changes = dict(kw)
    if traffic:
        changes["traffic"] = dataclasses.replace(cfg.traffic, **traffic)
    return dataclasses.replace(cfg, **changes) if changes else cfg


def test_lead_acceleration_profile_points():
    assert lead_acceleration(4.0) == 0.5
    assert lead_acceleration(12.0) == 0.0
    assert lead_acceleration(17.5) == -1.0
    assert lead_acceleration(6.0) == 1.0
    assert lead_acceleration(0.0) == 0.0
    with pytest.raises(ValueError):
        lead_acceleration(-1.0)


def test_lead_profile_piecewise_integral():
    # slot-sampled integral of the profile, the oracle for the velocity trace
    dt = 0.1
    gain_10 = sum(lead_acceleration(k * dt) * dt for k in range(100))
    net_21 = sum(lead_acceleration(k * dt) * dt for k in range(210))
    assert abs(gain_10 - 3.5) <= dt * 2.5
    assert abs(net_21 - (-1.0)) <= dt * 2.5


def test_build_scenario_default_layout():
    cfg = default_config()
    world = build_scenario(cfg, seed=0)
    assert len(world.vehicles) == 8
    for agent in world.vehicles:
        if not agent.is_leader:
            pred = world.vehicles[agent.vid - 1]
            assert pred.state.px - agent.state.px == pytest.approx(10.0)
    assert len(world.rsus) == len(cfg.rsu_positions)
    # one loss process per directed node pair, except RSU to RSU
    n_nodes = len(world.vehicles) + len(world.rsus)
    n_rsus = len(world.rsus)
    assert len(world.losses) == n_nodes * (n_nodes - 1) - n_rsus * (n_rsus - 1)


def test_loss_processes_cover_exactly_the_linkable_pairs():
    cfg = default_config()
    world = build_scenario(cfg, seed=0)
    vehicles = [v.vid for v in world.vehicles]
    rsus = [r.rid for r in world.rsus]
    nodes = vehicles + rsus
    linkable = {
        (a, b) for a in nodes for b in nodes
        if a != b and not (a in rsus and b in rsus)
    }
    assert set(world.losses) == linkable
    # every beacon and every link a snapshot can hold samples one of them
    beacons = {(nb, f.vid) for f in world.followers for nb in f.view.records}
    assert beacons <= linkable
    # RSUs in range of each other still get no RSU-to-RSU link
    cfg.rsu_positions = ((150.0, 10.0), (160.0, 10.0))
    world = build_scenario(cfg, seed=0)
    links = set(build_topology(world, {}).links)
    assert links <= set(world.losses)
    assert any(a in rsus or b in rsus for a, b in links)


def test_build_scenario_minimal_platoon():
    cfg = quick_config(n_platoons=1, vehicles_per_platoon=2)
    world = build_scenario(cfg, seed=1)
    assert len(world.vehicles) == 2
    gaps = [
        world.vehicles[0].state.px - world.vehicles[1].state.px
    ]
    assert gaps == [pytest.approx(10.0)]


def test_build_scenario_rejects_empty():
    cfg = default_config()
    cfg.vehicles_per_platoon = 0
    with pytest.raises(config_mod.ConfigError):
        build_scenario(cfg, seed=0)


def test_baseline_route_direct_and_progress():
    cfg = default_config()
    world = build_scenario(cfg, seed=0)
    topo = build_topology(world, {})
    pkt = Packet(0, 0, 10, 1e5, 0, 5)
    cand = baseline_route(topo, pkt)
    assert cand is not None
    assert cand[0] == 0 and cand[-1] == 5
    # greedy geographic: every hop strictly reduces distance to destination
    pos = topo.positions
    dist = [math.dist(pos[h], pos[5]) for h in cand]
    assert all(d2 < d1 for d1, d2 in zip(dist, dist[1:]))


def test_baseline_route_dead_end_returns_none():
    cfg = default_config()
    world = build_scenario(cfg, seed=0)
    topo = build_topology(world, {})
    # strip every link that makes progress from node 0, in a fresh snapshot
    topo = dataclasses.replace(
        topo, links={(a, b): s for (a, b), s in topo.links.items() if a != 0}
    )
    pkt = Packet(0, 0, 10, 1e5, 0, 5)
    assert baseline_route(topo, pkt) is None


def scattered_baseline_world(rng, seed: int):
    """A baseline world with vehicles scattered over the road and packets
    queued at every node, some beyond queue_max so that those relays are
    full (status bit 0)."""
    cfg = default_config()
    world = build_scenario(cfg, seed=seed)
    world.mode = "baseline"
    for agent in world.vehicles:
        agent.state = VehicleState(
            rng.uniform(-400.0, 1000.0), rng.uniform(-20.0, 30.0), 0.0, rng.uniform(5.0, 25.0)
        )
    nodes = world.all_nodes()
    vehicles = [v.vid for v in world.vehicles]
    for node in nodes:
        queued = cfg.queue_max + 1 if rng.random() < 0.3 else int(rng.integers(0, 3))
        for _ in range(queued):
            pid = len(world.pending)
            dst = int(rng.choice([v for v in vehicles if v != node]))
            pkt = Packet(pid, 0, 20, 1e5, node, dst)
            world.pending[pid] = PacketState(packet=pkt, holder=node)
    return world, nodes


def test_baseline_route_matches_reference_with_full_relays():
    rng = np.random.default_rng(17)
    full = 0
    for seed in range(20):
        world, nodes = scattered_baseline_world(rng, seed)
        topo = build_topology(world, world.pending)
        full += sum(topo.status_bit(n) == 0 for n in nodes)
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    pkt = Packet(0, 0, 10, 1e5, src, dst)
                    assert baseline_route(topo, pkt) == oracles.baseline_route(topo, pkt)
    assert full > 0


def test_assign_routes_memo_gives_every_packet_its_own_route():
    rng = np.random.default_rng(5)
    voids = shared = 0
    for seed in range(20):
        world, _nodes = scattered_baseline_world(rng, seed)
        topo = build_topology(world, world.pending)
        expected = {
            pid: oracles.baseline_route(topo, ps.packet, holder=ps.holder)
            for pid, ps in world.pending.items()
        }
        pairs = [(ps.holder, ps.packet.destination) for ps in world.pending.values()]
        shared += len(pairs) - len(set(pairs))
        _assign_routes(world, topo)
        for pid, ps in world.pending.items():
            hops = expected[pid]
            assert ps.dropped == (hops is None)
            assert ps.path == (() if hops is None else hops) and ps.path_pos == 0
            assert ps.path_value == 0.0  # baseline routes carry no score
            voids += hops is None
    assert voids and shared


def test_repair_routing_asks_the_path_search_for_one_path(monkeypatch):
    # dynaroute re-routes a packet whose next link is gone with the head of
    # the ranking, so it asks for keep=1; the GA step asks for the full list
    calls = []
    search = TopologySnapshot.candidate_paths

    def spy(self, source, destination, max_hops, keep=None):
        calls.append((sys._getframe(1).f_code.co_name, keep))
        return search(self, source, destination, max_hops, keep)

    monkeypatch.setattr(TopologySnapshot, "candidate_paths", spy)
    run(quick_config(duration=5.0), seed=0, mode="dynaroute")
    assert {keep for caller, keep in calls if caller == "_assign_routes"} == {1}
    assert {keep for caller, keep in calls if caller == "_ga_step"} == {None}


def test_zero_traffic_flat_profile_equilibrium():
    # 3 s horizon stays before the first scheduled acceleration
    cfg = quick_config(duration=3.0, traffic={"load": 0.0})
    log = run(cfg, seed=0, mode="baseline")
    assert compute_throughput(log) == 0.0
    assert math.isnan(compute_e2e_delay(log))
    gaps = [r["gap_to_pred"] for r in log.rows if not math.isnan(r["gap_to_pred"])]
    assert all(g == pytest.approx(10.0, abs=1e-9) for g in gaps)


def test_run_determinism_and_export_bytes(tmp_path):
    cfg = quick_config(duration=5.0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    log_a = run(cfg, seed=7, mode="dynaroute")
    log_b = run(cfg, seed=7, mode="dynaroute")
    export(log_a, "csv", out_a)
    export(log_b, "csv", out_b)
    for name in ("trace.csv", "summary.csv", "packets.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_modes_and_seeds_differ():
    cfg = quick_config(duration=5.0)
    base = run(cfg, seed=7, mode="dynaroute")
    other_seed = run(cfg, seed=8, mode="dynaroute")
    assert [r["delivered_bits"] for r in base.rows] != [
        r["delivered_bits"] for r in other_seed.rows
    ]


def test_total_loss_freezes_follower_inputs(monkeypatch):
    # every delivery fails: followers must hold their first solved input
    monkeypatch.setitem(
        config_mod.LOSS_CASES, "case1",
        LossSettings(kind=LossKind.BERNOULLI, p_drop=1.0),
    )
    cfg = quick_config(duration=5.0, traffic={"load": 0.0})
    log = run(cfg, seed=3, mode="baseline")
    accel = {}
    for row in log.rows:
        accel.setdefault(row["vehicle_id"], []).append(row["a"])
    followers = [vid for vid in accel if vid not in (0, 4)]
    for vid in followers:
        series = accel[vid]
        assert len(set(series[1:])) == 1  # constant after the first solve


def test_conservation_of_bits():
    cfg = quick_config(duration=10.0, traffic={"load": 2.0})
    for mode in ("dynaroute", "baseline"):
        log = run(cfg, seed=2, mode=mode)
        assert log.delivered_bits() <= log.injected_bits()
        per_slot: dict = {}
        for row in log.rows:
            per_slot[row["slot"]] = per_slot.get(row["slot"], 0.0) + row["delivered_bits"]
        for slot, bits in per_slot.items():
            assert bits <= cfg.n_channels * cfg.traffic.size_bits + 1e-9


def test_leader_velocity_follows_profile():
    cfg = default_config()
    log = run(cfg, seed=0, mode="baseline")
    v_by_slot = {
        r["slot"]: r["v"] for r in log.rows if r["vehicle_id"] == 0
    }
    v0 = cfg.init_speed
    tol = cfg.dt * cfg.platoon.a_max
    assert v_by_slot[99] - v0 == pytest.approx(3.5, abs=tol + 0.2)
    assert v_by_slot[209] - v0 == pytest.approx(-1.0, abs=tol + 0.2)


def test_recorded_barrier_equals_safety_function_of_logged_positions():
    # the record evaluates h for all followers in one call; each value must
    # carry the bits of safety_function on the logged positions, as a float.
    # This run has a gap at slot 92 where math.hypot and np.hypot disagree.
    cfg = quick_config("case2", duration=10.0)
    log = run(cfg, seed=1, mode="baseline")
    position = {(r["slot"], r["vehicle_id"]): (r["px"], r["py"]) for r in log.rows}
    assert sorted(log.h_series) == sorted(log.cbf_ok_series) == [(0, 1), (1, 2), (2, 3),
                                                                 (4, 5), (5, 6), (6, 7)]
    for (pred, vid), series in log.h_series.items():
        assert len(series) == log.slots_recorded
        for k, h in enumerate(series):
            expected = safety_function(position[(k, vid)], position[(k, pred)], cfg.safety)
            assert type(h) is float and h.hex() == float(expected).hex()
        flags = log.cbf_ok_series[(pred, vid)]
        assert all(type(ok) is bool for ok in flags)
        assert flags == [
            cbf_condition_holds(h_next, h, cfg.safety.alpha)
            for h, h_next in zip(series, series[1:])
        ]
    # no flag of that run fails; a follower closing 4 m on its predecessor
    # between two records does, while the one behind it, falling back, passes
    world = build_scenario(cfg)
    log = MetricsLog(dt=cfg.dt, mode="baseline", seed=0)
    _record(world, log, 0, {})
    agent = world.vehicles[1]
    agent.state = dataclasses.replace(agent.state, px=agent.state.px + 4.0)
    _record(world, log, 1, {})
    assert log.cbf_ok_series[(0, 1)] == [False]
    assert log.cbf_ok_series[(1, 2)] == [True]


def test_tracking_monitor_flags_are_logged():
    cfg = quick_config(duration=5.0)
    log = run(cfg, seed=0, mode="baseline")
    assert all("track_v_ok" in r and "track_p_ok" in r for r in log.rows)
    assert all(r["track_v_ok"] and r["track_p_ok"] for r in log.rows)


def test_throughput_and_delay_arithmetic():
    from dynaroute.harness import PacketState

    log = MetricsLog(dt=0.1, mode="baseline", seed=0)
    log.slots_recorded = 100  # 10 s run
    pkt = Packet(0, 3, 10, 1e6, 0, 5)
    log.packets[0] = PacketState(packet=pkt, holder=5, delivered_slot=8)
    assert compute_throughput(log) == pytest.approx(1e5)
    assert compute_e2e_delay(log) == pytest.approx(0.5)


def test_export_row_counts(tmp_path):
    cfg = quick_config(duration=0.2, traffic={"load": 0.0})  # two slots
    log = run(cfg, seed=0, mode="baseline")
    export(log, "csv", tmp_path)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 8  # header + two slots x eight vehicles


def test_export_empty_log_and_plotscript(tmp_path):
    log = MetricsLog(dt=0.1, mode="baseline", seed=0)
    files = export(log, "plotscript", tmp_path)
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace == [
        "slot,vehicle_id,px,py,psi,v,a,gap_to_pred,delivered_bits,track_v_ok,track_p_ok"
    ]
    assert (tmp_path / "plot_trace.py").exists()
    assert len(files) == 4


def test_plotscript_compiles_and_keys_series_by_slot(tmp_path):
    log = MetricsLog(dt=0.1, mode="baseline", seed=0)
    export(log, "plotscript", tmp_path)
    source = (tmp_path / "plot_trace.py").read_text()
    compile(source, "plot_trace.py", "exec")
    assert '"t"' not in source
    assert '["slot"].append(float(row["slot"]))' in source
    assert 'ax.set_xlabel("slot")' in source


def test_export_rejects_unknown_format(tmp_path):
    log = MetricsLog(dt=0.1, mode="baseline", seed=0)
    with pytest.raises(ValueError):
        export(log, "xml", tmp_path)


def test_cli_run_and_validate(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    assert cli_main(["init-config", "--out", str(cfg_path)]) == 0
    assert cli_main(["validate-config", str(cfg_path)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"definitely_unknown": 1}')
    assert cli_main(["validate-config", str(bad)]) == 2

    # short run through the CLI
    data = cfg_path.read_text().replace('"duration": 30.0', '"duration": 3.0')
    cfg_path.write_text(data)
    out = tmp_path / "out"
    rc = cli_main([
        "run", "--config", str(cfg_path), "--seed", "1",
        "--mode", "baseline", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "trace.csv").exists() and (out / "summary.csv").exists()


def test_cli_collision_exit_code(tmp_path, monkeypatch):
    # leader slams the brakes from the start while followers can barely
    # decelerate: the run must halt flagged and the CLI exit with 3
    import dynaroute.harness as harness_mod

    monkeypatch.setattr(harness_mod, "LEAD_PROFILE", ((0.0, 15.0, -2.5),))
    from dynaroute.config import dump_config

    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        platoon=dataclasses.replace(cfg.platoon, comfort_a=0.01),
        traffic=dataclasses.replace(cfg.traffic, load=0.0),
    )
    cfg_path = tmp_path / "crash.json"
    dump_config(cfg, cfg_path)
    rc = cli_main([
        "run", "--config", str(cfg_path), "--seed", "0",
        "--mode", "baseline", "--out", str(tmp_path / "out"),
    ])
    assert rc == 3


def test_run_halts_and_flags_on_collision(monkeypatch):
    import dynaroute.harness as harness_mod

    monkeypatch.setattr(harness_mod, "LEAD_PROFILE", ((0.0, 15.0, -2.5),))
    cfg = quick_config(traffic={"load": 0.0})
    cfg = dataclasses.replace(
        cfg, platoon=dataclasses.replace(cfg.platoon, comfort_a=0.01)
    )
    log = run(cfg, seed=0, mode="baseline")
    assert log.collision
    assert log.halted_slot is not None
    assert log.slots_recorded == log.halted_slot + 1 < cfg.n_slots


def test_plant_saturates_the_applied_input(monkeypatch):
    # the leaders' scheduled input exceeds the actuator limit; the plant
    # clamps it, and the trace records what was applied
    import dynaroute.harness as harness_mod

    monkeypatch.setattr(harness_mod, "LEAD_PROFILE", ((0.0, 1.0, 9.0),))
    cfg = quick_config(duration=0.5, traffic={"load": 0.0})
    log = run(cfg, seed=0, mode="baseline")
    lead = [r for r in log.rows if r["vehicle_id"] == 0]
    assert [r["a"] for r in lead] == [cfg.platoon.a_max] * 5
    assert lead[-1]["v"] == pytest.approx(cfg.init_speed + 5 * cfg.dt * cfg.platoon.a_max)


@pytest.mark.parametrize("command", [
    ["run", "--out", "unused"],
    ["sweep", "--param", "load", "--values", "1", "--out", "unused"],
])
def test_cli_config_and_loss_case_are_exclusive(tmp_path, command, capsys):
    cfg_path = tmp_path / "cfg.json"
    assert cli_main(["init-config", "--out", str(cfg_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli_main(command + ["--config", str(cfg_path), "--loss-case", "case2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_loss_case_runs_the_case_preset(tmp_path, monkeypatch):
    import dynaroute.cli as cli_mod

    seen = []

    def short_run(cfg, seed, mode):
        seen.append(config_to_dict(cfg))
        return run(dataclasses.replace(cfg, duration=0.5), seed=seed, mode=mode)

    monkeypatch.setattr(cli_mod, "run", short_run)
    rc = cli_main(["run", "--loss-case", "case2", "--mode", "baseline",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert seen == [config_to_dict(default_config("case2"))]


def test_cli_sweep_writes_summary(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cli_main(["init-config", "--out", str(cfg_path)])
    data = cfg_path.read_text().replace('"duration": 30.0', '"duration": 2.0')
    cfg_path.write_text(data)
    rc = cli_main([
        "sweep", "--param", "load", "--values", "0.5,1", "--seeds", "1",
        "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
    ])
    assert rc == 0
    lines = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,mode,seed")
    assert len(lines) == 1 + 2 * 2  # two values x two modes x one seed


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_cli_sweep_rejects_fewer_than_one_seed_before_any_run(
    tmp_path, monkeypatch, capsys, seeds
):
    import dynaroute.cli as cli_mod

    runs = []
    monkeypatch.setattr(cli_mod, "run", lambda cfg, seed, mode: runs.append(mode))
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "--param", "load", "--values", "1", "--seeds", seeds,
                   "--out", str(out)])
    assert rc == 2
    assert runs == [] and not out.exists()
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("param, values", [
    ("load", "-1"),
    ("interval", "0"),
    ("load", "0.5,-1"),  # a bad value after a good one: still no run
    ("load", "1,nan"),
    ("interval", "inf"),
])
def test_cli_sweep_rejects_a_bad_value_before_any_run(tmp_path, monkeypatch, capsys, param, values):
    import dynaroute.cli as cli_mod

    runs = []
    monkeypatch.setattr(cli_mod, "run", lambda cfg, seed, mode: runs.append(mode))
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "--param", param, "--values", values, "--out", str(out)])
    assert rc == 2
    assert runs == [] and not out.exists()
    assert "config error" in capsys.readouterr().err

