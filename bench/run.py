"""dynaroute benchmark: co-simulation workloads timed end to end, checked,
and optionally traced per layer.

    python3 bench/run.py --workload case1-dynaroute --seed 0 --seconds 50 --trace 0

Each workload is a stored scenario config (bench/configs/) run in one mode.
Benchmark seed n simulates the batch of seeds n*B .. n*B+B-1, with B fixed per
workload, so one run pools several simulations. With --trace 0 the batch runs
untraced once in full, its seeds are repeated while another run fits in
--seconds, and the last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1
the first seed of the batch runs once untraced and once traced, and the JSON
holds the per-layer metrics. bench/README.md describes the metrics.
"""

from __future__ import annotations

import os

# one compute thread: pinned before numpy is imported, here and in the
# set-up probes, which inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> (mode, simulations per benchmark seed). One pass over a batch takes
# 20 to 45 s on 2 cores and pools enough seeds that the pooled figures move
# less between benchmark seeds than the per-seed ones do. dense-dynaroute is
# not in BENCHMARK.json (see bench/README.md) but stays runnable by hand.
WORKLOADS = {
    "case1-dynaroute": ("dynaroute", 3),
    "case2-baseline": ("baseline", 12),
    "dense-dynaroute": ("dynaroute", 3),
}
WARMUP_SLOTS = 10
SETUP_REPEATS = 9
CSV_FILES = ("trace.csv", "packets.csv", "summary.csv")

# dynaroute modules, imported by main() once src/ is known to exist
config = harness = None

# Runs in a fresh interpreter: import, load the stored config, build the world.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import dynaroute
from dynaroute.config import load_config
from dynaroute.harness import build_scenario
build_scenario(load_config(sys.argv[1]), int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def run_once(cfg, seed: int, mode: str, out_dir: Path):
    log = harness.run(cfg, seed=seed, mode=mode)
    harness.export(log, "csv", out_dir)
    return log


def timed(fn, *args):
    """(result, wall seconds, process CPU seconds) of fn(*args)."""
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - t0, time.process_time() - c0


def check_outputs(log, out_dir: Path) -> list:
    """Problems with one exported run: packet windows, and summary.csv
    against the MetricsLog aggregates."""
    problems = []
    for ps in log.packets.values():
        pkt = ps.packet
        if ps.delivered_slot is None:
            continue
        if ps.dropped:
            problems.append(f"packet {pkt.id} is both delivered and dropped")
        if not pkt.arrival_slot <= ps.delivered_slot <= pkt.last_slot:
            problems.append(
                f"packet {pkt.id} delivered at slot {ps.delivered_slot} outside "
                f"[{pkt.arrival_slot}, {pkt.last_slot}]"
            )
    rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
    summary = dict(row.split(",", 1) for row in rows)
    if summary.get("mode") != log.mode or summary.get("seed") != str(log.seed):
        problems.append("summary.csv mode/seed differ from the run")
    bad_v, bad_p = log.tracking_violations()
    expected = {
        "throughput_bps": harness.compute_throughput(log),
        "mean_delay_s": harness.compute_e2e_delay(log),
        "min_gap_m": log.min_gap(),
        "max_abs_accel": log.max_abs_accel(),
        "injected_bits": log.injected_bits(),
        "delivered_bits": log.delivered_bits(),
        "collision": float(log.collision),
        "tracking_violations_v": bad_v,
        "tracking_violations_p": bad_p,
    }
    for key, value in expected.items():
        if key not in summary:
            problems.append(f"summary.csv lacks {key}")
            continue
        read = float(summary[key])
        same_nan = math.isnan(read) and math.isnan(value)
        # summary.csv prints six decimals
        if not same_nan and not math.isclose(read, value, rel_tol=0.0, abs_tol=1e-6):
            problems.append(f"summary.csv {key}={summary[key]} but the log gives {value!r}")
    return problems


class HashLedger:
    """sha256 of the exported CSVs per (source tree, workload, run), kept in
    .bench_out/hashes.json so that a repeat in this process or in a later
    run of the same checkout must reproduce them byte for byte."""

    def __init__(self, workload: str, mode: str, cfg_path: Path):
        digest = hashlib.sha256(f"{mode}\n".encode() + cfg_path.read_bytes())
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        self.prefix = f"{digest.hexdigest()[:16]}/{workload}"
        self.path = OUT / "hashes.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, out_dir: Path) -> list:
        hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                  for name in CSV_FILES}
        key = f"{self.prefix}/{key}"
        known = self.data.get(key)
        if known is None:
            self.data[key] = hashes
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")
            tmp.replace(self.path)
            return []
        return [f"{name} differs from an earlier run of {key}"
                for name in CSV_FILES if known[name] != hashes[name]]


class Runner:
    """Counts every simulation attempted and every one that raised or
    failed a check; a failed run is reported, never skipped silently."""

    def __init__(self, workload: str, ledger: HashLedger):
        self.workload = workload
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0

    def attempt(self, key: str, label: str, fn, *args):
        """Time fn(*args, out_dir) and check its outputs; None on failure."""
        self.attempted += 1
        out_dir = OUT / self.workload / label
        try:
            log, wall, cpu = timed(fn, *args, out_dir)
            problems = check_outputs(log, out_dir) + self.ledger.check(key, out_dir)
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.workload} {label}: {problem}", file=sys.stderr)
            return None
        return log, wall, cpu


def outcomes(log) -> dict:
    """Simulated-outcome totals of one run, summed over a batch."""
    delivered = [ps for ps in log.packets.values() if ps.delivered_slot is not None]
    return {
        "injected": len(log.packets),
        "delivered": len(delivered),
        "delivered_bits": log.delivered_bits(),
        "duration_s": log.duration(),
        "delay_sum_s": sum((ps.delivered_slot - ps.packet.arrival_slot) * log.dt
                           for ps in delivered),
        "min_gap_m": log.min_gap(),
        "h_neg_slots": sum(h < 0.0 for series in log.h_series.values() for h in series),
        "cbf_fail_slots": sum(not ok for series in log.cbf_ok_series.values() for ok in series),
    }


def pooled(parts: list) -> dict:
    """Batch figures: name -> (value, unit)."""
    tot = {k: sum(p[k] for p in parts) for k in parts[0] if k != "min_gap_m"}
    return {
        "throughput_bps": (tot["delivered_bits"] / tot["duration_s"], "bps"),
        "delivery_ratio": (tot["delivered"] / tot["injected"], "ratio"),
        "min_gap_m": (min(p["min_gap_m"] for p in parts), "m"),
        "mean_delay_s": (tot["delay_sum_s"] / tot["delivered"] if tot["delivered"] else math.nan,
                         "s"),
        "h_neg_slots": (tot["h_neg_slots"], "slots"),
        "cbf_fail_slots": (tot["cbf_fail_slots"], "slots"),
    }


def measure_setup(cfg_path: Path, seed: int) -> list:
    """Seconds to import dynaroute, load the config and build the scenario,
    each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(cfg_path), str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def quartiles(values: list) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f}"


def upper_quartile(values: list) -> float:
    # On a shared host the same simulation runs up to 1.8x faster in phases of
    # 10-20 s when neighbours are idle. How much of a run falls into such a
    # phase moves its median; the upper quartile tracks the common slow phase
    # and repeats better from run to run.
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def untraced(cfg, cfg_path: Path, mode: str, sim_seeds: list, seconds: float,
             runner: Runner):
    """End-to-end metrics and the extra printed figures, name -> (value,
    unit, note); (None, None) when no run succeeded."""
    walls, cpus, parts = [], [], []
    deadline = time.perf_counter() + seconds
    # The first pass covers the whole batch, so the simulated figures depend
    # on the seed only. Repeats of the batch's seeds then fill --seconds with
    # more timing samples, and each repeat must reproduce the CSVs.
    for i in itertools.count():
        if i >= len(sim_seeds) and (not walls or time.perf_counter() + walls[-1] > deadline):
            break
        seed = sim_seeds[i % len(sim_seeds)]
        done = runner.attempt(f"seed-{seed}", f"seed-{seed}", run_once, cfg, seed, mode)
        if done is None:
            continue
        log, wall, cpu = done
        walls.append(wall)
        cpus.append(cpu)
        if i < len(sim_seeds):
            parts.append(outcomes(log))
    if not walls:
        return None, None
    setup = measure_setup(cfg_path, sim_seeds[0])
    metrics = {
        "run_s": (upper_quartile(walls), "s",
                  f"upper quartile of {len(walls)} run()+export(), "
                  f"median {statistics.median(walls):.4f}"),
        "cpu_s": (upper_quartile(cpus), "s",
                  f"upper quartile of {len(cpus)}, median {statistics.median(cpus):.4f}"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters {quartiles(setup)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
    }
    batch = pooled(parts)
    note = f"pooled over {len(parts)} seeds"
    for name in ("throughput_bps", "delivery_ratio", "mean_delay_s"):
        metrics[name] = batch[name] + (note,)
    # The safety outcomes are tail counts that differ several-fold between
    # seeds and are 0 on some, so they are printed here and reported as
    # control-layer metrics of the traced run rather than bounded medians.
    return metrics, {name: batch[name] + (note,)
                     for name in ("min_gap_m", "h_neg_slots", "cbf_fail_slots")}


def traced(cfg_path: Path, mode: str, seed: int, runner: Runner):
    """Per-layer metrics of one traced run, as untraced() returns them."""
    from tracer import Tracer, layer_metrics

    def load_and_run(out_dir: Path):
        return run_once(config.load_config(cfg_path), seed, mode, out_dir)

    plain = runner.attempt(f"seed-{seed}", f"seed-{seed}", load_and_run)
    with Tracer() as tracer:
        done = runner.attempt(f"seed-{seed}", f"seed-{seed}-traced", load_and_run)
    if plain is None or done is None:
        return None, None
    span_file = OUT / runner.workload / f"seed-{seed}-traced" / "spans.npz"
    tracer.write(span_file)
    log, wall, _cpu = done
    metrics = {k: v + ("",) for k, v in layer_metrics(tracer).items()}
    layer_self = sum(v for k, (v, _u, _n) in metrics.items() if k.endswith(".self_s"))
    batch = pooled([outcomes(log)])
    metrics.update({
        "control.min_gap_m": batch["min_gap_m"] + ("",),
        "control.h_neg_slots": batch["h_neg_slots"] + ("",),
        "control.cbf_fail_slots": batch["cbf_fail_slots"] + ("",),
        "harness.mean_delay_s": batch["mean_delay_s"] + ("",),
        "trace.run_s": (wall, "s", "traced load_config+run()+export()"),
        "trace.overhead_s": (wall - plain[1], "s", f"untraced {plain[1]:.4f} s"),
        "trace.unattributed_s": (wall - layer_self, "s", "traced run_s minus layer self times"),
    })
    print(f"spans written to {span_file.relative_to(ROOT)}")
    return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "dynaroute" / "__init__.py").is_file():
        print(f"error: dynaroute sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global config, harness
    import numpy
    from dynaroute import config, harness

    mode, batch = WORKLOADS[args.workload]
    cfg_path = HERE / "configs" / f"{args.workload}.json"
    cfg = config.load_config(cfg_path)
    sim_seeds = [args.seed * batch + j for j in range(batch)]
    runner = Runner(args.workload, HashLedger(args.workload, mode, cfg_path))
    OUT.mkdir(exist_ok=True)

    print(f"workload {args.workload}: mode {mode}, seeds {sim_seeds[0]}..{sim_seeds[-1]}, "
          f"trace {args.trace}")
    print(f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"{platform.machine()}")

    # first calls and lazy imports happen here, outside every timed figure
    warm = dataclasses.replace(cfg, duration=WARMUP_SLOTS * cfg.dt)
    runner.attempt(f"warmup-{sim_seeds[0]}", "warmup", run_once, warm, sim_seeds[0], mode)

    if args.trace:
        metrics, extra = traced(cfg_path, mode, sim_seeds[0], runner)
    else:
        metrics, extra = untraced(cfg, cfg_path, mode, sim_seeds, args.seconds, runner)
    if metrics is None:
        print("error: no run succeeded", file=sys.stderr)
        return 1

    rows = {**metrics, **extra}
    rows["failed_run_ratio"] = (runner.failed / runner.attempted, "ratio",
                                f"{runner.failed} of {runner.attempted} runs")
    for name, (value, unit, note) in rows.items():
        print(f"  {name:44s} {value:>16.6f} {unit:6s} {note}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
