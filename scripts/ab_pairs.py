#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark between two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload case2-baseline \
        --seeds 0 1 --pairs 10

Each pair runs `bench/run.py --workload W --seed S --seconds 50 --trace 0`
once in each checkout, the parent first in odd pairs and the change first in
even ones; pair i uses seeds[i % len(seeds)]. The last line of each run's
stdout is its JSON result. For every end-to-end metric in the parent's
BENCHMARK.json the script prints each side's median and quartiles and how
many pairs the change won (ties count for neither side). It flags a gain
only when the change won at least nine tenths of the pairs and the medians
differ, in the better direction, by more than the parent's interquartile
range, and the change had no more failed runs than the parent.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# run length of every benchmark run, in simulated seconds, as the benchmark sets it
SECONDS = 50


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON result of one benchmark run in checkout."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3); q1 = q3 = the value for a single sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent: list, change: list, better: str, failed: dict) -> dict:
    """Median, quartiles and wins of one metric over paired runs; failed
    counts each side's failed runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (p_med - c_med)
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "rel": (c_med - p_med) / p_med if p_med else math.nan,
        "gain": wins >= 0.9 * len(parent) and gap > p_q3 - p_q1
        and failed["change"] <= failed["parent"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    values: dict = {side: {name: [] for name, _u, _b in metrics} for side in sides}
    failed = {side: 0 for side in sides}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench_run(sides[side], args.workload, seed)
            failed[side] += result["failed"]
            for name, _unit, _better in metrics:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"run_s {side} {values[side]['run_s'][-1]:.4f}" for side in order
        ), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, failed runs parent {failed['parent']} "
          f"change {failed['change']}")
    print(f"{'metric':16s} {'unit':6s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'change':>8s} {'wins':>6s}")
    for name, unit, better in metrics:
        row = compare(values["parent"][name], values["change"][name], better, failed)
        fmt = "/".join(f"{v:.4g}" for v in row["parent"]), "/".join(
            f"{v:.4g}" for v in row["change"])
        print(f"{name:16s} {unit:6s} {fmt[0]:>32s} {fmt[1]:>32s} {row['rel']:>+8.1%} "
              f"{row['wins']:>3d}/{args.pairs}" + ("  GAIN" if row["gain"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
