#!/usr/bin/env python3
"""Check that two checkouts export byte-identical CSVs for a fixed run matrix.

    python3 scripts/same_outputs.py PARENT CHANGE

Each run builds its config in a subprocess with the checkout's src on
PYTHONPATH and runs it at its full duration. The stored benchmark configs
(bench/configs/<workload>.json of the checkout) give case1-dynaroute seeds
0-2, case2-baseline seeds 0-5 and dense-dynaroute seeds 0-2 (16 vehicles:
more relays per path query and more score ties). The checkout's
`default_config` gives case1 dynaroute at load 4 seeds 0-1 (a GA packet cap
that is always full) and case2 dynaroute seed 0 (bursty loss, wider comfort
envelope). For every run the script prints, per checkout, the sha256 of trace.csv, packets.csv and
summary.csv and of the barrier-series digest (`series_digest_text` from
this repository's tests/test_golden.py, which no CSV holds). It exits 1 when
any CSV differs; a differing series digest is reported but not an error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "test_golden.py"
FILES = ("trace.csv", "packets.csv", "summary.csv")
# (workload, seed); the mode is the part of the workload name after the loss case
MATRIX = (
    [("case1-dynaroute", s) for s in range(3)]
    + [("case2-baseline", s) for s in range(6)]
    + [("dense-dynaroute", s) for s in range(3)]
    + [("case1-dynaroute-load4", s) for s in range(2)]
    + [("case2-dynaroute-default", 0)]
)
# workloads built from default_config(loss case) at a traffic load, not stored
DEFAULT_WORKLOADS = {
    "case1-dynaroute-load4": ("case1", 4.0),
    "case2-dynaroute-default": ("case2", 1.0),
}

# Runs in the checkout's interpreter: argv is the config (a stored config
# path, or a JSON [loss case, load] pair for default_config), seed, mode and
# test_golden.py path. Prints the hashes as JSON.
CHILD = """
import dataclasses, hashlib, importlib.util, json, sys, tempfile
from pathlib import Path
from dynaroute.config import default_config, load_config
from dynaroute.harness import export, run

source, seed, mode, golden_path = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
if source.endswith(".json"):
    cfg = load_config(source)
else:
    loss_case, load = json.loads(source)
    cfg = default_config(loss_case)
    cfg = dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic, load=load))
spec = importlib.util.spec_from_file_location("golden", golden_path)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
log = run(cfg, seed=seed, mode=mode)
with tempfile.TemporaryDirectory() as tmp:
    export(log, "csv", tmp)
    hashes = {name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
              for name in golden.FILES}
hashes["series"] = hashlib.sha256(golden.series_digest_text(log).encode()).hexdigest()
print(json.dumps(hashes))
"""


def run_hashes(checkout: Path, workload: str, seed: int) -> dict:
    """sha256 per CSV and of the series digest for one run in checkout."""
    mode = workload.split("-")[1]
    if workload in DEFAULT_WORKLOADS:
        source = json.dumps(DEFAULT_WORKLOADS[workload])
    else:
        source = str(checkout / "bench" / "configs" / f"{workload}.json")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, source, str(seed), mode, str(GOLDEN_PATH)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    csv_diffs = series_diffs = 0
    for workload, seed in MATRIX:
        hashes = {side: run_hashes(path, workload, seed) for side, path in sides.items()}
        print(f"{workload} seed {seed}")
        for side, h in hashes.items():
            print(f"  {side:6s} " + "  ".join(f"{name} {h[name]}" for name in (*FILES, "series")))
        differ = [name for name in FILES if hashes["parent"][name] != hashes["change"][name]]
        csv_diffs += bool(differ)
        series_same = hashes["parent"]["series"] == hashes["change"]["series"]
        series_diffs += not series_same
        print("  CSVs " + ("equal" if not differ else "DIFFER: " + ", ".join(differ))
              + ", series digest " + ("equal" if series_same else "differs"), flush=True)
    print(f"\n{len(MATRIX) - csv_diffs}/{len(MATRIX)} runs with equal CSVs, "
          f"{len(MATRIX) - series_diffs}/{len(MATRIX)} with equal series digests")
    return 1 if csv_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
