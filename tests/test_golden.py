"""Byte-identity of the CSV exports for a fixed (config, seed, mode) matrix.

The pinned sha256 values guard refactors and performance work: any change
that moves a single byte of trace.csv, packets.csv or summary.csv fails
here. To update them for an intended behaviour change, run

    PYTHONPATH=src python tests/test_golden.py

which prints the current table, paste it over GOLDEN below, and record the
update and its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dynaroute.config import default_config
from dynaroute.harness import export, run

FILES = ("trace.csv", "packets.csv", "summary.csv")

# name -> (loss case, mode, packet load or None for the default); every run
# simulates 3 s
CASES = {
    "case1-dynaroute": ("case1", "dynaroute", 2.0),
    "case2-baseline": ("case2", "baseline", None),
}
# (name, seed) -> sha256 of FILES
GOLDEN = {
    ("case1-dynaroute", 0): (
        "afd48296a18501e0d72f9e6615ab60a2b3f17a41e12c72584fc1dda6e7128939",
        "f0aa4c4ee1ce71afe710f7ccdb427543ec296b60d50a999ca8ff7ea97fb563d3",
        "1b4f3ba1fdd44fa92781204f182a688f313a7ebfb6a95cff205d6634958c71b8",
    ),
    ("case1-dynaroute", 1): (
        "90f2dde73282d4d0339d894240c176eb4a0dc70daab0a12a298dcb50fd83e0dc",
        "d13c8b17a77941290a9ed0a98b0a953049e12b76662e946b68d8bcef5c02c339",
        "894d318d2391400cd4174a43ba3ee46da74c40fbbb661a019100e2c91847d355",
    ),
    ("case2-baseline", 0): (
        "8d6af884728c205b85fbb874c6ada196dc9148b8554a38fdc8d014e7dae1d27a",
        "8d8a34a38ac6be57f7a204534a297192e5ca022f84e6637348a1ad3bbe0baeb5",
        "00043ce7eb9850195ddc4e1295eadcdea093ee990cf033d5b55fe66208ae0b6a",
    ),
    ("case2-baseline", 1): (
        "9523d8acd60dee580177162e8b7d4f5162f1ba29646d9837e594fa32d162075d",
        "2b2d0bb94c980a2177b5f9a11582a1c43427985f15e71b806198d700c74b7a1d",
        "8412df5addd921abbe36a73c3291438b58303c823be18e274971ed8d21496401",
    ),
}


def export_hashes(case: str, seed: int, out_dir: Path) -> tuple:
    loss_case, mode, load = CASES[case]
    cfg = default_config(loss_case)
    cfg.duration = 3.0
    if load is not None:
        cfg.traffic.load = load
    export(run(cfg, seed=seed, mode=mode), "csv", out_dir)
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in FILES)


@pytest.mark.parametrize("case, seed", sorted(GOLDEN))
def test_exports_match_pinned_hashes(case, seed, tmp_path):
    assert export_hashes(case, seed, tmp_path) == GOLDEN[(case, seed)]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for case, seed in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = export_hashes(case, seed, Path(tmp))
        print(f'    ("{case}", {seed}): (')
        for h in hashes:
            print(f'        "{h}",')
        print("    ),")
    print("}")
