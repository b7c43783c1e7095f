"""Byte-identity of the CSV exports for a fixed (config, seed, mode) matrix.

The pinned sha256 values guard refactors and performance work: any change
that moves a single byte of trace.csv, packets.csv or summary.csv, or a
single bit of the per-pair barrier series (MetricsLog.h_series and
cbf_ok_series, which no CSV holds), fails here. The GOLDEN runs simulate
3 s; the barrier series runs simulate 22 s, because the leaders first
accelerate at 3.5 s (until then every h is the same constant) and the
braking phases up to 21 s are where the CBF condition binds. SERIES_GOLDEN
pins the CSVs of those same 22 s runs, so the pinned trace.csv also covers
the followers' response to the lead manoeuvres. To update the hashes for an
intended behaviour change, run

    PYTHONPATH=src python tests/test_golden.py

which prints the current tables, paste them over GOLDEN, SERIES_GOLDEN and
SERIES below, and record the update and its reason in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import pytest

from dynaroute.config import default_config
from dynaroute.harness import MetricsLog, export, run

FILES = ("trace.csv", "packets.csv", "summary.csv")
CSV_DURATION = 3.0
SERIES_DURATION = 22.0

# name -> (loss case, mode, packet load or None for the default)
CASES = {
    "case1-baseline": ("case1", "baseline", None),
    "case1-dynaroute": ("case1", "dynaroute", 2.0),
    "case2-baseline": ("case2", "baseline", None),
    "case2-dynaroute": ("case2", "dynaroute", 2.0),
}
# (name, seed) -> sha256 of FILES
GOLDEN = {
    ("case1-baseline", 0): (
        "adf35d5781d06aadac0bdc651a47fee314d19a20f249f48f866ff66e07c7caab",
        "d9a1cd35476f1be455354921d5344bc6b5c607e719c2170cd2f342bb01cdf603",
        "3102917b549265d498cd3efcc6384f17f35dda5f55b9c0b2b809924343cc4482",
    ),
    ("case1-baseline", 1): (
        "a70d5655ee0a424bd950aed0a4ecbe92d95db7ac559624828b0c4ab6d5b54891",
        "3446aa7cac8ec669d845330be09671ec5b07aa5968a7d7beaca4fcf8d3b89dd8",
        "4ba5f22301ff2624ca0139bfb54c16a5eec0f1c04127592ad7680e9b617e3825",
    ),
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
    ("case2-dynaroute", 0): (
        "957d11e7bc500da2a24a33ed1a2c8d19113f5f6d3b644eec48b8ce669c75d635",
        "8151b1ea19d41b42e7b513154cafc72896c06ff0bc0c46b2cf03e475a748ea84",
        "587f92c9ddbfbe64826bb02b24d1e1dd33909e5dc197ec19c23f056f0c76af2c",
    ),
    ("case2-dynaroute", 1): (
        "2d0f045454500f19d185c856b8b55717b1715424b0a058ae2e52e589f0640393",
        "d277765215b2e4afee77cff85243530c8866b67ad6ce4ee75f14d6ae4fef382d",
        "387a3ef1ea4ba67069cd6d290a524f214132c72159d25f530e3081431b1ddf00",
    ),
}
# (name, seed) -> sha256 of FILES exported from the SERIES_DURATION runs
SERIES_GOLDEN = {
    ("case1-baseline", 0): (
        "8f2e114bb7c9e65720bf097156a91c6bccb4d0b9546a69e38b7bf0d5e312823e",
        "b1406f2d7f029d1ce5d43eff6a8f0c89a519096e66ef57a07a561a60bb9b815a",
        "8ff2b5aa30b2eafb00ea5ad646fe5d0d4c184637462b8560b6cbd22d92dd28ee",
    ),
    ("case1-baseline", 1): (
        "7b433a5d6efbd42cb14b14e8763aae8f3f2048efec304fd1bc7f13a7ad8be77f",
        "b48510e45fcad09f3007a8cf16e4523a4354b9cd8f3e0cdafe782038b85cc076",
        "c6870247209ad92f213e2af94250f5b353d03848bbdad2f4160c6dddce3b9caa",
    ),
    ("case1-dynaroute", 0): (
        "26ba59c3879807401b481e823a177b475a2331a1be8e2813e5e302a32f8626d5",
        "7a7c15685f73f6bcad7f57962e43c50411857134be697dd183f60602348325fd",
        "4f1229bf7587e092fa54af82013d2cef0d2387e3bfbd4ed14cdee529ec829f71",
    ),
    ("case1-dynaroute", 1): (
        "e24e0f2e676c9a6e64bc5cda6a37d687b1b88da1675c3256a243969f1b69b979",
        "23979f5a5c1275e246a2f04bb659e1f51a1850cd24a88d7b09b171b3d2bd9e5d",
        "f905d057f04a8d67783d1bf8e449f0ccc415a295b1af8239187bcb2d207d3af3",
    ),
    ("case2-baseline", 0): (
        "b48ec6198ef97e9742e14b1261ef55f7a6882bb5f07772ff2a7b5d8ec9dc5ad5",
        "1d42fb436461293003e2c09d80c38c9e7af506d403cc2d6697b7d4cb9c7388b0",
        "2cba68f9431c1c449c475b8b686c633ea4e5b2a0d8e9296101ec4e0c984ffd6b",
    ),
    ("case2-baseline", 1): (
        "4f8575dd950a29c28c97051ae5a5d9bcc9ea725436fd9e2fc28a358d15f2f1ee",
        "02c41e6e28b741284b4d0fe6d0e14d91c24af591527dd87d13da80eb817e987b",
        "24259847590a82cdfe5b1b8a069b6618c7cbc822718853ea722af492e9825645",
    ),
    ("case2-dynaroute", 0): (
        "2087a7ec2b1e15d0fae348693573b0ba3e2c80f8780516615ecf55316097c294",
        "c3492bda31c6e6e4e3ab1a7ab49027bb1e972a1e7a94867eff9bbc99720ea70e",
        "660df9461c8ffb73757c00494b339edaf3efb461b9fa1baad7234ee905ba42e9",
    ),
    ("case2-dynaroute", 1): (
        "3c4f5b244e790a647b63ed93d3b9df6d4d0c41fd09b0389cf14d501e662230f7",
        "1108b4c760716903b004cb2cdd568641643dc004ba335ef658d86b6e2a377d36",
        "9ffbb3ea393d4c5450cabb6a65c0d716eccb560cb0cc996baeff9742117a5077",
    ),
}
# (name, seed) -> sha256 of series_digest_text
SERIES = {
    ("case1-baseline", 0): "87b35e07ea7805b38f1e60aea4d03252e6088703d2b60cbd63250292d693dfe4",
    ("case1-baseline", 1): "1f45fce93a168f8727fb1be0dfa89fa5107f7b6a5111f485d33ec2f49d0bd3fc",
    ("case1-dynaroute", 0): "4ac984db2e35e3328c581d2d4176196476c5e901bc812a88dc2d6f28e258586e",
    ("case1-dynaroute", 1): "c35866d64cf663148cd31e3af973e350f18b3ed86b7eaba198d5e8a2610fd586",
    ("case2-baseline", 0): "cc54d5742be6562bda80ec875e1acd3a76b47dc8dcffbd06f6ef7aef5431a1ac",
    ("case2-baseline", 1): "c634ac6016360937209fd7facdd0c40595ee85a105a54f97eaa2f49052f7bb8c",
    ("case2-dynaroute", 0): "215ed323f6d4878237d1436bf95f283d5fe225d7a47f743be57dad10e8f5c539",
    ("case2-dynaroute", 1): "69ae1c2fe4cd3c07f71e3815ba604938836a07c57e83f8a13de4a311c99d8782",
}


@functools.lru_cache(maxsize=None)
def golden_run(case: str, seed: int, duration: float) -> MetricsLog:
    loss_case, mode, load = CASES[case]
    cfg = default_config(loss_case)
    cfg.duration = duration
    if load is not None:
        cfg.traffic.load = load
    return run(cfg, seed=seed, mode=mode)


def export_hashes(case: str, seed: int, out_dir: Path, duration: float = CSV_DURATION) -> tuple:
    export(golden_run(case, seed, duration), "csv", out_dir)
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in FILES)


def series_digest_text(log: MetricsLog) -> str:
    """One line per (predecessor, follower) pair: the exact h bits, then the
    CBF flags."""
    lines = []
    for pair in sorted(log.h_series):
        lines.append(f"h {pair} " + " ".join(float(h).hex() for h in log.h_series[pair]))
    for pair in sorted(log.cbf_ok_series):
        flags = "".join("1" if ok else "0" for ok in log.cbf_ok_series[pair])
        lines.append(f"cbf {pair} {flags}")
    return "\n".join(lines) + "\n"


def series_hash(case: str, seed: int) -> str:
    text = series_digest_text(golden_run(case, seed, SERIES_DURATION))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case, seed", sorted(GOLDEN))
def test_exports_match_pinned_hashes(case, seed, tmp_path):
    assert export_hashes(case, seed, tmp_path) == GOLDEN[(case, seed)]


@pytest.mark.parametrize("case, seed", sorted(SERIES))
def test_barrier_series_match_pinned_hashes(case, seed):
    assert series_hash(case, seed) == SERIES[(case, seed)]


@pytest.mark.parametrize("case, seed", sorted(SERIES_GOLDEN))
def test_series_exports_match_pinned_hashes(case, seed, tmp_path):
    hashes = export_hashes(case, seed, tmp_path, SERIES_DURATION)
    assert hashes == SERIES_GOLDEN[(case, seed)]


def test_golden_matrix_covers_every_case_and_mode():
    assert {(c, m) for c, m, _ in CASES.values()} == {
        (c, m) for c in ("case1", "case2") for m in ("baseline", "dynaroute")
    }
    assert set(GOLDEN) == set(SERIES_GOLDEN) == set(SERIES) == {
        (name, s) for name in CASES for s in (0, 1)
    }


def _print_csv_table(name: str, keys: list, duration: float) -> None:
    import tempfile

    print(f"{name} = {{")
    for case, seed in keys:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = export_hashes(case, seed, Path(tmp), duration)
        print(f'    ("{case}", {seed}): (')
        for h in hashes:
            print(f'        "{h}",')
        print("    ),")
    print("}")


if __name__ == "__main__":
    keys = sorted((name, s) for name in CASES for s in (0, 1))
    _print_csv_table("GOLDEN", keys, CSV_DURATION)
    _print_csv_table("SERIES_GOLDEN", keys, SERIES_DURATION)
    print("SERIES = {")
    for case, seed in keys:
        print(f'    ("{case}", {seed}): "{series_hash(case, seed)}",')
    print("}")
