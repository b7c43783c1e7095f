"""The traced benchmark (bench/tracer.py) wraps dynaroute functions by name;
a renamed or deleted one must fail here rather than in a `--trace 1` run.
bench/ is only imported, never changed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from dynaroute import harness
from dynaroute.config import default_config

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode, busy", [
    ("dynaroute", "optimizer.evolve.calls"),
    ("baseline", "control.solve_dmpc.calls"),
])
def test_traced_run_reports_layer_metrics(tracer_mod, mode, busy, tmp_path):
    cfg = default_config("case1")
    cfg.duration = 1.0
    untraced = harness.build_topology
    with tracer_mod.Tracer() as tracer:
        assert harness.build_topology is not untraced
        log = harness.run(cfg, seed=0, mode=mode)
        harness.export(log, "csv", tmp_path)
    assert harness.build_topology is untraced  # restored on exit
    metrics = tracer_mod.layer_metrics(tracer)
    for _layer, _home, path, _hook in tracer_mod.SPANS:
        name = path.rpartition(".")[2]
        assert any(key.split(".")[1] == name for key in metrics), name
    assert metrics[busy][0] > 0
    # span names are registered when the tracer is installed, so without
    # these a harness that stopped calling decode_schedule would pass while
    # the decode routed ratio read 0, kernel calls moved from the GA's
    # module into control would pass while counted as DMPC calls, and path
    # search or variation moved out of the wrapped functions would pass
    # while its time went unattributed
    if mode == "dynaroute":
        assert metrics["optimizer.decode_schedule.calls"][0] > 0
        assert metrics["control.rollout_candidates.ga.calls"][0] > 0
        assert metrics["optimizer.crossover_mutate.calls"][0] > 0
        assert metrics["scheduling.candidate_paths.calls"][0] > 0
    else:
        assert metrics["control.rollout_candidates.dmpc.calls"][0] > 0
    assert metrics["harness.build_scenario.calls"][0] == 1
    assert metrics["dynamics.step.calls"][0] == cfg.n_slots * 8
    # 8 vehicles and 2 RSUs: every ordered pair but the two RSU-to-RSU ones
    assert metrics["harness.build_scenario.loss_processes"][0] == 10 * 9 - 2
    assert metrics["harness.export.bytes"][0] > 0
