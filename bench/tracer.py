"""Per-layer tracing installed from outside the program.

`Tracer` wraps public functions of the dynaroute modules at every place they
are bound: a `from .x import y` copies the function into the importing
module, so each module namespace that holds the function object gets its own
wrapper, and methods are wrapped on their class. Span wrappers record
(name, parent, start, end) into flat arrays kept in memory; count wrappers only
count calls, for functions cheap enough that a span would mostly time itself.
Everything is restored when the `with` block ends.

Layers are named after the modules. A span's self time is its duration minus
the time its child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Per-caller names for the control kernels, keyed by the module that calls them.
KERNEL_CALLERS = {"control": "dmpc", "optimizer": "ga"}
KERNELS = ("rollout_candidates", "feasibility_mask", "trajectory_costs")


def _on_evolve(counts, args, front):
    # harness picks its champion among the feasible members of the front
    counts["optimizer.evolve.feasible_champion"] += any(i.feasible for i in front)


def _on_decode(counts, args, decision):
    counts["optimizer.decode.offered"] += len(args[0].packets)
    counts["optimizer.decode.routed"] += len(decision.route_assign)


def _on_enumerate(counts, args, paths):
    counts["scheduling.enumerate_paths.paths"] += len(paths)
    # candidate_paths keeps the best path_cap of each enumeration
    counts["scheduling.paths_kept"] += min(len(paths), args[0].path_cap)


def _on_dmpc(counts, args, solution):
    counts["control.solve_dmpc.fallbacks"] += solution.infeasible_fallback


def _on_topology(counts, args, topo):
    counts["harness.build_topology.links"] += len(topo.links)


def _on_baseline_route(counts, args, cand):
    counts["harness.baseline_route.voids"] += cand is None


def _on_build_scenario(counts, args, world):
    counts["harness.build_scenario.loss_processes"] += len(world.losses)


def _on_export(counts, args, written):
    counts["harness.export.bytes"] += sum(Path(p).stat().st_size for p in written)


def _on_sample_delivery(counts, args, delivered):
    counts["channel.sample_delivery.successes"] += delivered


# (layer, module, attribute path, hook on the return value)
SPANS = (
    ("optimizer", "optimizer", "evolve", _on_evolve),
    ("optimizer", "optimizer", "evaluate_population", None),
    ("optimizer", "optimizer", "decode_schedule", _on_decode),
    ("optimizer", "optimizer", "non_dominated_sort", None),
    ("optimizer", "optimizer", "crowding_distance", None),
    ("optimizer", "optimizer", "crossover_mutate", None),
    ("scheduling", "scheduling", "TopologySnapshot.candidate_paths", None),
    ("scheduling", "scheduling", "enumerate_paths", _on_enumerate),
    ("scheduling", "scheduling", "build_path_candidate", None),
    ("control", "control", "solve_dmpc", _on_dmpc),
    ("control", "control", "rollout_candidates", None),
    ("control", "control", "feasibility_mask", None),
    ("control", "control", "trajectory_costs", None),
    ("channel", "channel", "markov_step", None),
    ("harness", "harness", "build_topology", _on_topology),
    ("harness", "harness", "baseline_route", _on_baseline_route),
    ("harness", "harness", "build_scenario", _on_build_scenario),
    ("harness", "harness", "export", _on_export),
    ("dynamics", "dynamics", "step", None),
    ("dynamics", "dynamics", "safety_function", None),
    ("config", "config", "load_config", None),
    ("config", "config", "ScenarioConfig.validate", None),
)
COUNTS = (
    ("link_metrics", "link_metrics", "staying_time", None),
    ("link_metrics", "link_metrics", "hop_alignment", None),
    ("link_metrics", "link_metrics", "node_weight", None),
    ("channel", "channel", "sample_delivery", _on_sample_delivery),
    ("channel", "channel", "slot_success_prob", None),
)
LAYERS = ("optimizer", "scheduling", "link_metrics", "control", "channel",
          "harness", "dynamics", "config")


class Tracer:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------- wrappers
    def _span(self, name: str, fn, hook):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, counts = self._stack, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                start[sid] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, hook):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # -------------------------------------------------------- installation
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dynaroute" or n.startswith("dynaroute."))]
        try:
            for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
                for layer, home, path, hook in table:
                    owner = sys.modules[f"dynaroute.{home}"]
                    *cls, attr = path.split(".")
                    if cls:
                        owner = getattr(owner, cls[0])
                        self._patch(owner, attr, make(f"{layer}.{attr}", owner.__dict__[attr], hook))
                        continue
                    original = getattr(owner, attr)
                    for module in modules:
                        for bound, value in list(vars(module).items()):
                            if value is not original:
                                continue
                            name = f"{layer}.{attr}"
                            if attr in KERNELS:
                                caller = module.__name__.rpartition(".")[2]
                                name += "." + KERNEL_CALLERS.get(caller, caller)
                            self._patch(module, bound, make(name, original, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results
    def self_times(self) -> dict:
        """Span name -> (calls, self seconds)."""
        start = np.asarray(self.start, dtype=float)
        dur = np.asarray(self.end, dtype=float) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        names = np.asarray(self.name_id, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        secs = np.bincount(names, weights=own, minlength=n)
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span once, as flat arrays (see bench/README.md)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    spans = tracer.self_times()
    c = tracer.counts
    out: dict = {}
    for name, (calls, secs) in spans.items():
        out[name + ".calls"] = (calls, "count")
        out[name + ".s"] = (secs, "s")
    for layer, _home, attr, _hook in COUNTS:
        out[f"{layer}.{attr}.calls"] = (c[f"{layer}.{attr}.calls"], "count")
    for layer in LAYERS:
        if any(name.startswith(layer + ".") for name in spans):
            out[layer + ".self_s"] = (
                sum(s for name, (_n, s) in spans.items() if name.startswith(layer + ".")), "s"
            )

    def calls(name: str) -> int:
        return spans[name][0]

    out.update({
        "optimizer.decode.routed_ratio": (
            _ratio(c["optimizer.decode.routed"], c["optimizer.decode.offered"]), "ratio"),
        "optimizer.champion_feasible_ratio": (
            _ratio(c["optimizer.evolve.feasible_champion"], calls("optimizer.evolve")), "ratio"),
        "scheduling.candidate_paths.hit_ratio": (
            1.0 - _ratio(calls("scheduling.enumerate_paths"), calls("scheduling.candidate_paths"))
            if calls("scheduling.candidate_paths") else 0.0, "ratio"),
        "scheduling.enumerate_paths.paths": (c["scheduling.enumerate_paths.paths"], "count"),
        "scheduling.paths_kept_ratio": (
            _ratio(c["scheduling.paths_kept"], c["scheduling.enumerate_paths.paths"]), "ratio"),
        "control.solve_dmpc.fallback_ratio": (
            _ratio(c["control.solve_dmpc.fallbacks"], calls("control.solve_dmpc")), "ratio"),
        "channel.sample_delivery.success_ratio": (
            _ratio(c["channel.sample_delivery.successes"], c["channel.sample_delivery.calls"]),
            "ratio"),
        "harness.build_topology.links": (c["harness.build_topology.links"], "count"),
        "harness.baseline_route.void_ratio": (
            _ratio(c["harness.baseline_route.voids"], calls("harness.baseline_route")), "ratio"),
        "harness.build_scenario.loss_processes": (
            c["harness.build_scenario.loss_processes"], "count"),
        "harness.export.bytes": (c["harness.export.bytes"], "bytes"),
    })
    return out
