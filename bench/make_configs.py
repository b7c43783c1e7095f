"""Write the benchmark's workload inputs as scenario config JSON.

The files under bench/configs/ are the benchmark's fixed inputs: bench/run.py
reads them back with dynaroute's own load_config, so the simulator only ever
receives validated configs. Rerun this script only to change a workload;
that is a change of the benchmark, not of the program.

    python3 bench/make_configs.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dynaroute.config import default_config, dump_config  # noqa: E402


def workload_configs() -> dict:
    base = default_config("case1")
    # Both GA workloads run at twice the default packet load. At the default
    # load some seeds drain the queue and the GA decodes few packets, so run
    # time and delivery vary several-fold between seeds; at double load the
    # GA packet cap is always full and pooled figures repeat across seeds.
    loaded = dataclasses.replace(base, traffic=dataclasses.replace(base.traffic, load=2.0))
    return {
        "case1-dynaroute": loaded,  # 2x4 vehicles + 2 RSUs
        "case2-baseline": default_config("case2"),
        "dense-dynaroute": dataclasses.replace(loaded, n_platoons=4),  # 4x4 + 2 RSUs
    }


def main() -> None:
    for name, cfg in workload_configs().items():
        cfg.validate()
        dump_config(cfg, HERE / "configs" / f"{name}.json")
        print(f"wrote bench/configs/{name}.json")


if __name__ == "__main__":
    main()
