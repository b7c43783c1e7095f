"""Command-line harness: single runs, parameter sweeps and config validation.

Exit codes: 0 success, 2 configuration error, 3 collision-flagged run.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .config import ConfigError, default_config, dump_config, load_config
from .harness import compute_e2e_delay, compute_throughput, export, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3


def _load(config_path: str | None, loss_case: str | None):
    """A config file, or the built-in preset of a loss case (never both)."""
    if config_path is None:
        return default_config(loss_case or "case1")
    return load_config(config_path)


def _add_config_source(parser) -> None:
    # a config file carries its own loss case and comfort envelope, so a
    # preset cannot be layered over it
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="scenario config JSON (defaults built in)")
    source.add_argument("--loss-case", choices=("case1", "case2"), default=None,
                        help="built-in preset of a loss case (default case1)")


def _cmd_run(args) -> int:
    try:
        cfg = _load(args.config, args.loss_case)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    log = run(cfg, seed=args.seed, mode=args.mode)
    export(log, args.format, args.out)
    print(
        f"mode={args.mode} seed={args.seed} "
        f"throughput={compute_throughput(log):.1f} bps "
        f"delay={compute_e2e_delay(log):.3f} s "
        f"min_gap={log.min_gap():.3f} m "
        f"max|a|={log.max_abs_accel():.3f} m/s^2 "
        f"collision={log.collision}"
    )
    if log.collision:
        print(f"collision flagged at slot {log.halted_slot}", file=sys.stderr)
        return EXIT_COLLISION
    return EXIT_OK


def _sweep_configs(cfg, param: str, value: float):
    traffic = cfg.traffic
    if param == "load":
        traffic = dataclasses.replace(traffic, load=value)
    else:
        traffic = dataclasses.replace(traffic, interval_s=value)
    return dataclasses.replace(cfg, traffic=traffic)


def _cmd_sweep(args) -> int:
    # every variant is built, and so checked, before the first run
    try:
        cfg = _load(args.config, args.loss_case)
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ConfigError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"sweep values must be finite, got {args.values!r}")
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
        variants = [_sweep_configs(cfg, args.param, value) for value in values]
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["param,value,mode,seed,throughput_bps,mean_delay_s,min_gap_m,max_abs_accel"]
    collided = False
    for value, variant in zip(values, variants):
        for mode in ("dynaroute", "baseline"):
            for offset in range(args.seeds):
                seed = args.seed + offset
                log = run(variant, seed=seed, mode=mode)
                collided |= log.collision
                lines.append(
                    f"{args.param},{value:g},{mode},{seed},"
                    f"{compute_throughput(log):.6f},{compute_e2e_delay(log):.6f},"
                    f"{log.min_gap():.6f},{log.max_abs_accel():.6f}"
                )
                print(lines[-1])
    (out / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return EXIT_COLLISION if collided else EXIT_OK


def _cmd_validate(args) -> int:
    try:
        load_config(args.config_file)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config_file}: ok")
    return EXIT_OK


def _cmd_init_config(args) -> int:
    try:
        cfg = default_config(args.loss_case)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    dump_config(cfg, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynaroute",
        description="Co-simulation of platoon control and mobility-aware routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and export CSVs")
    _add_config_source(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--mode", choices=("dynaroute", "baseline"), default="dynaroute")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("csv", "plotscript"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep load or packet interval over both modes")
    p_sweep.add_argument("--param", choices=("load", "interval"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", type=int, default=5, help="seeds per point")
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed")
    _add_config_source(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate-config", help="check a scenario config file")
    p_val.add_argument("config_file")
    p_val.set_defaults(func=_cmd_validate)

    p_init = sub.add_parser("init-config", help="write the default config to a file")
    p_init.add_argument("--loss-case", choices=("case1", "case2"), default="case1")
    p_init.add_argument("--out", required=True)
    p_init.set_defaults(func=_cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
