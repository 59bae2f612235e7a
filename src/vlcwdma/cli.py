"""Command-line entry point.

    vlcwdma run --room A --scenario 1 --order 2 --solver exact --out runs/a1

``--room`` takes a preset id (A/B/C) or a YAML config file; ``--scenario``
takes 1/2 or a YAML file whose ``users`` section lists positions.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiment import _SOLVERS, ConfigError, ExperimentConfig, parse_config, read_config, read_yaml, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vlcwdma",
                                     description="Indoor visible-light WDMA link simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the full scene -> gains -> allocation -> report pipeline")
    run.add_argument("--room", required=True, help="preset id (A/B/C) or YAML config path")
    run.add_argument("--scenario", default=None, help="preset scenario (1/2) or YAML file with users")
    # flags without a default leave the config file's value (or its default) in place
    run.add_argument("--order", type=int, choices=(0, 1, 2), help="max reflection order (default 2)")
    run.add_argument("--solver", choices=tuple(_SOLVERS), help="default exact")
    run.add_argument("--out", required=True, help="output directory for the run artifacts")
    run.add_argument("--k", type=int, help="candidate cap per user (default 16)")
    run.add_argument("--objective", choices=("db", "linear"), help="default db")
    run.add_argument("--element-size", type=float, default=None,
                     help="first-order element edge in metres (second order uses twice this)")
    run.add_argument("--workers", type=int, help="channel tracing threads (default 1)")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The room's YAML mapping or preset, the --scenario users, then every
    flag that was passed, parsed by the one config parser."""
    if os.path.exists(args.room):
        raw = read_config(args.room)
    elif args.room.upper() in ("A", "B", "C"):
        if args.scenario is None:
            raise ConfigError(["--scenario is required with a preset room"])
        raw = {"room": args.room}
    else:
        raise ConfigError([f"--room {args.room!r} is neither a preset id nor an existing file"])

    if args.scenario is not None and os.path.exists(args.scenario):
        users = read_yaml(args.scenario)
        raw["users"] = users.get("users", users) if isinstance(users, dict) else users
    elif args.scenario is not None:
        raw.pop("users", None)
        raw["scenario"] = args.scenario

    dx = args.element_size
    overlay = {
        "channel": {"order": args.order, "dx1_m": dx, "dx2_m": None if dx is None else 2.0 * dx},
        "solver": {"mode": args.solver, "k": args.k, "objective": args.objective},
    }
    for section, values in overlay.items():
        passed = {key: val for key, val in values.items() if val is not None}
        base = raw.get(section) or {}
        if passed and isinstance(base, dict):  # parse_config reports a non-mapping section
            raw[section] = {**base, **passed}
    if args.workers is not None:
        raw["workers"] = args.workers
    raw["out"] = args.out
    return parse_config(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        result = run_experiment(config)
        return result.exit_code
    except ConfigError as exc:  # SceneValidationError included
        for msg in exc.errors:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    except ValueError as exc:  # infeasible users and unsupported links included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
