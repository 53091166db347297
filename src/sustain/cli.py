"""Command-line entry point: run experiment grids and fit rate exponents from
trajectory CSVs."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import SustainError
from .harness import (
    ExperimentConfig,
    apply_overrides,
    fit_rate_exponent,
    parse_config_file,
    read_trajectory_csv,
    run_grid,
)


# what a command reports as one line with exit code 2, not as a traceback
_USER_ERRORS = (ValueError, SustainError, OSError)


def _cmd_run(args) -> int:
    # an unreadable or malformed config, key, override or value is reported
    # before any file is written
    try:
        mapping = parse_config_file(args.config) if args.config else {}
        cfg = ExperimentConfig.from_mapping(apply_overrides(mapping, args.overrides))
        result = run_grid(cfg)  # builds the problem first: its errors too
    except _USER_ERRORS as exc:
        print(f"sustain run: {exc}", file=sys.stderr)
        return 2
    print(f"truncation level K = {result.K}")
    for (algorithm, seed), path in sorted(result.trajectory_paths.items()):
        print(f"trajectory {algorithm} seed={seed}: {path}")
    print(f"summary: {result.summary_path}")
    failed = [row for row in result.summary_rows if row.get("error")]
    for row in failed:
        print(f"FAILED {row['algorithm']}: {row['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_fit(args) -> int:
    try:
        rows = read_trajectory_csv(args.input)
        if rows and args.metric not in rows[0]:
            raise ValueError(f"metric {args.metric!r} is not a column of {args.input}")
        series = [(row["t"], row[args.metric]) for row in rows if row[args.metric] is not None]
        fit = fit_rate_exponent(series, (args.tmin, args.tmax))
    except _USER_ERRORS as exc:
        print(f"sustain fit: {exc}", file=sys.stderr)
        return 2
    print(
        f"metric={args.metric} window=[{fit.window[0]},{fit.window[1]}] "
        f"exponent={fit.exponent:.6g} intercept={fit.intercept:.6g} "
        f"r_squared={fit.r_squared:.6g}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sustain",
        description="Bilevel optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded experiment grid")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("overrides", nargs="*", help="--key=value overrides")
    p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a rate exponent from a trajectory CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--metric", default="grad_ell_sq")
    p_fit.add_argument("--tmin", type=int, required=True)
    p_fit.add_argument("--tmax", type=int, required=True)
    p_fit.set_defaults(func=_cmd_fit)

    args, extras = parser.parse_known_args(argv)
    if extras:
        if args.command != "run":
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.overrides = list(args.overrides) + extras
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
