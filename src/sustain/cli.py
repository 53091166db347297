"""Command-line entry point: run experiment grids, fit rate exponents from
trajectory CSVs, and execute the built-in property check suites."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .driver import AlternatingSGD, Policy, RunConfig, run_baseline, run_sustain
from .errors import SustainError
from .harness import (
    ExperimentConfig,
    apply_overrides,
    fit_rate_exponent,
    parse_config_file,
    read_trajectory_csv,
    run_grid,
)
from .hypergrad import bias_bound
from .oracle import IteratePair, derive_constants
from .testbed import make_quadratic, random_quadratic_spec


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


def _check_bias() -> bool:
    rng = np.random.default_rng(7)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=5, mu_g=1.0, L_g=2.0)
    oracle, exact = make_quadratic(spec, rng_seed=0)
    pair = IteratePair(rng.standard_normal(2), rng.standard_normal(5))
    surrogate = exact.surrogate_grad(pair.x, pair.y)
    ok = True
    for K in (1, 2, 5, 10):
        bound = bias_bound(oracle.constants, K)
        mean = exact.neumann_expectation(pair, K)
        gap = float(np.linalg.norm(mean - surrogate))
        if gap > bound + 1e-12:
            print(f"bias: K={K} gap {gap:.3e} exceeds bound {bound:.3e}")
            ok = False
    print(f"bias suite: {'pass' if ok else 'FAIL'}")
    return ok


def _check_lipschitz() -> bool:
    rng = np.random.default_rng(11)
    spec = random_quadratic_spec(rng, d_up=3, d_lo=6, mu_g=1.0, L_g=2.0)
    oracle, exact = make_quadratic(spec, rng_seed=0)
    d = derive_constants(oracle.constants)
    ok = True
    for _ in range(50):
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        if np.linalg.norm(exact.y_star(x1) - exact.y_star(x2)) > d.L_y * np.linalg.norm(x1 - x2) + 1e-10:
            ok = False
        if np.linalg.norm(exact.grad_ell(x1) - exact.grad_ell(x2)) > d.L_f * np.linalg.norm(x1 - x2) + 1e-10:
            ok = False
        y = rng.standard_normal(6)
        lhs = np.linalg.norm(exact.surrogate_grad(x1, y) - exact.grad_ell(x1))
        if lhs > d.L * np.linalg.norm(exact.y_star(x1) - y) + 1e-10:
            ok = False
    print(f"lipschitz suite: {'pass' if ok else 'FAIL'}")
    return ok


def _check_gradcheck() -> bool:
    rng = np.random.default_rng(13)
    ok = True
    for trial in range(5):
        spec = random_quadratic_spec(
            rng, d_up=int(rng.integers(1, 5)), d_lo=int(rng.integers(1, 6)),
            mu_g=0.8, L_g=2.5, lam=0.3,
        )
        _, exact = make_quadratic(spec, rng_seed=0)
        x = rng.standard_normal(spec.B.shape[1])
        g = exact.grad_ell(x)
        h = 1e-5
        fd = np.array([
            (exact.ell(x + h * e) - exact.ell(x - h * e)) / (2 * h)
            for e in np.eye(len(x))
        ])
        if np.linalg.norm(fd - g) > 1e-6 * max(1.0, np.linalg.norm(g)):
            print(f"gradcheck: trial {trial} mismatch {np.linalg.norm(fd - g):.3e}")
            ok = False
    print(f"gradcheck suite: {'pass' if ok else 'FAIL'}")
    return ok


def _check_reduction() -> bool:
    rng = np.random.default_rng(17)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=4, sigma_f=0.3, sigma_g=0.3)
    oracle, exact = make_quadratic(spec, rng_seed=1)
    cfg = RunConfig(T=200, policy=Policy.PRACTICAL, seed=5, metric_stride=1,
                    c_eta=1e9, record_errors=False)  # eta clamps to 1 every step
    x_s, rec_s = run_sustain(oracle, exact, cfg)
    x_b, rec_b = run_baseline(oracle, exact, cfg, AlternatingSGD())
    ok = np.array_equal(x_s, x_b) and len(rec_s) == len(rec_b)
    if ok:
        for a, b in zip(rec_s, rec_b):
            if (a.grad_ell_sq, a.tracking_sq) != (b.grad_ell_sq, b.tracking_sq):
                ok = False
                break
    print(f"reduction suite: {'pass' if ok else 'FAIL'}")
    return ok


_SUITES = {
    "bias": _check_bias,
    "lipschitz": _check_lipschitz,
    "gradcheck": _check_gradcheck,
    "reduction": _check_reduction,
}


def _cmd_check(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    return 0 if all(_SUITES[s]() for s in suites) else 1


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

    p_check = sub.add_parser("check", help="run built-in property suites")
    p_check.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    p_check.set_defaults(func=_cmd_check)

    args, extras = parser.parse_known_args(argv)
    if extras:
        if args.command != "run":
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.overrides = list(args.overrides) + extras
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
