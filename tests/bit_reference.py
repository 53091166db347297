"""The bit-identity reference of the optimizer loops, and the script that
writes it.

Each case runs one algorithm (SUSTAIN or one of the three baselines) on one
testbed (quadratic, hyper-cleaning, meta-learning) under the practical or the
nonconvex policy; the quadratic also runs under the strongly-convex policy.
Runs take T = 300 iterations, across the 256-iteration token-block boundary,
and record every third.  ``bit_reference.json`` holds, per case, the bytes of
the returned iterate, the SHA-256 of ``repr(records)`` and the last record,
with the NumPy version and BLAS they were made under.

Regenerate only when the bits change on purpose, and name the reason:

    PYTHONPATH=src python tests/bit_reference.py --reason "why the bits changed"
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from sustain.driver import (
    DoubleLoop,
    Policy,
    RunConfig,
    TwoTimescale,
    run_baseline,
    run_sustain,
)
from sustain.harness import ExperimentConfig, make_problem

REFERENCE = Path(__file__).with_name("bit_reference.json")
T, STRIDE = 300, 3

# problem name: (problem kind, options, schedule.K); the quadratic's K comes
# from the policy's own rule, the other two would pick an impractical one
PROBLEMS = {
    "quadratic": ("quadratic", {
        "problem.d_up": "3", "problem.d_lo": "6", "problem.lam": "0.2",
        "problem.sigma_f": "0.3", "problem.sigma_g": "0.3", "problem.sin_amp": "0.5",
        "problem.spec_seed": "7", "problem.noise_seed": "8"}, None),
    "quadratic-sc": ("quadratic", {
        "problem.d_up": "3", "problem.d_lo": "4", "problem.lam": "0.5",
        "problem.sigma_f": "0.2", "problem.sigma_g": "0.2",
        "problem.spec_seed": "9", "problem.noise_seed": "10"}, None),
    "hyperclean": ("hyperclean", {
        "problem.n_train": "40", "problem.n_val": "30", "problem.d_lo": "5",
        "problem.p": "0.3", "problem.reg": "0.1", "problem.batch_size": "4",
        "problem.data_seed": "11", "problem.noise_seed": "12"}, 3),
    "meta_linear": ("meta_linear", {
        "problem.M": "4", "problem.p_dim": "3", "problem.q": "8", "problem.m": "2",
        "problem.data_seed": "13", "problem.noise_seed": "14"}, 3),
}
ALGORITHMS = {
    "sustain": None,
    "alternating": DoubleLoop(),
    "two_timescale": TwoTimescale(ratio=2.0),
    "double_loop": DoubleLoop(n_inner=3),
}
# case name: (problem name, policy, algorithm name)
CASES = {
    f"{problem}/{policy.value}/{algorithm}": (problem, policy, algorithm)
    for problem, policies in (
        ("quadratic", (Policy.PRACTICAL, Policy.NONCONVEX)),
        ("quadratic-sc", (Policy.STRONGLY_CONVEX,)),
        ("hyperclean", (Policy.PRACTICAL, Policy.NONCONVEX)),
        ("meta_linear", (Policy.PRACTICAL, Policy.NONCONVEX)),
    )
    for policy in policies
    for algorithm in ALGORITHMS
}


def environment() -> dict:
    """The NumPy version and the BLAS it was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


@functools.lru_cache(maxsize=None)
def problem(name: str):
    kind, options, _ = PROBLEMS[name]
    return make_problem(ExperimentConfig(problem=kind, options=options))


@functools.lru_cache(maxsize=None)
def watched(name: str):
    """Problem ``name``, built apart from ``problem(name)``, whose lower
    gradient logs each call as (its token's path, the bytes of x and y) into
    the returned list; every iterate x_t, y_t of a run reaches that call."""
    kind, options, _ = PROBLEMS[name]
    oracle, exact = make_problem(ExperimentConfig(problem=kind, options=options))
    log, grad = [], oracle.grad_y_g_sample

    def logged(pair, token):
        log.append((token.path, pair.x.tobytes(), pair.y.tobytes()))
        return grad(pair, token)

    oracle.grad_y_g_sample = logged
    return oracle, exact, log


def config(name: str):
    """The problem name, run config and baseline kind (None: SUSTAIN) of case
    ``name``."""
    problem_name, policy, algorithm = CASES[name]
    cfg = RunConfig(T=T, policy=policy, seed=3, metric_stride=STRIDE,
                    K_override=PROBLEMS[problem_name][2])
    return problem_name, cfg, ALGORITHMS[algorithm]


def run_case(name: str):
    """The returned iterate and the records of case ``name``."""
    problem_name, cfg, kind = config(name)
    oracle, exact = problem(problem_name)
    if kind is None:
        return run_sustain(oracle, exact, cfg)
    return run_baseline(oracle, exact, cfg, kind)


def summarize(x, records) -> dict:
    return {
        "x": np.asarray(x, dtype="<f8").tobytes().hex(),
        "records_sha256": hashlib.sha256(repr(records).encode()).hexdigest(),
        "n_records": len(records),
        "last_record": dataclasses.asdict(records[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reason", required=True,
                        help="why the bits changed on purpose (kept in the file)")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must say why the bits changed")
    runs = {name: summarize(*run_case(name)) for name in CASES}
    REFERENCE.write_text(json.dumps(
        {"reason": args.reason, "environment": environment(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
