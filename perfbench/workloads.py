"""Benchmark workloads: inputs made from the workload seed, the calls into the
library, and the checks of their outputs against stored references.

A workload seed selects one of ``N_SLOTS`` input sets (``seed % N_SLOTS``).
Each input set draws its problem-spec, data, noise and optimizer seeds from
``numpy.random.SeedSequence([workload tag, slot])``; the library receives
only the generated inputs.  Every input set has a stored reference in
``reference/<workload>.json``, written by ``make_reference.py``, so every
call the benchmark makes is checked, whatever seed it was given.  Seed 0 is
the development seed; seed 3 (input set 3) is held out for confirming claims.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

N_SLOTS = 4
RTOL = 1e-12  # agreement required where a change reorders float operations
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _seeds(tag: int, slot: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([tag, slot]).generate_state(n)]


@dataclasses.dataclass
class Unit:
    """One timed call into the library."""

    key: str                     # reference entry
    iters: int                   # optimizer iterations the call performs
    call: Callable[[], object]
    runs: int = 1                # optimizer runs the call performs


@dataclasses.dataclass
class Outcome:
    """What the benchmark learns from one unit's output."""

    failures: list               # one line per failed run
    early_stops: int             # runs that ended without saying so
    samples_to_eps: list         # per run; math.inf when never reached
    encoded: dict                # reference form of the output
    csv_bytes: int = 0


def _close(got, want) -> bool:
    """Agreement to RTOL relative to the array's largest magnitude."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return bool(np.all(np.abs(got - want) <= RTOL * scale))


def _encode_records(records) -> dict:
    columns = {}
    for f in dataclasses.fields(records[0]) if records else ():
        values = [getattr(r, f.name) for r in records]
        columns[f.name] = None if all(v is None for v in values) else values
    return columns


def _records_match(records, want: dict) -> bool:
    for column, values in want.items():
        got = [getattr(r, column, None) for r in records]
        if values is None:
            if any(v is not None for v in got):
                return False
            continue
        if len(got) != len(values) or any(
            (g is None) != (w is None) for g, w in zip(got, values)
        ):
            return False
        kept = [(g, w) for g, w in zip(got, values) if w is not None]
        if not _close([g for g, _ in kept], [w for _, w in kept]):
            return False
    return True


def _samples_to(sustain, records, eps: float, metric: str) -> float:
    hit = sustain.harness.samples_to_epsilon(records, eps, metric)
    return math.inf if isinstance(hit, sustain.harness.NotReached) else float(hit)


class _OptimizerWorkload:
    """Workloads whose unit is one ``run_sustain`` / ``run_baseline`` call."""

    name: str
    tag: int

    def problem_options(self, slot: int) -> dict:
        raise NotImplementedError

    def calls(self, sustain, oracle, exact, slot: int) -> list[Unit]:
        raise NotImplementedError

    def build(self, sustain, slot: int) -> list[Unit]:
        cfg = sustain.harness.ExperimentConfig(
            problem=self.problem_kind, options=self.problem_options(slot)
        )
        oracle, exact = sustain.harness.make_problem(cfg)
        return self.calls(sustain, oracle, exact, slot)

    def outcome(self, sustain, unit: Unit, out, ref) -> Outcome:
        x, records = out
        failures = []
        early = int(not records or records[-1].t < unit.iters - 1)
        if early:
            failures.append(f"{unit.key}: stopped before t = {unit.iters - 1}")
        if ref is None:
            failures.append(f"{unit.key}: no stored reference")
        elif not _close(x, ref["x"]):
            failures.append(f"{unit.key}: returned iterate differs from the reference")
        elif not _records_match(records, ref["records"]):
            failures.append(f"{unit.key}: record series differs from the reference")
        return Outcome(
            failures=failures[:1],
            early_stops=early,
            samples_to_eps=[self.samples_to_eps(sustain, records)] if records else [],
            encoded={"x": np.asarray(x, dtype=float).tolist(),
                     "records": _encode_records(records)},
        )


class QuadRate(_OptimizerWorkload):
    name = "quad-rate"
    tag = 1
    problem_kind = "quadratic"
    T = 1000
    n_seeds = 4

    def problem_options(self, slot: int) -> dict:
        spec_seed, noise_seed, _ = _seeds(self.tag, slot, 3)
        return {
            "problem.d_up": "3", "problem.d_lo": "6", "problem.lam": "0.2",
            "problem.sigma_f": "0.4", "problem.sigma_g": "0.4",
            "problem.sin_amp": "0.5",
            "problem.spec_seed": str(spec_seed), "problem.noise_seed": str(noise_seed),
        }

    def calls(self, sustain, oracle, exact, slot: int) -> list[Unit]:
        d = sustain.driver
        run_seed = _seeds(self.tag, slot, 3)[2]
        units = []
        for i in range(self.n_seeds):
            cfg = d.RunConfig(T=self.T, policy=d.Policy.PRACTICAL, seed=run_seed + i,
                              metric_stride=200, K_override=12, base_alpha=0.15,
                              record_errors=False)
            units.append(Unit(f"sustain/{i}", self.T,
                              lambda cfg=cfg: d.run_sustain(oracle, exact, cfg)))
        return units

    def samples_to_eps(self, sustain, records) -> float:
        return _samples_to(sustain, records, 0.2, "grad_ell_sq")


class HypercleanCompare(_OptimizerWorkload):
    name = "hyperclean-compare"
    tag = 2
    problem_kind = "hyperclean"
    T = 150
    n_seeds = 2
    base_alpha = 6e-4

    def problem_options(self, slot: int) -> dict:
        data_seed, noise_seed, _ = _seeds(self.tag, slot, 3)
        return {
            "problem.n_train": "500", "problem.n_val": "500", "problem.d_lo": "20",
            "problem.p": "0.3", "problem.reg": "1.0", "problem.batch_size": "32",
            "problem.data_seed": str(data_seed), "problem.noise_seed": str(noise_seed),
        }

    def calls(self, sustain, oracle, exact, slot: int) -> list[Unit]:
        d = sustain.driver
        run_seed = _seeds(self.tag, slot, 3)[2]
        c_eta = 2.0 / self.base_alpha**2
        units = []
        for i in range(self.n_seeds):
            cfg = d.RunConfig(T=self.T, policy=d.Policy.PRACTICAL, seed=run_seed + i,
                              metric_stride=50, K_override=3, base_alpha=self.base_alpha,
                              c_eta=c_eta, c_eta_g=c_eta, record_errors=False)
            units += [
                Unit(f"sustain/{i}", self.T,
                     lambda cfg=cfg: d.run_sustain(oracle, None, cfg)),
                Unit(f"double_loop/{i}", self.T,
                     lambda cfg=cfg: d.run_baseline(oracle, None, cfg, d.DoubleLoop(n_inner=10))),
                Unit(f"two_timescale/{i}", self.T,
                     lambda cfg=cfg: d.run_baseline(oracle, None, cfg, d.TwoTimescale())),
            ]
        return units

    def samples_to_eps(self, sustain, records) -> float:
        return _samples_to(sustain, records, 0.9 * records[0].upper_loss, "upper_loss")


class GridRecords:
    """``sustain run`` in-process: exact-oracle records at every iteration,
    per-row CSV writing and the grid summary."""

    name = "grid-records"
    tag = 3
    T = 1000
    algorithms = ("sustain", "alternating")
    n_seeds = 2
    epsilon = 0.01

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def _argv(self, slot: int) -> tuple[list[str], list[int]]:
        spec_seed, noise_seed, run_seed = _seeds(self.tag, slot, 3)
        run_seeds = [run_seed + i for i in range(self.n_seeds)]
        options = {
            "experiment.name": "grid", "problem.kind": "quadratic",
            "problem.d_up": "3", "problem.d_lo": "6",
            "problem.sigma_f": "0.3", "problem.sigma_g": "0.3",
            "problem.spec_seed": str(spec_seed), "problem.noise_seed": str(noise_seed),
            "run.algorithms": ",".join(self.algorithms), "run.policy": "practical",
            "schedule.c_eta": "10",
            "run.T": str(self.T), "run.seeds": ",".join(map(str, run_seeds)),
            "run.metric_stride": "1",
            "metrics.epsilon_targets": f"0.1,{self.epsilon:g}",
            "output.dir": str(self.out_dir),
        }
        return ["run"] + [f"--{k}={v}" for k, v in options.items()], run_seeds

    def build(self, sustain, slot: int) -> list[Unit]:
        argv, run_seeds = self._argv(slot)
        h = sustain.harness
        # Set-up cost only: the timed call builds the same problem again.
        h.make_problem(h.ExperimentConfig.from_mapping(h.apply_overrides({}, argv[1:])))

        def call():
            shutil.rmtree(self.out_dir, ignore_errors=True)
            with redirect_stdout(io.StringIO()):
                code = sustain.cli.main(argv)
            return code, run_seeds

        runs = self.n_seeds * len(self.algorithms)
        return [Unit("grid", self.T * runs, call, runs)]

    def outcome(self, sustain, unit: Unit, out, ref) -> Outcome:
        code, run_seeds = out
        files = {p.name: p for p in sorted(self.out_dir.glob("*.csv"))}
        digests = {n: hashlib.sha256(p.read_bytes()).hexdigest() for n, p in files.items()}
        summary = {}
        if "grid_summary.csv" in files:
            with open(files["grid_summary.csv"], newline="") as fh:
                summary = {row["algorithm"]: row for row in csv.DictReader(fh)}
        failures, early, reached = [], 0, []
        for alg in self.algorithms:
            row_error = summary.get(alg, {}).get("error", "missing summary row")
            for seed in run_seeds:
                name = f"grid_{alg}_seed{seed}.csv"
                if name not in files:
                    early += 1
                    failures.append(f"{name}: missing")
                    continue
                rows = sustain.harness.read_trajectory_csv(files[name])
                if not rows or rows[-1]["t"] < self.T - 1:
                    early += 1
                    failures.append(f"{name}: stopped before t = {self.T - 1}")
                elif row_error:
                    early += 1
                    failures.append(f"{name}: summary error {row_error!r}")
                elif ref is None or digests[name] != ref.get(name):
                    failures.append(f"{name}: bytes differ from the reference")
                elif ref.get("grid_summary.csv") != digests.get("grid_summary.csv"):
                    failures.append(f"{name}: summary bytes differ from the reference")
                reached.append(next((r["cumulative_samples"] for r in rows
                                     if r["grad_ell_sq"] is not None
                                     and r["grad_ell_sq"] <= self.epsilon), math.inf))
        if code != 0 and not failures:
            failures.append(f"sustain run exited with {code}")
        return Outcome(
            failures=failures,
            early_stops=early,
            samples_to_eps=reached,
            encoded=digests,
            csv_bytes=sum(p.stat().st_size for p in files.values()),
        )


def make_workloads(out_dir: Path) -> dict:
    return {w.name: w for w in (QuadRate(), HypercleanCompare(), GridRecords(out_dir))}


def load_reference(name: str, slot: int):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["slots"].get(str(slot), {})


def median_or_missing(values: list) -> float:
    """Median of per-run values; -1 when the median run never got there."""
    if not values:
        return -1.0
    m = median(values)
    return -1.0 if math.isinf(m) else float(m)
