"""Benchmark of the sustain library.

    python3 perfbench/run.py --workload quad-rate --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src/`` and treated as a black box: the benchmark builds its
inputs from ``--seed`` (see ``workloads.py``) and calls the public entry
points.  ``--trace 0`` calls them for ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced pass over
the workload's calls and reports the per-layer metrics (see ``tracing.py``).
Every output is checked against the stored reference.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
OUT_DIR = ROOT / ".perfbench_out" / str(os.getpid())
SETUP_REPEATS = 15
MAX_FAILURE_LINES = 5
# The probe's 10th-percentile time on the reference machine (2 vCPUs shared
# with other virtual machines, Python 3.11.7, NumPy 2.4.6).
PROBE_REFERENCE_S = 4.4e-3


def import_sustain():
    """Import the library from this checkout's ``src/``, dropping any copy
    imported before so that the import itself is part of the timed set-up."""
    for name in [m for m in sys.modules if m == "sustain" or m.startswith("sustain.")]:
        del sys.modules[name]
    sustain = importlib.import_module("sustain")
    importlib.import_module("sustain.cli")
    if not Path(sustain.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sustain was imported from {sustain.__file__}, not {SRC}")
    return sustain


_PROBE_MATRIX = np.arange(36.0).reshape(6, 6) / 36.0


def probe_seconds() -> float:
    """Time a fixed piece of work that does not touch the library.

    Other tenants of the host slow this machine down by up to 2x for
    seconds at a time.  The probe mixes interpreter work, small NumPy
    products and Philox construction like the workloads do, so it slows down
    with them: measured on the reference machine, the workload-to-probe time
    ratio of 2-second windows stayed within 3% while the raw workload time
    swung by 25%.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        g = np.random.Generator(np.random.Philox(key=(i, 12345)))
        y = _PROBE_MATRIX @ (g.standard_normal(6) + 1.0)
        acc += float(y @ y) + sum(range(20))
    return time.perf_counter() - t0


class Scale:
    """Maps a wall time measured between two probes to reference-machine
    seconds: multiplied by PROBE_REFERENCE_S over the mean probe time."""

    def __enter__(self):
        self._before = probe_seconds()
        return self

    def __exit__(self, *exc):
        self.factor = PROBE_REFERENCE_S / ((self._before + probe_seconds()) / 2)
        return False


class Tally:
    """Runs attempted and failed, and what the benchmark measured of them."""

    def __init__(self):
        self.attempted = self.failed = self.early_stops = self.iters = 0
        self.unit_seconds = self.raw_unit_seconds = 0.0
        self.us_per_iter: list[float] = []
        self.raw_us_per_iter: list[float] = []
        self.samples_to_eps: list[float] = []
        self.csv_bytes = 0
        self.failure_lines: list[str] = []
        self.problems: list[str] = []  # faults of the measurement, not of a run

    def fail(self, n: int, lines) -> None:
        self.failed += n
        self.failure_lines += list(lines)[: MAX_FAILURE_LINES - len(self.failure_lines)]


def run_units(workload, sustain, units, reference, tally: Tally, seconds=None,
              tracer=None) -> None:
    """Call the units in turn, once each, or over and over until ``seconds``
    have passed; time each call, scale it to the reference machine and check
    its output.  Under a tracer, a run whose HVP closures were invoked a
    different number of times than its last record reports also fails."""
    start = time.perf_counter()

    def more(i: int) -> bool:
        if seconds is None:
            return i < len(units)
        return i == 0 or time.perf_counter() - start < seconds

    i = 0
    while more(i):
        unit = units[i % len(units)]
        i += 1
        tally.attempted += unit.runs
        first_run = len(tracer.runs) if tracer else 0
        try:
            with Scale() as scale:
                t0 = time.perf_counter()
                out = unit.call()
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a run that raised is a failed run
            tally.fail(unit.runs, [f"{unit.key}: {type(exc).__name__}: {exc}"])
            continue
        o = workload.outcome(sustain, unit, out, reference.get(unit.key))
        tally.unit_seconds += elapsed * scale.factor
        tally.raw_unit_seconds += elapsed
        tally.iters += unit.iters
        tally.us_per_iter.append(1e6 * elapsed * scale.factor / unit.iters)
        tally.raw_us_per_iter.append(1e6 * elapsed / unit.iters)
        tally.samples_to_eps += o.samples_to_eps
        tally.early_stops += o.early_stops
        tally.csv_bytes += o.csv_bytes
        failures = list(o.failures)
        for run in tracer.runs[first_run:] if tracer else ():
            if run.counts["hvps_count_gap"]:
                failures.append(f"{unit.key}: {run.counts['hvp_actions']} HVP actions, "
                                f"{run.counts['hvps_count_gap']} more than reported")
        if failures:
            tally.fail(min(len(failures), unit.runs), failures)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    return {
        "iters_per_s": tally.iters / tally.unit_seconds if tally.unit_seconds else 0.0,
        "us_per_iter_p50": median(tally.us_per_iter) if tally.us_per_iter else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, sustain, slot, units, reference, tally: Tally) -> dict:
    """One untraced and one traced pass over the same calls."""
    plain = Tally()
    run_units(workload, sustain, units, reference, plain)
    traced = Tally()
    tracer = tracing.Tracer(sustain)
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_units = workload.build(sustain, slot)
        run_units(workload, sustain, traced_units, reference, traced, tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    m = tracer.metrics()
    m.update({
        "driver.early_stops": traced.early_stops,
        "harness.csv_bytes": traced.csv_bytes,
        "samples_to_eps": wl.median_or_missing(traced.samples_to_eps),
        "trace.overhead_frac": traced.unit_seconds / plain.unit_seconds - 1.0
        if plain.unit_seconds else 0.0,
        "trace.wall_s": wall,
        "trace.other_s": wall - tracer.self_seconds(),
    })
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.fail(part.failed, part.failure_lines)
    if m["trace.other_s"] < 0 or tracer.open_spans():
        tally.problems.append("layer self times do not add up to the traced wall time")
    return m


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = wl.make_workloads(OUT_DIR)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(all_workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = all_workloads[args.workload]
    slot = args.seed % wl.N_SLOTS

    probe_seconds()  # warm-up: the first probe pays NumPy's lazy set-up
    try:
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            with Scale() as scale:
                t0 = time.perf_counter()
                sustain = import_sustain()
                units = workload.build(sustain, slot)
                elapsed = time.perf_counter() - t0
            setup_times.append(elapsed * scale.factor)
            raw_setup_times.append(elapsed)
    except ImportError as exc:
        print(f"cannot import the sustain library from {SRC}: {exc}", file=sys.stderr)
        return 2
    reference = wl.load_reference(workload.name, slot)

    tally = Tally()
    notes = []
    try:
        if args.trace:
            metrics = per_layer(workload, sustain, slot, units, reference, tally)
        else:
            run_units(workload, sustain, units, reference, tally, seconds=args.seconds)
            metrics = end_to_end(tally, median(setup_times))
            if tally.raw_us_per_iter:
                notes.append(f"unscaled: iters_per_s {tally.iters / tally.raw_unit_seconds:.6g}, "
                             f"us_per_iter_p50 {median(tally.raw_us_per_iter):.6g}, "
                             f"setup_s {median(raw_setup_times):.6g}")
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        try:
            OUT_DIR.parent.rmdir()
        except OSError:
            pass

    units_of = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units_of)}")
    correct = tally.failed == 0 and tally.attempted > 0 and not tally.problems
    print(f"{workload.name} seed {args.seed} (input set {slot}): "
          f"{tally.attempted} runs, {tally.failed} failed, "
          f"failed_frac {tally.failed / max(tally.attempted, 1):g}, "
          f"output check {'PASS' if correct else 'FAIL'}")
    for line in tally.failure_lines + tally.problems:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units_of[name]}")
    for line in notes:
        print(f"  {line}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
