"""Paired benchmark runs of a parent commit against the working tree.

    python3 benches/pairs.py --seeds 100 101 102 --seconds 30 \\
        --workloads quad-rate --claim quad-rate:us_per_iter_p50 \\
        --held-out-seeds 3 3 --check-seeds 0 1 2 3 --out BENCH_N.json

The script compares the checkout it sits in.  The parent, ``HEAD``, is
exported with ``git archive`` into a temporary directory, so the comparison
sees the parent's committed files and the working tree's files, uncommitted
changes included.  For each workload and each seed the script
runs ``perfbench/run.py --trace 0`` once from each side, alternating which
side runs first (even pairs the parent, odd pairs the change), and reads the
JSON object on the last line of each run's output.

The output file holds, per workload and end-to-end metric, both sides' runs,
medians and quartiles (``statistics.quantiles(values, n=4)``), the pairs the
change won and the median change in percent.  A claimed metric also gets the
check the benchmark applies to a claim: the change wins at least nine in ten
pairs, and the medians differ by more than the parent's interquartile range.
``--held-out-seeds`` pairs are reported apart from the others.
``--check-seeds`` runs the working tree alone for 2 s with ``--trace 0`` and
``--trace 1`` and records each run's ``correct``, ``failed`` and
``driver.hvps_count_gap``.

``sustain run`` runs the cells of a grid in forked workers, one per CPU the
process may use, so the machine block records that CPU count.  When
grid-records is benchmarked, the report also holds the peak RSS of the
workers of one grid-records grid per side and seed (``RUSAGE_CHILDREN`` of a
process that runs only that grid; 0 where the grid runs in one process).
The benchmark's ``peak_rss_mb`` is the parent process's alone.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("perfbench") / "run.py"
CHECK_SECONDS = 2.0


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``checkout``; its last output line."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


# Runs the grid-records grid of one seed from a checkout and prints the peak
# RSS of the processes it waited for, in MB.
_WORKER_PEAK = """
import io, resource, sys, tempfile
from contextlib import redirect_stdout
from pathlib import Path
sys.path[:0] = ["perfbench", "src"]
import workloads, sustain.cli
with tempfile.TemporaryDirectory() as tmp:
    argv, _ = workloads.GridRecords(Path(tmp))._argv(int(sys.argv[1]) % workloads.N_SLOTS)
    with redirect_stdout(io.StringIO()):
        code = sustain.cli.main(argv)
if code:
    sys.exit(code)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
"""


def worker_peak_rss_mb(checkout: Path, seed: int) -> float:
    """Peak RSS of the workers of one grid-records grid run from ``checkout``."""
    done = subprocess.run([sys.executable, "-c", _WORKER_PEAK, str(seed)], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"grid-records worker peak in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    # extraction filters came with Python 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def spread(values: list) -> dict:
    """Median and quartiles of ``values``, rounded for the report."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def summarize(pairs: list, metrics: list) -> dict:
    """Per-metric summary of the ``(parent, change)`` results of one workload."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change_pct": round(100.0 * (cs["median"] / ps["median"] - 1.0), 2),
        }
    return out


def claim_check(entry: dict) -> dict:
    """The benchmark's test of a claimed gain on one summarized metric."""
    wins, n = (int(v) for v in entry["change_wins"].split("/"))
    parent = entry["parent"]
    iqr = parent["q3"] - parent["q1"]
    gap = abs(entry["change"]["median"] - parent["median"])
    return {"wins": entry["change_wins"], "parent_iqr": round(iqr, 6),
            "median_gap": round(gap, 6),
            "passes": wins >= 0.9 * n and gap > iqr}


def run_pairs(parent_dir: Path, workloads: list, seeds: list, seconds: float,
              metrics: list) -> tuple:
    """Alternating pairs per workload and seed: the summaries, the side that
    ran first in each pair, and one line per run that was not correct."""
    summary, first, bad = {}, {}, []
    for w in workloads:
        pairs, order = [], []
        for i, seed in enumerate(seeds):
            sides = [("parent", parent_dir), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            got = {}
            for side, checkout in sides:
                got[side] = perfbench(checkout, w, seed, seconds, 0)
                if not got[side]["correct"] or got[side]["failed"]:
                    bad.append(f"{w} seed {seed} {side}: correct {got[side]['correct']}, "
                               f"failed {got[side]['failed']}")
                print(f"{w} seed {seed} {side}: " + ", ".join(
                    f"{m['name']} {got[side]['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))
            order.append(sides[0][0])
        summary[w], first[w] = summarize(pairs, metrics), order
    return summary, first, bad


def output_checks(workloads: list, seeds: list, seconds: float) -> dict:
    """``correct``, ``failed`` and the HVP count gap of the working tree's
    runs at ``--trace 0`` and ``--trace 1``."""
    checks = {}
    for w in workloads:
        for seed in seeds:
            for trace in (0, 1):
                r = perfbench(ROOT, w, seed, seconds, trace)
                gap = r["metrics"].get("driver.hvps_count_gap", {}).get("value")
                checks[f"{w} seed {seed} trace {trace}"] = {
                    "correct": r["correct"], "failed": r["failed"], "hvps_count_gap": gap}
    return checks


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--held-out-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--check-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    metrics = bench["end_to_end"]
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        if workload not in args.workloads or metric not in {m["name"] for m in metrics}:
            parser.error(f"--claim {args.claim}: not a benchmarked workload and metric")
        claim = {"workload": workload, "metric": metric}

    base = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_dir = Path(tmp) / "parent"
        export(base, parent_dir)
        summary, first, bad = run_pairs(parent_dir, args.workloads, args.seeds,
                                        args.seconds, metrics)
        held_out = {}
        if args.held_out_seeds:
            held_out, _, more_bad = run_pairs(parent_dir, args.workloads,
                                              args.held_out_seeds, args.seconds, metrics)
            bad += more_bad
        workers = {}
        if "grid-records" in args.workloads:
            workers = {side: {str(seed): round(worker_peak_rss_mb(checkout, seed), 3)
                              for seed in args.seeds + args.held_out_seeds}
                       for side, checkout in (("parent", parent_dir), ("change", ROOT))}
    report = {
        "about": (f"Paired --trace 0 runs of perfbench/run.py: parent commit {base} against "
                  "the working tree, written by benches/pairs.py."),
        "machine": {"cpu": cpu_model(),
                    "nproc": os.cpu_count(),
                    # the CPUs sustain run may use, and so its grid workers
                    "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count(),
                    "python": platform.python_version()},
        "parent": base,
        "run_seconds": args.seconds,
        "seeds": {w: args.seeds for w in args.workloads},
        "first": first,
        "claimed": claim,
        "end_to_end": summary,
    }
    if claim:
        report["claim_check"] = claim_check(summary[claim["workload"]][claim["metric"]])
    if held_out:
        report["held_out_seeds"] = args.held_out_seeds
        report["held_out"] = held_out
        if claim:
            report["held_out_claim_check"] = claim_check(
                held_out[claim["workload"]][claim["metric"]])
    if workers:
        report["grid_records_worker_peak_rss_mb"] = workers
    report["output_checks"] = {"timed_runs_not_correct": bad}
    if args.check_seeds:
        report["output_checks"]["working_tree"] = {
            "seconds": CHECK_SECONDS,
            "runs": output_checks(args.workloads, args.check_seeds, CHECK_SECONDS)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
