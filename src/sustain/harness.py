"""Experiment harness: flat key=value configs, seeded run grids, CSV
trajectory/summary output, and the metric fits used by the acceptance checks.

All output is a pure function of the config: no wall-clock, no OS entropy,
so re-running a grid reproduces every file byte for byte.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .driver import (
    DoubleLoop,
    Policy,
    RunConfig,
    TrajectoryRecord,
    TwoTimescale,
    _initial_pair,
    resolve_schedule,
    run_baseline,
    run_sustain,
)
from .errors import MissingMetric
from .oracle import BilevelOracle, ExactOracle
from .testbed import (
    HyperCleanOracle,
    HyperCleanSpec,
    MetaLinearOracle,
    generate_corrupted_dataset,
    load_dataset_csv,
    make_quadratic,
    random_meta_linear_spec,
    random_quadratic_spec,
)

TRAJECTORY_SCHEMA = "trajectory-v1"
TRAJECTORY_COLUMNS = tuple(f.name for f in fields(TrajectoryRecord))
# the columns a threshold can be compared with: every one that holds a float
METRIC_COLUMNS = tuple(c for c in TRAJECTORY_COLUMNS
                       if c not in ("t", "cumulative_samples", "cumulative_hvps"))
# the record columns whose last values the summary averages over seeds
_FINAL_COLUMNS = ("grad_ell_sq", "ell_gap", "upper_loss", "cumulative_samples")


class NotReached:
    """Sentinel: the trajectory never met the threshold."""

    _instance: Optional["NotReached"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotReached"


NOT_REACHED = NotReached()


# ---------------------------------------------------------------------------
# Config parsing: flat `key = value` lines with dotted section keys.
# ---------------------------------------------------------------------------


def parse_config_file(path: Union[str, Path]) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def apply_overrides(mapping: Dict[str, str], overrides: Iterable[str]) -> Dict[str, str]:
    """Apply CLI `--key=value` overrides on top of a parsed config."""
    out = dict(mapping)
    for item in overrides:
        if not item.startswith("--") or "=" not in item:
            raise ValueError(f"override must look like --key=value, got {item!r}")
        key, _, value = item[2:].partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    algorithms: Tuple[str, ...] = ("sustain",)
    policy: str = "practical"
    T: int = 100
    seeds: Tuple[int, ...] = (0,)
    output_dir: str = "results"
    epsilon_targets: Tuple[float, ...] = ()
    epsilon_metric: str = "grad_ell_sq"
    metric_stride: int = 1
    name: str = "experiment"
    options: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"repeated seed in {','.join(map(str, self.seeds))}")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if not all(e > 0 for e in self.epsilon_targets):  # NaN fails it too
            raise ValueError("epsilon targets must be positive")
        if self.epsilon_metric not in METRIC_COLUMNS:
            raise ValueError(f"epsilon metric {self.epsilon_metric!r} is not one of "
                             f"the float record columns {', '.join(METRIC_COLUMNS)}")
        if self.policy not in {p.value for p in Policy}:
            raise ValueError(f"unknown policy {self.policy!r}")
        columns = [f"samples_to_{e:g}" for e in self.epsilon_targets]
        if len(set(columns)) < len(columns):
            raise ValueError(f"epsilon targets share a summary column: {', '.join(columns)}")
        # the read pass casts every value and runs the checks of RunConfig and
        # of each baseline kind; a key that it does not read is refused
        unknown = sorted(set(self.options) - _read(self)[3])
        if unknown:
            raise ValueError(
                f"unknown config key {', '.join(map(repr, unknown))} for problem "
                f"{self.problem}, policy {self.policy}, algorithms {','.join(self.algorithms)}")

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "ExperimentConfig":
        def split(cast):
            return lambda value: tuple(cast(s.strip()) for s in value.split(",") if s.strip())

        fields_by_key = {  # config key: (field, cast)
            "problem.kind": ("problem", str),
            "run.policy": ("policy", str),
            "run.T": ("T", int),
            "run.seeds": ("seeds", split(int)),
            "run.metric_stride": ("metric_stride", int),
            "output.dir": ("output_dir", str),
            "metrics.epsilon_targets": ("epsilon_targets", split(float)),
            "metrics.epsilon_metric": ("epsilon_metric", str),
            "experiment.name": ("name", str),
            "run.algorithms": ("algorithms", split(str)),
        }
        kwargs = {fields_by_key[key][0]: _cast(key, fields_by_key[key][1], value)
                  for key, value in mapping.items() if key in fields_by_key}
        options = {key: value for key, value in mapping.items() if key not in fields_by_key}
        return cls(options=options, **kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Problem / run construction from config options
# ---------------------------------------------------------------------------


def _cast(key: str, cast: Callable, value: str):
    """``cast(value)``; a ValueError it raises names ``key``."""
    try:
        return cast(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _read(cfg: ExperimentConfig):
    """The one read pass over ``cfg.options``: the problem's builder, the run
    config, each algorithm's baseline kind and the set of keys read.  Each
    value is cast as it is read; no problem is built."""
    read = set()

    def opt(key: str, default, cast=float):
        read.add(key)
        return _cast(key, cast, cfg.options[key]) if key in cfg.options else default

    build = _problem_builder(cfg.problem, opt)
    run = _run_config(cfg, opt)
    kinds = [_baseline_kind(a, opt) for a in cfg.algorithms]
    return build, run, kinds, read


def _floats(value: str) -> List[float]:
    return [float(s) for s in value.split(",")]


def _flag(value: str) -> bool:
    if value not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {value!r}")
    return value == "1"


def make_problem(cfg: ExperimentConfig) -> Tuple[BilevelOracle, Optional[ExactOracle]]:
    """The sampled oracle of ``cfg``'s problem and its exact oracle, or None."""
    return _read(cfg)[0]()


def _problem_builder(
    kind: str, opt: Callable
) -> Callable[[], Tuple[BilevelOracle, Optional[ExactOracle]]]:
    """Read the options of problem ``kind``; the closure returned builds it."""
    if kind == "quadratic":
        spec_seed = opt("problem.spec_seed", 0, int)
        shape = dict(
            d_up=opt("problem.d_up", 2, int),
            d_lo=opt("problem.d_lo", 5, int),
            mu_g=opt("problem.mu_g", 1.0),
            L_g=opt("problem.L_g", 2.0),
            lam=opt("problem.lam", 0.5),
            sigma_f=opt("problem.sigma_f", 0.0),
            sigma_g=opt("problem.sigma_g", 0.0),
            sin_amp=opt("problem.sin_amp", 0.0),
        )
        noise_seed = opt("problem.noise_seed", 0, int)
        return lambda: make_quadratic(
            random_quadratic_spec(np.random.default_rng(spec_seed), **shape), rng_seed=noise_seed)
    if kind == "hyperclean":
        train_csv = opt("problem.train_csv", None, str)
        if train_csv is not None:
            val_csv = opt("problem.val_csv", None, str)
            if val_csv is None:
                raise ValueError("problem.train_csv needs problem.val_csv")
            data = lambda: (load_dataset_csv(train_csv), load_dataset_csv(val_csv))
        else:
            data = partial(
                generate_corrupted_dataset,
                n_train=opt("problem.n_train", 500, int),
                n_val=opt("problem.n_val", 500, int),
                d_lo=opt("problem.d_lo", 20, int),
                p=opt("problem.p", 0.3),
                rng_seed=opt("problem.data_seed", 0, int),
            )
        reg, batch_size = opt("problem.reg", 1e-3), opt("problem.batch_size", 1, int)
        noise_seed = opt("problem.noise_seed", 0, int)
        return lambda: (HyperCleanOracle(HyperCleanSpec(
            *data(), reg=reg, batch_size=batch_size), rng_seed=noise_seed), None)
    if kind == "meta_linear":
        data_seed = opt("problem.data_seed", 0, int)
        M = opt("problem.M", 4, int)
        shape = dict(M=M, p=opt("problem.p_dim", 3, int), q=opt("problem.q", 8, int),
                     rho=opt("problem.rho", 1.0), m=opt("problem.m", M, int))
        noise_seed = opt("problem.noise_seed", 0, int)
        return lambda: (MetaLinearOracle(random_meta_linear_spec(
            np.random.default_rng(data_seed), **shape), rng_seed=noise_seed), None)
    raise ValueError(f"unknown problem kind {kind!r}")


def _run_config(cfg: ExperimentConfig, opt: Callable) -> RunConfig:
    """The run config of every seed, at seed 0; each schedule key is read only
    under the policy that uses it."""
    policy = Policy(cfg.policy)
    knobs = {}
    if policy is Policy.PRACTICAL:
        knobs = dict(base_alpha=opt("schedule.base_alpha", 0.1), c_eta=opt("schedule.c_eta", 1.0),
                     c_eta_g=opt("schedule.c_eta_g", None))
    elif policy is Policy.STRONGLY_CONVEX:
        knobs = dict(alpha_override=opt("schedule.alpha", None))
    return RunConfig(
        T=cfg.T,
        policy=policy,
        metric_stride=cfg.metric_stride,
        initial_x=opt("run.initial_x", None, _floats),
        initial_y=opt("run.initial_y", None, _floats),
        K_override=opt("schedule.K", None, int),
        record_errors=opt("run.record_errors", True, _flag),
        **knobs,
    )


def _baseline_kind(algorithm: str, opt: Callable):
    """The baseline kind of ``algorithm``; None for SUSTAIN itself."""
    if algorithm == "sustain":
        return None
    if algorithm == "alternating":  # one lower step per upper step
        return DoubleLoop()
    if algorithm == "two_timescale":
        return TwoTimescale(ratio=opt("algorithm.ratio", 2.0))
    if algorithm == "double_loop":
        return DoubleLoop(n_inner=opt("algorithm.n_inner", 1, int))
    raise ValueError(f"unknown algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # NumPy's float64 too, whose repr names its type
        return repr(float(value))
    return str(value)


def write_trajectory_csv(path: Union[str, Path], records: Sequence[TrajectoryRecord]) -> None:
    """No field needs quoting (each is empty, an int or a float's repr), so
    rows are joined directly, in the bytes ``csv.writer`` would write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema={TRAJECTORY_SCHEMA}\n{','.join(TRAJECTORY_COLUMNS)}\n")
        fh.writelines(",".join([_fmt(getattr(r, col)) for col in TRAJECTORY_COLUMNS]) + "\n"
                      for r in records)


def _cell(path, line: int, column: str, text: Optional[str]) -> Optional[float]:
    if text == "":
        return None
    try:
        return float(text)
    except (TypeError, ValueError):  # None or a list: too few or too many cells
        pass
    raise ValueError(f"{path}, line {line}, column {column}: {text!r} is not a number")


def read_trajectory_csv(path: Union[str, Path]) -> List[Dict[str, Optional[float]]]:
    """The rows of a file that ``write_trajectory_csv`` wrote, an empty cell
    read as None.  A file whose first line is not the schema line, or a cell
    that is not a number, raises ``ValueError`` naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != f"# schema={TRAJECTORY_SCHEMA}":
            raise ValueError(f"{path} is not a trajectory CSV: its first line is not "
                             f"'# schema={TRAJECTORY_SCHEMA}'")
        reader = csv.DictReader(fh)
        # line_num counts from the header, the file's second line
        return [{k: _cell(path, reader.line_num + 1, k, v) for k, v in row.items()}
                for row in reader]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    window: Tuple[int, int]


def fit_rate_exponent(
    series: Sequence[Tuple[float, float]], window: Tuple[int, int]
) -> RateFit:
    """Least-squares slope of log(value) against log(t) over the window."""
    t_min, t_max = window
    t_min = max(t_min, 1)
    pts = [(t, v) for t, v in series if t_min <= t <= t_max]
    if len(pts) < 8:
        raise ValueError(f"need >= 8 points in window, have {len(pts)}")
    bad = next(((t, v) for t, v in pts if not 0 < v < math.inf), None)  # NaN too
    if bad is not None:
        raise ValueError("rate fit requires positive values that are finite: "
                         f"t = {bad[0]:g} has {bad[1]:g}")
    log_t = np.log([t for t, _ in pts])
    log_v = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    pred = slope * log_t + intercept
    ss_res = float(np.sum((log_v - pred) ** 2))
    ss_tot = float(np.sum((log_v - np.mean(log_v)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2, (int(t_min), int(t_max)))


def samples_to_epsilon(
    records: Sequence[TrajectoryRecord], eps: float, metric: str
) -> Union[int, NotReached]:
    """Cumulative samples at the first record whose metric is <= eps."""
    if not records:
        raise MissingMetric("empty trajectory")
    seen_any = False
    for r in records:
        value = getattr(r, metric, None)
        if value is None:
            continue
        seen_any = True
        if value <= eps:
            return r.cumulative_samples
    if not seen_any:
        raise MissingMetric(f"metric {metric!r} absent from trajectory")
    return NOT_REACHED


# ---------------------------------------------------------------------------
# Grid runner
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    trajectory_paths: Dict[Tuple[str, int], Path]
    summary_path: Path
    summary_rows: List[Dict[str, str]]
    K: int  # the truncation level of every run


def _mean_std(values: List[float]) -> Tuple[Optional[float], Optional[float]]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    return float(np.mean(vals)), float(np.std(vals))


def _median_samples(counts: List[Union[int, NotReached]]) -> str:
    """The summary cell of ``counts``: their median, or "NotReached" when the
    median is not reached or no run succeeded."""
    med = float(np.median([math.inf if isinstance(c, NotReached) else float(c)
                           for c in counts])) if counts else math.inf
    return "NotReached" if math.isinf(med) else str(int(med))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cell(grid: tuple, cell: tuple) -> Union[str, tuple]:
    """Run one (algorithm, seed) cell of ``grid`` = (oracle, exact, run
    config, experiment config, output directory) and write its trajectory
    CSV.  ``cell`` is (algorithm, baseline kind, seed).  The outcome is the
    error text of a failed run, or the CSV path, the last record's
    ``_FINAL_COLUMNS`` values and the samples to each epsilon target."""
    oracle, exact, run, cfg, out_dir = grid
    algorithm, kind, seed = cell
    run_cfg = replace(run, seed=seed)
    try:
        if kind is None:
            _, records = run_sustain(oracle, exact, run_cfg)
        else:
            _, records = run_baseline(oracle, exact, run_cfg, kind)
    except Exception as exc:  # recorded per-row, grid continues
        return f"seed {seed}: {type(exc).__name__}: {exc}"
    if not records or records[-1].t != run_cfg.T - 1:  # stopped on a non-finite value
        last = f"last record t = {records[-1].t}" if records else "no records"
        return f"seed {seed}: run stopped before t = {run_cfg.T - 1} ({last})"
    # a sum of every recorded number is NaN or inf when one of them is (or when
    # it overflows); only then are the records scanned for the first
    numbers = chain.from_iterable(map(dict.values, map(vars, records)))
    if not math.isfinite(sum(filter(None, numbers))):
        for r in records:
            bad = [name for name, v in vars(r).items() if v is not None and not math.isfinite(v)]
            if bad:
                return f"seed {seed}: non-finite {bad[0]} at t = {r.t}"
    try:  # the metric is absent on a problem without its exact oracle
        reached = [samples_to_epsilon(records, e, cfg.epsilon_metric)
                   for e in cfg.epsilon_targets]
    except MissingMetric as exc:
        return f"seed {seed}: MissingMetric: {exc}"
    path = out_dir / f"{cfg.name}_{algorithm}_seed{seed}.csv"
    write_trajectory_csv(path, records)
    return path, tuple(getattr(records[-1], name) for name in _FINAL_COLUMNS), reached


# The grid a pool worker serves, inherited through fork and never pickled: an
# oracle may carry local closures, which pickle cannot send.
_served_grid: Optional[tuple] = None


def _serve(*grid) -> None:
    global _served_grid
    _served_grid = grid


def _run_served_cell(cell: tuple) -> Union[str, tuple]:
    return _run_cell(_served_grid, cell)


def _run_cells_in_workers(grid: tuple, cells: List[tuple],
                          workers: int) -> List[Union[str, tuple]]:
    """The outcomes of ``cells``, in order, from ``workers`` forked processes;
    only the cells and their outcomes cross the pipe.  The workers are forked,
    not spawned, because a spawned worker would need the grid pickled.  The
    pool is shut down and its workers joined before this returns or raises."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_serve, initargs=grid) as pool:
        return list(pool.map(_run_served_cell, cells))


def run_grid(cfg: ExperimentConfig) -> GridResult:
    """Run every (algorithm, seed) cell, write one trajectory CSV per cell
    and one summary CSV; run failures are recorded per-row, never fatal.
    A problem that cannot be built, an initial iterate of the wrong length or
    a schedule the problem cannot support raises before the output directory
    is made (the strongly-convex policy needs ``mu_f``).  K is resolved once,
    here, and every cell runs at it.

    The cells run in forked worker processes, one per CPU this process may
    use, up to the number of cells; with one worker, or where the platform
    cannot fork, they run in this process through the same cell function.
    Every cell is a pure function of the config and the summary is built here
    in (algorithm, seed) order, so the outputs are byte-identical to a
    one-CPU run (``taskset -c 0 sustain run ...`` runs the grid in one
    process).  A log line from a cell comes from the worker that ran it.

    A summary row's ``seeds`` counts the seeds whose run succeeded, and its
    ``error`` joins every failed seed's error with ``"; "``.  A run that stops
    before t = T - 1, or whose records lack the epsilon metric, has failed:
    it gets no trajectory CSV."""
    oracle, exact = make_problem(cfg)
    _, run, kinds, _ = _read(cfg)
    _initial_pair(oracle, run)
    _, K = resolve_schedule(oracle, run)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid = (oracle, exact, replace(run, K_override=K), cfg, out_dir)
    cells = [(algorithm, kind, seed)
             for algorithm, kind in zip(cfg.algorithms, kinds) for seed in cfg.seeds]
    workers = min(_cpu_count(), len(cells))
    if workers > 1 and hasattr(os, "fork"):
        outcomes = _run_cells_in_workers(grid, cells, workers)
    else:
        outcomes = list(map(partial(_run_cell, grid), cells))

    paths = {(algorithm, seed): outcome[0]
             for (algorithm, _, seed), outcome in zip(cells, outcomes)
             if not isinstance(outcome, str)}
    summary_rows: List[Dict[str, str]] = []
    for i, algorithm in enumerate(cfg.algorithms):
        runs = outcomes[i * len(cfg.seeds):(i + 1) * len(cfg.seeds)]
        done = [outcome for outcome in runs if not isinstance(outcome, str)]
        row = {"algorithm": algorithm, "seeds": str(len(done)),
               "error": "; ".join(outcome for outcome in runs if isinstance(outcome, str))}
        for j, name in enumerate(_FINAL_COLUMNS):
            mean, std = _mean_std([last[j] for _, last, _ in done])
            row[f"final_{name}_mean"], row[f"final_{name}_std"] = _fmt(mean), _fmt(std)
        for j, e in enumerate(cfg.epsilon_targets):
            row[f"samples_to_{e:g}"] = _median_samples([reached[j] for _, _, reached in done])
        summary_rows.append(row)

    summary_path = out_dir / f"{cfg.name}_summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(summary_rows)
    return GridResult(paths, summary_path, summary_rows, K)
