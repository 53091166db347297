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
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .driver import (
    AlternatingSGD,
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
from .errors import (
    InsufficientPoints,
    MissingMetric,
    NonPositiveValue,
)
from .oracle import BilevelOracle, ExactOracle
from .testbed import (
    HyperCleanSpec,
    MetaLinearSpec,
    QuadBilevelSpec,
    generate_corrupted_dataset,
    load_dataset_csv,
    make_hyperclean,
    make_meta_linear,
    make_quadratic,
    random_quadratic_spec,
)

OUTPUT_DIR_ENV = "SUSTAIN_OUTPUT_DIR"

TRAJECTORY_SCHEMA = "trajectory-v1"
TRAJECTORY_COLUMNS = tuple(f.name for f in fields(TrajectoryRecord))
# the columns a threshold can be compared with: every one that holds a float
METRIC_COLUMNS = tuple(c for c in TRAJECTORY_COLUMNS
                       if c not in ("t", "cumulative_samples", "cumulative_hvps"))

# every option key the harness reads (``_opt``); a config with any other key
# is rejected
_OPTIONS = frozenset({
    "problem.spec_seed", "problem.noise_seed", "problem.data_seed",
    "problem.d_up", "problem.d_lo", "problem.mu_g", "problem.L_g", "problem.lam",
    "problem.sigma_f", "problem.sigma_g", "problem.sin_amp",
    "problem.train_csv", "problem.val_csv", "problem.p", "problem.n_train",
    "problem.n_val", "problem.reg", "problem.batch_size",
    "problem.M", "problem.p_dim", "problem.q", "problem.rho", "problem.m",
    "run.initial_x", "run.initial_y", "run.record_errors",
    "schedule.K", "schedule.base_alpha", "schedule.c_eta", "schedule.c_eta_g",
    "schedule.alpha", "algorithm.ratio", "algorithm.n_inner",
})


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
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if not all(e > 0 for e in self.epsilon_targets):  # NaN fails it too
            raise ValueError("epsilon targets must be positive")
        if self.epsilon_metric not in METRIC_COLUMNS:
            raise ValueError(f"epsilon metric {self.epsilon_metric!r} is not one of "
                             f"the float record columns {', '.join(METRIC_COLUMNS)}")
        if self.policy not in {p.value for p in Policy}:
            raise ValueError(f"unknown policy {self.policy!r}")
        unknown = sorted(set(self.options) - _OPTIONS)
        if unknown:
            raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
        # the checks of RunConfig and of each baseline kind, every option cast
        make_run_config(self, self.seeds[0])
        for a in self.algorithms:
            _baseline_kind(self, a)

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "ExperimentConfig":
        known = {
            "problem.kind": "problem",
            "run.policy": "policy",
            "run.T": "T",
            "run.seeds": "seeds",
            "run.metric_stride": "metric_stride",
            "output.dir": "output_dir",
            "metrics.epsilon_targets": "epsilon_targets",
            "metrics.epsilon_metric": "epsilon_metric",
            "experiment.name": "name",
            "run.algorithms": "algorithms",
        }
        kwargs: Dict[str, object] = {}
        options: Dict[str, str] = {}
        for key, value in mapping.items():
            if key in known:
                dest = known[key]
                if dest in ("T", "metric_stride"):
                    kwargs[dest] = int(value)
                elif dest == "seeds":
                    kwargs[dest] = tuple(int(s) for s in value.split(",") if s.strip())
                elif dest == "epsilon_targets":
                    kwargs[dest] = tuple(float(s) for s in value.split(",") if s.strip())
                elif dest == "algorithms":
                    kwargs[dest] = tuple(s.strip() for s in value.split(",") if s.strip())
                else:
                    kwargs[dest] = value
            else:
                options[key] = value
        return cls(options=options, **kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Problem / run construction from config options
# ---------------------------------------------------------------------------


def _opt(options: Dict[str, str], key: str, default, cast=float):
    assert key in _OPTIONS, key
    if key not in options:
        return default
    try:
        return cast(options[key])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _floats(value: str) -> List[float]:
    return [float(s) for s in value.split(",")]


def make_problem(cfg: ExperimentConfig) -> Tuple[BilevelOracle, Optional[ExactOracle]]:
    o = cfg.options
    if cfg.problem == "quadratic":
        rng = np.random.default_rng(_opt(o, "problem.spec_seed", 0, int))
        spec = random_quadratic_spec(
            rng,
            d_up=_opt(o, "problem.d_up", 2, int),
            d_lo=_opt(o, "problem.d_lo", 5, int),
            mu_g=_opt(o, "problem.mu_g", 1.0),
            L_g=_opt(o, "problem.L_g", 2.0),
            lam=_opt(o, "problem.lam", 0.5),
            sigma_f=_opt(o, "problem.sigma_f", 0.0),
            sigma_g=_opt(o, "problem.sigma_g", 0.0),
            sin_amp=_opt(o, "problem.sin_amp", 0.0),
        )
        oracle, exact = make_quadratic(spec, rng_seed=_opt(o, "problem.noise_seed", 0, int))
        return oracle, exact
    if cfg.problem == "hyperclean":
        train_csv = _opt(o, "problem.train_csv", None, str)
        if train_csv is not None:
            train = load_dataset_csv(train_csv)
            val = load_dataset_csv(_opt(o, "problem.val_csv", None, str))
            p = _opt(o, "problem.p", 0.0)
        else:
            p = _opt(o, "problem.p", 0.3)
            train, val = generate_corrupted_dataset(
                n_train=_opt(o, "problem.n_train", 500, int),
                n_val=_opt(o, "problem.n_val", 500, int),
                d_lo=_opt(o, "problem.d_lo", 20, int),
                p=p,
                rng_seed=_opt(o, "problem.data_seed", 0, int),
            )
        spec = HyperCleanSpec(
            train=train,
            val=val,
            corruption_rate=p,
            reg=_opt(o, "problem.reg", 1e-3),
            batch_size=_opt(o, "problem.batch_size", 1, int),
        )
        return make_hyperclean(spec, rng_seed=_opt(o, "problem.noise_seed", 0, int)), None
    if cfg.problem == "meta_linear":
        rng = np.random.default_rng(_opt(o, "problem.data_seed", 0, int))
        M = _opt(o, "problem.M", 4, int)
        p_dim = _opt(o, "problem.p_dim", 3, int)
        q = _opt(o, "problem.q", 8, int)
        w = rng.standard_normal(p_dim)
        Z, v, D, u = [], [], [], []
        for _ in range(M):
            shift = 0.3 * rng.standard_normal(p_dim)
            for mats, targs in ((Z, v), (D, u)):
                design = rng.standard_normal((q, p_dim))
                mats.append(design)
                targs.append(design @ (w + shift) + 0.05 * rng.standard_normal(q))
        spec = MetaLinearSpec(
            Z=Z, v=v, D=D, u=u,
            rho=_opt(o, "problem.rho", 1.0),
            m=_opt(o, "problem.m", M, int),
        )
        return make_meta_linear(spec, rng_seed=_opt(o, "problem.noise_seed", 0, int)), None
    raise ValueError(f"unknown problem kind {cfg.problem!r}")


def make_run_config(cfg: ExperimentConfig, seed: int) -> RunConfig:
    o = cfg.options
    return RunConfig(
        T=cfg.T,
        policy=Policy(cfg.policy),
        seed=seed,
        metric_stride=cfg.metric_stride,
        initial_x=_opt(o, "run.initial_x", None, _floats),
        initial_y=_opt(o, "run.initial_y", None, _floats),
        K_override=_opt(o, "schedule.K", None, int),
        base_alpha=_opt(o, "schedule.base_alpha", 0.1),
        c_eta=_opt(o, "schedule.c_eta", 1.0),
        c_eta_g=_opt(o, "schedule.c_eta_g", None),
        alpha_override=_opt(o, "schedule.alpha", None),
        record_errors=_opt(o, "run.record_errors", "1", str) != "0",
    )


def _baseline_kind(cfg: ExperimentConfig, algorithm: str):
    """The baseline kind of ``algorithm``; None for SUSTAIN itself."""
    o = cfg.options
    if algorithm == "sustain":
        return None
    if algorithm == "alternating":
        return AlternatingSGD()
    if algorithm == "two_timescale":
        return TwoTimescale(ratio=_opt(o, "algorithm.ratio", 2.0))
    if algorithm == "double_loop":
        return DoubleLoop(n_inner=_opt(o, "algorithm.n_inner", 1, int))
    raise ValueError(f"unknown algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trajectory_csv(path: Union[str, Path], records: Sequence[TrajectoryRecord]) -> None:
    """No field needs quoting (each is empty, an int or a float's repr), so
    rows are joined directly, in the bytes ``csv.writer`` would write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema={TRAJECTORY_SCHEMA}\n{','.join(TRAJECTORY_COLUMNS)}\n")
        fh.writelines(",".join([_fmt(getattr(r, col)) for col in TRAJECTORY_COLUMNS]) + "\n"
                      for r in records)


def read_trajectory_csv(path: Union[str, Path]) -> List[Dict[str, Optional[float]]]:
    rows: List[Dict[str, Optional[float]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    for row in reader:
        rows.append({k: (float(v) if v != "" else None) for k, v in row.items()})
    return rows


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
        raise InsufficientPoints(f"need >= 8 points in window, have {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise NonPositiveValue("rate fit requires positive values")
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


def _mean_std(values: List[float]) -> Tuple[Optional[float], Optional[float]]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    return float(np.mean(vals)), float(np.std(vals))


def _median_samples(counts: List[Union[int, NotReached]]) -> Union[int, NotReached]:
    as_float = [math.inf if isinstance(c, NotReached) else float(c) for c in counts]
    med = float(np.median(as_float))
    return NOT_REACHED if math.isinf(med) else int(med)


def run_grid(cfg: ExperimentConfig) -> GridResult:
    """Run every (algorithm, seed) cell, write one trajectory CSV per cell
    and one summary CSV; run failures are recorded per-row, never fatal.
    A problem that cannot be built, an initial iterate of the wrong length or
    a schedule the problem cannot support raises before the output directory
    is made (the strongly-convex policy needs ``mu_f``).

    A summary row's ``seeds`` counts the seeds whose run succeeded, and its
    ``error`` joins every failed seed's error with ``"; "``.  A run that stops
    before t = T - 1, or whose records lack the epsilon metric, has failed:
    it gets no trajectory CSV."""
    oracle, exact = make_problem(cfg)
    kinds = [_baseline_kind(cfg, a) for a in cfg.algorithms]
    run = make_run_config(cfg, cfg.seeds[0])
    _initial_pair(oracle, run)
    resolve_schedule(oracle, run)
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)

    paths: Dict[Tuple[str, int], Path] = {}
    summary_rows: List[Dict[str, str]] = []
    for algorithm, kind in zip(cfg.algorithms, kinds):
        finals: Dict[str, List[Optional[float]]] = {
            "grad_ell_sq": [], "ell_gap": [], "upper_loss": [], "cumulative_samples": []
        }
        eps_counts: Dict[float, List[Union[int, NotReached]]] = {
            e: [] for e in cfg.epsilon_targets
        }
        errors: List[str] = []
        for seed in cfg.seeds:
            run_cfg = replace(run, seed=seed)
            try:
                if kind is None:
                    _, records = run_sustain(oracle, exact, run_cfg)
                else:
                    _, records = run_baseline(oracle, exact, run_cfg, kind)
            except Exception as exc:  # recorded per-row, grid continues
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                continue
            if not records or records[-1].t != run_cfg.T - 1:  # stopped on a non-finite value
                last = f"last record t = {records[-1].t}" if records else "no records"
                errors.append(f"seed {seed}: run stopped before t = {run_cfg.T - 1} ({last})")
                continue
            try:  # the metric is absent on a problem without its exact oracle
                reached = [samples_to_epsilon(records, e, cfg.epsilon_metric)
                           for e in cfg.epsilon_targets]
            except MissingMetric as exc:
                errors.append(f"seed {seed}: MissingMetric: {exc}")
                continue
            path = out_dir / f"{cfg.name}_{algorithm}_seed{seed}.csv"
            write_trajectory_csv(path, records)
            paths[(algorithm, seed)] = path
            last = records[-1]
            finals["grad_ell_sq"].append(last.grad_ell_sq)
            finals["ell_gap"].append(last.ell_gap)
            finals["upper_loss"].append(last.upper_loss)
            finals["cumulative_samples"].append(float(last.cumulative_samples))
            for e, count in zip(cfg.epsilon_targets, reached):
                eps_counts[e].append(count)
        row: Dict[str, str] = {"algorithm": algorithm,
                               "seeds": str(len(cfg.seeds) - len(errors)),
                               "error": "; ".join(errors)}
        for name in ("grad_ell_sq", "ell_gap", "upper_loss", "cumulative_samples"):
            mean, std = _mean_std(finals[name])
            row[f"final_{name}_mean"] = _fmt(mean)
            row[f"final_{name}_std"] = _fmt(std)
        for e in cfg.epsilon_targets:
            med = _median_samples(eps_counts[e]) if eps_counts[e] else NOT_REACHED
            row[f"samples_to_{e:g}"] = _fmt(med) if not isinstance(med, NotReached) else "NotReached"
        summary_rows.append(row)

    summary_path = out_dir / f"{cfg.name}_summary.csv"
    if summary_rows:
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(summary_rows)
    return GridResult(paths, summary_path, summary_rows)
