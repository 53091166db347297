"""Optimizer loops: the double-momentum single-timescale method, its
Adam-direction variant, and the baseline recursions it is compared against.

Every run is a deterministic function of its config: all randomness flows
through sample tokens derived from the config seed, and the returned-iterate
index is drawn from a dedicated substream so logging cannot perturb it.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, ExactOracleUnavailable, NonfiniteValue
from .hypergrad import (
    NeumannConfig,
    choose_K_nonconvex,
    estimate,
    lipschitz_L_K,
)
from .momentum import (
    MomentumState,
    Variant,
    estimator_errors,
    update_f,
    update_f_single_eval,
    update_g,
)
from .oracle import BilevelOracle, ExactOracle, IteratePair, Vector
from .sampling import STREAM_LOWER, STREAM_RETURN, STREAM_UPPER, SampleToken
from .schedules import (
    ScheduleParams,
    nonconvex_constants,
    nonconvex_params,
    practical_params,
    strongly_convex_params,
)

logger = logging.getLogger(__name__)


class Policy(enum.Enum):
    NONCONVEX = "nonconvex"
    STRONGLY_CONVEX = "strongly_convex"
    PRACTICAL = "practical"


class Direction(enum.Enum):
    PLAIN = "plain"
    ADAM = "adam"


@dataclass
class RunConfig:
    T: int
    policy: Policy = Policy.PRACTICAL
    variant: Variant = Variant.TWO_EVAL
    direction: Direction = Direction.PLAIN
    seed: int = 0
    metric_stride: int = 1
    initial_x: Optional[Sequence[float]] = None
    initial_y: Optional[Sequence[float]] = None
    # policy knobs
    K_override: Optional[int] = None
    base_alpha: float = 0.1        # practical policy
    c_eta: float = 1.0             # practical policy
    c_eta_g: Optional[float] = None
    alpha_override: Optional[float] = None  # strongly-convex sweeps
    record_errors: bool = True

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.metric_stride < 1:
            raise ValueError("metric_stride must be >= 1")


@dataclass
class AdamState:
    m: Vector
    v: Vector
    gamma1: float = 0.9
    gamma2: float = 0.999
    eps: float = 1e-8
    t: int = 1

    @classmethod
    def initial(cls, d_up: int) -> "AdamState":
        return cls(m=np.zeros(d_up), v=np.zeros(d_up))


def adam_direction(state: AdamState, h_f: Vector) -> Vector:
    """Bias-corrected adaptive direction; mutates the state and advances t."""
    h_f = np.asarray(h_f, dtype=float)
    state.m = state.gamma1 * state.m + (1.0 - state.gamma1) * h_f
    state.v = state.gamma2 * state.v + (1.0 - state.gamma2) * h_f**2
    m_hat = state.m / (1.0 - state.gamma1**state.t)
    v_hat = state.v / (1.0 - state.gamma2**state.t)
    state.t += 1
    return m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class TrajectoryRecord:
    t: int
    alpha: float
    beta: float
    eta_f: float
    eta_g: float
    grad_ell_sq: Optional[float]
    ell_gap: Optional[float]
    tracking_sq: Optional[float]
    e_f_norm: Optional[float]
    e_g_norm: Optional[float]
    cumulative_samples: int
    cumulative_hvps: int
    upper_loss: Optional[float] = None


# --- baseline kinds --------------------------------------------------------


@dataclass(frozen=True)
class AlternatingSGD:
    pass


@dataclass(frozen=True)
class TwoTimescale:
    ratio: float = 2.0  # beta_t = ratio * alpha_t^(2/3)

    def __post_init__(self):
        if self.ratio <= 1.0:
            raise ValueError("two-timescale ratio must exceed 1")


@dataclass(frozen=True)
class DoubleLoop:
    n_inner: int = 1

    def __post_init__(self):
        if self.n_inner < 1:
            raise ValueError("n_inner must be >= 1")


BaselineKind = Union[AlternatingSGD, TwoTimescale, DoubleLoop]


# --- schedule resolution ----------------------------------------------------


def resolve_schedule(
    oracle: BilevelOracle, cfg: RunConfig
) -> Tuple[Callable[[int], ScheduleParams], int]:
    """Build the per-iteration schedule callable and the truncation level K."""
    c = oracle.constants
    if cfg.policy is Policy.PRACTICAL:
        K = cfg.K_override if cfg.K_override is not None else choose_K_nonconvex(c, cfg.T)
        return (
            lambda t: practical_params(cfg.base_alpha, t, cfg.c_eta, K, cfg.c_eta_g),
            K,
        )
    if cfg.policy is Policy.NONCONVEX:
        K = cfg.K_override if cfg.K_override is not None else choose_K_nonconvex(c, cfg.T)
        consts = nonconvex_constants(c, lipschitz_L_K(c, K))
        return lambda t: nonconvex_params(consts, t, K), K
    if cfg.policy is Policy.STRONGLY_CONVEX:
        params = strongly_convex_params(
            c,
            lipschitz_L_K(c, cfg.K_override if cfg.K_override is not None else 1),
            cfg.T,
            alpha_override=cfg.alpha_override,
            K_override=cfg.K_override,
        )
        # recompute with the K the policy actually selected
        params = strongly_convex_params(
            c,
            lipschitz_L_K(c, params.K),
            cfg.T,
            alpha_override=cfg.alpha_override,
            K_override=params.K,
        )
        return lambda t: params, params.K
    raise ValueError(f"unknown policy {cfg.policy}")


# --- run loop helpers --------------------------------------------------------


def _initial_pair(oracle: BilevelOracle, cfg: RunConfig) -> IteratePair:
    x = np.zeros(oracle.d_up) if cfg.initial_x is None else np.asarray(cfg.initial_x, float)
    y = np.zeros(oracle.d_lo) if cfg.initial_y is None else np.asarray(cfg.initial_y, float)
    pair = IteratePair(x, y)
    if pair.d_up != oracle.d_up or pair.d_lo != oracle.d_lo:
        raise DimensionMismatch(
            f"initial iterate dims ({pair.d_up},{pair.d_lo}) do not match "
            f"oracle dims ({oracle.d_up},{oracle.d_lo})"
        )
    return pair


def _make_record(
    t: int,
    params: ScheduleParams,
    eta_f: float,
    eta_g: float,
    cur: IteratePair,
    exact: Optional[ExactOracle],
    oracle: BilevelOracle,
    state: Optional[MomentumState],
    ncfg: NeumannConfig,
    samples: int,
    hvps: int,
    record_errors: bool,
) -> TrajectoryRecord:
    grad_sq = gap = track = e_f = e_g = upper = None
    if exact is not None:
        g = exact.grad_ell(cur.x)
        grad_sq = float(g @ g)
        if exact.ell_star is not None:
            gap = exact.ell(cur.x) - exact.ell_star
        dy = cur.y - exact.y_star(cur.x)
        track = float(dy @ dy)
        if state is not None and record_errors:
            try:
                e_f, e_g = estimator_errors(state, exact, cur, ncfg)
            except (ExactOracleUnavailable, NotImplementedError):
                pass
    if hasattr(oracle, "upper_loss"):
        upper = float(oracle.upper_loss(cur))
    return TrajectoryRecord(
        t=t,
        alpha=params.alpha,
        beta=params.beta,
        eta_f=eta_f,
        eta_g=eta_g,
        grad_ell_sq=grad_sq,
        ell_gap=gap,
        tracking_sq=track,
        e_f_norm=e_f,
        e_g_norm=e_g,
        cumulative_samples=samples,
        cumulative_hvps=hvps,
        upper_loss=upper,
    )


def _draw_return_index(root: SampleToken, T: int) -> int:
    if T == 1:
        return 1
    return int(root.draw((STREAM_RETURN,), "integers", 1, T + 1))


def run_sustain(
    oracle: BilevelOracle,
    exact: Optional[ExactOracle],
    cfg: RunConfig,
) -> Tuple[Vector, List[TrajectoryRecord]]:
    """Double-momentum single-timescale loop.

    Both trackers are evaluated at (x_t, y_t); the first iteration forces
    eta = 1 so the zero-initialized trackers never leak into the updates.
    Returns the uniformly drawn iterate x_{a(T)} and the metric records.
    """
    schedule, K = resolve_schedule(oracle, cfg)
    ncfg = NeumannConfig.from_constants(oracle.constants, K)
    pair = _initial_pair(oracle, cfg)
    state = MomentumState.initial(oracle.d_up, oracle.d_lo, cfg.variant)
    adam = AdamState.initial(oracle.d_up) if cfg.direction is Direction.ADAM else None
    root = SampleToken.root(cfg.seed)

    xs: List[Vector] = [pair.x]
    records: List[TrajectoryRecord] = []
    samples = hvps = 0
    per_iter_samples = 1 + (K + 3)

    for t in range(cfg.T):
        params = schedule(t)
        eta_f = 1.0 if t == 0 else params.eta_f
        eta_g = 1.0 if t == 0 else params.eta_g
        it = root.child(t)
        try:
            h_g = update_g(state, oracle, pair, eta_g, it.child(STREAM_LOWER))
            if cfg.variant is Variant.TWO_EVAL:
                h_f, n_hvp = update_f(state, oracle, pair, eta_f, ncfg, it.child(STREAM_UPPER))
                fresh = None
            else:
                h_f, n_hvp, fresh = update_f_single_eval(
                    state, oracle, pair, eta_f, ncfg, it.child(STREAM_UPPER), cfg.variant
                )
        except NonfiniteValue:
            logger.warning("non-finite estimate at t=%d; aborting run", t)
            break
        state.commit(pair, h_f, h_g, fresh)
        samples += per_iter_samples
        hvps += n_hvp

        if t % cfg.metric_stride == 0 or t == cfg.T - 1:
            records.append(
                _make_record(t, params, eta_f, eta_g, pair, exact, oracle, state,
                             ncfg, samples, hvps, cfg.record_errors)
            )

        y_next = pair.y - params.beta * h_g
        step = h_f if adam is None else adam_direction(adam, h_f)
        x_next = pair.x - params.alpha * step
        if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(y_next))):
            logger.warning("non-finite iterate at t=%d; aborting run", t)
            break
        pair = IteratePair(x_next, y_next)
        xs.append(pair.x)

    a = min(_draw_return_index(root, cfg.T), len(xs) - 1)
    return xs[a], records


def run_baseline(
    oracle: BilevelOracle,
    exact: Optional[ExactOracle],
    cfg: RunConfig,
    kind: BaselineKind,
) -> Tuple[Vector, List[TrajectoryRecord]]:
    """Momentum-free baselines sharing the sample streams and hypergradient
    machinery of run_sustain.

    All kinds evaluate the hypergradient estimate at (x_t, y_t), matching the
    main loop's evaluation point, so AlternatingSGD reproduces run_sustain
    with both momentum weights pinned to 1 and DoubleLoop(1) reproduces
    AlternatingSGD; the extra inner steps of DoubleLoop refine the inner
    iterate seen by every subsequent outer step.
    """
    schedule, K = resolve_schedule(oracle, cfg)
    ncfg = NeumannConfig.from_constants(oracle.constants, K)
    pair = _initial_pair(oracle, cfg)
    root = SampleToken.root(cfg.seed)
    n_inner = kind.n_inner if isinstance(kind, DoubleLoop) else 1

    xs: List[Vector] = [pair.x]
    records: List[TrajectoryRecord] = []
    samples = hvps = 0
    per_iter_samples = n_inner + (K + 3)

    for t in range(cfg.T):
        params = schedule(t)
        if isinstance(kind, TwoTimescale):
            params = dataclasses.replace(
                params, beta=kind.ratio * params.alpha ** (2.0 / 3.0)
            )
        beta = params.beta
        it = root.child(t)
        try:
            s = estimate(oracle, pair, ncfg, it.child(STREAM_UPPER))
            y_next = pair.y
            for j in range(n_inner):
                tok = it.child(STREAM_LOWER) if j == 0 else it.child(STREAM_LOWER, j)
                g = oracle.grad_y_g_sample(IteratePair(pair.x, y_next), tok)
                if not np.all(np.isfinite(g)):
                    raise NonfiniteValue("lower gradient")
                y_next = y_next - beta * g
        except NonfiniteValue:
            logger.warning("non-finite estimate at t=%d; aborting run", t)
            break
        samples += per_iter_samples
        hvps += s.hvp_count

        if t % cfg.metric_stride == 0 or t == cfg.T - 1:
            records.append(
                _make_record(t, params, 1.0, 1.0, pair, exact, oracle, None,
                             ncfg, samples, hvps, False)
            )

        x_next = pair.x - params.alpha * s.value
        if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(y_next))):
            logger.warning("non-finite iterate at t=%d; aborting run", t)
            break
        pair = IteratePair(x_next, y_next)
        xs.append(pair.x)

    a = min(_draw_return_index(root, cfg.T), len(xs) - 1)
    return xs[a], records
