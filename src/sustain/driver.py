"""Optimizer loops: the double-momentum single-timescale method and the
baseline recursions it is compared against, each stepping x_t - alpha_t h_f.

Every run is a deterministic function of its config: all randomness flows
through sample tokens derived from the config seed, and the returned-iterate
index is drawn from a dedicated substream so logging cannot perturb it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch
from .hypergrad import choose_K_nonconvex, choose_K_strongly_convex, lipschitz_L_K
from .momentum import tracker_errors, update_f, update_g
from .oracle import BilevelOracle, ExactOracle, IteratePair, Vector, rowdot
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


@dataclass
class RunConfig:
    T: int
    policy: Policy = Policy.PRACTICAL
    seed: int = 0
    metric_stride: int = 1
    initial_x: Optional[Sequence[float]] = None
    initial_y: Optional[Sequence[float]] = None
    # policy knobs
    K_override: Optional[int] = None
    base_alpha: float = 0.1        # practical policy
    c_eta: float = 1.0             # practical policy
    c_eta_g: Optional[float] = None
    alpha_override: Optional[float] = None  # strongly-convex policy only
    record_errors: bool = True

    def __post_init__(self):
        if not isinstance(self.policy, Policy):
            raise ValueError(f"policy must be a Policy, got {self.policy!r}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.metric_stride < 1:
            raise ValueError("metric_stride must be >= 1")
        if self.K_override is not None and self.K_override < 1:
            raise ValueError("K_override must be >= 1")
        # written so that NaN fails every comparison
        if self.alpha_override is not None and not self.alpha_override > 0:
            raise ValueError("alpha_override must be positive")
        if self.alpha_override is not None and self.policy is not Policy.STRONGLY_CONVEX:
            raise ValueError("alpha_override applies only to the strongly-convex policy")
        if not (self.c_eta >= 0 and (self.c_eta_g is None or self.c_eta_g >= 0)):
            raise ValueError("c_eta and c_eta_g must be nonnegative")
        if not 0 < self.base_alpha < np.inf:
            raise ValueError("base_alpha must be positive and finite")
        if not all(v is None or np.isfinite(v).all() for v in (self.initial_x, self.initial_y)):
            raise ValueError("initial_x and initial_y must be finite")


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
class TwoTimescale:
    ratio: float = 2.0  # beta_t = ratio * alpha_t^(2/3)

    def __post_init__(self):
        if not 1.0 < self.ratio < np.inf:  # NaN fails it too
            raise ValueError("two-timescale ratio must exceed 1 and be finite")


@dataclass(frozen=True)
class DoubleLoop:
    n_inner: int = 1

    def __post_init__(self):
        if self.n_inner < 1:
            raise ValueError("n_inner must be >= 1")


# --- schedule resolution ----------------------------------------------------

# the largest K the K rule may choose (an iteration makes up to K HVPs); the
# default hyper-cleaning problem asks 67,011,488, every other default <= 150
_K_RULE_MAX = 10_000


def resolve_schedule(
    oracle: BilevelOracle, cfg: RunConfig
) -> Tuple[Callable[[int], ScheduleParams], int]:
    """Build the per-iteration schedule callable and the truncation level K,
    the one K that both the schedule's L_K and the estimator use; a K from
    the rule past ``_K_RULE_MAX`` raises ``ValueError``."""
    c = oracle.constants
    choose_K = (choose_K_strongly_convex if cfg.policy is Policy.STRONGLY_CONVEX
                else choose_K_nonconvex)
    K = cfg.K_override if cfg.K_override is not None else choose_K(c, cfg.T)
    if cfg.K_override is None and K > _K_RULE_MAX:
        raise ValueError(f"the K rule chose K = {K} at T = {cfg.T}, above {_K_RULE_MAX}; "
                         "set schedule.K to run at a K of your choice")
    if cfg.policy is Policy.STRONGLY_CONVEX:
        params = strongly_convex_params(c, lipschitz_L_K(c, K), cfg.alpha_override)
        return lambda t: params, K
    if cfg.policy is Policy.PRACTICAL:
        if cfg.c_eta == 0:  # once per run, not per schedule(t)
            logger.info("c_eta = 0: pure correction-only momentum (degenerate)")
        return lambda t: practical_params(cfg.base_alpha, t, cfg.c_eta, cfg.c_eta_g), K
    consts = nonconvex_constants(c, lipschitz_L_K(c, K))
    return lambda t: nonconvex_params(consts, t), K


# --- run loop helpers --------------------------------------------------------


def _initial_pair(oracle: BilevelOracle, cfg: RunConfig) -> IteratePair:
    x = np.zeros(oracle.d_up) if cfg.initial_x is None else np.asarray(cfg.initial_x, float)
    y = np.zeros(oracle.d_lo) if cfg.initial_y is None else np.asarray(cfg.initial_y, float)
    pair = IteratePair(x, y)
    oracle.check_dims(pair)
    return pair


def _records(
    rows: List[tuple],
    exact: Optional[ExactOracle],
    oracle: BilevelOracle,
    K: int,
    record_errors: bool,
) -> List[TrajectoryRecord]:
    """The records of ``rows``, one per recorded iteration, each row holding
    (t, alpha, beta, eta_f, eta_g, x_t, y_t, h_f, h_g, samples, hvps).

    Each exact-oracle closed form and ``oracle.upper_loss`` is called once on
    the stacked rows; row i equals the one-point value bit for bit.
    """
    if not rows:
        return []
    t, alpha, beta, eta_f, eta_g, x, y, h_f, h_g, samples, hvps = zip(*rows)
    grad_sq = gap = track = e_f = e_g = upper = (None,) * len(rows)
    cur = IteratePair(np.array(x), np.array(y))
    if exact is not None:
        g = exact.grad_ell(cur.x)
        grad_sq = rowdot(g, g).tolist()
        if exact.ell_star is not None:
            gap = (exact.ell(cur.x) - exact.ell_star).tolist()
        dy = cur.y - exact.y_star(cur.x)
        track = rowdot(dy, dy).tolist()
        if record_errors:
            try:
                e_f, e_g = (e.tolist() for e in
                            tracker_errors(np.array(h_f), np.array(h_g), exact, cur, K))
            except NotImplementedError:  # no closed-form estimator expectation
                pass
    if hasattr(oracle, "upper_loss"):
        upper = np.asarray(oracle.upper_loss(cur), dtype=float)
        if upper.shape != (len(rows),):
            raise DimensionMismatch(f"upper_loss of {len(rows)} points has shape {upper.shape}")
        upper = upper.tolist()
    return [TrajectoryRecord(*fields) for fields in
            zip(t, alpha, beta, eta_f, eta_g, grad_sq, gap, track, e_f, e_g,
                samples, hvps, upper)]


# Iteration tokens are taken from blocks of this many siblings, whose keys are
# derived together (``SampleToken.children``).
_BLOCK = 256


def _draw_return_index(root: SampleToken, n: int) -> int:
    """a uniform on 1..n, the same draw for every run of one seed and n."""
    return int(root.draw((STREAM_RETURN,), "integers", 1, n + 1))


def _run(
    oracle: BilevelOracle,
    exact: Optional[ExactOracle],
    cfg: RunConfig,
    kind: Union[TwoTimescale, DoubleLoop, None],
) -> Tuple[Vector, List[TrajectoryRecord]]:
    """The loop of ``run_sustain`` (kind None) and ``run_baseline``.

    Any NaN/Inf in a tracker, estimate or inner step reaches x_{t+1} or
    y_{t+1}, checked once per iteration before the record for t: a failed
    run's records end at t-1, and the returned iterate x_a is drawn with a
    uniform on 1..t, over the completed iterates only (x_0 when t = 0).
    The loop keeps the inputs of each record and turns them into records at
    every token-block boundary and once after the loop, so it holds at most
    ``_BLOCK`` of them.
    """
    schedule, K = resolve_schedule(oracle, cfg)
    pair = _initial_pair(oracle, cfg)
    # the trackers and the iterate they were built at; eta = 1 at t = 0, so
    # the trackers read none of these before the first iteration sets them
    prev, h_f, h_g = pair, None, None
    n_inner = kind.n_inner if isinstance(kind, DoubleLoop) else 1
    ratio = kind.ratio if isinstance(kind, TwoTimescale) else None
    root = SampleToken.root(cfg.seed)

    xs: List[Vector] = [pair.x]
    records: List[TrajectoryRecord] = []
    rows: List[tuple] = []  # record inputs of the current block
    tracker_errs = kind is None and cfg.record_errors
    samples = hvps = 0
    per_iter_samples = n_inner + (K + 3)

    for t in range(cfg.T):
        alpha, beta, eta_f, eta_g = schedule(t)
        if ratio is not None:
            beta = ratio * alpha ** (2.0 / 3.0)
        if kind is not None or t == 0:  # no momentum
            eta_f = eta_g = 1.0
        if t % _BLOCK == 0:
            records += _records(rows, exact, oracle, K, tracker_errs)
            rows = []
            block = root.children(t, min(t + _BLOCK, cfg.T))
        it = block[t % _BLOCK]
        h_g = update_g(oracle, pair, prev, h_g, eta_g, it.child(STREAM_LOWER))
        h_f, n_hvp = update_f(oracle, pair, prev, h_f, eta_f, K, it.child(STREAM_UPPER))

        y_next = pair.y - beta * h_g
        for j in range(1, n_inner):
            g = oracle.grad_y_g_sample(IteratePair(pair.x, y_next), it.child(STREAM_LOWER, j))
            y_next = y_next - beta * g
        x_next = pair.x - alpha * h_f
        # a count of isfinite is exact and cheaper than .all(); no sum or dot
        # product, which could overflow on a finite iterate
        if (np.count_nonzero(np.isfinite(x_next)) < x_next.size
                or np.count_nonzero(np.isfinite(y_next)) < y_next.size):
            logger.warning("non-finite iterate at t=%d; aborting run", t)
            break
        prev = pair
        samples += per_iter_samples
        hvps += n_hvp

        if t % cfg.metric_stride == 0 or t == cfg.T - 1:
            rows.append((t, alpha, beta, eta_f, eta_g, pair.x, pair.y,
                         h_f, h_g, samples, hvps))
        pair = IteratePair(x_next, y_next)
        xs.append(pair.x)
    records += _records(rows, exact, oracle, K, tracker_errs)

    n = len(xs) - 1  # completed iterations: T, or t for a run stopped at t
    a = _draw_return_index(root, n) if n else 0
    return xs[a], records


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
    return _run(oracle, exact, cfg, None)


def run_baseline(
    oracle: BilevelOracle,
    exact: Optional[ExactOracle],
    cfg: RunConfig,
    kind: Union[TwoTimescale, DoubleLoop],
) -> Tuple[Vector, List[TrajectoryRecord]]:
    """Momentum-free baselines: the run_sustain loop with both momentum
    weights pinned to 1 and no tracker errors recorded.

    TwoTimescale sets beta; DoubleLoop adds lower steps j >= 1 on tokens
    (t, STREAM_LOWER, j), refining the inner iterate seen by every later
    outer step.  DoubleLoop(), one lower step per upper step, is alternating
    SGD, and so is run_sustain at eta = 1 by construction.
    """
    return _run(oracle, exact, cfg, kind)
