"""Recursive momentum gradient trackers for both optimization levels.

Both trackers follow one recursion, h = eta s_cur + (1 - eta)(h_prev + s_cur
- s_prev), where s_prev re-evaluates the current sample at the previous
iterate; at eta = 1 it is the plain sample.  The Option II upper tracker
trades that second evaluation for the stored previous sample value.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ExactOracleUnavailable, MissingHistory
from .hypergrad import NeumannConfig, estimate_coupled
from .oracle import BilevelOracle, ExactOracle, IteratePair, Vector, rowdot
from .sampling import SampleToken

logger = logging.getLogger(__name__)


class Variant(enum.Enum):
    TWO_EVAL = "two_eval"
    OPTION_II = "option_ii"


@dataclass
class MomentumState:
    """Tracker pair (h_f, h_g) plus the previous iterate they were built at.

    The zero sentinels never influence the first update because the momentum
    weights are forced to 1 at t = 0.
    """

    h_f: Vector
    h_g: Vector
    prev_iterate: IteratePair
    variant: Variant = Variant.TWO_EVAL
    last_f_sample_value: Optional[Vector] = None

    @classmethod
    def initial(cls, d_up: int, d_lo: int, variant: Variant = Variant.TWO_EVAL) -> "MomentumState":
        return cls(
            h_f=np.zeros(d_up),
            h_g=np.zeros(d_lo),
            prev_iterate=IteratePair(np.zeros(d_up), np.zeros(d_lo)),
            variant=variant,
        )

    def commit(self, cur: IteratePair, h_f: Vector, h_g: Vector,
               f_sample_value: Optional[Vector] = None) -> None:
        """Record the updates for iteration t; both trackers were evaluated
        at ``cur`` so it becomes the previous iterate of the next step, and
        ``f_sample_value`` the stored value of Option II's next update."""
        self.h_f = h_f
        self.h_g = h_g
        self.prev_iterate = cur
        self.last_f_sample_value = f_sample_value


def _clamp_eta(eta: float, which: str) -> float:
    if eta > 1.0:
        logger.warning("%s = %.4g clamped to 1 (convex combination required)", which, eta)
        return 1.0
    if eta < 0.0:
        raise ValueError(f"{which} must be nonnegative")
    return eta


def _recursion(eta: float, h_prev: Vector, s_cur: Vector,
               s_prev: Optional[Vector]) -> Vector:
    """h = eta s_cur + (1 - eta)(h_prev + s_cur - s_prev); ``s_prev`` is
    only read (and only evaluated by the caller) when eta < 1."""
    h = eta * s_cur
    if eta < 1.0:
        h = h + (1.0 - eta) * (h_prev + s_cur - s_prev)
    return h


def update_g(
    state: MomentumState,
    oracle: BilevelOracle,
    cur: IteratePair,
    eta_g: float,
    sample: SampleToken,
) -> Vector:
    """Lower-level tracker update; both gradient evaluations take the same
    token object, so the correction telescopes exactly on deterministic
    oracles and the sample's draws are made once."""
    eta_g = _clamp_eta(eta_g, "eta_g")
    g_cur = oracle.grad_y_g_sample(cur, sample)
    g_prev = oracle.grad_y_g_sample(state.prev_iterate, sample) if eta_g < 1.0 else None
    return _recursion(eta_g, state.h_g, g_cur, g_prev)


def update_f(
    state: MomentumState,
    oracle: BilevelOracle,
    cur: IteratePair,
    eta_f: float,
    cfg: NeumannConfig,
    sample: SampleToken,
) -> Tuple[Vector, int, Vector]:
    """Upper-level tracker update in the state's variant.

    Returns the new h_f, the Hessian-vector products consumed and the fresh
    hypergradient sample at ``cur`` (stored by ``commit`` for Option II).
    TWO_EVAL re-evaluates the composite sample, including its drawn
    truncation index, at the previous iterate; Option II replaces that
    evaluation by the stored previous sample value.
    """
    eta_f = _clamp_eta(eta_f, "eta_f")
    paired = eta_f < 1.0 and state.variant is Variant.TWO_EVAL
    points = (cur, state.prev_iterate) if paired else (cur,)
    s = estimate_coupled(oracle, points, cfg, sample)
    s_cur = s[0].value
    hvps = sum(e.hvp_count for e in s)
    if state.variant is Variant.OPTION_II and eta_f < 1.0:
        if state.last_f_sample_value is None:
            raise MissingHistory("Option II needs a stored sample value at t >= 1")
        h = s_cur + (1.0 - eta_f) * (state.h_f - state.last_f_sample_value)
    else:
        h = _recursion(eta_f, state.h_f, s_cur, s[1].value if paired else None)
    return h, hvps, s_cur


def estimator_errors(
    state: MomentumState,
    exact: ExactOracle,
    cur: IteratePair,
    cfg: NeumannConfig,
) -> Tuple[float, float]:
    """Tracker errors (||e_f||, ||e_g||) of the state's trackers at ``cur``."""
    if exact is None:
        raise ExactOracleUnavailable("estimator errors need an exact oracle")
    e_f, e_g = tracker_errors(state.h_f, state.h_g, exact, cur, cfg.K)
    return float(e_f), float(e_g)


def tracker_errors(
    h_f: Vector,
    h_g: Vector,
    exact: ExactOracle,
    cur: IteratePair,
    K: int,
) -> Tuple[Vector, Vector]:
    """Tracker errors ||e_f|| and ||e_g|| against the exact gradients, row by
    row when the trackers and ``cur`` are stacks of n rows.

    e_f is measured against the estimator's expectation (surrogate plus
    bias), which the exact oracle must give in closed form.
    """
    try:
        e_f = h_f - exact.neumann_expectation(cur, K)
    except NotImplementedError:
        raise ExactOracleUnavailable("no closed-form estimator expectation") from None
    e_g = h_g - exact.grad_y_g_mean(cur)
    return np.sqrt(rowdot(e_f, e_f)), np.sqrt(rowdot(e_g, e_g))
