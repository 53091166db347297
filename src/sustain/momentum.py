"""Recursive momentum gradient trackers for both optimization levels.

The two-evaluation updates re-evaluate the current sample at the previous
iterate to form the correction term; the Option I/II variants trade that
second evaluation for a stored value.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ExactOracleUnavailable, MissingHistory, NonfiniteValue
from .hypergrad import NeumannConfig, estimate, estimate_coupled
from .oracle import BilevelOracle, ExactOracle, IteratePair, Vector
from .sampling import SampleToken

logger = logging.getLogger(__name__)


class Variant(enum.Enum):
    TWO_EVAL = "two_eval"
    OPTION_I = "option_i"
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
    t: int = 0
    variant: Variant = Variant.TWO_EVAL
    last_f_sample_value: Optional[Vector] = None

    @classmethod
    def initial(cls, d_up: int, d_lo: int, variant: Variant = Variant.TWO_EVAL) -> "MomentumState":
        return cls(
            h_f=np.zeros(d_up),
            h_g=np.zeros(d_lo),
            prev_iterate=IteratePair(np.zeros(d_up), np.zeros(d_lo)),
            t=0,
            variant=variant,
        )

    def commit(self, cur: IteratePair, h_f: Vector, h_g: Vector,
               f_sample_value: Optional[Vector] = None) -> None:
        """Record the updates for iteration t; both trackers were evaluated
        at ``cur`` so it becomes the previous iterate of the next step."""
        self.h_f = h_f
        self.h_g = h_g
        self.prev_iterate = cur
        if f_sample_value is not None:
            self.last_f_sample_value = f_sample_value
        self.t += 1


def _clamp_eta(eta: float, which: str) -> float:
    if eta > 1.0:
        logger.warning("%s = %.4g clamped to 1 (convex combination required)", which, eta)
        return 1.0
    if eta < 0.0:
        raise ValueError(f"{which} must be nonnegative")
    return eta


def _check_finite(v: Vector, what: str) -> Vector:
    if not np.all(np.isfinite(v)):
        raise NonfiniteValue(f"{what} contains NaN/Inf")
    return v


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
    h = eta_g * g_cur
    if eta_g < 1.0:
        g_prev = oracle.grad_y_g_sample(state.prev_iterate, sample)
        h = h + (1.0 - eta_g) * (state.h_g + g_cur - g_prev)
    return _check_finite(h, "h_g")


def update_f(
    state: MomentumState,
    oracle: BilevelOracle,
    cur: IteratePair,
    eta_f: float,
    cfg: NeumannConfig,
    sample: SampleToken,
) -> Tuple[Vector, int]:
    """Upper-level tracker update (two-evaluation form).

    Returns the new h_f and the Hessian-vector products consumed.  The two
    hypergradient evaluations share the full composite sample, including the
    drawn truncation index, which is drawn once for both iterates.
    """
    eta_f = _clamp_eta(eta_f, "eta_f")
    points = (cur,) if eta_f >= 1.0 else (cur, state.prev_iterate)
    s = estimate_coupled(oracle, points, cfg, sample)
    h = eta_f * s[0].value
    if eta_f < 1.0:
        h = h + (1.0 - eta_f) * (state.h_f + s[0].value - s[1].value)
    return _check_finite(h, "h_f"), sum(e.hvp_count for e in s)


def update_f_single_eval(
    state: MomentumState,
    oracle: BilevelOracle,
    cur: IteratePair,
    eta_f: float,
    cfg: NeumannConfig,
    sample: SampleToken,
    variant: Variant,
) -> Tuple[Vector, int, Vector]:
    """Single fresh hypergradient evaluation per call.

    Option I re-evaluates the current sample at the previous iterate only
    implicitly through the stored tracker; Option II replaces the previous
    evaluation by the stored previous sample value.  Returns (h_f, hvps,
    fresh sample value).
    """
    if variant not in (Variant.OPTION_I, Variant.OPTION_II):
        raise ValueError("variant must be OPTION_I or OPTION_II")
    if variant is not state.variant:
        raise ValueError("variant does not match the state's variant")
    eta_f = _clamp_eta(eta_f, "eta_f")
    first = eta_f >= 1.0 or state.t == 0
    paired = variant is Variant.OPTION_I and not first
    s = estimate_coupled(
        oracle, (cur, state.prev_iterate) if paired else (cur,), cfg, sample
    )
    s_cur = s[0]
    hvps = sum(e.hvp_count for e in s)
    if first:
        if variant is Variant.OPTION_II and state.t == 0 and state.last_f_sample_value is None and eta_f < 1.0:
            raise MissingHistory("Option II needs a stored sample value at t >= 1")
        return _check_finite(s_cur.value, "h_f"), hvps, s_cur.value
    if paired:
        prev_value = s[1].value
    else:
        if state.last_f_sample_value is None:
            raise MissingHistory("Option II needs a stored sample value at t >= 1")
        prev_value = state.last_f_sample_value
    h = s_cur.value + (1.0 - eta_f) * (state.h_f - prev_value)
    return _check_finite(h, "h_f"), hvps, s_cur.value


def estimator_errors(
    state: MomentumState,
    exact: ExactOracle,
    cur: IteratePair,
    cfg: NeumannConfig,
    num_bias_samples: int = 0,
    oracle: Optional[BilevelOracle] = None,
    mc_seed: int = 0,
) -> Tuple[float, float]:
    """Tracker errors (||e_f||, ||e_g||) against the exact gradients.

    e_f is measured against the estimator's expectation (surrogate plus
    bias); on deterministic-Hessian testbeds the expectation is exact,
    otherwise it is Monte-Carlo approximated when an oracle is supplied.
    """
    if exact is None:
        raise ExactOracleUnavailable("estimator errors need an exact oracle")
    try:
        mean_est = exact.neumann_expectation(cur, cfg.K)
    except NotImplementedError:
        if num_bias_samples <= 0 or oracle is None:
            raise ExactOracleUnavailable(
                "no closed-form estimator expectation; pass num_bias_samples "
                "and the sampled oracle for a Monte-Carlo approximation"
            )
        logger.debug("approximating estimator expectation with %d samples", num_bias_samples)
        root = SampleToken.root(mc_seed)
        acc = np.zeros(cur.d_up)
        for i in range(num_bias_samples):
            acc += estimate(oracle, cur, cfg, root.child(i)).value
        mean_est = acc / num_bias_samples
    e_f = float(np.linalg.norm(state.h_f - mean_est))
    e_g = float(np.linalg.norm(state.h_g - exact.grad_y_g_mean(cur)))
    return e_f, e_g
