"""Recursive momentum gradient trackers for both optimization levels.

Both trackers follow one recursion, h = eta s_cur + (1 - eta)(h_prev + s_cur
- s_prev), where s_prev re-evaluates the current sample at the previous
iterate; at eta = 1 it is the plain sample.  The momentum weight eta is the
caller's: it must lie in [0, 1], and the schedules are the only place that
clamps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .hypergrad import NeumannConfig, estimate_coupled
from .oracle import BilevelOracle, ExactOracle, IteratePair, Vector, rowdot
from .sampling import SampleToken


@dataclass
class MomentumState:
    """Tracker pair (h_f, h_g) plus the previous iterate they were built at.

    The zero sentinels never influence the first update because the momentum
    weights are forced to 1 at t = 0.
    """

    h_f: Vector
    h_g: Vector
    prev_iterate: IteratePair

    @classmethod
    def initial(cls, d_up: int, d_lo: int) -> "MomentumState":
        return cls(
            h_f=np.zeros(d_up),
            h_g=np.zeros(d_lo),
            prev_iterate=IteratePair(np.zeros(d_up), np.zeros(d_lo)),
        )

    def commit(self, cur: IteratePair, h_f: Vector, h_g: Vector) -> None:
        """Record the updates for iteration t; both trackers were evaluated
        at ``cur`` so it becomes the previous iterate of the next step."""
        self.h_f = h_f
        self.h_g = h_g
        self.prev_iterate = cur


def _check_eta(eta: float, which: str) -> None:
    if not 0.0 <= eta <= 1.0:  # NaN fails it too
        raise ValueError(f"{which} = {eta!r} is not in [0, 1]")


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
    _check_eta(eta_g, "eta_g")
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
) -> Tuple[Vector, int]:
    """Upper-level tracker update; returns the new h_f and the
    Hessian-vector products consumed.

    When eta_f < 1 the composite sample, including its drawn truncation
    index, is evaluated at the pair (x_t, x_{t-1}) and the value at x_{t-1}
    is the recursion's s_prev.
    """
    _check_eta(eta_f, "eta_f")
    points = (cur, state.prev_iterate) if eta_f < 1.0 else (cur,)
    s = estimate_coupled(oracle, points, cfg, sample)
    s_prev = s[1].value if eta_f < 1.0 else None
    return _recursion(eta_f, state.h_f, s[0].value, s_prev), sum(e.hvp_count for e in s)


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
    bias), which the exact oracle must give in closed form; an oracle without
    it raises ``NotImplementedError``.
    """
    e_f = h_f - exact.neumann_expectation(cur, K)
    e_g = h_g - exact.grad_y_g_mean(cur)
    return np.sqrt(rowdot(e_f, e_f)), np.sqrt(rowdot(e_g, e_g))
