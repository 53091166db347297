"""Recursive momentum gradient trackers for both optimization levels.

Both trackers follow one recursion, h = eta s_cur + (1 - eta)(h_prev + s_cur
- s_prev), where s_prev re-evaluates the current sample at the previous
iterate; at eta = 1 it is the plain sample, and neither h_prev nor the
previous iterate is read.  The trackers are pure functions: the caller holds
h_f, h_g and the previous iterate.  The momentum weight eta is the caller's:
it must lie in [0, 1], and the schedules are the only place that clamps it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .hypergrad import estimate_coupled
from .oracle import BilevelOracle, ExactOracle, IteratePair, Vector, rowdot
from .sampling import SampleToken


def _check_eta(eta: float, which: str) -> None:
    if not 0.0 <= eta <= 1.0:  # NaN fails it too
        raise ValueError(f"{which} = {eta!r} is not in [0, 1]")


def _recursion(eta: float, h_prev: Vector, s_cur: Vector,
               s_prev: Optional[Vector]) -> Vector:
    """h = eta s_cur + (1 - eta)(h_prev + s_cur - s_prev); ``s_prev`` is
    only read (and only evaluated by the caller) when eta < 1.  At eta = 1
    the value is ``s_cur`` itself, since 1.0 * s is s bit for bit."""
    if eta == 1.0:
        return s_cur
    return eta * s_cur + (1.0 - eta) * (h_prev + s_cur - s_prev)


def update_g(
    oracle: BilevelOracle,
    cur: IteratePair,
    prev: IteratePair,
    h_g: Optional[Vector],
    eta_g: float,
    sample: SampleToken,
) -> Vector:
    """Lower-level tracker update from h_g, built at ``prev``, to ``cur``;
    both gradient evaluations take the same token object, so the correction
    telescopes exactly on deterministic oracles and the sample's draws are
    made once."""
    _check_eta(eta_g, "eta_g")
    g_cur = oracle.grad_y_g_sample(cur, sample)
    g_prev = oracle.grad_y_g_sample(prev, sample) if eta_g < 1.0 else None
    return _recursion(eta_g, h_g, g_cur, g_prev)


def update_f(
    oracle: BilevelOracle,
    cur: IteratePair,
    prev: IteratePair,
    h_f: Optional[Vector],
    eta_f: float,
    K: int,
    sample: SampleToken,
) -> Tuple[Vector, int]:
    """Upper-level tracker update from h_f, built at ``prev``, to ``cur``;
    returns the new h_f and the Hessian-vector products consumed.

    When eta_f < 1 the composite sample, including its drawn truncation
    index, is evaluated at the pair (x_t, x_{t-1}) and the value at x_{t-1}
    is the recursion's s_prev.
    """
    _check_eta(eta_f, "eta_f")
    points = (cur, prev) if eta_f < 1.0 else (cur,)
    s, k = estimate_coupled(oracle, points, K, sample)
    # s[-1] is s_prev when eta_f < 1, and unread otherwise
    return _recursion(eta_f, h_f, s[0], s[-1]), len(points) * (k + 1)


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
