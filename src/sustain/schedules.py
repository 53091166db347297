"""Per-iteration step-size and momentum parameter policies.

Three policies are provided: the theory-prescribed non-convex schedule
(cube-root decay with momentum ~ alpha^2), the strongly-convex constant
schedule, and a practical tuned schedule for experiments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidConstants
from .oracle import ProblemConstants, derive_constants

logger = logging.getLogger(__name__)


class ScheduleParams(NamedTuple):
    alpha: float
    beta: float
    eta_f: float
    eta_g: float


@dataclass(frozen=True)
class NonconvexScheduleConstants:
    """Step-size constants for the cube-root decay schedule."""

    w: float
    c_beta: float
    c_eta_f: float
    c_eta_g: float


def nonconvex_constants(c: ProblemConstants, L_K: float) -> NonconvexScheduleConstants:
    """Compute (w, c_beta, c_eta_f, c_eta_g) from the problem constants."""
    d = derive_constants(c)
    if d.L == 0 or d.L_f == 0:
        raise InvalidConstants(
            "degenerate constants (L or L_f is zero); use the practical policy"
        )
    c_beta = 6.0 * math.sqrt(2.0) * d.L_y * d.L / d.L_mu_g
    c_bar_eta_f = max(
        36.0 * L_K**2,
        4.0 * L_K**2 * d.L_mu_g * (c.mu_g + c.L_g) * c_beta**2 / d.L**2,
    )
    c_eta_f = 1.0 / (3.0 * d.L_f) + c_bar_eta_f
    c_bar_eta_g = max(
        36.0 * c.L_g**2,
        4.0 * c.L_g**2 * d.L_mu_g * (c.mu_g + c.L_g) * c_beta**2 / d.L**2,
    )
    c_eta_g = (
        1.0 / (3.0 * d.L_f)
        + 8.0 * c.L_g**2 * c_beta**2
        + (8.0 * d.L**2 / d.L_mu_g**2 + 2.0 * d.L**2 / (d.L_mu_g * (c.mu_g + c.L_g)))
        * c_bar_eta_g
    )
    w = max(
        2.0,
        27.0 * d.L_f**3,
        8.0 * d.L_mu_g**3 * c_beta**3,
        (c.mu_g + c.L_g) ** 3 * c_beta**3,
        c_eta_f**1.5,
        c_eta_g**1.5,
    )
    return NonconvexScheduleConstants(w=w, c_beta=c_beta, c_eta_f=c_eta_f, c_eta_g=c_eta_g)


def _clamped(eta: float, which: str) -> float:
    # c * alpha^2 can land a few ulp above 1 where it is 1 in exact
    # arithmetic (w = c^1.5 at t = 0); clamp that silently
    if eta > 1.0:
        if eta > 1.0 + 1e-12:
            logger.warning("%s = %.17g clamped to 1", which, eta)
        return 1.0
    return eta


def nonconvex_params(consts: NonconvexScheduleConstants, t: int) -> ScheduleParams:
    """alpha_t = (w + t)^(-1/3), beta = c_beta alpha, eta = c alpha^2."""
    alpha = (consts.w + t) ** (-1.0 / 3.0)
    return ScheduleParams(
        alpha=alpha,
        beta=consts.c_beta * alpha,
        eta_f=_clamped(consts.c_eta_f * alpha**2, "eta_f"),
        eta_g=_clamped(consts.c_eta_g * alpha**2, "eta_g"),
    )


def strongly_convex_params(
    c: ProblemConstants,
    L_K: float,
    alpha_override: float | None = None,
) -> ScheduleParams:
    """Constant schedule for strongly-convex outer objectives.

    alpha is the minimum of the five admissibility ceilings; eta_g is
    identically 1 so the lower-level momentum vanishes.  ``alpha_override``
    replaces the computed alpha (used for step-size sweeps at constant
    alpha), the derived quantities keep their ratios to alpha.
    """
    if c.mu_f is None:
        raise InvalidConstants("mu_f is required for the strongly-convex policy")
    d = derive_constants(c)
    c_beta_hat = (8.0 * d.L_y**2 + 8.0 * d.L**2 + 2.0 * c.mu_f) / c.mu_g
    if c_beta_hat == 0 or (8.0 * L_K**2 + d.L_f) == 0:
        raise InvalidConstants("degenerate constants")
    alpha = min(
        1.0 / (c.mu_f + 1.0),
        1.0 / (2.0 * c.mu_g * c_beta_hat),
        c.mu_g / (c_beta_hat * c.L_g**2),
        1.0 / (8.0 * L_K**2 + d.L_f),
        (d.L**2 + 2.0 * d.L_y**2) / (4.0 * L_K**2 * c.L_g**2 * c_beta_hat**2)
        if L_K > 0
        else math.inf,
    )
    if alpha_override is not None:
        alpha = alpha_override
    return ScheduleParams(
        alpha=alpha,
        beta=c_beta_hat * alpha,
        eta_f=_clamped((c.mu_f + 1.0) * alpha, "eta_f"),
        eta_g=1.0,
    )


def practical_params(
    base_alpha: float,
    t: int,
    c_eta: float,
    c_eta_g: float | None = None,
) -> ScheduleParams:
    """Tuned schedule: alpha_t = beta_t = base_alpha / (1+t)^(1/3)."""
    if not 0 < base_alpha < math.inf:
        raise ValueError("base_alpha must be positive and finite")
    alpha = base_alpha / (1.0 + t) ** (1.0 / 3.0)
    eta_f = c_eta * alpha**2
    eta_g = (c_eta if c_eta_g is None else c_eta_g) * alpha**2
    # min(1.0, eta): NaN, which fails every comparison, becomes 1 as with min
    return ScheduleParams(alpha, alpha, eta_f if eta_f < 1.0 else 1.0,
                          eta_g if eta_g < 1.0 else 1.0)
