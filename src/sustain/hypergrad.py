"""Biased stochastic hypergradient estimator via a randomized truncated
Neumann series, its bias bound, and the truncation-budget selection rules."""

from __future__ import annotations

import logging
import math
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateArgument,
    InvalidConstants,
    NonfiniteValue,
    SingularDenominator,
)
from .oracle import BilevelOracle, IteratePair, ProblemConstants, Vector, matvec
from .sampling import STREAM_K_DRAW, STREAM_XI, STREAM_ZETA, SampleToken

logger = logging.getLogger(__name__)


def _check_K(K: int) -> None:
    if K < 1:
        raise InvalidConstants("K must be >= 1")


def draw_k(K: int, token: SampleToken) -> int:
    """The uniform truncation index on 0..K-1; part of the composite sample,
    so a coupled re-evaluation at another iterate sees the same k."""
    return int(token.draw((STREAM_K_DRAW,), "integers", K))


def estimate(
    oracle: BilevelOracle,
    at: IteratePair,
    K: int,
    sample: SampleToken,
) -> Tuple[Vector, int]:
    """One draw of the truncated-series hypergradient estimator and its k.

    Computes grad_x f - (K/L_g) * H_xy * prod_{i=1..k}(I - H_yy^(i)/L_g) *
    grad_y f, applied right-to-left as k+1 Hessian-vector products, with
    L_g = ``oracle.constants.L_g``.  The empty product (k = 0) is the
    identity.  Raises ``NonfiniteValue`` if the draw contains NaN/Inf.
    """
    (value,), k = estimate_coupled(oracle, (at,), K, sample)
    if not np.all(np.isfinite(value)):
        raise NonfiniteValue("hypergradient sample contains NaN/Inf")
    return value, k


def estimate_coupled(
    oracle: BilevelOracle,
    points: Sequence[IteratePair],
    K: int,
    sample: SampleToken,
) -> Tuple[List[Vector], int]:
    """The estimator of ``estimate`` at several iterates, one composite sample:
    one value per point, in point order, and the drawn k.

    k, the xi token and the zeta tokens are drawn once and shared by every
    point, so each point's value equals ``estimate(oracle, point, K,
    sample)`` bit for bit while the oracle's token draws are made once (the
    tokens memoize them).  Each point costs k + 1 Hessian-vector products.
    Points are evaluated in order and one at a time.  Values are not checked
    for NaN/Inf: the run loop checks the iterates they feed into.
    """
    _check_K(K)
    for at in points:
        oracle.check_dims(at)
    k = draw_k(K, sample)
    xi = sample.child(STREAM_XI)
    zeta = [sample.child(STREAM_ZETA, i) for i in range(k + 1)]
    inv_lg = 1.0 / oracle.constants.L_g
    scale = K * inv_lg
    hess_yy, hess_xy = oracle.hess_yy_g_sample, oracle.hess_xy_g_sample
    values = []
    for at in points:
        p = oracle.grad_y_f_sample(at, xi)
        for i in range(1, k + 1):
            p = p - inv_lg * hess_yy(at, zeta[i])(p)
        cross = hess_xy(at, zeta[0])
        values.append(oracle.grad_x_f_sample(at, xi) - scale * cross(p))
    return values, k


def exact_neumann_expectation(
    hess_yy: np.ndarray,
    hess_xy: np.ndarray,
    grad_x_f: Vector,
    grad_y_f: Vector,
    K: int,
    L_g: float,
) -> Vector:
    """Closed-form expectation of the estimator for deterministic Hessians.

    Averaging the randomized product over k gives (1/L_g) * sum_{k=0}^{K-1}
    (I - A/L_g)^k applied to grad_y f, then the cross Hessian and grad_x f.
    The gradients may be stacks of rows, (n, d_up) and (n, d_lo); each row of
    the result equals the one-point value bit for bit.
    """
    M = np.eye(hess_yy.shape[0]) - hess_yy / L_g
    p = np.asarray(grad_y_f, dtype=float)
    acc = np.zeros_like(p)
    for _ in range(K):
        acc += p
        p = matvec(M, p)
    return np.asarray(grad_x_f, dtype=float) - matvec(hess_xy, acc / L_g)


def bias_bound(c: ProblemConstants, K: int) -> float:
    """Worst-case estimator bias: (C_gxy C_fy / mu_g) (1 - mu_g/L_g)^K."""
    _check_K(K)
    contraction = 1.0 - c.mu_g / c.L_g
    return (c.C_gxy * c.C_fy / c.mu_g) * contraction**K


def _choose_k(c: ProblemConstants, log_arg: float, multiplier: float) -> int:
    if log_arg <= 1.0:
        logger.warning(
            "K-selection argument %.3g <= 1: bias already within the target "
            "at K = 1", log_arg,
        )
        return 1
    return max(1, math.ceil(multiplier * math.log(log_arg)))


def choose_K_nonconvex(c: ProblemConstants, T: int) -> int:
    """Truncation budget making the bias at most 1/T (non-convex schedule)."""
    if T < 1:
        raise DegenerateArgument("T must be >= 1")
    return _choose_k(c, c.C_gxy * c.C_fy * T / c.mu_g, c.L_g / c.mu_g)


def choose_K_strongly_convex(c: ProblemConstants, T: int) -> int:
    """Truncation budget making the squared bias at most 1/T."""
    if T < 1:
        raise DegenerateArgument("T must be >= 1")
    return _choose_k(
        c, (c.C_gxy**2) * (c.C_fy**2) * T / c.mu_g**2, c.L_g / (2.0 * c.mu_g)
    )


def lipschitz_L_K(c: ProblemConstants, K: int) -> float:
    """Mean-square Lipschitz constant of the sampled estimator w.r.t. the
    iterate, growing as sqrt(K^3) through the product term."""
    _check_K(K)
    denom = 2.0 * c.mu_g * c.L_g - c.mu_g**2
    cubic_num = 6.0 * c.C_gxy**2 * c.C_fy**2 * c.L_gyy**2 * K**3
    if c.L_g == c.mu_g:
        if cubic_num > 0:
            raise SingularDenominator(
                "L_K is undefined at mu_g == L_g with a nonzero product term"
            )
        cubic = 0.0
    else:
        cubic = cubic_num / ((c.L_g - c.mu_g) ** 2 * denom)
    return math.sqrt(
        2.0 * c.L_fx**2
        + 6.0 * c.C_gxy**2 * c.L_fy**2 * K / denom
        + 6.0 * c.C_fy**2 * c.L_gxy**2 * K / denom
        + cubic
    )
