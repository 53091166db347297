"""Stochastic bilevel problem interface and its regularity constants."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidConstants
from .sampling import SampleToken

Vector = np.ndarray
LinearOperator = Callable[[Vector], Vector]


def matvec(M: np.ndarray, V: Vector) -> Vector:
    """M v for a vector, or for each row of a stack of vectors ``V[..., :]``.

    One vector is taken as ``M.dot(v)``: the bits of ``M @ v`` without the
    ``matmul`` gufunc's per-call cost.  Stacks are taken as ``np.matmul(M,
    V[..., None])[..., 0]``, which hands each row to the same kernel: every
    row equals its one-vector product bit for bit, where ``M @ V.T`` would not.
    """
    return M.dot(V) if V.ndim == 1 else np.matmul(M, V[..., None])[..., 0]


def rowdot(U: Vector, V: Vector) -> Vector:
    """u . v for a pair of vectors, as ``u.dot(v)``, or row by row for stacks
    through ``np.matmul``; each row equals the one-pair value bit for bit,
    for the reason ``matvec`` gives."""
    return U.dot(V) if U.ndim == 1 else np.matmul(U[..., None, :], V[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class ProblemConstants:
    """Regularity constants of a bilevel instance.

    ``mu_g``/``L_g`` bound the lower-level Hessian spectrum, the ``C_*``
    values bound gradient/cross-Hessian norms, and the ``L_*`` values are
    Lipschitz constants of the corresponding derivatives.

    Valid by construction: every value but ``mu_f`` must be finite and
    non-negative, 0 < mu_g <= L_g, and ``mu_f``, when supplied, finite and
    positive.  Otherwise ``InvalidConstants`` names every violation, so a
    changed copy (``dataclasses.replace``) is checked too.
    """

    mu_g: float
    L_g: float
    C_gxy: float = 0.0
    C_fy: float = 0.0
    L_fx: float = 0.0
    L_fy: float = 0.0
    L_gxy: float = 0.0
    L_gyy: float = 0.0
    mu_f: Optional[float] = None

    def __post_init__(self):
        violations = []
        for name in (f.name for f in fields(self) if f.name != "mu_f"):
            v = getattr(self, name)
            if not np.isfinite(v):
                violations.append(f"{name} is not finite")
            elif v < 0:
                violations.append(f"{name} is negative")
        if self.mu_g <= 0:
            violations.append("mu_g must be strictly positive")
        if self.mu_g > self.L_g:
            violations.append(
                "mu_g > L_g: the contraction factor 1 - mu_g/L_g would be negative"
            )
        if self.mu_f is not None and not np.isfinite(self.mu_f):
            violations.append("mu_f is not finite")
        elif self.mu_f is not None and self.mu_f <= 0:
            violations.append("mu_f must be strictly positive when supplied")
        if violations:
            raise InvalidConstants(f"invalid problem constants: {'; '.join(violations)}")


class IteratePair:
    """One point (x, y) of the product space, or, for the stacked calls, one
    point per row of x and y (``ExactOracle``, ``BilevelOracle``).  Slotted,
    not a frozen dataclass, because the run loop makes one per iteration."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)

    @property
    def d_up(self) -> int:
        return self.x.shape[-1]

    @property
    def d_lo(self) -> int:
        return self.y.shape[-1]


class BilevelOracle(ABC):
    """Sampled first/second-order access to one bilevel problem instance.

    All capabilities are pure functions of ``(pair, token)``.  The two
    upper-level gradient capabilities must consume the *same* underlying
    sample when given the same token, and Hessians are exposed as
    matrix-vector actions only.

    Draw contract: a capability draws its randomness only through
    ``token.draw(ids, method, *args)``, never through ``token.rng()``
    directly.  ``draw`` takes its values, equal to those of
    ``token.child(*ids).rng()``, from one shared generator reset to the child
    token's key, so draws are not re-entrant.  The momentum updates evaluate
    one token object at x_t and x_{t-1}; ``draw`` memoizes on the token, so
    the second evaluation reuses the first one's draws instead of drawing
    them again.  The ``sampling`` module docstring says how ``draw`` batches
    the draws of an iteration block; the values stay the child token's own.

    Cost: the estimator calls a Hessian action once per row per series term,
    on one vector.  ``ndarray.dot`` is the cheap one-vector product: ``A @ v``
    gives the same bits and adds the ``matmul`` gufunc's per-call cost.

    An oracle may define ``upper_loss(pair)``, the upper objective f(x, y)
    that every record holds; it follows ``ExactOracle``'s stacked contract.
    """

    d_up: int
    d_lo: int
    constants: ProblemConstants

    @abstractmethod
    def grad_x_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector: ...

    @abstractmethod
    def grad_y_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector: ...

    @abstractmethod
    def grad_y_g_sample(self, pair: IteratePair, token: SampleToken) -> Vector: ...

    @abstractmethod
    def hess_xy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        """Action v (d_lo) -> (d2 g / dx dy) v (d_up)."""

    @abstractmethod
    def hess_yy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        """Action v (d_lo) -> (d2 g / dy dy) v (d_lo)."""

    def check_dims(self, pair: IteratePair) -> None:
        if pair.x.shape[-1] != self.d_up or pair.y.shape[-1] != self.d_lo:
            raise DimensionMismatch(
                f"oracle is ({self.d_up}, {self.d_lo}), "
                f"iterate is ({pair.d_up}, {pair.d_lo})"
            )


class ExactOracle(ABC):
    """Deterministic closed forms available on analytic test problems.

    Stacked contract: every closed form acts row by row on a leading axis.
    Given ``x`` of shape (n, d_up), or an ``IteratePair`` whose x and y are
    (n, d_up) and (n, d_lo), a vector-valued form returns an (n, d) array and
    a scalar-valued one an (n,) array; the one-point call is the one-row
    case.  Row i must equal the one-point call at row i bit for bit, so the
    run loop can compute a block of records in one call per form: write
    matrix-vector products with ``matvec``, dot products and norms with
    ``rowdot`` (and ``np.sqrt``), and sums along ``axis=-1``.
    """

    @abstractmethod
    def y_star(self, x: Vector) -> Vector: ...

    @abstractmethod
    def ell(self, x: Vector) -> float: ...

    @abstractmethod
    def surrogate_grad(self, x: Vector, y: Vector) -> Vector:
        """Hypergradient formula evaluated at an approximate inner solution."""

    def grad_ell(self, x: Vector) -> Vector:
        """The implicit-function identity the hypergradient rests on:
        grad ell(x) is the surrogate at y*(x)."""
        return self.surrogate_grad(x, self.y_star(x))

    @property
    def ell_star(self) -> Optional[float]:
        return None

    # Optional extras implemented by testbeds with deterministic Hessians.
    # They make the estimator bias exactly computable.
    def grad_y_g_mean(self, pair: IteratePair) -> Vector:
        raise NotImplementedError

    def grad_x_f_mean(self, pair: IteratePair) -> Vector:
        raise NotImplementedError

    def grad_y_f_mean(self, pair: IteratePair) -> Vector:
        raise NotImplementedError

    def neumann_expectation(self, pair: IteratePair, K: int) -> Vector:
        """Expectation of the truncated-series estimator at (x, y)."""
        raise NotImplementedError


@dataclass
class DerivedConstants:
    """Lipschitz constants implied by the base regularity constants."""

    L: float
    L_f: float
    L_y: float
    L_mu_g: float


def derive_constants(c: ProblemConstants) -> DerivedConstants:
    """Smoothness constants of the surrogate gradient, outer gradient and y*."""
    L = (
        c.L_fx
        + c.L_fy * c.C_gxy / c.mu_g
        + c.C_fy * (c.L_gxy / c.mu_g + c.L_gyy * c.C_gxy / c.mu_g**2)
    )
    L_f = L + L * c.C_gxy / c.mu_g
    L_y = c.C_gxy / c.mu_g
    L_mu_g = c.mu_g * c.L_g / (c.mu_g + c.L_g)
    return DerivedConstants(L=L, L_f=L_f, L_y=L_y, L_mu_g=L_mu_g)


@dataclass
class ConsistencyReport:
    """Max deviation of Monte-Carlo oracle means from exact counterparts."""

    max_deviation: dict
    tolerance: dict
    passed: bool


def check_oracle_consistency(
    oracle: BilevelOracle,
    exact: ExactOracle,
    probe_points: Sequence[IteratePair],
    num_samples: int,
    rng_seed: int,
) -> ConsistencyReport:
    """Testbed self-check: sampled gradient means vs. exact gradients.

    At each probe the empirical mean over ``num_samples`` draws must agree
    with the exact deterministic counterpart within 4 standard errors.
    """
    root = SampleToken.root(rng_seed)
    caps = {
        "grad_y_g": (oracle.grad_y_g_sample, exact.grad_y_g_mean, oracle.d_lo),
        "grad_x_f": (oracle.grad_x_f_sample, exact.grad_x_f_mean, oracle.d_up),
        "grad_y_f": (oracle.grad_y_f_sample, exact.grad_y_f_mean, oracle.d_lo),
    }
    max_dev = {name: 0.0 for name in caps}
    tol = {name: 0.0 for name in caps}
    passed = True
    for p_idx, pair in enumerate(probe_points):
        oracle.check_dims(pair)
        for c_idx, (name, (sample_fn, mean_fn, dim)) in enumerate(caps.items()):
            draws = np.empty((num_samples, dim))
            for i in range(num_samples):
                draws[i] = sample_fn(pair, root.child(p_idx, c_idx, i))
            mean = draws.mean(axis=0)
            se = 0.0
            if num_samples > 1:
                se = float(draws.std(axis=0, ddof=1).max()) / np.sqrt(num_samples)
            dev = float(np.linalg.norm(mean - mean_fn(pair), ord=np.inf))
            band = 4.0 * se
            max_dev[name] = max(max_dev[name], dev)
            tol[name] = max(tol[name], band)
            if dev > band + 1e-12:
                passed = False
    return ConsistencyReport(max_deviation=max_dev, tolerance=tol, passed=passed)
