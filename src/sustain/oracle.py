"""Stochastic bilevel problem interface and regularity-constant validation."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch
from .sampling import SampleToken

Vector = np.ndarray
LinearOperator = Callable[[Vector], Vector]


@dataclass(frozen=True)
class ProblemConstants:
    """Regularity constants of a bilevel instance.

    ``mu_g``/``L_g`` bound the lower-level Hessian spectrum, the ``C_*``
    values bound gradient/cross-Hessian norms, and the ``L_*`` values are
    Lipschitz constants of the corresponding derivatives.
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
    sigma_f: float = 0.0
    sigma_g: float = 0.0


@dataclass(frozen=True)
class IteratePair:
    """One point (x, y) of the product space."""

    x: Vector
    y: Vector

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    @property
    def d_up(self) -> int:
        return self.x.shape[0]

    @property
    def d_lo(self) -> int:
        return self.y.shape[0]


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
    them again.
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
        if pair.d_up != self.d_up or pair.d_lo != self.d_lo:
            raise DimensionMismatch(
                f"oracle is ({self.d_up}, {self.d_lo}), "
                f"iterate is ({pair.d_up}, {pair.d_lo})"
            )


class ExactOracle(ABC):
    """Deterministic closed forms available on analytic test problems."""

    @abstractmethod
    def y_star(self, x: Vector) -> Vector: ...

    @abstractmethod
    def ell(self, x: Vector) -> float: ...

    @abstractmethod
    def grad_ell(self, x: Vector) -> Vector: ...

    @abstractmethod
    def surrogate_grad(self, x: Vector, y: Vector) -> Vector:
        """Hypergradient formula evaluated at an approximate inner solution."""

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


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    derived: Optional[DerivedConstants] = None

    @property
    def valid(self) -> bool:
        return not self.violations


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


def validate_constants(c: ProblemConstants) -> ValidationReport:
    """Report-style check of the constant invariants; never raises."""
    report = ValidationReport()
    vals = {
        "mu_g": c.mu_g, "L_g": c.L_g, "C_gxy": c.C_gxy, "C_fy": c.C_fy,
        "L_fx": c.L_fx, "L_fy": c.L_fy, "L_gxy": c.L_gxy, "L_gyy": c.L_gyy,
        "sigma_f": c.sigma_f, "sigma_g": c.sigma_g,
    }
    for name, v in vals.items():
        if not np.isfinite(v):
            report.violations.append(f"{name} is not finite")
        elif v < 0:
            report.violations.append(f"{name} is negative")
    if c.mu_g <= 0:
        report.violations.append("mu_g must be strictly positive")
    if c.mu_g > c.L_g:
        report.violations.append(
            "mu_g > L_g: the contraction factor 1 - mu_g/L_g would be negative"
        )
    if c.mu_f is not None and c.mu_f <= 0:
        report.violations.append("mu_f must be strictly positive when supplied")
    if report.valid:
        report.derived = derive_constants(c)
    return report


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
