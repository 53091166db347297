"""Concrete bilevel problem instances with known analytic structure.

The quadratic family carries a full exact oracle (closed-form inner
solution, outer objective and gradient), which makes every estimator
property checkable without Monte-Carlo.  The hyper-cleaning and linear
meta-learning instances mirror the benchmark problems at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import DimensionMismatch
from .hypergrad import exact_neumann_expectation
from .oracle import (
    BilevelOracle,
    ExactOracle,
    IteratePair,
    LinearOperator,
    ProblemConstants,
    Vector,
    constant,
    matvec,
)
from .sampling import SampleToken

_NOISE_TAG = 101  # salt stream for testbed gradient noise
_ZERO, _ONE = constant(0.0), constant(1.0)  # operands of the sigmoid and of 1 - s


def _dims(d_up: int, d_lo: int) -> Tuple[int, int]:
    """(d_up, d_lo) of an oracle; a level without a coordinate is refused."""
    if d_up < 1 or d_lo < 1:
        raise DimensionMismatch(f"d_up = {d_up} and d_lo = {d_lo} must be at least 1")
    return d_up, d_lo


# ---------------------------------------------------------------------------
# Stochastic quadratic bilevel family
# ---------------------------------------------------------------------------


@dataclass
class QuadBilevelSpec:
    """Quadratic lower level 0.5 y'Ay - y'(Bx+b); outer tracking objective
    0.5||y - y_target||^2 + 0.5 lam ||x||^2 (+ optional sinusoidal term in x).

    Gradients carry additive Gaussian noise, Hessians are deterministic, so
    the estimator bias has a closed form.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    y_target: np.ndarray
    lam: float = 0.0
    sigma_f: float = 0.0
    sigma_g: float = 0.0
    sin_amp: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.y_target = np.asarray(self.y_target, dtype=float)


class QuadraticOracle(BilevelOracle):
    def __init__(self, spec: QuadBilevelSpec, rng_seed: int):
        self.d_up, self.d_lo = _dims(spec.B.shape[1], spec.B.shape[0])
        eigvals = np.linalg.eigvalsh(spec.A)
        if not np.allclose(spec.A, spec.A.T) or eigvals[0] <= 0:
            raise ValueError("lower-level Hessian A must be symmetric positive-definite")
        self.spec = spec
        self.salt = int(rng_seed)
        bnorm = float(np.linalg.norm(spec.B, 2))
        # without the sinusoidal term the outer objective is a quadratic; it
        # is strongly convex when its Hessian's least eigenvalue clears
        # rounding noise (lam = 0 with d_up > d_lo leaves it singular)
        mu_f = None
        if spec.sin_amp == 0.0:
            A_inv_B = np.linalg.solve(spec.A, spec.B)
            H_ell = spec.lam * np.eye(self.d_up) + A_inv_B.T @ A_inv_B
            least = float(np.linalg.eigvalsh(H_ell)[0])
            mu_f = least if least > 1e-12 else None
        self.constants = ProblemConstants(
            mu_g=float(eigvals[0]),
            L_g=float(eigvals[-1]),
            C_gxy=bnorm,
            C_fy=10.0,  # sup ||y - y_target|| over the operating box
            L_fx=abs(spec.lam) + abs(spec.sin_amp),  # of lam x + a cos x
            L_fy=1.0,
            L_gxy=0.0,
            L_gyy=0.0,
            mu_f=mu_f,
        )
        # the Hessians do not depend on the point or the sample
        self._hess_yy, self._hess_xy = spec.A.dot, (-spec.B.T).dot
        self._noise_ids = (_NOISE_TAG, self.salt)
        self._lam, self._sin_amp, self._sigma_f, self._sigma_g = (
            constant(v) for v in (spec.lam, spec.sin_amp, spec.sigma_f, spec.sigma_g))

    # -- deterministic parts -------------------------------------------------
    def _grad_x_f(self, pair: IteratePair) -> Vector:
        g = self._lam * pair.x
        if self.spec.sin_amp:
            g = g + self._sin_amp * np.cos(pair.x)
        return g

    def _grad_y_f(self, pair: IteratePair) -> Vector:
        return pair.y - self.spec.y_target

    # -- sampled capabilities (additive Gaussian noise on the y-gradients) ----
    # each takes one point, so its products are the ``ndarray.dot`` calls
    # that ``matvec`` makes for one vector
    def grad_x_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        return self._grad_x_f(pair)

    def grad_y_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        g = self._grad_y_f(pair)
        if self.spec.sigma_f:
            g = g + self._sigma_f * token.draw(self._noise_ids, "standard_normal", self.d_lo)
        return g

    def grad_y_g_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        s = self.spec
        g = s.A.dot(pair.y) - s.B.dot(pair.x) - s.b
        if s.sigma_g:
            g = g + self._sigma_g * token.draw(self._noise_ids, "standard_normal", self.d_lo)
        return g

    def hess_yy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        return self._hess_yy

    def hess_xy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        return self._hess_xy

    def upper_loss(self, pair: IteratePair) -> float:
        s = self.spec
        val = (0.5 * np.sum((pair.y - s.y_target) ** 2, axis=-1)
               + 0.5 * s.lam * np.sum(pair.x**2, axis=-1))
        if s.sin_amp:
            val = val + s.sin_amp * np.sum(np.sin(pair.x), axis=-1)
        return val if val.ndim else float(val)


class QuadraticExact(ExactOracle):
    """Closed forms for the quadratic family, stacked as ``ExactOracle`` says."""

    def __init__(self, oracle: QuadraticOracle):
        self._o = oracle
        s = oracle.spec
        self._A_inv = np.linalg.inv(s.A)
        if oracle.constants.mu_f is not None:  # a strongly convex quadratic
            # its Hessian is lam I + B' A^-2 B
            H_ell = s.lam * np.eye(oracle.d_up) + s.B.T @ self._A_inv @ self._A_inv @ s.B
            c0 = s.B.T @ self._A_inv @ (self._A_inv @ s.b - s.y_target)
            x_min = np.linalg.solve(H_ell, -c0)
            self.ell_star = self.ell(x_min)

    def y_star(self, x: Vector) -> Vector:
        s = self._o.spec
        return matvec(self._A_inv, matvec(s.B, x) + s.b)

    def ell(self, x: Vector) -> float:
        return self._o.upper_loss(IteratePair(x, self.y_star(x)))

    def surrogate_grad(self, x: Vector, y: Vector) -> Vector:
        s = self._o.spec
        g = s.lam * x + matvec(s.B.T, matvec(self._A_inv, y - s.y_target))
        if s.sin_amp:
            g = g + s.sin_amp * np.cos(x)
        return g

    def grad_y_g_mean(self, pair: IteratePair) -> Vector:
        s = self._o.spec
        return matvec(s.A, pair.y) - matvec(s.B, pair.x) - s.b

    def grad_x_f_mean(self, pair: IteratePair) -> Vector:
        return self._o._grad_x_f(pair)

    def grad_y_f_mean(self, pair: IteratePair) -> Vector:
        return self._o._grad_y_f(pair)

    def neumann_expectation(self, pair: IteratePair, K: int) -> Vector:
        s = self._o.spec
        return exact_neumann_expectation(
            hess_yy=s.A,
            hess_xy=-s.B.T,
            grad_x_f=self._o._grad_x_f(pair),
            grad_y_f=self._o._grad_y_f(pair),
            K=K,
            L_g=self._o.constants.L_g,
        )


def make_quadratic(spec: QuadBilevelSpec, rng_seed: int) -> Tuple[QuadraticOracle, QuadraticExact]:
    oracle = QuadraticOracle(spec, rng_seed)
    return oracle, QuadraticExact(oracle)


def random_quadratic_spec(
    rng: np.random.Generator,
    d_up: int,
    d_lo: int,
    mu_g: float = 1.0,
    L_g: float = 2.0,
    lam: float = 0.5,
    sigma_f: float = 0.0,
    sigma_g: float = 0.0,
    sin_amp: float = 0.0,
) -> QuadBilevelSpec:
    """Random instance with the lower Hessian spectrum pinned to [mu_g, L_g]."""
    if not mu_g <= L_g:  # NaN fails it too
        raise ValueError(f"L_g = {L_g:g} is below mu_g = {mu_g:g}")
    Q, _ = np.linalg.qr(rng.standard_normal((d_lo, d_lo)))
    A = Q @ np.diag(np.linspace(mu_g, L_g, d_lo)) @ Q.T
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((d_lo, d_up)) / np.sqrt(d_lo)
    return QuadBilevelSpec(
        A=A,
        B=B,
        b=rng.standard_normal(d_lo) * 0.5,
        y_target=rng.standard_normal(d_lo) * 0.5,
        lam=lam,
        sigma_f=sigma_f,
        sigma_g=sigma_g,
        sin_amp=sin_amp,
    )


# ---------------------------------------------------------------------------
# Data hyper-cleaning (logistic regression with per-sample weights)
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    features: np.ndarray  # (n, d_lo)
    labels: np.ndarray    # (n,), values in {0, 1}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class HyperCleanSpec:
    train: Dataset
    val: Dataset
    reg: float = 1e-3          # ridge coefficient c of the lower problem
    batch_size: int = 1


def _sigmoid(z):
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below; e^min(z,0) is e^-|z| for
    # z < 0 and exactly 1 otherwise, and neither exponent overflows.  The
    # float array z is not written: the ufuncs after the first two run in place
    num, den = np.minimum(z, _ZERO), np.abs(z)
    np.exp(num, out=num)
    np.exp(np.negative(den, out=den), out=den)
    return np.divide(num, np.add(_ONE, den, out=den), out=num)


class HyperCleanOracle(BilevelOracle):
    """Sampled oracle for the weighted-training/clean-validation problem.

    The upper variable x holds one weight logit per training point, so the
    upper gradient w.r.t. x is identically zero and the hypergradient flows
    entirely through the cross Hessian.
    """

    def __init__(self, spec: HyperCleanSpec, rng_seed: int):
        if len(spec.train) == 0 or len(spec.val) == 0:
            raise ValueError("train and validation sets must be nonempty")
        for name, labels in (("training", spec.train.labels), ("validation", spec.val.labels)):
            bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))  # NaN too
            if bad.size:
                raise ValueError(f"{name} labels must lie in {{0, 1}}: row {bad[0]} "
                                 f"has {labels[bad[0]]:g}")
        if not 0 < spec.reg < np.inf:
            raise ValueError("reg must be positive and finite")
        m = spec.batch_size
        if m < 1:
            raise ValueError(f"batch_size = {m} must be at least 1")
        self.spec = spec
        self.d_up, self.d_lo = _dims(len(spec.train), spec.train.features.shape[1])
        self.salt = int(rng_seed)
        n_tr, n_val = len(spec.train), len(spec.val)
        # minibatch sums scaled up to the full-set sums
        tr_scale, val_scale = n_tr / min(m, n_tr), n_val / min(m, n_val)
        self._tr_scale, self._val_scale, self._two_reg = (
            constant(v) for v in (tr_scale, val_scale, 2.0 * spec.reg))
        # the arguments of each tag's batch draw: validation for tag 0, else training
        self._draws = [((_NOISE_TAG, self.salt, tag), "integers", 0, n, min(m, n))
                       for tag, n in enumerate((n_val, n_tr, n_tr, n_tr))]
        self._tr_a, self._tr_b = spec.train.features, spec.train.labels
        self._val_a, self._val_b = spec.val.features, spec.val.labels
        self._zero_x = np.zeros(self.d_up)
        self._zero_x.setflags(write=False)
        a_sq = float(np.max(np.sum(spec.train.features**2, axis=1)))
        a_nm = float(np.sqrt(a_sq))
        av_sq = float(np.max(np.sum(spec.val.features**2, axis=1)))
        # a batch is drawn with replacement, so it may be m copies of the
        # longest row: each row of a sampled H_xy adds up to m terms
        # w'(x_i) (s_j - b_j) a_j, with |w'| <= 1/4, |w''| <= 1/(6 sqrt 3) and
        # s' <= 1/4, so C_gxy and L_gxy scale with m, not sqrt(m)
        self.constants = ProblemConstants(
            mu_g=2.0 * spec.reg,
            L_g=2.0 * spec.reg + tr_scale * min(m, n_tr) * 0.25 * a_sq,
            C_gxy=tr_scale * min(m, n_tr) * 0.25 * a_nm,
            C_fy=n_val * np.sqrt(av_sq),
            L_fx=0.0,
            L_fy=n_val * 0.25 * av_sq,
            L_gxy=tr_scale * min(m, n_tr) * a_nm * np.sqrt(1.0 / 108.0 + a_sq / 256.0),
            L_gyy=n_tr * 0.25 * a_sq * a_nm,
        )

    def _train_batch(self, pair: IteratePair, token: SampleToken, tag: int):
        """The training minibatch for ``tag``: indices ``idx``, features ``a``,
        and ``w = sigmoid(x[idx])``, ``s = sigmoid(a y)`` from one sigmoid."""
        idx = token.draw(*self._draws[tag])
        a = self._tr_a.take(idx, 0)
        ws = _sigmoid(np.concatenate((pair.x[idx], a.dot(pair.y))))
        return idx, a, ws[:len(idx)], ws[len(idx):]

    # Upper-level sample: a validation minibatch shared by both f-gradients.
    def grad_x_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        return self._zero_x

    def grad_y_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        idx = token.draw(*self._draws[0])
        a = self._val_a.take(idx, 0)
        resid = _sigmoid(a.dot(pair.y)) - self._val_b[idx]
        return self._val_scale * resid.dot(a)

    def grad_y_g_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        idx, a, w, s = self._train_batch(pair, token, 1)
        resid = s - self._tr_b[idx]
        return self._two_reg * pair.y + self._tr_scale * (w * resid).dot(a)

    def hess_yy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        _, a, w, s = self._train_batch(pair, token, 2)
        coef = w * s * (_ONE - s) * self._tr_scale

        def action(v: Vector) -> Vector:
            return self._two_reg * v + (coef * a.dot(v)).dot(a)

        return action

    def hess_xy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        idx, a, w, s = self._train_batch(pair, token, 3)
        dw = w * (_ONE - w)  # derivative of the sigmoid weight
        resid = s - self._tr_b[idx]

        def action(v: Vector) -> Vector:
            # nonzero rows only at sampled points; repeats add in index order
            rows = self._tr_scale * dw * resid * a.dot(v)
            return np.bincount(idx, weights=rows, minlength=self.d_up)

        return action

    def full_lower_hessian(self, pair: IteratePair) -> np.ndarray:
        """Explicit full-batch lower Hessian; small-d diagnostics only."""
        tr = self.spec.train
        a = tr.features
        w = _sigmoid(pair.x)
        s = _sigmoid(a @ pair.y)
        coef = w * s * (1.0 - s)
        return 2.0 * self.spec.reg * np.eye(self.d_lo) + (a.T * coef) @ a

    def upper_loss(self, pair: IteratePair) -> float:
        """Full-batch validation loss log(1 + e^z) - b z, summed stably."""
        z = matvec(self.spec.val.features, pair.y)
        loss = np.sum(np.logaddexp(0.0, z) - self.spec.val.labels * z, axis=-1)
        return loss if loss.ndim else float(loss)


def generate_corrupted_dataset(
    n_train: int, n_val: int, d_lo: int, p: float, rng_seed: int
) -> Tuple[Dataset, Dataset]:
    """Synthetic hyper-cleaning data: Gaussian features, planted logistic
    labels, train labels flipped independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("corruption rate p must lie in [0, 1]")
    if d_lo < 1:
        raise DimensionMismatch(f"d_lo = {d_lo} must be at least 1")
    rng = np.random.default_rng(rng_seed)
    w_true = rng.standard_normal(d_lo) * (2.0 / np.sqrt(d_lo))
    datasets = []
    for n, corrupt in ((n_train, True), (n_val, False)):
        feats = rng.standard_normal((n, d_lo))
        labels = (rng.random(n) < _sigmoid(feats @ w_true)).astype(float)
        if corrupt:
            # always consume the flip draws so the validation stream does
            # not depend on p
            flip = rng.random(n) < p
            labels[flip] = 1.0 - labels[flip]
        datasets.append(Dataset(feats, labels))
    return datasets[0], datasets[1]


def load_dataset_csv(path: str) -> Dataset:
    """Read a dataset from CSV with header ``f1,...,fd,label``.  A row whose
    cell count is not the header's, a cell that is not a number or a feature
    cell that is not finite raises ``ValueError`` naming the file, the line
    and the column.  A label outside {0, 1}, NaN and inf included, is left to
    ``HyperCleanOracle``, which names its set and row."""
    import csv
    import math

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[-1].strip() != "label":
            raise ValueError(f"{path}: expected a header ending in 'label'")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
            rows.append([])
            for j, (column, cell) in enumerate(zip(header, row)):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or (j < len(row) - 1 and not math.isfinite(value)):
                    what = "a number" if value is None else "a finite number"
                    raise ValueError(f"{where}, column {column.strip()}: {cell!r} is not {what}")
                rows[-1].append(value)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(arr[:, :-1], arr[:, -1])


# ---------------------------------------------------------------------------
# Linear least-squares meta-learning
# ---------------------------------------------------------------------------


@dataclass
class MetaLinearSpec:
    """M tasks with per-task quadratic losses 0.5||Z_i (x + y_i) - v_i||^2,
    ridge-regularized task parameters, and task subsampling of size m."""

    Z: list = field(default_factory=list)   # per-task train design matrices
    v: list = field(default_factory=list)   # per-task train targets
    D: list = field(default_factory=list)   # per-task held-out designs
    u: list = field(default_factory=list)   # per-task held-out targets
    rho: float = 1.0
    m: int = 1

    @property
    def M(self) -> int:
        return len(self.Z)

    @property
    def p(self) -> int:
        return self.Z[0].shape[1]


class MetaLinearOracle(BilevelOracle):
    """Task-subsampled oracle; the stacked inner variable is block-separable.

    With m < M a sampled lower objective touches only the drawn blocks, so
    strong convexity holds per drawn block (the full-expectation problem is
    rho/M strongly convex).
    """

    def __init__(self, spec: MetaLinearSpec, rng_seed: int):
        if spec.m > spec.M:
            raise ValueError(f"m = {spec.m} exceeds the task count M = {spec.M}")
        if spec.m < 1:
            raise ValueError(f"m = {spec.m} must be at least 1")
        if not 0 < spec.rho < np.inf:
            raise ValueError("rho must be positive and finite")
        self.spec = spec
        self.d_up, self.d_lo = _dims(spec.p, spec.M * spec.p)
        self.salt = int(rng_seed)
        ZtZ = [Z.T @ Z for Z in spec.Z]
        DtD = [D.T @ D for D in spec.D]
        z_eigs = [np.linalg.eigvalsh(B) for B in ZtZ]

        def drawn_sum(mats) -> float:
            """A bound on the top eigenvalue of the sum of any m of the PSD
            ``mats``: the least of the sum over all M (a PSD term only adds)
            and the sum of the m largest top eigenvalues."""
            tops = sorted(float(np.linalg.eigvalsh(A)[-1]) for A in mats)
            return min(float(np.linalg.eigvalsh(sum(mats))[-1]), sum(tops[-spec.m:]))

        # Each drawn task's term is weighted 1/m.  In (x, y), the Jacobian of
        # grad_x f puts sum_S D_i'D_i and the D_i'D_i side by side; that of
        # grad_y f puts the D_i'D_i stacked and block-diagonal side by side;
        # the cross Hessian of g puts the Z_i'Z_i side by side.  Blocks side
        # by side have a squared norm of at most the sum of theirs, and the
        # B_i side by side have that of sum_S B_i^2.
        f_sq = drawn_sum([A @ A for A in DtD])
        f_block = max(float(np.linalg.eigvalsh(A)[-1]) for A in DtD)
        self.constants = ProblemConstants(
            mu_g=(min(ev[0] for ev in z_eigs) + spec.rho) / spec.M,
            L_g=(max(ev[-1] for ev in z_eigs) + spec.rho) / spec.m,
            C_gxy=np.sqrt(drawn_sum([B @ B for B in ZtZ])) / spec.m,
            C_fy=100.0,  # operating-box bound for the quadratic upper gradient
            L_fx=np.sqrt(drawn_sum(DtD) ** 2 + f_sq) / spec.m,
            L_fy=np.sqrt(f_sq + f_block**2) / spec.m,
            L_gxy=0.0,
            L_gyy=0.0,
        )

    def _tasks(self, token: SampleToken, tag: int) -> np.ndarray:
        if self.spec.m == self.spec.M:
            return np.arange(self.spec.M)
        return token.draw((_NOISE_TAG, self.salt, tag), "choice", self.spec.M, self.spec.m, False)

    def _blocks(self, y: Vector) -> np.ndarray:
        return y.reshape(*y.shape[:-1], self.spec.M, self.spec.p)

    def grad_x_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        s, tasks = self.spec, self._tasks(token, 0)
        blocks = self._blocks(pair.y)
        out = np.zeros(self.d_up)
        for i in tasks:
            out += s.D[i].T.dot(s.D[i].dot(pair.x + blocks[i]) - s.u[i])
        return out / len(tasks)

    def grad_y_f_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        s, tasks = self.spec, self._tasks(token, 0)
        blocks = self._blocks(pair.y)
        out = np.zeros((s.M, s.p))
        for i in tasks:
            out[i] = s.D[i].T.dot(s.D[i].dot(pair.x + blocks[i]) - s.u[i])
        return out.ravel() / len(tasks)

    def grad_y_g_sample(self, pair: IteratePair, token: SampleToken) -> Vector:
        s, tasks = self.spec, self._tasks(token, 1)
        blocks = self._blocks(pair.y)
        out = np.zeros((s.M, s.p))
        for i in tasks:
            out[i] = s.Z[i].T.dot(s.Z[i].dot(pair.x + blocks[i]) - s.v[i]) + s.rho * blocks[i]
        return out.ravel() / len(tasks)

    def hess_yy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        s, tasks = self.spec, self._tasks(token, 2)

        def action(v: Vector) -> Vector:
            blocks = v.reshape(s.M, s.p)
            out = np.zeros((s.M, s.p))
            for i in tasks:
                out[i] = s.Z[i].T.dot(s.Z[i].dot(blocks[i])) + s.rho * blocks[i]
            return out.ravel() / len(tasks)

        return action

    def hess_xy_g_sample(self, pair: IteratePair, token: SampleToken) -> LinearOperator:
        s, tasks = self.spec, self._tasks(token, 3)

        def action(v: Vector) -> Vector:
            blocks = v.reshape(s.M, s.p)
            out = np.zeros(self.d_up)
            for i in tasks:
                out += s.Z[i].T.dot(s.Z[i].dot(blocks[i]))
            return out / len(tasks)

        return action

    def upper_loss(self, pair: IteratePair) -> float:
        s = self.spec
        blocks = self._blocks(pair.y)
        total = 0.0
        for i in range(s.M):
            resid = matvec(s.D[i], pair.x + blocks[..., i, :]) - s.u[i]
            total += 0.5 * np.sum(resid**2, axis=-1)
        return total / s.M if total.ndim else float(total / s.M)


def random_meta_linear_spec(
    rng: np.random.Generator, M: int, p: int, q: int, rho: float, m: int
) -> MetaLinearSpec:
    """M related tasks: q-row Gaussian train and held-out designs per task,
    targets from one shared weight plus a per-task shift, and small noise."""
    w = rng.standard_normal(p)
    Z, v, D, u = [], [], [], []
    for _ in range(M):
        shift = 0.3 * rng.standard_normal(p)
        for mats, targs in ((Z, v), (D, u)):
            design = rng.standard_normal((q, p))
            mats.append(design)
            targs.append(design @ (w + shift) + 0.05 * rng.standard_normal(q))
    return MetaLinearSpec(Z=Z, v=v, D=D, u=u, rho=rho, m=m)
