from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from sustain.oracle import ProblemConstants
from sustain.testbed import (
    HyperCleanSpec,
    MetaLinearSpec,
    QuadBilevelSpec,
    generate_corrupted_dataset,
    make_hyperclean,
    make_meta_linear,
    make_quadratic,
    random_quadratic_spec,
)

# dimensions below 8, from 8 to 128 and above 128, where NumPy's sums switch
# from a plain loop to unrolled blocks and to pairwise halving
DIMS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 160))


@pytest.fixture
def unit_constants():
    """mu_g=1, L_g=2, every other regularity constant 1."""
    return ProblemConstants(
        mu_g=1.0, L_g=2.0, C_gxy=1.0, C_fy=1.0,
        L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=1.0,
    )


@pytest.fixture
def onedim_quad():
    """1-d lower objective y^2 - x*y (Hessian 2), outer 0.5*y^2."""
    spec = QuadBilevelSpec(
        A=np.array([[2.0]]), B=np.array([[1.0]]), b=np.zeros(1),
        y_target=np.zeros(1), lam=0.0,
    )
    return make_quadratic(spec, rng_seed=0)


@pytest.fixture
def quad5():
    """Deterministic 5-d instance with spectrum pinned to [1, 2]."""
    rng = np.random.default_rng(42)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=5, mu_g=1.0, L_g=2.0, lam=0.5)
    return make_quadratic(spec, rng_seed=0)


@pytest.fixture
def quad5_noisy():
    rng = np.random.default_rng(43)
    spec = random_quadratic_spec(
        rng, d_up=2, d_lo=5, mu_g=1.0, L_g=2.0, lam=0.5,
        sigma_f=0.3, sigma_g=0.3,
    )
    return make_quadratic(spec, rng_seed=1)


@pytest.fixture(scope="session")
def sampled_testbeds():
    """One small oracle per testbed whose capabilities all draw from their
    tokens: gradient noise on the quadratic, minibatches on hyper-cleaning,
    task subsampling (m < M) on meta-learning."""
    rng = np.random.default_rng(44)
    quad, _ = make_quadratic(
        random_quadratic_spec(rng, d_up=3, d_lo=5, sigma_f=0.3, sigma_g=0.3,
                              sin_amp=0.5),
        rng_seed=2,
    )
    train, val = generate_corrupted_dataset(40, 30, 4, p=0.3, rng_seed=3)
    hyperclean = make_hyperclean(
        HyperCleanSpec(train=train, val=val, reg=0.5, batch_size=5),
        rng_seed=4,
    )
    M, p_dim, q = 4, 3, 6
    designs = [rng.standard_normal((q, p_dim)) for _ in range(2 * M)]
    meta = make_meta_linear(
        MetaLinearSpec(Z=designs[:M], v=[rng.standard_normal(q) for _ in range(M)],
                       D=designs[M:], u=[rng.standard_normal(q) for _ in range(M)],
                       rho=1.0, m=2),
        rng_seed=5,
    )
    return {"quadratic": quad, "hyperclean": hyperclean, "meta_linear": meta}


@pytest.fixture
def count_oracle_calls(monkeypatch):
    """``count(oracle)`` wraps the oracle's five capabilities, as the
    benchmark's tracer does, and returns a ``Counter`` of the calls to each
    and to the Hessian actions they return (``"action"``)."""

    def wrap(counts, name, capability):
        def counted(pair, token):
            counts[name] += 1
            out = capability(pair, token)
            if not name.startswith("hess_"):
                return out

            def action(v):
                counts["action"] += 1
                return out(v)

            return action

        return counted

    def count(oracle):
        counts = Counter()
        for name in ("grad_x_f_sample", "grad_y_f_sample", "grad_y_g_sample",
                     "hess_xy_g_sample", "hess_yy_g_sample"):
            monkeypatch.setattr(oracle, name, wrap(counts, name, getattr(oracle, name)))
        return counts

    return count
