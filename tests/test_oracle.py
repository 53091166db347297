import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIMS
from sustain.errors import DimensionMismatch, InvalidConstants
from sustain.oracle import (
    IteratePair,
    ProblemConstants,
    check_oracle_consistency,
    derive_constants,
    matvec,
    rowdot,
)
from sustain.sampling import SampleToken
from sustain.testbed import QuadraticOracle, make_quadratic, random_quadratic_spec


class TestValidateConstants:
    """``ProblemConstants`` checks its values when it is made."""

    def test_unit_example_derived_values(self, unit_constants):
        # L = 1 + 1 + (1 + 1) = 4, L_f = L + L*C_gxy/mu_g = 8, L_y = 1
        d = derive_constants(unit_constants)
        assert d.L == 4.0
        assert d.L_f == 8.0
        assert d.L_y == 1.0

    def test_mu_greater_than_L_invalid(self):
        with pytest.raises(InvalidConstants, match=r"^invalid problem constants: mu_g > L_g: "
                           r"the contraction factor 1 - mu_g/L_g would be negative$"):
            ProblemConstants(mu_g=2.0, L_g=1.0, C_gxy=1.0, C_fy=1.0,
                             L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=1.0)

    def test_all_zero_degenerate_valid(self):
        c = ProblemConstants(mu_g=1.0, L_g=1.0, C_gxy=0.0, C_fy=0.0,
                             L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0)
        d = derive_constants(c)
        assert d.L == d.L_f == d.L_y == 0.0

    def test_negative_constant_invalid(self):
        with pytest.raises(InvalidConstants,
                           match=r"^invalid problem constants: C_gxy is negative$"):
            ProblemConstants(mu_g=1.0, L_g=2.0, C_gxy=-1.0, C_fy=1.0,
                             L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=1.0)

    def test_nonfinite_invalid(self):
        with pytest.raises(InvalidConstants,
                           match=r"^invalid problem constants: L_g is not finite$"):
            ProblemConstants(mu_g=1.0, L_g=np.inf, C_gxy=1.0, C_fy=1.0,
                             L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=1.0)

    @pytest.mark.parametrize("L_g,message", [
        (0.0, "mu_g > L_g"),
        (np.inf, "L_g is not finite"),
        (np.nan, "L_g is not finite"),
    ])
    def test_L_g_out_of_range_invalid(self, unit_constants, L_g, message):
        # the estimator reads L_g from the constants: no other check of it
        with pytest.raises(InvalidConstants, match=re.escape(message)):
            replace(unit_constants, L_g=L_g)

    def test_every_violation_listed_in_field_order(self):
        with pytest.raises(InvalidConstants, match=re.escape(
                "invalid problem constants: mu_g is negative; C_fy is not finite; "
                "L_gyy is negative; mu_g must be strictly positive; "
                "mu_f must be strictly positive when supplied")):
            ProblemConstants(mu_g=-1.0, L_g=1.0, C_fy=np.nan, mu_f=0.0, L_gyy=-1.0)

    @pytest.mark.parametrize("change,message", [
        ({"mu_g": 0.0}, "mu_g must be strictly positive"),
        ({"mu_g": 3.0}, "mu_g > L_g"),
        ({"L_gyy": np.nan}, "L_gyy is not finite"),
        ({"C_gxy": -0.5}, "C_gxy is negative"),
        ({"mu_f": -1.0}, "mu_f must be strictly positive when supplied"),
        ({"mu_f": np.nan}, "mu_f is not finite"),
        ({"mu_f": np.inf}, "mu_f is not finite"),
        ({"mu_f": -np.inf}, "mu_f is not finite"),
    ])
    def test_replace_checks_the_copy(self, unit_constants, change, message):
        with pytest.raises(InvalidConstants, match=re.escape(message)):
            replace(unit_constants, **change)

    def test_mu_f_may_be_absent(self, unit_constants):
        assert replace(unit_constants, mu_f=None).mu_f is None


def test_derive_harmonic_smoothing_constant(unit_constants):
    d = derive_constants(unit_constants)
    assert d.L_mu_g == pytest.approx(1.0 * 2.0 / 3.0)


class TestIteratePair:
    def test_check_dims_mismatch(self, quad5):
        oracle, _ = quad5
        with pytest.raises(DimensionMismatch, match=r"^oracle is \(2, 5\), iterate is \(3, 5\)$"):
            oracle.check_dims(IteratePair(np.zeros(3), np.zeros(5)))


class TestConsistency:
    def test_deterministic_zero_deviation(self, quad5):
        oracle, exact = quad5
        probes = [IteratePair(np.ones(2), np.ones(5))]
        report = check_oracle_consistency(oracle, exact, probes, num_samples=3, rng_seed=0)
        assert report.passed
        # averaging identical draws can leave one-ulp round-off
        assert all(v <= 1e-12 for v in report.max_deviation.values())

    def test_single_sample_deterministic(self, quad5):
        oracle, exact = quad5
        probes = [IteratePair(np.zeros(2), np.zeros(5))]
        report = check_oracle_consistency(oracle, exact, probes, num_samples=1, rng_seed=0)
        assert report.passed

    def test_noisy_within_band(self, quad5_noisy):
        oracle, exact = quad5_noisy
        probes = [IteratePair(np.ones(2), -np.ones(5))]
        report = check_oracle_consistency(oracle, exact, probes, num_samples=10_000, rng_seed=3)
        assert report.passed

    def test_biased_lower_gradient_fails(self, quad5_noisy):
        # a constant offset on the sampled lower gradient is a bias no number
        # of samples averages away: that capability's deviation exceeds its
        # band, and the unbiased oracle passes at the same probes and seed
        oracle, exact = quad5_noisy

        class Offset(QuadraticOracle):
            def grad_y_g_sample(self, pair, token):
                return super().grad_y_g_sample(pair, token) + 0.1

        probes = [IteratePair(np.ones(2), -np.ones(5))]
        biased = Offset(oracle.spec, rng_seed=oracle.salt)
        report = check_oracle_consistency(biased, exact, probes, num_samples=2000, rng_seed=3)
        assert not report.passed
        assert report.max_deviation["grad_y_g"] > report.tolerance["grad_y_g"]
        for name in ("grad_x_f", "grad_y_f"):
            assert report.max_deviation[name] <= report.tolerance[name] + 1e-12
        assert check_oracle_consistency(oracle, exact, probes, num_samples=2000,
                                        rng_seed=3).passed

    def test_dimension_mismatch_probe(self, quad5):
        oracle, exact = quad5
        with pytest.raises(DimensionMismatch):
            check_oracle_consistency(
                oracle, exact, [IteratePair(np.zeros(1), np.zeros(5))],
                num_samples=2, rng_seed=0,
            )


def test_hessian_action_symmetry(quad5_noisy):
    oracle, _ = quad5_noisy
    rng = np.random.default_rng(0)
    pair = IteratePair(rng.standard_normal(2), rng.standard_normal(5))
    H = oracle.hess_yy_g_sample(pair, SampleToken.root(0).child(1))
    for _ in range(20):
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        lhs, rhs = float(u @ H(v)), float(v @ H(u))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_quadratic_hessian_spectrum_within_declared_bounds(quad5):
    oracle, _ = quad5
    eigs = np.linalg.eigvalsh(oracle.spec.A)
    assert eigs[0] >= oracle.constants.mu_g - 1e-12
    assert eigs[-1] <= oracle.constants.L_g + 1e-12


@settings(max_examples=200, deadline=None)
@given(rows=DIMS, cols=DIMS, layout=st.sampled_from(["C", "F", "-T"]),
       seed=st.integers(0, 2**32 - 1))
def test_one_vector_products_keep_the_bits_of_matmul(rows, cols, layout, seed):
    # one vector goes through ndarray.dot: it must give the bytes of ``@``
    # for C- and F-ordered matrices (``-B.T`` is F-ordered, as the quadratic's
    # cross Hessian is) and read-only vectors
    rng = np.random.default_rng(seed)
    if layout == "-T":
        M = -rng.standard_normal((cols, rows)).T
    else:
        M = np.asarray(rng.standard_normal((rows, cols)), order=layout)
    assert layout == "C" or M.flags.f_contiguous
    u, v = rng.standard_normal((2, cols))
    v.flags.writeable = False
    assert matvec(M, v).tobytes() == (M @ v).tobytes()
    assert rowdot(u, v).tobytes() == (u @ v).tobytes()


def _steepest(f, x):
    """The unit vector along which ``f`` changes most from ``x``, judged by
    unit steps along the axes (exact where ``f`` is affine)."""
    J = np.column_stack([f(x + e) - f(x) for e in np.eye(len(x))])
    return np.linalg.svd(J)[2][0]


def _assert_lipschitz_constants_hold(spec, rng):
    # y* is L_y-Lipschitz, grad ell is L_f-Lipschitz and the surrogate is
    # within L |y*(x) - y| of grad ell, at a random pair and along the
    # steepest direction of each map; 1e-10 absorbs rounding
    oracle, exact = make_quadratic(spec, rng_seed=0)
    d = derive_constants(oracle.constants)
    x = rng.standard_normal(oracle.d_up)
    for f, L in ((exact.y_star, d.L_y), (exact.grad_ell, d.L_f)):
        for x2 in (rng.standard_normal(oracle.d_up), x + _steepest(f, x)):
            assert np.linalg.norm(f(x) - f(x2)) <= L * np.linalg.norm(x - x2) + 1e-10
    y_star = exact.y_star(x)
    gap = lambda y: exact.surrogate_grad(x, y) - exact.grad_ell(x)
    for y in (rng.standard_normal(oracle.d_lo), y_star + _steepest(gap, y_star)):
        assert np.linalg.norm(gap(y)) <= d.L * np.linalg.norm(y_star - y) + 1e-10


def test_derived_constants_bound_the_quadratic():
    rng = np.random.default_rng(11)
    spec = random_quadratic_spec(rng, d_up=3, d_lo=6, mu_g=1.0, L_g=2.0)
    for _ in range(50):
        _assert_lipschitz_constants_hold(spec, rng)


@settings(max_examples=100, deadline=None)
@given(d_up=st.integers(1, 8), d_lo=st.integers(1, 8), mu_g=st.floats(0.25, 4.0),
       spread=st.floats(1.0, 4.0), lam=st.floats(-1.0, 1.0), sin_amp=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_derived_constants_bound_random_quadratics(d_up, d_lo, mu_g, spread, lam, sin_amp,
                                                   seed):
    rng = np.random.default_rng(seed)
    spec = random_quadratic_spec(rng, d_up, d_lo, mu_g=mu_g, L_g=mu_g * spread, lam=lam,
                                 sin_amp=sin_amp)
    _assert_lipschitz_constants_hold(spec, rng)
