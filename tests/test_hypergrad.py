import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sustain.errors import (
    InvalidConstants,
    NonfiniteValue,
    SingularDenominator,
)
from sustain.hypergrad import (
    NeumannConfig,
    bias_bound,
    choose_K_nonconvex,
    choose_K_strongly_convex,
    draw_k,
    estimate,
    estimate_coupled,
    exact_neumann_expectation,
    lipschitz_L_K,
)
from sustain.oracle import BilevelOracle, IteratePair, ProblemConstants
from sustain.sampling import SampleToken
from sustain.testbed import QuadBilevelSpec, make_quadratic


class _ZeroCrossOracle(BilevelOracle):
    """1-d: lower 0.5*y^2 (no coupling), upper x*y so grad_x f = y."""

    d_up = d_lo = 1
    constants = ProblemConstants(mu_g=1.0, L_g=1.0, C_gxy=0.0, C_fy=1.0,
                                 L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0)

    def grad_x_f_sample(self, pair, token):
        return pair.y.copy()

    def grad_y_f_sample(self, pair, token):
        return pair.x.copy()

    def grad_y_g_sample(self, pair, token):
        return pair.y.copy()

    def hess_yy_g_sample(self, pair, token):
        return lambda v: v

    def hess_xy_g_sample(self, pair, token):
        return lambda v: 0.0 * v


class _NaNOracle(_ZeroCrossOracle):
    def grad_x_f_sample(self, pair, token):
        return np.array([np.nan])


class TestEstimate:
    def test_zero_cross_hessian(self):
        oracle = _ZeroCrossOracle()
        cfg = NeumannConfig(K=4, L_g=1.0)
        pair = IteratePair([2.0], [3.0])
        for i in range(10):
            s = estimate(oracle, pair, cfg, SampleToken.root(0).child(i))
            assert s.value[0] == 3.0

    def test_onedim_values_by_k(self, onedim_quad):
        # lower y^2 - x*y, upper 0.5*y^2, K=4, y=4: value 8 iff k=0 else 0
        oracle, exact = onedim_quad
        cfg = NeumannConfig(K=4, L_g=2.0)
        pair = IteratePair([0.0], [4.0])
        seen = {}
        root = SampleToken.root(1)
        for i in range(200):
            s = estimate(oracle, pair, cfg, root.child(i))
            seen.setdefault(s.k_drawn, set()).add(float(s.value[0]))
            assert s.hvp_count == s.k_drawn + 1
            assert 0 <= s.k_drawn <= 3
        assert seen[0] == {8.0}
        for k in (1, 2, 3):
            assert seen[k] == {0.0}

    def test_onedim_exact_expectation(self, onedim_quad):
        # mean over k of {8, 0, 0, 0} = 2 = y/2
        _, _ = onedim_quad
        val = exact_neumann_expectation(
            hess_yy=np.array([[2.0]]), hess_xy=np.array([[-1.0]]),
            grad_x_f=np.zeros(1), grad_y_f=np.array([4.0]), K=4, L_g=2.0,
        )
        assert val[0] == pytest.approx(2.0)

    def test_monte_carlo_mean_matches_exact(self, quad5):
        oracle, exact = quad5
        K = 5
        cfg = NeumannConfig.from_constants(oracle.constants, K)
        pair = IteratePair(np.array([0.5, -0.5]), np.ones(5))
        target = exact.neumann_expectation(pair, K)
        n = 20_000
        root = SampleToken.root(2)
        draws = np.empty((n, 2))
        for i in range(n):
            draws[i] = estimate(oracle, pair, cfg, root.child(i)).value
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se + 1e-12)

    def test_k_equals_one_is_deterministic_index(self, quad5):
        oracle, _ = quad5
        cfg = NeumannConfig.from_constants(oracle.constants, 1)
        pair = IteratePair(np.zeros(2), np.zeros(5))
        for i in range(20):
            s = estimate(oracle, pair, cfg, SampleToken.root(3).child(i))
            assert s.k_drawn == 0 and s.hvp_count == 1

    def test_mean_hvp_count(self, quad5):
        oracle, _ = quad5
        K = 8
        cfg = NeumannConfig.from_constants(oracle.constants, K)
        pair = IteratePair(np.zeros(2), np.zeros(5))
        root = SampleToken.root(4)
        counts = [estimate(oracle, pair, cfg, root.child(i)).hvp_count for i in range(4000)]
        assert max(counts) <= K
        assert np.mean(counts) == pytest.approx((K + 1) / 2, rel=0.05)

    def test_coupled_reevaluation_shares_k(self, quad5):
        oracle, _ = quad5
        cfg = NeumannConfig.from_constants(oracle.constants, 6)
        tok = SampleToken.root(5).child(0)
        p1 = IteratePair(np.zeros(2), np.zeros(5))
        p2 = IteratePair(np.ones(2), np.ones(5))
        assert estimate(oracle, p1, cfg, tok).k_drawn == estimate(oracle, p2, cfg, tok).k_drawn

    def test_nan_raises(self):
        with pytest.raises(NonfiniteValue):
            estimate(_NaNOracle(), IteratePair([0.0], [0.0]),
                     NeumannConfig(K=1, L_g=1.0), SampleToken.root(0))


@pytest.mark.parametrize("testbed", ["quadratic", "hyperclean", "meta_linear"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    path=st.lists(st.integers(0, 10**6), max_size=3),
    K=st.integers(1, 6),
    scale=st.floats(0.01, 10.0),
)
def test_coupled_estimate_equals_separate_calls(sampled_testbeds, testbed, seed, path, K, scale):
    # the paired estimate must reproduce two independent one-point estimates
    # bit for bit; each one-point call gets its own token object, so nothing
    # is shared through the draw memo
    oracle = sampled_testbeds[testbed]
    rng = np.random.default_rng(seed)
    points = [
        IteratePair(scale * rng.standard_normal(oracle.d_up),
                    scale * rng.standard_normal(oracle.d_lo))
        for _ in range(2)
    ]
    cfg = NeumannConfig.from_constants(oracle.constants, K)
    full = (seed,) + tuple(path)
    paired = estimate_coupled(oracle, points, cfg, SampleToken(full))
    for at, got in zip(points, paired):
        want = estimate(oracle, at, cfg, SampleToken(full))
        assert got.value.tobytes() == want.value.tobytes()
        assert (got.k_drawn, got.hvp_count) == (want.k_drawn, want.hvp_count)


@pytest.mark.parametrize("testbed", ["quadratic", "hyperclean", "meta_linear"])
@pytest.mark.parametrize("n_points", [1, 2])
def test_hvp_count_is_the_number_of_action_calls(sampled_testbeds, testbed, n_points,
                                                 count_oracle_calls):
    # every Hessian action is called once per point per series term, and
    # the reported hvp_count is that number of calls
    oracle = sampled_testbeds[testbed]
    counts = count_oracle_calls(oracle)
    rng = np.random.default_rng(n_points)
    points = [IteratePair(rng.standard_normal(oracle.d_up), rng.standard_normal(oracle.d_lo))
              for _ in range(n_points)]
    cfg = NeumannConfig.from_constants(oracle.constants, 6)
    for i in range(20):
        before = counts.copy()
        out = estimate_coupled(oracle, points, cfg, SampleToken.root(7).child(i))
        k = out[0].k_drawn
        assert counts["action"] - before["action"] == sum(e.hvp_count for e in out)
        assert counts["hess_yy_g_sample"] - before["hess_yy_g_sample"] == k * n_points
        assert counts["hess_xy_g_sample"] - before["hess_xy_g_sample"] == n_points
    assert counts["action"] > 20 * n_points  # some draws had k > 0


@pytest.mark.parametrize("K,L_g,message", [
    (0, 1.0, "K must be >= 1"),
    (1, 0.0, "need 0 < L_g < inf"),
    (1, float("inf"), "need 0 < L_g < inf"),
    (1, float("nan"), "need 0 < L_g < inf"),
])
def test_neumann_config_rejects_bad_budget(K, L_g, message):
    with pytest.raises(InvalidConstants, match=message):
        NeumannConfig(K=K, L_g=L_g)


def test_draw_k_uniform_range():
    cfg = NeumannConfig(K=5, L_g=2.0)
    root = SampleToken.root(6)
    ks = [draw_k(cfg, root.child(i)) for i in range(5000)]
    counts = np.bincount(ks, minlength=5)
    assert set(np.unique(ks)) == {0, 1, 2, 3, 4}
    assert np.all(counts > 800)  # loose uniformity check


class TestBiasBound:
    def test_frozen_example(self, unit_constants):
        assert bias_bound(unit_constants, 10).bound == pytest.approx(2.0**-10)

    def test_zero_when_mu_equals_L(self):
        c = ProblemConstants(mu_g=1.0, L_g=1.0, C_gxy=1.0, C_fy=1.0,
                             L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0)
        assert bias_bound(c, 1).bound == 0.0

    def test_zero_numerator(self, unit_constants):
        c = ProblemConstants(mu_g=1.0, L_g=2.0, C_gxy=0.0, C_fy=1.0,
                             L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0)
        assert bias_bound(c, 7).bound == 0.0

    def test_monotone_in_K(self, unit_constants):
        bounds = [bias_bound(unit_constants, K).bound for K in range(1, 20)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_invalid_constants(self, unit_constants):
        # mu_g > L_g fails where the constants are made, K < 1 in bias_bound
        with pytest.raises(InvalidConstants, match="mu_g > L_g"):
            bias_bound(ProblemConstants(mu_g=2.0, L_g=1.0, C_gxy=1.0, C_fy=1.0,
                                        L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0), 1)
        with pytest.raises(InvalidConstants, match="K must be >= 1"):
            bias_bound(unit_constants, 0)


@settings(max_examples=200, deadline=None)
@given(
    eigs=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
    d_up=st.integers(1, 4),
    B_scale=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 30),
)
def test_bias_within_bound(eigs, d_up, B_scale, seed, K):
    # the exact bias of the K-term estimator is within bias_bound where the
    # bound is tightest: grad_y f = y - y_target has the full norm C_fy and
    # lies along A's least-eigenvalue eigenvector, which (I - A/L_g)^K shrinks least
    rng = np.random.default_rng(seed)
    d_lo = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((d_lo, d_lo)))
    A = Q @ np.diag(eigs) @ Q.T
    spec = QuadBilevelSpec(
        A=0.5 * (A + A.T), B=B_scale * rng.standard_normal((d_lo, d_up)),
        b=rng.standard_normal(d_lo), y_target=rng.standard_normal(d_lo), lam=0.5,
    )
    oracle, exact = make_quadratic(spec, rng_seed=0)
    c = oracle.constants
    v_min = np.linalg.eigh(spec.A)[1][:, 0]
    pair = IteratePair(rng.standard_normal(d_up), spec.y_target + c.C_fy * v_min)
    bias = exact.neumann_expectation(pair, K) - exact.surrogate_grad(pair.x, pair.y)
    assert np.linalg.norm(bias) <= bias_bound(c, K).bound + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    eigs=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
    d_up=st.integers(1, 4),
    sin_amp=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 12),
)
def test_estimator_mean_is_the_exact_expectation(eigs, d_up, sin_amp, seed, K):
    # with sigma_f = 0 the quadratic's estimate is exact for each drawn k, so
    # one draw per k in 0..K-1, averaged, is the expectation over k
    rng = np.random.default_rng(seed)
    d_lo = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((d_lo, d_lo)))
    A = Q @ np.diag(eigs) @ Q.T
    spec = QuadBilevelSpec(
        A=0.5 * (A + A.T), B=rng.standard_normal((d_lo, d_up)),
        b=rng.standard_normal(d_lo), y_target=rng.standard_normal(d_lo),
        lam=0.5, sin_amp=sin_amp,
    )
    oracle, exact = make_quadratic(spec, rng_seed=0)
    cfg = NeumannConfig.from_constants(oracle.constants, K)
    pair = IteratePair(rng.standard_normal(d_up), rng.standard_normal(d_lo))
    by_k = {}
    root = SampleToken.root(seed)
    for i in range(100 * K):
        s = estimate(oracle, pair, cfg, root.child(i))
        by_k.setdefault(s.k_drawn, s.value)
        if len(by_k) == K:
            break
    assert sorted(by_k) == list(range(K))
    values = np.array([by_k[k] for k in range(K)])
    grad_x_f = oracle.grad_x_f_sample(pair, root)
    # the rounding scale: the gradient and the largest correction subtracted from it
    scale = max(np.abs(grad_x_f).max(), np.abs(values - grad_x_f).max())
    err = np.abs(values.mean(axis=0) - exact.neumann_expectation(pair, K)).max()
    assert err <= 1e-12 * scale


class TestChooseK:
    def test_nonconvex_frozen_example(self, unit_constants):
        # ceil(2 * ln(1000)) = 14
        assert choose_K_nonconvex(unit_constants, 1000) == 14

    def test_nonconvex_degenerate(self):
        c = ProblemConstants(mu_g=1.0, L_g=1.0, C_gxy=1.0, C_fy=1.0,
                             L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0)
        assert choose_K_nonconvex(c, 1) == 1

    def test_nonconvex_log_difference(self, unit_constants):
        k_large = choose_K_nonconvex(unit_constants, 10**6)
        k_small = choose_K_nonconvex(unit_constants, 10**3)
        expected = 2.0 * math.log(10**3)
        assert abs((k_large - k_small) - expected) <= 1.0

    def test_strongly_convex_frozen_example(self, unit_constants):
        # ceil(1 * ln(100)) = 5
        assert choose_K_strongly_convex(unit_constants, 100) == 5

    def test_strongly_convex_doubling(self, unit_constants):
        k2 = choose_K_strongly_convex(unit_constants, 2000)
        k1 = choose_K_strongly_convex(unit_constants, 1000)
        assert abs((k2 - k1) - math.log(2)) <= 1.0

    def test_bias_guarantee(self, unit_constants):
        for T in (100, 1000, 10_000):
            K = choose_K_nonconvex(unit_constants, T)
            assert bias_bound(unit_constants, K).bound <= 1.0 / T
            K = choose_K_strongly_convex(unit_constants, T)
            assert bias_bound(unit_constants, K).bound ** 2 <= 1.0 / T


class TestLipschitzLK:
    def test_only_first_term(self):
        c = ProblemConstants(mu_g=1.0, L_g=2.0, C_gxy=0.0, C_fy=1.0,
                             L_fx=1.0, L_fy=1.0, L_gxy=0.0, L_gyy=1.0)
        for K in (1, 3, 10):
            assert lipschitz_L_K(c, K) == pytest.approx(math.sqrt(2.0))

    def test_frozen_example(self):
        c = ProblemConstants(mu_g=1.0, L_g=2.0, C_gxy=1.0, C_fy=0.0,
                             L_fx=0.0, L_fy=1.0, L_gxy=0.0, L_gyy=0.0)
        # sqrt(6 * 1 * 1 * 3 / (2*1*2 - 1)) = sqrt(6)
        assert lipschitz_L_K(c, 3) == pytest.approx(math.sqrt(6.0))

    def test_monotone_in_K(self, unit_constants):
        vals = [lipschitz_L_K(unit_constants, K) for K in range(1, 15)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_singular_denominator(self):
        c = ProblemConstants(mu_g=1.0, L_g=1.0, C_gxy=1.0, C_fy=1.0,
                             L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=1.0)
        with pytest.raises(SingularDenominator):
            lipschitz_L_K(c, 2)

    def test_mu_equals_L_with_zero_cubic_term(self):
        c = ProblemConstants(mu_g=1.0, L_g=1.0, C_gxy=1.0, C_fy=1.0,
                             L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=0.0)
        assert np.isfinite(lipschitz_L_K(c, 4))
