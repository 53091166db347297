import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sustain.hypergrad import NeumannConfig, estimate
from sustain.momentum import (
    MomentumState,
    tracker_errors,
    update_f,
    update_g,
)
from sustain.oracle import IteratePair
from sustain.sampling import SampleToken
from sustain.testbed import QuadBilevelSpec, make_quadratic


def _identity_quad(lam=0.0, B=1.0):
    """1-d lower 0.5*y^2 - B*x*y: grad_y g = y - B*x, mu_g = L_g = 1."""
    spec = QuadBilevelSpec(
        A=np.array([[1.0]]), B=np.array([[B]]), b=np.zeros(1),
        y_target=np.zeros(1), lam=lam,
    )
    return make_quadratic(spec, rng_seed=0)


def _state(h_f, h_g, prev_x, prev_y):
    return MomentumState(
        h_f=np.array([h_f]), h_g=np.array([h_g]),
        prev_iterate=IteratePair([prev_x], [prev_y]),
    )


TOK = SampleToken.root(0).child(0)


class TestUpdateG:
    def test_eta_one_resets(self):
        oracle, _ = _identity_quad()
        state = _state(h_f=0.0, h_g=123.0, prev_x=0.0, prev_y=50.0)
        h = update_g(state, oracle, IteratePair([0.0], [2.0]), 1.0, TOK)
        assert h[0] == 2.0

    def test_hand_value(self):
        # h_prev=1, eta=0.5, grad(cur)=2, grad(prev)=1.5 -> 1.75
        oracle, _ = _identity_quad(B=0.0)
        state = _state(h_f=0.0, h_g=1.0, prev_x=0.0, prev_y=1.5)
        h = update_g(state, oracle, IteratePair([0.0], [2.0]), 0.5, TOK)
        assert h[0] == pytest.approx(1.75)

    def test_telescoping(self):
        # deterministic oracle with h_prev = grad(prev) gives h = grad(cur)
        oracle, _ = _identity_quad()
        prev = IteratePair([1.0], [3.0])
        cur = IteratePair([0.5], [2.0])
        g_prev = oracle.grad_y_g_sample(prev, TOK)
        state = _state(h_f=0.0, h_g=g_prev[0], prev_x=1.0, prev_y=3.0)
        h = update_g(state, oracle, cur, 0.3, TOK)
        assert h == pytest.approx(oracle.grad_y_g_sample(cur, TOK))

    def test_negative_eta_raises(self):
        oracle, _ = _identity_quad()
        state = _state(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            update_g(state, oracle, IteratePair([0.0], [0.0]), -0.1, TOK)


class _CountingOracle:
    """Forwards to an oracle and counts every method call."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def test_eta_outside_unit_interval_rejected():
    # eta is the caller's: the trackers reject it, before any oracle call,
    # instead of clamping it a second time
    oracle, _ = _identity_quad()
    cfg = NeumannConfig(K=1, L_g=1.0)
    cur = IteratePair([0.0], [2.0])
    for eta in (1.5, -0.1, float("nan"), float("inf")):
        counting = _CountingOracle(oracle)
        state = _state(h_f=1.0, h_g=99.0, prev_x=0.0, prev_y=9.0)
        with pytest.raises(ValueError, match="eta_g"):
            update_g(state, counting, cur, eta, TOK)
        with pytest.raises(ValueError, match="eta_f"):
            update_f(state, counting, cur, eta, cfg, TOK)
        assert counting.calls == 0


class TestUpdateF:
    def test_eta_one_resets(self):
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0)
        state = _state(h_f=50.0, h_g=0.0, prev_x=0.0, prev_y=0.0)
        cur = IteratePair([0.0], [2.0])
        h, hvps = update_f(state, oracle, cur, 1.0, cfg, TOK)
        assert h == pytest.approx(estimate(oracle, cur, cfg, TOK).value)
        assert hvps == 1

    def test_hand_value(self):
        # samples: 2.0 at cur, 1.5 at prev; h_prev=1, eta=0.25 -> 1.625
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0)
        state = _state(h_f=1.0, h_g=0.0, prev_x=0.0, prev_y=1.5)
        h, hvps = update_f(state, oracle, IteratePair([0.0], [2.0]), 0.25, cfg, TOK)
        assert h[0] == pytest.approx(1.625)
        assert hvps == 2

    @settings(max_examples=200, deadline=None)
    @given(eta=st.floats(0.0, 1.0, exclude_max=True),
           h_prev=st.floats(-1e3, 1e3), y_cur=st.floats(-1e3, 1e3),
           y_prev=st.floats(-1e3, 1e3))
    def test_recursion_on_the_sample_at_both_iterates(self, eta, h_prev, y_cur, y_prev):
        # the correction re-evaluates the current sample at the previous
        # iterate: s_prev is the one-point estimate there, bit for bit
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0)
        state = _state(h_f=h_prev, h_g=0.0, prev_x=0.0, prev_y=y_prev)
        cur = IteratePair([0.0], [y_cur])
        s_cur = estimate(oracle, cur, cfg, TOK).value
        s_prev = estimate(oracle, state.prev_iterate, cfg, TOK).value
        h, hvps = update_f(state, oracle, cur, eta, cfg, TOK)
        assert np.array_equal(h, eta * s_cur + (1.0 - eta) * (state.h_f + s_cur - s_prev))
        assert hvps == 2

    def test_zero_bias_tracking(self):
        # mu_g = L_g, K=1: estimator deterministic and exact for all t
        oracle, exact = _identity_quad(lam=0.3)
        cfg = NeumannConfig(K=1, L_g=1.0)
        state = MomentumState.initial(1, 1)
        pair = IteratePair([1.0], [0.5])
        root = SampleToken.root(9)
        for t in range(5):
            eta = 1.0 if t == 0 else 0.4
            h, _ = update_f(state, oracle, pair, eta, cfg, root.child(t))
            h_g = update_g(state, oracle, pair, eta, root.child(t, 1))
            state.commit(pair, h, h_g)
            assert h == pytest.approx(exact.surrogate_grad(pair.x, pair.y))
            pair = IteratePair(pair.x - 0.1 * h, pair.y - 0.1 * h_g)


class TestSingleEval:
    """At eta_f = 1 the upper tracker is the fresh sample, evaluated at x_t
    only."""

    def test_eta_one_gives_fresh_value(self):
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0)
        state = _state(h_f=1.0, h_g=0.0, prev_x=0.0, prev_y=1.5)
        h, hvps = update_f(state, oracle, IteratePair([0.0], [2.0]), 1.0, cfg, TOK)
        assert h[0] == pytest.approx(2.0)
        assert hvps == 1  # no re-evaluation at the previous iterate


class TestEstimatorErrors:
    def test_deterministic_zero_bias_zero_errors(self):
        oracle, exact = _identity_quad(lam=0.2)
        cfg = NeumannConfig(K=1, L_g=1.0)
        state = MomentumState.initial(1, 1)
        pair = IteratePair([1.0], [0.0])
        root = SampleToken.root(11)
        for t in range(4):
            eta = 1.0 if t == 0 else 0.5
            h_g = update_g(state, oracle, pair, eta, root.child(t, 0))
            h_f, _ = update_f(state, oracle, pair, eta, cfg, root.child(t, 1))
            state.commit(pair, h_f, h_g)
            e_f, e_g = tracker_errors(state.h_f, state.h_g, exact, pair, cfg.K)
            assert e_f == pytest.approx(0.0, abs=1e-12)
            assert e_g == pytest.approx(0.0, abs=1e-12)
            pair = IteratePair(pair.x - 0.1 * h_f, pair.y - 0.1 * h_g)

    def test_eta_one_error_is_single_sample_noise(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = NeumannConfig.from_constants(oracle.constants, 4)
        state = MomentumState.initial(2, 5)
        pair = IteratePair(np.zeros(2), np.zeros(5))
        tok = SampleToken.root(12).child(0)
        h_g = update_g(state, oracle, pair, 1.0, tok.child(0))
        h_f, _ = update_f(state, oracle, pair, 1.0, cfg, tok.child(1))
        state.commit(pair, h_f, h_g)
        _, e_g = tracker_errors(state.h_f, state.h_g, exact, pair, cfg.K)
        noise = h_g - exact.grad_y_g_mean(pair)
        assert e_g == pytest.approx(float(np.linalg.norm(noise)))
