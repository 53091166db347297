import numpy as np
import pytest

from sustain.errors import MissingHistory
from sustain.hypergrad import NeumannConfig, estimate
from sustain.momentum import (
    MomentumState,
    Variant,
    estimator_errors,
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


def _state(h_f, h_g, prev_x, prev_y, variant=Variant.TWO_EVAL):
    return MomentumState(
        h_f=np.array([h_f]), h_g=np.array([h_g]),
        prev_iterate=IteratePair([prev_x], [prev_y]), variant=variant,
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

    def test_eta_above_one_clamped(self, caplog):
        oracle, _ = _identity_quad()
        state = _state(h_f=0.0, h_g=99.0, prev_x=0.0, prev_y=9.0)
        with caplog.at_level("WARNING"):
            h = update_g(state, oracle, IteratePair([0.0], [2.0]), 1.5, TOK)
        assert h[0] == 2.0
        assert any("clamped" in rec.message for rec in caplog.records)


class TestUpdateF:
    def test_eta_one_resets(self):
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0, mu_g=1.0)
        state = _state(h_f=50.0, h_g=0.0, prev_x=0.0, prev_y=0.0)
        cur = IteratePair([0.0], [2.0])
        h, hvps, fresh = update_f(state, oracle, cur, 1.0, cfg, TOK)
        assert h == pytest.approx(estimate(oracle, cur, cfg, TOK).value)
        assert np.array_equal(fresh, h)
        assert hvps == 1

    def test_hand_value(self):
        # samples: 2.0 at cur, 1.5 at prev; h_prev=1, eta=0.25 -> 1.625
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0, mu_g=1.0)
        state = _state(h_f=1.0, h_g=0.0, prev_x=0.0, prev_y=1.5)
        h, hvps, _ = update_f(state, oracle, IteratePair([0.0], [2.0]), 0.25, cfg, TOK)
        assert h[0] == pytest.approx(1.625)
        assert hvps == 2

    def test_zero_bias_tracking(self):
        # mu_g = L_g, K=1: estimator deterministic and exact for all t
        oracle, exact = _identity_quad(lam=0.3)
        cfg = NeumannConfig(K=1, L_g=1.0, mu_g=1.0)
        state = MomentumState.initial(1, 1)
        pair = IteratePair([1.0], [0.5])
        root = SampleToken.root(9)
        for t in range(5):
            eta = 1.0 if t == 0 else 0.4
            h, _, _ = update_f(state, oracle, pair, eta, cfg, root.child(t))
            h_g = update_g(state, oracle, pair, eta, root.child(t, 1))
            state.commit(pair, h, h_g)
            assert h == pytest.approx(exact.surrogate_grad(pair.x, pair.y))
            pair = IteratePair(pair.x - 0.1 * h, pair.y - 0.1 * h_g)


class TestSingleEval:
    """Option II: one fresh evaluation, the stored previous sample value in
    place of the re-evaluation at the previous iterate."""

    def _setup(self, variant, h_f=1.0, last=None, prev_y=1.5):
        oracle, _ = _identity_quad()
        cfg = NeumannConfig(K=1, L_g=1.0, mu_g=1.0)
        state = _state(h_f=h_f, h_g=0.0, prev_x=0.0, prev_y=prev_y,
                       variant=variant)
        if last is not None:
            state.last_f_sample_value = np.array([last])
        return oracle, cfg, state

    def test_option_ii_hand_value(self):
        # fresh 2.0, stored 1.5, h_prev=1.0, eta=0.5 -> 2 + 0.5*(1 - 1.5) = 1.75
        oracle, cfg, state = self._setup(Variant.OPTION_II, last=1.5)
        h, hvps, fresh = update_f(state, oracle, IteratePair([0.0], [2.0]), 0.5, cfg, TOK)
        assert h[0] == pytest.approx(1.75)
        assert fresh[0] == pytest.approx(2.0)
        assert hvps == 1  # no re-evaluation at the previous iterate

    def test_options_agree_on_deterministic_oracle(self):
        # the stored value 1.5 is the sample at the previous iterate (y = 1.5)
        oracle, cfg, s1 = self._setup(Variant.TWO_EVAL)
        _, _, s2 = self._setup(Variant.OPTION_II, last=1.5)
        cur = IteratePair([0.0], [2.0])
        h1, hvps1, _ = update_f(s1, oracle, cur, 0.5, cfg, TOK)
        h2, hvps2, _ = update_f(s2, oracle, cur, 0.5, cfg, TOK)
        assert h1 == pytest.approx(h2)
        assert (hvps1, hvps2) == (2, 1)

    def test_eta_one_gives_fresh_value(self):
        for variant in (Variant.TWO_EVAL, Variant.OPTION_II):
            oracle, cfg, state = self._setup(variant, last=0.0)
            h, _, fresh = update_f(state, oracle, IteratePair([0.0], [2.0]), 1.0, cfg, TOK)
            assert h[0] == pytest.approx(2.0)
            assert np.array_equal(h, fresh)

    def test_option_ii_missing_history(self):
        oracle, cfg, state = self._setup(Variant.OPTION_II)
        with pytest.raises(MissingHistory):
            update_f(state, oracle, IteratePair([0.0], [2.0]), 0.5, cfg, TOK)


class TestEstimatorErrors:
    def test_deterministic_zero_bias_zero_errors(self):
        oracle, exact = _identity_quad(lam=0.2)
        cfg = NeumannConfig(K=1, L_g=1.0, mu_g=1.0)
        state = MomentumState.initial(1, 1)
        pair = IteratePair([1.0], [0.0])
        root = SampleToken.root(11)
        for t in range(4):
            eta = 1.0 if t == 0 else 0.5
            h_g = update_g(state, oracle, pair, eta, root.child(t, 0))
            h_f, _, _ = update_f(state, oracle, pair, eta, cfg, root.child(t, 1))
            state.commit(pair, h_f, h_g)
            e_f, e_g = estimator_errors(state, exact, pair, cfg)
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
        h_f, _, _ = update_f(state, oracle, pair, 1.0, cfg, tok.child(1))
        state.commit(pair, h_f, h_g)
        _, e_g = estimator_errors(state, exact, pair, cfg)
        noise = h_g - exact.grad_y_g_mean(pair)
        assert e_g == pytest.approx(float(np.linalg.norm(noise)))
