from collections import Counter

import numpy as np
import pytest

import sustain.driver
import sustain.sampling
from sustain.driver import (
    AdamState,
    AlternatingSGD,
    Direction,
    DoubleLoop,
    Policy,
    RunConfig,
    TwoTimescale,
    adam_direction,
    resolve_schedule,
    run_baseline,
    run_sustain,
)
from sustain.errors import DimensionMismatch
from sustain.hypergrad import lipschitz_L_K
from sustain.momentum import Variant
from sustain.oracle import IteratePair
from sustain.sampling import STREAM_LOWER
from sustain.schedules import strongly_convex_params
from sustain.testbed import QuadBilevelSpec, make_quadratic


def _eta_one_cfg(T, seed=0, **kw):
    """Practical policy with c_eta large enough that eta clamps to 1."""
    return RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed, metric_stride=1,
                     c_eta=1e12, record_errors=False, **kw)


class TestAdam:
    def test_first_step_hand_value(self):
        state = AdamState.initial(1)
        d = adam_direction(state, np.array([2.0]))
        assert d[0] == pytest.approx(2.0 / (2.0 + 1e-8))

    def test_zero_input_zero_direction(self):
        state = AdamState.initial(3)
        assert np.all(adam_direction(state, np.zeros(3)) == 0.0)

    def test_constant_input_converges_to_sign(self):
        state = AdamState.initial(2)
        h = np.array([0.3, -7.0])
        for _ in range(5000):
            d = adam_direction(state, h)
        assert d == pytest.approx(np.sign(h), abs=1e-3)

    def test_counter_advances(self):
        state = AdamState.initial(1)
        adam_direction(state, np.ones(1))
        adam_direction(state, np.ones(1))
        assert state.t == 3


class TestRunSustain:
    def test_T_one_returns_first_iterate(self, quad5_noisy):
        oracle, exact = quad5_noisy
        x, records = run_sustain(oracle, exact, _eta_one_cfg(1))
        x2, _ = run_sustain(oracle, exact, _eta_one_cfg(1, seed=999))
        # a(1) = 1 regardless of seed: both runs return x_1 from their stream
        assert len(records) == 1
        assert x.shape == (2,)

    def test_hand_trace_two_steps(self):
        # lower 0.5 y^2 - x y, upper 0.5 y^2, start (1, 0), K = 1
        spec = QuadBilevelSpec(A=np.array([[1.0]]), B=np.array([[1.0]]),
                               b=np.zeros(1), y_target=np.zeros(1), lam=0.0)
        oracle, exact = make_quadratic(spec, rng_seed=0)
        cfg = _eta_one_cfg(2, K_override=1)
        cfg.initial_x, cfg.initial_y = [1.0], [0.0]
        cfg.metric_stride = 1
        _, records = run_sustain(oracle, exact, cfg)
        # t=0: alpha=beta=0.1; h_g = y-x = -1 -> y1 = 0.1; estimator = y0 = 0 -> x1 = 1
        # t=1: alpha1 = 0.1/2^(1/3); h_g = 0.1-1 = -0.9 -> y2 = 0.1+0.9*alpha1
        # estimator at (1, 0.1) = 0.1 -> x2 = 1 - 0.1*alpha1
        assert records[0].tracking_sq == pytest.approx(1.0)   # y*(1)=1, y0=0
        a1 = 0.1 / 2.0 ** (1.0 / 3.0)
        r1 = records[1]
        assert r1.alpha == pytest.approx(a1)
        # record at t=1 holds (x1, y1) = (1, 0.1)
        assert r1.tracking_sq == pytest.approx((0.1 - 1.0) ** 2)
        assert r1.grad_ell_sq == pytest.approx(exact.grad_ell(np.array([1.0]))[0] ** 2)

    def test_determinism(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = RunConfig(T=60, policy=Policy.PRACTICAL, seed=4, metric_stride=5)
        x1, r1 = run_sustain(oracle, exact, cfg)
        x2, r2 = run_sustain(oracle, exact, cfg)
        assert np.array_equal(x1, x2)
        assert r1 == r2

    def test_sample_accounting(self, quad5_noisy):
        oracle, exact = quad5_noisy
        T, K = 40, 3
        cfg = _eta_one_cfg(T, K_override=K)
        _, records = run_sustain(oracle, exact, cfg)
        assert records[-1].cumulative_samples == T * (1 + K + 3)
        counts = [r.cumulative_samples for r in records]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_zero_bias_deterministic_errors_are_zero(self):
        # identity lower Hessian and K = 1: estimator exact and deterministic
        rng = np.random.default_rng(3)
        spec = QuadBilevelSpec(A=np.eye(4), B=rng.standard_normal((4, 2)),
                               b=rng.standard_normal(4),
                               y_target=rng.standard_normal(4), lam=0.3)
        oracle, exact = make_quadratic(spec, rng_seed=0)
        cfg = RunConfig(T=30, policy=Policy.PRACTICAL, seed=0, metric_stride=1,
                        K_override=1, c_eta=1.0)
        _, records = run_sustain(oracle, exact, cfg)
        assert len(records) == 30
        for r in records:
            assert r.e_f_norm == pytest.approx(0.0, abs=1e-12)
            assert r.e_g_norm == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, quad5):
        oracle, exact = quad5
        cfg = _eta_one_cfg(3)
        cfg.initial_x = [0.0, 0.0, 0.0]
        with pytest.raises(DimensionMismatch):
            run_sustain(oracle, exact, cfg)

    def test_variants_run(self, quad5_noisy):
        oracle, exact = quad5_noisy
        for variant in (Variant.TWO_EVAL, Variant.OPTION_II):
            cfg = RunConfig(T=25, policy=Policy.PRACTICAL, seed=1,
                            metric_stride=5, variant=variant)
            x, records = run_sustain(oracle, exact, cfg)
            assert np.all(np.isfinite(x))

    def test_adam_direction_runs(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = RunConfig(T=25, policy=Policy.PRACTICAL, seed=1, metric_stride=5,
                        direction=Direction.ADAM)
        x, _ = run_sustain(oracle, exact, cfg)
        assert np.all(np.isfinite(x))


class TestBaselines:
    def test_reduction_invariant(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = _eta_one_cfg(100, seed=7)
        x_s, r_s = run_sustain(oracle, exact, cfg)
        x_b, r_b = run_baseline(oracle, exact, cfg, AlternatingSGD())
        assert np.array_equal(x_s, x_b)
        for a, b in zip(r_s, r_b):
            assert a.grad_ell_sq == b.grad_ell_sq
            assert a.tracking_sq == b.tracking_sq
            assert a.cumulative_samples == b.cumulative_samples

    def test_double_loop_one_equals_alternating(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = _eta_one_cfg(80, seed=3)
        x_a, r_a = run_baseline(oracle, exact, cfg, AlternatingSGD())
        x_d, r_d = run_baseline(oracle, exact, cfg, DoubleLoop(n_inner=1))
        assert np.array_equal(x_a, x_d)
        assert [r.tracking_sq for r in r_a] == [r.tracking_sq for r in r_d]

    def test_double_loop_sample_accounting(self, quad5_noisy):
        oracle, exact = quad5_noisy
        T, N, K = 25, 4, 2
        cfg = _eta_one_cfg(T, K_override=K)
        _, records = run_baseline(oracle, exact, cfg, DoubleLoop(n_inner=N))
        assert records[-1].cumulative_samples == T * (N + K + 3)

    def test_two_timescale_beta(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = _eta_one_cfg(10)
        _, records = run_baseline(oracle, exact, cfg, TwoTimescale(ratio=3.0))
        for r in records:
            assert r.beta == pytest.approx(3.0 * r.alpha ** (2.0 / 3.0))

    def test_alternating_converges_deterministic(self, quad5):
        oracle, exact = quad5
        cfg = RunConfig(T=200, policy=Policy.PRACTICAL, seed=0, metric_stride=1,
                        K_override=8, c_eta=1e12, record_errors=False)
        _, records = run_baseline(oracle, exact, cfg, AlternatingSGD())
        gaps = [r.ell_gap for r in records]
        # converges to a small plateau set by the truncation bias; the tail
        # may jitter there, so check overall decrease rather than per step
        assert min(gaps[-20:]) < 0.05 * gaps[0]
        assert max(gaps[-20:]) < 2.0 * min(gaps[-20:]) + 1e-9

    @pytest.mark.parametrize("kind", [AlternatingSGD(), TwoTimescale(), DoubleLoop(n_inner=3)])
    def test_adam_direction_ignored(self, quad5_noisy, kind):
        # baselines take plain steps whatever the config's direction
        oracle, exact = quad5_noisy
        plain = RunConfig(T=30, policy=Policy.PRACTICAL, seed=2, metric_stride=3)
        adam = RunConfig(T=30, policy=Policy.PRACTICAL, seed=2, metric_stride=3,
                         direction=Direction.ADAM)
        x_p, r_p = run_baseline(oracle, exact, plain, kind)
        x_a, r_a = run_baseline(oracle, exact, adam, kind)
        assert np.array_equal(x_p, x_a)
        assert r_p == r_a

    def test_invalid_kind_params(self):
        with pytest.raises(ValueError):
            TwoTimescale(ratio=0.5)
        with pytest.raises(ValueError):
            DoubleLoop(n_inner=0)


def test_return_index_uniform():
    from sustain.driver import _draw_return_index
    from sustain.sampling import SampleToken
    T = 8
    counts = np.zeros(T + 1)
    n = 10_000
    for seed in range(n):
        counts[_draw_return_index(SampleToken.root(seed), T)] += 1
    assert counts[0] == 0
    expected = n / T
    chi2 = float(np.sum((counts[1:] - expected) ** 2 / expected))
    # chi-square with 7 dof: p > 0.01 iff statistic < 18.48
    assert chi2 < 18.48


@pytest.mark.parametrize("testbed", ["quadratic", "hyperclean", "meta_linear"])
def test_each_token_path_drawn_once_per_run(sampled_testbeds, testbed, monkeypatch):
    # SUSTAIN evaluates every sample at x_t and x_{t-1}; the second evaluation
    # must reuse the first one's draws instead of resetting the generator to
    # the same stream again.  Streams are counted by key, one key per path
    oracle = sampled_testbeds[testbed]
    drawn = Counter()
    stream = sustain.sampling._stream

    def counting_stream(key):
        drawn[key] += 1
        return stream(key)

    monkeypatch.setattr(sustain.sampling, "_stream", counting_stream)
    T = 12
    cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=3, K_override=4,
                    c_eta=5.0, record_errors=False)
    run_sustain(oracle, None, cfg)
    assert sum(drawn.values()) >= T  # every iteration draws at least its k
    assert [p for p, n in drawn.items() if n > 1] == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, 1e308])
@pytest.mark.parametrize("kind", [None, AlternatingSGD(), TwoTimescale(), DoubleLoop(n_inner=3)])
def test_nonfinite_stops_before_record(quad5_noisy, kind, bad):
    # a bad sample at iteration t_bad: from the upper gradient, or for
    # DoubleLoop from the inner lower step j = 2.  NaN makes the tracker
    # non-finite, 1e308 only the step it scales; every kind stops the same way
    seed, T, t_bad = 5, 20, 7
    oracle, exact = quad5_noisy
    if isinstance(kind, DoubleLoop):
        name, bad_path = "grad_y_g_sample", (seed, t_bad, STREAM_LOWER, 2)
    else:
        name, bad_path = "grad_x_f_sample", None
    clean = getattr(oracle, name)

    def poisoned(pair, token):
        out = clean(pair, token)
        hit = token.path == bad_path if bad_path else token.path[1] == t_bad
        return np.full_like(out, bad) if hit else out

    cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed, metric_stride=1, base_alpha=10.0)
    run = run_sustain if kind is None else lambda o, e, c: run_baseline(o, e, c, kind)
    _, ref = run(oracle, exact, cfg)
    setattr(oracle, name, poisoned)
    x, records = run(oracle, exact, cfg)
    assert [r.t for r in records] == list(range(t_bad))
    assert records == ref[:t_bad]
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("K_override,alpha_override", [(None, None), (4, None), (None, 0.01)])
def test_strongly_convex_schedule_resolved_once(quad5, monkeypatch, K_override, alpha_override):
    oracle, _ = quad5
    c, T = oracle.constants, 500
    # the former two-call resolution: a provisional L_K, then the selected K
    first = strongly_convex_params(c, lipschitz_L_K(c, K_override or 1), T,
                                   alpha_override=alpha_override, K_override=K_override)
    expected = strongly_convex_params(c, lipschitz_L_K(c, first.K), T,
                                      alpha_override=alpha_override, K_override=first.K)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return strongly_convex_params(*args, **kwargs)

    monkeypatch.setattr(sustain.driver, "strongly_convex_params", counting)
    cfg = RunConfig(T=T, policy=Policy.STRONGLY_CONVEX, K_override=K_override,
                    alpha_override=alpha_override)
    schedule, K = resolve_schedule(oracle, cfg)
    assert len(calls) == 1
    assert K == expected.K
    assert schedule(0) == expected and schedule(T - 1) == expected
