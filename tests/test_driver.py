import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bit_reference
import sustain.driver
import sustain.hypergrad
import sustain.sampling
from sustain.driver import (
    DoubleLoop,
    Policy,
    RunConfig,
    TwoTimescale,
    resolve_schedule,
    run_baseline,
    run_sustain,
)
from sustain.errors import DimensionMismatch, InvalidConstants
from sustain.harness import ExperimentConfig, make_problem
from sustain.hypergrad import lipschitz_L_K
from sustain.momentum import tracker_errors
from sustain.oracle import IteratePair
from sustain.sampling import STREAM_LOWER, STREAM_RETURN, SampleToken
from sustain.schedules import strongly_convex_params
from sustain.testbed import (
    QuadBilevelSpec,
    QuadraticExact,
    make_quadratic,
    random_quadratic_spec,
)


def _eta_one_cfg(T, seed=0, **kw):
    """Practical policy with c_eta large enough that eta clamps to 1."""
    return RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed, metric_stride=1,
                     c_eta=1e12, record_errors=False, **kw)


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


class TestBaselines:
    def test_reduction_invariant(self, quad5_noisy):
        oracle, exact = quad5_noisy
        cfg = _eta_one_cfg(100, seed=7)
        x_s, r_s = run_sustain(oracle, exact, cfg)
        x_b, r_b = run_baseline(oracle, exact, cfg, DoubleLoop())
        assert np.array_equal(x_s, x_b)
        for a, b in zip(r_s, r_b):
            assert a.grad_ell_sq == b.grad_ell_sq
            assert a.tracking_sq == b.tracking_sq
            assert a.cumulative_samples == b.cumulative_samples

    @settings(max_examples=10, deadline=None)
    @given(
        spec_seed=st.integers(0, 2**32 - 1),
        d_up=st.integers(1, 4),
        d_lo=st.integers(1, 5),
        sigma=st.floats(0.0, 1.0),
        sin_amp=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 6),
        T=st.integers(1, 600),
        stride=st.integers(1, 50),
        base_alpha=st.floats(0.01, 0.3),
    )
    @example(spec_seed=1, d_up=3, d_lo=4, sigma=0.5, sin_amp=0.5, seed=2, K=3, T=515,
             stride=7, base_alpha=0.2)
    def test_reduction_invariant_for_random_configurations(
            self, spec_seed, d_up, d_lo, sigma, sin_amp, seed, K, T, stride, base_alpha):
        # c_eta = c_eta_g = 1e18 pins both momentum weights to 1 at every t;
        # T up to 600 crosses the 256-iteration token-block boundaries
        spec = random_quadratic_spec(np.random.default_rng(spec_seed), d_up=d_up,
                                     d_lo=d_lo, sigma_f=sigma, sigma_g=sigma,
                                     sin_amp=sin_amp)
        oracle, exact = make_quadratic(spec, rng_seed=spec_seed)
        cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed, metric_stride=stride,
                        K_override=K, base_alpha=base_alpha, c_eta=1e18, c_eta_g=1e18,
                        record_errors=False)
        x_s, r_s = run_sustain(oracle, exact, cfg)
        x_b, r_b = run_baseline(oracle, exact, cfg, DoubleLoop())
        assert x_s.tobytes() == x_b.tobytes()
        assert r_s == r_b

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
        _, records = run_baseline(oracle, exact, cfg, DoubleLoop())
        gaps = [r.ell_gap for r in records]
        # converges to a small plateau set by the truncation bias; the tail
        # may jitter there, so check overall decrease rather than per step
        assert min(gaps[-20:]) < 0.05 * gaps[0]
        assert max(gaps[-20:]) < 2.0 * min(gaps[-20:]) + 1e-9

    def test_invalid_kind_params(self):
        with pytest.raises(ValueError):
            TwoTimescale(ratio=0.5)
        for ratio in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ratio must exceed 1 and be finite"):
                TwoTimescale(ratio=ratio)
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


@pytest.mark.parametrize("testbed", ["quadratic", "hyperclean", "meta_linear"])
@pytest.mark.parametrize("kind", [None, DoubleLoop(), TwoTimescale(), DoubleLoop(n_inner=3)])
def test_cumulative_hvps_count_every_action_call(sampled_testbeds, testbed, kind,
                                                 count_oracle_calls):
    # the records count each Hessian action the run calls, as the
    # benchmark's tracer counts them; SUSTAIN's momentum makes it evaluate
    # most samples at two points
    oracle = sampled_testbeds[testbed]
    counts = count_oracle_calls(oracle)
    cfg = RunConfig(T=30, policy=Policy.PRACTICAL, seed=4, metric_stride=7, K_override=5,
                    base_alpha=0.01, record_errors=False)
    _, records = (run_sustain(oracle, None, cfg) if kind is None
                  else run_baseline(oracle, None, cfg, kind))
    assert records[-1].t == cfg.T - 1
    assert counts["action"] == records[-1].cumulative_hvps > 0
    assert counts["hess_xy_g_sample"] == (2 * cfg.T - 1 if kind is None else cfg.T)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, 1e308, -np.inf])
@pytest.mark.parametrize("kind", [None, DoubleLoop(), TwoTimescale(), DoubleLoop(n_inner=3)])
def test_nonfinite_stops_before_record(quad5_noisy, kind, bad, monkeypatch):
    # a bad sample at iteration t_bad: from the upper gradient, or for a
    # DoubleLoop with n_inner > 1 from the inner lower step j = 2.  NaN makes
    # the tracker non-finite, 1e308 only the step it scales, -inf an iterate
    # entry +inf with no NaN (eta = 1 at base_alpha 10); every kind stops the
    # same way
    seed, T, t_bad = 5, 20, 7
    oracle, exact = quad5_noisy
    if getattr(kind, "n_inner", 1) > 1:
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
    # the returned index is drawn over the completed iterates x_1..x_{t_bad}
    # only, x_{t_bad} being the last one the check let through
    draws, seen = _watch_return_index(monkeypatch), _watch_iterates(oracle, name)
    x, _ = run(oracle, exact, cfg)
    [(n, a)] = draws
    assert n == t_bad and 1 <= a <= t_bad
    assert x is seen[a]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("kind", [None, DoubleLoop(), TwoTimescale(), DoubleLoop(n_inner=3)])
def test_finite_iterate_with_overflowing_norm_runs_to_T(quad5_noisy, kind):
    # an upper gradient of 1e200 drives the iterates to the order of 1e200:
    # every entry is finite while ||x||^2 overflows, so the run must not stop
    oracle, _ = quad5_noisy
    clean = oracle.grad_x_f_sample
    oracle.grad_x_f_sample = lambda pair, token: np.full_like(clean(pair, token), 1e200)
    cfg = RunConfig(T=20, policy=Policy.PRACTICAL, seed=5, metric_stride=1, base_alpha=0.5)
    x, records = (run_sustain(oracle, None, cfg) if kind is None
                  else run_baseline(oracle, None, cfg, kind))
    assert [r.t for r in records] == list(range(cfg.T))
    assert np.all(np.isfinite(x)) and np.isinf(x.dot(x))


def _watch_return_index(monkeypatch):
    """Record (number of completed iterates, drawn index) of every run."""
    draws = []
    draw = sustain.driver._draw_return_index

    def watched(root, n):
        draws.append((n, draw(root, n)))
        return draws[-1][1]

    monkeypatch.setattr(sustain.driver, "_draw_return_index", watched)
    return draws


def _watch_iterates(oracle, name):
    """x_t by t, from the first ``name`` call of iteration t (made at x_t)."""
    seen = {}
    sample = getattr(oracle, name)

    def watched(pair, token):
        seen.setdefault(token.path[1], pair.x)
        return sample(pair, token)

    setattr(oracle, name, watched)
    return seen


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_failed_run_return_index_uniform(onedim_quad, monkeypatch):
    # a run that fails at t_bad returns x_a with a uniform on 1..t_bad
    oracle, _ = onedim_quad
    T, t_bad, n_seeds = 30, 4, 2000
    clean = oracle.grad_x_f_sample

    def poisoned(pair, token):
        out = clean(pair, token)
        return np.full_like(out, np.nan) if token.path[1] == t_bad else out

    oracle.grad_x_f_sample = poisoned
    draws, seen = _watch_return_index(monkeypatch), _watch_iterates(oracle, "grad_x_f_sample")
    counts = np.zeros(t_bad + 1)
    for seed in range(n_seeds):
        seen.clear()
        cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed, K_override=1,
                        record_errors=False)
        x, _ = run_sustain(oracle, None, cfg)
        n, a = draws[-1]
        assert n == t_bad and x is seen[a]
        counts[a] += 1
    assert counts[0] == 0
    expected = n_seeds / t_bad
    chi2 = float(np.sum((counts[1:] - expected) ** 2 / expected))
    # chi-square with 3 dof: p > 0.01 iff statistic < 11.34
    assert chi2 < 11.34


@pytest.mark.parametrize("testbed", ["quadratic", "hyperclean", "meta_linear"])
def test_block_tokens_match_scalar_tokens(sampled_testbeds, testbed, monkeypatch):
    # iteration tokens come from blocks whose keys are derived together; the
    # runs must equal runs on tokens made one by one with child(t)
    oracle = sampled_testbeds[testbed]
    T = 2 * sustain.driver._BLOCK + 3
    cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=6, K_override=4, c_eta=5.0,
                    record_errors=False)
    kinds = [None, DoubleLoop(), TwoTimescale(), DoubleLoop(n_inner=3)]

    def run(kind):
        return (run_sustain(oracle, None, cfg) if kind is None
                else run_baseline(oracle, None, cfg, kind))

    blocks = []
    children = SampleToken.children

    def counting(self, start, stop):
        blocks.append((start, stop))
        return children(self, start, stop)

    monkeypatch.setattr(SampleToken, "children", counting)
    blocked = [run(kind) for kind in kinds]
    assert blocks == [(0, 256), (256, 512), (512, 515)] * len(kinds)
    monkeypatch.setattr(SampleToken, "children",
                        lambda self, start, stop: [self.child(t) for t in range(start, stop)])
    for kind, (x, records) in zip(kinds, blocked):
        x_scalar, records_scalar = run(kind)
        assert x.tobytes() == x_scalar.tobytes()
        assert records == records_scalar


@pytest.mark.parametrize("K_override,alpha_override", [(None, None), (4, None), (None, 0.01)])
def test_strongly_convex_schedule_resolved_once(quad5, monkeypatch, K_override, alpha_override):
    # K is chosen in resolve_schedule alone, by at most one chooser call, and
    # the strongly-convex schedule's L_K comes from that same K
    oracle, _ = quad5
    c, T = oracle.constants, 500
    calls = []

    def counting(name):
        def choose(*args):
            calls.append(name)
            return getattr(sustain.hypergrad, name)(*args)
        return choose

    for name in ("choose_K_nonconvex", "choose_K_strongly_convex"):
        monkeypatch.setattr(sustain.driver, name, counting(name))
    for policy in Policy:
        calls.clear()
        # alpha_override is a strongly-convex setting; the others refuse it
        cfg = RunConfig(T=T, policy=policy, K_override=K_override,
                        alpha_override=(alpha_override if policy is Policy.STRONGLY_CONVEX
                                        else None))
        schedule, K = resolve_schedule(oracle, cfg)
        chooser = ("choose_K_strongly_convex" if policy is Policy.STRONGLY_CONVEX
                   else "choose_K_nonconvex")
        assert calls == ([] if K_override else [chooser])
        assert K == (K_override or getattr(sustain.hypergrad, chooser)(c, T))
        if policy is Policy.STRONGLY_CONVEX:
            expected = strongly_convex_params(c, lipschitz_L_K(c, K), alpha_override)
            assert schedule(0) == expected and schedule(T - 1) == expected


def test_k_rule_past_its_bound_is_refused():
    # the default hyper-cleaning problem's rule asks K = 67,011,488 at T = 100;
    # an explicit K of any size is taken as given
    oracle, _ = make_problem(ExperimentConfig.from_mapping({"problem.kind": "hyperclean"}))
    cfg = RunConfig(T=100, policy=Policy.PRACTICAL)
    with pytest.raises(ValueError, match=r"^the K rule chose K = 67011488 at T = 100, "
                                         r"above 10000; set schedule\.K"):
        resolve_schedule(oracle, cfg)
    assert resolve_schedule(oracle, replace(cfg, K_override=67_011_488))[1] == 67_011_488


@pytest.mark.parametrize("field,value,message", [
    ("c_eta", -1.0, "c_eta and c_eta_g must be nonnegative"),
    ("c_eta_g", -0.5, "c_eta and c_eta_g must be nonnegative"),
    ("alpha_override", 0.0, "alpha_override must be positive"),
    ("alpha_override", -0.1, "alpha_override must be positive"),
    ("K_override", 0, "K_override must be >= 1"),
    ("c_eta", float("nan"), "c_eta and c_eta_g must be nonnegative"),
    ("c_eta_g", float("nan"), "c_eta and c_eta_g must be nonnegative"),
    ("alpha_override", float("nan"), "alpha_override must be positive"),
    ("base_alpha", float("nan"), "base_alpha must be positive and finite"),
    ("base_alpha", float("inf"), "base_alpha must be positive and finite"),
    ("base_alpha", 0.0, "base_alpha must be positive and finite"),
    ("base_alpha", -0.1, "base_alpha must be positive and finite"),
    # a run never starts from a non-finite iterate, so it never returns one
    ("initial_x", [float("nan"), 0.0], "initial_x and initial_y must be finite"),
    ("initial_x", [0.0, float("inf")], "initial_x and initial_y must be finite"),
    ("initial_y", [0.0, float("-inf")], "initial_x and initial_y must be finite"),
    ("initial_y", [float("nan")] * 5, "initial_x and initial_y must be finite"),
    # the practical policy has no use for it: refused, not dropped
    ("alpha_override", 0.01, "alpha_override applies only to the strongly-convex policy"),
    # the policy's value, not its enum member
    ("policy", "practical", "policy must be a Policy, got 'practical'"),
])
def test_run_config_rejects_bad_policy_knobs(field, value, message):
    # rejected when the config is made, not at t = 1 inside the loop
    with pytest.raises(ValueError, match=message):
        RunConfig(T=5, **{field: value})


@pytest.mark.parametrize("constants,K_override,message", [
    ({"L_gyy": -1.0}, None, "L_gyy is negative"),
    ({"C_fy": float("nan")}, 3, "C_fy is not finite"),
    ({"C_fy": float("nan")}, None, "C_fy is not finite"),
    ({"mu_g": 3.0}, None, "mu_g > L_g"),
])
@pytest.mark.parametrize("kind", [None, DoubleLoop(), DoubleLoop(n_inner=2)])
def test_invalid_constants_fail_before_any_oracle_call(quad5, constants, K_override,
                                                       message, kind):
    # the constants check themselves when they are made, so the oracle that
    # would carry them into a run of this kind and K cannot be built at all
    with pytest.raises(InvalidConstants, match=f"^invalid problem constants: {message}"):
        replace(quad5[0].constants, **constants)


def test_run_config_accepts_zero_momentum_coefficients():
    RunConfig(T=5, c_eta=0.0, c_eta_g=0.0)


def test_run_config_accepts_infinite_momentum_coefficients():
    # c_eta = inf clamps eta to 1 throughout
    RunConfig(T=5, c_eta=float("inf"), c_eta_g=float("inf"))


def test_zero_momentum_coefficient_noted_once_per_run(quad5, caplog):
    oracle, exact = quad5
    cfg = RunConfig(T=300, c_eta=0.0, K_override=1, record_errors=False)
    with caplog.at_level(logging.INFO, logger="sustain"):
        run_sustain(oracle, exact, cfg)
    notes = [r for r in caplog.records if "pure correction-only momentum" in r.getMessage()]
    assert len(notes) == 1


class _NoExpectation(QuadraticExact):
    def neumann_expectation(self, pair, K):
        raise NotImplementedError


def test_records_without_closed_form_expectation(quad5_noisy):
    # the tracker-error columns stay empty; every other column and the
    # returned iterate are those of a run that records no tracker errors
    oracle, _ = quad5_noisy
    exact = _NoExpectation(oracle)
    with pytest.raises(NotImplementedError):
        tracker_errors(np.zeros(2), np.zeros(5), exact, IteratePair(np.zeros(2), np.zeros(5)), 1)
    cfg = RunConfig(T=300, seed=3, K_override=3, metric_stride=7)
    x_on, rec_on = run_sustain(oracle, exact, cfg)
    x_off, rec_off = run_sustain(oracle, exact, replace(cfg, record_errors=False))
    assert np.array_equal(x_on, x_off)
    assert rec_on == rec_off
    assert all(r.e_f_norm is None and r.e_g_norm is None for r in rec_on)
    assert all(r.grad_ell_sq is not None for r in rec_on)


def _per_point_values(oracle, exact, K, x, y, h_f, h_g, errors):
    """The computed fields of one record by the former per-point formulas."""
    s, L_g = oracle.spec, oracle.constants.L_g
    A_inv = np.linalg.inv(s.A)
    ys = A_inv @ (s.B @ x + s.b)
    g = s.lam * x + s.B.T @ (A_inv @ (ys - s.y_target))
    ell = 0.5 * float(np.sum((ys - s.y_target) ** 2)) + 0.5 * s.lam * float(np.sum(x**2))
    if s.sin_amp:
        g = g + s.sin_amp * np.cos(x)
        ell += s.sin_amp * float(np.sum(np.sin(x)))
    dy = y - ys
    e_f = e_g = None
    if errors:
        M = np.eye(oracle.d_lo) - s.A / L_g
        acc, p = np.zeros(oracle.d_lo), y - s.y_target
        for _ in range(K):
            acc += p
            p = M @ p
        grad_x_f = s.lam * x + (s.sin_amp * np.cos(x) if s.sin_amp else 0.0)
        e_f = float(np.linalg.norm(h_f - (grad_x_f - (-s.B.T) @ (acc / L_g))))
        e_g = float(np.linalg.norm(h_g - (s.A @ y - s.B @ x - s.b)))
    return {
        "grad_ell_sq": float(g @ g),
        "ell_gap": None if exact.ell_star is None else ell - exact.ell_star,
        "tracking_sq": float(dy @ dy),
        "e_f_norm": e_f,
        "e_g_norm": e_g,
        "upper_loss": float(oracle.upper_loss(IteratePair(x, y))),
    }


_EXACT_FIELDS = ("grad_ell_sq", "ell_gap", "tracking_sq", "e_f_norm", "e_g_norm")
_FLOAT_FIELDS = ("alpha", "beta", "eta_f", "eta_g", *_EXACT_FIELDS, "upper_loss")


def _check_block_records(oracle, exact, cfg, kind, monkeypatch, poison_t=None):
    """Run with the tracker updates and the record blocks watched; every
    record must equal the per-point formulas at its committed (x_t, y_t, h_f,
    h_g), and without an exact oracle hold the one-point ``upper_loss`` only.
    Iteration t makes the t-th call of each update, so the committed
    iterations are the first T calls."""
    lower, upper, blocks = [], [], []
    update_g, update_f = sustain.driver.update_g, sustain.driver.update_f
    records_of = sustain.driver._records

    def watched_update_g(*args):
        lower.append(update_g(*args))
        return lower[-1]

    def watched_update_f(oracle, cur, *args):
        out = update_f(oracle, cur, *args)
        upper.append((cur.x, cur.y, out[0]))
        return out

    def watched_records(rows, *args):
        blocks.append(len(rows))
        return records_of(rows, *args)

    monkeypatch.setattr(sustain.driver, "update_g", watched_update_g)
    monkeypatch.setattr(sustain.driver, "update_f", watched_update_f)
    monkeypatch.setattr(sustain.driver, "_records", watched_records)
    if poison_t is not None:
        clean = oracle.grad_x_f_sample
        monkeypatch.setattr(oracle, "grad_x_f_sample", lambda pair, token: (
            np.full_like(clean(pair, token), np.nan) if token.path[1] == poison_t
            else clean(pair, token)))
    _, records = (run_sustain(oracle, exact, cfg) if kind is None
                  else run_baseline(oracle, exact, cfg, kind))
    T = cfg.T if poison_t is None else poison_t
    stride = cfg.metric_stride
    assert [r.t for r in records] == [t for t in range(T)
                                      if t % stride == 0 or t == cfg.T - 1]
    # a poisoned run also makes the calls of the iteration that it stops at
    assert len(lower) == len(upper) == T + (poison_t is not None)
    committed = [(*u, h_g) for u, h_g in zip(upper[:T], lower)]
    assert max(blocks) <= sustain.driver._BLOCK and sum(blocks) == len(records)
    errors = kind is None and cfg.record_errors
    for r in records:
        if exact is None:
            x, y = committed[r.t][:2]
            want = {**dict.fromkeys(_EXACT_FIELDS),
                    "upper_loss": oracle.upper_loss(IteratePair(x, y))}
        else:
            want = _per_point_values(oracle, exact, cfg.K_override,
                                     *committed[r.t], errors)
        got = {name: getattr(r, name) for name in want}
        assert repr(got) == repr(want), r.t
        for name in _FLOAT_FIELDS:
            v = getattr(r, name)
            assert v is None or type(v) is float, (r.t, name, type(v))
    return records


_KINDS = [None, DoubleLoop(), TwoTimescale(), DoubleLoop(n_inner=3)]


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("record_errors", [True, False])
def test_block_records_equal_per_point_formulas(kind, stride, record_errors, monkeypatch):
    # three token blocks, the last one partial; sin_amp = 0 keeps ell_star
    rng = np.random.default_rng(50)
    oracle, exact = make_quadratic(
        random_quadratic_spec(rng, d_up=3, d_lo=6, sigma_f=0.3, sigma_g=0.3), rng_seed=4)
    cfg = RunConfig(T=2 * sustain.driver._BLOCK + 3, policy=Policy.PRACTICAL, seed=8,
                    metric_stride=stride, K_override=5, c_eta=10.0,
                    record_errors=record_errors)
    records = _check_block_records(oracle, exact, cfg, kind, monkeypatch)
    assert records[0].ell_gap is not None
    assert (records[-1].e_f_norm is not None) == (kind is None and record_errors)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", _KINDS)
def test_block_records_of_a_run_stopped_mid_block(kind, monkeypatch):
    # a NaN upper gradient at t = 356 stops the run inside the second block;
    # the rows held since t = 256 still become records
    rng = np.random.default_rng(51)
    oracle, exact = make_quadratic(
        random_quadratic_spec(rng, d_up=4, d_lo=9, sigma_f=0.3, sigma_g=0.3,
                              sin_amp=0.5), rng_seed=5)
    cfg = RunConfig(T=2 * sustain.driver._BLOCK + 3, policy=Policy.PRACTICAL, seed=9,
                    metric_stride=1, K_override=3, c_eta=10.0)
    records = _check_block_records(oracle, exact, cfg, kind, monkeypatch, poison_t=356)
    assert records[-1].t == 355 and records[-1].ell_gap is None


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("poison_t", [None, 300])
@pytest.mark.parametrize("kind", [None, DoubleLoop(n_inner=3)])
@pytest.mark.parametrize("problem", ["hyperclean", "meta_linear"])
def test_block_upper_loss_without_exact_oracle(problem, kind, poison_t, sampled_testbeds,
                                               monkeypatch):
    # exact=None leaves upper_loss the only computed column: one stacked call
    # per token block, whole runs and a run stopped at t = 300 in block two
    cfg = RunConfig(T=2 * sustain.driver._BLOCK + 3, policy=Policy.PRACTICAL, seed=10,
                    metric_stride=1, K_override=3, base_alpha=0.02)
    records = _check_block_records(sampled_testbeds[problem], None, cfg, kind, monkeypatch,
                                   poison_t=poison_t)
    assert records[-1].upper_loss is not None


@pytest.mark.parametrize("upper_loss", [
    lambda pair: float(0.5 * np.sum(pair.y**2)),
    lambda pair: 0.5 * np.sum(pair.y**2, axis=-1, keepdims=True),
], ids=["one_point_only", "column"])
def test_upper_loss_of_the_wrong_shape_is_rejected(upper_loss, quad5, monkeypatch):
    # an upper_loss that does not return one value per stacked point
    oracle, _ = quad5
    monkeypatch.setattr(oracle, "upper_loss", upper_loss)
    with pytest.raises(DimensionMismatch, match="upper_loss"):
        run_sustain(oracle, None, _eta_one_cfg(3))


# --- invariants that hold by the algorithm's definition ----------------------

# T up to a few past the 256-iteration token-block boundary
_T = st.one_of(st.integers(1, 8), st.integers(250, 262))


def _watched_run(case, seed, T, stride=1, record_errors=True):
    """Case ``case`` of ``bit_reference`` at K fixed: x_a, the records and the
    lower-gradient calls, which hold every iterate x_t, y_t with t < T."""
    problem, policy, algorithm = bit_reference.CASES[case]
    oracle, exact, log = bit_reference.watched(problem)
    cfg = RunConfig(T=T, policy=policy, seed=seed, metric_stride=stride,
                    K_override=bit_reference.PROBLEMS[problem][2] or 4,
                    record_errors=record_errors)
    kind = bit_reference.ALGORITHMS[algorithm]
    log.clear()
    x, records = (run_sustain(oracle, exact, cfg) if kind is None
                  else run_baseline(oracle, exact, cfg, kind))
    assert records[-1].t == T - 1  # every case completes
    return x, records, list(log)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(bit_reference.CASES)), seed=st.integers(0, 2**32 - 1),
       T=_T, extra=st.one_of(st.integers(1, 4), st.integers(250, 258)))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(case, seed, T, extra):
    # a T-run and a (T + extra)-run share every iterate up to x_T and every
    # record at t < T - 1; the T-run returns x_a of the shared path with a
    # uniform on 1..T, drawn here from the child token's own generator
    x, records, calls = _watched_run(case, seed, T)
    _, longer, longer_calls = _watched_run(case, seed, T + extra)
    assert calls == longer_calls[:len(calls)]
    at = {r.t: r for r in longer}
    assert [r for r in records if r.t < T - 1] == [at[r.t] for r in records if r.t < T - 1]
    a = int(SampleToken.root(seed).child(STREAM_RETURN).rng().integers(1, T + 1))
    x_a = next(x for path, x, _ in longer_calls if path == (seed, a, STREAM_LOWER))
    assert x.tobytes() == x_a


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(bit_reference.CASES)), seed=st.integers(0, 2**32 - 1),
       T=_T, stride=st.integers(2, 60))
def test_watching_a_run_does_not_steer_it(case, seed, T, stride):
    # metric_stride and record_errors change no iterate and no returned x_a;
    # a stride-s run records the stride-1 records at t % s == 0 and t = T - 1,
    # and without record_errors its tracker errors are None
    x, records, calls = _watched_run(case, seed, T)
    x_s, strided, calls_s = _watched_run(case, seed, T, stride)
    x_n, unerred, calls_n = _watched_run(case, seed, T, stride, record_errors=False)
    assert x.tobytes() == x_s.tobytes() == x_n.tobytes()
    assert calls == calls_s == calls_n
    assert strided == [r for r in records if r.t % stride == 0 or r.t == T - 1]
    assert unerred == [replace(r, e_f_norm=None, e_g_norm=None) for r in strided]
