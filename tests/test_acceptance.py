"""End-to-end acceptance checks for the library.

Each test covers one numbered criterion and prints a single pass/fail line.
The heavy rate experiments (criteria 7-9) run scaled-down synthetic problems
with fixed seeds; the whole module is deterministic.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sustain.driver import (
    DoubleLoop,
    Policy,
    RunConfig,
    TwoTimescale,
    run_baseline,
    run_sustain,
)
from sustain.harness import NotReached, fit_rate_exponent, samples_to_epsilon
from sustain.hypergrad import (
    bias_bound,
    choose_K_nonconvex,
    choose_K_strongly_convex,
    estimate,
    estimate_coupled,
    lipschitz_L_K,
)
from sustain.oracle import IteratePair, ProblemConstants
from sustain.sampling import SampleToken
from sustain.schedules import nonconvex_constants, strongly_convex_params
from sustain.testbed import (
    HyperCleanOracle,
    HyperCleanSpec,
    QuadBilevelSpec,
    generate_corrupted_dataset,
    make_quadratic,
    random_quadratic_spec,
)

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "pass" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} {name}: {status}{suffix}")


def _deterministic_quadratic(seed: int = 42, d_up: int = 2, d_lo: int = 5):
    rng = np.random.default_rng(seed)
    spec = random_quadratic_spec(rng, d_up=d_up, d_lo=d_lo)
    return make_quadratic(spec, rng_seed=0)


def _per_k_values(oracle, exact, pair: IteratePair, K: int) -> np.ndarray:
    """Estimator value as a function of the drawn truncation index k.

    Valid when the Hessians and gradients are deterministic: the only
    randomness left in the estimator is k itself.
    """
    s = oracle.spec
    L_g = oracle.constants.L_g
    gx = exact.grad_x_f_mean(pair)
    gy = exact.grad_y_f_mean(pair)
    M = np.eye(oracle.d_lo) - s.A / L_g
    vals = []
    p = gy.copy()
    for _ in range(K):
        vals.append(gx - (K / L_g) * (-s.B.T) @ p)
        p = M @ p
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# 1. estimator bias bound and Monte-Carlo mean
# ---------------------------------------------------------------------------


def test_criterion_01_bias_bound():
    t0 = time.perf_counter()
    oracle, exact = _deterministic_quadratic()
    c = oracle.constants
    pair = IteratePair(np.array([0.7, -0.4]), 0.5 * np.ones(5))
    surrogate = exact.surrogate_grad(pair.x, pair.y)
    ok = True
    detail = []
    for K in (1, 2, 5, 10, 20):
        # (a) the truncation bias never exceeds the geometric bound
        expectation = exact.neumann_expectation(pair, K)
        gap = float(np.linalg.norm(expectation - surrogate))
        bound = bias_bound(c, K)
        if gap > bound + 1e-12:
            ok = False
            detail.append(f"K={K} bias {gap:.3e} > bound {bound:.3e}")
        # cross-check the per-k closed form against the sampled estimator
        vals = _per_k_values(oracle, exact, pair, K)
        root = SampleToken.root(900 + K)
        for i in range(300):
            value, k = estimate(oracle, pair, K, root.child(i))
            if not np.allclose(value, vals[k], atol=1e-12):
                ok = False
                detail.append(f"K={K} sample {i} disagrees with closed form")
                break
        # (b) Monte-Carlo mean over 1e5 draws of k within 3 standard errors
        n = 100_000
        ks = np.random.default_rng(1000 + K).integers(0, K, size=n)
        draws = vals[ks]
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        dev = np.abs(mean - expectation)
        if np.any(dev > 3.0 * se + 1e-12):
            ok = False
            detail.append(f"K={K} MC mean off by {dev.max():.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        ok = False
        detail.append(f"runtime {elapsed:.1f}s > 30s")
    _report(1, "estimator bias bound + Monte-Carlo mean", ok,
            "; ".join(detail) or f"{elapsed:.1f}s")
    assert ok, detail


# ---------------------------------------------------------------------------
# 2. truncation-level selection
# ---------------------------------------------------------------------------


def test_criterion_02_truncation_selection():
    c = ProblemConstants(mu_g=1.0, L_g=2.0, C_gxy=1.0, C_fy=1.0,
                         L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=1.0)
    ok = True
    detail = []
    for T in (100, 1000, 10_000):
        K_nc = choose_K_nonconvex(c, T)
        if not bias_bound(c, K_nc) <= 1.0 / T:
            ok = False
            detail.append(f"nonconvex T={T}")
        K_sc = choose_K_strongly_convex(c, T)
        if not bias_bound(c, K_sc) ** 2 <= 1.0 / T:
            ok = False
            detail.append(f"strongly convex T={T}")
    _report(2, "truncation-level selection", ok, "; ".join(detail))
    assert ok, detail


# ---------------------------------------------------------------------------
# 3. hypergradient vs finite differences
# ---------------------------------------------------------------------------


def test_criterion_03_hypergradient_fd():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    ok = True
    detail = []
    for i in range(10):
        d_up = int(rng.integers(1, 9))
        d_lo = int(rng.integers(1, 9))
        sin_amp = 0.0 if i % 2 == 0 else 0.3
        spec = random_quadratic_spec(rng, d_up=d_up, d_lo=d_lo, sin_amp=sin_amp)
        oracle, exact = make_quadratic(spec, rng_seed=i)
        x = rng.standard_normal(d_up)
        y_star = exact.y_star(x)
        surrogate = exact.surrogate_grad(x, y_star)
        closed = exact.grad_ell(x)
        if np.linalg.norm(surrogate - closed) > 1e-12 * max(1.0, np.linalg.norm(closed)):
            ok = False
            detail.append(f"instance {i}: closed form mismatch")
        h = 1e-6
        fd = np.empty(d_up)
        for j in range(d_up):
            e = np.zeros(d_up)
            e[j] = h
            fd[j] = (exact.ell(x + e) - exact.ell(x - e)) / (2 * h)
        rel = np.linalg.norm(fd - surrogate) / max(1.0, np.linalg.norm(surrogate))
        if rel > 1e-5:
            ok = False
            detail.append(f"instance {i}: FD rel err {rel:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed > 5.0:
        ok = False
        detail.append(f"runtime {elapsed:.1f}s > 5s")
    _report(3, "hypergradient matches finite differences", ok,
            "; ".join(detail) or f"{elapsed:.2f}s")
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. mean-square smoothness of the sampled estimator
# ---------------------------------------------------------------------------


def test_criterion_04_estimator_lipschitz():
    rng = np.random.default_rng(23)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=4, sigma_f=0.3, sigma_g=0.3)
    oracle, _ = make_quadratic(spec, rng_seed=3)
    c = oracle.constants
    K = 5
    L_K = lipschitz_L_K(c, K)
    n_draws = 10_000
    ok = True
    detail = []
    worst = 0.0
    for pair_idx in range(20):
        x = rng.standard_normal(2)
        y = rng.standard_normal(4)
        dx = rng.standard_normal(2)
        dx *= 1e-2 / np.linalg.norm(dx)
        dy = rng.standard_normal(4)
        dy *= 1e-2 / np.linalg.norm(dy)
        p1 = IteratePair(x, y)
        p2 = IteratePair(x + dx, y + dy)
        root = SampleToken.root(5000 + pair_idx)
        acc = 0.0
        # row i of the block is root.child(i), on the same path and key
        for tok in root.children(0, n_draws):
            # one composite sample at both points: the values of two
            # ``estimate`` calls on the token, drawn once
            (s1, s2), _ = estimate_coupled(oracle, (p1, p2), K, tok)
            d = s1 - s2
            acc += float(d @ d)
        mean_sq = acc / n_draws
        bound = L_K**2 * (np.linalg.norm(dx) + np.linalg.norm(dy)) ** 2
        worst = max(worst, mean_sq / bound)
        if not np.isfinite(mean_sq):  # estimate_coupled does not raise on NaN/Inf
            ok = False
            detail.append(f"pair {pair_idx}: non-finite mean square {mean_sq}")
        elif mean_sq > bound:
            ok = False
            detail.append(f"pair {pair_idx}: {mean_sq:.3e} > {bound:.3e}")
    _report(4, "coupled-sample mean-square smoothness", ok,
            "; ".join(detail) or f"worst ratio {worst:.3f}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 5. unit-momentum reduction to alternating SGD
# ---------------------------------------------------------------------------


def test_criterion_05_reduction_invariant():
    rng = np.random.default_rng(31)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=4, sigma_f=0.4, sigma_g=0.4)
    oracle, exact = make_quadratic(spec, rng_seed=6)
    # enormous momentum weight pins eta at the clamp value of one
    cfg = RunConfig(T=1000, policy=Policy.PRACTICAL, seed=12, metric_stride=10,
                    K_override=4, c_eta=1e18, c_eta_g=1e18, record_errors=False)
    xs_a, recs_a = run_sustain(oracle, exact, cfg)
    xs_b, recs_b = run_baseline(oracle, exact, cfg, DoubleLoop())
    ok = bool(np.array_equal(xs_a, xs_b)) and len(recs_a) == len(recs_b)
    if ok:
        for ra, rb in zip(recs_a, recs_b):
            if (ra.t, ra.grad_ell_sq, ra.ell_gap, ra.tracking_sq,
                    ra.cumulative_samples) != (
                    rb.t, rb.grad_ell_sq, rb.ell_gap, rb.tracking_sq,
                    rb.cumulative_samples):
                ok = False
                break
    _report(5, "unit-momentum run is bit-identical to alternating SGD", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. variance reduction of the momentum trackers
# ---------------------------------------------------------------------------


def test_criterion_06_variance_reduction():
    ok = True
    detail = []
    # (a) fully deterministic estimator (identity lower Hessian, K = 1):
    # the recorded tracker errors vanish up to float round-off
    rng = np.random.default_rng(41)
    spec_det = random_quadratic_spec(rng, d_up=2, d_lo=4, mu_g=1.0, L_g=1.0)
    oracle_d, exact_d = make_quadratic(spec_det, rng_seed=2)
    cfg = RunConfig(T=300, policy=Policy.PRACTICAL, seed=0, metric_stride=1,
                    K_override=1, record_errors=True)
    _, recs = run_sustain(oracle_d, exact_d, cfg)
    worst = max(max(r.e_f_norm for r in recs), max(r.e_g_norm for r in recs))
    if worst > 1e-12:
        ok = False
        detail.append(f"deterministic error {worst:.2e}")

    # (b) stochastic run under the theoretical non-convex schedule: the
    # tail-mean squared tracker error shrinks as the horizon grows
    rng = np.random.default_rng(7)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=5, mu_g=1.0, L_g=1.25,
                                 lam=0.1, sigma_f=0.5, sigma_g=0.5)
    spec = dataclasses.replace(spec, B=0.05 * spec.B / np.linalg.norm(spec.B, 2))
    oracle, exact = make_quadratic(spec, rng_seed=11)

    def tail_error(T: int, seed: int) -> float:
        run_cfg = RunConfig(T=T, policy=Policy.NONCONVEX, seed=seed,
                            metric_stride=max(1, T // 400), record_errors=True)
        _, records = run_sustain(oracle, exact, run_cfg)
        tail = [r.e_f_norm**2 for r in records
                if r.t >= 3 * T // 4 and r.e_f_norm is not None]
        return float(np.mean(tail))

    wins = 0
    for seed in range(10):
        v = [tail_error(T, seed) for T in (1000, 4000, 16_000)]
        wins += v[0] > v[1] > v[2]
    if wins < 8:
        ok = False
        detail.append(f"decreasing in only {wins}/10 seeds")
    _report(6, "momentum variance reduction", ok,
            "; ".join(detail) or f"{wins}/10 seeds decreasing")
    assert ok, detail


# ---------------------------------------------------------------------------
# 7. non-convex convergence rate
# ---------------------------------------------------------------------------


def test_criterion_07_nonconvex_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    spec = random_quadratic_spec(rng, d_up=3, d_lo=6, lam=0.2,
                                 sigma_f=0.4, sigma_g=0.4, sin_amp=0.5)
    oracle, exact = make_quadratic(spec, rng_seed=5)
    T = 100_000
    exponents = []
    for seed in range(10):
        cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed,
                        metric_stride=200, K_override=12, base_alpha=0.15,
                        record_errors=False)
        _, recs = run_sustain(oracle, exact, cfg)
        series, best = [], math.inf
        for r in recs:
            if r.grad_ell_sq is not None:
                best = min(best, r.grad_ell_sq)
                series.append((r.t, best))
        exponents.append(fit_rate_exponent(series, (T // 10, T)).exponent)
    median = float(np.median(exponents))
    elapsed = time.perf_counter() - t0
    ok = median <= -0.5 and elapsed < 600.0
    _report(7, "non-convex rate of running-min squared gradient", ok,
            f"median exponent {median:.2f}, {elapsed:.0f}s")
    assert ok, (median, elapsed)


# ---------------------------------------------------------------------------
# 8. strongly-convex noise floor scales with the step size
# ---------------------------------------------------------------------------


def test_criterion_08_strongly_convex_floor():
    rng = np.random.default_rng(21)
    spec = random_quadratic_spec(rng, d_up=2, d_lo=4, lam=0.5,
                                 sigma_f=0.4, sigma_g=0.4)
    oracle, exact = make_quadratic(spec, rng_seed=9)
    mu_f = oracle.constants.mu_f
    T = 4000

    def mean_gap_curve(alpha: float):
        gaps = []
        for seed in range(20):
            cfg = RunConfig(T=T, policy=Policy.STRONGLY_CONVEX, seed=seed,
                            metric_stride=5, alpha_override=alpha,
                            record_errors=False, initial_x=[25.0, -25.0])
            _, recs = run_sustain(oracle, exact, cfg)
            gaps.append([r.ell_gap for r in recs])
        ts = np.array([r.t for r in recs])
        return np.mean(gaps, axis=0), ts

    ok = True
    detail = []
    plateaus = {}
    for alpha in (0.008, 0.004):
        m, ts = mean_gap_curve(alpha)
        plateau = float(np.mean(m[int(0.7 * len(m)):]))
        plateaus[alpha] = plateau
        # transient: log-linear decay at least as fast as (1 - mu_f alpha)^t
        mask = m > 10.0 * plateau
        log_gap = np.log(m[mask])
        tt = ts[mask]
        slope, intercept = np.polyfit(tt, log_gap, 1)
        pred = slope * tt + intercept
        r2 = 1.0 - np.sum((log_gap - pred) ** 2) / np.sum(
            (log_gap - log_gap.mean()) ** 2)
        guaranteed = math.log(1.0 - mu_f * alpha)
        if r2 < 0.95:
            ok = False
            detail.append(f"alpha={alpha}: transient r2 {r2:.3f}")
        if slope > guaranteed + 1e-6:
            ok = False
            detail.append(f"alpha={alpha}: decay {slope:.5f} slower than "
                          f"guaranteed {guaranteed:.5f}")
    ratio = plateaus[0.008] / plateaus[0.004]
    if not (1.4 <= ratio <= 2.8):
        ok = False
        detail.append(f"plateau ratio {ratio:.2f} outside [1.4, 2.8]")
    _report(8, "strongly-convex plateau scales with step size", ok,
            "; ".join(detail) or f"ratio {ratio:.2f}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 9. data hyper-cleaning sample efficiency
# ---------------------------------------------------------------------------


def test_criterion_09_hypercleaning():
    t0 = time.perf_counter()
    train, val = generate_corrupted_dataset(500, 500, 20, 0.3, rng_seed=123)
    spec = HyperCleanSpec(train=train, val=val, reg=1.0, batch_size=32)
    oracle = HyperCleanOracle(spec, rng_seed=7)
    T = 3000
    base_alpha = 6e-4
    c_eta = 2.0 / base_alpha**2

    def run(alg: str, seed: int):
        cfg = RunConfig(T=T, policy=Policy.PRACTICAL, seed=seed,
                        metric_stride=50, K_override=3, base_alpha=base_alpha,
                        c_eta=c_eta, c_eta_g=c_eta, record_errors=False)
        if alg == "sustain":
            _, recs = run_sustain(oracle, None, cfg)
        elif alg == "double_loop":
            _, recs = run_baseline(oracle, None, cfg, DoubleLoop(n_inner=10))
        else:
            _, recs = run_baseline(oracle, None, cfg, TwoTimescale())
        return recs

    runs = {alg: [run(alg, s) for s in range(5)]
            for alg in ("sustain", "double_loop", "two_timescale")}
    best = min(min(r.upper_loss for r in recs)
               for rs in runs.values() for recs in rs)
    eps = 1.1 * best
    medians = {}
    for alg, rs in runs.items():
        counts = [samples_to_epsilon(recs, eps, "upper_loss") for recs in rs]
        medians[alg] = float(np.median(
            [math.inf if isinstance(cnt, NotReached) else cnt for cnt in counts]))
    elapsed = time.perf_counter() - t0
    ok = (medians["sustain"] <= medians["double_loop"]
          and medians["sustain"] <= medians["two_timescale"]
          and elapsed < 300.0)
    _report(9, "hyper-cleaning sample efficiency", ok,
            f"medians {medians}, target {eps:.1f}, {elapsed:.0f}s")
    assert ok, (medians, eps, elapsed)


# ---------------------------------------------------------------------------
# 10. schedule constants match hand-derived values
# ---------------------------------------------------------------------------


def test_criterion_10_schedule_constants():
    ok = True
    detail = []
    # constants chosen so L = L_y = 1: c_beta = 6 sqrt(2) / (2/3) = 9 sqrt(2)
    c = ProblemConstants(mu_g=1.0, L_g=2.0, C_gxy=1.0, C_fy=0.0,
                         L_fx=1.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0)
    consts = nonconvex_constants(c, L_K=1.0)
    if consts.c_beta != pytest.approx(9.0 * math.sqrt(2.0), rel=1e-14):
        ok = False
        detail.append(f"c_beta {consts.c_beta}")
    # L_f = L (1 + C_gxy / mu_g) = 2, so w >= 27 * 2^3 = 216 exactly
    w_floor = Fraction(27) * Fraction(2) ** 3
    if not consts.w >= float(w_floor):
        ok = False
        detail.append(f"w {consts.w} below {w_floor}")

    c_sc = ProblemConstants(mu_g=2.0, L_g=2.0, C_gxy=2.0, C_fy=1.0,
                            L_fx=0.0, L_fy=1.0, L_gxy=0.0, L_gyy=0.0,
                            mu_f=1.0)
    # L_y = C_gxy / mu_g = 1, L = L_fx + L_fy * L_y = 1, so the momentum
    # ratio is (8 + 8 + 2) / 2 = 9 exactly
    params = strongly_convex_params(c_sc, L_K=1.0)
    c_beta_hat = params.beta / params.alpha
    if c_beta_hat != float(Fraction(8 + 8 + 2, 2)):
        ok = False
        detail.append(f"c_beta_hat {c_beta_hat}")
    if params.eta_g != 1.0:
        ok = False
        detail.append(f"eta_g {params.eta_g}")
    if params.eta_f != pytest.approx((c_sc.mu_f + 1.0) * params.alpha, rel=1e-15):
        ok = False
        detail.append(f"eta_f {params.eta_f}")
    _report(10, "schedule constants match hand derivations", ok,
            "; ".join(detail))
    assert ok, detail
