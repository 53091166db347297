"""The run loop against a plain transcription of the source paper (arXiv
2102.07367): Algorithm 1's two tracker recursions and steps, the randomized
truncated-Neumann estimator as ``hypergrad.estimate`` states it, and the three
baselines as ``run_baseline`` defines them.

The transcription draws every value from a fresh generator for its token's
path (``token.child(*ids).rng()``), with no shared stream, key-block column or
memo, and takes alpha_t, beta_t, eta_t and K from ``resolve_schedule``.  Every
``bit_reference`` case, and two deep-K runs that draw past the key blocks'
table and column caps, must give the library's iterates, returned x_a and
records bit for bit.
"""

import numpy as np
import pytest

import bit_reference
from sustain.driver import (
    DoubleLoop,
    RunConfig,
    TwoTimescale,
    resolve_schedule,
    run_baseline,
    run_sustain,
)
from sustain.oracle import IteratePair
from sustain.sampling import (
    STREAM_K_DRAW,
    STREAM_LOWER,
    STREAM_RETURN,
    STREAM_UPPER,
    STREAM_XI,
    STREAM_ZETA,
    SampleToken,
)

# --- the transcription --------------------------------------------------------


class FreshToken(SampleToken):
    """A token whose every draw builds its own generator from its path."""

    def child(self, *ids):
        return FreshToken(self.path + ids)

    def draw(self, ids, method, *args):
        return getattr(self.child(*ids).rng(), method)(*args)


def neumann_estimate(oracle, x, y, K, sample):
    """grad_x f - (K/L_g) H_xy prod_{i=1..k} (I - H_yy^(i)/L_g) grad_y f at
    (x, y), applied right to left, with k uniform on 0..K-1; and k.  The
    library scales by K * (1/L_g), which is not always K/L_g in the last bit."""
    k = int(sample.child(STREAM_K_DRAW).rng().integers(K))
    at, xi, inv_lg = IteratePair(x, y), sample.child(STREAM_XI), 1.0 / oracle.constants.L_g
    p = oracle.grad_y_f_sample(at, xi)
    for i in range(1, k + 1):
        p = p - inv_lg * oracle.hess_yy_g_sample(at, sample.child(STREAM_ZETA, i))(p)
    cross = oracle.hess_xy_g_sample(at, sample.child(STREAM_ZETA, 0))
    return oracle.grad_x_f_sample(at, xi) - (K * inv_lg) * cross(p), k


def track(eta, h, s, s_prev):
    """h_t = eta s(x_t) + (1 - eta)(h_{t-1} + s(x_t) - s(x_{t-1})), both s
    on one sample; at eta = 1, s(x_t), and s(x_{t-1}) is not evaluated."""
    return s if eta == 1.0 else eta * s + (1.0 - eta) * (h + s - s_prev())


def reference_run(oracle, cfg, kind):
    """Algorithm 1 (``kind`` None) or a baseline from x_0 = 0, y_0 = 0: x_a,
    a uniform on 1..T, and one row (t, alpha, beta, eta_f, eta_g, x_t, y_t,
    h_f, h_g, cumulative HVPs) per iteration."""
    schedule, K = resolve_schedule(oracle, cfg)
    x, y = np.zeros(oracle.d_up), np.zeros(oracle.d_lo)
    root = FreshToken.root(cfg.seed)
    xs, rows, hvps = [x], [], 0
    h_f = h_g = x_prev = y_prev = None
    for t in range(cfg.T):
        alpha, beta, eta_f, eta_g = schedule(t)
        if isinstance(kind, TwoTimescale):
            beta = kind.ratio * alpha ** (2.0 / 3.0)
        if kind is not None or t == 0:  # baselines take no momentum; h_{-1} is not read
            eta_f = eta_g = 1.0
        it = root.child(t)
        lower, upper = it.child(STREAM_LOWER), it.child(STREAM_UPPER)
        h_g = track(eta_g, h_g, oracle.grad_y_g_sample(IteratePair(x, y), lower),
                    lambda: oracle.grad_y_g_sample(IteratePair(x_prev, y_prev), lower))
        s, k = neumann_estimate(oracle, x, y, K, upper)
        h_f = track(eta_f, h_f, s, lambda: neumann_estimate(oracle, x_prev, y_prev, K, upper)[0])
        hvps += (k + 1) * (1 if eta_f == 1.0 else 2)
        y_next = y - beta * h_g
        for j in range(1, kind.n_inner if isinstance(kind, DoubleLoop) else 1):
            y_next = y_next - beta * oracle.grad_y_g_sample(IteratePair(x, y_next),
                                                            it.child(STREAM_LOWER, j))
        rows.append((t, alpha, beta, eta_f, eta_g, x, y, h_f, h_g, hvps))
        x_prev, y_prev, x, y = x, y, x - alpha * h_f, y_next
        xs.append(x)
    a = int(root.child(STREAM_RETURN).rng().integers(1, cfg.T + 1))
    return xs[a], rows


# --- the checks ---------------------------------------------------------------


def _check(problem, cfg, kind):
    oracle, exact, log = bit_reference.watched(problem)
    log.clear()
    x_ref, rows = reference_run(oracle, cfg, kind)
    ref_calls = list(log)
    log.clear()
    x, records = (run_sustain(oracle, exact, cfg) if kind is None
                  else run_baseline(oracle, exact, cfg, kind))
    # the library evaluates its oracle at the reference's iterates, in order
    assert log == ref_calls
    assert x.tobytes() == x_ref.tobytes()
    assert [r.t for r in records] == [
        t for t in range(cfg.T) if t % cfg.metric_stride == 0 or t == cfg.T - 1]
    _, K = resolve_schedule(oracle, cfg)
    for r in records:
        t, alpha, beta, eta_f, eta_g, x_t, y_t, h_f, h_g, hvps = rows[r.t]
        assert (r.alpha, r.beta, r.eta_f, r.eta_g, r.cumulative_hvps) == (
            alpha, beta, eta_f, eta_g, hvps)
        pair = IteratePair(x_t, y_t)
        assert r.upper_loss == oracle.upper_loss(pair)
        if exact is None:
            continue
        # the one-point exact-oracle values at the reference's iterate
        g, dy = exact.grad_ell(x_t), y_t - exact.y_star(x_t)
        assert (r.grad_ell_sq, r.tracking_sq) == (g.dot(g), dy.dot(dy))
        assert r.ell_gap == (None if exact.ell_star is None
                             else exact.ell(x_t) - exact.ell_star)
        if kind is None:
            e_f = h_f - exact.neumann_expectation(pair, K)
            e_g = h_g - exact.grad_y_g_mean(pair)
            assert (r.e_f_norm, r.e_g_norm) == (np.sqrt(e_f.dot(e_f)), np.sqrt(e_g.dot(e_g)))


@pytest.mark.parametrize("case", list(bit_reference.CASES))
def test_library_loop_equals_the_paper_transcription(case):
    problem, cfg, kind = bit_reference.config(case)
    _check(problem, cfg, kind)


@pytest.mark.parametrize("problem, K", [("meta_linear", 150), ("hyperclean", 300)])
def test_deep_truncation_equals_the_paper_transcription(problem, K):
    # K past the key blocks' 128 tables and 16 columns: deep Neumann terms
    # draw alone, where the shallow ones read columns
    _check(problem, RunConfig(T=24, seed=5, K_override=K), None)
