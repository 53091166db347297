from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIMS, random_oracle
from sustain.driver import RunConfig, run_sustain
from sustain.errors import DimensionMismatch
from sustain.momentum import tracker_errors
from sustain.oracle import IteratePair
from sustain.sampling import SampleToken
from sustain.testbed import (
    Dataset,
    HyperCleanOracle,
    HyperCleanSpec,
    MetaLinearOracle,
    MetaLinearSpec,
    QuadBilevelSpec,
    generate_corrupted_dataset,
    load_dataset_csv,
    make_quadratic,
    random_meta_linear_spec,
    random_quadratic_spec,
)
from sustain.testbed import _NOISE_TAG, _ONE, _ZERO, _sigmoid

TOK = SampleToken.root(0).child(0)


class TestQuadratic:
    def test_identity_lower_hessian(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 2))
        spec = QuadBilevelSpec(A=np.eye(4), B=B, b=np.zeros(4),
                               y_target=np.zeros(4))
        _, exact = make_quadratic(spec, rng_seed=0)
        x = rng.standard_normal(2)
        assert exact.y_star(x) == pytest.approx(B @ x)

    def test_onedim_closed_forms(self):
        # A=1, B=1, b=0, target 0, lam=0.5, x=2: y*=2, ell=3, grad=3
        spec = QuadBilevelSpec(A=np.array([[1.0]]), B=np.array([[1.0]]),
                               b=np.zeros(1), y_target=np.zeros(1), lam=0.5)
        _, exact = make_quadratic(spec, rng_seed=0)
        x = np.array([2.0])
        assert exact.y_star(x)[0] == pytest.approx(2.0)
        assert exact.ell(x) == pytest.approx(3.0)
        assert exact.grad_ell(x)[0] == pytest.approx(3.0)

    def test_sampled_capabilities_match_per_capability_formulas(self, quad5_noisy):
        # the lower gradient and the two prebuilt Hessian actions give the
        # bits of their ``@`` formulas
        oracle, _ = quad5_noisy
        s = oracle.spec
        rng = np.random.default_rng(9)
        pair = IteratePair(rng.standard_normal(2), rng.standard_normal(5))
        v = rng.standard_normal(5)
        for i in range(4):
            tok = SampleToken.root(13).child(i)
            noise = tok.draw((_NOISE_TAG, oracle.salt), "standard_normal", 5)
            want = s.A @ pair.y - s.B @ pair.x - s.b + s.sigma_g * noise
            assert oracle.grad_y_g_sample(pair, tok).tobytes() == want.tobytes()
            assert oracle.hess_yy_g_sample(pair, tok)(v).tobytes() == (s.A @ v).tobytes()
            assert oracle.hess_xy_g_sample(pair, tok)(v).tobytes() == ((-s.B.T) @ v).tobytes()

    def test_grad_matches_finite_differences(self, quad5):
        _, exact = quad5
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            x = rng.standard_normal(2)
            g = exact.grad_ell(x)
            fd = np.array([
                (exact.ell(x + h * e) - exact.ell(x - h * e)) / (2 * h)
                for e in np.eye(2)
            ])
            assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("mu_g,L_g,message", [
        (1.0, 0.5, "L_g = 0.5 is below mu_g = 1"),
        (1.0, np.nan, "L_g = nan is below mu_g = 1"),
        (np.nan, 2.0, "L_g = 2 is below mu_g = nan"),
    ])
    def test_spectrum_bounds_out_of_order_rejected(self, mu_g, L_g, message):
        # the spectrum would run from mu_g down to L_g: the two swapped
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_quadratic_spec(np.random.default_rng(0), d_up=2, d_lo=3, mu_g=mu_g, L_g=L_g)
        spec = random_quadratic_spec(np.random.default_rng(0), d_up=2, d_lo=3, L_g=1.0)
        assert np.allclose(np.linalg.eigvalsh(spec.A), 1.0)

    @pytest.mark.parametrize("mu_g,L_g", [(1.0, 2.0), (0.3, 7.5), (2.0, 2.0), (1e-3, 1e3),
                                          (0.1, 0.1000001)])
    def test_one_dim_lower_level_keeps_its_bytes(self, mu_g, L_g):
        # with d_lo = 1 the spectrum is mu_g alone: the one-point linspace
        # gives the bytes of the spec built with eigenvalue [mu_g] by hand
        spec = random_quadratic_spec(np.random.default_rng(5), d_up=3, d_lo=1, mu_g=mu_g,
                                     L_g=L_g)
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((1, 1)))
        A = Q @ np.diag(np.array([mu_g])) @ Q.T
        expected = [0.5 * (A + A.T), rng.standard_normal((1, 3)) / np.sqrt(1)]
        expected += [rng.standard_normal(1) * 0.5, rng.standard_normal(1) * 0.5]
        got = [spec.A, spec.B, spec.b, spec.y_target]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_not_spd_rejected(self):
        spec = QuadBilevelSpec(A=-np.eye(2), B=np.zeros((2, 1)), b=np.zeros(2),
                               y_target=np.zeros(2))
        with pytest.raises(ValueError, match="must be symmetric positive-definite"):
            make_quadratic(spec, rng_seed=0)

    def test_constants_from_spectrum(self, quad5):
        oracle, _ = quad5
        assert oracle.constants.mu_g == pytest.approx(1.0)
        assert oracle.constants.L_g == pytest.approx(2.0)
        assert oracle.constants.C_gxy == pytest.approx(np.linalg.norm(oracle.spec.B, 2))

    @pytest.mark.parametrize("d_up,d_lo,spec_seed,lam,sin_amp", [
        (3, 2, 0, 0.0, 0.0),  # lam = 0 with d_up > d_lo: a singular outer Hessian
        (4, 2, 1, 0.0, 0.0),
        (6, 3, 2, 0.0, 0.0),
        (2, 5, 0, 0.5, -1.0),
    ])
    def test_constants_valid_for_every_accepted_spec(self, d_up, d_lo, spec_seed, lam,
                                                     sin_amp):
        spec = random_quadratic_spec(np.random.default_rng(spec_seed), d_up=d_up,
                                     d_lo=d_lo, lam=lam, sin_amp=sin_amp)
        oracle, exact = make_quadratic(spec, rng_seed=0)
        assert oracle.constants.mu_f is None and exact.ell_star is None
        assert oracle.constants.L_fx == abs(lam) + abs(sin_amp)
        _, records = run_sustain(oracle, exact, RunConfig(T=20))
        assert [r.t for r in records] == list(range(20))

    def test_noise_is_token_deterministic(self, quad5_noisy):
        oracle, _ = quad5_noisy
        pair = IteratePair(np.zeros(2), np.zeros(5))
        a = oracle.grad_y_g_sample(pair, TOK)
        b = oracle.grad_y_g_sample(pair, TOK)
        assert np.array_equal(a, b)
        c = oracle.grad_y_g_sample(pair, SampleToken.root(0).child(1))
        assert not np.array_equal(a, c)

    def test_noise_additive_across_iterates(self, quad5_noisy):
        # same token at two iterates differs exactly by the mean difference
        oracle, exact = quad5_noisy
        p1 = IteratePair(np.zeros(2), np.zeros(5))
        p2 = IteratePair(np.ones(2), np.ones(5))
        d_sample = oracle.grad_y_g_sample(p1, TOK) - oracle.grad_y_g_sample(p2, TOK)
        d_mean = exact.grad_y_g_mean(p1) - exact.grad_y_g_mean(p2)
        assert d_sample == pytest.approx(d_mean)

    def test_surrogate_at_y_star_is_exact_gradient(self, quad5):
        _, exact = quad5
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert exact.surrogate_grad(x, exact.y_star(x)) == pytest.approx(
                exact.grad_ell(x), rel=1e-12, abs=1e-12
            )

    def test_sinusoidal_outer_term(self):
        spec = QuadBilevelSpec(A=np.eye(1), B=np.eye(1), b=np.zeros(1),
                               y_target=np.zeros(1), lam=0.1, sin_amp=0.5)
        _, exact = make_quadratic(spec, rng_seed=0)
        x = np.array([0.7])
        h = 1e-6
        fd = (exact.ell(x + h) - exact.ell(x - h)) / (2 * h)
        assert exact.grad_ell(x)[0] == pytest.approx(fd, rel=1e-6)
        assert exact.ell_star is None


class TestCorruptedDataset:
    def test_p_zero_matches_planted(self):
        tr0, _ = generate_corrupted_dataset(100, 50, 5, p=0.0, rng_seed=1)
        tr0b, _ = generate_corrupted_dataset(100, 50, 5, p=0.0, rng_seed=1)
        assert np.array_equal(tr0.labels, tr0b.labels)

    def test_p_one_flips_everything(self):
        tr0, _ = generate_corrupted_dataset(200, 10, 5, p=0.0, rng_seed=2)
        tr1, _ = generate_corrupted_dataset(200, 10, 5, p=1.0, rng_seed=2)
        assert np.array_equal(tr1.labels, 1.0 - tr0.labels)

    def test_flip_fraction_concentrates(self):
        n = 10_000
        clean, _ = generate_corrupted_dataset(n, 10, 5, p=0.0, rng_seed=3)
        corrupt, _ = generate_corrupted_dataset(n, 10, 5, p=0.3, rng_seed=3)
        frac = np.mean(clean.labels != corrupt.labels)
        assert abs(frac - 0.3) <= 0.015  # 3 sigma binomial band

    def test_validation_never_corrupted(self):
        _, val0 = generate_corrupted_dataset(50, 300, 5, p=0.0, rng_seed=4)
        _, val1 = generate_corrupted_dataset(50, 300, 5, p=0.9, rng_seed=4)
        assert np.array_equal(val0.labels, val1.labels)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            generate_corrupted_dataset(10, 10, 2, p=1.5, rng_seed=0)


class TestHyperClean:
    def _oracle(self, batch_size=4):
        train, val = generate_corrupted_dataset(30, 20, 6, p=0.3, rng_seed=5)
        spec = HyperCleanSpec(train=train, val=val, reg=1e-3, batch_size=batch_size)
        return HyperCleanOracle(spec, rng_seed=0)

    def test_dimensions(self):
        oracle = self._oracle()
        assert oracle.d_up == 30 and oracle.d_lo == 6

    def test_lower_strong_convexity(self):
        oracle = self._oracle()
        rng = np.random.default_rng(6)
        for _ in range(5):
            pair = IteratePair(rng.standard_normal(30), rng.standard_normal(6))
            H = oracle.full_lower_hessian(pair)
            assert np.linalg.eigvalsh(H)[0] >= 2 * 1e-3 - 1e-12

    def test_hessian_action_matches_full_hessian_in_expectation(self):
        oracle = self._oracle(batch_size=30)  # full batch, zero variance
        rng = np.random.default_rng(7)
        pair = IteratePair(rng.standard_normal(30), rng.standard_normal(6))
        H = oracle.full_lower_hessian(pair)
        # batch indices are drawn with replacement, so average over tokens
        root = SampleToken.root(10)
        v = rng.standard_normal(6)
        mean = np.mean([oracle.hess_yy_g_sample(pair, root.child(i))(v)
                        for i in range(3000)], axis=0)
        assert mean == pytest.approx(H @ v, rel=0.1, abs=0.1 * np.linalg.norm(H @ v))

    def test_hessian_symmetry(self):
        oracle = self._oracle()
        rng = np.random.default_rng(8)
        pair = IteratePair(rng.standard_normal(30), rng.standard_normal(6))
        H = oracle.hess_yy_g_sample(pair, TOK)
        for _ in range(10):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            assert float(u @ H(v)) == pytest.approx(float(v @ H(u)), rel=1e-10)

    def test_grad_y_g_unbiased(self):
        oracle = self._oracle(batch_size=2)
        rng = np.random.default_rng(9)
        pair = IteratePair(rng.standard_normal(30) * 0.1, rng.standard_normal(6) * 0.1)
        root = SampleToken.root(20)
        draws = np.array([oracle.grad_y_g_sample(pair, root.child(i))
                          for i in range(20_000)])
        # full-batch reference
        from sustain.testbed import _sigmoid
        tr = oracle.spec.train
        w = _sigmoid(pair.x)
        resid = _sigmoid(tr.features @ pair.y) - tr.labels
        full = 2e-3 * pair.y + (w * resid) @ tr.features
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - full) <= 4 * se + 1e-9)

    def test_upper_grad_x_is_zero(self):
        # one read-only vector of +0.0, whatever the pair and the token
        oracle = self._oracle()
        pair = IteratePair(np.ones(30), np.ones(6))
        g = oracle.grad_x_f_sample(pair, TOK)
        assert g.tobytes() == np.zeros(30).tobytes() and not g.flags.writeable
        assert oracle.grad_x_f_sample(IteratePair(np.zeros(30), np.zeros(6)), TOK.child(1)) is g

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="train and validation sets must be nonempty"):
            HyperCleanOracle(
                HyperCleanSpec(train=Dataset(np.zeros((0, 2)), np.zeros(0)),
                               val=Dataset(np.zeros((1, 2)), np.zeros(1))),
                rng_seed=0,
            )

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_below_one_rejected(self, batch_size):
        # 0 divided by zero in the constants, -1 gave NaN constants
        with pytest.raises(ValueError, match=f"batch_size = {batch_size} must be at least 1"):
            self._oracle(batch_size=batch_size)

    @pytest.mark.parametrize("reg", [0.0, -1.0, np.nan, np.inf])
    def test_reg_not_positive_and_finite_rejected(self, reg):
        train, val = generate_corrupted_dataset(30, 20, 6, p=0.3, rng_seed=5)
        with pytest.raises(ValueError, match="^reg must be positive and finite$"):
            HyperCleanOracle(HyperCleanSpec(train=train, val=val, reg=reg), rng_seed=0)

    @pytest.mark.parametrize("batch_size", [1, 4, 30, 50])
    def test_sampled_capabilities_match_per_capability_formulas(self, batch_size):
        # the shared training batch and the scales precomputed from the set
        # sizes give the bits of the formulas each capability spelled out,
        # with a sigmoid per array and the np.add.at scatter; 30 is the
        # training set size and 50 exceeds both sets
        oracle = self._oracle(batch_size=batch_size)
        tr, val, reg = oracle.spec.train, oracle.spec.val, oracle.spec.reg
        rng = np.random.default_rng(batch_size)
        pair = IteratePair(rng.standard_normal(30), rng.standard_normal(6))
        v = rng.standard_normal(6)
        for i in range(4):
            tok = SampleToken.root(13).child(i)

            def batch(n, tag):
                m = min(batch_size, n)
                return tok.draw((_NOISE_TAG, oracle.salt, tag), "integers", 0, n, m)

            idx = batch(len(val), 0)
            a = val.features[idx]
            resid = _where_sigmoid(a @ pair.y) - val.labels[idx]
            want = (len(val) / len(idx)) * (resid @ a)
            assert oracle.grad_y_f_sample(pair, tok).tobytes() == want.tobytes()

            idx = batch(len(tr), 1)
            a = tr.features[idx]
            w = _where_sigmoid(pair.x[idx])
            resid = _where_sigmoid(a @ pair.y) - tr.labels[idx]
            want = 2.0 * reg * pair.y + (len(tr) / len(idx)) * ((w * resid) @ a)
            assert oracle.grad_y_g_sample(pair, tok).tobytes() == want.tobytes()

            idx = batch(len(tr), 2)
            a = tr.features[idx]
            w = _where_sigmoid(pair.x[idx])
            s = _where_sigmoid(a @ pair.y)
            coef = w * s * (1.0 - s) * (len(tr) / len(idx))
            want = 2.0 * reg * v + (coef * (a @ v)) @ a
            assert oracle.hess_yy_g_sample(pair, tok)(v).tobytes() == want.tobytes()

            idx = batch(len(tr), 3)
            a = tr.features[idx]
            w = _where_sigmoid(pair.x[idx])
            dw = w * (1.0 - w)
            resid = _where_sigmoid(a @ pair.y) - tr.labels[idx]
            if batch_size == 50:  # the scatter must add up repeated rows
                assert len(np.unique(idx)) < len(idx)
            want = np.zeros(30)
            np.add.at(want, idx, (len(tr) / len(idx)) * dw * resid * (a @ v))
            assert oracle.hess_xy_g_sample(pair, tok)(v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch_size", [50, 120, 300])
    def test_constants_of_a_batch_above_the_training_set(self, batch_size):
        # such a batch draws n_train points scaled by 1, as batch n_train
        # does, so it has the same constants, and L_g still bounds the
        # sampled Hessians; weights near 1 and margins near 0 make their
        # curvature nearly as large as it can be
        oracle = self._oracle(batch_size=batch_size)
        assert oracle.constants == self._oracle(batch_size=30).constants
        rng = np.random.default_rng(batch_size)
        root = SampleToken.root(21)
        for i in range(300):
            pair = IteratePair(40.0 + rng.standard_normal(30), 0.1 * rng.standard_normal(6))
            action = oracle.hess_yy_g_sample(pair, root.child(i))
            H = np.array([action(e) for e in np.eye(6)])
            assert np.linalg.eigvalsh(H)[-1] <= oracle.constants.L_g


class _RepeatedRow(SampleToken):
    """A token whose every minibatch is copies of one training row, a batch
    that a draw with replacement can give."""

    def __init__(self, row):
        super().__init__((0,))
        self.row = row

    def draw(self, ids, method, *args):
        return np.full(args[-1], self.row)


@pytest.mark.parametrize("n_train,batch_size", [(40, 4), (500, 32), (300, 300)])
def test_hyperclean_cross_constants_bound_a_batch_of_one_repeated_row(n_train, batch_size):
    # the longest row m times, at x = 0: with a saturated margin, ||H_xy||
    # reaches C_gxy up to rounding (sqrt(m) times the bound for m distinct
    # rows); at a zero margin, H_xy changes along that row at nearly L_gxy
    # (above the sqrt(m) bound once m > 256); along x_i at the largest |w''|
    train, val = generate_corrupted_dataset(n_train, 20, 20, p=0.3, rng_seed=n_train)
    oracle = HyperCleanOracle(HyperCleanSpec(train, val, reg=1.0, batch_size=batch_size),
                              rng_seed=0)
    c, a = oracle.constants, train.features
    i = int(np.argmax(np.sum(a**2, axis=1)))
    tok, unit = _RepeatedRow(i), a[i] / np.linalg.norm(a[i])

    def cross(x, y):
        action = oracle.hess_xy_g_sample(IteratePair(x, y), tok)
        return np.array([action(e) for e in np.eye(oracle.d_lo)]).T

    x0 = np.zeros(n_train)
    saturated = (1.0 if train.labels[i] == 0 else -1.0) * 50.0 * unit / np.linalg.norm(a[i])
    norm = np.linalg.norm(cross(x0, saturated), 2)
    assert 0.999 * c.C_gxy <= norm <= c.C_gxy * (1 + 1e-12)
    h, y0 = 1e-6, np.zeros(oracle.d_lo)
    along_y = np.linalg.norm(cross(x0, y0 + h * unit) - cross(x0, y0), 2) / h
    x1 = x0.copy()
    x1[i] = np.log(2.0 + np.sqrt(3.0))  # where |w''| = 1/(6 sqrt 3)
    x2 = x1.copy()
    x2[i] += h
    along_x = np.linalg.norm(cross(x2, saturated) - cross(x1, saturated), 2) / h
    assert 0.9 * c.L_gxy <= along_y <= c.L_gxy and along_x <= c.L_gxy


class TestMetaLinear:
    def test_single_task_closed_form(self):
        # Z = I, v = 0, rho = 1: y*(x) = -x/2
        spec = MetaLinearSpec(Z=[np.eye(3)], v=[np.zeros(3)],
                              D=[np.eye(3)], u=[np.zeros(3)], rho=1.0, m=1)
        oracle = MetaLinearOracle(spec, rng_seed=0)
        x = np.array([1.0, -2.0, 0.5])
        y = np.zeros(3)
        for _ in range(400):  # inner gradient descent to the minimizer
            g = oracle.grad_y_g_sample(IteratePair(x, y), TOK)
            y = y - 0.3 * g
        assert y == pytest.approx(-x / 2, abs=1e-8)

    def test_full_batch_zero_variance(self):
        rng = np.random.default_rng(11)
        Z = [rng.standard_normal((5, 2)) for _ in range(3)]
        spec = MetaLinearSpec(Z=Z, v=[rng.standard_normal(5) for _ in range(3)],
                              D=Z, u=[rng.standard_normal(5) for _ in range(3)],
                              rho=1.0, m=3)
        oracle = MetaLinearOracle(spec, rng_seed=0)
        pair = IteratePair(rng.standard_normal(2), rng.standard_normal(6))
        a = oracle.grad_y_g_sample(pair, SampleToken.root(0).child(0))
        b = oracle.grad_y_g_sample(pair, SampleToken.root(0).child(99))
        assert np.array_equal(a, b)

    def test_block_separability(self):
        rng = np.random.default_rng(12)
        Z = [rng.standard_normal((4, 2)) for _ in range(3)]
        v = [rng.standard_normal(4) for _ in range(3)]
        spec = MetaLinearSpec(Z=Z, v=v, D=Z, u=v, rho=1.0, m=3)
        oracle = MetaLinearOracle(spec, rng_seed=0)
        pair = IteratePair(rng.standard_normal(2), rng.standard_normal(6))
        g1 = oracle.grad_y_g_sample(pair, TOK)
        # perturb task 2's data: blocks 0 and 1 of the gradient are unchanged
        v2 = list(v)
        v2[2] = v2[2] + 1.0
        oracle2 = MetaLinearOracle(
            MetaLinearSpec(Z=Z, v=v2, D=Z, u=v, rho=1.0, m=3), rng_seed=0)
        g2 = oracle2.grad_y_g_sample(pair, TOK)
        assert np.array_equal(g1[:4], g2[:4])
        assert not np.array_equal(g1[4:6], g2[4:6])

    def test_batch_exceeding_tasks_rejected(self):
        spec = MetaLinearSpec(Z=[np.eye(2)], v=[np.zeros(2)],
                              D=[np.eye(2)], u=[np.zeros(2)], rho=1.0, m=2)
        with pytest.raises(ValueError, match="m = 2 exceeds the task count M = 1"):
            MetaLinearOracle(spec, rng_seed=0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_batch_below_one_rejected(self, m):
        spec = MetaLinearSpec(Z=[np.eye(2)], v=[np.zeros(2)],
                              D=[np.eye(2)], u=[np.zeros(2)], rho=1.0, m=m)
        with pytest.raises(ValueError, match=f"m = {m} must be at least 1"):
            MetaLinearOracle(spec, rng_seed=0)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_rho_not_positive_and_finite_rejected(self, rho):
        spec = random_meta_linear_spec(np.random.default_rng(0), M=2, p=2, q=3, rho=rho, m=2)
        with pytest.raises(ValueError, match="^rho must be positive and finite$"):
            MetaLinearOracle(spec, rng_seed=0)

    @pytest.mark.parametrize("M,m", [(3, 1), (4, 2), (4, 4), (5, 3)])
    def test_constants_bound_every_drawn_task_set(self, monkeypatch, M, m):
        # with zero targets every sampled gradient is linear in (x, y), so the
        # capabilities at the unit vectors give the columns of its Jacobian;
        # each task set S of size m is drawn in turn, and the norms of the
        # Jacobians of grad_x f and grad_y f in (x, y), of the cross Hessian
        # and of the lower Hessian stay within L_fx, L_fy, C_gxy and L_g
        spec = random_meta_linear_spec(np.random.default_rng(M + m), M=M, p=3, q=8,
                                       rho=1.0, m=m)
        spec = replace(spec, v=[0.0 * v for v in spec.v], u=[0.0 * u for u in spec.u])
        oracle = MetaLinearOracle(spec, rng_seed=0)
        c = oracle.constants
        d_up, d_lo = oracle.d_up, oracle.d_lo
        units = [IteratePair(e[:d_up], e[d_up:]) for e in np.eye(d_up + d_lo)]
        for S in combinations(range(M), m):
            monkeypatch.setattr(oracle, "_tasks", lambda token, tag, S=S: np.array(S))
            J_x = np.column_stack([oracle.grad_x_f_sample(u, TOK) for u in units])
            J_y = np.column_stack([oracle.grad_y_f_sample(u, TOK) for u in units])
            xy, yy = (h(units[0], TOK) for h in (oracle.hess_xy_g_sample, oracle.hess_yy_g_sample))
            H_xy = np.column_stack([xy(e) for e in np.eye(d_lo)])
            H_yy = np.column_stack([yy(e) for e in np.eye(d_lo)])
            # 1e-12 relative absorbs the rounding of the norms
            for J, bound in ((J_x, c.L_fx), (J_y, c.L_fy), (H_xy, c.C_gxy), (H_yy, c.L_g)):
                assert np.linalg.norm(J, 2) <= bound * (1 + 1e-12), (S, bound)


@pytest.mark.parametrize("d_up,d_lo", [(0, 3), (2, 0), (0, 0)])
def test_quadratic_without_a_coordinate_rejected(d_up, d_lo):
    spec = random_quadratic_spec(np.random.default_rng(0), d_up=d_up, d_lo=d_lo)
    with pytest.raises(DimensionMismatch,
                       match=f"d_up = {d_up} and d_lo = {d_lo} must be at least 1"):
        make_quadratic(spec, rng_seed=0)


def test_hyperclean_without_features_rejected():
    train, val = Dataset(np.zeros((3, 0)), np.zeros(3)), Dataset(np.zeros((2, 0)), np.zeros(2))
    with pytest.raises(DimensionMismatch, match="d_up = 3 and d_lo = 0 must be at least 1"):
        HyperCleanOracle(HyperCleanSpec(train=train, val=val), rng_seed=0)
    # the generated data is refused before its 1/sqrt(d_lo) scale divides by zero
    with pytest.raises(DimensionMismatch, match="d_lo = 0 must be at least 1"):
        generate_corrupted_dataset(5, 5, 0, p=0.0, rng_seed=0)


def test_meta_linear_without_a_coordinate_rejected():
    spec = random_meta_linear_spec(np.random.default_rng(0), M=2, p=0, q=3, rho=1.0, m=2)
    with pytest.raises(DimensionMismatch, match="d_up = 0 and d_lo = 0 must be at least 1"):
        MetaLinearOracle(spec, rng_seed=0)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f1,f2,label\n0.5,-1.25,1\n2.0,3.5,0\n")
    ds = load_dataset_csv(str(path))
    assert ds.features == pytest.approx(np.array([[0.5, -1.25], [2.0, 3.5]]))
    assert ds.labels == pytest.approx(np.array([1.0, 0.0]))


def test_csv_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="expected a header ending in 'label'"):
        load_dataset_csv(str(path))


@pytest.mark.parametrize("body, where", [
    ("1,2,0\n\n3,x,1\n", "line 4, column f2: 'x' is not a number"),
    ("1,2,0\n3,4,yes\n", "line 3, column label: 'yes' is not a number"),
    ("1,,0\n", "line 2, column f2: '' is not a number"),
    ("1,2,0\n3,1\n", "line 3: 2 cells, the header has 3"),
    ("1,2,0,4\n", "line 2: 4 cells, the header has 3"),
    ("1,2,0\n3,inf,1\n", "line 3, column f2: 'inf' is not a finite number"),
    ("-inf,2,0\n", "line 2, column f1: '-inf' is not a finite number"),
    ("1,2,0\n\nnan,4,1\n", "line 4, column f1: 'nan' is not a finite number"),
], ids=["cell", "label", "empty-cell", "short-row", "long-row", "inf", "-inf", "nan"])
def test_csv_names_the_line_and_column_of_a_bad_cell(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_text("f1, f2,label\n" + body)
    with pytest.raises(ValueError) as info:
        load_dataset_csv(str(path))
    assert str(info.value) == f"{path}, {where}"


def test_csv_without_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f1,f2,label\n\n")
    with pytest.raises(ValueError) as info:
        load_dataset_csv(str(path))
    assert str(info.value) == f"{path}: no data rows"


@pytest.mark.parametrize("label, shown", [(2.0, "2"), (-1.0, "-1"), (0.5, "0.5"),
                                          (np.nan, "nan"), (np.inf, "inf")])
@pytest.mark.parametrize("which", ["training", "validation"])
def test_hyperclean_labels_outside_zero_one_rejected(label, shown, which):
    # Dataset's labels, the corruption flip 1 - b and the bound |s - b| <= 1
    # behind C_fy and L_fy all take b in {0, 1}
    train, val = generate_corrupted_dataset(6, 5, 2, p=0.3, rng_seed=0)
    data = train if which == "training" else val
    data.labels[3] = label
    data.labels[4] = 7.0  # only the first bad row is named
    with pytest.raises(ValueError) as info:
        HyperCleanOracle(HyperCleanSpec(train=train, val=val), rng_seed=0)
    assert str(info.value) == f"{which} labels must lie in {{0, 1}}: row 3 has {shown}"


def _masked_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _out_of_place_sigmoid(z):
    # _sigmoid's seven ufuncs, each writing a new array
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


_MASKED_EDGES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, 1e-300,
                 -1e-300, 36.0, -36.0]


@pytest.mark.parametrize("n", [1, 32, 500])
@pytest.mark.parametrize("scale", [1.0, 40.0, 800.0])
def test_sigmoid_matches_masked_formula(n, scale):
    # the stable two-branch sigmoid, bit for bit, without boolean indexing;
    # it runs in place on its own temporaries, so it leaves z as it was and
    # gives the out-of-place form's bits, NaN bits too.  The masked formula
    # gives NaN where z is NaN, with a sign bit of its own
    for z in (np.random.default_rng(n).uniform(-scale, scale, n), np.array(_MASKED_EDGES)):
        before = z.tobytes()
        got = _sigmoid(z)
        assert z.tobytes() == before
        assert got.tobytes() == _out_of_place_sigmoid(z).tobytes()
        nan = np.isnan(z)
        assert np.isnan(got[nan]).all() and np.isnan(_masked_sigmoid(z)[nan]).all()
        assert got[~nan].tobytes() == _masked_sigmoid(z)[~nan].tobytes()


def _where_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                  -2.2e-308, 709.8, -709.8, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308]


@settings(max_examples=300, deadline=None)
@given(z=st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                            st.floats(-40.0, 40.0), st.sampled_from(_SIGMOID_EDGES)),
                  min_size=1, max_size=200))
def test_sigmoid_matches_where_formula(z):
    # every non-NaN result bit for bit, and NaN exactly where it was (a NaN's
    # sign bit now follows the input's, so NaN bits are not compared)
    z = np.array(z)
    got, want = _sigmoid(z), _where_sigmoid(z)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert got[keep].tobytes() == want[keep].tobytes()


@settings(max_examples=25, deadline=None)
@given(d_up=DIMS, d_lo=DIMS, n=st.integers(1, 300), K=st.integers(1, 25),
       sin_amp=st.sampled_from([0.0, 0.7]), seed=st.integers(0, 2**32 - 1))
def test_quadratic_closed_forms_stack_bit_for_bit(d_up, d_lo, n, K, sin_amp, seed):
    # every row of a stacked call equals the one-point call on that row
    rng = np.random.default_rng(seed)
    spec = random_quadratic_spec(rng, d_up=d_up, d_lo=d_lo, lam=0.3, sin_amp=sin_amp)
    oracle, exact = make_quadratic(spec, rng_seed=0)
    X = 2.0 * rng.standard_normal((n, d_up))
    Y = 2.0 * rng.standard_normal((n, d_lo))
    HF, HG = rng.standard_normal((n, d_up)), rng.standard_normal((n, d_lo))
    stacked = IteratePair(X, Y)
    e_f, e_g = tracker_errors(HF, HG, exact, stacked, K)
    forms = {
        "y_star": (exact.y_star(X), lambda i: exact.y_star(X[i])),
        "ell": (exact.ell(X), lambda i: exact.ell(X[i])),
        "grad_ell": (exact.grad_ell(X), lambda i: exact.grad_ell(X[i])),
        "surrogate_grad": (exact.surrogate_grad(X, Y),
                           lambda i: exact.surrogate_grad(X[i], Y[i])),
        "grad_y_g_mean": (exact.grad_y_g_mean(stacked),
                          lambda i: exact.grad_y_g_mean(IteratePair(X[i], Y[i]))),
        "neumann_expectation": (exact.neumann_expectation(stacked, K),
                                lambda i: exact.neumann_expectation(IteratePair(X[i], Y[i]), K)),
        "tracker_errors": (np.stack([e_f, e_g], axis=-1), lambda i: np.array(tracker_errors(
            HF[i], HG[i], exact, IteratePair(X[i], Y[i]), K))),
    }
    assert type(exact.ell(X[0])) is float
    for name, (rows, one) in forms.items():
        assert rows.shape[0] == n, name
        for i in range(n):
            assert rows[i].tobytes() == np.asarray(one(i)).tobytes(), (name, i)


def _upper_loss_oracle(kind, rng, a, b):
    """A ``kind`` testbed drawn from ``rng``, with sizes taken from ``a`` and
    ``b``: the quadratic's (d_up, d_lo), hyper-cleaning's training and
    validation counts, and meta-learning's task dimension and held-out rows."""
    if kind.startswith("quadratic"):
        sin_amp = 0.7 if kind == "quadratic_sin" else 0.0
        return make_quadratic(random_quadratic_spec(rng, d_up=a, d_lo=b, lam=0.3,
                                                    sin_amp=sin_amp), rng_seed=0)[0]
    if kind == "hyperclean":
        train, val = generate_corrupted_dataset(a, b, 1 + (a + b) % 40, p=0.3,
                                                rng_seed=int(rng.integers(2**32)))
        return HyperCleanOracle(HyperCleanSpec(train, val), rng_seed=0)
    M = 1 + a % 9
    p, q = 1 + a % 20, b
    designs = [rng.standard_normal((q, p)) for _ in range(2 * M)]
    targets = [rng.standard_normal(q) for _ in range(2 * M)]
    m = M if kind == "meta_all_tasks" else 1 + b % M
    return MetaLinearOracle(MetaLinearSpec(Z=designs[:M], v=targets[:M], D=designs[M:],
                                           u=targets[M:], rho=1.0, m=m), rng_seed=0)


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_sin", "hyperclean",
                                  "meta_all_tasks", "meta_subsampled"])
@settings(max_examples=15, deadline=None)
@given(a=DIMS, b=DIMS, n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_upper_loss_stacks_bit_for_bit(kind, a, b, n, seed):
    # every row of a stacked upper_loss equals the one-point call, a float
    rng = np.random.default_rng(seed)
    oracle = _upper_loss_oracle(kind, rng, a, b)
    X = 2.0 * rng.standard_normal((n, oracle.d_up))
    Y = 2.0 * rng.standard_normal((n, oracle.d_lo))
    rows = oracle.upper_loss(IteratePair(X, Y))
    assert rows.shape == (n,)
    for i in range(n):
        one = oracle.upper_loss(IteratePair(X[i], Y[i]))
        assert type(one) is float
        assert rows[i].tobytes() == np.float64(one).tobytes(), i


@pytest.mark.parametrize("sin_amp", [0.0, 0.5])
def test_quadratic_ell_is_upper_loss_at_y_star(sin_amp):
    # the outer objective is the upper objective at y*(x), one point or stacked
    rng = np.random.default_rng(13)
    oracle, exact = make_quadratic(
        random_quadratic_spec(rng, d_up=4, d_lo=7, lam=0.3, sin_amp=sin_amp), rng_seed=0)
    X = 2.0 * rng.standard_normal((9, 4))
    for x in (X[0], X):
        assert repr(exact.ell(x)) == repr(oracle.upper_loss(IteratePair(x, exact.y_star(x))))


_SCALES = st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0)] * 4)


def _python_float_capabilities(oracle, pair, tok, v):
    """The oracle's sampled capabilities and one action of each Hessian,
    spelled out with every constant of the run a Python float."""
    if hasattr(oracle, "_sigma_f"):  # the quadratic
        s = oracle.spec
        noise = tok.child(_NOISE_TAG, oracle.salt).rng().standard_normal(oracle.d_lo)
        g_x = s.lam * pair.x
        if s.sin_amp:
            g_x = g_x + s.sin_amp * np.cos(pair.x)
        g_yf, g_yg = pair.y - s.y_target, s.A.dot(pair.y) - s.B.dot(pair.x) - s.b
        if s.sigma_f:
            g_yf = g_yf + s.sigma_f * noise
        if s.sigma_g:
            g_yg = g_yg + s.sigma_g * noise
        return g_x, g_yf, g_yg, s.A.dot(v), (-s.B.T).dot(v)
    tr, val, m = oracle.spec.train, oracle.spec.val, oracle.spec.batch_size
    tr_scale, val_scale = len(tr) / min(m, len(tr)), len(val) / min(m, len(val))
    two_reg = 2.0 * oracle.spec.reg

    def batch(data, tag):
        idx = tok.draw((_NOISE_TAG, oracle.salt, tag), "integers", 0, len(data), min(m, len(data)))
        a = data.features.take(idx, 0)
        w = _out_of_place_sigmoid(pair.x[idx]) if data is tr else None
        return idx, a, w, _out_of_place_sigmoid(a.dot(pair.y))

    idx, a, _, s = batch(val, 0)
    g_yf = val_scale * (s - val.labels[idx]).dot(a)
    idx, a, w, s = batch(tr, 1)
    g_yg = two_reg * pair.y + tr_scale * (w * (s - tr.labels[idx])).dot(a)
    _, a, w, s = batch(tr, 2)
    h_yy = two_reg * v + ((w * s * (1.0 - s) * tr_scale) * a.dot(v)).dot(a)
    idx, a, w, s = batch(tr, 3)
    rows = tr_scale * (w * (1.0 - w)) * (s - tr.labels[idx]) * a.dot(v)
    h_xy = np.bincount(idx, weights=rows, minlength=oracle.d_up)
    return np.zeros(oracle.d_up), g_yf, g_yg, h_yy, h_xy


@pytest.mark.parametrize("kind", ["quadratic", "hyperclean"])
@settings(max_examples=40, deadline=None)
@given(a=DIMS, b=DIMS, scales=_SCALES, batch=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_capabilities_equal_python_float_formulas(kind, a, b, scales, batch, seed):
    # the run-wide constants enter the arithmetic as read-only 0-d float64
    # arrays, which hold the same doubles as the Python floats they replace
    rng = np.random.default_rng(seed)
    oracle = random_oracle(kind, rng, a, b, scales, batch)
    pair = IteratePair(3.0 * rng.standard_normal(oracle.d_up),
                       3.0 * rng.standard_normal(oracle.d_lo))
    v = rng.standard_normal(oracle.d_lo)
    tok = SampleToken.root(seed).child(5)
    got = (oracle.grad_x_f_sample(pair, tok), oracle.grad_y_f_sample(pair, tok),
           oracle.grad_y_g_sample(pair, tok), oracle.hess_yy_g_sample(pair, tok)(v),
           oracle.hess_xy_g_sample(pair, tok)(v))
    for name, g, want in zip(("grad_x_f", "grad_y_f", "grad_y_g", "hess_yy", "hess_xy"),
                             got, _python_float_capabilities(oracle, pair, tok, v)):
        assert g.dtype == np.float64 and g.tobytes() == want.tobytes(), name


def test_run_wide_constants_are_read_only():
    # the 0-d operands are shared by every call of a run, so none may change
    rng = np.random.default_rng(0)
    quad = random_oracle("quadratic", rng, 3, 6, (0.2, 0.4, 0.4, 0.5), 1)
    clean = random_oracle("hyperclean", rng, 40, 30, (1.0,) * 4, 8)
    for c in (_ZERO, _ONE, quad._lam, quad._sin_amp, quad._sigma_f, quad._sigma_g,
              clean._tr_scale, clean._val_scale, clean._two_reg):
        assert c.shape == () and c.dtype == np.float64 and not c.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c[()] = 2.0
