import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from sustain.errors import InvalidConstants
from sustain.hypergrad import lipschitz_L_K
from sustain.oracle import ProblemConstants, derive_constants
from sustain.schedules import (
    NonconvexScheduleConstants,
    nonconvex_constants,
    nonconvex_params,
    practical_params,
    strongly_convex_params,
)


def _constants(**kw):
    base = dict(mu_g=1.0, L_g=2.0, C_gxy=1.0, C_fy=1.0,
                L_fx=1.0, L_fy=1.0, L_gxy=1.0, L_gyy=1.0)
    base.update(kw)
    return ProblemConstants(**base)


class TestNonconvexConstants:
    def test_c_beta_frozen_example(self):
        # L_y = L = 1 via C_gxy=1, mu_g=1 and forcing L = 1 with L_fx=1 only
        c = _constants(L_fx=1.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0, C_fy=0.0)
        d = derive_constants(c)
        assert (d.L, d.L_y) == (1.0, 1.0)
        consts = nonconvex_constants(c, L_K=1.0)
        # c_beta = 6*sqrt(2)*L_y*L/L_mu_g with L_mu_g = 2/3
        assert consts.c_beta == pytest.approx(9.0 * math.sqrt(2.0), rel=1e-12)

    def test_w_floor(self):
        c = _constants(L_fx=1e-3, L_fy=0.0, L_gxy=0.0, L_gyy=0.0, C_fy=0.0,
                       C_gxy=1e-3)
        consts = nonconvex_constants(c, L_K=1e-3)
        assert consts.w >= 2.0

    def test_zero_L_raises(self):
        c = _constants(L_fx=0.0, L_fy=0.0, L_gxy=0.0, L_gyy=0.0, C_fy=0.0,
                       C_gxy=0.0)
        with pytest.raises(InvalidConstants, match=r"degenerate constants \(L or L_f is zero\)"):
            nonconvex_constants(c, L_K=1.0)

    def test_c_eta_f_structure_with_zero_LK(self):
        c = _constants(L_fy=0.0, L_gxy=0.0, L_gyy=0.0, C_fy=0.0)
        d = derive_constants(c)
        consts = nonconvex_constants(c, L_K=0.0)
        assert consts.c_eta_f == pytest.approx(1.0 / (3.0 * d.L_f))


class TestNonconvexParams:
    def test_alpha_is_inverse_cube_root(self, unit_constants):
        consts = nonconvex_constants(unit_constants, lipschitz_L_K(unit_constants, 3))
        p0 = nonconvex_params(consts, t=0)
        assert p0.alpha == pytest.approx(consts.w ** (-1.0 / 3.0))

    def test_alpha_cube_roots(self):
        # alpha for w=8, t=0 is 0.5; for w=2, t=998 it is 1000^{-1/3} = 0.1
        from sustain.schedules import NonconvexScheduleConstants
        consts = NonconvexScheduleConstants(
            w=8.0, c_beta=1.0, c_eta_f=1.0, c_eta_g=1.0,
        )
        assert nonconvex_params(consts, 0).alpha == pytest.approx(0.5)
        consts2 = NonconvexScheduleConstants(
            w=2.0, c_beta=1.0, c_eta_f=1.0, c_eta_g=1.0,
        )
        assert nonconvex_params(consts2, 998).alpha == pytest.approx(0.1)

    def test_alpha_decreasing_eta_ratio_constant(self, unit_constants):
        consts = nonconvex_constants(unit_constants, lipschitz_L_K(unit_constants, 3))
        prev_alpha = math.inf
        ratios = set()
        for t in range(0, 200, 10):
            p = nonconvex_params(consts, t)
            assert p.alpha < prev_alpha
            prev_alpha = p.alpha
            if p.eta_f < 1.0:
                ratios.add(round(p.eta_f / p.alpha**2, 9))
        assert len(ratios) <= 1

    def test_alpha_ceilings(self, unit_constants):
        d = derive_constants(unit_constants)
        consts = nonconvex_constants(unit_constants, lipschitz_L_K(unit_constants, 3))
        cap = min(
            1.0 / (3.0 * d.L_f),
            1.0 / (2.0 * d.L_mu_g * consts.c_beta),
            1.0 / ((unit_constants.mu_g + unit_constants.L_g) * consts.c_beta),
        )
        for t in range(50):
            assert nonconvex_params(consts, t).alpha <= cap + 1e-15

    def test_alpha_cubes_summable(self, unit_constants):
        consts = nonconvex_constants(unit_constants, lipschitz_L_K(unit_constants, 3))
        for T in (10, 100, 1000):
            total = sum(nonconvex_params(consts, t).alpha ** 3 for t in range(T))
            assert total <= math.log(T + 1)


class TestStronglyConvexParams:
    def test_c_beta_hat_frozen_example(self):
        # (8*L_y^2 + 8*L^2 + 2*mu_f)/mu_g with L_y = L = 1, mu_f = 1, mu_g = 2
        c = _constants(mu_g=2.0, L_g=2.0, C_gxy=2.0, L_fx=1.0, L_fy=0.0,
                       L_gxy=0.0, L_gyy=0.0, C_fy=0.0, mu_f=1.0)
        d = derive_constants(c)
        assert (d.L, d.L_y) == (1.0, 1.0)
        p = strongly_convex_params(c, L_K=1.0)
        assert p.beta / p.alpha == pytest.approx(9.0, rel=1e-12)

    def test_eta_g_always_one(self, unit_constants):
        c = _constants(mu_f=0.5)
        p = strongly_convex_params(c, L_K=1.0)
        assert p.eta_g == 1.0

    def test_alpha_satisfies_all_ceilings(self):
        c = _constants(mu_f=0.5)
        d = derive_constants(c)
        L_K = lipschitz_L_K(c, 5)
        p = strongly_convex_params(c, L_K=L_K)
        c_beta_hat = (8 * d.L_y**2 + 8 * d.L**2 + 2 * c.mu_f) / c.mu_g
        assert p.alpha <= 1.0 / (c.mu_f + 1.0) + 1e-15
        assert p.alpha <= 1.0 / (2.0 * c.mu_g * c_beta_hat) + 1e-15
        assert p.alpha <= c.mu_g / (c_beta_hat * c.L_g**2) + 1e-15
        assert p.alpha <= 1.0 / (8.0 * L_K**2 + d.L_f) + 1e-15
        assert p.alpha <= (d.L**2 + 2 * d.L_y**2) / (4 * L_K**2 * c.L_g**2 * c_beta_hat**2) + 1e-15

    def test_eta_f_bounded_by_one(self):
        c = _constants(mu_f=1.0)
        p = strongly_convex_params(c, L_K=0.5)
        assert p.eta_f == pytest.approx((c.mu_f + 1.0) * p.alpha)
        assert p.eta_f <= 1.0

    def test_missing_mu_f_raises(self, unit_constants):
        with pytest.raises(InvalidConstants,
                           match="mu_f is required for the strongly-convex policy"):
            strongly_convex_params(unit_constants, L_K=1.0)

    def test_degenerate_constants_raise(self):
        # L = L_f = 0 and L_K = 0 leave the ceiling 1/(8 L_K^2 + L_f) undefined
        c = ProblemConstants(mu_g=1.0, L_g=2.0, mu_f=1.0)
        with pytest.raises(InvalidConstants, match="^degenerate constants$"):
            strongly_convex_params(c, 0.0)

    def test_alpha_override(self):
        c = _constants(mu_f=0.5)
        p = strongly_convex_params(c, L_K=1.0, alpha_override=0.01)
        assert p.alpha == 0.01
        assert p.beta == pytest.approx((8 * derive_constants(c).L_y**2
                                        + 8 * derive_constants(c).L**2 + 1.0) / c.mu_g * 0.01)


class TestPracticalParams:
    def test_frozen_examples(self):
        assert practical_params(0.1, 0, 1.0).alpha == pytest.approx(0.1)
        assert practical_params(0.1, 7, 1.0).alpha == pytest.approx(0.05)

    def test_beta_equals_alpha(self):
        for t in (0, 3, 100):
            p = practical_params(0.2, t, 2.0)
            assert p.beta == p.alpha

    def test_eta_formula_and_clamp(self):
        p = practical_params(0.1, 0, 5.0)
        assert p.eta_f == pytest.approx(min(1.0, 5.0 * 0.01))
        p = practical_params(1.0, 0, 5.0)
        assert p.eta_f == 1.0

    def test_zero_c_eta_allowed(self):
        assert practical_params(0.1, 0, 0.0).eta_f == 0.0

    def test_separate_lower_coefficient(self):
        p = practical_params(0.1, 0, 1.0, c_eta_g=3.0)
        assert p.eta_g == pytest.approx(3.0 * 0.01)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            practical_params(0.0, 0, 1.0)

    @pytest.mark.parametrize("base_alpha", [float("nan"), float("inf")])
    def test_nonfinite_alpha_rejected(self, base_alpha):
        with pytest.raises(ValueError, match="base_alpha must be positive and finite"):
            practical_params(base_alpha, 0, 1.0)


def test_clamp_warns_only_beyond_rounding(caplog):
    # w = c_eta^1.5 makes c_eta * alpha_0^2 exactly 1 on paper and
    # 1.0000000000000002 in floats; that is clamped without a warning
    c_eta = 7.0
    consts = NonconvexScheduleConstants(w=c_eta**1.5, c_beta=1.0, c_eta_f=c_eta,
                                        c_eta_g=c_eta)
    assert c_eta * (consts.w ** (-1.0 / 3.0)) ** 2 > 1.0
    with caplog.at_level(logging.WARNING, logger="sustain.schedules"):
        p = nonconvex_params(consts, 0)
    assert (p.eta_f, p.eta_g) == (1.0, 1.0)
    assert caplog.records == []
    with caplog.at_level(logging.WARNING, logger="sustain.schedules"):
        p = nonconvex_params(replace(consts, c_eta_g=1.5 * c_eta), 0)
    assert p.eta_g == 1.0
    assert [r.getMessage() for r in caplog.records] == [
        f"eta_g = {1.5 * c_eta * (consts.w ** (-1.0 / 3.0)) ** 2:.17g} clamped to 1"]
