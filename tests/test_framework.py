import dataclasses
import math

import mpmath
import pytest

from awspec import framework, spectral, verify
from awspec.exceptions import NonConvergenceError, PoleError
from awspec.framework import (MonicSystem, cf_minimal_ratio, four_param_b,
                              large_param_a, large_param_b,
                              large_param_limit_check, monicize,
                              qjacobi_family, shift_invariance_check,
                              telescope_residual, ultraspherical_family)
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel
from awspec.spectral import bn_B, bn_C, eigenvalues, x_nu


class TestMonicize:
    def test_qjacobi_reproduces_direct_coefficients(self, ctx, level):
        u = 2 * math.sqrt(ctx.q) / (1 - ctx.q)
        sys = monicize(qjacobi_family(level, ctx), u)
        for n in range(15):
            assert abs(sys.B(n) + bn_B(n, level, ctx.q)) <= 1e-14
            if n >= 1:
                assert abs(sys.C(n) + bn_C(n, level, ctx.q)) <= 1e-14

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (0.3 + 0.5j, 0.3 - 0.5j)],
                             ids=["real", "conj"])
    def test_both_routes_hold_50_digits(self, lv, q):
        # the suite framework.qjacobi-coeffs holds the two routes to each
        # other in an absolute metric; against 50 digits each is within
        # 5e-15 max(1, |ref|), so its 1.07e-14 at q = 0.9, where
        # C_1 = 22.4, comes from the metric and not from either route
        level, ctx = JacobiLevel(*lv), QContext(q)
        sys = monicize(qjacobi_family(level, ctx), spectral.mu_from_lambda(1.0, q))
        with mpmath.workdps(50):
            lift = lambda v: mpmath.mpc(v) if isinstance(v, complex) else mpmath.mpf(v)
            al, be, qm = lift(level.alpha), lift(level.beta), mpmath.mpf(q)
            refs = [[complex(f(n, al, be, lambda e: qm ** e))
                     for f in (spectral._monic_B, spectral._monic_C)]
                    for n in range(21)]
        for n, (B, C) in enumerate(refs):
            for got, want in [(bn_B(n, level, q), B), (-sys.B(n), B),
                              (bn_C(n, level, q), C), (-sys.C(n), C)]:
                assert abs(got - want) <= 5e-15 * max(1.0, abs(want)), n

    def test_ultraspherical_recurrence(self):
        # the generic machinery reduces to the classical ultraspherical
        # relation 2 lam a_n = a_{n-1}/(nu+n-1) - a_{n+1}/(nu+n+1)
        nu = 0.7
        fam = ultraspherical_family(nu)
        for n in range(1, 10):
            t = fam.conn(n)
            lhs_prev = t.c_nn  # coefficient of a_{n-1} via c_{n-1,n-1}
            assert fam.xi(n) == 2 * nu
            assert fam.conn(n - 1).c_nn == pytest.approx(nu / (nu + n - 1))
            assert t.c_nn1 == 0.0
            if n >= 2:
                assert t.c_nn2 == pytest.approx(-nu / (nu + n))

    def test_u_zero_degenerate(self, ctx, level):
        sys = monicize(qjacobi_family(level, ctx), 0.0)
        assert sys.B(3) == 0.0 and sys.C(3) == 0.0


class TestShiftInvariance:
    def test_qjacobi_true(self, ctx, level):
        u = 2 * math.sqrt(ctx.q) / (1 - ctx.q)
        assert shift_invariance_check(qjacobi_family(level, ctx), u, 8)

    def test_ultraspherical_true(self):
        assert shift_invariance_check(ultraspherical_family(0.7), 2.0, 8)

    def test_perturbed_false(self, ctx, level):
        # c_nn of conn(3) scaled by 1.01 moves C_3 alone
        u = 2 * math.sqrt(ctx.q) / (1 - ctx.q)
        fam = qjacobi_family(level, ctx)
        c3 = fam.conn(3)
        c3 = dataclasses.replace(c3, c_nn=c3.c_nn * 1.01)
        moved = dataclasses.replace(fam, conn=lambda n: c3 if n == 3 else fam.conn(n))
        assert not shift_invariance_check(moved, u, 8)


class TestContinuedFraction:
    def test_pincherle_ratio(self, ctx, level):
        u = 2 * math.sqrt(ctx.q) / (1 - ctx.q)
        sys = monicize(qjacobi_family(level, ctx), u)
        vals = []
        for mu in (1.5, 2.5):
            cf = cf_minimal_ratio(sys, mu, ctx)
            xr = x_nu(0, mu, level, ctx) / x_nu(-1, mu, level, ctx)
            vals.append(cf / xr)
        assert abs(vals[0] - vals[1]) <= 1e-8 * abs(vals[1])

    def test_self_sized_depth_matches_a_deeper_fraction(self, ctx, level):
        # the depth the routine settles at (50 to 100 here) already gives
        # the value of the fraction at depth 800
        u = 2 * math.sqrt(ctx.q) / (1 - ctx.q)
        sys = monicize(qjacobi_family(level, ctx), u)
        deep = 0.0 + 0.0j
        for k in range(799, -1, -1):
            deep = 1.0 / (1.5 - sys.B(k) - sys.C(k + 1) * deep)
        assert cf_minimal_ratio(sys, 1.5, ctx) == deep

    def test_pole_at_certified_eigenvalue(self, ctx, level):
        u = 2 * math.sqrt(ctx.q) / (1 - ctx.q)
        sys = monicize(qjacobi_family(level, ctx), u)
        mu_star = eigenvalues(level, ctx, count=1, nmat=50)[0].mu
        try:
            val = cf_minimal_ratio(sys, mu_star, ctx)
        except NonConvergenceError:
            val = math.inf
        assert abs(val) > 1e6

    def test_exactly_zero_denominator_at_an_eigenvalue_reads_as_a_pole(self):
        # at the top root of (-0.5, -0.5), q = 0.8, one partial denominator
        # rounds to exactly 0; it moves to a roundoff of its terms
        ctx, level = QContext(0.8), JacobiLevel(-0.5, -0.5)
        sys = monicize(qjacobi_family(level, ctx), spectral.mu_from_lambda(1.0, 0.8))
        mu_star = eigenvalues(level, ctx, count=1, nmat=60)[0].mu
        try:
            val = cf_minimal_ratio(sys, mu_star, ctx)
        except NonConvergenceError:
            val = math.inf
        assert abs(val) > 1e6

    def test_overflowing_coefficients_do_not_converge(self, ctx):
        # C_n overflows past n = 40, as the ladder factor's q^{-n} does at
        # depth; the first depth has nothing to agree with, so a second runs
        sys = MonicSystem(lambda n: 0.0,
                          lambda n: 1.0 if n < 40 else math.exp(100 * n))
        with pytest.raises(NonConvergenceError, match="overflow"):
            cf_minimal_ratio(sys, 0.5, ctx)

    @pytest.mark.parametrize("system", [
        lambda ctx: monicize(ultraspherical_family(0.7), 2.0),
        lambda ctx: monicize(qjacobi_family(JacobiLevel(0.4, 0.4), ctx),
                             spectral.mu_from_lambda(1.0, ctx.q)),
    ], ids=["ultraspherical", "qjacobi"])
    def test_zero_partial_denominator_is_a_pole(self, ctx, system):
        # a symmetric family has B_k = 0, so at lam = 0 the last partial
        # denominator lam - B_k is exactly 0 and has no roundoff to move to
        with pytest.raises(PoleError, match="row 24"):
            cf_minimal_ratio(system(ctx), 0.0, ctx)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.4])
    def test_suite_passes_at_small_q(self, q):
        # at these q the ladder factor's q^{-n} overflows within a few
        # hundred levels, so the fraction must stop before it gets there
        config = verify.VerifyConfig(verify.DEFAULT_CONFIG.level,
                                     QContext(q, 1e-14), verify.DEFAULT_CONFIG.nodes)
        r = verify.run_suite("framework.cf-pincherle", config)
        assert r.passed, f"{r.max_err} > {r.tol} ({r.detail})"


class TestTelescope:
    def test_x_family_instance(self, ctx, level, rng):
        q = ctx.q
        x = complex(rng.uniform(0.9, 1.8), rng.uniform(0.2, 0.7))
        f = lambda nu: x_nu(nu, x, level, ctx)
        for n in range(1, 9):
            resid = telescope_residual(
                f, lambda nu: bn_B(nu, level, q),
                lambda nu: bn_C(nu + 1, level, q), n, x)
            assert resid <= 1e-10

    def test_single_step_reduces_to_defining_relation(self, ctx, level):
        q = ctx.q
        x = 1.3 + 0.4j
        f = lambda nu: x_nu(nu, x, level, ctx)
        resid = telescope_residual(
            f, lambda nu: bn_B(nu, level, q),
            lambda nu: bn_C(nu + 1, level, q), 1, x)
        assert resid <= 1e-13

    def test_perturbation_control(self, ctx, level):
        q = ctx.q
        x = 0.9 + 0.3j
        f = lambda nu: x_nu(nu, x, level, ctx)
        resid = telescope_residual(
            f, lambda nu: bn_B(nu, level, q),
            lambda nu: bn_C(nu + 1, level, q) * (1.5 if nu == 2 else 1.0),
            6, x)
        assert resid > 1e-4


class TestGimLimit:
    def test_map_deviation(self):
        ctx = QContext(0.36)
        devs = large_param_limit_check(JacobiLevel(0.5, -0.25), 10, ctx)
        assert len(devs) == 20
        assert all(d <= 1e-12 for d in devs)

    def test_nan_deviation_fails_the_suite(self, monkeypatch):
        # one NaN a'_n after finite deviations: a fold by the builtin max
        # kept the finite maximum and passed
        a = framework.large_param_a
        monkeypatch.setattr(framework, "large_param_a",
                            lambda n, lv, q: math.nan if n == 5 else a(n, lv, q))
        r = verify.run_suite("framework.large-param-limit", verify.DEFAULT_CONFIG)
        assert not r.passed
        assert math.isnan(r.max_err)

    def test_large_parameter_limits(self):
        # the finite-parameter sub-diagonal coefficient approaches the
        # displayed limit (the b display carries a dropped minus sign, ledgered)
        q = 0.36
        qs = math.sqrt(q)
        level = JacobiLevel(0.5, -0.25)
        B8 = q ** (1 + 0.25)
        D8 = q ** (2 + 0.125)
        for n in (1, 2, 3):
            bfin = four_param_b(n, 1e8, B8, -B8, D8, qs)
            assert abs(bfin + large_param_b(n, level, q)) <= 1e-6 * abs(bfin)

    def test_sign_conventions(self):
        # the minus-sign recurrence maps onto the plus-sign monic form:
        # s a'_n = -B_n and s^2 b'_n = +C_n exactly (deliberate sign test)
        q = 0.36
        ctx = QContext(q)
        level = JacobiLevel(0.5, -0.25)
        s = q ** ((2 * 0.5 + 5) / 4)
        n = 2
        assert abs(s * large_param_a(n, level, q) + bn_B(n, level, q)) <= 1e-15
        assert abs(s * s * large_param_b(n, level, q) - bn_C(n, level, q)) <= 1e-15
        # and the flipped signs do not fit
        assert abs(s * large_param_a(n, level, q) - bn_B(n, level, q)) > 1e-3


class TestSuites:
    @pytest.mark.parametrize("name", [
        "framework.qjacobi-coeffs", "framework.ultraspherical",
        "framework.cf-pincherle", "framework.telescope",
        "framework.large-param-limit",
    ])
    def test_suite_passes(self, name):
        r = verify.run_suite(name, verify.DEFAULT_CONFIG)
        assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"
