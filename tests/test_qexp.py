import math

import numpy as np
import pytest

import oracles
from awspec import qexp, verify
from awspec.backend import sum_series
from awspec.awop import dq_pointwise, make_rule
from awspec.exceptions import DomainError, NonConvergenceError
from awspec.qcore import QContext, exp_itheta, qpoch, qpoch_inf, phi
from awspec.qpolys import JacobiLevel
from awspec.spectral import mu_from_lambda
from awspec.qexp import (_aw_projections, am_coeff, e_series_invariant,
                         e_series_invariant_closed, eq_eigenvalue_dq, eq_exp,
                         expansion_residual, hermite_identity_residual,
                         hermite_series, imn_quadrature, jm_double_series,
                         jm_quadrature)
from awspec.qpolys import _aw_params


def _jm_closed(m, r, level, ctx):
    """J_m(-i; r) in closed single-sum form: a_m times the Askey-Wilson norm."""
    return am_coeff(m, r, level, ctx) * oracles.aw_norm(
        m, _aw_params(level, ctx.q), ctx)


def _eq_exp_direct(x, a, b, ctx):
    """eq_exp with each term's 2n-factor product formed anew."""
    return sum_series(oracles._eq_exp_terms_direct(exp_itheta(x), a, b, ctx.q),
                      ctx.tol, qexp._term_budget(abs(a * b), ctx.tol), "direct")


def _residual(x, r, level, ctx, m_trunc=25):
    """expansion_residual of the expansion truncated after a_{m_trunc}."""
    coeffs = [am_coeff(m, r, level, ctx) for m in range(m_trunc + 1)]
    return expansion_residual(coeffs, x, r, level, ctx)


class TestEqExp:
    def test_zero_b_is_one(self, ctx):
        assert eq_exp(0.3, -1j, 0.0, ctx) == 1.0

    @pytest.mark.parametrize("q", [0.3, 0.45, 0.5, 0.55, 0.7, 0.75])
    def test_series_at_x_zero(self, q):
        # at x = 0 and a = -i every odd term vanishes, exactly or to
        # rounding level depending on q; neither may end the sum
        ctx = QContext(q)
        for level in (JacobiLevel(0.3, -0.2), JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)):
            for r in (0.3, 0.5j):
                assert _residual(0.0, r, level, ctx) <= 1e-12

    def test_hermite_identity_at_x_zero(self, ctx):
        assert hermite_identity_residual(1.7, 0.0, ctx) <= 1e-12

    @pytest.mark.parametrize("q", [0.2, 0.35, 0.5])
    def test_running_products_match_the_direct_product(self, q):
        ctx = QContext(q)
        for x in (0.0, 0.45, -0.8):
            for a, b in [(-1j, 0.3), (-1j, 0.25j), (3.0, 0.2), (3.0, -0.1 + 0.2j),
                         (0.8 + 0.6j, -0.3)]:
                want = _eq_exp_direct(x, a, b, ctx)
                got = eq_exp(x, a, b, ctx)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("q", [0.8, 0.88])
    def test_running_products_as_accurate_as_the_direct_product(self, q):
        # at high q both routes lose digits to the hump of the terms; the
        # running products stay within 2x of the direct product's error
        ctx = QContext(q)
        for x in (0.0, 0.3):
            for b in (0.2, 0.1 + 0.15j):
                ref = oracles.eq_exp_mp(x, 3.0, b, q, 40)
                direct = _eq_exp_direct(x, 3.0, b, ctx)
                assert abs(eq_exp(x, 3.0, b, ctx) - ref) <= 2 * abs(direct - ref)

    def test_dq_eigenrelation(self):
        x, a, b, q = 0.3, -1j, 0.4, 0.5
        ctx = QContext(q)
        lhs = dq_pointwise(lambda t: eq_exp(t, a, b, ctx), x, ctx)
        rhs = eq_eigenvalue_dq(a, b, q) * eq_exp(x, a, b, ctx)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestExpansionCoefficients:
    def test_m_zero_closed_form(self, ctx, level):
        # a_0 = (i r q^{1/2}; q)_inf/(-i r; q)_inf
        #       * 2phi1(c q^{1/4}, -b q^{1/4}; bc q^{1/2} | q^{1/2}, i r)
        q = ctx.q
        r = 0.3
        b, _, c, _ = _aw_params(level, q)
        c = -c
        want = (qpoch_inf(1j * r * math.sqrt(q), q, tol=1e-14)
                / qpoch_inf(-1j * r, q, tol=1e-14)
                * phi([c * q ** 0.25, -b * q ** 0.25], [b * c * q ** 0.5],
                      math.sqrt(q), 1j * r, nterms=-1, tol=1e-14))
        got = am_coeff(0, r, level, ctx)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("level", [JacobiLevel(0.3, -0.2),
                                       JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)])
    @pytest.mark.parametrize("r", [0.3, 0.5j])
    def test_memoised_products_keep_every_bit(self, ctx, level, r):
        # the inline formula that a_m had before its m-free products were
        # memoised
        q = ctx.q
        b, _, c, _ = _aw_params(level, q)
        c = -c
        for m in range(26):
            pre = (q ** (m * m / 4.0) * (1j * r) ** m
                   / (qpoch(q, q, m) * qpoch(b * b * c * c * q ** m, q, m)))
            pre *= qpoch_inf(1j * r * math.sqrt(q), q, ctx.tol) \
                / qpoch_inf(-1j * r, q, ctx.tol)
            want = pre * phi([c * q ** (m / 2.0 + 0.25), -b * q ** (m / 2.0 + 0.25)],
                             [b * c * q ** (m + 0.5)], math.sqrt(q), 1j * r,
                             nterms=-1, tol=ctx.tol)
            assert am_coeff(m, r, level, ctx) == want

    def test_r_zero_collapses_to_constant(self, ctx, level):
        assert am_coeff(0, 0.0, level, ctx) == 1.0
        for m in (1, 2, 5):
            assert abs(am_coeff(m, 0.0, level, ctx)) == 0.0

    def test_quadrature_route(self, ctx, level):
        # closed form against the orthogonality projection J_m / norm
        r = 0.3
        params = _aw_params(level, ctx.q)
        for m in range(4):
            jq = jm_quadrature(m, -1j, r, level, ctx)
            am_q = jq / oracles.aw_norm(m, params, ctx)
            assert abs(am_q - am_coeff(m, r, level, ctx)) \
                <= 1e-7 * max(1.0, abs(am_q))

    def test_jm_closed_matches_quadrature(self, ctx, level):
        r = 0.3
        for m in (0, 1):
            jq = jm_quadrature(m, -1j, r, level, ctx)
            jc = _jm_closed(m, r, level, ctx)
            assert abs(jq - jc) <= 1e-7 * abs(jc)

    def test_jm_double_series_general_argument(self, ctx, level):
        # the double series covers a != -i; checked against quadrature
        r = 0.3
        for a, m in [(0.5j, 0), (0.5j, 1), (0.5j, 2)]:
            jq = jm_quadrature(m, a, r, level, ctx)
            jd = jm_double_series(m, a, r, level, ctx)
            assert abs(jq - jd) <= 1e-6 * max(1.0, abs(jq))

    def test_projection_past_the_rule_is_a_domain_error(self, ctx, level):
        # an 8-node rule holds P_0..P_4; degree 5 used to be an IndexError
        rule = make_rule(8)
        values = np.ones(rule.size)
        assert len(_aw_projections(4, values, level, rule, ctx)) == 5
        with pytest.raises(DomainError, match="at least 10 nodes"):
            _aw_projections(5, values, level, rule, ctx)

    def test_expansion_suite_names_too_few_nodes(self):
        r = verify.run_suite("qexp.expansion-coeffs",
                             verify.VerifyConfig(JacobiLevel(0.3, -0.2),
                                                 QContext(0.5), 4))
        assert not r.passed and "DomainError" in r.detail

    def test_imn_vanishing(self, ctx, level):
        assert abs(imn_quadrature(3, 1, -1j, level, ctx)) <= 1e-9


class TestExpansionResidual:
    def test_reference_point(self):
        ctx = QContext(0.5)
        level = JacobiLevel(0.3, -0.2)
        assert _residual(0.2, 0.3, level, ctx, m_trunc=25) < 1e-8

    def test_r_zero_exact(self, ctx, level):
        assert _residual(0.2, 0.0, level, ctx, m_trunc=3) < 1e-14

    def test_array_x_matches_pointwise(self, ctx, monkeypatch):
        calls = []
        monkeypatch.setattr(qexp, "am_coeff",
                            lambda m, *rest: calls.append(m) or am_coeff(m, *rest))
        xs = np.linspace(-0.8, 0.8, 5)
        for level in (JacobiLevel(0.3, -0.2), JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)):
            for r in (0.3, 0.5j):
                coeffs = [qexp.am_coeff(m, r, level, ctx) for m in range(13)]
                calls.clear()
                got = expansion_residual(coeffs, xs, r, level, ctx)
                assert calls == []  # the coefficients are the caller's
                want = [expansion_residual(coeffs, x, r, level, ctx)
                        for x in xs.tolist()]
                assert np.max(np.abs(got - want)) <= 1e-15

    def test_alpha_plus_beta_minus_one(self, ctx):
        # b^2c^2 = q^{alpha+beta+1} = 1 there: a_m reads the cancelled
        # 1/(b^2c^2 q^m; q)_m, and the rows P_m and A_0 of their recurrence
        # carry no 0/0
        level = JacobiLevel(-0.5, -0.5)
        assert _residual(np.array([0.2, -0.5]), 0.3, level, ctx).max() <= 1e-13

    def test_residual_decreases_in_truncation(self, ctx, level):
        # strictly decreasing until the 1e-14 roundoff floor (reached by
        # M ~ 11 at these parameters)
        resids = [_residual(0.2, 0.3, level, ctx, m_trunc=m)
                  for m in (3, 5, 7, 9)]
        assert all(b < a for a, b in zip(resids, resids[1:]))
        assert _residual(0.2, 0.3, level, ctx, m_trunc=20) <= 1e-13


class TestHermiteIdentity:
    def test_residual_at_reference_point(self):
        ctx = QContext(0.5)
        assert hermite_identity_residual(2.5, 0.3, ctx) < 1e-10

    def test_large_lambda_limit(self, ctx):
        lam = 1e8
        lhs = hermite_series(lam, 0.3, ctx)
        rhs = (qpoch_inf(lam ** -2.0, ctx.q ** 2, tol=1e-14)
               * eq_exp(0.3, -1j, 1j / lam, ctx))
        assert abs(lhs - 1.0) < 1e-7 and abs(rhs - 1.0) < 1e-7

    def test_identity_domain_boundary(self, ctx):
        # the E_q series has convergence radius |ab| = 1, so the identity
        # lives on |lambda| > 1; at lambda = q the Pochhammer factor
        # vanishes exactly while the H-series does not (its continuation
        # pole cancels the zero), and the series evaluation refuses the
        # out-of-disc argument rather than returning garbage
        lam = ctx.q
        assert abs(qpoch_inf(lam ** -2.0, ctx.q ** 2, ctx.tol)) == 0.0
        assert abs(hermite_series(lam, 0.3, ctx)) > 1e-3
        from awspec.exceptions import NonConvergenceError
        with pytest.raises(NonConvergenceError):
            eq_exp(0.3, -1j, 1j / lam, ctx)


class TestInvariantValue:
    def test_matches_closed_form(self, ctx, level):
        for lam, x in [(1.7, 0.3), (0.9, -0.4)]:
            c = e_series_invariant(x, lam, level, ctx)
            cc = e_series_invariant_closed(x, lam, ctx)
            assert abs(c - cc) <= 1e-9 * abs(c)

    def test_level_shift_single_step(self, ctx, level):
        # the one-step functional equation: the combined value is already
        # invariant under (a, b) -> (a+1, b+1); the displayed prefactor's
        # residual Pochhammer ratio is identically 1
        q = ctx.q
        al, be = 0.3, -0.2
        from awspec.qcore import qpoch
        num = qpoch(q ** (al + be + 1), q, 2)
        den = (qpoch(q ** ((al + be + 1) / 2), math.sqrt(q), 2)
               * qpoch(-q ** ((al + be + 1) / 2), math.sqrt(q), 2))
        assert abs(num / den - 1.0) <= 1e-14
        c0 = e_series_invariant(0.3, 1.7, level, ctx)
        c1 = e_series_invariant(0.3, 1.7, level.shifted(1), ctx)
        assert abs(c0 - c1) <= 1e-9 * abs(c0)


class TestTermBudget:
    """An exhausted term budget raises NonConvergenceError; no series
    returns its partial sum instead."""

    def test_hermite_series_near_q_one(self):
        # 90 terms are far from enough at q = 0.95
        with pytest.raises(NonConvergenceError, match="^hermite_series"):
            hermite_series(0.3, 0.3, QContext(0.95))

    def test_jm_double_series_outside_its_disc(self, ctx, level):
        # |a r| = 1.6: the n-sum diverges
        with pytest.raises(NonConvergenceError, match="^jm_double_series"):
            jm_double_series(1, 0.8, 2.0, level, ctx)

    def test_jm_double_series_budget(self, ctx, level):
        # |a r| = 0.9: the budget set by |a r| covers the slow n-sum
        want = _jm_closed(3, 0.9, level, ctx)
        got = jm_double_series(3, -1j, 0.9, level, ctx)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_eq_exp_overflow_is_a_nonconvergence(self):
        # |ab| = 0.99: ~6,800 terms, far past n ~ 1200 where a factor
        # a q^{-n/2} of a term's direct product would overflow; the running
        # products never form one
        got = eq_exp(0.1, -1j, 0.99, QContext(0.3))
        want = oracles.eq_exp_hermite_mp(0.1, 0.99, 0.3, 40)
        assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("x", [0.0, 0.1])
    def test_eq_exp_near_the_disc_boundary(self, x):
        # |ab| = 0.946 sums within the default budget and agrees with the
        # q-Hermite route of the same value
        ctx = QContext(0.3)
        lam = 0.5
        want = lam * hermite_series(-mu_from_lambda(lam, ctx.q) * ctx.q ** -0.25,
                                    x, ctx)
        got = e_series_invariant_closed(x, lam, ctx)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestSuites:
    @pytest.mark.parametrize("name", [
        "qexp.dq-eigen", "qexp.expansion-coeffs", "qexp.expansion-residual",
        "qexp.level-shift", "qexp.hermite-value",
    ])
    def test_suite_passes(self, name):
        r = verify.run_suite(name, verify.DEFAULT_CONFIG)
        assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_suites_on_the_line(self, q):
        # alpha + beta = -1, where connection_down(0) and the norm of p_m
        # held 0/0 factors; at q = 0.9 jm-integrals keeps its q -> 1 error
        # (3.1e-10)
        config = verify.VerifyConfig(JacobiLevel(-0.5, -0.5), QContext(q), 160)
        names = ["qexp.hermite-value", "qexp.level-shift",
                 "qexp.expansion-coeffs", "qexp.jm-integrals"]
        for name in names:
            r = verify.run_suite(name, config)
            assert not r.detail.startswith("exception:"), f"{name}: {r.detail}"
            if q == 0.5 or name != "qexp.jm-integrals":
                assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"
