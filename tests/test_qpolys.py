import dataclasses
import math

import numpy as np
import pytest

from awspec import awop, qpolys, verify
from awspec.backend import sum_series
from awspec.exceptions import DomainError
from awspec.qcore import QContext
from awspec.qexp import _p_factors, hermite_series
from awspec.qpolys import (JacobiLevel, _aw_coeffs, _aw_params, aw_phi_seq,
                           connection_down, cqjacobi, cqjacobi_seq,
                           dual_expansion_aw, norm_h, weight_theta)
from awspec.spectral import recurrence_a_coeffs
from oracles import (_aw_poly_4phi3, _aw_prefactor, _hermite_h_theta,
                     _weight_w_literal, aw_norm, awpoly_to_cqj_factor,
                     classical_to_aw_factor, cqjacobi_classical,
                     hermite_series_terms, kappa_aw, line_factors_mp)


def _aw_poly(n, params, x, q):
    """p_n(x; a, b, c, d | q) by the library's recurrence."""
    return _aw_prefactor(n, params, q) * aw_phi_seq(n, params, x, q)[n]


class TestAWPoly:
    def test_degree_zero(self, ctx):
        params = _aw_params(JacobiLevel(0.3, -0.2), ctx.q)
        assert _aw_poly(0, params, 0.3, ctx.q) == 1.0

    def test_hermite_specialization(self):
        # at all-zero parameters p_n is the continuous q-Hermite H_n(x|q),
        # whose q-binomial sum is the reference of the H_n in
        # hermite_series: degree 2 by hand
        x, q = 0.3, 0.5
        h2 = 2 * x * (2 * x) - (1 - q)
        assert abs(_hermite_h_theta(2, x, q) - h2) <= 1e-14

    def test_hermite_routes_agree(self):
        # hermite_series runs H_n by its recurrence; the same series on the
        # q-binomial sum of H_n agrees.  Above q = 0.5 the series cancels
        # terms far larger than its sum, so both lose digits there.
        for q in (1e-4, 0.3, 0.5):
            ctx = QContext(q)
            for z in (1.7, 2.5, -3.0 + 1j, 0.7j, 1.1):
                for x in (0.0, 0.37, -0.8, 1.0):
                    a = hermite_series(z, x, ctx)
                    b = sum_series(hermite_series_terms(z, x, q, _hermite_h_theta),
                                   ctx.tol, 90, "theta")
                    assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_bcd_permutation_symmetry(self, ctx, rng):
        a, b, c, d = 0.6, 0.3, -0.45, 0.2
        x = rng.uniform(-0.9, 0.9)
        base = _aw_poly(5, (a, b, c, d), x, ctx.q)
        for perm in [(a, c, b, d), (a, d, c, b), (a, c, d, b)]:
            assert abs(_aw_poly(5, perm, x, ctx.q) - base) <= 1e-12 * abs(base)

    def test_phi_route_matches_recurrence(self, ctx, level, rng):
        params = _aw_params(level, ctx.q)
        for n in range(7):
            x = rng.uniform(-0.9, 0.9)
            v1 = _aw_poly_4phi3(n, params, x, ctx)
            v2 = _aw_poly(n, params, x, ctx.q)
            assert abs(v1 - v2) <= 1e-11 * max(1.0, abs(v1))


class TestCqjacobi:
    @pytest.mark.parametrize("q", [0.3, 0.8])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (0.3 + 0.5j, 0.3 - 0.5j)],
                             ids=["real", "conj"])
    def test_4phi3_route_holds_the_benchmark_bound(self, lv, q):
        # method="phi" is the terminating 4phi3 that the cli-requests
        # benchmark checks every poly row against, with the benchmark's own
        # bound: the series sheds q^{-n(n-1)/2} to cancellation
        level, ctx = JacobiLevel(*lv), QContext(q)
        for x in np.linspace(-0.95, 0.95, 11):
            rows = cqjacobi_seq(6, level, float(x), ctx)
            for n, want in enumerate(rows):
                got = cqjacobi(n, level, float(x), ctx, method="phi")
                err = abs(got - want) / max(1.0, abs(want))
                assert err <= 1e-12 * q ** (-n * (n - 1) / 2), (n, x, err)

    def test_degree_zero_both_normalizations(self, ctx):
        level = JacobiLevel(0.3, -0.2)
        assert cqjacobi(0, level, 0.4, ctx) == 1.0
        assert cqjacobi_classical(0, level, 0.4, ctx) == 1.0

    def test_normalization_relation(self):
        # classical normalization at base q vs Askey-Wilson form at base q^2
        n, al, be, q, x = 3, 0.5, -0.25, 0.49, 0.2
        level = JacobiLevel(al, be)
        lhs = cqjacobi_classical(n, level, x, QContext(q))
        rhs = (classical_to_aw_factor(n, level, q)
               * cqjacobi(n, level, x, QContext(q * q)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_level_is_alpha_beta_only(self):
        assert [f.name for f in dataclasses.fields(JacobiLevel)] == ["alpha", "beta"]

    def test_real_level_given_as_complex_stores_floats(self, ctx):
        real, spelled = JacobiLevel(0.3, -0.2), JacobiLevel(0.3 + 0j, -0.2 + 0j)
        assert (spelled.alpha, spelled.beta) == (0.3, -0.2)
        assert type(spelled.alpha) is float and type(spelled.beta) is float
        assert type(JacobiLevel(1, 2).alpha) is float
        assert spelled == real and hash(spelled) == hash(real) and spelled.is_real
        conj = JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)
        assert type(conj.alpha) is complex and not conj.is_real
        # one memo entry serves both spellings
        qpolys._norm_table.cache_clear()
        assert norm_h(4, spelled, ctx) == norm_h(4, real, ctx)
        info = qpolys._norm_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("alpha,beta", [
        (math.nan, 0.2), (0.3, math.inf), (-math.inf, 0.2),
        (complex(0.3, math.nan), complex(0.3, -0.5)),
    ])
    def test_non_finite_level_rejected(self, alpha, beta):
        with pytest.raises(DomainError, match="must be finite"):
            JacobiLevel(alpha, beta)

    def test_aw_equals_specialized_askey_wilson(self, ctx, level, rng):
        # the alternate representation equals the four-parameter polynomial
        n = 3
        x = rng.uniform(-0.9, 0.9)
        params = _aw_params(level, ctx.q)
        lhs = _aw_poly_4phi3(n, params, x, ctx)
        rhs = awpoly_to_cqj_factor(n, level, ctx.q) * cqjacobi(n, level, x, ctx)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_seq_matches_scalar(self, ctx, level):
        xs = np.array([-0.5, 0.2, 0.8])
        seq = cqjacobi_seq(5, level, xs, ctx)
        for n in range(6):
            for i, x in enumerate(xs):
                assert abs(seq[n][i] - cqjacobi(n, level, float(x), ctx)) \
                    <= 1e-12 * max(1.0, abs(seq[n][i]))


class TestWeight:
    """``weight_theta`` = w(x) sin(theta) against the product form of w at
    base sqrt(q)."""

    def test_two_routes_agree(self):
        ctx = QContext(0.64)
        level = JacobiLevel(0.3, -0.2)
        a = _weight_theta(level, np.array([0.5]), ctx)[0].real
        b = (_weight_w_literal(level, 0.5, ctx) * math.sqrt(1.0 - 0.5 * 0.5)).real
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_positive_on_grid(self, ctx, level):
        xs = np.linspace(-0.99, 0.99, 101)
        assert np.all(_weight_theta(level, xs, ctx).real > 0.0)

    def test_real_level_weight_is_real(self, ctx, level):
        for x in (-0.7, 0.1, 0.8):
            v = _weight_theta(level, np.array([x]), ctx)[0]
            assert abs(v.imag) <= 1e-13 * abs(v)

    def test_conjugate_pair_routes_agree(self):
        # the conjugate-pair weight is genuinely complex (parameter multiset
        # is not conjugation-stable); the two independent evaluation routes
        # must still agree, and orthogonality holds bilinearly against it
        ctx = QContext(0.5)
        level = JacobiLevel(0.3 + 0.4j, 0.3 - 0.4j)
        for x in (-0.6, 0.2, 0.7):
            v1 = _weight_theta(level, np.array([x]), ctx)[0]
            v2 = _weight_w_literal(level, x, ctx) * math.sqrt(1.0 - x * x)
            assert abs(v1 - v2) <= 1e-11 * abs(v1)


def _weight_theta(level, x, ctx):
    return weight_theta(_aw_params(level, ctx.q), x, ctx)


class TestNorms:
    def test_quadrature_matches_closed_form(self, ctx):
        level = JacobiLevel(0.3, -0.2)
        rule = awop.make_rule(200)
        w = awop.weight_theta_grid(level, rule, ctx)
        xs = np.cos(rule.nodes)
        polys = cqjacobi_seq(6, level, xs, ctx)
        for n in range(7):
            quad = np.sum(rule.weights * w * polys[n] * polys[n])
            hn = norm_h(n, level, ctx)
            assert abs(quad - hn) <= 1e-8 * abs(hn)

    def test_h0_is_total_mass(self, ctx, level):
        rule = awop.make_rule(200)
        mass = np.sum(rule.weights * awop.weight_theta_grid(level, rule, ctx))
        assert abs(mass - norm_h(0, level, ctx)) <= 1e-8 * abs(mass)

    def test_askey_wilson_route(self, ctx, level):
        # AW orthogonality norm with the q-Jacobi parameters, converted
        params = _aw_params(level, ctx.q)
        for n in range(5):
            aw = aw_norm(n, params, ctx)
            conv = awpoly_to_cqj_factor(n, level, ctx.q)
            assert abs(aw / conv ** 2 - norm_h(n, level, ctx)) \
                <= 1e-10 * abs(aw / conv ** 2)

    def test_kappa_is_degree_zero_norm(self, ctx, level):
        k = kappa_aw(_aw_params(level, ctx.q), ctx)
        assert abs(norm_h(0, level, ctx) - k) <= 1e-13 * abs(k)

    @pytest.mark.parametrize("q", [0.36, 0.5, 0.9])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (0.5, 0.5),
                                    (0.3 + 0.5j, 0.3 - 0.5j), (-0.5, -0.5)])
    def test_expansion_family_norm_is_askey_wilson_closed_form(self, lv, q):
        # the norm of p_m = (p_m/P_m) P_m is h_m (p_m/P_m)^2
        level, ctx = JacobiLevel(*lv), QContext(q)
        params = _aw_params(level, q)
        f = _p_factors(10, level, q)
        for m in range(11):
            want = aw_norm(m, params, ctx)
            got = norm_h(m, level, ctx) * f[m] ** 2
            assert abs(got - want) <= 1e-13 * abs(want), m


class TestConnection:
    def test_degree_zero_triple(self, ctx, level):
        t = connection_down(0, level, ctx)
        assert (t.c_nn, t.c_nn1, t.c_nn2) == (1.0, 0.0, 0.0)  # P_0 = 1 in both families

    def test_pointwise_identity(self):
        n, al, be, q, x = 4, 0.5, -0.25, 0.36, 0.7
        ctx = QContext(q)
        level = JacobiLevel(al, be)
        t = connection_down(n, level, ctx)
        lhs = cqjacobi(n, level, x, ctx)
        up = level.shifted(1)
        rhs = (t.c_nn * cqjacobi(n, up, x, ctx)
               + t.c_nn1 * cqjacobi(n - 1, up, x, ctx)
               + t.c_nn2 * cqjacobi(n - 2, up, x, ctx))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_symmetric_level_middle_coefficient_vanishes(self, ctx):
        level = JacobiLevel(0.4, 0.4)
        t = connection_down(3, level, ctx)
        assert t.c_nn1 == 0.0

    def test_classical_limit_ratios(self):
        # q -> 1: coefficient ratios against brute-force expansion of
        # classical Jacobi polynomials (independent binomial-formula oracle)
        q = 1.0 - 1e-4
        ctx = QContext(q)
        al, be = 0.5, -0.25

        def classical(n, a, b, x):
            tot = 0.0
            for s in range(n + 1):
                tot += (math.comb(n, s) * _rising(a + s + 1, n - s)
                        * _rising(a + b + n + 1, s) / math.factorial(n)
                        * ((x - 1) / 2) ** s)
            return tot

        def _rising(a, k):
            out = 1.0
            for i in range(k):
                out *= a + i
            return out

        for n in (3, 4):
            level = JacobiLevel(al, be)
            t = connection_down(n, level, ctx)
            # classical connection coefficients by linear solve at nodes
            xs = np.linspace(-0.8, 0.8, n + 1)
            A = np.array([[classical(m, al + 1, be + 1, x) for m in (n, n - 1, n - 2)]
                          for x in xs])
            rhs = np.array([classical(n, al, be, x) for x in xs])
            chat, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            # normalization-free comparison via scale factors measured at q
            scale = []
            for m in (n, n - 1, n - 2):
                xref = 0.63
                scale.append(cqjacobi(m, level.shifted(1), xref, ctx).real
                             / classical(m, al + 1, be + 1, xref))
            for i, m in enumerate((n - 1, n - 2)):
                got = ((t.c_nn1, t.c_nn2)[i] * scale[i + 1]
                       / (t.c_nn * scale[0]))
                want = chat[i + 1] / chat[0]
                assert abs(got - want) <= 2e-3 * abs(want)


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_removable_factors_cancel_near_the_line(q):
    # each of these holds a (1 - x^2)/(1 - x) or an equal pair above and
    # below on alpha + beta = -1; cancelled, they keep full precision on
    # both sides of the line, against 50 digits at the same float level
    ctx = QContext(q)
    for k in range(4, 15):
        for sign in (1, -1):
            for level in (JacobiLevel(-0.3, -0.7 + sign * 10.0 ** -k),
                          JacobiLevel((-1 + sign * 10.0 ** -k) / 2,
                                      (-1 + sign * 10.0 ** -k) / 2)):
                R1, c00, A0, norms = line_factors_mp(level, q, 50)
                params = _aw_params(level, q)
                got = [recurrence_a_coeffs(1, level, ctx)[2],
                       connection_down(0, level, ctx).c_nn,
                       _aw_coeffs(1, *params, q)[0][0]]
                f = _p_factors(3, level, q)
                got += [norm_h(n, level, ctx) * f[n] ** 2 / norm_h(0, level, ctx)
                        for n in range(4)]
                for g, want in zip(got, [R1, c00, A0, *norms]):
                    assert abs(g - want) <= 1e-14 * abs(want), (k, sign, level)


def _dual_classical(n, level, ctx):
    """The coefficients of dual_expansion_aw in the classical
    normalization: P_m(x; q) = classical_to_aw_factor(m) P_m(x | q^2)."""
    q = ctx.q
    up = classical_to_aw_factor(n - 1, level.shifted(1), q)
    return [e * up / classical_to_aw_factor(m, level, q)
            for e, m in zip(dual_expansion_aw(n, level, ctx), (n - 1, n, n + 1))]


class TestDualExpansion:
    def test_requires_positive_degree(self, ctx, level):
        with pytest.raises(DomainError):
            dual_expansion_aw(0, level, ctx)

    def test_pointwise_identity_classical(self, ctx):
        n, al, be, q, x = 3, 0.5, -0.25, 0.36, 0.4
        ctx = QContext(q)
        level = JacobiLevel(al, be)
        A = _dual_classical(n, level, ctx)
        quad = ((1 - 2 * x * q ** (al + 0.5) + q ** (2 * al + 1))
                * (1 + 2 * x * q ** (be + 0.5) + q ** (2 * be + 1)))
        lhs = quad * cqjacobi_classical(n - 1, level.shifted(1), x, ctx)
        rhs = sum(c * cqjacobi_classical(m, level, x, ctx)
                  for c, m in zip(A, (n - 1, n, n + 1)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_pointwise_identity_aw(self):
        n, al, be, q, x = 3, 0.5, -0.25, 0.36, 0.4
        ctx = QContext(q)
        ctx2 = QContext(q * q)
        level = JacobiLevel(al, be)
        E = dual_expansion_aw(n, level, ctx)
        quad = ((1 - 2 * x * q ** (al + 0.5) + q ** (2 * al + 1))
                * (1 + 2 * x * q ** (be + 0.5) + q ** (2 * be + 1)))
        lhs = quad * cqjacobi(n - 1, level.shifted(1), x, ctx2)
        rhs = sum(c * cqjacobi(m, level, x, ctx2)
                  for c, m in zip(E, (n - 1, n, n + 1)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_lower_projections_vanish(self, ctx):
        # expansion coefficients below degree n-1 are zero: quadrature check
        # (the base-q statement carries the quadratic factor in p = sqrt q)
        n = 5
        q = ctx.q
        level = JacobiLevel(0.3, -0.2)
        p = math.sqrt(q)
        rule = awop.make_rule(200)
        xs = np.cos(rule.nodes)
        al, be = 0.3, -0.2
        quadf = ((1 - 2 * xs * p ** (al + 0.5) + p ** (2 * al + 1))
                 * (1 + 2 * xs * p ** (be + 0.5) + p ** (2 * be + 1)))
        up = cqjacobi_seq(n - 1, level.shifted(1), xs, ctx)[n - 1]
        w = awop.weight_theta_grid(level, rule, ctx)
        lows = cqjacobi_seq(n - 2, level, xs, ctx)
        for k in range(n - 1):
            proj = np.sum(rule.weights * w * quadf * up * lows[k])
            assert abs(proj) <= 1e-9

    def test_classical_limit(self):
        # q -> 1: coefficients/4 approach the classical three-term data
        q = 1.0 - 1e-4
        ctx = QContext(q)
        al, be = 0.5, -0.25
        n = 3
        A = _dual_classical(n, JacobiLevel(al, be), ctx)
        c1 = 4 * (n + al) * (n + be) / ((2 * n + al + be) * (2 * n + al + be + 1))
        c2 = 4 * n * (al - be) / ((2 * n + al + be) * (2 * n + al + be + 2))
        c3 = -4 * n * (n + 1) / ((2 * n + al + be + 1) * (2 * n + al + be + 2))
        for got, want in zip(A, (c1, c2, c3)):
            assert abs(got / 4 - want) <= 1e-3 * abs(want)


class TestSuites:
    @pytest.mark.parametrize("name", [
        "qpolys.orthogonality", "qpolys.duality", "qpolys.contiguous",
    ])
    def test_suite_passes(self, name):
        r = verify.run_suite(name, verify.DEFAULT_CONFIG)
        assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"
