import cmath
import math

import mpmath
import numpy as np
import pytest

from awspec import spectral, verify
from awspec.awop import make_rule, operator_residual
from awspec.exceptions import DomainError, NonConvergenceError
from awspec.qcore import QContext, qpoch_inf
from awspec.qpolys import JacobiLevel, norm_h, norm_ratio
from awspec.spectral import (EigenResult, bn_B, bn_C, bn_explicit,
                             bn_minimal_scaled, bn_sequence, eigenfunction,
                             eigenvalues, f_eval, markov_ratio,
                             markov_stieltjes, matrix_oracle, q_coulomb,
                             recurrence_a_coeffs, s_poly, x_nu)
from oracles import (_an_from_bn, _bn_explicit_nested, _eigenvalue_equation,
                     _f_2phi1, _f_and_slope, _x_nu_series, an_minimal_mp,
                     classical_a_coeffs, f_root_lambdas, q_coulomb_literal)

CONJ = JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)


class TestRecurrenceCoeffs:
    def test_classical_limit(self):
        # q -> 1 against the explicit classical coefficients
        q = 1.0 - 1e-5
        ctx = QContext(q)
        k, al, be = 2, 0.5, -0.25
        got = recurrence_a_coeffs(k, JacobiLevel(al, be), ctx)
        want = classical_a_coeffs(k, al, be)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-3 * abs(w)

    def test_monic_transform_consistency(self, ctx, level):
        # the a-recurrence, pushed through the monic renormalization,
        # reproduces the b-recurrence coefficients
        lam = 0.37 + 0.21j
        a = [0.0 + 0.0j, 1.0 + 0.0j]
        q = ctx.q
        for k in range(1, 12):
            P, Q, R = recurrence_a_coeffs(k, level, ctx)
            lhs = -lam * a[k] * q ** (0.3 / 2 + 0.25)
            a.append((lhs - Q * a[k] - R * a[k - 1]) / P)
        for k in range(12):
            pred = _an_from_bn(k, lam, level, ctx)
            assert abs(pred - a[k + 1]) <= 1e-12 * max(1.0, abs(a[k + 1]))

    def test_symmetric_level_self_coupling_vanishes(self, ctx):
        _, Q, _ = recurrence_a_coeffs(3, JacobiLevel(0.4, 0.4), ctx)
        assert Q == 0.0

    def test_requires_positive_index(self, ctx, level):
        with pytest.raises(DomainError):
            recurrence_a_coeffs(0, level, ctx)


class TestBn:
    def test_initial_values(self, ctx, level):
        assert bn_sequence(0, 1.3 + 0.4j, level, ctx)[0] == 1.0
        mu = 0.9 - 0.2j
        b1 = bn_sequence(1, mu, level, ctx)[1]
        assert abs(b1 - (mu + bn_B(0, level, ctx.q))) <= 1e-15

    def test_explicit_against_recurrence(self):
        ctx = QContext(0.36)
        level = JacobiLevel(0.5, -0.25)
        mu = 0.7 + 0.1j
        a = bn_explicit(5, mu, level, ctx)
        b = bn_sequence(5, mu, level, ctx)[5]
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_explicit_degree_zero(self, ctx, level):
        assert bn_explicit(0, 2.7 - 1.1j, level, ctx) == 1.0

    def test_literal_41_form_small_degrees(self, ctx, level, rng):
        # the inner-4phi3 organization agrees with the double sum while
        # its cancellation stays below double precision
        for n in range(7):
            mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = _bn_explicit_nested(n, mu, level, ctx)
            b = bn_explicit(n, mu, level, ctx)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    @pytest.mark.parametrize("lvl", [JacobiLevel(0.3, -0.2), CONJ])
    def test_closed_form_same_code_both_precisions(self, ctx, lvl):
        # q = 0.5, n = 12 stays in long double; the shared builder and sum
        # run in mpmath give the same value
        n, mu = 12, 0.7 + 0.1j
        ld = spectral._longdouble_arith(lvl, ctx.q)
        got, _ = spectral._closed_form_sum(
            n, mu, *spectral._closed_form_arrays(n, ld), ld)
        with mpmath.workdps(40):
            mp = spectral._mp_arith(lvl, ctx.q)
            want, _ = spectral._closed_form_sum(
                n, mu, *spectral._closed_form_arrays(n, mp), mp)
        assert bn_explicit(n, mu, lvl, ctx) == got
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @staticmethod
    def _count_reruns(monkeypatch):
        built = []
        mp_arith = spectral._mp_arith
        monkeypatch.setattr(spectral, "_mp_arith",
                            lambda *a: built.append(a) or mp_arith(*a))
        return built

    def test_closed_form_escalates_to_mpmath(self, level, monkeypatch):
        # at q = 0.8 the inner sums of b_20 cancel by more than long
        # double can hold near |mu| = 1
        ctx = QContext(0.8)
        built = self._count_reruns(monkeypatch)
        for mu in (1.0, 0.1):
            got = bn_explicit(20, mu, level, ctx)
            want = bn_sequence(20, mu, level, ctx)[20]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert len(built) == 2

    def test_closed_form_without_cancellation_stays_in_long_double(
            self, level, monkeypatch):
        ctx = QContext(0.8)
        built = self._count_reruns(monkeypatch)
        for mu in (3.0, -3.0):
            got = bn_explicit(20, mu, level, ctx)
            want = bn_sequence(20, mu, level, ctx)[20]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert built == []

    def test_unbounded_error_counts_as_a_miss(self, monkeypatch):
        # beta = -1: the factor 1 - p^{b+1} of A_1 is exactly 0, so its
        # condition, and the bound, are not finite
        level, ctx = JacobiLevel(0.3, -1.0), QContext(0.5)
        built = self._count_reruns(monkeypatch)
        got = bn_explicit(6, 0.7, level, ctx)
        want = bn_sequence(6, 0.7, level, ctx)[6]
        assert len(built) == 1
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_closed_form_builds_only_row_n(self, ctx, level):
        n = 9
        A, B, a_units, b_units = spectral._closed_form_arrays(
            n, spectral._longdouble_arith(level, ctx.q))
        assert len(A) == len(B) == len(a_units) == len(b_units) == n + 1
        assert all(np.ndim(b) == 0 for b in B)

    def test_closed_form_bound_holds_and_returns_meet_tol(self):
        # every long-double value lies within its running bound of a
        # 50-digit evaluation of the same closed form, and every value
        # bn_explicit returns is within ctx.tol of it, mixed measure; up to
        # q = 0.95 at n = 40
        mus = (3.0, -1.2 + 1.9j, 0.4j)
        for al, be in [*verify.BN_PARAM_SETS, (2.0, 1.5), (-0.5, -0.5)]:
            level = JacobiLevel(al, be)
            for q in (0.36, 0.5, 0.8, 0.95):
                ctx = QContext(q)
                ld = spectral._longdouble_arith(level, q)
                for n in (0, 1, 5, 10, 20, 40):
                    arrays = spectral._closed_form_arrays(n, ld)
                    with mpmath.workdps(50):
                        mp = spectral._mp_arith(level, q)
                        mp_arrays = spectral._closed_form_arrays(n, mp)
                        refs = [spectral._closed_form_sum(n, mu, *mp_arrays, mp)[0]
                                for mu in mus]
                    for mu, ref in zip(mus, refs):
                        where = f"({al}, {be}) q={q} n={n} mu={mu}"
                        value, bound = spectral._closed_form_sum(n, mu, *arrays, ld)
                        assert abs(value - ref) <= bound, where
                        got = bn_explicit(n, mu, level, ctx)
                        err = abs(got - ref) / max(1.0, abs(ref))
                        assert err <= ctx.tol, where
                        if q == 0.95 and n == 40:
                            assert err <= 1e-12, where

    def test_monic_leading_coefficient(self, ctx, level):
        # leading coefficient in mu extracted by scaling at large |mu|
        for n in (3, 6, 10):
            mu = 1e6
            assert abs(bn_explicit(n, mu, level, ctx) / mu ** n - 1.0) < 1e-4

    def test_an_normalization(self, ctx, level):
        lam = 0.8 + 0.3j
        assert _an_from_bn(0, lam, level, ctx) == 1.0  # a_1 = 1
        assert _an_from_bn(-1, lam, level, ctx) == 0.0  # a_0 = 0

    def test_an_polynomial_degree(self, ctx, level):
        # a_4(lambda)/a_1 is a polynomial of degree 3: fourth differences
        # vanish, third do not
        h = 0.35
        vals = [_an_from_bn(3, 0.4 + k * h, level, ctx) for k in range(6)]
        d3 = [vals[k + 3] - 3 * vals[k + 2] + 3 * vals[k + 1] - vals[k]
              for k in range(2)]
        d4 = vals[4] - 4 * vals[3] + 6 * vals[2] - 4 * vals[1] + vals[0]
        assert abs(d4) <= 1e-9 * max(abs(d) for d in d3)
        assert all(abs(d) > 1e-6 for d in d3)


class TestXnuF:
    def test_routes_agree(self):
        ctx = QContext(0.36)
        level = JacobiLevel(0.5, -0.25)
        for nu in (-1, 0, 3):
            v1 = x_nu(nu, 1.5, level, ctx)
            v2 = _x_nu_series(nu, 1.5, level, ctx)
            assert abs(v1 - v2) <= 1e-10 * abs(v1), nu

    def test_f_matches_the_2phi1_oracle(self):
        # the one F, the entire series, against the 2phi1 with the product
        # in front: 100 draws of mu per level, |Re mu|, |Im mu| <= 3
        rng = np.random.default_rng(1)
        worst = 0.0
        for lv in [(0.3, -0.2), (0.3 + 0.5j, 0.3 - 0.5j), (2.0, 1.5),
                   (1.2, 0.7), (-0.4, 0.6)]:
            level = JacobiLevel(*lv)
            for q in (0.1, 0.36, 0.5, 0.8, 0.9):
                ctx = QContext(q)
                for _ in range(20):
                    mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    want = _f_2phi1(mu, level, ctx)
                    worst = max(worst, abs(f_eval(mu, level, ctx) - want) / abs(want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (-0.5, -0.5),
                                    (0.3 + 0.5j, 0.3 - 0.5j)],
                             ids=["real", "half", "conj"])
    def test_f_is_continuous_at_the_2phi1_poles(self, lv, q):
        # at mu_k = -p^{a+3/2+k} the 2phi1's w p^k = 1: its product in front
        # is 0 and its series has a pole, where F itself is finite; some of
        # these factors round to exactly 0, so the sum starts past them
        level, ctx = JacobiLevel(*lv), QContext(q)
        p = math.sqrt(q)
        for k in range(5):
            mu = -p ** (level.alpha + 1.5 + k)
            f = f_eval(mu, level, ctx)
            h = 1e-7
            mid = (f_eval(mu * (1 + h), level, ctx)
                   + f_eval(mu * (1 - h), level, ctx)) / 2
            assert cmath.isfinite(f) and f != 0, (k, f)
            assert abs(f - mid) <= 1e-10 * max(1.0, abs(f)), (k, f, mid)

    def test_series_route_domain(self, ctx, level):
        with pytest.raises(DomainError):
            _x_nu_series(0, 0.3, level, ctx)

    def test_large_order_asymptotics(self, ctx, level):
        v = x_nu(40, 2.0, level, ctx) * (-2.0) ** 40
        assert abs(v - 1.0) <= 1e-4

    def test_overflowing_power_is_a_typed_error(self):
        # (-x)^{-nu} passes the largest float at large nu and small |x|
        with pytest.raises(NonConvergenceError, match="overflows"):
            x_nu(490, 0.2, JacobiLevel(0.3, -0.2), QContext(0.5))

    def test_underflowing_power_is_a_typed_error(self):
        # at the top root of q = 0.95, |xi| = 12.05 and (-xi)^{-490} is
        # below the smallest float: no exact 0 comes back
        level, ctx = JacobiLevel(0.3, -0.2), QContext(0.95)
        xi = eigenvalues(level, ctx, count=1, nmat=60)[0].mu
        with pytest.raises(NonConvergenceError, match="underflows"):
            x_nu(490, xi, level, ctx)

    def test_three_term_recurrence(self, ctx, level, rng):
        q = ctx.q
        x = complex(rng.uniform(0.8, 2.0), rng.uniform(-0.5, 0.5))
        for nu in range(6):
            lhs = bn_C(nu + 1, level, q) * x_nu(nu + 1, x, level, ctx)
            rhs = (x_nu(nu, x, level, ctx) * (x + bn_B(nu, level, q))
                   + x_nu(nu - 1, x, level, ctx))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-6)

    def test_f_zero_set_matches_x_minus_one(self, ctx, level):
        res = eigenvalues(level, ctx, count=1, nmat=50)
        xi = res[0].mu
        assert abs(x_nu(-1, xi, level, ctx)) < 1e-8

    def test_f_large_argument_limit(self, ctx, level):
        # F(x) -> closed product value = 1 as x -> infinity
        q = ctx.q
        p = math.sqrt(q)
        al, be = 0.3, -0.2
        phi_limit = (qpoch_inf(p ** (al + be + 2), p, tol=1e-14)
                     / qpoch_inf(p ** (be + 1), p, tol=1e-14))
        pref_limit = (qpoch_inf(p ** (be + 1), p, tol=1e-14)
                      / qpoch_inf(p ** (al + be + 2), p, tol=1e-14))
        want = pref_limit * phi_limit
        assert abs(f_eval(1e6, level, ctx) - want) <= 1e-5

    def test_nonzero_argument_required(self, ctx, level):
        with pytest.raises(DomainError):
            f_eval(0.0, level, ctx)


class TestEig314:
    def test_value_at_zero(self, ctx, level):
        # at x = 0 the equation value reduces to a convergent 2phi1
        q = ctx.q
        p = math.sqrt(q)
        al, be = 0.3, -0.2
        want = (qpoch_inf(p ** (al + be + 2), p, tol=1e-14)
                / qpoch_inf(p ** (be + 1), p, tol=1e-14))
        assert abs(_eigenvalue_equation(0.0, level, ctx) - want) <= 1e-10 * abs(want)

    def test_real_for_real_input(self, ctx, level):
        v = _eigenvalue_equation(1.7, level, ctx)
        assert abs(v.imag) <= 1e-13 * max(1.0, abs(v))

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (0.3 + 0.5j, 0.3 - 0.5j)],
                             ids=["real", "conj"])
    def test_ratio_to_its_value_at_zero_is_f(self, lv, q):
        # E(x)/E(0) = F(mu) at x = 2/((1-q) mu): E(0) is 1/F(infinity)
        level, ctx = JacobiLevel(*lv), QContext(q)
        e0 = _eigenvalue_equation(0.0, level, ctx)
        for mu in (1.7 - 0.2j, -0.9 + 2.1j, 0.4, -2.5 - 0.3j):
            x = 2.0 / ((1.0 - q) * mu)
            f = f_eval(mu, level, ctx)
            got = _eigenvalue_equation(x, level, ctx) / e0
            assert abs(got - f) <= 1e-12 * max(1.0, abs(f)), (mu, got, f)

    def test_root_maps_to_certified_eigenvalue(self, ctx, level):
        # zeros x* of the literal equation correspond to eigenvalues via
        # lambda = q^{-1/2}/x* (the statement's (1-q)/2 map does not fit
        # the equation's own scaling; the F route is authoritative)
        res = eigenvalues(level, ctx, count=1, nmat=50)
        mu = res[0].mu
        xstar = 2.0 / ((1 - ctx.q) * mu)
        assert abs(_eigenvalue_equation(xstar, level, ctx)) < 1e-9
        lam_mapped = ctx.q ** -0.5 / xstar
        assert abs(lam_mapped - res[0].lam) <= 1e-9 * abs(res[0].lam)


class TestEigenvalues:
    def test_matrix_oracle_smallest_section(self, ctx, level):
        ev = matrix_oracle(1, level, ctx)
        _, Q, _ = recurrence_a_coeffs(1, level, ctx)
        want = Q / (-ctx.q ** (0.3 / 2 + 0.25))
        assert abs(ev[0] - want) <= 1e-14 * abs(want)

    def test_lambda_zero_rejected(self, ctx, level):
        with pytest.raises(DomainError):
            EigenResult(0.0, 0.0, 0.0, None, True)

    def test_nonzero_and_conjugate_closure(self, ctx, level):
        res = eigenvalues(level, ctx, count=6, nmat=60)
        lams = [r.lam for r in res]
        assert all(abs(l) > 0 for l in lams)
        for lam in lams:
            assert min(abs(lam.conjugate() - l2) for l2 in lams) <= 1e-10

    def test_truncation_drift(self, ctx, level):
        r40 = eigenvalues(level, ctx, count=5, nmat=40)
        r80 = eigenvalues(level, ctx, count=5, nmat=80)
        for a, b in zip(r40, r80):
            assert abs(a.lam - b.lam) <= 1e-8

    def test_residual_certification(self, ctx, level):
        for r in eigenvalues(level, ctx, count=5, nmat=60):
            assert r.residual_f <= 1e-9
            assert r.converged

    def test_imaginary_regimes(self, ctx):
        for lv in (JacobiLevel(0.4, 0.4), CONJ):
            ev = matrix_oracle(30, lv, ctx)[:6]
            for e in ev:
                assert abs(e.real) <= 1e-9 * abs(e)

    def test_oracle_matches_refined_roots(self, ctx, level):
        ev = matrix_oracle(60, level, ctx)[:10]
        res = eigenvalues(level, ctx, count=5, nmat=60)
        for r in res:
            assert min(abs(r.lam - e) for e in ev) <= 1e-6

    @pytest.mark.parametrize("lv,q", [((0.3, -0.2), 0.5), ((0.4, 0.4), 0.36),
                                      ((2.0, 1.5), 0.1), ((1.0, -0.5), 0.9)])
    def test_real_level_oracle_is_solved_in_real_arithmetic(self, lv, q):
        level, ctx = JacobiLevel(*lv), QContext(q)
        for n in (12, 40, 80):
            ev = matrix_oracle(n, level, ctx)
            assert set(ev.conjugate().tolist()) == set(ev.tolist())
            sP, sQ, sR = np.array(spectral._oracle_rows(n, level, ctx)[:n]).T
            m = np.diag(sQ) + np.diag(sP[:-1], 1) + np.diag(sR[1:], -1)
            ec = np.linalg.eigvals(m.astype(complex))
            # the small tail of the section is ill-conditioned in either
            # arithmetic (4.7e-9 apart at |lambda| ~ 1e-7, n = 80), so
            # the tail is held to the scale of the leading eigenvalue
            dist = [float(np.min(np.abs(ec - e))) for e in ev]
            assert max(dist) <= 1e-12 * abs(ev[0])
            assert all(d <= 1e-12 * abs(e) for d, e in zip(dist[:10], ev))

    @pytest.mark.parametrize("lv,q", [((0.3, -0.2), 0.5), ((0.4, 0.4), 0.36),
                                      ((0.3 + 0.5j, 0.3 - 0.5j), 0.6),
                                      ((2.0, 1.5), 0.1)])
    def test_fewer_roots_are_a_prefix_of_more(self, lv, q):
        level, ctx = JacobiLevel(*lv), QContext(q)

        def bits(r):
            vals = [r.lam, r.mu, r.residual_f, *r.coeffs.coeffs]
            return np.array(vals, dtype=complex).tobytes(), r.converged, r.coeffs.level

        for nmat in (12, 40):
            for c in (1, 2, 3):
                few = eigenvalues(level, ctx, count=c, nmat=nmat)
                more = eigenvalues(level, ctx, count=c + 4, nmat=nmat)[:c]
                assert [bits(r) for r in few] == [bits(r) for r in more]

    @pytest.mark.parametrize("q", [1e-7, 1e-5, 1e-4, 1e-3, 0.01])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (1.816, -0.067), (2.0, 1.5),
                                    (0.3 + 0.5j, 0.3 - 0.5j)])
    def test_small_q_lists_every_root_it_is_asked_for(self, lv, q):
        # the spectrum falls below any absolute cut at small q; only an
        # exactly zero seed is skipped, so no list comes back short
        res = eigenvalues(JacobiLevel(*lv), QContext(q), count=12, nmat=80)
        assert len(res) == 12 and all(r.converged for r in res)

    def test_failed_seeds_are_listed_not_dropped(self, monkeypatch):
        # with no Newton step every seed fails: the section doubles to nmat
        # rows, and there each seed is listed with converged=False
        level, ctx = JacobiLevel(0.3, -0.2), QContext(0.5)
        want = [r.lam for r in eigenvalues(level, ctx, count=5, nmat=40)]
        monkeypatch.setattr(spectral, "_NEWTON_STEPS", 0)
        res = eigenvalues(level, ctx, count=5, nmat=40)
        assert len(res) == 5 and not any(r.converged for r in res)
        for r, lam in zip(res, want):
            assert abs(r.lam - lam) <= 1e-14 * abs(lam)


def _section_eigs_mp(level, ctx, n, dps):
    """Eigenvalues of the n-row section, its float rows solved in mpmath at
    ``dps`` digits."""
    rows = spectral._oracle_rows(n, level, ctx)[:n]
    with mpmath.workdps(dps):
        m = mpmath.zeros(n, n)
        for i, (sP, sQ, sR) in enumerate(rows):
            m[i, i] = mpmath.mpmathify(sQ)
            if i + 1 < n:
                m[i, i + 1] = mpmath.mpmathify(sP)
            if i:
                m[i, i - 1] = mpmath.mpmathify(sR)
        return [complex(e) for e in mpmath.eig(m, left=False, right=False)]


class TestTwistedSolve:
    """The roots solved on the section's rows against Newton on F, the
    dense section and a 30-digit eigensolve."""

    @pytest.mark.parametrize("q", [1e-4, 0.1, 0.36, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (0.4, 0.4),
                                    (0.3 + 0.5j, 0.3 - 0.5j), (-0.5, -0.5),
                                    (2.0, 1.5)])
    def test_top_five_match_newton_on_f(self, lv, q):
        level, ctx = JacobiLevel(*lv), QContext(q)
        got = [r.lam for r in eigenvalues(level, ctx, count=5, nmat=80)]
        want = f_root_lambdas(level, ctx, 5, 80)
        assert len(got) == len(want) == 5
        for mine, theirs in ((got, want), (want, got)):
            for lam in mine:
                assert min(abs(lam - o) for o in theirs) <= 1e-14 * abs(lam)

    @pytest.mark.parametrize("lv,q", [((0.3, -0.2), 0.5),
                                      ((0.3 + 0.5j, 0.3 - 0.5j), 0.6),
                                      ((0.4, 0.4), 0.9)])
    def test_roots_are_the_top_of_the_dense_section(self, lv, q):
        level, ctx = JacobiLevel(*lv), QContext(q)
        dense = matrix_oracle(160, level, ctx)
        for count in (1, 3, 5, 10, 20):
            res = eigenvalues(level, ctx, count=count, nmat=80)
            assert len(res) == count and all(r.converged for r in res)
            for r, ev in zip(res, dense[:count]):
                assert abs(r.lam - ev) <= 1e-10 * abs(ev), (count, r.lam, ev)

    def test_small_q_roots_hold_60_digits(self):
        # at q = 1e-4 the eighth root is 1.3e-15: the 60-row section's rows
        # solved in 60 digits give all eight, each to rounding
        level, ctx = JacobiLevel(0.3, -0.2), QContext(1e-4)
        exact = _section_eigs_mp(level, ctx, 60, 60)
        res = eigenvalues(level, ctx, count=8, nmat=80)
        assert len(res) == 8 and all(r.converged for r in res)
        for r in res:
            err = min(abs(r.lam - e) for e in exact) / abs(r.lam)
            assert err <= 3e-15, (r.lam, err)

    def test_top_five_hold_30_digits(self):
        # the top five of the 20-row section equal those of the 24- and
        # 28-row sections to 30 digits here, so the section is settled
        level, ctx = CONJ, QContext(0.5)
        exact = _section_eigs_mp(level, ctx, 20, 30)
        for r in eigenvalues(level, ctx, count=5, nmat=80):
            err = min(abs(r.lam - e) for e in exact) / abs(r.lam)
            assert err <= 3e-16, (r.lam, err)


class TestFSlope:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("lv", [(0.3, -0.2), (0.3 + 0.5j, 0.3 - 0.5j)],
                             ids=["real", "conj"])
    def test_value_and_slope(self, lv, q):
        level, ctx = JacobiLevel(*lv), QContext(q)
        root = eigenvalues(level, ctx, count=1, nmat=40)[0].mu
        for x in (root, 1.7 - 0.2j, -0.9 + 2.1j):
            f, d = _f_and_slope(x, level, ctx)
            assert f == _f_2phi1(x, level, ctx)

            def central(h):
                return (f_eval(x + h, level, ctx) - f_eval(x - h, level, ctx)) / (2 * h)

            h = 1e-3 * abs(x)
            richardson = (4 * central(h / 2) - central(h)) / 3
            assert abs(d - richardson) <= 1e-8 * abs(d)


class TestEigenfunction:
    def test_normalization(self, ctx, level):
        res = eigenvalues(level, ctx, count=1, nmat=50)
        f = res[0].coeffs
        assert f.coeffs[0] == 0.0
        assert f.coeffs[1] == 1.0

    def test_weighted_tail_converges(self, ctx, level):
        # ratios t_{k+1}/t_k of the weighted tail t_k = h_k |a_k|^2
        res = eigenvalues(level, ctx, count=1, nmat=50)
        a = res[0].coeffs.coeffs
        ratios = [abs(norm_ratio(k, level, ctx.q)) * abs(a[k + 1] / a[k]) ** 2
                  for k in range(1, len(a) - 1)]
        assert all(r < 1.0 for r in ratios[20:])

    def test_off_eigenvalue_tail_grows(self, ctx, level):
        # at a non-eigenvalue the weighted tail grows without bound
        # (superexponentially, so the window stays below float overflow)
        res = eigenvalues(level, ctx, count=1, nmat=50)
        lam = res[0].lam * 1.18
        tail = []
        for k in range(24, 37):
            a = _an_from_bn(k, lam, level, ctx)
            tail.append(abs(norm_h(k + 1, level, ctx)) * abs(a) ** 2)
        assert tail[-1] > 1e6 * tail[0]

    def test_operator_residual(self, ctx, level):
        res = eigenvalues(level, ctx, count=2, nmat=60)
        xs, rule = np.linspace(-0.8, 0.8, 10), make_rule(160)
        for r in res:
            assert operator_residual(r.lam, r.coeffs, xs, level, rule, ctx) <= 1e-6

    def test_miller_matches_x_route(self, ctx, level):
        res = eigenvalues(level, ctx, count=1, nmat=50)
        xi = res[0].mu
        w = bn_minimal_scaled(40, xi, level, ctx)
        # cross-check against the telescoped X-route value at n = 25
        n = 25
        prod = 1.0 + 0.0j
        for nu in range(n):
            prod *= bn_C(nu + 1, level, ctx.q)
        bx = prod * x_nu(n, xi, level, ctx) / x_nu(0, xi, level, ctx)
        got = w[n] * (-xi) ** -n * ctx.q ** (n * (n + 0.3 - 0.2 + 3) / 2)
        assert abs(got - bx) <= 1e-10 * abs(bx)

    @pytest.mark.parametrize("lv", [JacobiLevel(0.3, -0.2), CONJ],
                             ids=["real", "conj"])
    @pytest.mark.parametrize("q, count", [(1e-8, 1), (1e-7, 1), (0.1, 5),
                                          (0.5, 5), (0.9, 5)])
    def test_matches_the_minimal_solution_at_50_digits(self, lv, q, count):
        # below q = 1e-7 the monic route's C_k underflowed before the 48
        # coefficients kept; at q <= 0.1 it flushed coefficients that are
        # still normal floats
        ctx = QContext(q)
        for r in eigenvalues(lv, ctx, count=count, nmat=80):
            got = eigenfunction(r.lam, lv, 48, ctx).coeffs
            want = an_minimal_mp(r.lam, lv, q, 48, 50)
            assert got[:2] == (0.0, 1.0)
            for k, (g, w) in enumerate(zip(got, want)):
                if abs(w) >= 1e-200:
                    assert abs(g - w) <= 1e-12 * abs(w), (k, g, w)

    @pytest.mark.parametrize("call", [
        lambda level, ctx: eigenfunction(0.0, level, 10, ctx),
        lambda level, ctx: bn_minimal_scaled(10, 0.0, level, ctx),
    ], ids=["eigenfunction", "bn_minimal_scaled"])
    def test_lambda_zero_is_a_domain_error(self, ctx, level, call):
        with pytest.raises(DomainError):
            call(level, ctx)


class TestSPolynomials:
    def test_regime_validation(self, ctx, level):
        with pytest.raises(DomainError):
            s_poly(3, 0.5, level, ctx)

    def test_real_diagonal_negative_subdiagonal(self, ctx):
        # s_{n+1} = (x + diag) s_n + sub s_{n-1}, from the monic recurrence
        # of b_n through s_n(x) = i^{-n} b_n(i x)
        for n in range(11):
            diag, sub = -1j * bn_B(n, CONJ, ctx.q), -bn_C(n, CONJ, ctx.q)
            assert abs(diag.imag) <= 1e-14 * max(1.0, abs(diag))
            if n > 0:
                assert sub.real < 0 and abs(sub.imag) <= 1e-14 * abs(sub)

    def test_real_values_on_real_axis(self, ctx, rng):
        for n in range(11):
            x = rng.uniform(-2, 2)
            v = s_poly(n, x, CONJ, ctx)
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))

    def test_definitional_consistency(self, ctx):
        x = 0.8
        for n in (2, 5, 8):
            v1 = s_poly(n, x, CONJ, ctx)
            v2 = (1j) ** (-n) * bn_explicit(n, 1j * x, CONJ, ctx)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


class TestMarkov:
    def test_starred_initial_conditions(self, ctx):
        # the starred solution is realized by the shifted family with
        # (s_1)* = s_0^{(a+1,b+1)} = 1, so the n = 1 ratio is exactly 1/s_1
        assert s_poly(0, 2j, CONJ.shifted(1), ctx) == 1.0
        r1 = markov_ratio(1, 2j, CONJ, ctx)
        assert abs(r1 - 1.0 / s_poly(1, 2j, CONJ, ctx)) <= 1e-14 * abs(r1)

    def test_requires_complex_argument(self, ctx):
        with pytest.raises(DomainError):
            markov_ratio(10, 1.5, CONJ, ctx)

    def test_vanishing_s_n_is_a_domain_error(self, ctx, monkeypatch):
        monkeypatch.setattr(spectral, "s_poly", lambda n, x, level, ctx: 0.0)
        with pytest.raises(DomainError,
                           match=r"^markov_ratio: s_10 vanishes at x = 2j; "):
            markov_ratio(10, 2j, CONJ, ctx)

    def test_ratio_matches_stieltjes(self, ctx):
        rat = markov_ratio(60, 2j, CONJ, ctx)
        closed = markov_stieltjes(2j, CONJ, ctx)
        assert abs(rat - closed) <= 1e-5 * abs(closed)

    def test_convergence_monotone(self, ctx):
        # the finite-n ratio converges so fast at x = 2i that it reaches
        # the precision floor by n ~ 8; the decrease is visible before
        # that and everything beyond sits at roundoff level
        closed = markov_stieltjes(2j, CONJ, ctx)
        errs = [abs(markov_ratio(n, 2j, CONJ, ctx) - closed)
                for n in (2, 4, 6)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        late = max(abs(markov_ratio(n, 2j, CONJ, ctx) - closed)
                   for n in range(30, 40, 2))
        assert late <= 1e-12


class TestQCoulomb:
    def test_value_at_zero(self, ctx):
        assert q_coulomb(0.5, 0.3, 0.0, ctx) == 1.0

    def test_reality(self, ctx):
        v = q_coulomb(0.5, 0.3, 1.2, ctx)
        assert abs(v.imag) <= 1e-12

    @pytest.mark.parametrize("L, eta, q", [(0.5, 0.3, 0.5), (-0.9, -0.7, 0.5),
                                           (1.2, 0.4, 0.8)])
    def test_grid_is_the_scalar_calls_bit_for_bit(self, L, eta, q):
        # the grid holds rho = 0 and crosses |z| = min(0.9, |B|), where the
        # direct series hands over to the Heine form; at (-0.9, -0.7) the
        # switch is at 0.9, elsewhere at |B| = q^{L+1}
        ctx = QContext(q)
        rhos = np.linspace(0.0, 2.5, 51)
        assert 0.0 < min(0.9, q ** (L + 1)) / math.sqrt(q) < rhos[-1]
        want = np.array([q_coulomb_literal(L, eta, float(r), ctx) for r in rhos])
        scalar = np.array([q_coulomb(L, eta, float(r), ctx) for r in rhos])
        got = q_coulomb(L, eta, rhos, ctx)
        assert got.dtype == complex and got.shape == rhos.shape
        assert got.tobytes() == scalar.tobytes() == want.tobytes()
        assert q_coulomb(L, eta, rhos.reshape(3, 17), ctx).tobytes() == want.tobytes()
        assert got[0] == 1.0

    def test_continuation_consistency(self, ctx):
        # direct series and Heine-continued form agree inside the disc, and
        # q_coulomb with them: below |B| = q^{3/2} = 0.35 (rho = 0.3), and
        # in |B| <= |z| < 0.9 (rho = 0.7, 1.1), where it sums the continued
        # form
        q = ctx.q
        L, eta = 0.5, 0.3
        A = q ** (L + 1j * eta + 1)
        B = q ** (L - 1j * eta + 1)
        from awspec.qcore import phi
        for rho in (0.3, 0.7, 1.1):
            z = 1j * math.sqrt(q) * rho
            direct = qpoch_inf(z, q, tol=1e-14) * phi([-A, B], [q ** (2 * L + 2)], q, z,
                                                      nterms=-1, tol=1e-14)
            cont = (qpoch_inf(B, q, tol=1e-14) * qpoch_inf(-A * z, q, tol=1e-14)
                    / qpoch_inf(q ** (2 * L + 2), q, tol=1e-14)
                    * phi([A, z], [-A * z], q, B, nterms=-1, tol=1e-14))
            assert abs(direct - cont) <= 1e-13 * abs(direct)
            assert abs(q_coulomb(L, eta, rho, ctx) - direct) <= 1e-13 * abs(direct)

    def test_zero_interlacing_with_s_polynomials(self, ctx):
        # with L = Re(alpha), eta = Im(alpha) and base p, the scaled
        # Coulomb function carries the X_{-1} zero set that supports the
        # s_n orthogonality measure: sign changes interlace qualitatively
        q = ctx.q
        p = math.sqrt(q)
        ctx_p = QContext(p)
        L, eta = 0.3, 0.5
        rhos = np.linspace(0.35, 12.0, 900)
        fvals = [q_coulomb(L, eta, float(r), ctx_p).real for r in rhos]
        svals = [s_poly(40, -1.0 / float(r), CONJ, ctx).real for r in rhos]

        def crossings(vals):
            return [i for i in range(len(vals) - 1)
                    if vals[i] * vals[i + 1] < 0]

        cf = crossings(fvals)
        cs = crossings(svals)
        assert abs(len(cf) - len(cs)) <= 1
        # between consecutive F-zeros there is at least one s-crossing
        for a, b in zip(cf, cf[1:]):
            assert any(a < c <= b for c in cs)


class TestSuites:
    @pytest.mark.parametrize("name", [
        "spectral.asymp-growth", "spectral.asymp-zero", "spectral.asymp-root",
        "spectral.x-telescope", "spectral.markov", "spectral.coulomb",
    ])
    def test_suite_passes(self, name):
        r = verify.run_suite(name, verify.DEFAULT_CONFIG)
        assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"
