import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awspec import verify
from awspec.awop import (CoeffVector, dq_coeffs, dq_pointwise, eval_coeffvector,
                         kernel_eval, kernel_truncation, make_rule,
                         operator_residual, t_coeffs, t_factor, t_quadrature,
                         weight_theta_grid, xi_factor)
from awspec.exceptions import DomainError
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel, cqjacobi, cqjacobi_seq, norm_h
from awspec.spectral import eigenvalues
from oracles import _kernel_factors


class TestDqPointwise:
    def test_constant_maps_to_zero(self, ctx):
        assert dq_pointwise(lambda t: 1.0, 0.3, ctx) == 0.0

    def test_identity_maps_to_one(self, ctx):
        v = dq_pointwise(lambda t: t, 0.3, ctx)
        assert abs(v - 1.0) <= 1e-14

    def test_chebyshev_t2(self):
        # D_q T_2 = (q - q^{-1})/(q^{1/2} - q^{-1/2}) U_1,  U_1 = 2x
        q, x = 0.5, 0.3
        ctx = QContext(q)
        t2 = lambda t: 2 * t * t - 1
        lhs = dq_pointwise(t2, x, ctx)
        rhs = (q - 1 / q) / (math.sqrt(q) - 1 / math.sqrt(q)) * 2 * x
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_domain_error_at_endpoints(self, ctx):
        with pytest.raises(DomainError):
            dq_pointwise(lambda t: t, 1.0, ctx)


class TestCoefficientOperators:
    def test_dq_unit_vector(self, ctx, level):
        f = CoeffVector(level, (0.0, 1.0))
        out = dq_coeffs(f, ctx)
        assert out.level == level.shifted(1)
        assert out.coeffs[0] == xi_factor(1, level, ctx.q)

    def test_dq_zero_vector(self, ctx, level):
        out = dq_coeffs(CoeffVector(level, (0.0, 0.0, 0.0)), ctx)
        assert all(c == 0.0 for c in out.coeffs)

    def test_dq_pointwise_agreement(self, ctx, level, rng):
        # coefficient ladder against the pointwise operator for P_3
        xi3 = xi_factor(3, level, ctx.q)
        for x in rng.uniform(-0.9, 0.9, 20):
            lhs = dq_pointwise(lambda t: cqjacobi(3, level, t, ctx), x, ctx)
            rhs = xi3 * cqjacobi(2, level.shifted(1), x, ctx)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_t_unit_vector_factor(self, ctx, level):
        # the degree-0 -> degree-1 factor in closed form
        q = ctx.q
        al, be = 0.3, -0.2
        g = CoeffVector(level.shifted(1), (1.0,))
        out = t_coeffs(g, ctx)
        want = ((1 - q) * (1 + q ** ((al + be + 1) / 2))
                * (1 + q ** ((al + be + 2) / 2)) * q ** (-(2 * al + 1) / 4)
                / (2 * (1 - q ** (al + be + 2))))
        assert out.coeffs[0] == 0.0
        assert abs(out.coeffs[1] - want) <= 1e-14 * abs(want)

    def test_round_trip_identity(self, ctx, level, rng):
        g = CoeffVector(level.shifted(1), tuple(rng.standard_normal(7)))
        back = dq_coeffs(t_coeffs(g, ctx), ctx)
        for a, b in zip(back.coeffs, g.coeffs):
            assert abs(a - b) <= 1e-15 * max(1.0, abs(b))

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, coeffs):
        ctx = QContext(0.5)
        level = JacobiLevel(0.3, -0.2)
        g = CoeffVector(level.shifted(1), tuple(coeffs))
        back = dq_coeffs(t_coeffs(g, ctx), ctx)
        for a, b in zip(back.coeffs, g.coeffs):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


class TestKernel:
    def test_truncation_stability(self):
        ctx = QContext(0.5)
        level = JacobiLevel(0.3, -0.2)
        x, y = 0.2, -0.4
        kf = _kernel_factors(range(120), level, ctx)
        px = cqjacobi_seq(120, level, x, ctx)
        py = cqjacobi_seq(119, level.shifted(1), y, ctx)

        def partial(n):
            return sum(kf[k] * px[k + 1] * py[k] for k in range(n))

        k120 = partial(120)
        assert abs(partial(60) - k120) < 1e-10
        assert abs(kernel_eval(x, y, level, ctx) - k120) < 1e-10

    def test_reproducing_property(self, ctx, level):
        # integrating the kernel against P_0 at the shifted level yields
        # the degree-0 -> degree-1 coefficient times P_1
        rule = make_rule(160)
        fac = t_factor(0, level, ctx.q)
        for x in (-0.5, 0.2, 0.7):
            got = t_quadrature(lambda t: 1.0, x, level, rule, ctx)
            want = fac * cqjacobi(1, level, x, ctx)
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_term_ratio_geometric_mean(self, ctx, level):
        # consecutive term magnitudes oscillate; their geometric mean
        # approaches sqrt(q) (not q: the coefficient growth 1/h_n' beats
        # the q^n factor by q^{-n/2} against the polynomial amplitudes)
        q = ctx.q
        x, y = 0.2, -0.4
        n_hi = 96
        px = cqjacobi_seq(n_hi + 1, level, x, ctx)
        py = cqjacobi_seq(n_hi, level.shifted(1), y, ctx)
        kf = _kernel_factors(range(n_hi), level, ctx)
        terms = [kf[n] * px[n + 1] * py[n] for n in range(n_hi)]
        logs = [math.log(abs(terms[n + 1] / terms[n]))
                for n in range(30, n_hi - 1)]
        gm = math.exp(sum(logs) / len(logs))
        assert abs(gm - math.sqrt(q)) <= 0.1 * math.sqrt(q)

    def test_series_record_is_read_only(self, ctx, level):
        # the truncated series that T and K read: N + 1 factors and root
        # norms, neither writable, and the bound N met
        series = kernel_truncation(level, ctx)
        n = series.nterms
        assert series.factors.tolist() == _kernel_factors(range(n + 1), level, ctx)
        roots = [math.sqrt(abs(norm_h(k, level.shifted(1), ctx)))
                 for k in range(n + 1)]
        assert np.allclose(series.root_norms, roots, rtol=1e-15, atol=0)
        for arr in (series.factors, series.root_norms):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert 0 < series.tail_bound < ctx.tol

    def test_quadrature_error_report(self, ctx, level):
        # the difference against the doubled rule
        rule = make_rule(96)
        val = t_quadrature(lambda t: t * t, 0.3, level, rule, ctx)
        val2 = t_quadrature(lambda t: t * t, 0.3, level,
                            make_rule(2 * rule.size), ctx)
        assert abs(val2 - val) <= 1e-10

    def test_zero_function(self, ctx, level):
        rule = make_rule(64)
        assert t_quadrature(lambda t: 0.0, 0.2, level, rule, ctx) == 0.0


class TestQuadrature:
    def test_rule_doubling_consistency(self, ctx, level):
        # smooth test integral reproduced under node doubling
        f = np.cos
        r1 = make_rule(96)
        r2 = make_rule(192)
        w1 = weight_theta_grid(level, r1, ctx)
        w2 = weight_theta_grid(level, r2, ctx)
        v1 = np.sum(r1.weights * w1 * f(np.cos(r1.nodes)))
        v2 = np.sum(r2.weights * w2 * f(np.cos(r2.nodes)))
        assert abs(v1 - v2) <= 1e-12 * abs(v2)

    def test_eval_coeffvector(self, ctx, level):
        vec = CoeffVector(level, (0.5, -1.0, 2.0))
        x = 0.37
        want = (0.5 - 1.0 * cqjacobi(1, level, x, ctx)
                + 2.0 * cqjacobi(2, level, x, ctx))
        assert abs(eval_coeffvector(vec, x, ctx) - want) <= 1e-13 * abs(want)


class TestArrays:
    """T and K applied to arrays: g is called on the ndarray of node
    cosines, once per rule, and x (and y) may be arrays that broadcast."""

    def test_g_is_called_once_per_rule(self, ctx, level):
        calls = []

        def g(t):
            calls.append(np.shape(t))
            return t * t

        rule = make_rule(48)
        t_quadrature(g, 0.3, level, rule, ctx)
        assert calls == [(48,)]
        calls.clear()
        t_quadrature(g, np.linspace(-0.5, 0.5, 4), level, rule, ctx)
        assert calls == [(48,)]

    @pytest.mark.parametrize("lv", [JacobiLevel(0.3, -0.2),
                                    JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)])
    def test_t_quadrature_at_array_matches_scalar(self, ctx, lv):
        rule = make_rule(96)
        vec = CoeffVector(lv.shifted(1), (0.5, -1.0, 0.25j, 0.1))

        def g(t):
            return eval_coeffvector(vec, t, ctx)

        xs = np.array([-0.9, -0.3, 0.0, 0.45, 0.8, 0.2 + 0.3j])
        got = t_quadrature(g, xs, lv, rule, ctx)
        assert got.shape == xs.shape
        for x, v in zip(xs, got):
            want = t_quadrature(g, x, lv, rule, ctx)
            assert abs(v - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("lv", [JacobiLevel(0.3, -0.2),
                                    JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)])
    def test_kernel_on_broadcast_grid_matches_scalar(self, ctx, lv):
        nterms = kernel_truncation(lv, ctx).nterms
        kf = _kernel_factors(range(nterms), lv, ctx)
        xs = np.linspace(-0.8, 0.8, 4)
        ys = np.linspace(-0.7, 0.9, 3)
        grid = kernel_eval(xs[:, None], ys[None, :], lv, ctx)
        assert grid.shape == (4, 3)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                want = kernel_eval(float(x), float(y), lv, ctx)
                assert abs(grid[i, j] - want) <= 1e-13 * abs(want)
                # the term-by-term partial sum as reference
                px = cqjacobi_seq(nterms, lv, float(x), ctx)
                py = cqjacobi_seq(nterms - 1, lv.shifted(1), float(y), ctx)
                loop = sum(kf[n] * px[n + 1] * py[n] for n in range(nterms))
                assert abs(want - loop) <= 1e-13 * abs(loop)

    def test_operator_residual_matches_pointwise_loop(self, ctx, level):
        rule = make_rule(160)
        xs = np.linspace(-0.85, 0.85, 10)
        for r in eigenvalues(level, ctx, count=2, nmat=60):
            def g(t):
                return eval_coeffvector(r.coeffs, t, ctx)
            loop = max(abs(t_quadrature(g, x, level, rule, ctx) - r.lam * g(x))
                       for x in xs)
            got = operator_residual(r.lam, r.coeffs, xs, level, rule, ctx)
            assert abs(got - loop) <= 1e-15

    def test_one_node_rule_is_a_domain_error(self, ctx, level):
        with pytest.raises(DomainError, match="at least 2 nodes"):
            t_quadrature(lambda t: t, 0.2, level, make_rule(1), ctx)


class TestSuites:
    @pytest.mark.parametrize("name", [
        "awop.ladder", "awop.right-inverse", "awop.kernel-coeff",
    ])
    def test_suite_passes(self, name):
        r = verify.run_suite(name, verify.DEFAULT_CONFIG)
        assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"
