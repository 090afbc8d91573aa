import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awspec import backend, qcore, verify
from awspec.exceptions import DomainError, NonConvergenceError, PoleError
from awspec.qcore import QContext, exp_itheta, h_product, phi, qpoch, qpoch_inf


class TestQContext:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-14,
                                     1.0, 2.0])
    def test_tol_must_be_finite_in_zero_one(self, tol):
        with pytest.raises(DomainError, match="tol must be finite"):
            QContext(0.5, tol)

    def test_fields_are_q_and_tol(self):
        assert [f.name for f in dataclasses.fields(QContext)] == ["q", "tol"]


class TestQPoch:
    def test_n_zero_is_one(self):
        assert qpoch(2.3 - 1.1j, 0.5, 0) == 1.0

    def test_vanishing_first_factor(self):
        assert qpoch(1.0, 0.5, 3) == 0.0

    def test_two_factor_product(self):
        assert qpoch(0.5, 0.5, 2) == pytest.approx(0.375)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            qpoch(0.5, 0.5, -1)

    def test_invalid_base(self):
        with pytest.raises(DomainError):
            qpoch(0.5, 1.5, 2)

    @given(st.integers(0, 10), st.integers(0, 10),
           st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_splitting_identity(self, n, m, a):
        q = 0.5
        lhs = qpoch(a, q, n + m)
        rhs = qpoch(a, q, n) * qpoch(a * q ** n, q, m)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


class TestOneRoutePerFactorial:
    def test_qcore_factorials_are_the_kernels(self):
        assert qcore.qpoch is backend.qpoch
        assert qcore.qpoch_inf is backend.qpoch_inf

    @pytest.mark.parametrize("base", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_base_outside_zero_one(self, base):
        with pytest.raises(DomainError, match="base must be in"):
            qpoch(0.5, base, 2)
        with pytest.raises(DomainError, match="base must be in"):
            qpoch_inf(0.5, base, 1e-14)
        with pytest.raises(DomainError, match="base must be in"):
            phi([0.5], [0.25], base, 0.1, nterms=-1, tol=1e-14)


class TestQPochInf:
    def test_zero_argument(self):
        assert qpoch_inf(0.0, 0.5, tol=1e-14) == 1.0

    def test_unit_argument_vanishes(self):
        assert qpoch_inf(1.0, 0.5, tol=1e-14) == 0.0

    def test_two_truncations_agree(self):
        v1 = qpoch_inf(0.5, 0.5, tol=1e-10)
        v2 = qpoch_inf(0.5, 0.5, tol=1e-16)
        assert abs(v1 - v2) <= 1e-10 * abs(v2)

    def test_guard_against_budget_exhaustion(self):
        with pytest.raises(NonConvergenceError):
            qpoch_inf(0.5, 0.99999, tol=1e-14)


class TestRphis:
    """The r-phi-s series, ``phi``."""

    def test_zero_argument(self, ctx):
        assert phi((0.3, 0.2), (0.7,), 0.5, 0.0, -1, tol=ctx.tol) == 1.0

    def test_unit_numerator_parameter(self, ctx):
        # every term after the first vanishes exactly; the adaptive sum
        # stops on them
        assert phi((1.0, 0.2), (0.7,), 0.5, 0.35, -1, tol=ctx.tol) == 1.0

    def test_heine_transformed_agreement(self, ctx):
        # 2phi1(a,b;c;q,z) against its first Heine transform
        a, b, c, z, q = 0.5, 0.25, 0.125, 0.3, 0.5
        lhs = phi([a, b], [c], q, z, nterms=-1, tol=1e-14)
        rhs = (qpoch_inf(b, q, tol=1e-14) * qpoch_inf(a * z, q, tol=1e-14)
               / (qpoch_inf(c, q, tol=1e-14) * qpoch_inf(z, q, tol=1e-14))
               * phi([c / b, z], [a * z], q, b, nterms=-1, tol=1e-14))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_pole_error(self, ctx):
        # the denominator q^-2 vanishes at term 2, within the 4 + 1 terms
        with pytest.raises(PoleError):
            phi((0.5 ** -4, 0.2), (0.5 ** -2,), 0.5, 0.5, 4, tol=ctx.tol)

    def test_divergence_error(self, ctx):
        with pytest.raises(NonConvergenceError, match="^phi_sum: the terms overflow"):
            phi((0.3, 0.2, 0.4), (0.1,), 0.5, 1.8, -1, tol=ctx.tol)


def _w8w7_terminating(a, params, base, z, n, tol):
    """8W7(a; b, c, d, e, f; base, z) with a numerator parameter base^-n,
    as its 8phi7 of n + 1 terms: numerator a, base s, -base s, b..f and
    denominator s, -s, a base/b .. a base/f, where s = sqrt(a)."""
    s = cmath.sqrt(a)
    return phi([a, base * s, -base * s, *params],
               [s, -s, *(a * base / v for v in params)], base, z, nterms=n, tol=tol)


class TestW8W7:
    def test_watson_transform(self, ctx):
        # terminating 8W7 equals a multiple of a balanced 4phi3
        q = 0.5
        a, b, c = 0.7, 0.8, 0.6
        n, j = 4, 2
        lhs = _w8w7_terminating(
            a * a * q ** -n,
            [a * q ** (-j - (n - 1) / 2) / b, a * q ** (-n / 2) / b,
             -a * q ** ((1 - n) / 2) / c, -a * q ** (-n / 2) / c, q ** -n],
            q, b * b * c * c * q ** (j + n + 1), n, ctx.tol)
        pre = (qpoch(a * a * q ** (1 - n), q, n) * qpoch(c * c * q ** 0.5, q, n)
               / (qpoch(-a * c * q ** ((1 - n) / 2), q, n)
                  * qpoch(-a * c * q ** ((2 - n) / 2), q, n)))
        rhs = pre * phi(
            [q ** -n, -a * q ** (-n / 2) / c, -a * q ** ((1 - n) / 2) / c,
             b * b * q ** (j + 0.5)],
            [q ** (-n + 0.5) / (c * c), a * b * q ** (j + (1 - n) / 2),
             a * b * q ** (1 - n / 2)], q, q, nterms=n, tol=1e-14)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestHProduct:
    """``h_product`` on one-element arrays: it takes a real ndarray of x
    in [-1, 1]."""

    def test_empty_params(self):
        assert h_product(np.array([0.3]), [], 0.5, tol=1e-14) == 1.0

    def test_chebyshev_case(self):
        # h(cos t; 1, -1, sqrt(q), -sqrt(q)) = (e^{2it}, e^{-2it}; q)_inf
        q, theta = 0.5, math.pi / 3
        x = np.array([math.cos(theta)])
        lhs = h_product(x, [1.0, -1.0, math.sqrt(q), -math.sqrt(q)], q, tol=1e-14)
        w2 = cmath.exp(2j * theta)
        rhs = qpoch_inf(w2, q, tol=1e-14) * qpoch_inf(1.0 / w2, q, tol=1e-14)
        assert abs(lhs[0] - rhs) <= 1e-13 * abs(rhs)

    def test_real_endpoint_square(self):
        q, a = 0.5, 0.4
        lhs = h_product(np.array([1.0]), [a], q, tol=1e-14)[0]
        assert abs(lhs - qpoch_inf(a, q, tol=1e-14) ** 2) <= 1e-13 * abs(lhs)


class TestExpITheta:
    def test_interval_branch(self):
        w = exp_itheta(0.3)
        assert w == pytest.approx(complex(0.3, math.sqrt(1 - 0.09)))

    def test_large_x_asymptotics(self):
        # sqrt(x^2 - 1) ~ x: e^{i theta} ~ 2x at infinity, both signs
        for x in (1e6, -1e6, 1e6j):
            assert abs(exp_itheta(x) / (2 * x) - 1.0) < 1e-6

    def test_modulus_at_least_one(self, rng):
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(exp_itheta(z)) >= 1.0 - 1e-12


class TestTransformSuites:
    @pytest.mark.parametrize("name", [
        "qcore.heine", "qcore.heine-iterated", "qcore.sears",
        "qcore.saalschutz", "qcore.poch-split", "qcore.phi-poly",
    ])
    def test_suite_passes(self, name):
        r = verify.run_suite(name, verify.DEFAULT_CONFIG)
        assert r.passed, f"{name}: {r.max_err} > {r.tol} ({r.detail})"

    @pytest.mark.parametrize("name", ["qcore.heine", "qcore.heine-iterated"])
    def test_tol_reaches_the_series(self, name):
        # the adaptive series and products of the suite stop at the
        # configured tolerance, not at a default of their own
        tight = verify.run_suite(name, verify.DEFAULT_CONFIG)
        loose = verify.run_suite(name, dataclasses.replace(
            verify.DEFAULT_CONFIG, ctx=QContext(0.5, 1e-6)))
        assert loose.max_err != tight.max_err
        assert loose.max_err > 1e3 * tight.max_err
