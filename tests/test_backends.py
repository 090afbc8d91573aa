import itertools

import pytest

import awspec
from awspec import backend
from awspec.exceptions import NonConvergenceError, PoleError


class TestKernels:
    def test_vanishing_denominator_is_a_pole(self):
        with pytest.raises(PoleError):
            backend.phi_sum([0.5 ** -4], [0.5 ** -2], 0.5, 0.5, 0, 4, 1e-14)

    def test_term_budget_exceeded(self):
        with pytest.raises(NonConvergenceError):
            backend.phi_sum([0.3, 0.2, 0.4], [0.1], 0.5, 1.5, 0, -1, 1e-14)

    def test_sum_series_geometric(self):
        terms = (0.5 ** k for k in itertools.count())
        got = backend.sum_series(terms, 1e-14, 10000, "geometric")
        assert abs(got - 2.0) <= 2e-14

    def test_sum_series_budget_exhausted(self):
        # 0.9^k needs about 330 terms to reach 1e-14; 50 are allowed
        terms = (0.9 ** k for k in itertools.count())
        with pytest.raises(NonConvergenceError, match="^geometric: max_terms"):
            backend.sum_series(terms, 1e-14, 50, "geometric")

    def test_sum_series_finite_terms_end_the_sum(self):
        assert backend.sum_series([1.0, 2.0, 3.0], 1e-14, 10000, "finite") == 6.0

    def test_sign_power_path(self):
        # 1phi2(a; b, c; q, z) = sum_k (a;q)_k / (q, b, c; q)_k
        #                          * (-1)^{2k} q^{k(k-1)} z^k
        a, b, c, q, z = 0.3 + 0.1j, 0.4, 0.5, 0.5, 0.6
        expect = sum(backend.qpoch(a, q, k)
                     / (backend.qpoch(q, q, k) * backend.qpoch(b, q, k)
                        * backend.qpoch(c, q, k))
                     * q ** (k * (k - 1)) * z ** k for k in range(30))
        got = backend.phi_sum([a], [b, c], q, z, 2, -1, 1e-14)
        assert abs(got - expect) <= 1e-15 * abs(expect)


class TestSelection:
    def test_backend_reports_a_choice(self):
        assert awspec.BACKEND == backend.BACKEND == "python"

    def test_pure_python_backend_is_complete(self):
        for name in ("qpoch", "qpoch_inf", "phi_terms", "sum_series", "phi_sum"):
            assert callable(getattr(backend, name))
