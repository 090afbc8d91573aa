import pytest

import awspec
from awspec import backend
from awspec.exceptions import NonConvergenceError, PoleError


class TestKernels:
    def test_vanishing_denominator_is_a_pole(self):
        with pytest.raises(PoleError):
            backend.phi_sum([0.5 ** -4], [0.5 ** -2], 0.5, 0.5, 0, 4,
                            1e-14, 10000)

    def test_term_budget_exceeded(self):
        with pytest.raises(NonConvergenceError):
            backend.phi_sum([0.3, 0.2, 0.4], [0.1], 0.5, 1.5, 0, -1,
                            1e-14, 200)

    def test_sign_power_path(self):
        # 1phi2(a; b, c; q, z) = sum_k (a;q)_k / (q, b, c; q)_k
        #                          * (-1)^{2k} q^{k(k-1)} z^k
        a, b, c, q, z = 0.3 + 0.1j, 0.4, 0.5, 0.5, 0.6
        expect = sum(backend.qpoch(a, q, k)
                     / (backend.qpoch(q, q, k) * backend.qpoch(b, q, k)
                        * backend.qpoch(c, q, k))
                     * q ** (k * (k - 1)) * z ** k for k in range(30))
        got = backend.phi_sum([a], [b, c], q, z, 2, -1, 1e-14, 10000)
        assert abs(got - expect) <= 1e-15 * abs(expect)


class TestSelection:
    def test_backend_reports_a_choice(self):
        assert awspec.BACKEND == backend.BACKEND == "python"

    def test_pure_python_backend_is_complete(self):
        for name in ("qpoch", "qpoch_inf", "phi_sum"):
            assert callable(getattr(backend, name))
