"""The memoised recurrence-coefficient and point-set tables, and the
recurrences folded into one loop: bit-identical to the per-step loops they
replace (``bn_minimal_scaled`` to rounding, and to 50 digits), kept apart
per key, and bounded; the products over ``tail_powers`` and the twisted
pivot's forward pass bit-identical to their own loops, and the uncapped
kernel truncation against the capped one; and
AST checks on the source: every memo bounded and listed, no frozen
dataclass written after its construction, few, route-free,
tolerance-free defaults, every exported name defined and reached by
a CLI command, a verify suite or the benchmark, and few of them, and few
source lines."""
import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from awspec import awop, qcore, qexp, qpolys, spectral
from awspec.backend import MAX_TERMS, sum_series, tail_powers
from awspec.exceptions import DomainError, NonConvergenceError
from awspec.qcore import QContext
from awspec.awop import kernel_truncation, make_rule
from awspec.qpolys import (JacobiLevel, _aw_params, aw_phi_seq, cqjacobi_seq,
                           on_nodes)
from awspec.spectral import bn_B, bn_C, bn_minimal_scaled, f_eval, matrix_oracle
from oracles import (_aw_poly_4phi3, _aw_prefactor, _kernel_factors,
                     bn_minimal_mp, hermite_series_terms)

SRC = Path(__file__).resolve().parents[1] / "src" / "awspec"
PERFBENCH = SRC.parents[1] / "perfbench"
LEVELS = [JacobiLevel(0.3, -0.2), JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)]
MEMOS = [qpolys._aw_table, qpolys._cq_table, spectral._oracle_table,
         spectral._x_products, qpolys._norm_table, qpolys._node_table,
         awop.kernel_truncation, qpolys._point_table, qexp._am_products]


def _clear_tables():
    for memo in MEMOS:
        memo.cache_clear()


# the per-step loops as they were before the tables, and eigenfunction's,
# hermite_series' and bn_minimal_scaled's own loops before their folds,
# kept as references


def _aw_step(n, a, b, c, d, q):
    abcd = a * b * c * d
    if n == 0:
        return (1 - a * b) * (1 - a * c) * (1 - a * d) / (a * (1 - abcd)), 0.0
    qn = q ** n
    An = ((1 - a * b * qn) * (1 - a * c * qn) * (1 - a * d * qn)
          * (1 - abcd * qn / q)
          / (a * (1 - abcd * qn * qn / q) * (1 - abcd * qn * qn)))
    Cn = (a * (1 - qn) * (1 - b * c * qn / q) * (1 - b * d * qn / q)
          * (1 - c * d * qn / q)
          / ((1 - abcd * qn * qn / (q * q)) * (1 - abcd * qn * qn / q)))
    return An, Cn


def _aw_phi_seq_loop(nmax, params, x, q):
    a, b, c, d = params
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0 + 0.0j
    vals = [one * (1.0 + 0.0j)]
    pm1 = one * 0.0j
    p0 = vals[0]
    for n in range(nmax):
        An, Cn = _aw_step(n, a, b, c, d, q)
        p1 = ((2 * x - a - 1 / a + An + Cn) * p0 - Cn * pm1) / An
        vals.append(p1)
        pm1, p0 = p0, p1
    return vals


def _cqjacobi_seq_loop(nmax, level, x, ctx):
    q = ctx.q
    al = level.alpha
    seq = _aw_phi_seq_loop(nmax, _aw_params(level, q), x, q)
    out = []
    cv = 1.0 + 0.0j
    for n in range(nmax + 1):
        out.append(cv * seq[n])
        cv *= (1 - q ** (al + 1 + n)) / (1 - q ** (n + 1))
    return out


def _bn_minimal_scaled_loop(nmax, xi, level, ctx):
    q = ctx.q
    al, be = level.alpha, level.beta
    M = nmax + 40
    w = [0.0 + 0.0j] * (M + 2)
    w[M + 1] = 0.0
    w[M] = 1.0
    for k in range(M, 0, -1):
        s_pp = q ** (2 * k + al + be + 3) / (xi * xi)
        s_p = q ** (k + (al + be + 2) / 2) / xi
        w[k - 1] = (w[k + 1] * s_pp + (xi + bn_B(k, level, q)) * w[k] * s_p) \
            / bn_C(k, level, q)
        m = abs(w[k - 1])
        if m > 1e200:
            for j in range(k - 1, M + 2):
                w[j] /= m
    c = 1.0 / w[0]
    return [w[n] * c for n in range(nmax + 1)]


def _eigenfunction_loop(lam, level, nmax, ctx):
    lam = complex(lam)
    rows = spectral._oracle_rows(nmax + 40, level, ctx)
    t = [0.0] * (nmax + 42)  # t_k at index k, t_{nmax+41} = 0
    for k in range(nmax + 40, 1, -1):
        sP, sQ, sR = rows[k - 1]
        t[k] = sR / (lam - sQ - sP * t[k + 1])
    coeffs = [0.0, 1.0]
    for k in range(2, nmax + 1):
        a = coeffs[k - 1] * t[k]
        coeffs.append(a if abs(a) >= sys.float_info.min else 0.0)
    return coeffs[:nmax + 1]


def _hermite_h_loop(n, x, q):
    h0, h1 = 1.0 + 0.0j, 2.0 * x + 0.0j
    if n == 0:
        return h0
    for k in range(1, n):
        h0, h1 = h1, 2 * x * h1 - (1 - q ** k) * h0
    return h1


def _hermite_series_loop(z, x, ctx):
    return sum_series(hermite_series_terms(z, x, ctx.q, _hermite_h_loop), ctx.tol,
                      qexp._HERMITE_TERMS, "hermite_series")


def _qpoch_inf_loop(a, base, tol):
    a = complex(a)
    out = 1.0 + 0.0j
    f = a
    bound = abs(a) / (1.0 - base)
    j = 0
    while bound > tol:
        out *= 1.0 - f
        f *= base
        bound *= base
        j += 1
        if j > MAX_TERMS:
            raise NonConvergenceError("qpoch_inf: tail bound not met")
    return out


def _h_product_loop(x, params, base, tol):
    out = np.ones(x.shape, dtype=complex)
    for a in params:
        bound = abs(a) / (1.0 - base)
        while bound > tol:
            out *= 1.0 - 2.0 * a * x + a * a
            a, bound = a * base, bound * base
    return out


def _x_nu_factors_loop(w, p, tol):
    # the factors 1 - w p^k of x_nu's tails (w p^n; p)_inf
    factors = []
    bound = abs(w) / (1.0 - p)
    while bound > tol:
        if len(factors) >= MAX_TERMS:
            raise NonConvergenceError("x_nu: tail bound not met")
        factors.append(1.0 - w)
        w *= p
        bound *= p
    return factors


def _twisted_pivot_loop(lam, rows, n):
    # the forward ratios r_j in their own loop, beside _backward's t_j
    t, dt = spectral._backward(lam, rows[:n])
    r = dr = 0.0
    least = np.inf
    for j, (sP, sQ, sR) in enumerate(rows[:n]):
        below, above = sP * t[j + 1], sR * r
        e = lam - sQ - above
        g = e - below
        if abs(g) < least:
            least = abs(g)
            best = (g, 1.0 - sP * dt[j + 1] - sR * dr,
                    abs(lam) + abs(sQ) + abs(below) + abs(above))
        if e == 0:
            e = sys.float_info.epsilon * (abs(lam) + abs(sQ))
        r = sP / e
        dr = (sR * dr - 1.0) * r / e
    return best


def _kernel_truncation_capped(level, ctx):
    # the truncation with its private caps: at most 400 terms, r <= 0.95
    lvl1 = level.shifted(1)
    kf = []

    def scale(n):
        kf.extend(_kernel_factors(range(len(kf), n + 1), level, ctx))
        return (abs(kf[n])
                * np.sqrt(abs(qpolys.norm_h(n + 1, level, ctx))
                          * abs(qpolys.norm_h(n, lvl1, ctx))))

    n = 20
    fprev = scale(n)
    while n < 400:
        n += 1
        f = scale(n)
        if fprev == 0:
            raise DomainError("kernel_truncation: the term scale underflows")
        r = min(0.95, max(f / fprev, np.sqrt(ctx.q)))
        if f * r / (1.0 - r) < ctx.tol:
            break
        fprev = f
    return n


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
@pytest.mark.parametrize("x", [0.37, np.linspace(-0.9, 0.9, 7)],
                         ids=["scalar", "array"])
class TestBitIdentity:
    def test_aw_phi_seq(self, level, x):
        _clear_tables()
        q = 0.6
        params = _aw_params(level, q)
        for nmax in (60, 5, 0, -1, 61):
            _same(aw_phi_seq(nmax, params, x, q), _aw_phi_seq_loop(nmax, params, x, q))
        # a real parameter spelled as complex reads the same table: CPython's
        # complex arithmetic rounds a zero imaginary part like float's
        cparams = tuple(complex(v) for v in params)
        _same(aw_phi_seq(30, cparams, x, q), _aw_phi_seq_loop(30, cparams, x, q))

    def test_cqjacobi_seq(self, level, x):
        _clear_tables()
        ctx = QContext(0.6)
        for nmax in (60, 5, 61):
            _same(cqjacobi_seq(nmax, level, x, ctx),
                  _cqjacobi_seq_loop(nmax, level, x, ctx))


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
def test_bn_minimal_scaled_matches_loop(level):
    # the section's ratios rescaled against the monic Miller loop they
    # replaced: the same w to rounding, and w_0 exactly 1
    _clear_tables()
    ctx = QContext(0.5)
    for nmax, xi in ((60, 2.3 - 0.4j), (5, 2.3 - 0.4j), (5, -1.1), (61, 0.7j)):
        got = bn_minimal_scaled(nmax, xi, level, ctx)
        want = _bn_minimal_scaled_loop(nmax, xi, level, ctx)
        assert len(got) == len(want) and got[0] == 1
        for n, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-13 * abs(w), (nmax, xi, n, g, w)


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
@pytest.mark.parametrize("q", [1e-7, 1e-4, 0.1, 0.5, 0.9])
def test_bn_minimal_scaled_holds_50_digits(level, q):
    # at the top root of F; at q = 1e-7 the monic C_k leaves the normal
    # floats at k = 43 on the real level, below the 90 steps w_50 needs
    ctx = QContext(q)
    xi = spectral.eigenvalues(level, ctx, count=1, nmat=60)[0].mu
    got = bn_minimal_scaled(50, xi, level, ctx)
    want = bn_minimal_mp(xi, level, q, 50, 50)
    for n, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-12 * abs(w), (n, g, w)


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
def test_matrix_oracle_matches_loop(level):
    _clear_tables()
    ctx = QContext(0.5)
    s = -ctx.q ** -(level.alpha / 2 + 0.25)
    for n in (40, 12, 41):
        # the dtype matrix_oracle solves in: real on a real level
        m = np.zeros((n, n), dtype=float if level.is_real else complex)
        for k in range(1, n + 1):
            P, Q, R = spectral.recurrence_a_coeffs(k, level, ctx)
            m[k - 1, k - 1] = s * Q
            if k < n:
                m[k - 1, k] = s * P
            if k > 1:
                m[k - 1, k - 2] = s * R
        ev = np.linalg.eigvals(m)
        want = ev[np.lexsort((np.angle(ev), -np.abs(ev)))]
        assert np.array_equal(matrix_oracle(n, level, ctx), want)


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
@pytest.mark.parametrize("q", [1e-4, 0.5, 0.9])
def test_eigenfunction_matches_loop(level, q):
    _clear_tables()
    ctx = QContext(q)
    for root in spectral.eigenvalues(level, ctx, count=4, nmat=80):
        for nmax in (48, 5, 1, 0):
            got = spectral.eigenfunction(root.lam, level, nmax, ctx).coeffs
            want = _eigenfunction_loop(root.lam, level, nmax, ctx)
            # the bytes count signed zeros
            assert (np.array(got, dtype=complex).tobytes()
                    == np.array(want, dtype=complex).tobytes())


@pytest.mark.parametrize("q", [1e-4, 0.5, 0.9])
def test_hermite_series_matches_loop(q):
    ctx = QContext(q)
    for z in (1.7, 2.5, -3.0 + 1j, 0.7j):
        for x in (0.0, 0.37, -0.8, 1.0):
            got = qexp.hermite_series(z, x, ctx)
            assert np.array(got).tobytes() == np.array(_hermite_series_loop(z, x, ctx)).tobytes()


TAIL_QS = [1e-7, 1e-4, 0.1, 0.5, 0.9, 0.99]


@pytest.mark.parametrize("q", TAIL_QS)
def test_products_over_tail_powers_match_their_loops(q):
    # qpoch_inf, h_product and x_nu's tail factors over tail_powers: the
    # same operations in the same order as their own loops, so the same bits
    xs = np.linspace(-1.0, 1.0, 9)
    for a in (0.7, -0.3, q ** 0.25, 0.6 - 0.5j, -0.2 + 0.9j, 1.0):
        for base in (q, q ** 0.5, q * q):
            for tol in (1e-14, 1e-8):
                got = qcore.qpoch_inf(a, base, tol)
                assert np.array(got).tobytes() == np.array(
                    _qpoch_inf_loop(a, base, tol)).tobytes()
                want = [1.0 - f for f in tail_powers(a, base, tol, "x_nu")]
                assert want == _x_nu_factors_loop(a, base, tol)
    for level in LEVELS:
        params = _aw_params(level, q)
        for tol in (1e-14, 1e-8):
            got = qcore.h_product(xs, params, q, tol)
            assert got.tobytes() == _h_product_loop(xs, params, q, tol).tobytes()
        # x_nu's w = -p^{a+nu+5/2}/x at real and complex x
        p = q ** 0.5
        for nu in (-1, 0, 2.5):
            for x in (1.7, -0.4, 0.3 + 2.2j, 1e-3j):
                w = -p ** (level.alpha + nu + 2.5) / x
                got = [1.0 - f for f in tail_powers(w, p, 1e-14, "x_nu")]
                assert got == _x_nu_factors_loop(w, p, 1e-14)


def test_products_past_the_budget_name_themselves():
    with pytest.raises(NonConvergenceError, match="^h_product: tail bound not met"):
        qcore.h_product(np.linspace(-1.0, 1.0, 5), (0.9,), 0.999, 1e-14)
    with pytest.raises(NonConvergenceError, match="^qpoch_inf: tail bound not met"):
        qcore.qpoch_inf(0.9, 0.999, 1e-14)
    # the last power a product is allowed is the MAX_TERMS-th
    base = 0.5 ** (1 / 64)
    a = base ** -MAX_TERMS * 1e-14 * (1.0 - base)
    assert len(tail_powers(a * 0.999, base, 1e-14, "p")) == MAX_TERMS
    with pytest.raises(NonConvergenceError, match="^p: tail bound not met"):
        tail_powers(a * 1.001, base, 1e-14, "p")


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
@pytest.mark.parametrize("q", TAIL_QS)
def test_twisted_pivot_matches_its_forward_loop(level, q):
    # the forward ratios as _backward on the reversed, swapped rows
    ctx = QContext(q)
    rows = spectral._oracle_rows(80, level, ctx)
    seeds = list(matrix_oracle(12, level, ctx)[:6])
    for lam in seeds + [s * (1 + 1e-3) for s in seeds] + [0.37 - 0.2j]:
        for n in (1, 7, 40, 80):
            got = spectral._twisted_pivot(complex(lam), rows, n)
            want = _twisted_pivot_loop(complex(lam), rows, n)
            assert str(got) == str(want), (lam, n)


TRUNCATION_LEVELS = [JacobiLevel(0.3, -0.2), JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j),
                     JacobiLevel(-0.5, -0.5), JacobiLevel(5.0, 4.0),
                     JacobiLevel(-0.9, -0.9), JacobiLevel(2j, -2j),
                     JacobiLevel(0.0, 0.0), JacobiLevel(2.0, 1.5),
                     JacobiLevel(1.816, -0.067)]


@pytest.mark.parametrize("level", TRUNCATION_LEVELS, ids=str)
def test_kernel_truncation_matches_the_capped_loop_where_no_cap_binds(level):
    # the 400-term and 0.95-ratio caps bound nothing up to q = 0.85
    for q in (1e-7, 8.4e-5, 1e-3, 0.1, 0.5, 0.8, 0.85):
        _clear_tables()
        ctx = QContext(q)
        try:
            want = _kernel_truncation_capped(level, ctx)
        except DomainError:
            with pytest.raises(DomainError):
                kernel_truncation(level, ctx)
            continue
        assert kernel_truncation(level, ctx).nterms == want, q


@pytest.mark.parametrize("q, nterms", [(0.9, 611), (0.95, 1256), (0.99, 6414)])
def test_kernel_meets_its_tail_bound_past_400_terms(q, nterms):
    # the cap cut K short by 7.5e-7 at q = 0.95; now 2,000 more terms
    # move it by no more than rounding
    level, ctx = LEVELS[0], QContext(q)
    assert kernel_truncation(level, ctx).nterms == nterms
    grid = np.linspace(-0.8, 0.8, 11)
    x, y = grid[:, None], grid[None, :]
    px = np.array(cqjacobi_seq(nterms + 2000, level, x, ctx)[1:])
    py = np.array(cqjacobi_seq(nterms + 1999, level.shifted(1), y, ctx))
    kf = np.array(_kernel_factors(range(nterms + 2000), level, ctx))
    longer = (np.moveaxis(px, 0, -1) * np.moveaxis(py, 0, -1)) @ kf
    got = awop.kernel_eval(x, y, level, ctx)
    assert np.max(np.abs(got - longer)) <= 1e-15


@pytest.mark.parametrize("q", [0.25, 0.36, 0.81])
def test_abcd_equal_to_q_cancels_only_the_first_entry(q):
    # parameters with abcd = q, where A_0's factor 1 - abcd/q is 0/0 before
    # it is cancelled: (1, sqrt q, -1, -sqrt q)
    _clear_tables()
    params = (1.0, q ** 0.5, -1.0, -q ** 0.5)
    assert np.prod(params) == q
    ctx = QContext(q)
    # against the 4phi3, while its cancellation (q^{-n(n-1)/2}) stays small
    for n in range(1, 5):
        got = _aw_prefactor(n, params, q) * aw_phi_seq(n, params, 0.3, q)[n]
        want = _aw_poly_4phi3(n, params, 0.3, ctx)
        assert abs(got - want) <= 1e-11 * abs(want)
    table = qpolys._aw_coeffs(9, *params, q)
    assert table[0][1] == 0.0
    assert table[1:] == [_aw_step(n, *params, q) for n in range(1, 9)]


def _point_sets():
    xs = np.linspace(-0.9, 0.9, 7)
    # the node cosines of T, the two grids of kernel_eval, a complex array
    return {"nodes": np.cos(make_rule(48).nodes), "rows": xs[:, None],
            "cols": xs[None, :], "complex": xs + 0.25j * xs[::-1]}


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
@pytest.mark.parametrize("name", ["nodes", "rows", "cols", "complex"])
def test_point_table_matches_loop(level, name):
    x = _point_sets()[name]
    ctx = QContext(0.6)
    # short reads after a long one, then a long read after a short one
    for reads in ((48, 5, 0), (5, 48)):
        _clear_tables()
        for nmax in reads:
            got = cqjacobi_seq(nmax, level, x, ctx)
            assert got[0].shape == x.shape
            _same(got, _cqjacobi_seq_loop(nmax, level, x, ctx))
        info = qpolys._point_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


def test_point_tables_are_kept_per_shape_and_dtype():
    _clear_tables()
    level, ctx = LEVELS[1], QContext(0.6)
    xs = np.linspace(-0.8, 0.8, 4)
    z = np.array([0.25 + 0.5j, -0.5 + 0.25j, 0.125 - 0.75j, 0.5 + 0.125j],
                 dtype=np.complex64)
    sets = [xs, xs.reshape(2, 2), xs[:, None], xs[None, :], z, z.view(np.float64)]
    assert len({x.tobytes() for x in sets[:4]}) == 1
    assert z.tobytes() == sets[5].tobytes()
    for x in sets:
        got = cqjacobi_seq(6, level, x, ctx)
        assert got[0].shape == x.shape
        _same(got, _cqjacobi_seq_loop(6, level, x, ctx))
    assert qpolys._point_table.cache_info().currsize == len(sets)


def test_point_table_rows_are_read_only():
    rows = cqjacobi_seq(4, LEVELS[0], np.linspace(-0.5, 0.5, 3), QContext(0.6))
    for row in rows:
        with pytest.raises(ValueError):
            row[0] = 0.0


@pytest.mark.parametrize("level", LEVELS, ids=["real", "conj"])
def test_eval_coeffvector_on_nodes_matches_the_fold(level):
    _clear_tables()
    ctx = QContext(0.5)
    ys = np.cos(make_rule(48).nodes)
    a = spectral.eigenvalues(level, ctx, count=1, nmat=80)[0].coeffs
    # the left fold over the loop's rows; the bytes count signed zeros
    want = sum(c * p for c, p in zip(a.coeffs, _cqjacobi_seq_loop(
        a.length - 1, level, ys, ctx)))
    for _ in range(2):  # the table cold, then warm
        assert awop.eval_coeffvector(a, ys, ctx).tobytes() == want.tobytes()


def test_t_builds_the_eigenfunction_table_once():
    _clear_tables()
    level, ctx = LEVELS[0], QContext(0.5)
    rule = make_rule(48)
    a = spectral.eigenvalues(level, ctx, count=1, nmat=80)[0].coeffs
    awop.t_quadrature(lambda t: t, 0.0, level, rule, ctx)  # T's per-level data
    before = qpolys._point_table.cache_info()
    xs = (-0.6, -0.1, 0.3, 0.7)
    for x in xs:
        awop.t_quadrature(lambda t: awop.eval_coeffvector(a, t, ctx), x, level,
                          rule, ctx)
    after = qpolys._point_table.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits == before.hits + len(xs) - 1


class TestMemo:
    def test_f_eval_tables_are_kept_per_tol(self):
        level = JacobiLevel(0.3, -0.2)
        tight, loose = QContext(0.5, 1e-14), QContext(0.5, 1e-8)
        alone = []
        for ctx in (tight, loose):
            _clear_tables()
            alone.append(f_eval(1.7 - 0.2j, level, ctx))
        _clear_tables()
        assert [f_eval(1.7 - 0.2j, level, ctx) for ctx in (tight, loose)] == alone
        assert alone[0] != alone[1]

    @pytest.mark.parametrize("memo", MEMOS, ids=lambda m: m.__name__)
    def test_memo_stays_bounded(self, memo):
        bound = memo.cache_info().maxsize
        assert bound is not None
        nodes = make_rule(8).nodes
        for k in range(bound + 5):
            level, ctx = JacobiLevel(0.1 + 0.01 * k, 0.2), QContext(0.5)
            cqjacobi_seq(4, level, np.cos(nodes), ctx)
            matrix_oracle(3, level, ctx)
            f_eval(1.5, level, ctx)
            kernel_truncation(level, ctx)
            on_nodes(level, nodes, ctx)
            qexp.am_coeff(1, 0.01 * k, level, ctx)
            assert memo.cache_info().currsize <= bound


def _int_constants(tree):
    consts = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)):
            consts[node.targets[0].id] = node.value.value
    return consts


def _dotted(node):
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_every_memo_is_bounded():
    # an unbounded memo grows for the life of the process; a bound must be
    # a positive integer constant, and functools.cache only memoises a
    # function of no arguments
    seen = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        consts = _int_constants(tree)
        for imp in ast.walk(tree):
            if isinstance(imp, ast.ImportFrom) and imp.level == 1 and imp.module:
                other = _int_constants(ast.parse(
                    (SRC / f"{imp.module}.py").read_text(encoding="utf-8")))
                consts.update((a.name, other[a.name]) for a in imp.names
                              if a.name in other)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for dec in fn.decorator_list:
                name = _dotted(dec.func if isinstance(dec, ast.Call) else dec)
                where = f"{path.name}:{fn.name}"
                if name in ("functools.cache", "cache"):
                    seen.append(f"{path.stem}.{fn.name}")
                    args = fn.args
                    assert not (args.posonlyargs or args.args or args.vararg
                                or args.kwonlyargs or args.kwarg), where
                elif name in ("functools.lru_cache", "lru_cache"):
                    seen.append(f"{path.stem}.{fn.name}")
                    assert isinstance(dec, ast.Call), f"{where}: no explicit maxsize"
                    sizes = [k.value for k in dec.keywords if k.arg == "maxsize"]
                    sizes += dec.args[:1]
                    assert len(sizes) == 1, f"{where}: no explicit maxsize"
                    size = sizes[0]
                    if isinstance(size, ast.Name):
                        assert size.id in consts, f"{where}: {size.id} is no constant"
                        size = consts[size.id]
                    else:
                        assert isinstance(size, ast.Constant), where
                        size = size.value
                    assert isinstance(size, int) and size > 0, where
    # every memo is listed in MEMOS, and so goes through the bound test
    listed = [f"{m.__module__.rsplit('.', 1)[-1]}.{m.__name__}" for m in MEMOS]
    assert sorted(seen) == sorted(listed + ["cli.build_parser"])


def test_frozen_dataclasses_are_set_only_in_post_init():
    # a frozen dataclass written after construction carries state that its
    # hash and equality do not see; a memo keeps that state instead
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                   for node in ast.walk(fn)}
        written = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in allowed
                   and _dotted(node.func) == "object.__setattr__"]
        assert not written, f"{path.name}: object.__setattr__ on lines {written}"


# defaulted function parameters in src/awspec, lambdas not counted; each one
# left is set differently by two callers: cli.main(argv), verify._disc(rmin)
# and qpolys.cqjacobi(method)
MAX_DEFAULTS = 3
# names in the modules' __all__ lists: each formula is exported once
MAX_EXPORTS = 81
# physical lines of src/awspec/*.py: deleting code is progress, so the
# count only falls, and a feature that adds lines raises it on purpose
MAX_SOURCE_LINES = 3244
# cqjacobi keeps method="phi": the benchmark checks its rows against the 4phi3
ROUTED = {("qpolys.py", "cqjacobi")}


def _defaulted(fn):
    """The parameters of a function definition that have a default."""
    args = fn.args
    pos = args.posonlyargs + args.args
    return (pos[len(pos) - len(args.defaults):]
            + [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def test_defaults_are_few_and_set_no_route_or_tolerance():
    # a default nothing overrides is a constant, a route is a private
    # oracle, and a tolerance comes from a QContext or the caller
    counted = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.name}:{fn.name}"
            args = fn.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if (path.name, fn.name) not in ROUTED:
                assert not names & {"method", "route"}, f"{where}: a route selector"
            defaulted = _defaulted(fn)
            assert "tol" not in {a.arg for a in defaulted}, f"{where}: tol has a default"
            counted += [f"{where}({a.arg})" for a in defaulted]
    assert len(counted) <= MAX_DEFAULTS, (
        f"{len(counted)} defaulted parameters: {', '.join(counted)}")


def test_every_exported_name_resolves():
    # Python reads __all__ only on `import *`, so a deleted function could
    # otherwise stay exported
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "awspec" if path.stem == "__init__" else f"awspec.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert not missing, f"exported but not defined: {', '.join(missing)}"


def test_exports_are_few():
    exported = []
    for path in sorted(SRC.glob("*.py")):
        name = "awspec" if path.stem == "__init__" else f"awspec.{path.stem}"
        exported += getattr(importlib.import_module(name), "__all__", ())
    assert len(exported) <= MAX_EXPORTS, f"{len(exported)} exported names"


def test_source_lines_are_few():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in SRC.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"{lines} physical lines in src/awspec"


def _perfbench_names():
    """"module.name" of every awspec function or class that
    perfbench/workloads.py calls, and of every name in the TRACED table
    of perfbench/layertrace.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules, names = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "awspec":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("awspec."):
            short = node.module.split(".")[1]
            names.update((a.asname or a.name, f"{short}.{a.name}") for a in node.names)
    found = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        fn = call.func
        if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                and fn.value.id in modules):
            found.add(f"{modules[fn.value.id]}.{fn.attr}")
        elif isinstance(fn, ast.Name) and fn.id in names:
            found.add(names[fn.id])
    trace = ast.parse((PERFBENCH / "layertrace.py").read_text(encoding="utf-8"))
    table = next(n.value for n in trace.body if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in n.targets))
    found.update(f"{m}.{fn}" for m, fns in ast.literal_eval(table).items()
                 for fn in fns)
    return found


def test_every_exported_name_is_reached(verify_all, golden_outputs, reached):
    # the library is what its commands, suites and benchmark reach; a
    # function or class that only the tests call belongs in the tests
    exported = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"awspec.{path.stem}")
        exported.update(f"{path.stem}.{n}" for n in getattr(module, "__all__", ())
                        if callable(getattr(module, n)))
    unreached = sorted(exported - reached - _perfbench_names())
    assert not unreached, f"exported but never reached: {', '.join(unreached)}"
