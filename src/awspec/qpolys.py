"""Continuous q-Jacobi and Askey-Wilson polynomials, weights, norms and
connection coefficients.

The polynomials, weights and norms are those of the Askey-Wilson form
P_n(x | q), the normalization of the integral operator, its kernel and its
eigenfunctions.  The classically normalized form P_n(x; q), whose q -> 1
limit is the classical Jacobi polynomial, is related to it by

    P_n(x; q) = (-q^{a+b+1}; q)_n / (-q; q)_n * q^{-a n} * P_n(x | q^2).

Large-degree evaluation goes through the standard Askey-Wilson three-term
recurrence: the defining terminating 4phi3 alternates with terms of size
base^{-n(n-1)/2} and loses that many digits to cancellation, while the
recurrence is stable on [-1, 1].  The literal forms, and the classical
normalization with its factor, are reference oracles in ``tests/oracles.py``
that the tests compare against.
"""
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .qcore import exp_itheta, h_product, phi, qpoch, qpoch_inf

__all__ = [
    "JacobiLevel", "ConnectionTriple", "aw_phi_seq", "cqjacobi",
    "cqjacobi_seq", "weight_theta", "on_nodes", "norm_h",
    "norm_ratio", "connection_down", "dual_expansion_aw",
]


@dataclass(frozen=True)
class JacobiLevel:
    """Parameter level (alpha, beta).

    alpha, beta may be real or a complex-conjugate pair; mixed complex
    values and non-finite ones are rejected.  Each is stored once as a
    float where its imaginary part is 0 and as a complex otherwise, so a
    real level given as complex is the same level, equal and hashed alike.
    """
    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise DomainError(f"alpha and beta must be finite, got {a}, {b}")
        if (a.imag != 0.0 or b.imag != 0.0) and abs(a - b.conjugate()) > 1e-12 * (1 + abs(a)):
            raise DomainError("complex alpha, beta must be conjugates")
        object.__setattr__(self, "alpha", a.real if a.imag == 0.0 else a)
        object.__setattr__(self, "beta", b.real if b.imag == 0.0 else b)

    @property
    def is_real(self):
        return not (isinstance(self.alpha, complex) or isinstance(self.beta, complex))

    def shifted(self, k):
        return JacobiLevel(self.alpha + k, self.beta + k)


def _aw_params(level, q):
    """The Askey-Wilson parameters (a, b, c, d) of the continuous q-Jacobi
    specialization: a = q^{(2 alpha+1)/4}, b = q^{(2 alpha+3)/4},
    c = -q^{(2 beta+1)/4}, d = -q^{(2 beta+3)/4}."""
    al, be = level.alpha, level.beta
    return (q ** ((2 * al + 1) / 4), q ** ((2 * al + 3) / 4),
            -q ** ((2 * be + 1) / 4), -q ** ((2 * be + 3) / 4))


@dataclass(frozen=True)
class ConnectionTriple:
    """Coefficients onto degrees n, n-1, n-2 of the (alpha+1, beta+1) family."""
    c_nn: complex
    c_nn1: complex
    c_nn2: complex


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

_COEFF_TABLES = 32  # recurrence tables kept by each coefficient memo


@functools.lru_cache(maxsize=_COEFF_TABLES)
def _aw_table(a, b, c, d, q):
    return []


def _aw_coeffs(nmax, a, b, c, d, q):
    """[(A_0, C_0), ...], at least nmax pairs, of the Askey-Wilson
    recurrence at (a, b, c, d | q): a table memoised per parameter set and
    grown on demand."""
    table = _aw_table(a, b, c, d, q)
    abcd = a * b * c * d
    for n in range(len(table), nmax):
        qn = q ** n
        if n == 0:
            # the factor 1 - abcd/q of A_0 cancels, and C_0 carries 1 - q^0
            An = (1 - a * b) * (1 - a * c) * (1 - a * d) / (a * (1 - abcd))
            Cn = 0.0
        else:
            An = ((1 - a * b * qn) * (1 - a * c * qn) * (1 - a * d * qn)
                  * (1 - abcd * qn / q)
                  / (a * (1 - abcd * qn * qn / q) * (1 - abcd * qn * qn)))
            Cn = (a * (1 - qn) * (1 - b * c * qn / q) * (1 - b * d * qn / q)
                  * (1 - c * d * qn / q)
                  / ((1 - abcd * qn * qn / (q * q)) * (1 - abcd * qn * qn / q)))
        if An == 0:
            # the recurrence divides by A_n: p_{n+1} has no finite value
            raise DomainError(f"the Askey-Wilson recurrence has A_{n} = 0 "
                              "at these parameters")
        table.append((An, Cn))
    return table


def aw_phi_seq(nmax, params, x, q):
    """phi_n(x) = a^n p_n(x)/ (ab,ac,ad;q)_n for n = 0..nmax via the
    Askey-Wilson three-term recurrence at ``params`` = (a, b, c, d);
    ``x`` may be a scalar or ndarray.  The coefficients A_n, C_n are read
    from a table memoised per (a, b, c, d, q)."""
    a, b, c, d = params
    coeffs = _aw_coeffs(nmax, a, b, c, d, q)
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0 + 0.0j
    vals = [one * (1.0 + 0.0j)]
    pm1 = one * 0.0j
    p0 = vals[0]
    t = 2 * x - a - 1 / a
    for n in range(nmax):
        An, Cn = coeffs[n]
        p1 = ((t + An + Cn) * p0 - Cn * pm1) / An
        vals.append(p1)
        pm1, p0 = p0, p1
    return vals


@functools.lru_cache(maxsize=_COEFF_TABLES)
def _cq_table(al, q):
    return [1.0 + 0.0j]


def _cq_factors(nmax, al, q):
    """c_0..c_nmax (at least) of P_n = c_n phi_n, c_0 = 1: a table
    memoised per (alpha, q) and grown on demand."""
    cs = _cq_table(al, q)
    for n in range(len(cs) - 1, nmax):
        f = 1 - q ** (al + 1 + n)
        if f == 0:
            # alpha = -1 - n: P_{n+1} is the limit 0 * infinity
            raise DomainError(f"P_{n + 1} has no finite value at alpha = {al}")
        cs.append(cs[n] * (f / (1 - q ** (n + 1))))
    return cs


def _cqjacobi_rows(nmax, level, x, ctx):
    q = ctx.q
    cs = _cq_factors(nmax, level.alpha, q)
    seq = aw_phi_seq(nmax, _aw_params(level, q), x, q)
    return [c * p for c, p in zip(cs, seq)]


@functools.lru_cache(maxsize=_COEFF_TABLES)
def _point_table(level, ctx, dtype, shape, key):
    return []


def cqjacobi_seq(nmax, level, x, ctx):
    """[P_0, ..., P_nmax] at ``x`` (scalar or ndarray), Askey-Wilson form,
    base q: c_n phi_n with c_n and the coefficients of phi_n's recurrence
    read from memoised tables.  For an ndarray the rows are read-only and
    read from a table memoised per (level, ctx) and point set, grown on
    demand."""
    if not (isinstance(x, np.ndarray) and x.ndim):
        return _cqjacobi_rows(nmax, level, x, ctx)
    rows = _point_table(level, ctx, x.dtype.str, x.shape, x.tobytes())
    n = max(nmax, 0) + 1
    if len(rows) < n:
        rows[:] = _cqjacobi_rows(nmax, level, x, ctx)
        for row in rows:
            row.flags.writeable = False
    return rows[:n]


def cqjacobi(n, level, x, ctx, method="auto"):
    """Continuous q-Jacobi polynomial P_n(x | q), Askey-Wilson form: the
    Eq-style 4phi3 with base q with ``method="phi"``, else its stable
    recurrence equivalent."""
    q = ctx.q
    if n < 0:
        return 0.0 + 0.0j
    if method == "phi":
        al, be = level.alpha, level.beta
        w = exp_itheta(x)
        pre = qpoch(q ** (al + 1), q, n) / qpoch(q, q, n)
        return pre * phi(
            [q ** (-n), q ** (n + al + be + 1),
             q ** ((2 * al + 1) / 4) * w, q ** ((2 * al + 1) / 4) / w],
            [q ** (al + 1), -q ** ((al + be + 1) / 2), -q ** ((al + be + 2) / 2)],
            q, q, nterms=n, tol=ctx.tol)
    return cqjacobi_seq(n, level, x, ctx)[n]


# ---------------------------------------------------------------------------
# weight and norms
# ---------------------------------------------------------------------------

def weight_theta(params, xs, ctx):
    """w(x) sin(theta) = h(x; 1, -1, sqrt(q), -sqrt(q)) / h(x; params) at
    every point of a real ndarray ``xs`` in [-1, 1] (complex ndarray)."""
    q, sq = ctx.q, math.sqrt(ctx.q)
    den = h_product(xs, params, q, ctx.tol)
    if not den.all():
        raise DomainError(f"weight: the product h(x) underflows to 0 at q = {q}")
    return h_product(xs, (1.0, -1.0, sq, -sq), q, ctx.tol) / den


@functools.lru_cache(maxsize=_COEFF_TABLES)
def _node_table(level, ctx, key):
    nodes = np.frombuffer(key)
    xs = np.cos(nodes)
    w = weight_theta(_aw_params(level, ctx.q), xs, ctx)
    w = w.real if level.is_real else w
    polys = np.array(_cqjacobi_rows(len(xs) // 2, level, xs, ctx))
    w.flags.writeable = polys.flags.writeable = False
    return w, polys


def on_nodes(level, nodes, ctx):
    """(w(cos theta) sin(theta), rows P_0..P_{size//2}) on the theta
    nodes, read-only and memoised per (level, ctx) and node values.  The
    grid is real for real levels."""
    return _node_table(level, ctx, np.asarray(nodes, dtype=float).tobytes())


@functools.lru_cache(maxsize=_COEFF_TABLES)
def _norm_table(level, ctx):
    # h_0: the seven infinite products of the constant, evaluated once
    q, tol = ctx.q, ctx.tol
    al, be = level.alpha, level.beta
    s = al + be
    num, den = (math.prod((qpoch_inf(a, q, tol) for a in params), start=1.0 + 0.0j)
                for params in ([q ** ((s + 2) / 2), q ** ((s + 3) / 2)],
                               [q, q ** (al + 1), q ** (be + 1),
                                -q ** ((s + 1) / 2), -q ** ((s + 2) / 2)]))
    if den == 0:
        raise DomainError(f"norm: the products of h_0 underflow to 0 at q = {q}")
    return [2 * math.pi * num / den]


def _norms(n, level, ctx):
    """h_0, h_1, ... (at least n of them): a table memoised per
    (level, ctx) and grown by h_{k+1} = h_k norm_ratio(k)."""
    hs = _norm_table(level, ctx)
    while len(hs) < n:
        hs.append(hs[-1] * norm_ratio(len(hs) - 1, level, ctx.q))
    return hs


def norm_h(n, level, ctx):
    """Normalization constant h_n^{(a,b)}(q) of Eq-form orthogonality
    (with the corrected exponent q^{n(2a+1)/2}), memoised per
    (level, ctx)."""
    if n < 0:
        raise DomainError("norm_h: n must be >= 0")
    h = _norms(n + 1, level, ctx)[n]
    return complex(h.real, 0.0) if level.is_real else h


def norm_ratio(n, level, q):
    """h_{n+1}/h_n from the closed form of the norm."""
    al, be = level.alpha, level.beta
    if n == 0:  # top and bottom are the same factor 1 - q^{a+b+1}: cancelled
        top = bottom = 1.0
    else:
        top, bottom = 1 - q ** (2 * n + al + be + 1), 1 - q ** (al + be + 1 + n)
    return ((1 - q ** (al + 1 + n)) * (1 - q ** (be + 1 + n))
            * (1 + q ** ((al + be + 3) / 2 + n)) * q ** ((2 * al + 1) / 2)
            * top
            / ((1 - q ** (2 * n + al + be + 3)) * (1 - q ** (n + 1))
               * bottom * (1 + q ** ((al + be + 1) / 2 + n))))


# ---------------------------------------------------------------------------
# connection coefficients (both directions)
# ---------------------------------------------------------------------------

def connection_down(n, level, ctx):
    """Coefficients of P_n^{(a,b)}(x|q) in the three top degrees of the
    (a+1, b+1) family; coefficients for negative degrees are exact zero."""
    q = ctx.q
    al, be = level.alpha, level.beta
    if n < 1:
        # c_{0,0}: its two (1 - x^2)/(1 - x) are 1 + x, and cancel against pre
        return ConnectionTriple(1.0, 0.0, 0.0)
    pre = qpoch(-q ** ((al + be + 1) / 2), math.sqrt(q), 2)
    cnn = (q ** (-n / 2) * (1 - q ** (al + be + n + 1)) * (1 - q ** (al + be + n + 2))
           / (pre * (1 - q ** (n + (al + be + 1) / 2))
              * (1 - q ** (n + (al + be + 2) / 2))))
    cnn1 = (q ** ((al + be + 2 - n) / 2) * (1 - q ** (al + be + n + 1))
            * (1 + q ** (n + (al + be + 1) / 2)) * (1 - q ** ((al - be) / 2))
            / (pre * (1 - q ** (n + (al + be) / 2))
               * (1 - q ** (n + (al + be + 2) / 2))))
    if n < 2:
        return ConnectionTriple(cnn, cnn1, 0.0)
    cnn2 = (-q ** ((3 * al + be + 4 - n) / 2) * (1 - q ** (al + n)) * (1 - q ** (be + n))
            / (pre * (1 - q ** (n + (al + be) / 2))
               * (1 - q ** (n + (al + be + 1) / 2))))
    return ConnectionTriple(cnn, cnn1, cnn2)


def dual_expansion_aw(n, level, ctx):
    """Same expansion in the Askey-Wilson normalization at base q^2
    (coefficients written as functions of the context's q)."""
    if n < 1:
        raise DomainError("dual_expansion_aw requires n >= 1")
    q = ctx.q
    al, be = level.alpha, level.beta
    po2 = qpoch(-q ** (al + be + 1), q, 2)
    enm1 = ((1 - q ** (2 * al + 2 * n)) * (1 - q ** (2 * be + 2 * n)) * po2
            * q ** (n - 1)
            / ((1 - q ** (2 * n + al + be)) * (1 - q ** (2 * n + al + be + 1))))
    en = (po2 * (1 + q ** (al + be + 2 * n + 1)) * (1 - q ** (2 * n))
          * (1 - q ** (al - be)) * q ** (be - al + n - 1)
          / ((1 - q ** (2 * n + al + be)) * (1 - q ** (2 * n + al + be + 2))))
    enp1 = (-po2 * (1 - q ** (2 * n)) * (1 - q ** (2 * n + 2)) * q ** (be - al + n - 1)
            / ((1 - q ** (2 * n + al + be + 1)) * (1 - q ** (2 * n + al + be + 2))))
    return (enm1, en, enp1)
