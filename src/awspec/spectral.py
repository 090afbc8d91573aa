"""Eigenvalue machinery of the right-inverse integral operator: recurrence
coefficients, the monic polynomials b_n (recurrence and closed form), the
minimal solutions X_nu, the transcendental function F, eigenvalue location
and certification, eigenfunctions, the s_n polynomials, the Markov ratio
and the q-Coulomb wave function.

Numerical conventions that matter here:

* Forward recurrence of b_n is the dominant direction and is stable at
  generic mu.  At an eigenvalue the coefficients a_n, and b_n(xi) at the
  zero xi of F, are the *minimal* solution, so they are computed
  backward: the a_n of ``eigenfunction`` by the ratios a_k/a_{k-1} on the
  rows of the matrix section, and b_n(xi) of the root asymptotics by the
  same ratios in the scaled variable w_n = b_n(xi) (-xi)^n q^{-n(n+a+b+3)/2},
  whose dynamic range stays O(1); ``_backward`` is the one ratio loop.
* The closed form is evaluated as the double sum with coefficient arrays
  A_k and B_k^{(n)} built ratio-wise; the single-4phi3 inner form loses
  q^{-j(j-1)/2} digits to cancellation and is kept only as a small-degree
  cross-check.  One builder and one sum serve both precisions.  The sum
  runs in numpy long double beside a running bound on its error; a value
  whose bound is within ctx.tol in the mixed measure,
  bound <= ctx.tol max(1, |b_n|), is returned, and any other reruns in
  mpmath with as many more digits as the bound says were lost.
* X_nu is always summed from its convergent series, never by forward
  recurrence, which would destroy minimality.  The series is entire in
  1/x, with no pole, and F(mu) = -X_{-1}(mu)/mu is its only formula for F.
* The eigenvalues are solved on the section's own rows, not on F: Newton
  on the twisted pivot of the tridiagonal section, split at the row where
  the eigenvector peaks, from seeds of a small dense section.  The split
  keeps the small roots of the graded section to their own relative
  accuracy, which the dense solver loses.  F is evaluated once per root,
  as the certificate residual_f.
"""
import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .awop import CoeffVector
from .backend import MAX_TERMS, sum_series, tail_powers
from .exceptions import DomainError, NonConvergenceError, PoleError
from .qcore import phi, qpoch_inf
from .qpolys import _COEFF_TABLES


__all__ = [
    "recurrence_a_coeffs", "bn_B", "bn_C", "bn_sequence",
    "bn_explicit", "bn_minimal_scaled", "bn0_scaled_sequence",
    "zero_asymptotics_constants", "x_nu", "f_eval",
    "root_asymptotics_constant", "matrix_oracle",
    "EigenResult", "eigenvalues", "eigenfunction", "s_poly", "markov_ratio",
    "markov_stieltjes", "q_coulomb", "mu_from_lambda",
]


def mu_from_lambda(lam, q):
    return 2.0 * lam * math.sqrt(q) / (1.0 - q)


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

def recurrence_a_coeffs(k, level, ctx):
    """Coefficients (of a_{k+1}, a_k, a_{k-1}) on the right side of the
    three-term recurrence -lambda a_k q^{a/2+1/4} = P a_{k+1} + Q a_k + R a_{k-1}."""
    if k < 1:
        raise DomainError("recurrence_a_coeffs requires k >= 1")
    q = ctx.q
    al, be = level.alpha, level.beta
    P = ((1 - q) * (1 - q ** (al + k + 1)) * (1 - q ** (be + k + 1))
         * q ** ((3 * al + be + k + 1) / 2)
         / (2 * (1 - q ** (al + be + 1 + k)) * (1 - q ** ((al + be + 2) / 2 + k))
            * (1 - q ** ((al + be + 3) / 2 + k))))
    Q = -((1 - q) * (1 - q ** ((al - be) / 2)) * (1 + q ** ((al + be + 1) / 2 + k))
          * q ** ((al + be + k) / 2)
          / (2 * (1 - q ** ((al + be) / 2 + k)) * (1 - q ** ((al + be + 2) / 2 + k))))
    if k == 1:  # (1 - q^{a+b+1})/(1 - q^{(a+b+1)/2}), cancelled
        top, bottom = 1 + q ** ((al + be + 1) / 2), 1.0
    else:
        top, bottom = 1 - q ** (al + be + k), 1 - q ** ((al + be - 1) / 2 + k)
    R = -((1 - q) * top * q ** ((k - 1) / 2)
          / (2 * (1 - q ** ((al + be) / 2 + k)) * bottom))
    return P, Q, R


def _monic_B(k, al, be, qpow):
    return ((1 - qpow((be - al) / 2)) * (1 + qpow((al + be + 3) / 2 + k))
            * qpow(al / 2 + 0.75 + k / 2)
            / ((1 - qpow((al + be + 2) / 2 + k)) * (1 - qpow((al + be + 4) / 2 + k))))


def _monic_C(k, al, be, qpow):
    if k == 0:
        return 0.0  # C_0 multiplies b_{-1} = 0
    return ((1 - qpow(al + 1 + k)) * (1 - qpow(be + 1 + k))
            * qpow(k + (al + be) / 2 + 1)
            / ((1 - qpow((al + be + 1) / 2 + k))
               * (1 - qpow((al + be + 2) / 2 + k)) ** 2
               * (1 - qpow((al + be + 3) / 2 + k))))


def bn_B(k, level, q):
    """Bracket coefficient of the monic recurrence
    b_{k+1}(mu) = (mu + bn_B) b_k(mu) + bn_C b_{k-1}(mu)."""
    return _monic_B(k, level.alpha, level.beta, lambda e: q ** e)


def bn_C(k, level, q):
    """Sub-diagonal coefficient of the monic recurrence (see bn_B)."""
    return _monic_C(k, level.alpha, level.beta, lambda e: q ** e)


def bn_sequence(nmax, mu, level, ctx):
    """[b_0(mu), ..., b_nmax(mu)] by forward recurrence (the dominant
    direction, hence stable).

    Accumulation runs in extended precision: near q -> 1 the subdiagonal
    coefficient grows like (1-q)^{-3} and intermediate values amplify
    roundoff by several orders before the sequence settles."""
    al, be = level.alpha, level.beta
    lnq = np.log(np.longdouble(ctx.q))

    def qpow(e):
        if isinstance(e, complex):
            return np.exp(np.clongdouble(e) * lnq)
        return np.exp(np.longdouble(e) * lnq)

    vals = [1.0 + 0.0j]
    bm1 = np.clongdouble(0.0)
    b0 = np.clongdouble(1.0)
    muv = np.clongdouble(mu)
    for k in range(nmax):
        b1 = ((muv + _monic_B(k, al, be, qpow)) * b0
              + _monic_C(k, al, be, qpow) * bm1)
        vals.append(complex(b1))
        bm1, b0 = b0, b1
    return vals


class _Arith(NamedTuple):
    """The arithmetic the closed form runs in: alpha and beta lifted into
    it, ln p = ln(q)/2, ppow(e) = exp(e ln p), its real and complex
    constructors, and its unit roundoff u."""
    al: object
    be: object
    lnp: object
    ppow: object
    real: object
    cplx: object
    u: float


def _lift(level, lnp, exp, real, cplx, u):
    al, be = (cplx(v) if isinstance(v, complex) else real(v)
              for v in (level.alpha, level.beta))
    return _Arith(al, be, lnp, lambda e: exp(e * lnp), real, cplx, u)


def _longdouble_arith(level, q):
    """numpy long double.  The exponents are lifted too: the arrays feed a
    convolution whose products overshoot the sum by many orders, so even
    1e-16-level exponent noise would surface in the result."""
    return _lift(level, np.log(np.longdouble(q)) / 2, np.exp, np.longdouble,
                 np.clongdouble, float(np.finfo(np.longdouble).eps) / 2)


def _mp_arith(level, q):
    """mpmath at the working precision; build it inside ``mp.workdps``."""
    import mpmath as mp
    return _lift(level, mp.log(mp.mpf(q)) / 2, mp.exp, mp.mpf, mp.mpc,
                 float(mp.eps) / 2)


def _closed_form_arrays(n, ar):
    """A_0..A_n and the single row B_0^{(n)}..B_n^{(n)} of the double-sum
    closed form, built ratio-wise (products only, no cancellation) in the
    arithmetic ``ar``, real on a real level, and the units of error they
    carry: A_k and B_k have relative errors of at most a_k u and b_k u, to
    first order in the unit roundoff u.

    With f_i = (1 - p^{b+1+i})(1 + p^{a+1+i}), g_i = 1 - p^{a+b+2+i} and
    h_i = 1 - p^{i+1}, A_{k+1} = A_k f_k / (h_k g_k) and
    B_{k+1} = B_k p^k f_{n-k} / (h_k g_{2n-k}): the paper's B ratio with
    the large powers p^{-n} taken out of each factor, where they cancel to
    p^k.  So every factor 1 +- p^x is near 1 or small.

    a_k and b_k add up, over the steps below k, the products (u each, 3u
    on a complex level), the quotient (2u, 6u complex), B's p^k
    ((3k |ln p| + 2)u), and for each factor 1 +- p^x the error of p^x,
    ((4|x| + Z) |ln p| + e)u, times the factor's condition
    |p^x| / |1 +- p^x| <= 1/|expm1(Re x |ln p|)|, plus the rounding of
    1 +- p^x.  Zu = 2(|a| + |b| + 1)u bounds the rounding of the sums that
    form x, and e = 2 bounds a real exp, 5 a complex one.  A factor that
    may vanish makes the counts infinite."""
    al, be, ppow = ar.al, ar.be, ar.ppow
    x0 = (be + 1, al + 1, al + be + 2)
    f = [(1 - ppow(x0[0] + i)) * (1 + ppow(x0[1] + i)) for i in range(n + 1)]
    g = [1 - ppow(x0[2] + i) for i in range(2 * n + 1)]
    A = [ar.real(1)]
    B = [ar.real(1)]
    for k in range(n):
        h = 1 - ppow(ar.real(k + 1))
        A.append(A[k] * f[k] / (h * g[k]))
        B.append(B[k] * ppow(ar.real(k)) * f[n - k] / (h * g[2 * n - k]))
    abs_lnp = -float(ar.lnp)
    # the exponents x of the factors of f (two rows), g and h
    x = np.array([*map(complex, x0), 1.0])[:, None] + np.arange(2 * n + 1)
    mul, div, e = (3, 6, 5) if x.imag.any() else (1, 2, 2)
    gap = np.abs(np.expm1(x.real * abs_lnp))
    if not gap.all():
        unbounded = [0.0] + [math.inf] * n
        return A, B, unbounded, unbounded
    z = 2 * (abs(complex(al)) + abs(complex(be)) + 1)
    u_be, u_al, u_g, u_h = ((4 * np.abs(x) + z) * abs_lnp + e) / gap + 1
    u_f = u_be + u_al + mul
    a_step = u_f[:n] + u_g[:n] + u_h[:n] + 2 * mul + div
    b_step = (u_f[n:0:-1] + u_g[2 * n:n:-1] + u_h[:n] + 3 * mul + div
              + 3 * abs_lnp * np.arange(n) + 2)
    return (A, B, [0.0, *a_step.cumsum().tolist()],
            [0.0, *b_step.cumsum().tolist()])


def _closed_form_sum(n, mu, A, B, a_units, b_units, ar):
    """(value, bound): sum_j (-1)^j p^{j/2} mu^{n-j} sum_k (-1)^k A_k
    B_{j-k}^{(n)} in the arithmetic ``ar``, as a Python complex, and a
    bound on its error for arrays that carry a_k and b_k units of relative
    error (``_closed_form_arrays``).

    The outer sum runs by Horner's rule in mu.  Beside it, in float, runs
    the same sum over absolute values with each term weighted by the
    units of error it can carry,
    sum_j p^{j/2} |mu|^{n-j} sum_k |A_k| |B_{j-k}| (a_k + b_{j-k} + c_j),
    and the bound is u / (1 - u max) times it (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3 and 5.1).  c_j
    counts the inner product (3u), the inner additions (ju), p^{j/2} and
    its product ((1.5 j |ln p| + 5)u) and the n - j Horner steps that
    follow (4u each).  A non-finite bound says the error could not be
    bounded."""
    amu, mu = abs(mu), ar.cplx(mu)
    Ak = [(-1) ** k * a for k, a in enumerate(A)]
    Bj = B[::-1]
    absA = [abs(complex(a)) for a in A]
    absB = [abs(complex(b)) for b in Bj]
    errA = [x * e for x, e in zip(absA, a_units)]
    errB = [x * e for x, e in zip(absB, b_units[::-1])]
    abs_lnp = -float(ar.lnp)
    total = ar.cplx(0)
    weight = 0.0
    for j in range(n + 1):
        s = 0  # real on a real level
        w = e = 0.0
        for a, b, ma, mb, ea, eb in zip(Ak, Bj[n - j:], absA, absB[n - j:],
                                        errA, errB[n - j:]):
            s += a * b
            w += ma * mb
            e += ea * mb + ma * eb
        pj = ar.ppow(ar.real(j) / 2)
        total = total * mu + (-1) ** j * pj * s
        weight = (weight * amu
                  + float(pj) * (e + w * (4 * n + 8 + j * (1.5 * abs_lnp - 3))))
    worst = (a_units[n] + b_units[n] + 4 * n + 8 + 1.5 * n * abs_lnp) * ar.u
    return complex(total), (ar.u * weight / (1 - worst) if worst < 1 else math.inf)


def bn_explicit(n, mu, level, ctx):
    """Closed form of b_n(mu): outer j-sum over mu^{n-j} with inner
    terminating sums, base p = sqrt(q), organized as the double sum with
    bounded summands, within ``ctx.tol`` of b_n in the mixed measure
    |value - b_n| / max(1, |b_n|).

    The summand arrays grow like 1/(p; p)_k before cancelling, so the
    conditioning degrades as q -> 1.  The sum runs in numpy long double
    beside a running bound on its error (``_closed_form_sum``), and the
    value is returned when bound <= ctx.tol max(1, |value|).  Otherwise,
    and when the bound is not finite, the same array builder and sum
    rerun in mpmath, with as many more digits as the bound says long
    double lost, so the closed form stays a trustworthy independent oracle
    at every admissible q."""
    if n < 0:
        raise DomainError("bn_explicit: n must be >= 0")
    ar = _longdouble_arith(level, ctx.q)
    value, bound = _closed_form_sum(n, mu, *_closed_form_arrays(n, ar), ar)
    if bound <= ctx.tol * max(1.0, abs(value)):
        return value
    import mpmath as mp
    # the bound scales with the unit roundoff: the rerun needs the digits
    # lost against max(1, |b_n|) >= max(1, |value| - bound), long double's
    # and ctx.tol's digits, and a guard digit; a non-finite bound counts
    # no digits lost
    lost = (math.log10(bound / max(1.0, abs(value) - bound))
            if math.isfinite(bound) else 0.0)
    with mp.workdps(math.ceil(lost - math.log10(ar.u * ctx.tol)) + 1):
        ar = _mp_arith(level, ctx.q)
        return _closed_form_sum(n, mu, *_closed_form_arrays(n, ar), ar)[0]


def bn_minimal_scaled(nmax, xi, level, ctx):
    """w_n = b_n(xi) (-xi)^n q^{-n(n+a+b+3)/2}, n = 0..nmax, w_0 = 1, at a
    zero xi of F, where b_n(xi) is the minimal solution; w_n tends to the
    constant of the root asymptotics.  b_n(u lambda) = a_{n+1} prod_{j<=n}
    u sP_j, u = mu_from_lambda(1, q), so w_n / w_{n-1} = c_n (-xi) t_{n+1}
    with t_k = a_k/a_{k-1} ``_backward``'s ratios at lambda = xi/u, as in
    ``eigenfunction``, and c_n = u sP_n q^{-(n+1+(a+b)/2)} in closed form,
    q^{a/2} taken once (a complex q^{(a-n)/2} per step loses digits)."""
    if xi == 0:
        raise DomainError("bn_minimal_scaled: xi must be nonzero")
    q = ctx.q
    al, be = level.alpha, level.beta
    t, _ = _backward(complex(xi / mu_from_lambda(1.0, q)),
                     _oracle_rows(nmax + 41, level, ctx)[1:nmax + 41])
    qa = q ** (al / 2)
    w = [1.0 + 0.0j]
    for n in range(1, nmax + 1):
        c = (-qa * q ** (-n / 2 - 0.25)
             * (1 - q ** (al + n + 1)) * (1 - q ** (be + n + 1))
             / ((1 - q ** (al + be + 1 + n)) * (1 - q ** ((al + be + 2) / 2 + n))
                * (1 - q ** ((al + be + 3) / 2 + n))))
        w.append(w[-1] * c * -xi * t[n - 1])
    return w


def bn0_scaled_sequence(nmax, level, ctx):
    """r_n = b_n(0) / (p^{n^2/2} u^n) by the rescaled forward recurrence
    (no under/overflow for any q), with u the corrected zero-asymptotics
    base from zero_asymptotics_constants."""
    q = ctx.q
    p = math.sqrt(q)
    u = zero_asymptotics_constants(level, ctx)[0]
    vals = [1.0 + 0.0j]
    rm1, r0 = 0.0 + 0.0j, 1.0 + 0.0j
    for n in range(nmax):
        r1 = (bn_B(n, level, q) * p ** (-(2 * n + 1) / 2) / u * r0
              + bn_C(n, level, q) * p ** (-2 * n) / (u * u) * rm1)
        vals.append(r1)
        rm1, r0 = r0, r1
    return vals


def zero_asymptotics_constants(level, ctx):
    """(u, C) of the zero asymptotics b_n(0) ~ C p^{n^2/2} u^n.

    The magnitude of u is p^{b+1} for a > b and p^{a+1} for b > a; the
    signs carry the (-1)^n of the closed form (u = -p^{b+1} and +p^{a+1}
    respectively), which is what makes the scaled ratio converge, as the
    tests verify."""
    q = ctx.q
    p = math.sqrt(q)
    al, be = level.alpha, level.beta
    if not level.is_real or al == be:
        raise DomainError("zero_asymptotics_constants requires real alpha != beta")
    tol = ctx.tol
    big, small, sign = (al, be, -1) if al > be else (be, al, 1)
    u = sign * p ** (small + 1)
    C = (qpoch_inf(-p ** (big + 1), p, tol) * qpoch_inf(p ** (big + 1), p, tol)
         / ((1 + p ** (big - small)) * qpoch_inf(p ** (big + small + 2), p, tol)))
    return u, C


# ---------------------------------------------------------------------------
# minimal solutions X_nu and F
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_COEFF_TABLES)
def _x_products(nu, level, ctx):
    """(p^{b+nu+2}; p)_inf / (p^{a+b+2nu+4}; p)_inf, the x-free ratio of
    X_nu, memoised per (nu, level, ctx): the context's tol truncates it."""
    p = math.sqrt(ctx.q)
    al, be = level.alpha, level.beta
    return (qpoch_inf(p ** (be + nu + 2), p, ctx.tol)
            / qpoch_inf(p ** (al + be + 2 * nu + 4), p, ctx.tol))


def x_nu(nu, x, level, ctx):
    """Minimal solution X_nu(x), nu >= -1 (real order allowed), as the
    series entire in 1/x

        X_nu(x) = (-x)^{-nu} (p^{b+nu+2}; p)_inf / (p^{a+b+2nu+4}; p)_inf
                  * sum_n c_n (w p^n; p)_inf,
        c_n = (p^{a+nu+2}, p^{1/2}/x; p)_n p^{(b+nu+2)n} / (p; p)_n,

    w = -p^{a+nu+5/2}/x: the 2phi1 in p^{b+nu+2} with (w; p)_inf taken
    into each term (Ismail & Zhang, Adv. Math. 109, 1994), so it has none
    of the 2phi1's poles at w p^k = 1.  The tails (w p^n; p)_inf are
    suffix products over the ``tail_powers`` of w; where a factor
    1 - w p^k is exactly 0 the terms n <= k are 0 and the sum starts at
    n = k + 1.  c_n runs by its ratio, whose denominator 1 - p^{n+1} never
    vanishes.  A power (-x)^{-nu} that overflows, or underflows below the
    smallest normal float, is a ``NonConvergenceError``."""
    if x == 0:
        raise DomainError("x_nu: x must be nonzero")
    try:
        power = (-x) ** (-nu)
    except OverflowError:
        raise NonConvergenceError("x_nu: the value overflows") from None
    if abs(power) < sys.float_info.min:
        raise NonConvergenceError("x_nu: the value underflows")
    p = math.sqrt(ctx.q)
    al, be = level.alpha, level.beta
    w = -p ** (al + nu + 2.5) / x
    factors = [1.0 - f for f in tail_powers(w, p, ctx.tol, "x_nu")]
    tails = [1.0]  # (w p^n; p)_inf for n = J, J-1, ..., 0, J = len(factors)
    for f in reversed(factors):
        tails.append(tails[-1] * f)
    tails.reverse()
    start = max((k + 1 for k, f in enumerate(factors) if f == 0), default=0)
    a1, v, z = p ** (al + nu + 2), p ** 0.5 / x, p ** (be + nu + 2)

    def terms():
        c, pn = 1.0, 1.0  # c_n and p^n
        for n in range(sys.maxsize):
            if n >= start:
                yield c * tails[min(n, len(factors))]
            c *= (1.0 - a1 * pn) * (1.0 - v * pn) * z / (1.0 - p * pn)
            pn *= p

    return (power * _x_products(nu, level, ctx)
            * sum_series(terms(), ctx.tol, MAX_TERMS, "x_nu"))


def f_eval(x, level, ctx):
    """F(x) = -X_{-1}(x)/x, the eigenvalue function in the mu variable,
    zero exactly at the eigenvalues: the library's one formula for F."""
    return -x_nu(-1, x, level, ctx) / x


def root_asymptotics_constant(xi, level, ctx):
    """Constant of the root asymptotics: b_n(xi) (-xi)^n q^{-n(n+a+b+3)/2}
    tends to this value at a zero xi of F."""
    q = ctx.q
    al, be = level.alpha, level.beta
    tol = ctx.tol
    return (qpoch_inf(q ** (al + 2), q, tol) * qpoch_inf(q ** (be + 2), q, tol)
            / (qpoch_inf(q ** ((al + be + 3) / 2), q, tol)
               * qpoch_inf(q ** ((al + be + 5) / 2), q, tol)
               * qpoch_inf(q ** ((al + be + 4) / 2), q, tol) ** 2)
            / x_nu(0, xi, level, ctx))


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_COEFF_TABLES)
def _oracle_table(level, ctx):
    return []


def _oracle_rows(n, level, ctx):
    """(s P, s Q, s R) of recurrence_a_coeffs(k) for k = 1..n (at least),
    s = -q^{-(a/2+1/4)}: the rows of the tridiagonal section, a table
    memoised per (level, ctx) and grown on demand."""
    table = _oracle_table(level, ctx)
    s = -ctx.q ** -(level.alpha / 2 + 0.25)
    for k in range(len(table) + 1, n + 1):
        P, Q, R = recurrence_a_coeffs(k, level, ctx)
        table.append((s * P, s * Q, s * R))
    return table


def matrix_oracle(n, level, ctx):
    """Eigenvalues of the N x N tridiagonal section of the recurrence,
    sorted by (|lambda| desc, arg lambda).  The section's rows are read
    from a table memoised per (level, ctx).  On a real level the rows are
    real, so the section is built and solved in real arithmetic (float64),
    whose complex eigenvalues come in exact conjugate pairs; elsewhere it
    is solved by the general complex eigensolver."""
    if n < 1:
        raise DomainError("matrix_oracle: N >= 1 required")
    m = np.zeros((n, n), dtype=float if level.is_real else complex)
    for i, (sP, sQ, sR) in enumerate(_oracle_rows(n, level, ctx)[:n]):
        m[i, i] = sQ
        if i + 1 < n:
            m[i, i + 1] = sP
        if i - 1 >= 0:
            m[i, i - 1] = sR
    ev = np.linalg.eigvals(m).astype(complex)
    order = np.lexsort((np.angle(ev), -np.abs(ev)))
    return ev[order]


@dataclass(frozen=True)
class EigenResult:
    """A certified eigenvalue with residuals and truncated eigenfunction."""
    lam: complex
    mu: complex
    residual_f: float
    coeffs: CoeffVector
    converged: bool

    def __post_init__(self):
        if self.lam == 0:
            raise DomainError("lambda = 0 is not an eigenvalue")


_EPS = sys.float_info.epsilon
_SEED_ROWS = 32  # rows of the first section the seeds come from
_NEWTON_STEPS = 30  # Newton steps on the twisted pivot, per section size


def _twisted_pivot(lam, rows, n):
    """(g_k, dg_k/dlambda, s_k) of the section's first n rows at lambda, at
    the row k where |g_k| is least.

    g_k = lambda - sQ_k - sP_k t_{k+1} - sR_k r_k is the twisted pivot of
    lambda - J split at row k (Dhillon & Parlett, SIAM J. Matrix Anal.
    Appl. 25, 2004): 1/g_k is entry (k, k) of (lambda - J)^{-1}, so g_k
    vanishes exactly at the eigenvalues.  The backward ratios
    t_j = a_j / a_{j-1} = sR_j / (lambda - sQ_j - sP_j t_{j+1}) start from
    t_{n+1} = 0, as in ``eigenfunction``; the forward ratios
    r_j = a_{j-1} / a_j = sP_{j-1} / (lambda - sQ_{j-1} - sR_{j-1} r_{j-1})
    from r_1 = 0, a_0 being 0, are the backward ratios of the rows reversed
    with sP and sR swapped: ``_backward`` gives both, with their derivatives
    in lambda.  The row where |g_k| is least is where the eigenvector peaks,
    and there no term of g_k is a large cancelling one.
    s_k = |lambda| + |sQ_k| + |sP_k t_{k+1}| + |sR_k r_k| is the scale of
    the rounding g_k carries."""
    t, dt = _backward(lam, rows[:n])  # t_{j+1} at index j
    r, dr = _backward(lam, [(sR, sQ, sP) for sP, sQ, sR in reversed(rows[:n])])
    least = math.inf
    for j, (sP, sQ, sR) in enumerate(rows[:n]):  # row j + 1, r_{j+1} at n - j
        below, above = sP * t[j + 1], sR * r[n - j]
        g = lam - sQ - above - below
        size = abs(g)
        if size < least:
            least = size
            best = (g, 1.0 - sP * dt[j + 1] - sR * dr[n - j],
                    abs(lam) + abs(sQ) + abs(below) + abs(above))
    return best


def _backward(lam, rows):
    """The backward ratios t[i] = sR / (lambda - sQ - sP t[i+1]) on rows[i]
    and their derivatives in lambda, as two lists, from a ratio 0 past the
    last row, which ends each list: the library's one backward recurrence
    (``_twisted_pivot`` both ways, ``_settle``, ``eigenfunction``,
    ``bn_minimal_scaled``, ``framework.cf_minimal_ratio``).  A zero divisor
    moves to a roundoff of its terms, or raises ``PoleError`` where those
    are 0 too."""
    t = [0.0] * (len(rows) + 1)
    dt = [0.0] * (len(rows) + 1)
    tj = dtj = 0.0
    for j in range(len(rows) - 1, -1, -1):
        sP, sQ, sR = rows[j]
        d = lam - sQ - sP * tj
        if d == 0:
            d = _EPS * (abs(lam) + abs(sQ))
            if d == 0:
                raise PoleError(f"backward recurrence: row {j} divides by 0")
        tj = sR / d
        dtj = (sP * dtj - 1.0) * tj / d
        t[j], dt[j] = tj, dtj
    return t, dt


def _settle(lam, level, ctx, nrows):
    """(lambda, converged): Newton on the twisted pivot from the seed
    ``lam``, on the section's first n = ``nrows`` rows, doubling n until
    rows n+1..2n leave the root where it is.  Either the root moved from
    n/2 rows to n by no more than its rounding level,
    4 u max(|lambda|, s_k / |dg_k|), or, without solving again, the
    backward ratio t_{n+1} that rows n+1..2n give moves the pivot of row
    n, lambda - sQ_n - sP_n t_{n+1}, and its slope by less than half a
    unit of roundoff u, so the pivots of n and of 2n rows agree at the
    root to rounding.  At each size Newton stops on its residual, after
    the step from a pivot with |g_k| <= 4 u s_k.

    ``converged`` is False where Newton does not stop within
    ``_NEWTON_STEPS`` steps, the slope vanishes, the iterate is not a
    finite nonzero number (the seed is returned then), or 2n would pass
    ``MAX_TERMS`` before the root settles."""
    seed = lam = complex(lam)
    n, prev = nrows, None
    while 2 * n <= MAX_TERMS:
        rows = _oracle_rows(2 * n, level, ctx)
        for _ in range(_NEWTON_STEPS):
            g, slope, scale = _twisted_pivot(lam, rows, n)
            if slope == 0:
                return lam, False
            lam -= g / slope
            if not (cmath.isfinite(lam) and lam):
                return seed, False
            if abs(g) <= 4 * _EPS * scale:
                break
        else:
            return lam, False
        rounding = 4 * _EPS * max(abs(lam), scale / abs(slope))
        if prev is not None and abs(lam - prev) <= rounding:
            return lam, True
        t, dt = _backward(lam, rows[n:2 * n])
        sP, sQ, _ = rows[n - 1]
        if (abs(sP * t[0]) <= _EPS / 2 * abs(lam - sQ)
                and abs(sP * dt[0]) <= _EPS / 2):
            return lam, True
        prev, n = lam, 2 * n
    return lam, False


def _with_partner(lam, ok, level, ctx):
    """The EigenResult of the root ``lam``, with mu, the certificate
    residual_f = |F(mu)| and a_0..a_48, and on a real level that of the
    conjugate of a complex root."""
    mu = mu_from_lambda(lam, ctx.q)
    res_f = abs(f_eval(mu, level, ctx))
    coeffs = eigenfunction(lam, level, 48, ctx)
    found = [EigenResult(lam, mu, res_f, coeffs, ok)]
    if level.is_real and abs(lam.imag) > 1e-13 * abs(lam):
        conj_coeffs = CoeffVector(coeffs.level,
                                  tuple(c.conjugate() for c in coeffs.coeffs))
        found.append(EigenResult(lam.conjugate(), mu.conjugate(), res_f,
                                 conj_coeffs, ok))
    return found


def _refine_section(size, level, ctx, count, nmat, results):
    """Refine the seeds of the ``size``-row section into ``results``;
    True when a larger section is still needed.

    The seeds are the section's nonzero eigenvalues, |lambda| descending,
    one per conjugate pair on a real level (the float section's pairs are
    exact), less those within 1e-6 relative of a converged root that a
    smaller section gave.  A seed whose refinement fails, or lands within
    1e-10 |lambda| of a listed root, marks the section's unresolved tail:
    below ``nmat`` rows the section doubles there, and at ``nmat`` rows the
    seed is listed with ``converged=False``."""
    last = size == nmat
    kept = [r.lam for r in results if r.converged]
    for lam0 in matrix_oracle(size, level, ctx):
        if lam0 == 0 or (level.is_real and lam0.imag < 0):
            continue
        if any(abs(lam0 - k) <= 1e-6 * abs(k) for k in kept):
            continue
        if len(results) >= count:
            kth = sorted((abs(r.lam) for r in results), reverse=True)[count - 1]
            if abs(lam0) < kth * (1.0 - 1e-8):
                return False
        lam, ok = _settle(lam0, level, ctx, nmat)
        ok = ok and not any(abs(lam - r.lam) <= 1e-10 * abs(lam) for r in results)
        if not (ok or last):
            return True
        results += _with_partner(lam, ok, level, ctx)
    return not last and len(results) < count


def eigenvalues(level, ctx, count, nmat):
    """Locate ``count`` eigenvalues from the section's own rows.

    Seeds come from the dense section of the leading min(nmat, 32) rows,
    doubled up to ``nmat`` rows while its seeds run out before ``count``
    roots are kept (``_refine_section``).  Each seed is refined by Newton
    on the twisted pivot of the rows, from ``nmat`` rows up until the root
    settles (``_settle``), so ``nmat`` sets the rows the roots are first
    solved on.  Each root gets the certificate residual_f = |F(mu)|, one F
    per root, and the eigenfunction coefficients a_0..a_48; ``converged``
    says that the stop test passed and the root settled.

    Results are sorted by (|lambda| desc, arg lambda); on a real level
    each complex root brings its conjugate.  Seeds are refined in order
    until ``count`` roots are kept and the next seed's |lambda| lies below
    the ``count``-th kept |lambda| by more than 1e-8 relative: a seed that
    ties with a kept root is still refined, and the first section does not
    depend on ``count``, so a smaller ``count`` lists the first roots of a
    larger one."""
    results = []
    size = min(nmat, _SEED_ROWS)
    while _refine_section(size, level, ctx, count, nmat, results):
        size = min(2 * size, nmat)
    results.sort(key=lambda r: (-abs(r.lam), cmath.phase(r.lam)))
    return results[:count]


def eigenfunction(lam, level, nmax, ctx):
    """Coefficients a_n(lambda|q), n = 0..nmax with a_0 = 0, a_1 = 1, at a
    certified eigenvalue: the minimal solution of the section's rows
    lambda a_k = sR_k a_{k-1} + sQ_k a_k + sP_k a_{k+1} (``_oracle_rows``).

    Miller's algorithm in ratio form (Gautschi, SIAM Rev. 9, 1967): the
    ratios t_k = a_k / a_{k-1} = sR_k / (lambda - sQ_k - sP_k t_{k+1}) are
    ``_backward``'s on rows 2..nmax+40, from t = 0 past row nmax + 40 and
    with its guard on an exactly zero divisor, and a_k = a_{k-1} t_k runs
    forward from a_1.  A coefficient below the smallest normal float is an
    exact 0, and so is every one after it."""
    if lam == 0:
        raise DomainError("eigenfunction: lambda must be nonzero")
    rows = _oracle_rows(nmax + 40, level, ctx)
    t, _ = _backward(complex(lam), rows[1:nmax + 40])  # t_k at index k - 2
    coeffs = [0.0, 1.0]
    for k in range(2, nmax + 1):
        a = coeffs[k - 1] * t[k - 2]
        coeffs.append(a if abs(a) >= sys.float_info.min else 0.0)
    return CoeffVector(level, tuple(coeffs[:nmax + 1]))


# ---------------------------------------------------------------------------
# s_n polynomials, Markov ratio, q-Coulomb
# ---------------------------------------------------------------------------

def _require_conj_regime(level):
    # JacobiLevel has already checked that a complex alpha is conj(beta)
    if not isinstance(level.alpha, complex) or level.alpha.real <= -1.0:
        raise DomainError("s_n regime requires alpha = conj(beta), "
                          "Im alpha != 0, Re alpha > -1")


def s_poly(n, x, level, ctx):
    """s_n(x) = i^{-n} b_n(i x); real for real x in the conjugate-pair regime."""
    _require_conj_regime(level)
    if n < 0:
        raise DomainError("s_poly: n must be >= 0")
    return (1j) ** (-n) * bn_sequence(n, 1j * x, level, ctx)[n]


def markov_ratio(n, x, level, ctx):
    """Finite-n Markov ratio s*_n/s_n = s_{n-1}^{(a+1,b+1)}(x)/s_n^{(a,b)}(x)."""
    _require_conj_regime(level)
    if complex(x).imag == 0.0:
        raise DomainError("markov_ratio requires Im x != 0")
    den = s_poly(n, x, level, ctx)
    if abs(den) < 1e-280:
        raise DomainError(f"markov_ratio: s_{n} vanishes at x = {x}; "
                          "retry at a nearby x")
    return s_poly(n - 1, x, level.shifted(1), ctx) / den


def markov_stieltjes(x, level, ctx):
    """Large-n limit of the Markov ratio (the Stieltjes transform of the
    orthogonality measure): F^{(a+1,b+1)}(ix) / (x F^{(a,b)}(ix)).

    This is the printed closed form with its two misprints repaired (the
    missing 1/x and the /x in the second phi argument)."""
    _require_conj_regime(level)
    return f_eval(1j * x, level.shifted(1), ctx) / (x * f_eval(1j * x, level, ctx))


def q_coulomb(L, eta, rho, ctx):
    """q-analog of the regular Coulomb wave function; real for real rho.
    ``rho`` is a scalar, or a real ndarray, which gives an ndarray of the
    values the scalar calls give, bit for bit.

    The defining series in z = i q^{1/2} rho converges only for |z| < 1;
    the Heine-transformed representation, a 2phi1 in B = q^{L-i eta+1},
    is its analytic continuation, and the two agree on the overlap.  The
    direct series is summed for |z| < min(0.9, |B|) only: where
    |B| <= |z|, the continued series has the faster decaying terms.
    A, B and the two rho-free products of the Heine form are taken once
    per call."""
    q, tol = ctx.q, ctx.tol
    A = q ** (L + 1j * eta + 1)
    B = q ** (L - 1j * eta + 1)
    c = q ** (2 * L + 2)
    edge = min(0.9, abs(B))
    heine = None  # (B; q)_inf and (c; q)_inf, at the first rho that needs them
    grid = isinstance(rho, np.ndarray)
    out = []
    for r in rho.ravel().tolist() if grid else [rho]:
        z = 1j * math.sqrt(q) * r
        if abs(z) < edge:
            out.append(qpoch_inf(z, q, tol)
                       * phi([-A, B], [c], q, z, nterms=-1, tol=tol))
            continue
        if heine is None:
            heine = qpoch_inf(B, q, tol), qpoch_inf(c, q, tol)
        out.append(heine[0] * qpoch_inf(-A * z, q, tol) / heine[1]
                   * phi([A, z], [-A * z], q, B, nterms=-1, tol=tol))
    return np.array(out, dtype=complex).reshape(rho.shape) if grid else out[0]
