"""Reference oracles that the tests compare the library against.

Each one evaluates a quantity of the library by a second, literal route
(a defining series, a product form, a forward sum), or gives the classical
normalization and its q -> 1 limit, which the library itself never uses.
They are too slow, too ill-conditioned or too narrow in domain to serve
as the library's own route.
"""
import cmath
import itertools
import json
import math
from types import SimpleNamespace

import mpmath

from awspec.awop import t_factor
from awspec.backend import MAX_TERMS, phi_terms, sum_series
from awspec.exceptions import DomainError
from awspec.qcore import exp_itheta, phi, qpoch, qpoch_inf
from awspec.qpolys import norm_h
from awspec.spectral import (bn_B, bn_C, bn_sequence, matrix_oracle,
                             mu_from_lambda, recurrence_a_coeffs)

# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _aw_prefactor(n, params, q):
    """a^{-n} (ab, ac, ad; q)_n, the factor from phi_n of ``aw_phi_seq``
    to the Askey-Wilson p_n."""
    a, b, c, d = params
    return (qpoch(a * b, q, n) * qpoch(a * c, q, n) * qpoch(a * d, q, n)
            * a ** (-n))


def _aw_poly_4phi3(n, params, x, ctx):
    """Askey-Wilson p_n(x; a, b, c, d | q) by its defining terminating
    4phi3 (n+1 terms), the reference of the recurrence
    ``_aw_prefactor * aw_phi_seq``: the series sheds q^{-n(n-1)/2} digits
    to cancellation.  Needs a nonzero first parameter."""
    q = ctx.q
    a, b, c, d = params
    w = exp_itheta(x)
    val = phi([q ** (-n), a * b * c * d * q ** (n - 1), a * w, a / w],
              [a * b, a * c, a * d], q, q, nterms=n, tol=ctx.tol)
    return _aw_prefactor(n, (a, b, c, d), q) * val


def kappa_aw(params, ctx):
    """The Askey-Wilson integral kappa(a,b,c,d|q) = 2 pi (abcd)_inf /
    (q, ab, ac, ad, bc, bd, cd)_inf at ``params`` = (a, b, c, d): the
    reference of the level's h_0 (``norm_h(0)``)."""
    a, b, c, d = params
    q, tol = ctx.q, ctx.tol
    return (2 * math.pi * qpoch_inf(a * b * c * d, q, tol)
            / (qpoch_inf(q, q, tol) * qpoch_inf(a * b, q, tol)
               * qpoch_inf(a * c, q, tol) * qpoch_inf(a * d, q, tol)
               * qpoch_inf(b * c, q, tol) * qpoch_inf(b * d, q, tol)
               * qpoch_inf(c * d, q, tol)))


def aw_norm(n, params, ctx):
    """The Askey-Wilson orthogonality norm of p_n at ``params`` =
    (a, b, c, d), with its factor (1 - abcd/q) cancelled: kappa (q, ab,
    ac, ad, bc, bd, cd; q)_n (abcd q^{n-1}; q)_n / (abcd; q)_{2n}.  The
    reference of the library's h_n (p_n/P_n)^2."""
    a, b, c, d = params
    q = ctx.q
    abcd = a * b * c * d
    return (kappa_aw(params, ctx)
            * qpoch(q, q, n) * qpoch(a * b, q, n) * qpoch(a * c, q, n)
            * qpoch(a * d, q, n) * qpoch(b * c, q, n) * qpoch(b * d, q, n)
            * qpoch(c * d, q, n) * qpoch(abcd * q ** (n - 1), q, n)
            / qpoch(abcd, q, 2 * n))


def _hermite_h_theta(n, x, q):
    """H_n(x|q) as the q-binomial sum over e^{i(n-2k)theta}, the reference
    of the H_n that ``qexp.hermite_series`` runs by their recurrence."""
    w = exp_itheta(x)
    qn = qpoch(q, q, n)
    return sum(qn / (qpoch(q, q, k) * qpoch(q, q, n - k)) * w ** (n - 2 * k)
               for k in range(n + 1))


def hermite_series_terms(z, x, q, hermite):
    """The terms of ``qexp.hermite_series``, in its arithmetic, with each
    H_n(x|q) taken from ``hermite(n, x, q)``."""
    qfac = 1.0
    for n in itertools.count():
        if n > 0:
            qfac *= 1.0 - q ** n
        yield q ** (n * n / 4.0) * (-z) ** float(-n) / qfac * hermite(n, x, q)


def awpoly_to_cqj_factor(n, level, q):
    """p_n(x; AW params) = factor * P_n^{(a,b)}(x|q)."""
    al, be = level.alpha, level.beta
    return (qpoch(-q ** ((al + be + 1) / 2), q, n)
            * qpoch(-q ** ((al + be + 2) / 2), q, n)
            * qpoch(q, q, n) * q ** (-n * (2 * al + 1) / 4))


def cqjacobi_classical(n, level, x, ctx):
    """Classically normalized continuous q-Jacobi polynomial P_n(x; q): the
    literal terminating 4phi3 with base q."""
    q = ctx.q
    if n < 0:
        return 0.0 + 0.0j
    al, be = level.alpha, level.beta
    w = exp_itheta(x)
    pre = (qpoch(q ** (al + 1), q, n) * qpoch(-q ** (be + 1), q, n)
           / (qpoch(q, q, n) * qpoch(-q, q, n)))
    return pre * phi(
        [q ** (-n), q ** (n + al + be + 1), math.sqrt(q) * w, math.sqrt(q) / w],
        [q ** (al + 1), -q ** (be + 1), -q], q, q, nterms=n, tol=ctx.tol)


def classical_to_aw_factor(n, level, q):
    """P_n(x; q) = factor * P_n(x | q^2)."""
    al, be = level.alpha, level.beta
    return qpoch(-q ** (al + be + 1), q, n) / qpoch(-q, q, n) * q ** (-al * n)


def line_factors_mp(level, q, dps):
    """The level coefficients that hold a removable 0/0 on the line
    alpha + beta = -1, each by its uncancelled formula in ``dps``-digit
    arithmetic at the stored float level and q: R of the a_k recurrence at
    k = 1, c_{0,0} of ``connection_down``, A_0 of the Askey-Wilson
    recurrence at the level's parameters, and the Askey-Wilson norm of p_n
    over kappa, h_n (p_n/P_n)^2 / h_0, for n = 0..3.  Off the line only;
    there each 0/0 is 0/0 in any precision."""
    with mpmath.workdps(dps):
        q = mpmath.mpf(q)
        al, be = mpmath.mpf(level.alpha), mpmath.mpf(level.beta)
        s = al + be
        R1 = -((1 - q) * (1 - q ** (s + 1))
               / (2 * (1 - q ** (s / 2 + 1)) * (1 - q ** ((s + 1) / 2))))
        c00 = ((1 - q ** (s + 1)) * (1 - q ** (s + 2))
               / ((1 + q ** ((s + 1) / 2)) * (1 + q ** ((s + 2) / 2))
                  * (1 - q ** ((s + 1) / 2)) * (1 - q ** ((s + 2) / 2))))
        a, b = q ** ((2 * al + 1) / 4), q ** ((2 * al + 3) / 4)
        c, d = -q ** ((2 * be + 1) / 4), -q ** ((2 * be + 3) / 4)
        abcd = a * b * c * d
        A0 = ((1 - a * b) * (1 - a * c) * (1 - a * d) * (1 - abcd / q)
              / (a * (1 - abcd / q) * (1 - abcd)))

        def qp(x, n):
            return mpmath.qp(x, q, n)

        norms = [(1 - abcd / q) * qp(q, n) * qp(a * b, n) * qp(a * c, n)
                 * qp(a * d, n) * qp(b * c, n) * qp(b * d, n) * qp(c * d, n)
                 / ((1 - abcd * q ** (2 * n - 1)) * qp(abcd / q, n))
                 for n in range(4)]
        return float(R1), float(c00), float(A0), [float(h) for h in norms]


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------


def _interior_point(x):
    """(x, sqrt(1-x^2)) for a real x in (-1, 1)."""
    xr = float(x)
    if not -1.0 < xr < 1.0:
        raise DomainError("the weight needs x in (-1, 1)")
    return xr, math.sqrt(1.0 - xr * xr)


def _weight_w_literal(level, x, ctx):
    """The weight w(x) (complex) by its explicit product form with base
    p = sqrt(q), the product form written at base q^2 with q -> sqrt(q)
    substituted: the reference of ``weight_theta`` = w(x) sin(theta)."""
    xr, s = _interior_point(x)
    q = ctx.q
    al, be = level.alpha, level.beta
    p = math.sqrt(q)
    w = exp_itheta(xr)
    num = qpoch_inf(w * w, q, ctx.tol) * qpoch_inf(1.0 / (w * w), q, ctx.tol)
    den = (qpoch_inf(p ** (al + 0.5) * w, p, ctx.tol)
           * qpoch_inf(p ** (al + 0.5) / w, p, ctx.tol)
           * qpoch_inf(-p ** (be + 0.5) * w, p, ctx.tol)
           * qpoch_inf(-p ** (be + 0.5) / w, p, ctx.tol))
    return num / (den * s)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def _kernel_factors(ks, level, ctx):
    """Coefficients t_factor(k) / h_k^{(a+1,b+1)} of P_{k+1}(x)
    P_k^{(a+1,b+1)}(y) in the kernel for k in ``ks``, past any N: the
    reference of the factors of ``kernel_truncation``, which stop at its N.
    A norm that has underflowed to 0 is a ``DomainError``."""
    lvl1 = level.shifted(1)
    kf = []
    for k in ks:
        h = norm_h(k, lvl1, ctx)
        if h == 0:
            raise DomainError(f"kernel: the norm h_{k} of the shifted level "
                              f"underflows to 0 at q = {ctx.q}")
        kf.append(t_factor(k, level, ctx.q) / h)
    return kf


# ---------------------------------------------------------------------------
# q-exponential
# ---------------------------------------------------------------------------


def _eq_exp_terms_direct(w, a, b, q):
    """The terms of E_q(x; a, b), w = e^{i theta}, each with its 2n-factor
    product formed anew: the reference of ``qexp._eq_exp_terms``, which
    steps one running product per parity of n.  O(n) work per term, and
    the factor a q^{(1-n)/2} overflows once n passes ~2 log(1e308)/log(1/q)."""
    qfac = 1.0
    ln10 = math.log(10.0)
    argb = cmath.phase(complex(b))
    lnb = math.log(abs(b))
    for n in itertools.count():
        if n > 0:
            qfac *= 1.0 - q ** n
        # the 2n-factor product spans ~q^{-3n^2/16} of dynamic range even
        # with the q^{n^2/4} scale folded in per step, so a running
        # power-of-ten exponent is carried outside the mantissa
        pr = 1.0 + 0.0j
        sl = 0
        g = a * q ** ((1.0 - n) / 2.0)
        for j in range(n):
            pr *= (1.0 - g * w) * (1.0 - g / w) * q ** ((2 * j + 1) / 4.0)
            g *= q
            m = abs(pr)
            if m == 0.0:  # a vanishing factor: the whole term is 0
                break
            if m > 1e120 or m < 1e-120:
                ex = int(math.floor(math.log10(m)))
                pr *= 10.0 ** -ex
                sl += ex
        yield pr / qfac * cmath.exp(complex(sl * ln10 + n * lnb, n * argb))


def eq_exp_mp(x, a, b, q, dps):
    """E_q(x; a, b) in ``dps``-digit arithmetic, each term by its direct
    2n-factor product, summed until four terms in a row fall below
    10^{-dps/2} of the sum: O(n^2) work, for series of a few hundred
    terms."""
    with mpmath.workdps(dps):
        q, a, b = mpmath.mpf(q), mpmath.mpc(a), mpmath.mpc(b)
        w = mpmath.mpc(exp_itheta(x))
        total, qfac, small = mpmath.mpc(0), mpmath.mpf(1), 0
        for n in itertools.count():
            if n > 0:
                qfac *= 1 - q ** n
            pr = mpmath.mpf(1)
            g = a * q ** (mpmath.mpf(1 - n) / 2)
            for _ in range(n):
                pr *= (1 - g * w) * (1 - g / w)
                g *= q
            term = pr * q ** (mpmath.mpf(n * n) / 4) * b ** n / qfac
            total += term
            small = small + 1 if abs(term) < 10 ** (-dps / 2) * abs(total) else 0
            if small > 3:
                return complex(total)


def eq_exp_hermite_mp(x, b, q, dps):
    """E_q(x; -i, b) in ``dps``-digit arithmetic through the q-Hermite
    identity: sum_n q^{n^2/4} (-lam)^{-n} / (q; q)_n H_n(x|q) divided by
    (lam^{-2}; q^2)_inf, lam = i/b.  Its terms fall like q^{n^2/4}, so it
    reaches the slow series near |b| = 1 in a few dozen terms."""
    with mpmath.workdps(dps):
        q, x = mpmath.mpf(q), mpmath.mpf(x)
        lam = 1j / mpmath.mpc(b)
        h0, h1 = mpmath.mpf(0), mpmath.mpf(1)  # H_{-1}, H_0
        total, qfac = mpmath.mpc(0), mpmath.mpf(1)
        for n in itertools.count():
            if n > 0:
                qfac *= 1 - q ** n
                h0, h1 = h1, 2 * x * h1 - (1 - q ** (n - 1)) * h0
            term = q ** (mpmath.mpf(n * n) / 4) * (-lam) ** -n / qfac * h1
            total += term
            if n > 10 and abs(term) < 10 ** -dps * abs(total):
                return complex(total / mpmath.qp(lam ** -2, q * q))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def classical_a_coeffs(k, alpha, beta):
    """q -> 1 limit of the a_k recurrence: coefficients of a_{k+1}, a_k, a_{k-1}
    in -lambda a_k = ..., the reference of ``recurrence_a_coeffs``."""
    P = (2 * (alpha + 1 + k) * (beta + 1 + k)
         / ((alpha + beta + 1 + k) * (alpha + beta + 2 + 2 * k)
            * (alpha + beta + 3 + 2 * k)))
    Q = 2 * (beta - alpha) / ((alpha + beta + 2 * k) * (alpha + beta + 2 + 2 * k))
    R = -2 * (alpha + beta + k) / ((alpha + beta + 2 * k - 1) * (alpha + beta + 2 * k))
    return P, Q, R


def _bn_explicit_nested(n, mu, level, ctx):
    """Literal outer-sum/inner-4phi3 form of the closed formula: the
    reference of ``bn_explicit`` at small degree, where its inner series
    does not yet cancel catastrophically."""
    q = ctx.q
    p = math.sqrt(q)
    al, be = level.alpha, level.beta
    total = 0.0 + 0.0j
    coeff = 1.0 + 0.0j
    for j in range(n + 1):
        inner = phi([p ** (-j), p ** (2 * n + al + be + 3 - j), p ** (be + 1),
                     -p ** (al + 1)],
                    [p ** (al + be + 2), p ** (n + be + 2 - j), -p ** (al + n + 2 - j)],
                    p, p, nterms=j, tol=ctx.tol)
        total += coeff * (-1.0) ** j * p ** (j / 2) * mu ** (n - j) * inner
        coeff *= ((1 - p ** (-be - n - 1 + j)) * (1 + p ** (-al - n - 1 + j))
                  / ((1 - p ** (j + 1)) * (1 - p ** (-2 * n - al - be - 2 + j))))
    return total


def _an_from_bn(k, lam, level, ctx):
    """a_{k+1}(lambda|q) = f_k (-1)^k b_k(mu) q^{-(k^2/4 + (a + b/2 + 1) k)}
    from the forward-summed monic polynomial, f_k in qpoch form; a_0 = 0,
    a_1 = 1.  The reference of the monic transform of the rows, off an
    eigenvalue: at one the forward sum runs in the wrong direction, so
    ``eigenfunction`` is checked against ``an_minimal_mp``."""
    if k < 0:
        return 0.0 + 0.0j
    q = ctx.q
    al, be = level.alpha, level.beta
    f = (qpoch(q ** (al + be + 2), q, k) * qpoch(q ** ((al + be + 4) / 2), q, k)
         * qpoch(q ** ((al + be + 5) / 2), q, k)
         / (qpoch(q ** (al + 2), q, k) * qpoch(q ** (be + 2), q, k)))
    b = bn_sequence(k, mu_from_lambda(lam, q), level, ctx)[k]
    return f * (-1.0) ** k * b * q ** -(k * k / 4 + (al + be / 2 + 1) * k)


def _mp_level(level):
    """The level's alpha and beta in mpmath at the working precision."""
    lift = lambda v: mpmath.mpc(v) if isinstance(v, complex) else mpmath.mpf(v)
    return SimpleNamespace(alpha=lift(level.alpha), beta=lift(level.beta))


def an_minimal_mp(lam, level, q, nmax, dps):
    """a_0..a_nmax, a_0 = 0 and a_1 = 1, of the minimal solution of the
    section's rows lambda a_k = sR_k a_{k-1} + sQ_k a_k + sP_k a_{k+1},
    s = -q^{-(a/2+1/4)}, by Miller's backward recurrence on a_k itself,
    started at row nmax + 80 with the rows in mpmath at ``dps`` digits: the
    reference of ``eigenfunction``, as complex floats (0 where they
    underflow)."""
    start = nmax + 80
    with mpmath.workdps(dps):
        mlevel = _mp_level(level)
        mctx = SimpleNamespace(q=mpmath.mpf(q))
        s = -mctx.q ** -(mlevel.alpha / 2 + mpmath.mpf(0.25))
        lam = mpmath.mpc(lam)
        a = [mpmath.mpc(0)] * (start + 2)
        a[start] = mpmath.mpc(1)
        for k in range(start, 1, -1):
            P, Q, R = recurrence_a_coeffs(k, mlevel, mctx)
            a[k - 1] = ((lam - s * Q) * a[k] - s * P * a[k + 1]) / (s * R)
        return [complex(v / a[1]) for v in a[:nmax + 1]]


def bn_minimal_mp(xi, level, q, nmax, dps):
    """w_0..w_nmax, w_n = b_n(xi) (-xi)^n q^{-n(n+a+b+3)/2} normalised to
    w_0 = 1, of the minimal solution of the monic recurrence
    b_{k+1} = (xi + B_k) b_k + C_k b_{k-1}, by Miller's backward recurrence
    on b_k itself, started at nmax + 80 with B_k and C_k in mpmath at
    ``dps`` digits: the reference of ``bn_minimal_scaled``, as complex
    floats."""
    start = nmax + 80
    with mpmath.workdps(dps):
        mlevel = _mp_level(level)
        mq = mpmath.mpf(q)
        xi = mpmath.mpc(xi)
        b = [mpmath.mpc(0)] * (start + 2)
        b[start] = mpmath.mpc(1)
        for k in range(start, 0, -1):
            b[k - 1] = ((b[k + 1] - (xi + bn_B(k, mlevel, mq)) * b[k])
                        / bn_C(k, mlevel, mq))
        ab3 = mlevel.alpha + mlevel.beta + 3
        return [complex(b[n] / b[0] * (-xi) ** n * mq ** (-n * (n + ab3) / 2))
                for n in range(nmax + 1)]


# ---------------------------------------------------------------------------
# F by its 2phi1, and the roots of F by Newton on F itself
# ---------------------------------------------------------------------------


def _f_params(x, level, ctx):
    """p = sqrt(q), the parameters of F's 2phi1 and the two products in
    front of it that do not depend on x, in
    F(x) = (p^{b+1}; p)_inf / (p^{a+b+2}; p)_inf * (w; p)_inf
           * 2phi1(p^{a+1}, v; w; p, p^{b+1}),
    w = -p^{a+3/2}/x and v = p^{1/2}/x, as (p, w, v, p^{a+1}, p^{b+1},
    (p^{b+1}; p)_inf, (p^{a+b+2}; p)_inf)."""
    if x == 0:
        raise DomainError("F: x must be nonzero")
    p = math.sqrt(ctx.q)
    al, be = level.alpha, level.beta
    return (p, -p ** (al + 1.5) / x, p ** 0.5 / x, p ** (al + 1), p ** (be + 1),
            qpoch_inf(p ** (be + 1), p, ctx.tol),
            qpoch_inf(p ** (al + be + 2), p, ctx.tol))


def _f_2phi1(x, level, ctx):
    """F(x) by the 2phi1 with the product (w; p)_inf in front (``_f_params``):
    the reference of ``f_eval``, the entire series.  It has a pole wherever
    w p^k = 1, where the product in front vanishes and F does not."""
    p, w, v, a1, z, num, den = _f_params(x, level, ctx)
    return (num * qpoch_inf(w, p, ctx.tol) / den
            * phi([a1, v], [w], p, z, nterms=-1, tol=ctx.tol))


def _eigenvalue_equation(x, level, ctx):
    """The literal left side E(x) of the paper's transcendental eigenvalue
    equation, with p = sqrt(q) and z = (1-q) x/2:
    (-p^{a+3/2} z; p)_inf 2phi1(p^{a+1}, z p^{1/2}; -p^{a+3/2} z; p, p^{b+1}).
    At x = 2/((1-q) mu), E(x)/E(0) = F(mu): E(0) = (p^{a+b+2}; p)_inf /
    (p^{b+1}; p)_inf is 1/F(infinity)."""
    q = ctx.q
    p = math.sqrt(q)
    al, be = level.alpha, level.beta
    z = (1.0 - q) * x / 2.0
    return (qpoch_inf(-p ** (al + 1.5) * z, p, ctx.tol)
            * phi([p ** (al + 1), z * p ** 0.5], [-p ** (al + 1.5) * z],
                  p, p ** (be + 1), nterms=-1, tol=ctx.tol))


def _f_and_slope(x, level, ctx):
    """(F(x), dF/dx), the value the same float as ``_f_2phi1``'s, from one
    pass over F's 2phi1 and one over the log-derivative of its product.

    F's parameters w and v are constants times 1/x, so with
    g(u) = u/(1 - u) the product has x (w; p)_inf' = (w; p)_inf
    sum_j g(w p^j), and the 2phi1 term t_k has x t_k' = t_k L_k,
    L_k = sum_{j<k} g(v p^j) - g(w p^j).  sum_k t_k L_k accumulates beside
    the terms t_k that ``sum_series`` sums, under their stopping rule."""
    p, w, v, a1, z, num, den = _f_params(x, level, ctx)
    slope = 0.0  # sum_k t_k L_k over the terms summed so far

    def terms():
        nonlocal slope
        lk, pk = 0.0, 1.0
        for k, t in enumerate(phi_terms([a1, v], [w], p, z, 0)):
            if k:  # phi_terms has passed its pole test on w p^{k-1}
                vk, wk = v * pk, w * pk
                lk += vk / (1.0 - vk) - wk / (1.0 - wk)
                pk *= p
            slope += t * lk
            yield t

    def log_terms():  # g(w p^j), j = 0, 1, ...
        wj = w
        while True:
            yield wj / (1.0 - wj)
            wj *= p

    series = sum_series(terms(), ctx.tol, MAX_TERMS, "phi_sum")
    dlog_prod = sum_series(log_terms(), ctx.tol, MAX_TERMS, "f_slope")
    pref = num * qpoch_inf(w, p, ctx.tol) / den
    return pref * series, pref * (dlog_prod * series + slope) / x


def _newton_f(mu0, level, ctx):
    mu = complex(mu0)
    for _ in range(80):
        f0, d = _f_and_slope(mu, level, ctx)
        if d == 0:
            return mu, False
        step = f0 / d
        mu -= step
        if abs(step) < 1e-14 * max(1.0, abs(mu)):
            return mu, True
    return mu, abs(_f_2phi1(mu, level, ctx)) < 1e-9


def lambda_from_mu(mu, q):
    """The inverse of ``spectral.mu_from_lambda``."""
    return (1.0 - q) * mu / (2.0 * math.sqrt(q))


def f_root_lambdas(level, ctx, count, nmat):
    """The first ``count`` eigenvalues as Newton on F finds them from the
    seeds of the ``nmat``-row section, sorted like ``eigenvalues`` (|lambda|
    descending, then arg lambda), one seed per conjugate pair on a real
    level with its partner restored: the reference of ``eigenvalues``,
    which solves on the section's rows."""
    lams = []
    for ev in matrix_oracle(nmat, level, ctx):
        if len(lams) > count:
            break
        if abs(ev) <= 1e-13 or (level.is_real and ev.imag < -1e-15):
            continue
        mu, _ = _newton_f(mu_from_lambda(ev, ctx.q), level, ctx)
        lam = lambda_from_mu(mu, ctx.q)
        lams.append(lam)
        if level.is_real and abs(lam.imag) > 1e-13 * abs(lam):
            lams.append(lam.conjugate())
    lams.sort(key=lambda z: (-abs(z), cmath.phase(z)))
    return lams[:count]


def _x_nu_series(nu, x, level, ctx):
    """X_nu(x) by the alternate form with argument p^{1/2}/x, convergent
    only for |x| > p^{1/2}: the reference of ``x_nu``."""
    p = math.sqrt(ctx.q)
    if x == 0 or abs(p ** 0.5 / x) >= 1.0:
        raise DomainError("x_nu series form needs |x| > p^{1/2}")
    al, be = level.alpha, level.beta
    return ((-x) ** (-nu) * qpoch_inf(p ** 0.5 / x, p, ctx.tol)
            * phi([-p ** (al + 2 + nu), p ** (be + 2 + nu)],
                  [p ** (al + be + 2 * nu + 4)], p, p ** 0.5 / x,
                  nterms=-1, tol=ctx.tol))


def q_coulomb_literal(L, eta, rho, ctx):
    """``q_coulomb`` at one rho with every product taken afresh, in the
    same order of operations: the bit-for-bit reference of its grid."""
    q = ctx.q
    z = 1j * math.sqrt(q) * rho
    A = q ** (L + 1j * eta + 1)
    B = q ** (L - 1j * eta + 1)
    if abs(z) < min(0.9, abs(B)):
        return (qpoch_inf(z, q, ctx.tol)
                * phi([-A, B], [q ** (2 * L + 2)], q, z, nterms=-1,
                      tol=ctx.tol))
    return (qpoch_inf(B, q, ctx.tol) * qpoch_inf(-A * z, q, ctx.tol)
            / qpoch_inf(q ** (2 * L + 2), q, ctx.tol)
            * phi([A, z], [-A * z], q, B, nterms=-1, tol=ctx.tol))


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------


def json_document(config, diagnostics, header, rows):
    """The CLI's JSON document by ``json.dumps``: the reference of
    ``cli.json_text``."""
    results = [dict(zip(header, r)) for r in rows]
    return json.dumps({"config": config, "results": results,
                       "diagnostics": diagnostics},
                      indent=2, sort_keys=True) + "\n"
