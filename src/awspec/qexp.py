"""The q-exponential E_q(x; a, b), its expansion in continuous q-Jacobi
polynomials, the J_m integrals, and the q-Hermite identity.

The closed forms of the J_m/a_m chain are shipped with a correction: the
published single-sum J_m(-i; r) (and with it the expansion coefficient
formula and the general-argument double series) is missing the factor
(b^2 q^{1/2}, -bc, -bc q^{1/2}; q)_m b^{-m}, which this module restores.
With it the coefficient formula collapses to

    a_m = q^{m^2/4} (ir)^m (b^2 c^2; q)_m / [(q; q)_m (b^2 c^2; q)_{2m}]
          * (i r q^{1/2}; q)_inf / (-i r; q)_inf
          * 2phi1(c q^{m/2+1/4}, -b q^{m/2+1/4}; bc q^{m+1/2} | q^{1/2}, ir),

    b = q^{(2 alpha + 1)/4},  c = q^{(2 beta + 1)/4},

the a and -c of the level's Askey-Wilson parameters (a, b, c, d), which
come from ``qpolys._aw_params``; the p_m are the level's own rows P_m
times a^{-m} (q, ac, ad; q)_m, so the norm of p_m is the level's norm
h_m (``qpolys.norm_h``) times (p_m/P_m)^2.  The leading ratio mirrors
the classical (alpha+beta+1)_n/(alpha+beta+1)_{2n} structure; every form
here is validated against quadrature of the defining integrals by the
verify suites ``qexp.expansion-coeffs`` and ``qexp.jm-integrals``.
"""
import cmath
import functools
import itertools
import math

import numpy as np

from .awop import make_rule, xi_factor
from .backend import MAX_TERMS, sum_series
from .exceptions import DomainError, NonConvergenceError
from .qcore import exp_itheta, phi, qpoch, qpoch_inf
from .qpolys import (_COEFF_TABLES, _aw_params, connection_down, cqjacobi_seq,
                     norm_h, on_nodes)
from .spectral import mu_from_lambda, x_nu

__all__ = [
    "eq_exp", "eq_eigenvalue_dq", "am_coeff", "jm_double_series",
    "jm_quadrature", "imn_quadrature", "expansion_residual", "hermite_series",
    "hermite_identity_residual", "e_series_invariant",
    "e_series_invariant_closed",
]

_QUAD_NODES = 200  # nodes of the quadrature rule of the defining integrals
_HERMITE_TERMS = 90  # term budget of hermite_series
_E_SERIES_TERMS = 60  # term budget and family size of e_series_invariant


def eq_exp(x, a, b, ctx):
    """E_q(x; a, b): series with the q^{n^2/4} term scale, summed by
    ``backend.sum_series`` within a term budget set by |ab|.

    Each term's 2n-factor product comes from the one two terms before it
    by four more factors, one running product per parity of n, so a term
    costs O(1).  The q^{n^2/4} decay exactly offsets the growth of that
    product, leaving term magnitudes ~ |ab|^n: the series converges on
    |ab| < 1 only, and arguments outside that disc are rejected.  Terms
    or a partial sum that overflow before the sum converges raise
    ``NonConvergenceError`` too."""
    q = ctx.q
    if abs(a * b) >= 1.0:
        raise NonConvergenceError(
            "eq_exp: series converges only for |a*b| < 1")
    if b == 0:
        return 1.0 + 0.0j
    return sum_series(_eq_exp_terms(exp_itheta(x), a, b, q), ctx.tol,
                      _term_budget(abs(a * b), ctx.tol), "eq_exp")


def _term_budget(ratio, tol):
    """Term budget of a series whose terms decay like ratio^n, ratio < 1:
    240 terms, or more for the slow cases near the boundary of the disc."""
    est = 240 if ratio < 0.6 else int(math.log(tol * 1e-2) / math.log(ratio)) + 60
    return min(MAX_TERMS, max(240, est))


def _eq_exp_terms(w, a, b, q):
    # term n is b^n/(q; q)_n times the product of (1 - a q^k w)(1 - a q^k/w)
    # over k = -(n-1)/2, ..., (n-1)/2 and the scale q^{n^2/4}.  Term n+2
    # adds k = -e and k = e, e = (n+1)/2, and q^{2e} to the scale; the
    # q^{2e} goes into the pair at -e as (q^e - a w)(q^e - a/w), so no
    # factor ever holds q^{-e}.  Each parity of n is one running product;
    # its magnitude moves like |a|^n, so a power-of-ten exponent is
    # carried outside its mantissa.
    qfac = 1.0
    ln10 = math.log(10.0)
    argb = cmath.phase(complex(b))
    lnb = math.log(abs(b))
    aw, a_w = a * w, a / w
    prs = [1.0 + 0.0j, (1.0 - aw) * (1.0 - a_w) * q ** 0.25]
    sls = [0, 0]
    for n in itertools.count():
        p = n & 1
        if n > 0:
            qfac *= 1.0 - q ** n
        if n > 1:
            qe = q ** ((n - 1) / 2.0)
            pr = prs[p] * ((qe - aw) * (qe - a_w) * (1.0 - aw * qe)
                           * (1.0 - a_w * qe))
            m = abs(pr)
            if m > 1e120 or 0.0 < m < 1e-120:  # an exact 0 stays 0
                ex = int(math.floor(math.log10(m)))
                pr *= 10.0 ** -ex
                sls[p] += ex
            prs[p] = pr
        yield prs[p] / qfac * cmath.exp(complex(sls[p] * ln10 + n * lnb,
                                                n * argb))


def eq_eigenvalue_dq(a, b, q):
    """Eigenvalue of D_q on E_q(.; a, b): D_q E_q = -2ab q^{1/4}/(1-q) E_q."""
    return -2.0 * a * b * q ** 0.25 / (1.0 - q)


@functools.lru_cache(maxsize=_COEFF_TABLES)
def _am_products(r, ctx):
    """(i r q^{1/2}; q)_inf / (-i r; q)_inf, the factor of every a_m that
    does not depend on m: memoised per (r, ctx)."""
    q = ctx.q
    return qpoch_inf(1j * r * math.sqrt(q), q, ctx.tol) \
        / qpoch_inf(-1j * r, q, ctx.tol)


def am_coeff(m, r, level, ctx):
    """Expansion coefficient a_m of E_q(x; -i, r) in the Askey-Wilson
    polynomials p_m(x; b, b sqrt(q), -c, -c sqrt(q)) (corrected closed form).
    Its m-free ratio of infinite products is read from a memo per
    (r, ctx)."""
    q = ctx.q
    params = _aw_params(level, q)
    b, c = params[0], -params[2]
    # (b^2c^2; q)_m / (b^2c^2; q)_{2m} = 1/(b^2c^2 q^m; q)_m, which stays
    # finite at b^2c^2 = q^{alpha+beta+1} = 1
    pre = (q ** (m * m / 4.0) * (1j * r) ** m
           / (qpoch(q, q, m) * qpoch(b * b * c * c * q ** m, q, m)))
    pre *= _am_products(r, ctx)
    return pre * phi([c * q ** (m / 2.0 + 0.25), -b * q ** (m / 2.0 + 0.25)],
                     [b * c * q ** (m + 0.5)], math.sqrt(q), 1j * r,
                     nterms=-1, tol=ctx.tol)


def jm_double_series(m, a, r, level, ctx):
    """J_m(a; r) for general a as the double series (n-sum of terminating
    4phi3 in base q^{1/2}), with the corrected m-prefactor, summed by
    ``backend.sum_series`` within a term budget set by |a r|.  The
    prefactor's total mass is the level's h_0 (``norm_h``).  The n-sum
    converges for |a r| < 1 only, and arguments outside that disc are
    rejected."""
    if abs(a * r) >= 1.0:
        raise NonConvergenceError(
            "jm_double_series: series converges only for |a*r| < 1")
    q = ctx.q
    params = _aw_params(level, q)
    b, c = params[0], -params[2]
    rt = math.sqrt(q)
    fcorr = (qpoch(b * b * rt, q, m) * qpoch(-b * c, q, m)
             * qpoch(-b * c * rt, q, m) / b ** m)
    pre = (norm_h(0, level, ctx)
           * qpoch(c * c * rt, q, m) * (-a * b * r) ** m * q ** (m * m / 4.0)
           / (qpoch(b * c * rt, q, m) * qpoch(b * c * q, q, m)))

    def terms():
        coef = 1.0 + 0.0j
        for n in itertools.count():
            if n > 0:
                coef *= ((1 + a * q ** (0.25 + (n - 1) / 2.0))
                         * (1 + q ** (0.25 + (n - 1) / 2.0) / a) * (a * r)
                         / ((1 - rt ** n) * (1 + rt ** n)))
            yield coef * phi([q ** (-n / 2.0), -q ** (-n / 2.0),
                              c * q ** ((m + 0.5) / 2.0), -b * q ** ((m + 0.5) / 2.0)],
                             [b * c * q ** (m + 0.5), -a * q ** ((-n + 0.5) / 2.0),
                              -q ** ((-n + 0.5) / 2.0) / a],
                             rt, rt, nterms=n, tol=ctx.tol)
    return fcorr * pre * sum_series(terms(), ctx.tol,
                                    _term_budget(abs(a * r), ctx.tol),
                                    "jm_double_series")


def _p_factors(mmax, level, q):
    """p_m/P_m = a^{-m} (q, ac, ad; q)_m for m = 0..mmax: the factors from
    the level's rows P_m to the expansion family p_m."""
    a, _, c, d = _aw_params(level, q)
    return [qpoch(q, q, m) * qpoch(a * c, q, m) * qpoch(a * d, q, m) * a ** (-m)
            for m in range(mmax + 1)]


def _aw_projections(mmax, values, level, rule, ctx):
    """sum_i w_i w(x_i) sin(theta_i) p_m(x_i) f(x_i) over the rule's nodes
    x_i = cos(theta_i), for m = 0..mmax <= rule.size // 2, given the values
    f(x_i): the unnormalized projections of f on the expansion family.
    The weight and the rows P_m are the level's ``on_nodes``; the weight
    is real on real levels and complex on conjugate-pair ones, where the
    orthogonality holds bilinearly against it."""
    if mmax > rule.size // 2:
        raise DomainError(f"projections up to degree {mmax} need a rule of at "
                          f"least {2 * mmax} nodes, got {rule.size}")
    w, rows = on_nodes(level, rule.nodes, ctx)
    return [np.sum(rule.weights * w * f * rows[m] * values)
            for m, f in enumerate(_p_factors(mmax, level, ctx.q))]


def jm_quadrature(m, a, r, level, ctx):
    """J_m(a; r) by quadrature of the defining weighted integral."""
    rule = make_rule(_QUAD_NODES)
    ev = np.array([eq_exp(x, a, r, ctx) for x in np.cos(rule.nodes)])
    return complex(_aw_projections(m, ev, level, rule, ctx)[m])


def imn_quadrature(m, n, a, level, ctx):
    """I_{m,n}(a, b, c) by quadrature; vanishes for n < m."""
    rule = make_rule(_QUAD_NODES)
    q = ctx.q
    xs = np.cos(rule.nodes)
    ws = xs + 1j * np.sqrt(1.0 - xs * xs)
    g = a * q ** ((1.0 - n) / 2.0)
    hr = np.ones(rule.size, dtype=complex)
    for _ in range(n):
        hr *= (1.0 - g * ws) * (1.0 - g / ws)
        g *= q
    return complex(_aw_projections(m, hr, level, rule, ctx)[m])


def expansion_residual(coeffs, x, r, level, ctx):
    """|E_q(x; -i, r) - sum_{m<=M} a_m p_m(x; b, b sqrt q, -c, -c sqrt q)| at
    a point or at every point of an ndarray ``x``, given the coefficient
    list ``coeffs`` = [a_0, ..., a_M] (``am_coeff``)."""
    if isinstance(x, np.ndarray):
        lhs = np.array([eq_exp(t, -1j, r, ctx) for t in x.tolist()])
    else:
        lhs = eq_exp(x, -1j, r, ctx)
    mmax = len(coeffs) - 1
    rows = cqjacobi_seq(mmax, level, x, ctx)
    rhs = sum(a * f * p for a, f, p in
              zip(coeffs, _p_factors(mmax, level, ctx.q), rows))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# q-Hermite identity and the level-invariant expansion
# ---------------------------------------------------------------------------

def hermite_series(z, x, ctx):
    """sum_n q^{n^2/4} (-z)^{-n} / (q; q)_n H_n(x|q), summed by
    ``backend.sum_series`` within the term budget ``_HERMITE_TERMS``.  The
    q-Hermite polynomials H_n(x|q) run beside the terms, by their recurrence
    H_{n+1} = 2x H_n - (1-q^n) H_{n-1}, H_0 = 1, H_1 = 2x."""
    q = ctx.q

    def terms():
        qfac = 1.0
        h0, h1 = 1.0 + 0.0j, 2.0 * x + 0.0j  # H_n, H_{n+1}
        for n in itertools.count():
            if n > 0:
                qfac *= 1.0 - q ** n
            yield q ** (n * n / 4.0) * (-z) ** float(-n) / qfac * h0
            h0, h1 = h1, 2 * x * h1 - (1 - q ** (n + 1)) * h0
    return sum_series(terms(), ctx.tol, _HERMITE_TERMS, "hermite_series")


def hermite_identity_residual(lam, x, ctx):
    """|hermite_series(lam) - (lam^{-2}; q^2)_inf E_q(x; -i, i/lam)|."""
    q = ctx.q
    lhs = hermite_series(lam, x, ctx)
    rhs = qpoch_inf(lam ** -2.0, q * q, ctx.tol) * eq_exp(x, -1j, 1j / lam, ctx)
    return abs(lhs - rhs)


def e_series_invariant(x, lam, level, ctx):
    """The level-independent combined value of the generic eigen-expansion:
    the series sum_n kappa_n (-1)^{n-1} X_{n-1}(mu) P_n(x|q) with
    kappa_n = u^{n-1} prod_{j<n} c_{jj}/xi_{j+1} and mu = lambda u.

    Identical at every level (alpha + k, beta + k); equals the closed form
    of e_series_invariant_closed.  Summed by ``backend.sum_series`` within
    the term budget ``_E_SERIES_TERMS``."""
    q = ctx.q
    u = mu_from_lambda(1.0, q)
    mu = lam * u
    fam = cqjacobi_seq(_E_SERIES_TERMS, level, x, ctx)

    def terms():
        prod = 1.0 / u
        sign = -1.0
        for n, pn in enumerate(fam):
            if n > 0:
                prod *= u * connection_down(n - 1, level, ctx).c_nn \
                    / xi_factor(n, level, q)
                sign = -sign
            yield prod * sign * x_nu(n - 1, mu, level, ctx) * pn
    return sum_series(terms(), ctx.tol, _E_SERIES_TERMS, "e_series_invariant")


def e_series_invariant_closed(x, lam, ctx):
    """Closed form of the invariant: lambda (q^{1/2}/mu^2; q^2)_inf
    E_q(x; -i, -i q^{1/4}/mu) = lambda * hermite_series(-mu q^{-1/4}),
    mu = 2 lambda q^{1/2}/(1-q)."""
    q = ctx.q
    mu = mu_from_lambda(lam, q)
    return lam * qpoch_inf(math.sqrt(q) / (mu * mu), q * q, ctx.tol) \
        * eq_exp(x, -1j, -1j * q ** 0.25 / mu, ctx)
