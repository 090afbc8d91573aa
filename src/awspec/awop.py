"""The Askey-Wilson divided-difference operator, its ladder action on
continuous q-Jacobi coefficients, the kernel K, and the right-inverse
integral operator T (coefficient-space and quadrature forms).

Quadrature convention: every integral over [-1, 1] is pulled back with
x = cos(theta), which cancels the (1-x^2)^{-1/2} weight singularity into a
smooth integrand on [0, pi]; a Gauss-Legendre rule in theta then converges
spectrally.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .backend import MAX_TERMS
from .exceptions import DomainError, NonConvergenceError
from .qcore import exp_itheta
from .qpolys import _COEFF_TABLES, JacobiLevel, cqjacobi_seq, norm_h, on_nodes

__all__ = [
    "CoeffVector", "QuadratureRule", "make_rule", "weight_theta_grid",
    "dq_pointwise", "xi_factor", "t_factor", "dq_coeffs", "t_coeffs",
    "kernel_truncation", "kernel_eval", "t_quadrature", "eval_coeffvector",
    "operator_residual",
]


@dataclass(frozen=True)
class CoeffVector:
    """Finite expansion coefficients in the q-Jacobi family at one level.

    Index n is the polynomial degree; trailing zeros are allowed and never
    read past ``length``.
    """
    level: JacobiLevel
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(v) for v in self.coeffs))

    @property
    def length(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (0, pi) in the theta variable."""
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self):
        return len(self.nodes)


def make_rule(n):
    t, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule((t + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0))


def weight_theta_grid(level, rule, ctx):
    """w(cos theta) sin(theta) on the rule's nodes (smooth in theta), read
    only and memoised per (level, ctx).

    Real levels give a real grid; conjugate-pair levels keep the genuinely
    complex weight (the parameter multiset is not conjugation-stable), and
    the orthogonality relation holds bilinearly against it."""
    return on_nodes(level, rule.nodes, ctx)[0]


def eval_coeffvector(f, x, ctx):
    """Pointwise value of sum_n f_n P_n^{(level)}(x|q)."""
    if f.length == 0:
        return 0.0 + 0.0j
    polys = cqjacobi_seq(f.length - 1, f.level, x, ctx)
    return sum(c * p for c, p in zip(f.coeffs, polys))


# ---------------------------------------------------------------------------
# divided-difference operator
# ---------------------------------------------------------------------------

def dq_pointwise(f, x, ctx):
    """(D_q f)(x) for x in (-1, 1).

    ``f`` must accept the complex shifted arguments
    (q^{1/2} e^{i theta} + q^{-1/2} e^{-i theta})/2 and its mirror; for a
    polynomial (or any symmetric-Laurent-evaluable function of x) this is
    ordinary evaluation at complex points.  x = +-1 is out of domain
    (sin(theta) = 0); no removable-singularity handling is attempted.
    """
    q = ctx.q
    xr = complex(x)
    if xr.imag == 0.0 and abs(abs(xr.real) - 1.0) < 1e-14:
        raise DomainError("dq_pointwise: sin(theta) vanishes at x = +-1")
    w = exp_itheta(x)
    rq = math.sqrt(q)
    xp = (rq * w + 1.0 / (rq * w)) / 2.0
    xm = (w / rq + rq / w) / 2.0
    sinth = (w - 1.0 / w) / 2.0j
    return (f(xp) - f(xm)) / (1.0j * (rq - 1.0 / rq) * sinth)


def xi_factor(n, level, q):
    """Ladder factor: D_q P_n^{(a,b)}(.|q) = xi_n P_{n-1}^{(a+1,b+1)}(.|q)."""
    al, be = level.alpha, level.beta
    return (2 * q ** (-n + (2 * al + 5) / 4) * (1 - q ** (al + be + n + 1))
            / ((1 + q ** ((al + be + 1) / 2)) * (1 + q ** ((al + be + 2) / 2))
               * (1 - q)))


def t_factor(n, level, q):
    """Coefficient factor of T: degree n at level (a+1, b+1) maps to degree
    n+1 at level (a, b); exact reciprocal of xi_{n+1}(level)."""
    return 1.0 / xi_factor(n + 1, level, q)


def dq_coeffs(f, ctx):
    """Coefficient-space D_q: CoeffVector at (a,b) -> CoeffVector at (a+1,b+1),
    output coefficient n-1 = xi_n * (input coefficient n)."""
    lvl = f.level
    out = [xi_factor(n, lvl, ctx.q) * f.coeffs[n] for n in range(1, f.length)]
    return CoeffVector(lvl.shifted(1), tuple(out))


def t_coeffs(g, ctx):
    """Coefficient-space T: CoeffVector at (a+1,b+1) -> CoeffVector at (a,b),
    output coefficient n+1 = t_factor(n) * g_n; output coefficient 0 is 0."""
    lvl = g.level.shifted(-1)
    out = [0.0 + 0.0j]
    out += [t_factor(n, lvl, ctx.q) * g.coeffs[n] for n in range(g.length)]
    return CoeffVector(lvl, tuple(out))


# ---------------------------------------------------------------------------
# kernel and integral operator
# ---------------------------------------------------------------------------

def _kernel_sum(x, c, level, ctx):
    """sum_n kf_n P_{n+1}(x) c_n over the leading axis of ``c``, with the
    factors kf_n of ``kernel_truncation``; ``x`` and the trailing axes of
    ``c`` broadcast against each other."""
    c = np.asarray(c)
    px = np.array(cqjacobi_seq(len(c), level, x, ctx)[1:])
    terms = np.moveaxis(px, 0, -1) * np.moveaxis(c, 0, -1)
    return terms @ kernel_truncation(level, ctx).factors[:len(c)]


@dataclass(frozen=True)
class KernelSeries:
    """The kernel series truncated at ``nterms`` = N terms, with the tail
    bound it met and, for k <= N, the read-only arrays ``factors``
    t_factor(k)/h_k' of P_{k+1}(x) P_k^{(a+1,b+1)}(y) and ``root_norms``
    sqrt(max(|h_k'|, 1e-300)), h_k' the norms of the shifted level."""
    nterms: int
    tail_bound: float
    factors: np.ndarray
    root_norms: np.ndarray


@functools.lru_cache(maxsize=_COEFF_TABLES)
def kernel_truncation(level, ctx):
    """The kernel series truncated at N > 20 terms, where its geometric
    tail bound is below ctx.tol, memoised per (level, ctx).

    One pass over k forms h_k', the factor and, from k = 20, the per-term
    scale on the support, f_k = |factor_k| sqrt(|h_{k+1} h_k'|)
    (polynomials on [-1, 1] oscillate with amplitude ~ sqrt(norm)), which
    decays like sqrt(q)^k; with r = max(f_k/f_{k-1}, sqrt(q)) the sum stops
    where r < 1 and f_k r/(1 - r) < ctx.tol, ``backend.sum_series``' tail
    test.  A norm h_k' or a scale that has underflowed to 0 is a
    ``DomainError``, and a bound not met by ``MAX_TERMS`` terms a
    ``NonConvergenceError``."""
    lvl1 = level.shifted(1)
    hs, factors = [], []
    for k in range(MAX_TERMS + 1):
        h = norm_h(k, lvl1, ctx)
        if h == 0:
            raise DomainError(f"kernel: the norm h_{k} of the shifted level "
                              f"underflows to 0 at q = {ctx.q}")
        hs.append(h)
        factors.append(t_factor(k, level, ctx.q) / h)
        if k < 20:
            continue
        f = abs(factors[k]) * math.sqrt(abs(norm_h(k + 1, level, ctx)) * abs(h))
        if k > 20:
            if fprev == 0:
                raise DomainError(f"kernel_truncation: the term scale at k = {k - 1} "
                                  f"underflows to 0 at q = {ctx.q}")
            r = max(f / fprev, math.sqrt(ctx.q))
            if r < 1.0 and f * r / (1.0 - r) < ctx.tol:
                kf = np.array(factors, dtype=complex)
                roots = np.maximum(np.abs(np.array(hs)), 1e-300) ** 0.5
                kf.flags.writeable = roots.flags.writeable = False
                return KernelSeries(k, f * r / (1.0 - r), kf, roots)
        fprev = f
    raise NonConvergenceError("kernel_truncation: tail bound not met")


def kernel_eval(x, y, level, ctx):
    """Kernel K_{a,b;q}(x, y): the truncated bilinear series of
    ``kernel_truncation(level, ctx)``, its N terms.  ``x`` and ``y`` may be
    arrays that broadcast against each other."""
    nterms = kernel_truncation(level, ctx).nterms
    py = np.array(cqjacobi_seq(nterms - 1, level.shifted(1), y, ctx))
    return _kernel_sum(x, py, level, ctx)


def t_quadrature(g, x, level, rule, ctx):
    """(T g)(x) by quadrature of the truncated-kernel integral
    int K(x,y) g(y) w_{a+1,b+1}(y) dy.

    ``g`` is called once per rule, on the ndarray of the rule's node
    cosines; a constant result broadcasts.  ``x`` may be an array.
    """
    if rule.size < 2:
        raise DomainError("t_quadrature: the rule needs at least 2 nodes")
    # the rule resolves moments only up to ~half its node count (beyond
    # that the oscillatory P_n alias); within that, moments below the
    # quadrature noise floor carry no information, and at complex x (the
    # dq-shifted ellipse) the kernel amplifies them exponentially, so
    # truncate where the data ends
    series = kernel_truncation(level, ctx)
    nterms = min(series.nterms, rule.size // 2)
    ys = np.cos(rule.nodes)
    gy = np.broadcast_to(np.asarray(g(ys), dtype=complex), ys.shape)
    w1, py = on_nodes(level.shifted(1), rule.nodes, ctx)
    moments = py[:nterms] @ (rule.weights * w1 * gy)
    scales = np.abs(moments) / series.root_norms[:nterms]
    last = np.flatnonzero(scales >= scales.max() * 1e-12)
    neff = min(nterms, (last[-1] if last.size else 0) + 3)
    return _kernel_sum(x, moments[:neff], level, ctx)


def operator_residual(lam, coeffs, xs, level, rule, ctx):
    """max |(T a)(x) - lam a(x)| over the points ``xs``, where a is the
    function with coefficients ``coeffs``: one application of T."""
    def a(t):
        return eval_coeffvector(coeffs, t, ctx)
    return float(np.max(np.abs(t_quadrature(a, xs, level, rule, ctx) - lam * a(xs))))
