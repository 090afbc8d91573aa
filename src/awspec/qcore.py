"""q-shifted factorials, basic hypergeometric series and h-products.

All functions are pure and take their base explicitly: no implicit base
conversion happens anywhere (callers juggling q, q^2 and p = sqrt(q) pass
whichever base the formula at hand uses).
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .exceptions import DomainError, PoleError

__all__ = [
    "QContext", "HypergeometricSpec", "qpoch", "qpoch_inf", "qpoch_multi",
    "phi", "rphis", "w8w7", "h_product", "exp_itheta", "terminating_order",
]


@dataclass(frozen=True)
class QContext:
    """Evaluation context: the base q in (0,1) and the truncation
    tolerance of its series and products.  Their term budget is the
    constant ``backend.MAX_TERMS``.

    ``p = sqrt(q)`` is always derived from ``q`` (single source of truth).
    """
    q: float
    tol: float = 1e-14

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must be in (0,1), got {self.q}")
        if not 0.0 < self.tol < 1.0:  # also rejects nan
            raise DomainError(f"tol must be finite and in (0,1), got {self.tol}")

    @property
    def p(self):
        return math.sqrt(self.q)


def exp_itheta(x):
    """e^{i theta} for x = cos(theta) with the branch sqrt(x^2-1) ~ x at infinity.

    For real x in [-1, 1] this is x + i sqrt(1-x^2); elsewhere the product
    of principal square roots sqrt(x-1)*sqrt(x+1) realizes the branch.
    """
    z = complex(x)
    if z.imag == 0.0 and -1.0 <= z.real <= 1.0:
        return complex(z.real, math.sqrt(max(0.0, 1.0 - z.real * z.real)))
    return z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


def qpoch(a, base, n):
    """(a; base)_n = prod_{j=0}^{n-1} (1 - a base^j); n = 0 gives 1."""
    if n < 0:
        raise DomainError("qpoch: n must be >= 0")
    _check_base(base)
    return backend.qpoch(a, base, n)


def qpoch_inf(a, base, tol):
    """(a; base)_inf, truncated once the geometric tail bound of the
    log-product is below ``tol``."""
    _check_base(base)
    return backend.qpoch_inf(a, base, tol)


def qpoch_multi(params, base, n, tol):
    """(a_1, ..., a_m; base)_n, n a nonnegative integer or None for infinity."""
    out = 1.0 + 0.0j
    for a in params:
        if n is None:
            out *= qpoch_inf(a, base, tol)
        else:
            out *= qpoch(a, base, n)
    return out


def terminating_order(num_params, base):
    """Smallest n in [0, 400] with some numerator parameter equal to
    base^(-n) to 1e-12 relative, else None."""
    best = None
    for a in num_params:
        a = complex(a)
        if a == 0.0 or a.imag != 0.0 or a.real <= 0.0:
            continue
        m = round(-math.log(a.real) / math.log(base))
        if 0 <= m <= 400 and abs(a - base ** (-m)) <= 1e-12 * base ** (-m):
            best = m if best is None else min(best, m)
    return best


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of an r-phi-s evaluation: numerator/denominator lists, base, argument."""
    num_params: tuple
    den_params: tuple
    base: float
    argument: complex

    def __post_init__(self):
        object.__setattr__(self, "num_params", tuple(complex(v) for v in self.num_params))
        object.__setattr__(self, "den_params", tuple(complex(v) for v in self.den_params))
        _check_base(self.base)

    @property
    def terminating_order(self):
        return terminating_order(self.num_params, self.base)


def rphis(spec, ctx):
    """Evaluate the basic hypergeometric series of ``spec``.

    Includes the [(-1)^n base^{n(n-1)/2}]^{1+s-r} factor.  Terminating
    series (a numerator parameter equal to base^{-n}) are summed exactly;
    otherwise partial sums run until the tolerance of the context is met.
    """
    nt = spec.terminating_order
    # guard denominator poles over the summation range actually visited
    if nt is not None:
        limit = nt
        for b in spec.den_params:
            m = terminating_order([b], spec.base)
            if m is not None and m < limit:
                raise PoleError(f"rphis: denominator parameter {b} = base^-{m}")
    return phi(spec.num_params, spec.den_params, spec.base, spec.argument,
               nterms=-1 if nt is None else nt, tol=ctx.tol)


def phi(num, den, base, z, nterms=None, *, tol):
    """r-phi-s series with explicit parameter lists.

    ``nterms``: if None, detect termination from the numerator parameters;
    if an integer n, sum exactly n+1 terms; pass -1 to force the adaptive
    non-terminating path, which stops at the tolerance ``tol`` (the
    caller's, usually its ``QContext``'s).
    """
    _check_base(base)
    if nterms is None:
        nt = terminating_order(num, base)
        nterms = -1 if nt is None else nt
    sign_power = 1 + len(den) - len(num)
    return backend.phi_sum(num, den, base, complex(z), sign_power, nterms, tol)


def w8w7(a, b, c, d, e, f, base, z, ctx):
    """Very-well-poised 8W7(a; b, c, d, e, f; base, z) in standard W-notation.

    Summed as the 8-phi-7 with numerator a, q s, -q s, b, c, d, e, f and
    denominator s, -s, aq/b, aq/c, aq/d, aq/e, aq/f, where s = sqrt(a).
    The products of the +-s pairs depend only on a, so the branch of s does
    not matter.  Termination is read from b, c, d, e, f alone.
    """
    _check_base(base)
    if z == 0:
        return 1.0 + 0.0j
    s = cmath.sqrt(a)
    aq = a * base
    nt = terminating_order([b, c, d, e, f], base)
    return phi([a, base * s, -base * s, b, c, d, e, f],
               [s, -s, aq / b, aq / c, aq / d, aq / e, aq / f], base, z,
               nterms=-1 if nt is None else nt, tol=ctx.tol)


def h_product(x, params, base, tol):
    """h(cos theta; a_1, ..., a_m) = prod_k (a_k e^{i theta}, a_k e^{-i theta}; base)_inf
    at a scalar x, or at every x of a real ndarray in [-1, 1].

    Each pair of products is taken as the one product over j of
    1 - 2 a_k base^j x + a_k^2 base^{2j}, run until qpoch_inf's tail bound
    |a_k e^{+-i theta}| base^j / (1 - base) is below ``tol``.  On [-1, 1]
    |e^{i theta}| = 1, so every x of an array takes the same factors."""
    grid = isinstance(x, np.ndarray)
    out = np.ones(x.shape, dtype=complex) if grid else 1.0 + 0.0j
    scale = 1.0 if grid else abs(exp_itheta(x))
    for a in params:
        bound = abs(a) * scale / (1.0 - base)
        while bound > tol:
            out *= 1.0 - 2.0 * a * x + a * a
            a, bound = a * base, bound * base
    return out


def _check_base(base):
    if not 0.0 < base < 1.0:
        raise DomainError(f"base must be in (0,1), got {base}")
