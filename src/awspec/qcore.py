"""q-shifted factorials, basic hypergeometric series and h-products.

All functions are pure and take their base explicitly: no implicit base
conversion happens anywhere (callers juggling q, q^2 and p = sqrt(q) pass
whichever base the formula at hand uses).  The q-shifted factorials
``qpoch`` and ``qpoch_inf`` are ``backend``'s own functions.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .backend import check_base, qpoch, qpoch_inf
from .exceptions import DomainError

__all__ = [
    "QContext", "qpoch", "qpoch_inf", "phi", "h_product", "exp_itheta",
]


@dataclass(frozen=True)
class QContext:
    """Evaluation context: the base q in (0,1) and the truncation
    tolerance of its series and products.  Their term budget is the
    constant ``backend.MAX_TERMS``.
    """
    q: float
    tol: float = 1e-14

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must be in (0,1), got {self.q}")
        if not 0.0 < self.tol < 1.0:  # also rejects nan
            raise DomainError(f"tol must be finite and in (0,1), got {self.tol}")


def exp_itheta(x):
    """e^{i theta} for x = cos(theta) with the branch sqrt(x^2-1) ~ x at infinity.

    For real x in [-1, 1] this is x + i sqrt(1-x^2); elsewhere the product
    of principal square roots sqrt(x-1)*sqrt(x+1) realizes the branch.
    """
    z = complex(x)
    if z.imag == 0.0 and -1.0 <= z.real <= 1.0:
        return complex(z.real, math.sqrt(max(0.0, 1.0 - z.real * z.real)))
    return z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


def phi(num, den, base, z, nterms, *, tol):
    """r-phi-s series with explicit parameter lists.

    ``nterms``: an integer n >= 0 sums exactly n+1 terms (a terminating
    series); -1 takes the adaptive non-terminating path, which stops at
    the tolerance ``tol`` (the caller's, usually its ``QContext``'s).
    """
    check_base(base)
    sign_power = 1 + len(den) - len(num)
    return backend.phi_sum(num, den, base, complex(z), sign_power, nterms, tol)


def h_product(x, params, base, tol):
    """h(cos theta; a_1, ..., a_m) = prod_k (a_k e^{i theta}, a_k e^{-i theta}; base)_inf
    at every x of a real ndarray ``x`` in [-1, 1] (complex ndarray).

    Each pair of products is taken as the one product over j of
    1 - 2 a_k base^j x + a_k^2 base^{2j}, run until qpoch_inf's tail bound
    |a_k e^{+-i theta}| base^j / (1 - base) is below ``tol``.  On [-1, 1]
    |e^{i theta}| = 1, so every x takes the same factors; x off [-1, 1]
    would need more of them, and is not taken."""
    out = np.ones(x.shape, dtype=complex)
    for a in params:
        bound = abs(a) / (1.0 - base)
        while bound > tol:
            out *= 1.0 - 2.0 * a * x + a * a
            a, bound = a * base, bound * base
    return out
