"""Scalar kernel primitives: the finite and infinite q-shifted factorials,
the terms of a basic hypergeometric series and the one adaptive summer.

Everything here is scalar complex arithmetic: the hot loops of every
series in the package bottom out in these functions, and ``awspec.qcore``
re-exports the two q-shifted factorials as they are.  ``tail_powers``
truncates every infinite product and ``sum_series`` every series; no
tolerance loop of the package runs past ``MAX_TERMS`` terms, factors or
depth (the ``qexp`` series stop sooner, at budgets of their own).
"""
import itertools
import math

from .exceptions import DomainError, NonConvergenceError, PoleError

BACKEND = "python"
MAX_TERMS = 10000  # term budget of every adaptive product and series
_TINY = 1e-300


def check_base(base):
    """Raise ``DomainError`` unless the base of a q-series is in (0, 1)."""
    if not 0.0 < base < 1.0:
        raise DomainError(f"base must be in (0,1), got {base}")


def qpoch(a, base, n):
    """(a; base)_n = prod_{j=0}^{n-1} (1 - a base^j); n = 0 gives 1."""
    if n < 0:
        raise DomainError("qpoch: n must be >= 0")
    check_base(base)
    a = complex(a)
    out = 1.0 + 0.0j
    f = a
    for _ in range(n):
        out *= 1.0 - f
        f *= base
    return out


def tail_powers(a, base, tol, name):
    """[a, a base, a base^2, ...] while the geometric tail bound of a
    product over them, |a| base^j / (1 - base), is above ``tol``: the one
    truncation of every infinite product.  Raises ``NonConvergenceError``
    naming ``name`` past ``MAX_TERMS`` powers."""
    powers = []
    bound = abs(a) / (1.0 - base)
    while bound > tol:
        if len(powers) == MAX_TERMS:
            raise NonConvergenceError(f"{name}: tail bound not met")
        powers.append(a)
        a *= base
        bound *= base
    return powers


def qpoch_inf(a, base, tol):
    """Infinite q-shifted factorial (a; base)_inf over ``tail_powers``."""
    check_base(base)
    out = 1.0 + 0.0j
    for f in tail_powers(complex(a), base, tol, "qpoch_inf"):
        out *= 1.0 - f
    return out


def phi_terms(num, den, base, z, sign_power):
    """The terms t_0 = 1, t_1, ... of a basic hypergeometric series, by the
    ratio recursion

        t_{k+1}/t_k = prod(1 - num_i base^k) / prod(1 - den_j base^k)
                      * z / (1 - base^{k+1}) * (-base^k)^sign_power,

    i.e. the r-phi-s series with the [(-1)^k base^{k(k-1)/2}]^{1+s-r}
    factor folded in via ``sign_power`` = 1 + s - r.  The generator never
    ends; a denominator factor that vanishes raises ``PoleError``.
    """
    z = complex(z)
    num = [complex(v) for v in num]
    den = [complex(v) for v in den]
    term = 1.0 + 0.0j
    for k in itertools.count():
        yield term
        bk = base ** k
        ratio = z / (1.0 - base * bk)
        for v in num:
            ratio *= 1.0 - v * bk
        for v in den:
            vb = v * bk
            dfac = 1.0 - vb
            if abs(dfac) < 1e-15 * (1.0 + abs(vb)):
                raise PoleError(f"phi_terms: denominator factor vanished at k={k}")
            ratio /= dfac
        if sign_power:
            ratio *= (-bk) ** sign_power
        term *= ratio


def sum_series(terms, tol, max_terms, name):
    """Adaptive sum of the series whose terms ``terms`` yields.

    Stops after two consecutive terms below ``tol`` relative to the
    partial sum, once the geometric tail estimate from the last term ratio
    is below ``tol`` too; a finite ``terms`` that runs out ends the sum.
    Raises ``NonConvergenceError`` naming ``name`` when the rule is not met
    by term ``max_terms`` (the first term is term 0), or when the terms or
    the partial sum overflow before it is met.
    """
    total = 0.0 + 0.0j
    small = 0
    prev_mag = _TINY
    try:
        for k, term in enumerate(terms):
            total += term
            mag = abs(term)
            scale = abs(total)
            if scale < _TINY:  # false for NaN, which the check below needs
                scale = _TINY
            if not math.isfinite(scale):  # also catches any non-finite term
                raise NonConvergenceError(f"{name}: the terms overflow")
            if mag < tol * scale:
                small += 1
                if small >= 2:
                    r = mag / prev_mag
                    if r < 1.0 and mag * r / (1.0 - r) < tol * scale:
                        return total
            else:
                small = 0
            prev_mag = mag or _TINY
            if k >= max_terms:
                raise NonConvergenceError(f"{name}: max_terms exceeded")
    except OverflowError:
        raise NonConvergenceError(f"{name}: the terms overflow") from None
    return total


def phi_sum(num, den, base, z, sign_power, nterms, tol):
    """Sum of the series of ``phi_terms``: exactly ``nterms + 1`` terms
    for ``nterms >= 0`` (terminating case), else by ``sum_series``."""
    terms = phi_terms(num, den, base, z, sign_power)
    if nterms < 0:
        return sum_series(terms, tol, MAX_TERMS, "phi_sum")
    total = 0.0 + 0.0j
    for _, term in zip(range(nterms + 1), terms):
        total += term
    return total
