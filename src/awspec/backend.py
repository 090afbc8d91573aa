"""Scalar kernel primitives: the finite and infinite q-shifted factorials
and the core summation of a basic hypergeometric series.

Everything here is scalar complex arithmetic: the hot loops of every
series in the package bottom out in these three functions, and
``awspec.qcore`` calls them through this module.
"""
from .exceptions import NonConvergenceError, PoleError

BACKEND = "python"
_TINY = 1e-300


def qpoch(a, base, n):
    """Finite q-shifted factorial prod_{j=0}^{n-1} (1 - a*base^j)."""
    a = complex(a)
    out = 1.0 + 0.0j
    f = a
    for _ in range(n):
        out *= 1.0 - f
        f *= base
    return out


def qpoch_inf(a, base, tol=1e-14, max_terms=10000):
    """Infinite q-shifted factorial (a; base)_inf.

    Truncates once the geometric tail bound of the log-product,
    |a| base^j / (1 - base), drops below ``tol``.
    """
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
        if j > max_terms:
            raise NonConvergenceError("qpoch_inf: tail bound not met")
    return out


def phi_sum(num, den, base, z, sign_power, nterms, tol=1e-14, max_terms=10000):
    """Core summation of a basic hypergeometric series.

    Terms follow the ratio recursion

        t_{k+1}/t_k = prod(1 - num_i base^k) / prod(1 - den_j base^k)
                      * z / (1 - base^{k+1}) * (-base^k)^sign_power,

    i.e. the r-phi-s series with the [(-1)^k base^{k(k-1)/2}]^{1+s-r}
    factor folded in via ``sign_power`` = 1 + s - r.

    ``nterms >= 0`` sums exactly ``nterms + 1`` terms (terminating case);
    ``nterms < 0`` truncates adaptively: two consecutive relative terms
    below ``tol`` and a geometric tail estimate below ``tol``.
    """
    z = complex(z)
    num = [complex(v) for v in num]
    den = [complex(v) for v in den]
    term = 1.0 + 0.0j
    total = term
    k = 0
    small = 0
    prev_mag = 1.0
    while True:
        if 0 <= nterms <= k:
            break
        bk = base ** k
        ratio = z / (1.0 - base * bk)
        for v in num:
            ratio *= 1.0 - v * bk
        for v in den:
            dfac = 1.0 - v * bk
            if abs(dfac) < 1e-15 * (1.0 + abs(v * bk)):
                raise PoleError(f"phi_sum: denominator factor vanished at k={k}")
            ratio /= dfac
        if sign_power:
            ratio *= (-bk) ** sign_power
        term *= ratio
        total += term
        k += 1
        if nterms < 0:
            mag = abs(term)
            scale = max(abs(total), _TINY)
            if mag < tol * scale:
                small += 1
                if small >= 2:
                    r = mag / prev_mag if prev_mag > 0.0 else 0.0
                    if r < 1.0 and mag * r / (1.0 - r) < tol * scale:
                        break
            else:
                small = 0
            prev_mag = mag if mag > 0.0 else _TINY
            if k >= max_terms:
                raise NonConvergenceError("phi_sum: max_terms exceeded")
    return total
