"""Generic ladder-family machinery: induced tridiagonal recurrences, monic
normalization, shift-invariance detection, Pincherle continued-fraction
ratios, the telescoping identity for solution families, and the shipped
instances (ultraspherical, continuous q-Jacobi) plus the large-parameter
limit reduction used as a consistency check.
"""
from dataclasses import dataclass
from typing import Callable

from .awop import xi_factor
from .exceptions import DomainError, NonConvergenceError
from .qpolys import ConnectionTriple, connection_down
from .spectral import _backward, bn_B, bn_C

__all__ = [
    "LadderFamily", "MonicSystem", "qjacobi_family", "ultraspherical_family",
    "monicize", "shift_invariance_check", "cf_minimal_ratio",
    "telescope_residual", "four_param_b", "large_param_a",
    "large_param_b", "large_param_limit_check",
]

_SHIFT_TOL = 1e-12  # relative tolerance of shift_invariance_check
_CF_DEPTHS = tuple(25 * 2 ** k for k in range(10))  # cf_minimal_ratio: 25 .. 12800


@dataclass(frozen=True)
class LadderFamily:
    """A family of orthogonal polynomials with a degree-lowering ladder
    operator and a three-band connection to the shifted parameter point.

    ``xi(n)``: ladder factor; ``conn(n)``: ConnectionTriple (c_nn, c_nn1,
    c_nn2) onto the shifted family; ``shift()``: the family at A + 1.
    """
    xi: Callable[[int], complex]
    conn: Callable[[int], ConnectionTriple]
    shift: Callable[[], "LadderFamily"]


@dataclass(frozen=True)
class MonicSystem:
    """Monic-form recurrence data: lambda b_n = b_{n+1} + B(n) b_n + C(n) b_{n-1}."""
    B: Callable[[int], complex]
    C: Callable[[int], complex]


def qjacobi_family(level, ctx):
    """The continuous q-Jacobi instance of the ladder family."""
    def make(lv):
        return LadderFamily(
            xi=lambda n: xi_factor(n, lv, ctx.q),
            conn=lambda n: connection_down(n, lv, ctx),
            shift=lambda: make(lv.shifted(1)),
        )
    return make(level)


def ultraspherical_family(nu):
    """The ultraspherical instance: xi_n = 2 nu, c_{n,n} = -c_{n,n-2} =
    nu/(nu + n), c_{n,n-1} = 0."""
    def make(v):
        return LadderFamily(
            xi=lambda n: 2.0 * v,
            conn=lambda n: ConnectionTriple(
                v / (v + n), 0.0, -v / (v + n) if n >= 2 else 0.0),
            shift=lambda: make(v + 1.0),
        )
    return make(nu)


def monicize(family, u):
    """Monic-form coefficients B_n = u c_{n+1,n}/xi_{n+1} and
    C_n = u^2 c_{n,n} c_{n+1,n-1} / (xi_n xi_{n+1})."""
    def B(n):
        return u * family.conn(n + 1).c_nn1 / family.xi(n + 1)

    def C(n):
        if n < 1:
            return 0.0 + 0.0j
        return (u * u * family.conn(n).c_nn * family.conn(n + 1).c_nn2
                / (family.xi(n) * family.xi(n + 1)))
    return MonicSystem(B, C)


def shift_invariance_check(family, u, n_max):
    """True iff B_n(A) = B_0(A+n) and C_n(A) = C_1(A+n-1) to the relative
    tolerance ``_SHIFT_TOL`` for 1 <= n <= n_max.

    The C comparison is anchored at index 1 rather than 0 because the
    degree-0 connection triple has no structural c_{1,-1} entry; for an
    analytically shift-invariant family the two anchorings are equivalent."""
    sys0 = monicize(family, u)
    fam = family
    shifts = [fam]
    for _ in range(n_max):
        fam = fam.shift()
        shifts.append(fam)
    for n in range(1, n_max + 1):
        bn = sys0.B(n)
        cn = sys0.C(n)
        b0 = monicize(shifts[n], u).B(0)
        c1 = monicize(shifts[n - 1], u).C(1)
        if abs(bn - b0) > _SHIFT_TOL * max(1.0, abs(bn)):
            return False
        if abs(cn - c1) > _SHIFT_TOL * max(1.0, abs(cn)):
            return False
    return True


def cf_minimal_ratio(system, lam, ctx):
    """Value of the continued J-fraction of the monic recurrence,

        r_0 = 1 / (lam - B_0 - C_1 / (lam - B_1 - C_2 / (...))),

    ``spectral._backward``'s ratio on the rows (C_{k+1}, B_k, 1) with tail 0,
    at the depths ``_CF_DEPTHS`` until two agree within ``ctx.tol``
    (Pincherle: this is G_0/G_{-1} of the minimal solution when B_n, C_n ->
    0).  A value larger than 1/tol is returned at once as a spurious-pole
    candidate.  Raises NonConvergenceError when no two depths agree, or when
    the family's coefficients overflow, and PoleError where lam = B_k = 0."""
    prev = None
    for d in _CF_DEPTHS:
        try:
            r = _backward(complex(lam), [(system.C(k + 1), system.B(k), 1.0)
                                         for k in range(d)])[0][0]
        except OverflowError:
            raise NonConvergenceError(
                f"cf_minimal_ratio: the coefficients overflow by depth {d}") from None
        if abs(r) > 1.0 / ctx.tol:
            return r  # pole neighbourhood: caller inspects magnitude
        if prev is not None and abs(r - prev) <= ctx.tol * max(1.0, abs(r)):
            return r
        prev = r
    raise NonConvergenceError("cf_minimal_ratio: depth doubling did not settle")


def telescope_residual(f, a_fn, b_fn, c_fn, n, x):
    """Residual of the telescoping identity, anchored at order nu0 = 0,

        C_{nu0} ... C_{nu0+n-1} f(nu0+n)
            = f_{n,nu0}(x) f(nu0) + f_{n-1,nu0+1}(x) f(nu0-1)

    for a family satisfying C_nu f(nu+1) = (A_nu x + B_nu) f(nu) + f(nu-1),
    with the companion polynomials built from the same coefficient data.
    The residual is normalized by the largest participating term."""
    nu0 = 0.0  # a real order: f and the coefficients take real nu

    def poly_seq(nu, count):
        vals = [1.0 + 0.0j]
        if count >= 1:
            vals.append(a_fn(nu) * x + b_fn(nu))
        for k in range(1, count):
            vals.append((a_fn(nu + k) * x + b_fn(nu + k)) * vals[k]
                        + c_fn(nu + k - 1) * vals[k - 1])
        return vals

    cprod = 1.0 + 0.0j
    for j in range(n):
        cprod *= c_fn(nu0 + j)
    lhs = cprod * f(nu0 + n)
    pn = poly_seq(nu0, n)[n]
    pn1 = poly_seq(nu0 + 1, n - 1)[n - 1] if n >= 1 else 0.0
    rhs = pn * f(nu0) + pn1 * f(nu0 - 1)
    scale = max(abs(lhs), abs(pn * f(nu0)), abs(pn1 * f(nu0 - 1)), 1e-300)
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# large-parameter limit reduction
# ---------------------------------------------------------------------------

def four_param_b(n, A, B, C, D, q):
    """Sub-diagonal coefficient b_n of the finite-parameter recurrence
    Z_{n+1} = (x - a_n) Z_n - b_n Z_{n-1}."""
    return (-D / (A * B * C) * q ** (n - 2)
            * (1 - A * q ** (n - 1)) * (1 - B * q ** (n - 1))
            * (1 - C * q ** (n - 1)) * (1 - D * q ** (n - 1) / A)
            * (1 - D * q ** (n - 1) / B) * (1 - D * q ** (n - 1) / C)
            / ((1 - D * q ** (2 * n - 1)) * (1 - D * q ** (2 * n - 2)) ** 2
               * (1 - D * q ** (2 * n - 3))))


def large_param_a(n, level, q):
    """a'_n: the displayed large-A limit after the q -> sqrt(q) replacement
    and the B = q^{1+a/2} = -C, D = q^{2+(a+b)/2} identification."""
    al, be = level.alpha, level.beta
    return (-q ** ((n - 1) / 2) * (1 + q ** (n + (al + be + 3) / 2))
            * (1 - q ** ((be - al) / 2))
            / ((1 - q ** (n + 1 + (al + be) / 2))
               * (1 - q ** (n + 2 + (al + be) / 2))))


def large_param_b(n, level, q):
    """b'_n of the displayed limit (see large_param_a)."""
    al, be = level.alpha, level.beta
    return (q ** (n + (be - al - 3) / 2) * (1 - q ** (n + al + 1))
            * (1 - q ** (n + be + 1))
            / ((1 - q ** (n + (al + be + 1) / 2))
               * (1 - q ** (n + 1 + (al + be) / 2)) ** 2
               * (1 - q ** (n + (al + be + 3) / 2))))


def large_param_limit_check(level, n_max, ctx):
    """Deviations of the rescaling map onto the monic q-Jacobi recurrence,
    |s a'_n + B_n| and |s^2 b'_n - C_n| for 1 <= n <= n_max: with
    s = q^{(2a+5)/4}, the limit coefficients satisfy s a'_n = -B_n and
    s^2 b'_n = C_n of the monic system (the minus sign realizes the
    (x - a) vs (mu + B) bookkeeping of the two displays)."""
    if not level.is_real:
        raise DomainError("large_param_limit_check requires real alpha, beta")
    q = ctx.q
    s = q ** ((2 * level.alpha + 5) / 4)
    devs = []
    for n in range(1, n_max + 1):
        devs.append(abs(s * large_param_a(n, level, q) + bn_B(n, level, q)))
        devs.append(abs(s * s * large_param_b(n, level, q) - bn_C(n, level, q)))
    return devs
