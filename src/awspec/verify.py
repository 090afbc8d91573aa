"""Named verification suites: every invariant of the library runs as a
registered check returning a machine-readable record.

Each suite maps to one invariant of the underlying identities (transforms,
orthogonality, operator calculus, spectral asymptotics, expansions).  The
CLI command ``awspec verify`` runs them; the acceptance tests call the
same registry, so the command-line report and the test-suite can never
drift apart.

A suite only computes: it returns its sub-errors, each a number at the
suite tolerance T or a pair (e, t) with a tolerance t of its own, and a
detail text.  ``run_suite`` alone forms ``max_err``, the largest sub-error
in units of T (a pair counts as e / t * T, so a suite that scales each
sub-error writes its pairs even at t = T), and decides the pass.

Error metric: identities evaluated through terminating series in base q
with unit argument cancel intrinsically (their terms peak at
base^{-n(n-1)/2}), so residuals of that kind are normalized by the largest
participating term, the backward-error scale; the others mostly use the
mixed error |value - ref| / max(1, |ref|).
"""
import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import awop, framework, qexp, qpolys, spectral
from .backend import phi_terms
from .exceptions import NonConvergenceError
from .qcore import QContext, phi, qpoch, qpoch_inf
from .qpolys import JacobiLevel

__all__ = ["VerifyConfig", "SuiteResult", "REGISTRY", "run_suite",
           "suite_names", "DEFAULT_CONFIG", "SEED"]

SEED = 20240801  # every suite that draws at random starts from this seed


@dataclass(frozen=True)
class VerifyConfig:
    """The level and context every suite runs at, and the node count of
    its quadrature rules."""
    level: JacobiLevel
    ctx: QContext
    nodes: int


DEFAULT_CONFIG = VerifyConfig(JacobiLevel(0.3, -0.2), QContext(0.5, 1e-14), 160)
# the conjugate-pair level that suites check beside the config level
_CONJ_LEVEL = JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    tol: float
    detail: str


REGISTRY = {}


def _suite(name, tol):
    def wrap(fn):
        if name in REGISTRY:
            raise ValueError(f"suite {name!r} is already registered")
        fn._suite_tol = tol
        REGISTRY[name] = fn
        return fn
    return wrap


def suite_names():
    return sorted(REGISTRY)


def run_suite(name, config):
    """Run one suite and fold its sub-errors as the module docstring says.
    A NaN sub-error, no sub-error, a crash or a malformed return fails."""
    fn = REGISTRY[name]
    tol = fn._suite_tol
    try:
        subs, detail = fn(config)
        errs = [float(e[0] / e[1] * tol if isinstance(e, tuple) else e) for e in subs]
    except Exception as exc:  # a crash is a failure, not a silence
        return SuiteResult(name, False, math.inf, tol, f"exception: {exc!r}")
    if not errs:
        return SuiteResult(name, False, math.nan, tol, "no sub-errors")
    # the builtin max drops a NaN that follows a number, so test for it first
    err = math.nan if any(map(math.isnan, errs)) else max(errs)
    return SuiteResult(name, err <= tol, err, tol, detail)


def _mixed(value, ref):
    """|value - ref| / max(1, |ref|): absolute near zero, relative above one."""
    return abs(value - ref) / max(1.0, abs(ref))


def _peak(num, den, base, n):
    """Largest |term| of the terminating series num/den at z = base, degree
    n: the backward-error scale of its cancellation."""
    return max(map(abs, islice(phi_terms(num, den, base, base, 0), n + 1)))


# ---------------------------------------------------------------------------
# qcore
# ---------------------------------------------------------------------------

@_suite("qcore.heine", 1e-10)
def _heine(config):
    """First Heine transformation on random admissible draws."""
    q, tol = config.ctx.q, config.ctx.tol
    rng = np.random.default_rng(SEED)
    errs = []
    for _ in range(100):
        a = _disc(rng, 0.9)
        c = _disc(rng, 0.9)
        b = _disc(rng, 0.8, rmin=0.2)
        z = _disc(rng, 0.8)
        lhs = phi([a, b], [c], q, z, nterms=-1, tol=tol)
        rhs = (qpoch_inf(b, q, tol) * qpoch_inf(a * z, q, tol)
               / (qpoch_inf(c, q, tol) * qpoch_inf(z, q, tol))
               * phi([c / b, z], [a * z], q, b, nterms=-1, tol=tol))
        errs.append(_mixed(rhs, lhs))
    return errs, "100 draws"


@_suite("qcore.heine-iterated", 1e-10)
def _heine2(config):
    """Iterated Heine transformation on random admissible draws."""
    q, tol = config.ctx.q, config.ctx.tol
    rng = np.random.default_rng(SEED)
    errs = []
    for _ in range(100):
        a, b, z = (_disc(rng, 0.7) for _ in range(3))
        c = _disc(rng, 0.9, rmin=0.5)
        w = a * b * z / c
        lhs = phi([a, b], [c], q, z, nterms=-1, tol=tol)
        rhs = (qpoch_inf(w, q, tol) / qpoch_inf(z, q, tol)
               * phi([c / a, c / b], [c], q, w, nterms=-1, tol=tol))
        errs.append(_mixed(rhs, lhs))
    return errs, "100 draws"


@_suite("qcore.sears", 1e-10)
def _sears(config):
    """Sears transformation of terminating balanced 4phi3, n <= 8."""
    q, tol = config.ctx.q, config.ctx.tol
    rng = np.random.default_rng(SEED)
    errs = []
    for n in range(1, 9):
        for _ in range(6):
            a = _disc(rng, 0.8, rmin=0.2)
            b = _disc(rng, 0.8, rmin=0.2)
            c = _disc(rng, 0.8, rmin=0.2)
            d = _disc(rng, 0.8, rmin=0.3)
            e = _disc(rng, 0.8, rmin=0.3)
            f = a * b * c * q ** (1 - n) / (d * e)
            num = [q ** -n, a, b, c]
            lhs = phi(num, [d, e, f], q, q, nterms=n, tol=tol)
            pre = (qpoch(e / a, q, n) * qpoch(f / a, q, n)
                   / (qpoch(e, q, n) * qpoch(f, q, n)) * a ** n)
            rhs = pre * phi([q ** -n, a, d / b, d / c],
                            [d, a * q ** (1 - n) / e, a * q ** (1 - n) / f],
                            q, q, nterms=n, tol=tol)
            scale = _peak(num, [d, e, f], q, n)
            errs.append(abs(lhs - rhs) / max(scale, abs(lhs), 1.0))
    return errs, "n<=8, 6 draws each; max-term normalized"


@_suite("qcore.saalschutz", 1e-10)
def _saalschutz(config):
    """q-Pfaff-Saalschuetz sum of the balanced terminating 3phi2, n <= 8."""
    q, tol = config.ctx.q, config.ctx.tol
    rng = np.random.default_rng(SEED)
    errs = []
    for n in range(1, 9):
        for _ in range(6):
            a = _disc(rng, 0.8, rmin=0.2)
            b = _disc(rng, 0.8, rmin=0.2)
            c = _disc(rng, 0.9, rmin=0.3)
            num = [q ** -n, a, b]
            den = [c, a * b * q ** (1 - n) / c]
            lhs = phi(num, den, q, q, nterms=n, tol=tol)
            rhs = (qpoch(c / a, q, n) * qpoch(c / b, q, n)
                   / (qpoch(c, q, n) * qpoch(c / (a * b), q, n)))
            scale = _peak(num, den, q, n)
            errs.append(abs(lhs - rhs) / max(scale, abs(lhs), 1.0))
    return errs, "n<=8; max-term normalized"


@_suite("qcore.poch-split", 1e-14)
def _poch_split(config):
    """(a)_{n+m} = (a)_n (a q^n)_m for 0 <= n, m <= 10."""
    q = config.ctx.q
    rng = np.random.default_rng(SEED)
    errs = []
    for _ in range(20):
        a = _disc(rng, 2.0)
        for n in range(11):
            for m in range(11):
                lhs = qpoch(a, q, n + m)
                rhs = qpoch(a, q, n) * qpoch(a * q ** n, q, m)
                errs.append(_mixed(rhs, lhs))
    return errs, "20 draws x n,m<=10"


@_suite("qcore.phi-poly", 1e-10)
def _phi_poly(config):
    """A terminating series is a polynomial in z: interpolation check."""
    q, tol = config.ctx.q, config.ctx.tol
    rng = np.random.default_rng(SEED)
    errs = []
    for n in range(1, 7):
        a = _disc(rng, 0.8, rmin=0.2)
        b = _disc(rng, 0.8, rmin=0.2)
        c = _disc(rng, 0.8, rmin=0.3)
        zs = np.linspace(-0.9, 0.9, n + 1)
        vals = [phi([q ** -n, a, b], [c], q, z, nterms=n, tol=tol) for z in zs]
        zt = 0.37
        # Lagrange interpolation at zt
        acc = 0.0 + 0.0j
        for i, zi in enumerate(zs):
            li = 1.0
            for j, zj in enumerate(zs):
                if j != i:
                    li *= (zt - zj) / (zi - zj)
            acc += vals[i] * li
        direct = phi([q ** -n, a, b], [c], q, zt, nterms=n, tol=tol)
        errs.append(_mixed(acc, direct))
    return errs, "degree <= 6"


def _disc(rng, rmax, rmin=0.0):
    r = rng.uniform(rmin, rmax)
    t = rng.uniform(0.0, 2 * math.pi)
    return r * complex(math.cos(t), math.sin(t))


# ---------------------------------------------------------------------------
# qpolys
# ---------------------------------------------------------------------------

@_suite("qpolys.orthogonality", 1e-8)
def _orthogonality(config):
    """Off-diagonal moments below 1e-8 h_n; diagonal matches h_n; doubling-checked."""
    ctx = config.ctx
    errs = []
    for level in (config.level, JacobiLevel(0.5, 0.5), _CONJ_LEVEL):
        for nn in (config.nodes, 2 * config.nodes):
            rule = awop.make_rule(nn)
            w, polys = qpolys.on_nodes(level, rule.nodes, ctx)
            for n in range(9):
                hn = qpolys.norm_h(n, level, ctx)
                for m in range(n, 9):
                    val = np.sum(rule.weights * w * polys[n] * polys[m])
                    if n == m:
                        errs.append(abs(val - hn) / abs(hn))
                    else:
                        errs.append(abs(val) / abs(hn))
    return errs, "3 parameter sets, node doubling"


@_suite("qpolys.duality", 1e-10)
def _duality(config):
    """Connection coefficients against the weighted dual expansion."""
    ctx = config.ctx
    level = config.level
    p = math.sqrt(ctx.q)
    ctx_p = QContext(p, ctx.tol)
    errs = []
    for nprime in range(2, 8):
        n = nprime - 1  # degree on the shifted side
        ecoef = qpolys.dual_expansion_aw(nprime, level, ctx_p)
        hl = qpolys.norm_h(n, level.shifted(1), ctx)
        triples = [qpolys.connection_down(m, level, ctx) for m in (n, n + 1, n + 2)]
        cmn = [triples[0].c_nn, triples[1].c_nn1, triples[2].c_nn2]
        for i, m in enumerate((n, n + 1, n + 2)):
            dd = hl * cmn[i] / qpolys.norm_h(m, level, ctx)
            errs.append(_mixed(ecoef[i], dd))
    return errs, "degrees 1..6"


@_suite("qpolys.contiguous", 1e-10)
def _contiguous(config):
    """Three-term contiguous relation of the balanced 4phi3 family."""
    q = config.ctx.q
    p = math.sqrt(q)
    al, be = config.level.alpha, config.level.beta

    def params(nn):
        return ([p ** -nn, p ** (nn + al + be + 3), p ** (be + 1), -p ** (al + 1)],
                [p ** (al + be + 2), p ** (be + 2), -p ** (al + 2)])

    def phi_n(nn):
        return phi(*params(nn), p, p, nterms=nn, tol=config.ctx.tol)

    errs = []
    for nn in range(1, 9):
        A = (p ** (al + be - 3 * nn + 4) * (1 - p ** (nn + al + be + 3))
             * (1 - p ** (2 * nn + al + be + 2)) * (1 - p ** (nn + al + be + 2))
             * (1 - p ** (nn + be + 2)) * (1 + p ** (nn + al + 2)))
        C = (-p ** (2 * al + 2 * be + 6 - 3 * nn) * (1 - p ** nn)
             * (1 - p ** (2 * nn + al + be + 4)) * (1 - p ** (nn + 1))
             * (1 - p ** (nn + al + 1)) * (1 + p ** (nn + be + 1)))
        B = (-C - A + p ** (al + be - 3 * nn + 4)
             * qpoch(p ** (2 * nn + al + be + 2), p, 3)
             * (1 - p ** (be + 1)) * (1 + p ** (al + 1)))
        t1 = phi_n(nn + 1)
        t2 = -B / A * phi_n(nn)
        t3 = -C / A * phi_n(nn - 1)
        # backward-error scale: the terminating series peak terms (the
        # values cancel down from there), weighted by the coefficients
        scale = max(_peak(*params(nn + 1), p, nn + 1), abs(B / A) * _peak(*params(nn), p, nn),
                    abs(C / A) * _peak(*params(nn - 1), p, nn - 1), 1.0)
        errs.append(abs(t1 - t2 - t3) / scale)
    return errs, "n <= 8; series-peak normalized"


# ---------------------------------------------------------------------------
# awop
# ---------------------------------------------------------------------------

@_suite("awop.ladder", 1e-10)
def _ladder(config):
    """D_q P_n = xi_n P_{n-1} at the shifted level, pointwise."""
    ctx = config.ctx
    level = config.level
    rng = np.random.default_rng(SEED)
    errs = []
    for n in range(1, 9):
        xi = awop.xi_factor(n, level, ctx.q)
        for x in rng.uniform(-0.95, 0.95, 20):
            lhs = awop.dq_pointwise(
                lambda t, n=n: qpolys.cqjacobi(n, level, t, ctx), x, ctx)
            rhs = xi * qpolys.cqjacobi(n - 1, level.shifted(1), x, ctx)
            errs.append(_mixed(lhs, rhs))
    return errs, "n <= 8, 20 x each"


@_suite("awop.right-inverse", 1e-7)
def _right_inverse(config):
    """D_q (T g) = g for polynomials of degree <= 5 (quadrature route)."""
    ctx = config.ctx
    level = config.level
    rule = awop.make_rule(config.nodes)
    rng = np.random.default_rng(SEED)
    errs = []
    for deg in range(6):
        cs = rng.standard_normal(deg + 1)

        def g(t):
            return sum(c * t ** k for k, c in enumerate(cs))

        def tg(t):
            return awop.t_quadrature(g, t, level, rule, ctx)

        for x in (-0.6, 0.1, 0.55):
            lhs = awop.dq_pointwise(tg, x, ctx)
            errs.append((_mixed(lhs, g(x)), 1e-7))
    # coefficient route: dq_coeffs after t_coeffs is the identity
    vec = awop.CoeffVector(level.shifted(1), tuple(rng.standard_normal(6)))
    back = awop.dq_coeffs(awop.t_coeffs(vec, ctx), ctx)
    errs += [(abs(a - b), 1e-14) for a, b in zip(back.coeffs, vec.coeffs)]
    return errs, "degrees <= 5; coefficient round-trip exact"


@_suite("awop.kernel-coeff", 1e-7)
def _kernel_coeff(config):
    """Quadrature form of T equals the coefficient action on P_n, n <= 4."""
    ctx = config.ctx
    level = config.level
    rule = awop.make_rule(config.nodes)
    errs = []
    for n in range(5):
        fac = awop.t_factor(n, level, ctx.q)

        def g(t):
            return qpolys.cqjacobi(n, level.shifted(1), t, ctx)

        for x in (-0.4, 0.2, 0.7):
            quad = awop.t_quadrature(g, x, level, rule, ctx)
            coef = fac * qpolys.cqjacobi(n + 1, level, x, ctx)
            errs.append(_mixed(quad, coef))
    return errs, "n <= 4"


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

BN_PARAM_SETS = [(0.3, -0.2), (0.5, 0.5), (0.3 + 0.5j, 0.3 - 0.5j)]
BN_QS = [0.36, 0.5, 0.8]


@_suite("spectral.bn-closed-form", 1e-10)
def _bn_closed(config):
    """Closed form against forward recurrence: n <= 20, |mu| <= 3."""
    rng = np.random.default_rng(SEED)
    errs = []
    for (al, be) in BN_PARAM_SETS:
        level = JacobiLevel(al, be)
        for q in BN_QS:
            ctx = QContext(q, config.ctx.tol)
            for _ in range(50):
                mu = _disc(rng, 3.0)
                seq = spectral.bn_sequence(20, mu, level, ctx)
                for n in range(21):
                    ex = spectral.bn_explicit(n, mu, level, ctx)
                    errs.append(_mixed(ex, seq[n]))
    return errs, "3 param sets x 3 q x 50 mu"


@_suite("spectral.asymp-growth", 1e-5)
def _asymp_growth(config):
    """Large-n limit of x^n b_n(1/x) against the closed 2phi1 form."""
    ctx = config.ctx
    level = config.level
    errs = []
    for x in (0.5, 1 + 1j, -2.0):
        b = spectral.bn_sequence(80, 1.0 / x, level, ctx)[80]
        tgt = spectral.f_eval(1.0 / x, level, ctx)
        errs.append(abs(x ** 80 * b - tgt) / abs(tgt))
    return errs, "n = 80 at three x"


@_suite("spectral.asymp-zero", 1e-3)
def _asymp_zero(config):
    """Zero asymptotics b_n(0) ~ C p^{n^2/2} u^n, both parameter orderings."""
    errs = []
    detail = []
    for (al, be) in [(0.5, -0.25), (-0.25, 0.5)]:
        level = JacobiLevel(al, be)
        ctx = config.ctx
        C = spectral.zero_asymptotics_constants(level, ctx)[1]
        r = spectral.bn0_scaled_sequence(61, level, ctx)
        drifts = [abs(r[n + 1] / r[n] - 1.0) for n in range(58, 61)]
        errs.append((abs(r[60] - C) / abs(C), 1e-3))
        errs += [(d, 1e-4) for d in drifts]
        detail.append(f"drift={np.max(drifts):.1e}")
    return errs, "; ".join(detail)


@_suite("spectral.asymp-root", 1e-3)
def _asymp_root(config):
    """Root asymptotics at a certified zero of F from the minimal solution,
    and X_nu (-xi)^nu -> 1, at n = max(50, 25/(1-q)) and nu = n - 10."""
    ctx = config.ctx
    level = config.level
    res = spectral.eigenvalues(level, ctx, count=1, nmat=60)
    xi = res[0].mu
    n = max(50, math.ceil(25 / (1 - ctx.q)))
    w = spectral.bn_minimal_scaled(n, xi, level, ctx)
    K = spectral.root_asymptotics_constant(xi, level, ctx)
    err = abs(w[n] - K) / abs(K)
    xn = spectral.x_nu(n - 10, xi, level, ctx) * (-xi) ** (n - 10)
    return [(err, 1e-3), (abs(xn - 1.0), 1e-3)], f"|F(xi)|={res[0].residual_f:.1e}"


@_suite("spectral.x-telescope", 1e-10)
def _x_telescope(config):
    """Telescoping identity linking b_n, X_nu and X_{nu-1} (nu = 0)."""
    ctx = config.ctx
    level = config.level
    rng = np.random.default_rng(SEED)
    errs = []
    for _ in range(5):
        x = _disc(rng, 2.0, rmin=0.7)
        bfwd = spectral.bn_sequence(10, x, level, ctx)
        bfwd1 = spectral.bn_sequence(9, x, level.shifted(1), ctx)
        x0 = spectral.x_nu(0, x, level, ctx)
        xm1 = spectral.x_nu(-1, x, level, ctx)
        cprod = 1.0 + 0.0j
        for n in range(1, 11):
            cprod *= spectral.bn_C(n, level, ctx.q)
            lhs = cprod * spectral.x_nu(n, x, level, ctx)
            rhs = bfwd[n] * x0 + bfwd1[n - 1] * xm1
            scale = max(abs(lhs), abs(bfwd[n] * x0), abs(bfwd1[n - 1] * xm1), 1e-10)
            errs.append(abs(lhs - rhs) / scale)
    return errs, "n <= 10, 5 random x"


@_suite("spectral.eigen-certify", 1e-6)
def _eigen_certify(config):
    """Full pipeline: truncation stability, |F| residual, operator residual,
    the symmetry of the level's eigenvalues (closed under conjugation on a
    real level, purely imaginary on a conjugate-pair level), pure-imaginary
    regimes."""
    ctx = config.ctx
    level = config.level
    xs, rule = np.linspace(-0.85, 0.85, 10), awop.make_rule(config.nodes)
    res40 = spectral.eigenvalues(level, ctx, count=5, nmat=40)
    res80 = spectral.eigenvalues(level, ctx, count=5, nmat=80)
    drift = [abs(a.lam - b.lam) for a, b in zip(res40, res80)]
    fres = [r.residual_f for r in res80]
    opres = [awop.operator_residual(r.lam, r.coeffs, xs, level, rule, ctx)
             for r in res80]
    lams = [r.lam for r in spectral.eigenvalues(level, ctx, count=6, nmat=80)]
    if level.is_real:
        sym_name = "conj"
        sym = [min(abs(lam.conjugate() - l2) for l2 in lams) for lam in lams]
    else:  # a conjugate-pair level, the only complex one the CLI takes
        sym_name = "re/|lam|"
        sym = [abs(lam.real) / abs(lam) for lam in lams]
    imag = [abs(e.real) / abs(e)
            for (al, be) in [(0.4, 0.4), (0.3 + 0.5j, 0.3 - 0.5j)]
            for e in spectral.matrix_oracle(30, JacobiLevel(al, be), ctx)[:6]]
    errs = [(e, t) for es, t in [(drift, 1e-8), (fres, 1e-9), (opres, 1e-6),
                                 (sym, 1e-10), (imag, 1e-9)] for e in es]
    return errs, (f"drift={np.max(drift):.1e} F={np.max(fres):.1e} "
                  f"op={np.max(opres):.1e} {sym_name}={np.max(sym):.1e} "
                  f"imag={np.max(imag):.1e}")


@_suite("spectral.eigenvalue-equation", 1e-12)
def _eigenvalue_equation(config):
    """F vanishes at the first five certified eigenvalues mu, at the config
    level and at (0.3 +- 0.5i): |F(mu)|, which is the paper's literal
    eigenvalue equation at x = 2/((1-q) mu) relative to its value at
    x = 0."""
    ctx = config.ctx
    errs = [r.residual_f for level in (config.level, _CONJ_LEVEL)
            for r in spectral.eigenvalues(level, ctx, count=5, nmat=80)]
    return errs, "5 eigenvalues x 2 levels; |F(mu)|"


@_suite("spectral.markov", 1e-5)
def _markov(config):
    """Markov ratio against the Stieltjes-transform closed form at n = 60."""
    ctx = config.ctx
    level = JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)
    x = 2j
    rat = spectral.markov_ratio(60, x, level, ctx)
    closed = spectral.markov_stieltjes(x, level, ctx)
    return [abs(rat - closed) / abs(closed)], "n=60 at x=2i"


@_suite("spectral.coulomb", 1e-12)
def _coulomb(config):
    """Reality of the q-Coulomb function on a 50-point real rho grid."""
    ctx = config.ctx
    values = spectral.q_coulomb(0.5, 0.3, np.linspace(0.05, 2.5, 50), ctx)
    errs = np.abs(values.imag).tolist()
    return errs, "L=0.5, eta=0.3"


# ---------------------------------------------------------------------------
# qexp
# ---------------------------------------------------------------------------

@_suite("qexp.dq-eigen", 1e-10)
def _dq_eigen(config):
    """D_q eigenrelation of the q-exponential across random (a, b) draws."""
    ctx = config.ctx
    rng = np.random.default_rng(SEED)
    errs = []
    draws = [(-1j, 0.4)] + [(_disc(rng, 1.0, rmin=0.3), _disc(rng, 0.6, rmin=0.1))
                            for _ in range(8)]
    for a, b in draws:
        for x in (0.3, -0.45):
            lhs = awop.dq_pointwise(lambda t: qexp.eq_exp(t, a, b, ctx), x, ctx)
            rhs = qexp.eq_eigenvalue_dq(a, b, ctx.q) * qexp.eq_exp(x, a, b, ctx)
            errs.append(_mixed(lhs, rhs))
    return errs, "9 (a,b) draws x 2 x"


@_suite("qexp.expansion-coeffs", 1e-10)
def _expansion_coeffs(config):
    """Closed-form expansion coefficients against quadrature projection, m <= 10."""
    ctx = config.ctx
    level = config.level
    r = 0.3
    rule = awop.make_rule(2 * config.nodes)
    xs = np.cos(rule.nodes)
    ev = np.array([qexp.eq_exp(x, -1j, r, ctx) for x in xs])
    projs = qexp._aw_projections(10, ev, level, rule, ctx)
    f = qexp._p_factors(10, level, ctx.q)
    errs = []
    for m in range(11):
        proj = projs[m] / (qpolys.norm_h(m, level, ctx) * f[m] ** 2)
        am = qexp.am_coeff(m, r, level, ctx)
        errs.append(_mixed(proj, am))
    return errs, "m <= 10 at r=0.3"


@_suite("qexp.expansion-residual", 1e-8)
def _expansion_residual(config):
    """Expansion of E_q(x; -i, r) at M = 25 across parameter sets and r."""
    errs = []
    for (al, be) in [(0.3, -0.2), (0.5, -0.25), (0.1, 0.4)]:
        level = JacobiLevel(al, be)
        for r in (0.1, 0.3, 0.5j):
            coeffs = [qexp.am_coeff(m, r, level, config.ctx) for m in range(26)]
            resids = qexp.expansion_residual(coeffs, np.array([0.2, -0.5]), r,
                                             level, config.ctx)
            errs += resids.tolist()
    return errs, "3 param sets x r in {0.1, 0.3, 0.5i}"


@_suite("qexp.jm-integrals", 1e-12)
def _jm_integrals(config):
    """J_m(a; r) as the double series, against quadrature of its defining
    integral at a = 0.5i and against a_m times the norm at a = -i; and
    I_{m,n} vanishes for n < m.  At the config level and at (0.3 +- 0.5i)."""
    ctx = config.ctx
    r = 0.3
    errs = []
    for level in (config.level, _CONJ_LEVEL):
        for m in range(3):
            errs.append(_mixed(qexp.jm_double_series(m, 0.5j, r, level, ctx),
                               qexp.jm_quadrature(m, 0.5j, r, level, ctx)))
        f = qexp._p_factors(3, level, ctx.q)
        for m in range(4):
            closed = (qexp.am_coeff(m, r, level, ctx)
                      * qpolys.norm_h(m, level, ctx) * f[m] ** 2)
            errs.append(_mixed(qexp.jm_double_series(m, -1j, r, level, ctx), closed))
        errs += [abs(qexp.imn_quadrature(m, n, -1j, level, ctx))
                 for m in range(1, 5) for n in range(m)]
    return errs, "r=0.3: a=0.5i m<=2 and a=-i m<=3; I_mn n<m<=4"


@_suite("qexp.level-shift", 1e-8)
def _level_shift(config):
    """Level-independence of the combined eigen-expansion value."""
    ctx = config.ctx
    level = config.level
    errs = []
    for lam, x in [(1.7, 0.3), (0.9, -0.4), (2.3 + 0.4j, 0.2)]:
        c0 = qexp.e_series_invariant(x, lam, level, ctx)
        c2 = qexp.e_series_invariant(x, lam, level.shifted(2), ctx)
        errs.append(_mixed(c2, c0))
    return errs, "(a,b) vs (a+2,b+2)"


@_suite("qexp.hermite-value", 1e-8)
def _hermite_value(config):
    """Combined value against the q-Hermite/E_q closed form, and the
    standalone q-Hermite identity."""
    ctx = config.ctx
    level = config.level
    errs = []
    for lam, x in [(1.7, 0.3), (2.6, 0.3), (1.7, -0.45), (0.9, 0.1),
                   (1.6 + 0.5j, 0.25)]:
        c = qexp.e_series_invariant(x, lam, level, ctx)
        closed = qexp.e_series_invariant_closed(x, lam, ctx)
        errs.append((_mixed(closed, c), 1e-8))
    errs += [(qexp.hermite_identity_residual(lam, x, ctx), 1e-10)
             for lam, x in [(2.5, 0.3), (1.8, -0.2), (3.0 + 1.0j, 0.5)]]
    return errs, "invariant vs closed; 7.47 = 7.48"


# ---------------------------------------------------------------------------
# framework
# ---------------------------------------------------------------------------

@_suite("framework.qjacobi-coeffs", 1e-14)
def _fw_qjacobi(config):
    """Monicized q-Jacobi ladder equals the direct recurrence coefficients."""
    ctx = config.ctx
    level = config.level
    u = spectral.mu_from_lambda(1.0, ctx.q)
    sys = framework.monicize(framework.qjacobi_family(level, ctx), u)
    errs = []
    for n in range(21):
        errs.append(abs(sys.B(n) + spectral.bn_B(n, level, ctx.q)))
        if n >= 1:
            errs.append(abs(sys.C(n) + spectral.bn_C(n, level, ctx.q)))
    return errs, "n <= 20 (sign map B -> -B, C -> -C)"


@_suite("framework.ultraspherical", 1e-14)
def _fw_ultra(config):
    """Ultraspherical instance reproduces its classical recurrence, and the
    shift-invariance detector accepts it (and rejects a moved C_3)."""
    nu = 0.7
    fam = framework.ultraspherical_family(nu)
    u = 2.0
    sys = framework.monicize(fam, u)
    errs = []
    for n in range(1, 12):
        errs.append(abs(sys.B(n)))
        errs.append(abs(sys.C(n) + u * u / (4 * (nu + n) * (nu + n + 1))))
    # each misjudgement of the detector is a sub-error of 1; the control
    # scales c_nn of conn(3) by 1.01, which moves C_3 alone
    ok = framework.shift_invariance_check(fam, u, 8)
    c3 = fam.conn(3)
    c3 = replace(c3, c_nn=c3.c_nn * 1.01)
    bad = framework.shift_invariance_check(
        replace(fam, conn=lambda n: c3 if n == 3 else fam.conn(n)), u, 8)
    errs.append(float(not ok or bad))
    qj_ok = framework.shift_invariance_check(
        framework.qjacobi_family(config.level, config.ctx),
        spectral.mu_from_lambda(1.0, config.ctx.q), 8)
    errs.append(float(not qj_ok))
    return errs, "recurrence + shift-invariance detector"


@_suite("framework.cf-pincherle", 1e-8)
def _fw_cf(config):
    """Continued J-fraction against the minimal-solution ratio, with
    divergence at a certified eigenvalue."""
    ctx = config.ctx
    level = config.level
    u = spectral.mu_from_lambda(1.0, ctx.q)
    sys = framework.monicize(framework.qjacobi_family(level, ctx), u)
    vals = []
    for mu in (1.5, 2.5):
        cf = framework.cf_minimal_ratio(sys, mu, ctx)
        xr = spectral.x_nu(0, mu, level, ctx) / spectral.x_nu(-1, mu, level, ctx)
        vals.append(cf / xr)
    errs = [abs(vals[0] - vals[1]) / abs(vals[1])]
    res = spectral.eigenvalues(level, ctx, count=1, nmat=60)
    mu_star = res[0].mu
    try:
        pole = framework.cf_minimal_ratio(sys, mu_star, ctx)
    except NonConvergenceError:
        pole = math.inf
    errs.append(float(not abs(pole) >= 1e6))  # a NaN pole fails too
    return errs, f"ratio const; |CF(mu*)|={abs(pole):.1e}"


@_suite("framework.telescope", 1e-10)
def _fw_telescope(config):
    """Telescoping identity for the X family, with a sensitivity control."""
    ctx = config.ctx
    level = config.level
    q = ctx.q
    rng = np.random.default_rng(SEED)
    errs = []
    for _ in range(4):
        x = complex(rng.uniform(0.8, 2.0), rng.uniform(0.1, 0.8))

        def f(nu):
            return spectral.x_nu(nu, x, level, ctx)

        for n in range(1, 9):
            errs.append(framework.telescope_residual(
                f, lambda nu: spectral.bn_B(nu, level, q),
                lambda nu: spectral.bn_C(nu + 1, level, q), n, x))
    xs = 0.9 + 0.3j

    def fs(nu):
        return spectral.x_nu(nu, xs, level, ctx)

    broken = framework.telescope_residual(
        fs, lambda nu: spectral.bn_B(nu, level, q),
        lambda nu: spectral.bn_C(nu + 1, level, q) * (1.5 if nu == 2 else 1.0),
        6, xs)
    errs.append(float(not broken >= 1e-4))  # a NaN control fails too
    return errs, f"n <= 8, 4 x-draws; control residual {broken:.1e}"


@_suite("framework.large-param-limit", 1e-12)
def _fw_large_param(config):
    """Large-parameter limit reduction onto the monic q-Jacobi recurrence."""
    level = JacobiLevel(0.5, -0.25)
    ctx = QContext(0.36, config.ctx.tol)
    devs = framework.large_param_limit_check(level, 10, ctx)
    # finite-parameter b at A = 1e8 approaches the displayed limit magnitude
    q = 0.36
    qs = math.sqrt(q)
    B8 = q ** (1 + 0.5 / 2)
    D8 = q ** (2 + (0.5 - 0.25) / 2)
    errs = [(d, 1e-12) for d in devs]
    for n in (1, 2, 3):
        bfin = framework.four_param_b(n, 1e8, B8, -B8, D8, qs)
        errs.append((abs(bfin + framework.large_param_b(n, level, q)) / abs(bfin),
                     1e-6))
    return errs, f"map dev={np.max(devs):.1e}"
