"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline)."""
import csv
import dataclasses
import math
import time

import numpy as np

from awspec import awop, qexp, qpolys, verify
from awspec.cli import main
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel

PARAM_SETS = [(0.3, -0.2), (0.5, 0.5), (0.3 + 0.5j, 0.3 - 0.5j)]


def _report(num, label, err, tol, passed=None):
    ok = (err <= tol) if passed is None else passed
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {label}: "
          f"max_err={err:.3e} tol={tol:.0e}")
    assert ok, f"criterion {num}: {label}: {err} > {tol}"


def _suite(num, label, name, config=verify.DEFAULT_CONFIG):
    t0 = time.time()
    r = verify.run_suite(name, config)
    _report(num, f"{label} [{name}, {time.time() - t0:.1f}s]",
            r.max_err, r.tol, r.passed)


def test_criterion_01_closed_form_vs_recurrence(verify_all):
    # the suite's row of the shared ``verify --suite all`` run, at the same
    # default config, rather than a second run of its own
    name = "spectral.bn-closed-form"
    _, path, _ = verify_all
    with open(path, newline="") as fh:
        r = next(r for r in csv.DictReader(fh) if r["suite"] == name)
    _report(1, f"closed form vs recurrence, n<=20, |mu|<=3, 9 cells [{name}, "
            f"verify all]", float(r["max_err"]), float(r["tol"]),
            r["passed"] == "true")


def test_criterion_02_ladder_identity():
    worst = 0.0
    for al, be in PARAM_SETS:
        cfg = dataclasses.replace(verify.DEFAULT_CONFIG, level=JacobiLevel(al, be))
        r = verify.run_suite("awop.ladder", cfg)
        worst = max(worst, r.max_err)
        assert r.passed, f"ladder at ({al},{be}): {r.max_err}"
    _report(2, "ladder identity, n<=8, 20 x, 3 parameter sets", worst, 1e-10)


def test_criterion_03_orthogonality():
    _suite(3, "orthogonality with corrected norm exponent, n,m<=8",
           "qpolys.orthogonality")


def test_criterion_04_connection_identities():
    ctx = QContext(0.5)
    level = JacobiLevel(0.3, -0.2)
    worst = 0.0
    # downward connection (three-band) and the dual quadratic-weight
    # expansion, pointwise for n <= 6
    for n in range(1, 7):
        for x in (-0.7, 0.1, 0.6):
            t = qpolys.connection_down(n, level, ctx)
            lhs = qpolys.cqjacobi(n, level, x, ctx)
            up = level.shifted(1)
            rhs = (t.c_nn * qpolys.cqjacobi(n, up, x, ctx)
                   + t.c_nn1 * qpolys.cqjacobi(n - 1, up, x, ctx)
                   + t.c_nn2 * qpolys.cqjacobi(n - 2, up, x, ctx))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            E = qpolys.dual_expansion_aw(n, level, ctx)
            q = ctx.q
            ctx2 = QContext(q * q)
            quad = ((1 - 2 * x * q ** 0.8 + q ** 1.6)
                    * (1 + 2 * x * q ** 0.3 + q ** 0.6))
            lhs2 = quad * qpolys.cqjacobi(n - 1, up, x, ctx2)
            rhs2 = sum(c * qpolys.cqjacobi(m, level, x, ctx2)
                       for c, m in zip(E, (n - 1, n, n + 1)))
            worst = max(worst, abs(lhs2 - rhs2) / max(1.0, abs(lhs2)))
    # vanishing projections below the band
    p = math.sqrt(ctx.q)
    rule = awop.make_rule(200)
    xs = np.cos(rule.nodes)
    nn = 5
    quadf = ((1 - 2 * xs * p ** 0.8 + p ** 1.6)
             * (1 + 2 * xs * p ** 0.3 + p ** 0.6))
    upv = qpolys.cqjacobi_seq(nn - 1, level.shifted(1), xs, ctx)[nn - 1]
    w = awop.weight_theta_grid(level, rule, ctx)
    lows = qpolys.cqjacobi_seq(nn - 2, level, xs, ctx)
    proj_worst = max(abs(np.sum(rule.weights * w * quadf * upv * lows[k]))
                     for k in range(nn - 1))
    _report(4, "connection identities pointwise n<=6", worst, 1e-10)
    _report(4, "below-band projections vanish", proj_worst, 1e-9)


def test_criterion_05_right_inverse():
    _suite(5, "right inverse: Dq(Tg) = g, deg<=5 + exact coefficients",
           "awop.right-inverse")


def test_criterion_06_eigen_pipeline():
    _suite(6, "eigen pipeline: drift, |F|, operator residual, symmetry",
           "spectral.eigen-certify")


def test_criterion_07_asymptotics():
    _suite(7, "large-n limit (n=80)", "spectral.asymp-growth")
    _suite(7, "zero asymptotics (n=60, both orderings)", "spectral.asymp-zero")
    _suite(7, "root asymptotics (n=50, certified root)", "spectral.asymp-root")


def test_criterion_08_expansion_identity():
    _suite(8, "expansion residual M=25, 3 sets x r in {0.1,0.3,0.5i}",
           "qexp.expansion-residual")
    _suite(8, "coefficient route vs closed form m<=10",
           "qexp.expansion-coeffs")


def test_criterion_09_section7_identities():
    _suite(9, "divided-difference eigenrelation", "qexp.dq-eigen")
    _suite(9, "level independence of the combined value", "qexp.level-shift")
    ctx = QContext(0.5)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        lam = complex(rng.uniform(1.3, 3.0), rng.uniform(-0.8, 0.8))
        x = rng.uniform(-0.9, 0.9)
        worst = max(worst, qexp.hermite_identity_residual(lam, x, ctx))
    _report(9, "q-Hermite series equals the q-exponential form, 10 points",
            worst, 1e-10)


def test_criterion_10_framework_consistency():
    _suite(10, "q-Jacobi instance equals direct coefficients",
           "framework.qjacobi-coeffs")
    _suite(10, "ultraspherical instance", "framework.ultraspherical")
    _suite(10, "large-parameter limit reduction", "framework.large-param-limit")
    _suite(10, "Pincherle ratio and eigenvalue pole", "framework.cf-pincherle")


def test_criterion_11_q_coulomb():
    _suite(11, "reality on a 50-point rho grid", "spectral.coulomb")
    _suite(11, "Markov ratio vs Stieltjes transform (n=60)",
           "spectral.markov")


def test_criterion_12_cli(tmp_path, verify_all):
    # the verify.csv of this run is also checked against tests/golden
    rc, _, seconds = verify_all
    ok = rc == 0
    print(f"ACCEPTANCE 12 {'PASS' if ok else 'FAIL'} verify all exits 0 "
          f"({seconds:.0f}s)")
    assert ok
    stable = True
    for cmd in (["poly", "--degree", "4", "--grid", "7"],
                ["eigen", "--count", "3", "--trunc", "40"],
                ["coulomb", "--grid", "9"]):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        stable = stable and a.read_bytes() == b.read_bytes()
    print(f"ACCEPTANCE 12 {'PASS' if stable else 'FAIL'} golden CSV "
          f"byte-stable across reruns")
    assert stable
