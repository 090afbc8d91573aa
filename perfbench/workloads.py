"""The benchmark's three workloads.

Each workload is a fixed list of operations made from the seed.  An
operation's ``run`` is the timed call into awspec; its ``check`` runs
after the pass, untimed, and compares the output against a second route
or a property the method must have.  A check returns None when the output
is right and a one-line reason otherwise.

What sets how much work an operation does is held fixed or drawn inside
a fixed stratum: grid sizes, degrees and counts are fixed per operation,
and every continuous parameter that sets a cost (q, |mu|, and in the CLI
requests the level, r, ell, eta and rho_max) is drawn near the centre of
a stratum fixed per operation.  So every seed gives a pass of nearly the
same cost; the seed moves those parameters inside their strata, and draws
the angle of mu, the sample points, the polynomials and the order of the
operations.
"""
import cmath
import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from awspec import awop, cli, qpolys, spectral
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # recognises the exception of a known program fault this operation
    # always hits
    known_fault: Optional[Callable[[BaseException], bool]] = None


@dataclass
class Workload:
    ops: list
    warm_up: Callable[[], None]


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _strata(rng, n, lo, hi, jitter=0.1, mix=None):
    """One draw in each of n equal strata of [lo, hi], kept near the
    stratum centre so the cost of a pass barely moves with the seed.
    With ``mix``, the strata come in a fixed order made from that
    constant, not from the seed, so that the parameters of one request
    are not all low or all high together."""
    width = (hi - lo) / max(n, 1)
    ks = range(n) if mix is None else np.random.default_rng(mix).permutation(n)
    return [lo + width * (k + 0.5 + jitter * rng.uniform(-1.0, 1.0))
            for k in ks]


# ---------------------------------------------------------------------------
# closed-form: b_0..b_20(mu) by the closed form, checked by the recurrence
# ---------------------------------------------------------------------------

BN_LEVELS = [(0.3, -0.2), (0.5, 0.5), (0.3 + 0.5j, 0.3 - 0.5j)]
BN_QS = [0.36, 0.5, 0.8]
BN_NMAX = 20
BN_PER_CELL = 3  # mu draws per (level, q): 27 draws, 594 operations a pass
BN_TOL = 1e-10  # tolerance of the spectral.bn-closed-form verify suite


def _bn_check(n, seq, value):
    err = _rel(value, seq["b"][n])
    return None if err <= BN_TOL else f"b_{n} closed form vs recurrence {err:.2e}"


def _finite(values):
    ok = all(cmath.isfinite(v) for v in values)
    return None if ok else "non-finite recurrence value"


def closed_form(rng, workdir):
    """One operation per b_n(mu), n = 0..20, and one per recurrence
    b_0..b_20(mu); the closed form is checked against the recurrence
    computed in the same pass."""
    ops = []
    for al, be in BN_LEVELS:
        level = JacobiLevel(al, be)
        for q in BN_QS:
            ctx = QContext(q)
            # |mu| stratified by area over the disc |mu| <= 3: the mpmath
            # escalation, and so the cost, grows with |mu|^n
            for u in _strata(rng, BN_PER_CELL, 0.0, 1.0):
                mu = 3.0 * math.sqrt(u) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                seq = {}

                def recurrence(mu=mu, level=level, ctx=ctx, seq=seq):
                    seq["b"] = spectral.bn_sequence(BN_NMAX, mu, level, ctx)
                    return seq["b"]

                ops.append(Op(f"bn_sequence q={q}", recurrence, _finite))
                for n in range(BN_NMAX + 1):
                    ops.append(Op(f"bn_explicit q={q}",
                                  lambda n=n, mu=mu, level=level, ctx=ctx:
                                  spectral.bn_explicit(n, mu, level, ctx),
                                  partial(_bn_check, n, seq)))
    # checks run after the pass, so the order within it is free
    rng.shuffle(ops)

    def warm_up():
        # the first escalation imports mpmath
        spectral.bn_explicit(BN_NMAX, 3.0, JacobiLevel(*BN_LEVELS[2]),
                             QContext(0.8))

    return Workload(ops, warm_up)


# ---------------------------------------------------------------------------
# spectrum: eigenvalues of T, the eigen-relation, the right inverse
# ---------------------------------------------------------------------------

# (alpha, beta), q, and how many checks of T a = lambda a, D_q T g = g and
# T P_n = t_factor(n) P_{n+1} run at that level: 101 operations a pass.
# One T application costs 0.03 s at q = 0.36 and 0.4 s at q = 0.8
# (kernel_truncation grows like 1/(1-q)), so high q gets few of them and a
# pass stays near 5 s.  Each check at each q has its own, nearly fixed
# cost, so the counts also place op_p50_s inside the 36 relation checks at
# q = 0.36 and op_p90_s inside the 6 D_q T g checks at q = 0.5, away from
# a jump between two costs, where the seed's small moves would flip it.
SPECTRUM_GROUPS = [((0.4, 0.4), 0.36, 36, 6, 20),
                   ((0.3, -0.2), 0.5, 12, 6, 6),
                   ((0.3 + 0.5j, 0.3 - 0.5j), 0.6, 6, 2, 2),
                   ((0.3 + 0.5j, 0.3 - 0.5j), 0.8, 1, 0, 0)]
SPECTRUM_COUNT = 3
SPECTRUM_NODES = 48  # T a = lambda a holds to 1e-14 at every level here


def _eig_check(level, ctx, res):
    if len(res) != SPECTRUM_COUNT:
        return f"{len(res)} eigenvalues, expected {SPECTRUM_COUNT}"
    oracles = [spectral.matrix_oracle(n, level, ctx) for n in (40, 80)]
    for r in res:
        if not r.converged:
            return f"lambda={r.lam} not converged"
        if r.residual_f > 1e-9:
            return f"|F(mu)| = {r.residual_f:.2e}"
        for ev in oracles:
            d = float(np.min(np.abs(ev - r.lam))) / abs(r.lam)
            if d > 1e-8:
                return f"lambda={r.lam} off the matrix oracle by {d:.2e}"
    return None


def _coeff_fn(coeffs, ctx):
    return lambda t: awop.eval_coeffvector(coeffs, t, ctx)


def _poly_fn(cs):
    return lambda t: sum(c * t ** k for k, c in enumerate(cs))


def spectrum(rng, workdir):
    ops = []
    for (al, be), q, n_rel, n_rinv, n_ladder in SPECTRUM_GROUPS:
        level, ctx = JacobiLevel(al, be), QContext(q)
        rule = awop.make_rule(SPECTRUM_NODES)
        found = {}

        def locate(level=level, ctx=ctx, found=found):
            found["res"] = spectral.eigenvalues(level, ctx, count=SPECTRUM_COUNT,
                                                nmat=80)
            return found["res"]

        ops.append(Op(f"eigenvalues q={q}", locate, partial(_eig_check, level, ctx)))
        group = []
        for k, x in enumerate(_strata(rng, n_rel, -0.85, 0.85, 0.5)):
            j = k % SPECTRUM_COUNT

            def relation(j=j, x=x, level=level, ctx=ctx, rule=rule, found=found):
                r = found["res"][j]
                return r, awop.t_quadrature(_coeff_fn(r.coeffs, ctx), x, level,
                                            rule, ctx)

            def relation_check(out, x=x, ctx=ctx):
                r, ta = out
                err = abs(ta - r.lam * awop.eval_coeffvector(r.coeffs, x, ctx))
                return None if err <= 1e-6 else f"|T a - lambda a| = {err:.2e}"

            group.append(Op(f"eigen-relation q={q}", relation, relation_check))
        for k, x in enumerate(_strata(rng, n_rinv, -0.8, 0.8, 0.5)):
            g = _poly_fn(rng.standard_normal(k % 6 + 1))

            def rinv(g=g, x=x, level=level, ctx=ctx, rule=rule):
                return awop.dq_pointwise(
                    lambda t: awop.t_quadrature(g, t, level, rule, ctx), x, ctx)

            def rinv_check(out, g=g, x=x):
                err = _rel(out, g(x))
                return None if err <= 1e-7 else f"|D_q T g - g| = {err:.2e}"

            group.append(Op(f"right-inverse q={q}", rinv, rinv_check))
        for k, x in enumerate(_strata(rng, n_ladder, -0.8, 0.8, 0.5)):
            n, lvl1 = k % 5, level.shifted(1)

            def ladder(n=n, x=x, level=level, lvl1=lvl1, ctx=ctx, rule=rule):
                return awop.t_quadrature(
                    lambda t: qpolys.cqjacobi(n, lvl1, t, ctx), x, level, rule, ctx)

            def ladder_check(out, n=n, x=x, level=level, ctx=ctx):
                want = (awop.t_factor(n, level, ctx.q)
                        * qpolys.cqjacobi(n + 1, level, x, ctx))
                err = _rel(out, want)
                return None if err <= 1e-7 else f"|T P_n - t_n P_n+1| = {err:.2e}"

            group.append(Op(f"t-ladder q={q}", ladder, ladder_check))
        # the located eigenvalues feed this level's relation checks, so only
        # the operations after them are shuffled
        rng.shuffle(group)
        ops += group

    def warm_up():
        level, ctx = JacobiLevel(0.3, -0.2), QContext(0.3)
        spectral.matrix_oracle(10, level, ctx)
        awop.t_quadrature(lambda t: t, 0.2, level, awop.make_rule(16), ctx)

    return Workload(ops, warm_up)


# ---------------------------------------------------------------------------
# cli-requests: one-shot requests through awspec.cli.main
# ---------------------------------------------------------------------------

CLI_Q = (0.3, 0.8)
# kernel and eigen requests cost far more as q grows (kernel_truncation
# grows like 1/(1-q)): kernel --grid 2 takes 0.6 s at q = 0.76 against
# 0.04 s at q = 0.34, eigen --count 1 takes 2 to 4 s at q = 0.8 against
# 0.2 s at q = 0.3.  Drawn over all of CLI_Q, the few highest-q of them
# made half of a pass and moved its time by 15% from seed to seed, so
# they draw q from the low end; the other commands cover all of CLI_Q.
CLI_Q_HEAVY = {"kernel": (0.3, 0.6), "eigen": (0.3, 0.45)}
# One request per entry, 98 here and 2 below, so op_p90_s has ten beyond
# it.  Sizes are fixed per entry; q is drawn inside the entry's own stratum
# of its command's q range.  These expand requests use even grids, which
# never hold x = 0.
CLI_PLAN = {
    "poly": [["--degree", 2 + k % 5, "--grid", 5 + 4 * (k % 5)] for k in range(30)],
    "coulomb": [["--grid", 10 + 10 * (k % 5)] for k in range(20)],
    "expand": [["--mmax", 15 + 5 * (k % 3), "--grid", 2 + 2 * (k % 4)]
               for k in range(20)],
    "eigfun": [["--index", k % 2, "--grid", 9 + 4 * (k % 4), "--trunc", 40]
               for k in range(20)],
    "kernel": [["--grid", 2] for k in range(6)],
    "eigen": [["--count", 1, "--trunc", 40, "--nodes", 64] for k in range(2)],
}
# the README's own `awspec expand` at its default grid of 9 points, which
# holds x = 0: qexp.eq_exp takes math.log10(0) there, for every q
CLI_KNOWN_FAULT = [["expand", "--q", "0.5"],
                   ["expand", "--q", "0.8", "--alpha", "0.3+0.5j", "--beta", "conj"]]


def _is_log10_zero(exc):
    return type(exc) is ValueError and str(exc) == "math domain error"


def _fmt_arg(v):
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j"
    return str(v)


def _read_rows(path, fmt):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        doc = json.loads(text)
        if set(doc) != {"config", "results", "diagnostics"}:
            raise ValueError(f"json keys {sorted(doc)}")
        return doc["results"], doc["diagnostics"]
    return list(csv.DictReader(text.splitlines())), None


def _num(row, re_key, im_key=None):
    v = complex(float(row[re_key]), float(row[im_key]) if im_key else 0.0)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ValueError(f"non-finite {re_key}")
    return v


def _ctx_level(argv):
    """The request's arguments, context and level, read back from argv."""
    args = cli.build_parser().parse_args(argv)
    alpha = complex(args.alpha)
    beta = alpha.conjugate() if args.beta == "conj" else complex(args.beta)
    return args, QContext(args.q, args.tol), JacobiLevel(alpha, beta)


def _check_poly(argv, rows, diag):
    args, ctx, level = _ctx_level(argv)
    if len(rows) != (args.degree + 1) * args.grid:
        return f"{len(rows)} rows"
    for row in rows:
        n, x = int(row["n"]), float(row["x"])
        want = qpolys.cqjacobi(n, level, x, ctx, method="phi")
        err = _rel(_num(row, "value_re", "value_im"), want)
        # the 4phi3 sheds q^{-n(n-1)/2} to cancellation; measured over
        # q in [0.3, 0.8], n <= 6, its error stays below 7e-14 times that
        if err > 1e-12 * ctx.q ** (-n * (n - 1) / 2):
            return f"P_{n}({x}) vs terminating 4phi3: {err:.2e}"
    return None


def _check_kernel(argv, rows, diag):
    args, _, _ = _ctx_level(argv)
    if len(rows) != args.grid ** 2:
        return f"{len(rows)} rows"
    for row in rows:
        _num(row, "value_re", "value_im")
    return None


def _check_eigfun(argv, rows, diag):
    args, ctx, level = _ctx_level(argv)
    coeffs = [_num(r, "value_re", "value_im") for r in rows if r["kind"] == "coeff"]
    samples = [(float(r["index_or_x"]), _num(r, "value_re", "value_im"))
               for r in rows if r["kind"] == "sample"]
    if len(samples) != args.grid or len(coeffs) < 12 or coeffs[:2] != [0, 1]:
        return "malformed table"
    # the coefficients obey -lambda a_k s = P a_{k+1} + Q a_k + R a_{k-1};
    # lambda from k = 1, then the relation at k = 2..10
    s = -ctx.q ** -(complex(level.alpha) / 2 + 0.25)
    P, Q, R = spectral.recurrence_a_coeffs(1, level, ctx)
    lam = s * (P * coeffs[2] + Q * coeffs[1] + R * coeffs[0]) / coeffs[1]
    for k in range(2, 11):
        P, Q, R = spectral.recurrence_a_coeffs(k, level, ctx)
        terms = (P * coeffs[k + 1], Q * coeffs[k], R * coeffs[k - 1])
        err = abs(lam * coeffs[k] - s * sum(terms)) / max(abs(s * t) for t in terms)
        if err > 1e-9:
            return f"a_k recurrence at k={k}: {err:.2e}"
    oracle = spectral.matrix_oracle(80, level, ctx)
    if float(np.min(np.abs(oracle - lam))) > 1e-8 * abs(lam):
        return f"lambda={lam} not an eigenvalue of the matrix oracle"
    if diag is not None:
        got = complex(float(diag["lambda_re"]), float(diag["lambda_im"]))
        if abs(got - lam) > 1e-8 * abs(lam):
            return "diagnostics lambda differs from the coefficients"
    # the terminating 4phi3 sheds q^{-n(n-1)/2} digits, too many at the
    # degrees an eigenfunction reaches, so the samples are only checked
    # against the coefficient rows they are printed from
    vec = awop.CoeffVector(level, tuple(coeffs))
    for x, v in samples:
        err = _rel(v, awop.eval_coeffvector(vec, x, ctx))
        if err > 1e-12:
            return f"sample at x={x} vs its coefficients: {err:.2e}"
    return None


def _check_expand(argv, rows, diag):
    args, _, _ = _ctx_level(argv)
    coeffs = [r for r in rows if r["kind"] == "coeff"]
    resid = [r for r in rows if r["kind"] == "residual"]
    if len(coeffs) != args.mmax + 1 or len(resid) != args.grid:
        return "malformed table"
    for r in coeffs:
        _num(r, "value_re", "value_im")
    worst = max(abs(_num(r, "value_re")) for r in resid)
    return None if worst <= 1e-8 else f"expansion residual {worst:.2e}"


def _check_coulomb(argv, rows, diag):
    args, _, _ = _ctx_level(argv)
    if len(rows) != args.grid:
        return f"{len(rows)} rows"
    for r in rows:
        v = _num(r, "value_re", "value_im")
        if abs(v.imag) > 1e-12 * max(1.0, abs(v)):
            return f"q-Coulomb not real at rho={r['rho']}: Im {v.imag:.2e}"
    return None


def _check_eigen(argv, rows, diag):
    args, ctx, level = _ctx_level(argv)
    if len(rows) != args.count:
        return f"{len(rows)} rows"
    oracle = spectral.matrix_oracle(2 * args.trunc, level, ctx)
    for r in rows:
        if r["converged"] != "true":
            return f"row {r['index']} not converged"
        lam = _num(r, "lambda_re", "lambda_im")
        if float(r["residual_f"]) > 1e-9 or float(r["residual_operator"]) > 1e-6:
            return f"row {r['index']} residuals {r['residual_f']} {r['residual_operator']}"
        if float(np.min(np.abs(oracle - lam))) > 1e-8 * abs(lam):
            return f"lambda={lam} not an eigenvalue of the matrix oracle"
    return None


CLI_CHECKS = {"poly": _check_poly, "kernel": _check_kernel,
              "eigfun": _check_eigfun, "expand": _check_expand,
              "coulomb": _check_coulomb, "eigen": _check_eigen}


def _cli_op(i, argv, workdir):
    fmt = "json" if i % 2 else "csv"
    out = os.path.join(workdir, f"req{i:03d}.{fmt}")
    full = [str(a) for a in argv] + ["--format", fmt, "--out", out]

    def run():
        try:
            rc = cli.main(full)
        except SystemExit as exc:  # argparse rejected the request
            rc = exc.code
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return out

    def check(path):
        rows, diag = _read_rows(path, fmt)
        return CLI_CHECKS[full[0]](full, rows, diag)

    return run, check


def cli_requests(rng, workdir):
    requests = []
    for cmd, sizes in CLI_PLAN.items():
        # every parameter that sets a request's cost is drawn inside a
        # stratum fixed per entry, as in _strata
        n = len(sizes)
        qs = _strata(rng, n, *CLI_Q_HEAVY.get(cmd, CLI_Q))
        real = zip(_strata(rng, n, -0.3, 0.8, mix=1), _strata(rng, n, -0.3, 0.8, mix=2))
        conj = zip(_strata(rng, n, 0.0, 0.6, mix=3), _strata(rng, n, 0.2, 0.7, mix=4))
        for k, (q, extra, (al, be), (c_re, c_im)) in enumerate(zip(qs, sizes, real, conj)):
            if k % 3 == 2:
                al, be = complex(c_re, c_im), "conj"
            # --flag=value, since argparse reads "-0.1+0.2j" as a flag
            argv = [cmd, f"--q={q:.6f}", f"--alpha={_fmt_arg(al)}",
                    f"--beta={_fmt_arg(be)}"] + extra
            requests.append(argv)
        if cmd == "expand":
            for argv, r_re, r_im in zip(requests[-n:], _strata(rng, n, -0.5, 0.5, mix=5),
                                    _strata(rng, n, -0.3, 0.3, mix=6)):
                argv.append(f"--r={_fmt_arg(complex(r_re, r_im))}")
        elif cmd == "coulomb":
            for argv, ell, eta, rho in zip(requests[-n:], _strata(rng, n, 0.0, 1.5, mix=7),
                                           _strata(rng, n, -1.0, 1.0, mix=8),
                                           _strata(rng, n, 0.5, 2.5, mix=9)):
                argv += [f"--ell={ell:.6f}", f"--eta={eta:.6f}", f"--rho-max={rho:.6f}"]
    order = rng.permutation(len(requests))
    ops = []
    for i, j in enumerate(order):
        run, check = _cli_op(i, requests[j], workdir)
        ops.append(Op(f"cli.{requests[j][0]}", run, check))
    for i, argv in enumerate(CLI_KNOWN_FAULT, start=len(ops)):
        run, check = _cli_op(i, argv, workdir)
        ops.append(Op("cli.expand", run, check, known_fault=_is_log10_zero))

    def warm_up():
        run, _ = _cli_op(999, ["poly", "--degree", "2", "--grid", "3"], workdir)
        run()

    return Workload(ops, warm_up)


WORKLOADS = {"closed-form": closed_form, "spectrum": spectrum,
             "cli-requests": cli_requests}
