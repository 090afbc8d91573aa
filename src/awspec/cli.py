"""Command-line front end.

Subcommands: ``eigen`` (eigenvalue records), ``eigfun`` (eigenfunction
coefficients and samples), ``poly`` (polynomial tables), ``kernel``
(kernel on a grid), ``expand`` (q-exponential expansion coefficients and
residuals), ``coulomb`` (the q-Coulomb function on a rho grid) and
``verify`` (named invariant suites).

Output is deterministic: floats print with 17 significant digits in
lowercase scientific notation, rows are emitted in a fixed order, and
JSON carries numbers as strings so byte-identical reruns are guaranteed.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
import argparse
import cmath
import functools
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import awop, qexp, qpolys, spectral
from .exceptions import DomainError, QSeriesError
from .qcore import QContext
from .qpolys import JacobiLevel

USAGE_ERROR = 2


def fmt(x):
    """17-significant-digit lowercase scientific text for a real number."""
    return f"{float(x):.16e}"


def fmt_c(z):
    z = complex(z)
    return fmt(z.real), fmt(z.imag)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts with "-" and a digit is a number, not a flag:
        # argparse's own pattern misses -1e-3 and -0.3+0.5j
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        # one line, like the DomainError message of main; -h gives the usage
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def int_at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def finite(parse):
    """argparse type: a value of ``parse`` (float or complex) whose parts
    are finite."""
    def check(text):
        value = parse(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value
    check.__name__ = parse.__name__
    return check


def complex_text(text):
    """argparse type: the text of a complex number, kept as given, so the
    config echo shows --alpha and --beta as typed."""
    complex(text)
    return text


def beta_text(text):
    """argparse type of --beta: "conj", or the text of a complex number."""
    return text if text == "conj" else complex_text(text)


complex_text.__name__ = beta_text.__name__ = "complex"


def _add_common(p):
    p.add_argument("--q", type=float, default=0.5, help="base q in (0,1)")
    p.add_argument("--alpha", type=complex_text, default=0.3)
    p.add_argument("--beta", type=beta_text, default="-0.2",
                   help="beta, or 'conj' for the conjugate of alpha")
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path or - for stdout")


# flags registered only on the commands that read them
_TRUNC = {"type": int_at_least(1), "default": 80,
          "help": "rows of the matrix section the eigenvalues are first "
                  "solved on (more are added until each root settles)"}
_NODES = {"type": int_at_least(2), "default": 160, "help": "quadrature nodes"}


@functools.cache
def build_parser():
    """The ``awspec`` argument parser, built once per process: parsing
    leaves it unchanged, so every request shares it."""
    ap = _Parser(prog="awspec",
                 description="continuous q-Jacobi / Askey-Wilson spectral toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="eigenvalues of the integral operator")
    _add_common(p)
    p.add_argument("--trunc", **_TRUNC)
    p.add_argument("--nodes", **_NODES)
    p.add_argument("--count", type=int_at_least(1), default=5)

    p = sub.add_parser("eigfun", help="eigenfunction coefficients and samples")
    _add_common(p)
    p.add_argument("--trunc", **_TRUNC)
    p.add_argument("--index", type=int_at_least(0), default=0,
                   help="eigenvalue index (by descending |lambda|)")
    p.add_argument("--grid", type=int_at_least(1), default=21,
                   help="sample points in x")

    p = sub.add_parser("poly", help="table of P_n values")
    _add_common(p)
    p.add_argument("--degree", type=int_at_least(0), default=8)
    p.add_argument("--grid", type=int_at_least(1), default=21)

    p = sub.add_parser("kernel", help="kernel K(x, y) on a grid")
    _add_common(p)
    p.add_argument("--grid", type=int_at_least(1), default=11)

    p = sub.add_parser("expand", help="q-exponential expansion data")
    _add_common(p)
    p.add_argument("--r", type=finite(complex), default=0.3)
    p.add_argument("--mmax", type=int_at_least(0), default=25)
    p.add_argument("--grid", type=int_at_least(1), default=9)

    p = sub.add_parser("coulomb", help="q-Coulomb function on a rho grid")
    _add_common(p)
    p.add_argument("--ell", type=finite(float), default=0.5)
    p.add_argument("--eta", type=finite(float), default=0.3)
    p.add_argument("--rho-max", type=finite(float), default=2.5)
    p.add_argument("--grid", type=int_at_least(1), default=50)

    p = sub.add_parser("verify", help="run named verification suites")
    _add_common(p)
    p.add_argument("--nodes", **_NODES)
    p.add_argument("--suite", default="all",
                   help="suite name or 'all'")
    p.add_argument("--list", action="store_true", help="list suite names")
    return ap


def _config(args):
    """The context of --q and --tol and the level of --alpha and --beta;
    --beta conj takes the conjugate of alpha."""
    ctx = QContext(args.q, args.tol)
    alpha = complex(args.alpha)
    beta = alpha.conjugate() if args.beta == "conj" else complex(args.beta)
    return ctx, JacobiLevel(alpha, beta)


def _json_object(fields, indent):
    """The text ``json.dumps`` writes for a map at ``indent`` levels of 2
    spaces, from its fields ``"key": "value"`` in key order."""
    if not fields:
        return "{}"
    pad = "\n" + "  " * (indent + 1)
    return "{" + pad + ("," + pad).join(fields) + "\n" + "  " * indent + "}"


def _fields(mapping):
    return [encode_basestring_ascii(k) + ": " + encode_basestring_ascii(v)
            for k, v in sorted(mapping.items())]


def json_text(config, diagnostics, header, rows):
    """The CLI's JSON document: the ``config`` and ``diagnostics`` maps and
    the ``results`` list of row maps (``header`` to each row), every value
    a string, keys sorted, indent 2: the bytes of ``json.dumps(...,
    indent=2, sort_keys=True)``.  The keys of a row are escaped once per
    document, into a template that each row fills with its values."""
    order = sorted({k: j for j, k in enumerate(header)}.items())
    row = _json_object([encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                        for k, _ in order], 2)
    results = ",\n    ".join(
        [row % tuple([encode_basestring_ascii(r[j]) for _, j in order])
         for r in rows])
    return ('{\n  "config": ' + _json_object(_fields(config), 1)
            + ',\n  "diagnostics": ' + _json_object(_fields(diagnostics), 1)
            + ',\n  "results": '
            + (f"[\n    {results}\n  ]" if rows else "[]") + "\n}\n")


def _emit(args, header, rows, diagnostics):
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(r) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        config = {k: str(v) for k, v in vars(args).items() if k != "out"}
        text = json_text(config, diagnostics, header, rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_eigen(args):
    ctx, level = _config(args)
    xs, rule = np.linspace(-0.8, 0.8, 5), awop.make_rule(args.nodes)
    res = spectral.eigenvalues(level, ctx, count=args.count, nmat=args.trunc)
    header = ["index", "lambda_re", "lambda_im", "mu_re", "mu_im",
              "residual_f", "residual_operator", "converged"]
    rows = []
    for i, r in enumerate(res):
        lr, li = fmt_c(r.lam)
        mr, mi = fmt_c(r.mu)
        res_op = awop.operator_residual(r.lam, r.coeffs, xs, level, rule, ctx)
        rows.append([str(i), lr, li, mr, mi, fmt(r.residual_f),
                     fmt(res_op), str(r.converged).lower()])
    _emit(args, header, rows, {"count": str(len(res))})
    return 0


def _cmd_eigfun(args):
    ctx, level = _config(args)
    res = spectral.eigenvalues(level, ctx, count=args.index + 1,
                               nmat=args.trunc)
    if not 0 <= args.index < len(res):
        sys.stderr.write(f"error: --index {args.index} is out of range: "
                         f"{len(res)} eigenvalue(s) found\n")
        return USAGE_ERROR
    r = res[args.index]
    header = ["kind", "index_or_x", "value_re", "value_im"]
    rows = [["coeff", str(n), *fmt_c(c)] for n, c in enumerate(r.coeffs.coeffs)]
    xs = np.linspace(-0.9, 0.9, args.grid)
    values = awop.eval_coeffvector(r.coeffs, xs, ctx)
    rows += [["sample", fmt(x), *fmt_c(v)] for x, v in zip(xs, values)]
    lr, li = fmt_c(r.lam)
    _emit(args, header, rows,
          {"lambda_re": lr, "lambda_im": li, "residual_f": fmt(r.residual_f),
           "converged": str(r.converged).lower()})
    return 0


def _cmd_poly(args):
    ctx, level = _config(args)
    header = ["n", "x", "value_re", "value_im"]
    rows = []
    xs = np.linspace(-0.95, 0.95, args.grid)
    for x in xs:
        vals = qpolys.cqjacobi_seq(args.degree, level, float(x), ctx)
        for n, v in enumerate(vals):
            vr, vi = fmt_c(v)
            rows.append([str(n), fmt(x), vr, vi])
    _emit(args, header, rows, {"degree": str(args.degree)})
    return 0


def _cmd_kernel(args):
    ctx, level = _config(args)
    series = awop.kernel_truncation(level, ctx)
    header = ["x", "y", "value_re", "value_im"]
    grid = np.linspace(-0.8, 0.8, args.grid)
    values = awop.kernel_eval(grid[:, None], grid[None, :], level, ctx)
    rows = [[fmt(x), fmt(y), *fmt_c(values[i, j])]
            for i, x in enumerate(grid) for j, y in enumerate(grid)]
    _emit(args, header, rows, {"nterms": str(series.nterms),
                               "tail_bound": fmt(series.tail_bound)})
    return 0


def _cmd_expand(args):
    ctx, level = _config(args)
    header = ["kind", "index_or_x", "value_re", "value_im"]
    coeffs = qexp.am_coeff(args.mmax, args.r, level, ctx)
    xs = np.linspace(-0.8, 0.8, args.grid)
    resids = qexp.expansion_residual(coeffs, xs, args.r, level, ctx)
    rows = [["coeff", str(m), *fmt_c(a)] for m, a in enumerate(coeffs)]
    rows += [["residual", fmt(x), fmt(e), fmt(0.0)] for x, e in zip(xs, resids)]
    _emit(args, header, rows, {"r": str(args.r), "mmax": str(args.mmax)})
    return 0


def _cmd_coulomb(args):
    ctx, _ = _config(args)
    header = ["rho", "value_re", "value_im"]
    rhos = np.linspace(args.rho_max / args.grid, args.rho_max, args.grid)
    values = spectral.q_coulomb(args.ell, args.eta, rhos, ctx)
    rows = [[fmt(rho), *fmt_c(v)] for rho, v in zip(rhos, values)]
    _emit(args, header, rows, {"L": fmt(args.ell), "eta": fmt(args.eta)})
    return 0


def _cmd_verify(args):
    # imported here: no other command needs the suites, and a fresh process
    # that compiles its modules pays for them at every start
    from . import verify
    if args.list:
        for name in verify.suite_names():
            sys.stdout.write(name + "\n")
        return 0
    names = verify.suite_names() if args.suite == "all" else [args.suite]
    for n in names:
        if n not in verify.REGISTRY:
            sys.stderr.write(f"error: unknown suite {n!r}\n")
            return USAGE_ERROR
    # out-of-domain input is a usage error before any suite runs
    ctx, level = _config(args)
    cfg = verify.VerifyConfig(level, ctx, args.nodes)
    results = [verify.run_suite(n, cfg) for n in names]
    header = ["suite", "passed", "max_err", "tol", "detail"]
    rows = [[r.name, str(r.passed).lower(), fmt(r.max_err), fmt(r.tol),
             r.detail.replace(",", ";")] for r in results]
    failed = [r for r in results if not r.passed]
    _emit(args, header, rows,
          {"failed": str(len(failed)), "total": str(len(results))})
    return 1 if failed else 0


_COMMANDS = {
    "eigen": _cmd_eigen,
    "eigfun": _cmd_eigfun,
    "poly": _cmd_poly,
    "kernel": _cmd_kernel,
    "expand": _cmd_expand,
    "coulomb": _cmd_coulomb,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, QSeriesError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
