import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest

from awspec import awop, cli, qexp, qpolys, spectral, verify
from awspec.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _run(argv):
    # the checkout's src goes first, so a bare pytest run finds awspec too
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "awspec.cli"] + argv,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_import_loads_no_suite_and_no_mpmath():
    # every request starts a process that imports awspec.cli; only verify
    # needs the suites, and mpmath loads where a computation asks for it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, awspec.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('mpmath', 'scipy') or m == 'awspec.verify'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


class TestUsage:
    def test_missing_subcommand_is_usage_error(self):
        r = _run([])
        assert r.returncode == 2

    def test_bad_flag_value_is_usage_error(self):
        r = _run(["eigen", "--q", "nope"])
        assert r.returncode == 2
        assert "usage" in r.stderr.lower() or "error" in r.stderr.lower()

    def test_unknown_suite_is_usage_error(self, tmp_path):
        rc = main(["verify", "--suite", "no.such.suite",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_eigfun_index_past_the_eigenvalues_found(self):
        # three matrix seeds give fewer than six eigenvalues
        r = _run(["eigfun", "--index", "5", "--trunc", "3"])
        assert r.returncode == 2
        assert len(r.stderr.strip().splitlines()) == 1
        assert "--index 5" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv,flag", [
        (["eigen", "--nodes", "0", "--count", "1"], "--nodes"),
        (["eigen", "--trunc", "0", "--count", "1"], "--trunc"),
        (["poly", "--grid", "-1"], "--grid"),
        (["kernel", "--grid", "-1"], "--grid"),
        (["eigfun", "--grid", "-1"], "--grid"),
        (["expand", "--mmax", "-1"], "--mmax"),
        (["poly", "--degree", "-1"], "--degree"),
        # a 1-node rule resolves no moment of T
        (["eigen", "--nodes", "1", "--count", "1"], "--nodes"),
        (["verify", "--suite", "awop.kernel-coeff", "--nodes", "1"], "--nodes"),
        # asked for eigenvalues past the seeds and exited 1 with a traceback
        (["eigfun", "--index", "-3"], "--index"),
    ])
    def test_sizes_below_one_are_usage_errors(self, argv, flag):
        r = _run(argv)
        assert r.returncode == 2
        assert len(r.stderr.strip().splitlines()) == 1
        assert f"argument {flag}" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [["kernel", "--q", "1.2"],
                                      ["poly", "--q", "1.5"],
                                      ["verify", "--suite", "qcore.heine",
                                       "--q", "1.5"]])
    def test_out_of_domain_q(self, argv):
        r = _run(argv)
        assert r.returncode == 2
        assert r.stderr.startswith("error: q must be in (0,1)")
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["coulomb", "--tol", "inf", "--grid", "2"],
                                      ["kernel", "--tol", "nan", "--grid", "2"]])
    def test_tol_outside_zero_one_is_usage_error(self, argv):
        r = _run(argv)
        assert r.returncode == 2
        assert r.stderr.startswith("error: tol must be finite and in (0,1)")
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["poly", "--alpha", "nan", "--grid", "2"],
        ["poly", "--alpha", "inf", "--grid", "2"],
        ["poly", "--beta=-inf", "--grid", "2"],
        ["verify", "--suite", "qpolys.orthogonality", "--alpha", "nan"],
        ["verify", "--suite", "qpolys.orthogonality", "--beta", "inf"],
    ])
    def test_non_finite_level_is_usage_error(self, argv):
        # exited 0 with NaN rows or a passed suite, or 1 with a traceback
        r = _run(argv)
        assert r.returncode == 2
        assert r.stderr.startswith("error: alpha and beta must be finite")
        assert len(r.stderr.strip().splitlines()) == 1
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv,flag", [
        (["coulomb", "--ell", "nan"], "--ell"),
        (["coulomb", "--eta", "inf"], "--eta"),
        (["coulomb", "--rho-max", "inf"], "--rho-max"),
        (["coulomb", "--rho-max=-inf"], "--rho-max"),
        (["expand", "--r", "nan"], "--r"),
        (["expand", "--r", "0.3+nanj"], "--r"),
        (["expand", "--r", "infj"], "--r"),
    ])
    def test_non_finite_float_flag_is_usage_error(self, argv, flag):
        # --rho-max inf wrote a numpy RuntimeWarning before its error line;
        # --ell nan and --r nan were blamed on the series
        r = _run(argv)
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: argument {flag}: must be finite")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_expand_past_the_reach_of_the_series(self):
        # at |ab| = 0.99 E_q needs ~6,800 terms, and the expansion still
        # closes to rounding level
        r = _run(["expand", "--q", "0.3", "--r", "0.99", "--grid", "2",
                  "--mmax", "30"])
        assert r.returncode == 0, r.stderr
        rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
        residuals = [float(row[2]) for row in rows if row[0] == "residual"]
        assert len(residuals) == 2 and max(residuals) <= 1e-13

    @pytest.mark.parametrize("command, q", [
        ("poly", "0.5"), ("expand", "0.5"), ("poly", "0.36"), ("expand", "0.36")],
        ids=["poly", "expand", "poly-0.36", "expand-0.36"])
    def test_alpha_minus_one_is_a_domain_error(self, command, q):
        # at alpha = -1 the factor 1 - q^{alpha+1} of P_1 is 0, exactly at
        # every q: no finite value to print, and the expansion reads P_1 too
        r = _run([command, "--alpha=-1", "--beta", "0", "--q", q])
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_coulomb_empty_grid(self):
        r = _run(["coulomb", "--grid", "0"])
        assert r.returncode == 2
        assert len(r.stderr.strip().splitlines()) == 1
        assert "--grid" in r.stderr and "Traceback" not in r.stderr


COMMON_FLAGS = ["--q", "--alpha", "--beta", "--tol", "--format", "--out"]
# each command's flags beyond COMMON_FLAGS: --trunc and --nodes only where
# the command reads them
COMMAND_FLAGS = {
    "eigen": ["--trunc", "--nodes", "--count"],
    "eigfun": ["--trunc", "--index", "--grid"],
    "poly": ["--degree", "--grid"],
    "kernel": ["--grid"],
    "expand": ["--r", "--mmax", "--grid"],
    "coulomb": ["--ell", "--eta", "--rho-max", "--grid"],
    "verify": ["--nodes", "--suite", "--list"],
}


class TestOptionInventory:
    def test_flags_of_each_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: [a.option_strings[-1] for a in p._actions
                      if a.option_strings and a.dest != "help"]
               for name, p in sub.choices.items()}
        assert got == {name: COMMON_FLAGS + extra
                       for name, extra in COMMAND_FLAGS.items()}

    @pytest.mark.parametrize("argv,flag", [
        (["poly", "--trunc", "3"], "--trunc"),
        (["kernel", "--nodes", "64"], "--nodes"),
        (["verify", "--trunc", "3"], "--trunc"),
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, flag):
        r = _run(argv)
        assert r.returncode == 2
        assert len(r.stderr.strip().splitlines()) == 1
        assert r.stderr.startswith("error: unrecognized arguments")
        assert flag in r.stderr


class TestOutputs:
    def test_poly_csv_shape(self, tmp_path):
        out = tmp_path / "poly.csv"
        rc = main(["poly", "--degree", "3", "--grid", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,x,value_re,value_im"
        assert len(lines) == 1 + 4 * 5

    def test_poly_json_structure(self, tmp_path):
        out = tmp_path / "poly.json"
        rc = main(["poly", "--degree", "2", "--grid", "3", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "results", "diagnostics"}
        assert all(isinstance(v, str) for row in doc["results"]
                   for v in row.values())

    @pytest.mark.parametrize("doc", [
        ({}, {}, [], []),
        ({"q": "0.5"}, {}, ["n", "x"], []),
        ({"b": "1", "a": "2"}, {"count": "0"}, ["z", "a", "m"],
         [["1", "2", "3"], ["4", "5", "6"]]),
        ({"alpha": 'say "hi"', "path": "C:\\out\\x"}, {"r": "\u00e9\u2603\n"},
         ["\u00fc", "u", "%s", 'k"ey', "b\\s"],
         [["\\", '"', "\u00e9", "\t\u0000", "\U0001f600%"]]),
        ({"e": "1", "\u00e9": "2", "f": "3"}, {}, ["b", "a", "b"],
         [["1", "2", "3"]]),
        ({}, {"k": "v"}, [], [[], []]),
    ], ids=["empty", "no-rows", "unsorted-header", "escapes", "non-ascii-keys",
            "empty-rows"])
    def test_json_text_is_the_json_dumps_document(self, doc):
        assert cli.json_text(*doc) == oracles.json_document(*doc)

    def test_alpha_echo_is_the_text_given(self, tmp_path):
        # the default and an explicit --alpha 0.3 write the same bytes
        outs = []
        for extra in ([], ["--alpha", "0.3"]):
            out = tmp_path / f"p{len(outs)}.json"
            assert main(["poly", "--grid", "2", "--format", "json",
                         "--out", str(out)] + extra) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["config"]["alpha"] == "0.3"
        out = tmp_path / "c.json"
        assert main(["poly", "--alpha=-0.3+0.5j", "--beta", "conj", "--grid",
                     "2", "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["alpha"] == "-0.3+0.5j"

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_level_flag_that_is_not_a_number_is_a_usage_error(self, flag):
        r = _run(["poly", flag, "foo"])
        assert r.returncode == 2
        assert r.stderr == f"error: argument {flag}: invalid complex value: 'foo'\n"

    @pytest.mark.parametrize("argv", [
        ["kernel", "--grid", "4"],
        ["kernel", "--grid", "3", "--q", "0.7", "--alpha", "0.3+0.5j",
         "--beta", "conj"],
    ])
    def test_kernel_reports_the_truncation_it_sums(self, tmp_path, argv):
        # the printed nterms, tail bound and values are computed apart; all
        # must be the kernel_truncation of the request's level
        out = tmp_path / "k.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        args = build_parser().parse_args(argv)
        ctx, level = cli._config(args)
        series = awop.kernel_truncation(level, ctx)
        nterms = series.nterms
        assert doc["diagnostics"]["nterms"] == str(nterms)
        bound = float(doc["diagnostics"]["tail_bound"])
        assert bound == series.tail_bound and bound <= ctx.tol
        grid = np.linspace(-0.8, 0.8, args.grid)
        py = np.array(qpolys.cqjacobi_seq(nterms - 1, level.shifted(1),
                                          grid[None, :], ctx))
        want = awop._kernel_sum(grid[:, None], py, level, ctx)
        got = [(row["value_re"], row["value_im"]) for row in doc["results"]]
        assert got == [cli.fmt_c(v) for v in want.ravel()]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["eigen", "--count", "3", "--trunc", "40",
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_coulomb_grid_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["coulomb", "--grid", "7", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 8

    @pytest.mark.parametrize("argv", [
        ["expand", "--q", "0.5"],
        ["expand", "--q", "0.8", "--alpha", "0.3+0.5j", "--beta", "conj"],
    ])
    def test_expand_default_grid_holds_x_zero(self, tmp_path, argv):
        # the default 9-point grid holds x = 0, where every odd term of
        # E_q(x; -i, r) vanishes
        out = tmp_path / "e.csv"
        assert main(argv + ["--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        resid = [r for r in rows if r[0] == "residual"]
        assert len(resid) == 9 and float(resid[4][1]) == 0.0
        assert max(float(r[2]) for r in resid) <= 1e-12

    def test_zero_degree_and_mmax_stay_valid(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["poly", "--degree", "0", "--grid", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3
        assert main(["expand", "--mmax", "0", "--grid", "2", "--out", str(out)]) == 0
        kinds = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert kinds == ["coeff", "residual", "residual"]

    @pytest.mark.parametrize("command,flag,value,rest", [
        ("poly", "--alpha", "-1e-3", []),
        ("poly", "--beta", "-2e-1", []),
        ("poly", "--alpha", "-0.3+0.5j", ["--beta", "conj"]),
        ("expand", "--r", "-0.1+0.2j", ["--mmax", "3"]),
    ])
    def test_negative_value_parses_as_its_equals_form(self, capsys, command, flag,
                                                       value, rest):
        # argparse took "-1e-3" or "-0.3+0.5j" for a flag: "expected one argument"
        rest = rest + ["--grid", "3", "--format", "json"]
        assert main([command, f"{flag}={value}", *rest]) == 0
        want = capsys.readouterr().out
        assert main([command, flag, value, *rest]) == 0
        assert capsys.readouterr().out == want

    def test_eigfun_json_reports_convergence(self, tmp_path):
        # the eigen rows carry the flag; eigfun's diagnostics did not
        out = tmp_path / "f.json"
        assert main(["eigfun", "--format", "json", "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert set(diagnostics) == {"lambda_re", "lambda_im", "residual_f",
                                    "converged"}
        ctx, level = cli._config(build_parser().parse_args(["eigfun"]))
        root = spectral.eigenvalues(level, ctx, count=1, nmat=80)[0]
        assert diagnostics["converged"] == str(root.converged).lower() == "true"

    def test_eigfun_sweep_exits_0_or_2(self, capsys):
        # random levels, q down to 1e-9, indices and sections: each request
        # prints finite rows, or exits 2 with one error line; the monic b_n
        # recurrence exited 2 on 56 of them, its C_k having underflowed
        rng = np.random.default_rng(2023)
        codes = []
        for _ in range(150):
            q = 10 ** rng.uniform(-9, -0.02)
            alpha = rng.uniform(-0.9, 2.5)
            if rng.random() < 0.3:
                level = [f"--alpha={alpha:.3f}{rng.uniform(-1, 1):+.3f}j",
                         "--beta", "conj"]
            else:
                level = [f"--alpha={alpha:.3f}", f"--beta={rng.uniform(-0.9, 2.5):.3f}"]
            argv = ["eigfun", "--q", f"{q:.3g}", *level,
                    "--index", str(rng.integers(0, 3)),
                    "--trunc", str(rng.integers(10, 81)), "--grid", "3"]
            rc = main(argv)
            codes.append(rc)
            out, err = capsys.readouterr()
            if rc == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, argv
                continue
            assert rc == 0 and not err, argv
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert all(math.isfinite(float(v)) for r in rows for v in r[2:]), argv
        assert codes.count(0) >= 135

    @pytest.mark.parametrize("q", ["0.994", "0.995", "0.999"])
    @pytest.mark.parametrize("command", ["kernel", "eigen", "eigfun", "poly",
                                         "expand", "coulomb"])
    def test_near_one_exits_0_or_2(self, capsys, command, q):
        # the products of h_0 underflowed to 0 and kernel divided by them
        rc = main([command, "--q", q])
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert not err

    def test_eigen_past_the_tiny_seeds(self, tmp_path):
        # the 22nd seed's eigenfunction overflowed in xi ** -k: exit 1, traceback
        out = tmp_path / "e.csv"
        assert main(["eigen", "--count", "21", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == [str(i) for i in range(21)]
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:7])

    def test_eigen_lists_each_root_once(self, tmp_path):
        # Newton from two tiny seeds could land on one root; each root is
        # listed once, and a seed that lands on a listed one says so
        out = tmp_path / "e.csv"
        assert main(["eigen", "--count", "30", "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        lams = [complex(float(r[1]), float(r[2]))
                for r in (line.split(",") for line in lines[1:])]
        assert len(lams) == 30
        assert all(abs(a - b) > 1e-10 * abs(a) for i, a in enumerate(lams)
                   for b in lams[:i])
        # Newton refines every seed, the tiny ones too
        assert all(line.rstrip().endswith(",true") for line in lines[1:])
        # the header and rows 0-25, which the de-duplication must not move;
        # pinned after the entire series of F moved only residual_f
        digest = hashlib.md5("".join(lines[:27]).encode()).hexdigest()
        assert digest == "814fef85e1b988f3306b670b7eed7c25"

    @pytest.mark.parametrize("alpha", ["0.3", "0.3+0.5j"])
    def test_eigen_and_eigfun_at_tiny_q(self, tmp_path, alpha):
        # at q = 1e-4 the coefficients a_k fall below the smallest normal
        # float from k = 19 on and are exact zeros; the monic b_n recurrence
        # that once gave them divided by its C_k, which underflows to 0 for
        # k >= 80, from k = 88 down: exit 1, traceback
        level = ["--q", "1e-4", "--alpha", alpha] + (["--beta", "conj"]
                                                     if "j" in alpha else [])
        out = tmp_path / "e.csv"
        assert main(["eigen", "--count", "1", "--out", str(out)] + level) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[-1] == "true" and float(row[6]) <= 1e-12
        assert main(["eigfun", "--out", str(out)] + level) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        samples = [r for r in rows if r[0] == "sample"]
        assert len(samples) == 21
        assert all(math.isfinite(float(v)) for r in rows for v in r[2:])

    @pytest.mark.parametrize("q", ["1e-7", "1e-8"])
    @pytest.mark.parametrize("alpha", ["0.3", "0.3+0.5j"], ids=["real", "conj"])
    def test_eigfun_where_the_monic_recurrence_underflowed(self, tmp_path, q,
                                                            alpha):
        # the monic b_n recurrence's C_k underflowed below the 48
        # coefficients kept: exit 2, "C_k underflows"
        level = ["--q", q, "--alpha", alpha] + (["--beta", "conj"]
                                                if "j" in alpha else [])
        out = tmp_path / "f.json"
        assert main(["eigfun", "--format", "json", "--out", str(out)] + level) == 0
        doc = json.loads(out.read_text())
        lam = complex(float(doc["diagnostics"]["lambda_re"]),
                      float(doc["diagnostics"]["lambda_im"]))
        parts = [(float(r["value_re"]), float(r["value_im"]))
                 for r in doc["results"] if r["kind"] == "coeff"]
        assert len(parts) == 49
        assert all(v == 0.0 or sys.float_info.min <= abs(v) < math.inf
                   for part in parts for v in part)
        a = [complex(*part) for part in parts]
        assert a[:2] == [0.0, 1.0] and all(a[1:12])
        ctx, lv = cli._config(build_parser().parse_args(["eigfun"] + level))
        rows = spectral._oracle_rows(11, lv, ctx)
        for k in range(2, 11):
            sP, sQ, sR = rows[k - 1]
            terms = [lam * a[k], sR * a[k - 1], sQ * a[k], sP * a[k + 1]]
            scale = max(abs(t) for t in terms)
            assert abs(terms[0] - sum(terms[1:])) <= 1e-9 * scale, k

    def test_eigen_where_newton_on_f_met_a_pole(self, capsys):
        # Newton on F met the pole of F's 2phi1 from the seed of a small
        # root: exit 2, "phi_terms: denominator factor vanished at k=1";
        # solved on the section's rows it exits 0
        rc = main(["eigen", "--q", "1.80636e-06", "--alpha=-0.917",
                   "--beta=2.069"])
        out, err = capsys.readouterr()
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        assert rc == 0 and not err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:7])

    def test_eigfun_on_a_pole_of_the_2phi1(self, capsys):
        # the second root's mu is the pole mu = -p^{a+5/2} of F's 2phi1 to
        # 1.5e-16 relative: residual_f raised "phi_terms: denominator factor
        # vanished at k=1", exit 2; the entire series of F has no pole
        rc = main(["eigfun", "--q", "6.18e-08", "--alpha=-0.379",
                   "--beta=1.966", "--index", "1", "--trunc", "40",
                   "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 0 and not err
        doc = json.loads(out)
        res_f = float(doc["diagnostics"]["residual_f"])
        assert math.isfinite(res_f) and res_f <= 1e-12
        assert all(math.isfinite(float(row[k])) for row in doc["results"]
                   for k in ("value_re", "value_im"))

    def test_eigen_at_q_1e_8_is_a_kernel_truncation_error(self):
        r = _run(["eigen", "--q", "1e-8"])
        assert r.returncode == 2
        assert r.stderr.startswith("error: kernel_truncation:")
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv,reason", [
        (["kernel", "--q", "8.37151e-05", "--alpha=2.396", "--beta=2.493",
          "--grid", "3"], "h_21 of the shifted level underflows"),
        (["eigen", "--q", "2.4e-6", "--alpha=2.396", "--beta=2.493"],
         "h_15 of the shifted level underflows"),
        (["eigen", "--q", "0.00103951", "--alpha=1.816", "--beta=-0.067",
          "--count", "3"], "kernel_truncation: the term scale at k = 20"),
        (["kernel", "--q", "1.8e-6", "--alpha=1.816", "--beta=-0.067"],
         "h_18 of the shifted level underflows"),
    ], ids=["kernel-8.4e-5", "eigen-2.4e-6", "eigen-1.04e-3", "kernel-1.8e-6"])
    def test_kernel_norm_underflow_is_a_domain_error(self, argv, reason):
        # each divided by an exact 0 (a norm or a term scale that had
        # underflowed): exit 1, ZeroDivisionError traceback
        r = _run(argv)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and reason in r.stderr
        assert f"q = {float(argv[2])}" in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1

    def test_beta_conj_spelling(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["poly", "--alpha", "0.3+0.5j", "--beta", "conj",
                   "--degree", "2", "--grid", "3", "--out", str(out)])
        assert rc == 0


class TestRequestWork:
    def test_expand_sums_each_coefficient_once(self, tmp_path, monkeypatch):
        calls = []
        am_coeff = qexp.am_coeff
        monkeypatch.setattr(qexp, "am_coeff",
                            lambda m, *rest: calls.append(m) or am_coeff(m, *rest))
        rc = main(["expand", "--mmax", "6", "--grid", "4",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 0
        assert sorted(calls) == list(range(7))

    def test_expand_where_alpha_plus_beta_is_minus_one(self, tmp_path):
        # b^2 c^2 = q^{alpha+beta+1} = 1 there
        out = tmp_path / "e.csv"
        rc = main(["expand", "--alpha", "-0.5", "--beta", "-0.5", "--grid", "2",
                   "--mmax", "2", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["coeff"] * 3 + ["residual"] * 2
        assert all(math.isfinite(float(v)) for r in rows for v in r[2:])

    @pytest.mark.parametrize("level", [
        ["--alpha=-0.3", "--beta=-0.7"], ["--alpha=-0.5", "--beta=-0.5"],
        ["--alpha=-0.5+0.3j", "--beta", "conj"]], ids=["real", "chebyshev", "conj"])
    @pytest.mark.parametrize("command", ["eigen", "eigfun", "kernel"])
    def test_alpha_plus_beta_minus_one(self, tmp_path, command, level):
        # h_1/h_0, R of the a_k recurrence at k = 1 and C_0 of the monic one
        # hold removable 0/0 factors there, written cancelled
        out = tmp_path / "o.csv"
        assert main([command, *level, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        col = {name: i for i, name in enumerate(header)}
        assert rows
        for name in ("lambda_re", "lambda_im", "value_re", "value_im"):
            if name in col:
                assert all(math.isfinite(float(r[col[name]])) for r in rows)
        if command == "eigen":
            assert all(r[col["converged"]] == "true" for r in rows)
            assert all(float(r[col["residual_operator"]]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("q", ["0.25", "0.36", "0.81"])
    def test_expand_where_abcd_equals_q(self, tmp_path, q):
        # sqrt(q)^2 == q in floating point here, where abcd = q exactly for
        # the parameters (1, sqrt q, -1, -sqrt q) and the factor 1 - abcd/q
        # of A_0 and of the norms is 0: written cancelled, they hold none
        out = tmp_path / "e.csv"
        rc = main(["expand", "--alpha", "-0.5", "--beta", "-0.5", "--q", q,
                   "--mmax", "25", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        resid = [float(r[2]) for r in rows if r[0] == "residual"]
        assert len(resid) == 9 and max(resid) <= 1e-13

    @pytest.mark.parametrize("argv", [
        ["poly"], ["eigfun"], ["expand"], ["coulomb"],
        ["poly", "--alpha", "0.3+0.5j", "--beta", "conj"],
    ])
    def test_requests_without_t_build_no_level_plan(self, tmp_path, argv):
        # the recurrence tables live in their own memos: a request that
        # does not apply T must not evict the per-level data T requests reuse
        memos = [qpolys._norm_table, qpolys._node_table, awop.kernel_truncation]
        misses = [memo.cache_info().misses for memo in memos]
        assert main(argv + ["--q", "0.37", "--out", str(tmp_path / "o.csv")]) == 0
        assert [memo.cache_info().misses for memo in memos] == misses

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_requests_in_a_row_share_no_state(self, capsys):
        # the conj request goes first: a value it left in the shared parser
        # would show in the defaults' output
        for name, argv in [("kernel-conj.csv", ["kernel", "--q", "0.7", "--alpha",
                                                "0.3+0.5j", "--beta", "conj"]),
                           ("kernel.csv", ["kernel"])]:
            assert main(argv) == 0
            assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


class TestVerifyCommand:
    def test_list_enumerates_registry(self, capsys):
        rc = main(["verify", "--list"])
        assert rc == 0
        names = capsys.readouterr().out.split()
        assert names == verify.suite_names()

    def test_single_suite_runs(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["verify", "--suite", "qcore.poch-split", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("suite,passed,max_err,tol")
        assert lines[1].startswith("qcore.poch-split,true")

    def test_every_suite_name_registered_once(self):
        names = verify.suite_names()
        assert len(names) == len(set(names))
        prefixes = {n.split(".")[0] for n in names}
        assert prefixes == {"qcore", "qpolys", "awop", "spectral",
                            "qexp", "framework"}
