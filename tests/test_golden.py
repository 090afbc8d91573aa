"""Golden CLI outputs: each request of tests/golden/regenerate.py must print
exactly the committed bytes, and every verify suite must keep passing with
its max_err within 10x of the committed table (tests/golden/verify.csv).

The files belong to the environment that wrote them; a mismatch reports the
largest numeric difference in each column and the Python and numpy
versions, so a rounding change can be told from a real one at a glance.
"""
import csv
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _table(text):
    """(header, rows) of a CSV output, or of the results of a JSON output."""
    if text.startswith("{"):
        results = json.loads(text)["results"]
        header = list(results[0]) if results else []
        return header, [[r[k] for k in header] for r in results]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def describe_diff(want, got):
    """Where ``got`` differs from the golden ``want``, column by column."""
    lines = [f"python {sys.version.split()[0]}, numpy {np.__version__}"]
    (wh, wrows), (gh, grows) = _table(want), _table(got)
    if wh != gh or len(wrows) != len(grows):
        lines.append(f"shape: {wh} x {len(wrows)} rows -> {gh} x {len(grows)} rows")
        return "\n".join(lines)
    for j, col in enumerate(wh):
        pairs = [(i, w[j], g[j]) for i, (w, g) in enumerate(zip(wrows, grows))
                 if w[j] != g[j]]
        numeric = [(abs(_number(g) - _number(w)), i) for i, w, g in pairs
                   if _number(w) is not None and _number(g) is not None]
        if numeric:
            d, i = max(numeric)
            lines.append(f"{col}: {len(pairs)} cell(s) differ, largest "
                         f"|diff| {d:.3e} in row {i}")
        elif pairs:
            lines.append(f"{col}: {len(pairs)} cell(s) differ, first in row "
                         f"{pairs[0][0]}: {pairs[0][1]!r} -> {pairs[0][2]!r}")
    if len(lines) == 1:
        lines.append("the differing bytes lie outside the table")
    return "\n".join(lines)


def _assert_golden(name, got):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if got != want:
        pytest.fail(f"{name} differs from the golden output "
                    f"(python tests/golden/regenerate.py rewrites it):\n"
                    + describe_diff(want, got), pytrace=False)


@pytest.mark.parametrize("name", [n for n in regenerate.REQUESTS
                                  if n != "verify.csv"])
def test_cli_output_matches_golden(name, golden_outputs):
    rc, got = golden_outputs[name]
    assert rc == 0
    _assert_golden(name, got)


def test_verify_suites_keep_passing_within_10x(verify_all):
    _, path, _ = verify_all
    want = {r[0]: r for r in _table((GOLDEN / "verify.csv").read_text())[1]}
    got = {r[0]: r for r in _table(path.read_text())[1]}
    assert sorted(got) == sorted(want)
    for suite, (_, passed, max_err, *_) in want.items():
        _, now_passed, now_err, *_ = got[suite]
        assert now_passed == "true" or passed == "false", f"{suite} fails"
        assert float(now_err) <= 10 * float(max_err), (
            f"{suite}: max_err {now_err} is more than 10x the golden {max_err}")


def test_verify_output_matches_golden(verify_all):
    _, path, _ = verify_all
    _assert_golden("verify.csv", path.read_text(encoding="utf-8"))


def test_describe_diff_names_the_column():
    want = "x,value\n1.0,2.0\n1.5,3.0\n"
    got = "x,value\n1.0,2.0\n1.5,3.0000000000000004\n"
    text = describe_diff(want, got)
    assert "value: 1 cell(s) differ, largest |diff| 4.441e-16 in row 1" in text
    assert "numpy" in text and "x:" not in text
