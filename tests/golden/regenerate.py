"""Rewrite the golden CLI outputs in this directory.

Each file holds the stdout of one ``awspec`` request, run in-process:

    python tests/golden/regenerate.py

A change to these files is a change of behaviour; say why in CHANGES.md.
``tests/test_golden.py`` compares the outputs with them byte for byte.
"""
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONJ = ["--q", "0.7", "--alpha", "0.3+0.5j", "--beta", "conj"]

# golden file name -> awspec arguments
REQUESTS = {
    "eigen.csv": ["eigen"],
    "eigfun.csv": ["eigfun"],
    "poly.csv": ["poly"],
    "kernel.csv": ["kernel"],
    "expand.csv": ["expand"],
    "coulomb.csv": ["coulomb"],
    "verify.csv": ["verify"],
    "eigen-conj.csv": ["eigen", *CONJ],
    "kernel-conj.csv": ["kernel", *CONJ],
    "eigen.json": ["eigen", "--format", "json"],
    "poly.json": ["poly", "--format", "json"],
    "coulomb.json": ["coulomb", "--format", "json"],
    # on the line alpha + beta = -1, where the level formulas cancel 0/0 pairs
    "expand-line.csv": ["expand", "--alpha=-0.5", "--beta=-0.5"],
    "eigen-line.csv": ["eigen", "--alpha=-0.3", "--beta=-0.7"],
}


def run(argv):
    """(exit code, stdout) of one in-process ``awspec`` request."""
    from awspec.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def main():
    for name, argv in REQUESTS.items():
        rc, text = run(argv)
        if rc != 0:
            sys.exit(f"awspec {' '.join(argv)} exited {rc}")
        (HERE / name).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
