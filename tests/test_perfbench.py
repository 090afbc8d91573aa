"""Every function the benchmark's layer tracer wraps must exist in awspec,
so a rename fails here rather than in ``perfbench/run.py --trace 1``.

``TRACED`` is read from the source of ``perfbench/layertrace.py``; the
module is not imported."""
import ast
import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _traced():
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in n.targets))
    return ast.literal_eval(node.value)


@pytest.mark.parametrize("module,name", [(m, f) for m, fns in _traced().items()
                                         for f in fns])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"awspec.{module}"), name, None))
