"""The benchmark's calls into awspec must still fit awspec, so a rename or a
dropped parameter fails here rather than in a benchmark run.

- Every function the layer tracer wraps exists.  ``TRACED`` is read from
  the source of ``perfbench/layertrace.py``; the module is not imported.
- Every call that ``perfbench/workloads.py`` makes into awspec binds to
  the callee's signature.  The calls are read from its source.
- Every request of the ``cli-requests`` workload parses with the CLI's
  parser."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from awspec import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _traced():
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in n.targets))
    return ast.literal_eval(node.value)


@pytest.mark.parametrize("module,name", [(m, f) for m, fns in _traced().items()
                                         for f in fns])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"awspec.{module}"), name, None))


def _awspec_calls():
    """(line, dotted callee, positional count, keyword names) of every call
    in the workloads' source whose callee is reached from a name imported
    from awspec, as in ``spectral.eigenvalues(...)``.  Calls with *args or
    **kwargs are skipped: their arguments are not known from the source."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module.partition(".")[0] == "awspec"
                for alias in node.names}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attrs, root = [], node.func
        while isinstance(root, ast.Attribute):
            attrs.insert(0, root.attr)
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in imported):
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        calls.append((node.lineno, ".".join([imported[root.id], *attrs]),
                      len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


def _resolve(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=2):
        obj = (getattr(obj, name) if hasattr(obj, name)
               else importlib.import_module(".".join(parts[:i])))
    return obj


def test_workload_calls_bind():
    calls = _awspec_calls()
    callees = {dotted for _, dotted, _, _ in calls}
    assert {"awspec.spectral.eigenvalues", "awspec.cli.main",
            "awspec.qpolys.cqjacobi"} <= callees, "the call scan found too little"
    unbound = []
    for line, dotted, npos, keywords in calls:
        sig = inspect.signature(_resolve(dotted))
        try:
            sig.bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"workloads.py:{line} {dotted}{sig}: {exc}")
    assert not unbound, "; ".join(unbound)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_plan_requests_parse():
    workloads = _workloads()
    requests = [[cmd, *map(str, extra)] for cmd, sizes in workloads.CLI_PLAN.items()
                for extra in sizes]
    for argv in requests + workloads.CLI_KNOWN_FAULT:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the CLI rejects the request {' '.join(argv)}")
