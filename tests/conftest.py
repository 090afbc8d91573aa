import contextlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from awspec.cli import main
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def ctx():
    return QContext(0.5)


@pytest.fixture
def level():
    return JacobiLevel(0.3, -0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _probe_class(cls, keys, reached):
    """Record ``keys`` on the first construction of ``cls``; returns the
    undo."""
    init = vars(cls)["__init__"]

    def first_init(self, *args, **kwargs):
        reached.update(keys)
        cls.__init__ = init
        init(self, *args, **kwargs)

    cls.__init__ = first_init
    return lambda: setattr(cls, "__init__", init)


def _probe_function(fn, keys, sites, reached):
    """Record ``keys`` on the first call of ``fn`` through any of its
    module bindings ``sites``; returns the undo."""
    def restore():
        for namespace, name in sites:
            namespace[name] = fn

    def first_call(*args, **kwargs):
        reached.update(keys)
        restore()
        return fn(*args, **kwargs)

    for namespace, name in sites:
        namespace[name] = first_call
    return restore


@contextlib.contextmanager
def recording(reached):
    """Add to ``reached`` the "module.name" of every function and class of
    an awspec ``__all__`` that the block calls (a class: constructs).

    The memos are cleared first, so a call that a warm memo would skip
    still runs.  Each name is bound to a probe that records it and puts
    the original back on its first call, so the block runs at full speed
    once a name is seen; every original is back when the block ends."""
    namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                  if name == "awspec" or name.startswith("awspec.")]
    for ns in namespaces:
        for obj in list(ns.values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    exported = {}  # object -> its "module.name" keys
    for ns in namespaces:
        short = ns["__name__"].rpartition(".")[2]
        for name in ns.get("__all__", ()):
            if callable(ns[name]):
                exported.setdefault(ns[name], []).append(f"{short}.{name}")
    undo = []
    for obj, keys in exported.items():
        if isinstance(obj, type):
            undo.append(_probe_class(obj, keys, reached))
        else:
            sites = [(ns, name) for ns in namespaces
                     for name, v in list(ns.items()) if v is obj]
            undo.append(_probe_function(obj, keys, sites, reached))
    try:
        yield reached
    finally:
        for restore in undo:
            restore()


@pytest.fixture(scope="session")
def reached():
    """The awspec names that the requests of ``verify_all`` and
    ``golden_outputs`` reached, as far as those fixtures have run."""
    return set()


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory, reached):
    """(exit code, path of the CSV, seconds) of one ``awspec verify --suite
    all`` run, shared by every test of the session that reads it."""
    path = tmp_path_factory.mktemp("verify") / "verify.csv"
    t0 = time.time()
    with recording(reached):
        rc = main(["verify", "--suite", "all", "--out", str(path)])
    return rc, path, time.time() - t0


@pytest.fixture(scope="session")
def golden_outputs(reached):
    """name -> (exit code, stdout) of each request of
    tests/golden/regenerate.py but verify.csv (``verify_all`` runs that
    one), run once per session."""
    spec = importlib.util.spec_from_file_location("golden_regenerate",
                                                  GOLDEN / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    with recording(reached):
        return {name: regenerate.run(argv)
                for name, argv in regenerate.REQUESTS.items()
                if name != "verify.csv"}
