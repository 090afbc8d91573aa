import time

import numpy as np
import pytest

from awspec.cli import main
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel


@pytest.fixture
def ctx():
    return QContext(0.5)


@pytest.fixture
def level():
    return JacobiLevel(0.3, -0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory):
    """(exit code, path of the CSV, seconds) of one ``awspec verify --suite
    all`` run, shared by every test of the session that reads it."""
    path = tmp_path_factory.mktemp("verify") / "verify.csv"
    t0 = time.time()
    rc = main(["verify", "--suite", "all", "--out", str(path)])
    return rc, path, time.time() - t0
