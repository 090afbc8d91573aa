"""The suite protocol of ``verify``: a suite returns its sub-errors and a
detail, and ``run_suite`` alone folds them into ``max_err`` and a pass."""
import dataclasses
import math

import numpy as np
import pytest

from awspec import verify
from awspec.qcore import QContext
from awspec.qpolys import JacobiLevel

TOL = 1e-10


@pytest.fixture
def run_probe(monkeypatch):
    """Run a suite that returns ``result``, registered for this test only."""
    monkeypatch.setattr(verify, "REGISTRY", dict(verify.REGISTRY))

    def run(result, tol=TOL):
        verify._suite("test.probe", tol)(lambda config: result)
        try:
            return verify.run_suite("test.probe", verify.DEFAULT_CONFIG)
        finally:
            del verify.REGISTRY["test.probe"]
    return run


@pytest.mark.parametrize("subs", [
    [5e-11, math.nan],
    [math.nan, 5e-11],
    [0.0, math.nan, 0.0],
    [(1e-13, 1e-12), (math.nan, 1e-12)],
    [(math.nan, 1e-3), 5e-11],
])
def test_nan_in_any_position_fails(run_probe, subs):
    # max(5e-11, nan) is 5e-11: a fold by the builtin max passed these
    r = run_probe((subs, "d"))
    assert not r.passed
    assert math.isnan(r.max_err)
    assert r.detail == "d"


def test_no_sub_errors_fails(run_probe):
    r = run_probe(([], "d"))
    assert not r.passed
    assert math.isnan(r.max_err)
    assert r.detail == "no sub-errors"


@pytest.mark.parametrize("result", [0.0, (0.0, "a bare number and a detail")])
def test_bare_number_fails(run_probe, result):
    r = run_probe(result)
    assert not r.passed
    assert r.max_err == math.inf
    assert r.detail.startswith("exception: TypeError")


def test_sub_tolerances_rescale_as_combine_did(run_probe):
    # the fold it replaces: max(e / t for e, t in pairs) * tol, bit for bit
    rng = np.random.default_rng(7)
    for _ in range(200):
        tol = float(10.0 ** rng.uniform(-14, -3))
        pairs = [(float(10.0 ** rng.uniform(-17, -2)), float(10.0 ** rng.uniform(-15, -3)))
                 for _ in range(int(rng.integers(1, 6)))]
        want = max(e / t for e, t in pairs) * tol
        r = run_probe((pairs, ""), tol)
        assert r.max_err == want
        assert r.passed == (want <= tol)


def test_plain_sub_errors_keep_their_bits(run_probe):
    errs = [3.0e-11, 7.123456789e-11, 1.0e-12]
    r = run_probe((errs, "d"))
    assert r.max_err == 7.123456789e-11 and r.passed
    r = run_probe(([2e-10, 0.0], "d"))
    assert r.max_err == 2e-10 and not r.passed


def test_config_is_a_level_a_context_and_a_node_count():
    fields = tuple(f.name for f in dataclasses.fields(verify.VerifyConfig))
    assert fields == ("level", "ctx", "nodes")
    c = verify.DEFAULT_CONFIG
    assert (c.level, c.ctx, c.nodes) == (JacobiLevel(0.3, -0.2),
                                         QContext(0.5, 1e-14), 160)


def test_second_registration_raises():
    heine = verify.REGISTRY["qcore.heine"]
    with pytest.raises(ValueError, match="qcore.heine"):
        verify._suite("qcore.heine", 1.0)(lambda config: ([0.0], "x"))
    assert verify.REGISTRY["qcore.heine"] is heine


def test_one_nan_late_in_a_real_suite_fails(monkeypatch):
    # qcore.poch-split calls qpoch 7260 times; the 5000th gives NaN
    calls = iter(range(10 ** 6))
    qpoch = verify.qpoch
    monkeypatch.setattr(verify, "qpoch",
                        lambda a, q, n: math.nan if next(calls) == 5000 else qpoch(a, q, n))
    r = verify.run_suite("qcore.poch-split", verify.DEFAULT_CONFIG)
    assert not r.passed
    assert math.isnan(r.max_err)


def test_eigen_certify_passes_on_a_conjugate_pair_level():
    # there the eigenvalues are purely imaginary, not closed under conjugation
    config = dataclasses.replace(verify.DEFAULT_CONFIG,
                                 level=JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j))
    r = verify.run_suite("spectral.eigen-certify", config)
    assert r.passed, r.detail
    assert "re/|lam|=" in r.detail and "conj=" not in r.detail


def test_asymp_growth_passes_where_the_2phi1_has_a_pole():
    # at alpha = beta = -1/2, q = 0.5 the suite's x = -2 puts F's argument
    # on a pole of its 2phi1 (w p = 1), where F itself is finite
    config = dataclasses.replace(verify.DEFAULT_CONFIG,
                                 level=JacobiLevel(-0.5, -0.5))
    r = verify.run_suite("spectral.asymp-growth", config)
    assert r.passed, r.detail
    assert r.max_err <= 1e-12
