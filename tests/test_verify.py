import math

import numpy as np
import pytest

from qergo import ccp, verify
from qergo.ccp import phase_antisymmetry_check
from qergo.verify import IdentityCheck, run_verification_suite

from conftest import haar_triple


@pytest.mark.parametrize(
    "poisoned", [{1}, {3}, {6}, {1, 2, 3, 4, 5, 6}], ids=["first", "middle", "last", "all"]
)
def test_nan_deviation_fails_the_sweep(poisoned, monkeypatch):
    # Python's max(0.0, nan) is 0.0 and max(x, nan) is x; a NaN must reach
    # the verdict wherever it occurs in the sweep.
    real = verify._triple_worsts
    calls = []

    def injected(*args, **kwargs):
        worst = real(*args, **kwargs)
        calls.append(None)
        if len(calls) in poisoned:
            worst["chain rule"] = float("nan")
        return worst

    monkeypatch.setattr(verify, "_triple_worsts", injected)
    report = run_verification_suite([2, 3], 3, 7)
    assert len(calls) == 6
    assert report.all_pass is False
    chain = next(c for c in report.checks if c.name == "chain rule")
    assert math.isnan(chain.worst) and not chain.passed
    assert all(c.passed for c in report.checks if c.name != "chain rule")


@pytest.mark.parametrize("worst", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_worst_never_passes(worst):
    assert not IdentityCheck(name="chain rule", tolerance=1e-9, worst=worst).passed


def test_phase_antisymmetry_reports_nan_entry(monkeypatch):
    real = ccp.ccp_table

    def poisoned(*args, **kwargs):
        table = real(*args, **kwargs)
        vals = np.array(table.vals)
        vals[0, 0, 0] = np.nan
        return type(table)(table.m_basis, table.a_basis, table.b_basis, vals, table.defined_mask)

    bases = haar_triple(4, 2)
    assert phase_antisymmetry_check(*bases) < 1e-9
    monkeypatch.setattr(ccp, "ccp_table", poisoned)
    assert math.isnan(phase_antisymmetry_check(*bases))
