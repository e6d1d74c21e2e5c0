import math

import numpy as np
import pytest

from qergo import verify
from qergo.ccp import CcpTable, IdentitySides, ccp_table, phase_antisymmetry_check
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


def test_phase_antisymmetry_reports_nan_entry():
    m, a, b = haar_triple(4, 2)
    forward, backward, swapped = ccp_table(m, a, b), ccp_table(a, m, b), ccp_table(m, b, a)
    assert phase_antisymmetry_check(forward, backward, swapped) < 1e-9
    vals = np.array(forward.vals)
    vals[0, 0, 0] = np.nan
    poisoned = CcpTable(m, a, b, vals, forward.defined_mask)
    assert math.isnan(phase_antisymmetry_check(poisoned, backward, swapped))


def test_empty_mask_fails_the_check(z2, y2):
    # Nothing compared is not a pass: the worst of an empty mask is NaN.
    t = ccp_table(y2, z2, z2)
    nothing = np.zeros((2, 2), dtype=bool)
    empty = CcpTable(t.m_basis, t.a_basis, t.b_basis, t.vals, nothing)
    worst = empty.normalization_defect()
    assert math.isnan(worst)
    assert not IdentityCheck(name="column normalization", tolerance=1e-9, worst=worst).passed
    assert math.isnan(IdentitySides(t.vals, t.vals, nothing).worst())
