import math
import re
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qergo import verify
from qergo.basis import computational_basis, ergodic_table, haar_random_basis, make_basis
from qergo.bridge import (
    born_rule_coherence,
    inner_product_ccp,
    predict_outcome_prob,
    pure_state_joint,
    reconstruct_vector,
    reference_gauge_amplitudes,
)
from qergo.ccp import (
    CcpTable,
    IdentitySides,
    backaction_check,
    bayes_convert,
    ccp_table,
    chain_compose,
    determinism_residual,
    ergodicity_product,
    ozawa_error,
    phase_antisymmetry_check,
)
from qergo.transform import PhaseProfile, transformed_prob
from qergo.verify import IdentityCheck, conjugation_prob, run_verification_suite

from conftest import haar_triple, run_fresh_interpreter


def _triple_worsts(m_b, a_b, b_b, f_b, rng_seed):
    """Per-quadruple reference: the sweep's identities on one unstacked quadruple."""
    dim = m_b.dim
    b_ref = 0
    a_b = replace(a_b, values=np.arange(dim, dtype=np.float64))  # for the conditional error
    t_mab = ccp_table(m_b, a_b, b_b)
    t_amb = ccp_table(a_b, m_b, b_b)
    t_fmb = ccp_table(f_b, m_b, b_b)
    t_fab = ccp_table(f_b, a_b, b_b)
    t_abm = ccp_table(a_b, b_b, m_b)
    chain = chain_compose(t_fmb, t_mab)
    det = chain_compose(t_amb, t_mab)
    back = backaction_check(t_mab)

    f_a = np.abs(f_b.overlaps_with(a_b))  # |<f|a>|
    recon_oracle = reference_gauge_amplitudes(m_b, a_b, b_b, b_ref)
    inner = inner_product_ccp(f_b, a_b, m_b, b_b, b_ref)
    direct = inner_product_ccp(f_b, a_b, a_b, b_b, b_ref)  # intermediate basis A
    joint = pure_state_joint((m_b, 0), a_b, b_b)
    psi = m_b.vectors[:, 0]
    born_a, born_b, born_f = (np.abs(x.vectors.conj().T @ psi) ** 2 for x in (a_b, b_b, f_b))

    worst = {
        "column normalization": np.max(
            [t.normalization_defect() for t in (t_mab, t_amb, t_fmb, t_fab, t_abm)]
        ),
        "chain rule": IdentitySides(
            chain.vals, t_fab.vals, chain.defined_mask & t_fab.defined_mask
        ).worst(),
        "determinism": determinism_residual(det).worst(),
        "ergodicity product": ergodicity_product(t_mab, t_amb).worst(),
        "phase antisymmetry": phase_antisymmetry_check(t_mab, t_amb),
        "bayes conversion": bayes_convert(t_mab, t_abm).worst(),
        "back-action": back.worst(),
        "dephasing decomposition": IdentitySides(
            back.lhs.sum(axis=0), back.rhs.sum(axis=0), t_mab.defined_mask
        ).worst(),
        "vector reconstruction": np.max(
            np.abs(reconstruct_vector(t_mab, b_ref) - recon_oracle)
        ),
        "inner product": np.max(
            [np.max(np.abs(np.abs(inner) - f_a)), np.max(np.abs(inner - direct))]
        ),
        "born coherence": np.max(
            np.abs(born_rule_coherence(f_b, a_b, m_b, (b_b, b_ref)) - f_a**2)
        ),
        "joint quasiprobability": np.max([
            abs(joint.total() - 1.0),
            np.max(np.abs(joint.marginal_a() - born_a)),
            np.max(np.abs(joint.marginal_b() - born_b)),
        ]),
        "outcome prediction": np.max(np.abs(predict_outcome_prob(joint, f_b) - born_f)),
        "conditional error": np.max(np.abs(ozawa_error(det))),
    }

    # Phase-transform oracle, every defined (a, b), both directions, one random profile.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    phases = rng.uniform(0.0, 2.0 * np.pi, dim)
    profile = PhaseProfile.from_phases(m_b, phases)
    worst["transform oracle"] = np.max([
        IdentitySides(transformed_prob(t_mab, profile, direction),
                      conjugation_prob(m_b, phases, a_b, b_b, direction),
                      t_mab.defined_mask).worst()
        for direction in ("on_a", "on_b")
    ])
    return {name: float(value) for name, value in worst.items()}


EPS = np.finfo(np.float64).eps
QUADRUPLE_TABLES = ("mab", "amb", "fmb", "fab", "abm")


def _stacked(basis, values=None):
    return replace(basis, vectors=basis.vectors[np.newaxis], values=values)


def _tolerance(quadruple):
    """How far a blocked worst may lie from the reference: d eps scale.

    Summation order differs between a stack and one quadruple, so each
    deviation moves by rounding of the compared quantities: sums of up to d
    products of two conditionals, bounded by scale = max(1, max |p|)^2.
    """
    named = dict(zip("mabf", quadruple))
    conditional = max(
        np.max(np.abs(ccp_table(*(named[k] for k in name)).vals)) for name in QUADRUPLE_TABLES
    )
    return quadruple[0].dim * EPS * max(1.0, conditional) ** 2


def _assert_worsts_match(oracle, block, quadruple):
    tol = _tolerance(quadruple)
    for name, value in oracle.items():
        got = float(block[name])
        if math.isnan(value):
            assert math.isnan(got), name
        else:
            assert abs(got - value) <= tol, (name, got, value, tol)


@pytest.mark.parametrize("dim, count", [*((d, 20) for d in range(2, 9)), (32, 3)])
def test_blocked_worsts_match_per_quadruple_reference(dim, count):
    bases, phases = verify._draw_block(7, dim, range(count))
    block = verify._block_worsts(*bases, phases)
    for i in range(count):
        seeds = verify._child_seeds(7, dim, i, 5)
        quadruple = [haar_random_basis(dim, s) for s in seeds[:4]]
        for stacked, single in zip(bases, quadruple):
            assert np.max(np.abs(stacked.vectors[i] - single.vectors)) <= 1e-15
        oracle = _triple_worsts(*quadruple, rng_seed=seeds[4])
        _assert_worsts_match(oracle, {k: v[i] for k, v in block.items()}, quadruple)


def test_blocked_worsts_match_reference_on_partly_undefined_quadruple():
    # <b1|a2>, <b1|a3>, <b2|a0> and <b2|a1> vanish; the reference column b0 overlaps everything.
    r = 1 / np.sqrt(2)
    rows = [[0.5, r, 0, 0.5], [0.5, -r, 0, 0.5], [0.5, 0, r, -0.5], [0.5, 0, -r, -0.5]]
    b = make_basis(np.array(rows))
    m, f = haar_random_basis(4, 11), haar_random_basis(4, 12)
    a = computational_basis(4)
    table = ccp_table(m, a, b)
    assert 0 < np.count_nonzero(~table.defined_mask) < table.defined_mask.size
    oracle = _triple_worsts(m, a, b, f, rng_seed=13)
    assert math.isnan(oracle["conditional error"])  # b1 and b2 carry an undefined conditional
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(13)))
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    stacked = [_stacked(m), _stacked(a, np.arange(4.0)), _stacked(b), _stacked(f)]
    block = verify._block_worsts(*stacked, phases[np.newaxis])
    _assert_worsts_match(oracle, {k: v[0] for k, v in block.items()}, (m, a, b, f))


def test_sweep_reports_the_worst_quadruple():
    assert verify.BLOCK_BYTES < 3 * 16 * 32**3  # three d=32 quadruples span two blocks
    report = run_verification_suite([3, 32], 3, 5)
    oracles, tol = [], 0.0
    for dim in (3, 32):
        for i in range(3):
            seeds = verify._child_seeds(5, dim, i, 5)
            quadruple = [haar_random_basis(dim, s) for s in seeds[:4]]
            oracles.append(_triple_worsts(*quadruple, rng_seed=seeds[4]))
            tol = max(tol, _tolerance(quadruple))
    for check in report.checks:
        assert abs(check.worst - max(o[check.name] for o in oracles)) <= tol, check.name


@pytest.mark.parametrize(
    "poisoned", [{1}, {3}, {6}, {1, 2, 3, 4, 5, 6}], ids=["first", "middle", "last", "all"]
)
def test_nan_deviation_fails_the_sweep(poisoned, monkeypatch):
    # Python's max(0.0, nan) is 0.0 and max(x, nan) is x; a NaN must reach
    # the verdict wherever it occurs in the sweep, at any place in any block.
    real = verify._block_worsts
    quadruples = []

    def injected(*args):
        worst = real(*args)
        chain = np.array(worst["chain rule"], dtype=np.float64)
        for i in range(chain.size):
            quadruples.append(None)
            if len(quadruples) in poisoned:
                chain[i] = np.nan
        worst["chain rule"] = chain
        return worst

    monkeypatch.setattr(verify, "_block_worsts", injected)
    report = run_verification_suite([2, 3], 3, 7)
    assert len(quadruples) == 6
    assert report.all_pass is False
    chain = next(c for c in report.checks if c.name == "chain rule")
    assert math.isnan(chain.worst) and not chain.passed
    assert all(c.passed for c in report.checks if c.name != "chain rule")


def test_stacked_worst_reduces_each_instance_apart():
    lhs = np.zeros((3, 2, 2))
    lhs[0] = [[0.5, 0.25], [np.nan, 0.0]]  # the NaN lies outside instance 0's mask
    lhs[1, 1, 1] = np.nan
    mask = np.ones((3, 2, 2), dtype=bool)
    mask[0, 1, 0] = False
    mask[2] = False  # nothing compared
    worst = IdentitySides(lhs, 0.0, mask, axes=2).worst()
    assert worst[0] == 0.5 and math.isnan(worst[1]) and math.isnan(worst[2])
    assert math.isnan(IdentitySides(lhs, 0.0, mask).worst())
    assert IdentitySides(lhs[0], 0.0, mask[0]).worst() == 0.5


@pytest.mark.parametrize("worst", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_worst_never_passes(worst):
    assert not IdentityCheck(name="chain rule", tolerance=1e-9, worst=worst).passed


def test_phase_antisymmetry_reports_nan_entry():
    m, a, b = haar_triple(4, 2)
    forward, backward = ccp_table(m, a, b), ccp_table(a, m, b)
    assert phase_antisymmetry_check(forward, backward) < 1e-9
    vals = np.array(forward.vals)
    vals[0, 0, 0] = np.nan
    poisoned = CcpTable(m, a, b, vals, forward.defined_mask)
    assert math.isnan(phase_antisymmetry_check(poisoned, backward))


def test_phase_antisymmetry_sees_one_planted_phase(monkeypatch):
    # a phase planted in p(m|a,b) of one quadruple shows in its product with p(a|m,b),
    # and in that quadruple's worst alone.
    real = verify.ccp.ccp_tables

    def planted(bases, names):
        tables = real(bases, names)
        vals = np.array(tables["mab"].vals)
        vals[1, 3, 1, 2] *= np.exp(0.1j)  # quadruple 1, (m, a, b) = (3, 1, 2)
        tables["mab"] = replace(tables["mab"], vals=vals)
        return tables

    monkeypatch.setattr(verify.ccp, "ccp_tables", planted)
    # the conditional error raises on the imaginary residue the phase leaves in it
    monkeypatch.setattr(verify.ccp, "ozawa_error", lambda det: np.zeros(det.vals.shape[:-2]))
    bases, phases = verify._draw_block(7, 5, range(3))
    worst = verify._block_worsts(*bases, phases)["phase antisymmetry"]
    assert worst[1] == pytest.approx(0.1, abs=1e-12)
    assert np.all(np.delete(worst, 1) < 1e-12)


@pytest.fixture(scope="module")
def fresh_d32_sweep():
    """(minor page faults, CPU s, wall s) of a third d=32 x 20 sweep in a fresh interpreter.

    A fresh process starts from the allocator state the CLI and the benchmark
    start from; the heap that earlier tests leave behind would hide page churn.
    """
    probe = (
        "import resource, time; from qergo.verify import run_verification_suite as run\n"
        "run([32], 20, 1); run([32], 20, 2)\n"
        "f, c, w = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time(), "
        "time.perf_counter()\n"
        "run([32], 20, 3)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f, "
        "time.process_time() - c, time.perf_counter() - w)"
    )
    faults, cpu, wall = run_fresh_interpreter(probe).split()
    return int(faults), float(cpu), float(wall)


def test_d32_sweep_steady_state_faults_in_no_pages(fresh_d32_sweep):
    # A d^3 temporary that outlives its use can push the heap past the allocator's
    # trim point: pages go back and fault in again, thousands of faults a sweep.
    faults, _, _ = fresh_d32_sweep
    assert faults < 1000


def test_d32_sweep_wakes_no_blas_threads(fresh_d32_sweep):
    # BLAS workers that spin after a small product burn CPU on every core while
    # the sweep itself runs on one: process CPU would be about twice the wall time.
    _, cpu, wall = fresh_d32_sweep
    assert cpu <= 1.5 * wall


def test_empty_mask_fails_the_check(z2, y2):
    # Nothing compared is not a pass: the worst of an empty mask is NaN.
    t = ccp_table(y2, z2, z2)
    nothing = np.zeros((2, 2), dtype=bool)
    empty = CcpTable(t.m_basis, t.a_basis, t.b_basis, t.vals, nothing)
    worst = empty.normalization_defect()
    assert math.isnan(worst)
    assert not IdentityCheck(name="column normalization", tolerance=1e-9, worst=worst).passed
    assert math.isnan(IdentitySides(t.vals, t.vals, nothing).worst())


#: The identity tolerances as first pinned.  A tolerance may be tightened, never loosened.
PINNED_TOLERANCES = {
    "column normalization": 1e-9,
    "chain rule": 1e-9,
    "determinism": 1e-9,
    "ergodicity product": 1e-10,
    "phase antisymmetry": 1e-9,
    "bayes conversion": 1e-10,
    "back-action": 1e-10,
    "dephasing decomposition": 1e-10,
    "vector reconstruction": 1e-9,
    "inner product": 1e-9,
    "born coherence": 1e-9,
    "joint quasiprobability": 1e-9,
    "outcome prediction": 1e-9,
    "conditional error": 1e-9,
    "transform oracle": 1e-10,
}


def test_identity_tolerances_never_loosened():
    tolerances = dict(verify.IDENTITY_TOLERANCES)
    assert sorted(tolerances) == sorted(PINNED_TOLERANCES)
    for name, tol in tolerances.items():
        assert 0.0 < tol <= PINNED_TOLERANCES[name], name


@pytest.mark.parametrize("dim", [2, 32])
def test_report_tolerances_never_loosened(dim):
    # beyond dim 16 a report scales its tolerances linearly with the dim, and no further
    scale = max(1.0, dim / 16.0)
    report = run_verification_suite([dim], 1, 0)
    assert sorted(c.name for c in report.checks) == sorted(PINNED_TOLERANCES)
    for check in report.checks:
        assert 0.0 < check.tolerance <= PINNED_TOLERANCES[check.name] * scale * (1 + 1e-12)


def test_tolerances_meet_the_benchmark_contract():
    # The benchmark refuses every verify run whose report renames a check or
    # loosens a tolerance past its own table; fail here first.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    checks = types.ModuleType("benchmark_checks")
    exec(compile(path.read_text(), str(path), "exec"), checks.__dict__)
    tolerances = dict(verify.IDENTITY_TOLERANCES)
    assert sorted(tolerances) == sorted(checks.VERIFY_TOLERANCES)
    for name, tol in tolerances.items():
        assert tol <= checks.VERIFY_TOLERANCES[name], name


def _entry_00_deviation(t_mab, phases, transformed=transformed_prob):
    """The transform oracle at the one entry (a=0, b=0), per stacked quadruple."""
    profile = PhaseProfile.from_phases(t_mab.m_basis, phases)
    bases = (t_mab.m_basis, phases, t_mab.a_basis, t_mab.b_basis)
    return np.max([
        np.abs(transformed(t_mab, profile, d) - conjugation_prob(*bases, d))[..., 0, 0]
        for d in ("on_a", "on_b")
    ], axis=0)


TRANSFORM_TOL = dict(verify.IDENTITY_TOLERANCES)["transform oracle"]


def _transform_block():
    (m, a, b, _), phases = verify._draw_block(7, 5, range(3))
    t_mab = ccp_table(m, a, b)
    assert np.all(verify._transform_worst(t_mab, phases) < TRANSFORM_TOL)
    return t_mab, phases


def test_transform_oracle_sees_one_conjugated_column():
    t_mab, phases = _transform_block()
    vals = np.array(t_mab.vals)
    vals[..., 1, 2] = vals[..., 1, 2].conj()
    tampered = replace(t_mab, vals=vals)
    assert np.all(_entry_00_deviation(tampered, phases) < TRANSFORM_TOL)
    assert np.all(verify._transform_worst(tampered, phases) > TRANSFORM_TOL)


def test_transform_oracle_sees_a_transposed_transition_factor(monkeypatch):
    # p(b|a) stored [b, a] but read as [a, b]: the diagonal, so entry (0, 0), is unchanged
    def transposed(table, profile, direction):
        p_b_a = ergodic_table(table.a_basis, table.b_basis)  # [a, b]
        swapped = ergodic_table(table.b_basis, table.a_basis)  # [b, a]
        return transformed_prob(table, profile, direction) / p_b_a * swapped

    t_mab, phases = _transform_block()
    assert np.all(_entry_00_deviation(t_mab, phases, transposed) < TRANSFORM_TOL)
    monkeypatch.setattr(verify, "transformed_prob", transposed)
    assert np.all(verify._transform_worst(t_mab, phases) > TRANSFORM_TOL)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: run_verification_suite([], 1, 0),
            ValueError, "dims must be non-empty and within 2..32", id="no-dims",
        ),
        pytest.param(
            lambda: run_verification_suite([1], 1, 0),
            ValueError, "dims must be non-empty and within 2..32", id="dim-below",
        ),
        pytest.param(
            lambda: run_verification_suite([verify.MAX_DIM + 1], 1, 0),
            ValueError, "dims must be non-empty and within 2..32", id="dim-above",
        ),
        pytest.param(
            lambda: run_verification_suite([2], 0, 0),
            ValueError, "seeds_per_dim must be at least 1", id="no-seeds",
        ),
    ],
)
def test_input_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
