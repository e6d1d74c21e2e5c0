"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts as they complete.
"""

import json
import time

import numpy as np
import pytest

from qergo import (
    PhaseProfile,
    build_lattice,
    ccp_table,
    computational_basis,
    haar_random_basis,
    make_basis,
    quantized_spectrum_check,
    run_verification_suite,
    scan_wavefunction,
    simulate_sequential,
    simulate_weak_value,
    transformed_prob,
)
from qergo.lattice import (
    ccp_xEp,
    classical_momentum_check,
    conjugate_product_check,
    energy_concentration,
    fourier_relation_check,
    gauge_shift,
    schrodinger_residual,
)
from qergo.render import render_distribution
from qergo.verify import conjugation_prob
from qergo.weak import readout_bias_rate

ROOT_SEED = 20260809


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    report = run_verification_suite(list(range(2, 9)), 100, ROOT_SEED)
    elapsed = time.perf_counter() - started
    worst = max(c.worst / c.tolerance for c in report.checks)
    ok = report.all_pass and elapsed < 60.0
    _verdict(
        "criterion 1 (identity suite d=2..8 x 100 seeds)",
        ok,
        f"all identities pass, worst at {worst:.1e} of tolerance, {elapsed:.1f}s",
    )


def test_criterion_2_transformation_oracle():
    rng = np.random.default_rng(ROOT_SEED)
    worst = 0.0
    draws = 0
    while draws < 1000:
        dim = int(rng.integers(2, 7))
        seeds = rng.integers(0, 2**31, size=3)
        m = haar_random_basis(dim, int(seeds[0]))
        a = haar_random_basis(dim, int(seeds[1]))
        b = haar_random_basis(dim, int(seeds[2]))
        table = ccp_table(m, a, b)
        phases = rng.uniform(0.0, 2.0 * np.pi, dim)
        profile = PhaseProfile.from_phases(m, phases)
        ai = int(rng.integers(dim))
        bi = int(rng.integers(dim))
        if not table.defined_mask[ai, bi]:
            continue
        direction = ("on_a", "on_b")[draws % 2]
        via_ccp = transformed_prob(table, profile, direction)[ai, bi]
        via_matrix = conjugation_prob(m, phases, a, b, direction)[ai, bi]
        worst = max(worst, abs(via_ccp - via_matrix))
        draws += 1
    _verdict(
        "criterion 2 (transformation vs unitary oracle, 1000 draws)",
        worst < 1e-10,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_3_weak_benchmark():
    z = computational_basis(2)
    x = make_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2), labels=["+", "-"])
    y = make_basis(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2), labels=["+i", "-i"])
    started = time.perf_counter()
    report = simulate_weak_value((z, 0), (x, 0), y, 0, 0.05, 1_000_000, ROOT_SEED)
    elapsed = time.perf_counter() - started
    bias_rate = readout_bias_rate(report.analytic_ref, 0.2)
    gate = report.gate(bias_rate)
    err_re = abs(report.estimate.real - 0.5)
    err_im = abs(report.estimate.imag - 0.5)
    ok = err_re < gate and err_im < gate and elapsed < 30.0
    _verdict(
        "criterion 3 (weak benchmark, 1e6 shots)",
        ok,
        f"errors ({err_re:.4f}, {err_im:.4f}) vs gate {gate:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_sequential_backaction():
    exceedances = 0
    for scenario in range(20):
        a = haar_random_basis(3, 11 * scenario + 1)
        m = haar_random_basis(3, 11 * scenario + 2)
        b = haar_random_basis(3, 11 * scenario + 3)
        run = simulate_sequential((a, 0), m, b, 20_000, (ROOT_SEED, scenario))
        # oracle through the conditional's squared magnitude
        table = ccp_table(m, a, b)
        p_b_a = np.abs(b.overlaps_with(a)) ** 2
        expected = np.abs(table.vals[:, 0, :]) ** 2 * p_b_a[:, 0][np.newaxis, :]
        se = np.sqrt(expected * (1.0 - expected) / run.shots)
        exceedances += int(np.sum(np.abs(run.freqs - expected) > 4.0 * se))
    _verdict(
        "criterion 4 (sequential back-action, 20 scenarios at d=3)",
        exceedances <= 1,
        f"{exceedances} gate exceedance(s) out of 180 cells",
    )


def test_criterion_5_lattice_physics():
    box = build_lattice(64, 1.0, 1.0, 1.0, "box")
    box_err = abs(box.energies[0] - np.pi**2 / 2) / (np.pi**2 / 2)

    harm = build_lattice(64, 20.0, 1.0, 1.0, ("harmonic", 1.0))
    spacing = quantized_spectrum_check(
        harm.energies[:5], period=2 * np.pi, hbar=1.0, rtol=0.01
    )

    p0 = harm.zero_momentum_index()
    residual_ok = (
        schrodinger_residual(box, 0, box.zero_momentum_index())
        < 1e-6 * box.hamiltonian_norm
        and schrodinger_residual(harm, 0, p0) < 1e-6 * harm.hamiltonian_norm
        and schrodinger_residual(harm, 2, p0 + 1) < 1e-6 * harm.hamiltonian_norm
    )

    shift_dev = np.max(
        np.abs(gauge_shift(harm, 0, p0, p0 + 2) - ccp_xEp(harm, 0, p0 + 2))
    )
    conj_dev = 0.0
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        e, xx, pp = int(rng.integers(0, 12)), int(rng.integers(16, 48)), int(
            rng.integers(28, 37)
        )
        try:
            pair = conjugate_product_check(harm, e, xx, pp)
        except Exception:
            continue
        conj_dev = max(conj_dev, abs(pair.lhs - pair.rhs))
        checked += 1
    fourier_dev = fourier_relation_check(harm, 0, 32, p0)

    ok = (
        box_err < 0.02
        and spacing.passed
        and residual_ok
        and shift_dev < 1e-9
        and conj_dev < 1e-9
        and fourier_dev < 1e-9
    )
    _verdict(
        "criterion 5 (lattice physics)",
        ok,
        f"box {box_err:.2%}, spacing defect {spacing.max_defect:.1e}, "
        f"shift {shift_dev:.1e}, conjugate {conj_dev:.1e}, fourier {fourier_dev:.1e}",
    )


def test_criterion_6_classical_limit():
    # phase-gradient momentum on a circulating state above a smooth barrier
    d, length, depth = 256, 20.0, 5.0
    xs = (length / d) * np.arange(d)
    v = depth * np.sin(np.pi * (xs - length / 2) / length) ** 2
    sys_c = build_lattice(d, length, 1.0, 1.0, v)
    e_idx = int(np.argmin(np.abs(sys_c.energies - 15.0)))
    evec = sys_c.e_basis.vectors[:, e_idx]
    k_ref = int(np.argmax(np.abs(sys_c.p_basis.vectors.conj().T @ evec) ** 2))
    table = classical_momentum_check(sys_c, e_idx, range(20, 237), p_ref=k_ref)
    rel = np.max(
        np.abs(np.abs(table.phase_gradient_momentum) - table.classical_momentum)
        / table.classical_momentum
    )

    ratios = []
    for dd in (64, 128, 256):
        sys_h = build_lattice(dd, 20.0, 1.0, 1.0, ("harmonic", 1.0))
        x_idx = int(0.6 * dd)
        p_idx = int(np.argmin(np.abs(sys_h.momenta - 3.0)))
        ratios.append(energy_concentration(sys_h, x_idx, p_idx, 16).ratio)
    monotone = ratios[0] < ratios[1] < ratios[2]

    ok = rel < 0.05 and monotone
    _verdict(
        "criterion 6 (classical limit)",
        ok,
        f"phase-gradient dev {rel:.2%} (<5%), concentration "
        f"{ratios[0]:.3f} < {ratios[1]:.3f} < {ratios[2]:.3f}",
    )


def test_criterion_7_wavefunction_scan():
    sys_box = build_lattice(32, 1.0, 1.0, 1.0, "box")
    p0 = sys_box.zero_momentum_index()
    started = time.perf_counter()
    scan = scan_wavefunction(
        (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis, p0,
        g=0.05, shots_per_point=100_000, seed=ROOT_SEED,
    )
    elapsed = time.perf_counter() - started

    # gauge-aligned eigenvector target at the empirical overall scale
    oracle = sys_box.e_basis.vectors[:, 0].astype(complex)
    target = scan.analytic  # exact conditionals, same scale and gauge
    phase = np.vdot(target, oracle)
    oracle = oracle * np.linalg.norm(target) * (phase / abs(phase)) / np.linalg.norm(oracle)
    bias_rate = max(
        readout_bias_rate(w, 0.2)
        for w in scan.analytic / np.sqrt(scan.postselection_rate * 32)
    )
    scale = np.sqrt(scan.postselection_rate * 32)
    gate_re = np.maximum(4.0 * scan.std_err_re, scale * bias_rate * scan.coupling)
    gate_im = np.maximum(4.0 * scan.std_err_im, scale * bias_rate * scan.coupling)
    bad = int(np.sum(np.abs(scan.values.real - oracle.real) > gate_re)) + int(
        np.sum(np.abs(scan.values.imag - oracle.imag) > gate_im)
    )
    zsq = float(
        np.mean(
            ((scan.values.real - oracle.real) / scan.std_err_re) ** 2
            + ((scan.values.imag - oracle.imag) / scan.std_err_im) ** 2
        )
        / 2.0
    )
    ok = bad == 0 and zsq < 2.5 and elapsed < 300.0
    _verdict(
        "criterion 7 (wavefunction scan, d=32 box ground state)",
        ok,
        f"{bad} component exceedances, mean z^2 {zsq:.2f}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    from qergo.cli import main

    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"params": {"dims": [2, 3], "seeds_per_dim": 3}, "seed": 5}))

    outputs = []
    for tag in ("r1", "r2"):
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / tag)]) == 0
        outputs.append((tmp_path / f"{tag}.json").read_bytes())
    json_identical = outputs[0] == outputs[1]

    z = computational_basis(2)
    x = make_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    y = make_basis(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2))
    r1 = simulate_weak_value((z, 0), (x, 0), y, 0, 0.05, 50_000, 12345)
    r2 = simulate_weak_value((z, 0), (x, 0), y, 0, 0.05, 50_000, 12345)
    report_identical = r1.to_json() == r2.to_json()

    csv_text = "a_label,b_label,re,im\n0,0,0.5,0.0\n0,1,0.0,0.5\n1,0,0.0,-0.5\n1,1,0.5,0.0\n"
    svg_identical = render_distribution(csv_text, "heatmap") == render_distribution(
        csv_text, "heatmap"
    )

    seq1 = simulate_sequential((x, 0), z, x, 20_000, 7)
    seq2 = simulate_sequential((x, 0), z, x, 20_000, 7)
    seq_identical = seq1.to_csv() == seq2.to_csv()

    ok = json_identical and report_identical and svg_identical and seq_identical
    _verdict(
        "criterion 8 (byte-identical reruns)",
        ok,
        f"verify json {json_identical}, weak report {report_identical}, "
        f"svg {svg_identical}, sequential csv {seq_identical}",
    )
