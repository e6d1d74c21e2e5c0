from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import (
    PostSelectionStarvation,
    WeakRegimeViolation,
    build_lattice,
    ccp_value,
    ergodic_prob,
    scan_wavefunction,
    simulate_sequential,
    simulate_weak_value,
)
from qergo.ccp import ccp_column
from qergo.weak import (
    _envelopes,
    _sample_momenta,
    _sample_positions,
    pointer_readout_means,
    postselection_weight,
    readout_bias_rate,
)
from conftest import haar_triple

# Bias-rate constants calibrated once against the closed-form pointer
# statistics at the strongest supported coupling g = 0.2 (see
# test_bias_constants_are_calibrated, which re-derives them).
C_BENCHMARK = 0.0125
C_SCAN_BOX32 = 0.0011


def _qubit_scenario(z2, x2, y2):
    return (z2, 0), (x2, 0), y2, 0


class TestPointerReadout:
    def test_weak_limit_recovers_conditional(self):
        w = 0.3 - 0.8j
        for g in (0.05, 0.01):
            exact = pointer_readout_means(w, g)
            assert abs(exact - w) < 2.0 * g**2 * (1 + abs(w)) ** 2

    def test_benchmark_real_part_exact(self):
        # for w = (1+i)/2 the interference weight vanishes: <q>/g = 1/2 at any g
        w = 0.5 + 0.5j
        for g in (0.05, 0.2):
            assert pointer_readout_means(w, g).real == pytest.approx(0.5, abs=1e-14)

    def test_bias_constants_are_calibrated(self, z2, x2, y2):
        w_bench = ccp_value(y2, 0, z2, 0, x2, 0)
        assert readout_bias_rate(w_bench, 0.2) <= C_BENCHMARK
        assert readout_bias_rate(w_bench, 0.2) >= 0.9 * C_BENCHMARK
        sys_box = build_lattice(32, 1.0, 1.0, 1.0, "box")
        ws = ccp_column(
            sys_box.x_basis, sys_box.e_basis, 0, sys_box.p_basis,
            sys_box.zero_momentum_index(),
        )
        worst = max(readout_bias_rate(w, 0.2) for w in ws)
        assert worst <= C_SCAN_BOX32
        assert worst >= 0.5 * C_SCAN_BOX32

    def test_bias_rate_shrinks_with_coupling(self):
        # leading bias is O(g^2), so the rate |bias|/g falls roughly linearly
        w = 0.2 + 0.6j
        assert readout_bias_rate(w, 0.1) < 0.6 * readout_bias_rate(w, 0.2)


def _stated_acceptances(w, g):
    """Acceptance each sampler hands to the shared accept loop."""
    stated = []

    def record(n, acceptance, seed, stream, propose):
        stated.append(acceptance)
        return np.zeros(n), 0

    with mock.patch("qergo.weak._accept_chunks", record):
        _sample_positions(w, g, 1, 0)
        _sample_momenta(w, g, 1, 0)
    return stated


class TestSamplerEnvelopes:
    @settings(max_examples=300, deadline=None)
    @given(
        re=st.floats(-3.0, 3.0),
        im=st.floats(-3.0, 3.0),
        g=st.floats(0.0, 0.2, exclude_min=True),
    )
    def test_envelopes_dominate_and_acceptance_is_exact(self, re, im, g):
        w = complex(re, im)
        shift, pos_mass, mom_mass = _envelopes(w)
        # position: Phi without its normalization, which target and envelope share
        q = np.linspace(-12.0, 12.0, 4001)
        phi_g, phi_0 = np.exp(-((q - g) ** 2) / 4.0), np.exp(-(q**2) / 4.0)
        target = np.abs(w * phi_g + (1 - w) * phi_0) ** 2
        envelope = shift * phi_g**2 + (pos_mass - shift) * phi_0**2
        assert np.all(target <= envelope * (1.0 + 1e-12))
        # momentum: the interference factor over the momentum Gaussian
        k = np.linspace(-6.0, 6.0, 4001)
        assert np.all(np.abs(w * np.exp(-1j * g * k) + (1 - w)) ** 2 <= mom_mass * (1.0 + 1e-12))
        # the stated rates are the target mass over the envelope mass, in (0, 1],
        # and at least the old envelopes' rates (up to the last bits of rounding)
        z = postselection_weight(w, g)
        old = (z / (2.0 * (abs(w) ** 2 + abs(1 - w) ** 2)), z / (abs(w) + abs(1 - w)) ** 2)
        stated = _stated_acceptances(w, g)
        assert stated == [z / pos_mass, z / mom_mass]
        for rate, old_rate in zip(stated, old):
            assert 0.0 < rate <= 1.0
            assert rate >= old_rate * (1.0 - 1e-12)

    def test_scan_like_position_rate_near_one(self):
        # small real w: the old envelope accepted about 1/2, the new one about 1
        stated = _stated_acceptances(0.03, 0.05)
        assert stated[0] > 0.999
        assert stated[1] > 0.999

    @pytest.mark.parametrize("w", [0.03, 0.5 + 0.5j, -0.3, 1.2 - 0.4j])
    def test_moments_and_acceptance_at_strong_coupling(self, w):
        g, n = 0.2, 1_000_000
        exact = pointer_readout_means(w, g)
        z = postselection_weight(w, g)
        _, pos_mass, mom_mass = _envelopes(w)
        qs, q_proposals = _sample_positions(w, g, n, (91, 1))
        ks, k_proposals = _sample_momenta(w, g, n, (91, 2))
        assert qs.size == ks.size == n
        se_re = qs.std(ddof=1) / (g * np.sqrt(n))
        se_im = 2.0 * ks.std(ddof=1) / (g * np.sqrt(n))
        assert abs(qs.mean() / g - exact.real) < 5.0 * se_re
        assert abs(2.0 * ks.mean() / g - exact.imag) < 5.0 * se_im
        for proposals, rate in ((q_proposals, z / pos_mass), (k_proposals, z / mom_mass)):
            # proposals until the n-th accept: sd of n/proposals is rate sqrt((1-rate)/n)
            assert proposals >= n
            assert abs(n / proposals - rate) <= 5.0 * rate * np.sqrt((1.0 - rate) / n)


class TestSimulateWeakValue:
    def test_estimates_within_gate(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 200_000, 2024)
        assert report.analytic_ref == pytest.approx(0.5 + 0.5j)
        gate = report.gate(C_BENCHMARK)
        assert abs(report.estimate.real - 0.5) < gate
        assert abs(report.estimate.imag - 0.5) < gate

    def test_no_postselection_disturbance_when_b_equals_a(self, z2, y2):
        report = simulate_weak_value((z2, 0), (z2, 0), y2, 0, 0.1, 100_000, 5)
        assert report.analytic_ref == pytest.approx(0.5)
        assert abs(report.estimate.real - 0.5) < 4.0 * report.std_err[0]
        assert abs(report.estimate.imag) < 4.0 * report.std_err[1]

    def test_matches_closed_form_at_strong_coupling(self, z2, x2, y2):
        # sharp oracle check of the exact two-Gaussian sampler
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        g = 0.2
        report = simulate_weak_value(a, b, m_basis, m, g, 400_000, 7)
        exact = pointer_readout_means(report.analytic_ref, g)
        assert abs(report.estimate.real - exact.real) < 4.0 * report.std_err[0]
        assert abs(report.estimate.imag - exact.imag) < 4.0 * report.std_err[1]

    def test_deterministic_and_schedule_independent(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        r1 = simulate_weak_value(a, b, m_basis, m, 0.05, 50_000, 42)
        r2 = simulate_weak_value(a, b, m_basis, m, 0.05, 50_000, 42)
        assert r1 == r2
        assert r1.to_json() == r2.to_json()

    def test_postselection_rate_matches(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 400_000, 9)
        rate = report.shots_postselected / report.shots_total
        p = ergodic_prob(x2, 0, z2, 0)
        se = np.sqrt(p * (1 - p) / report.shots_total)
        assert abs(rate - p) < 4.0 * se + 0.01 * p  # small O(g^2) shift allowed

    def test_consistency_across_coupling_and_shots(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        points = [(0.2, 10_000), (0.1, 40_000), (0.05, 160_000)]
        ses = []
        for g, shots in points:
            report = simulate_weak_value(a, b, m_basis, m, g, shots, 77)
            gate = report.gate(C_BENCHMARK)
            assert abs(report.estimate.real - 0.5) < gate
            assert abs(report.estimate.imag - 0.5) < gate
            ses.append(report.std_err[0])
        # quadrupling shots halves the standard error (up to sampling noise
        # of the SE estimate itself and the changing g normalization)
        assert ses[1] / ses[0] == pytest.approx(1.0, abs=0.25)
        assert ses[2] / ses[1] == pytest.approx(1.0, abs=0.25)

    def test_coupling_out_of_range(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        for g in (0.0, -0.1, 0.25):
            with pytest.raises(WeakRegimeViolation):
                simulate_weak_value(a, b, m_basis, m, g, 10_000, 1)

    def test_orthogonal_postselection_starves(self, z2, y2):
        with pytest.raises(PostSelectionStarvation):
            simulate_weak_value((z2, 0), (z2, 1), y2, 0, 0.05, 10_000, 1)

    def test_too_few_shots_rejected(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        with pytest.raises(ValueError):
            simulate_weak_value(a, b, m_basis, m, 0.05, 500, 1)

    def test_report_serialization(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 10_000, 3)
        import json

        payload = json.loads(report.to_json())
        assert payload["shots_total"] == 10_000
        assert payload["analytic_ref"]["re"] == pytest.approx(0.5)
        assert payload["std_err"]["re"] > 0
        assert report.shots_postselected <= report.shots_total


class TestSimulateSequential:
    def test_m_basis_equals_initial_collapses(self, z2, x2):
        run = simulate_sequential((z2, 0), z2, x2, 100_000, 11)
        np.testing.assert_array_equal(run.counts[1], [0, 0])
        freqs = run.freqs
        assert freqs[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_qubit_quarters(self, z2, x2):
        run = simulate_sequential((x2, 0), z2, x2, 1_000_000, 13)
        for m in range(2):
            for b in range(2):
                se = np.sqrt(0.25 * 0.75 / run.shots)
                assert abs(run.freqs[m, b] - 0.25) < 4.0 * se

    def test_matches_backaction_product_haar_d3(self):
        exceedances = 0
        checks = 0
        for scenario in range(20):
            m, a, b = haar_triple(3, 900 + scenario)
            run = simulate_sequential((a, 0), m, b, 20_000, scenario)
            p_m = np.abs(m.vectors.conj().T @ a.vectors[:, 0]) ** 2
            p_b_m = np.abs(b.overlaps_with(m)) ** 2
            expected = p_b_m.T * p_m[:, np.newaxis]
            se = np.sqrt(expected * (1 - expected) / run.shots)
            exceedances += int(np.sum(np.abs(run.freqs - expected) > 4.0 * se))
            checks += expected.size
        assert checks == 180
        assert exceedances <= 1

    def test_b_marginal_matches_dephased_sum(self):
        m, a, b = haar_triple(3, 950)
        run = simulate_sequential((a, 1), m, b, 200_000, 20)
        p_m = np.abs(m.vectors.conj().T @ a.vectors[:, 1]) ** 2
        p_b_m = np.abs(b.overlaps_with(m)) ** 2
        expected = p_b_m @ p_m
        marginal = run.freqs.sum(axis=0)
        se = np.sqrt(expected * (1 - expected) / run.shots)
        assert np.all(np.abs(marginal - expected) < 4.0 * se)

    def test_determinism(self, z2, x2):
        r1 = simulate_sequential((x2, 0), z2, x2, 50_000, 3)
        r2 = simulate_sequential((x2, 0), z2, x2, 50_000, 3)
        assert np.array_equal(r1.counts, r2.counts)
        assert r1.to_csv() == r2.to_csv()


class TestScanWavefunction:
    def test_free_momentum_eigenstate_flat_profile(self):
        sys_free = build_lattice(8, 1.0, 1.0, 1.0, "free")
        p0 = sys_free.zero_momentum_index()
        # the p = 0 eigenstate sits at the bottom of the spectrum
        scan = scan_wavefunction(
            (sys_free.e_basis, 0), sys_free.x_basis, sys_free.p_basis, p0,
            g=0.05, shots_per_point=20_000, seed=31,
        )
        # the analytic column carries the empirical pooled-rate scale,
        # which differs from the ideal one only at the O(g^2) level
        np.testing.assert_allclose(
            scan.analytic, np.full(8, 1 / np.sqrt(8)), atol=1e-3
        )
        gate = np.maximum(4.0 * scan.std_err_re, C_SCAN_BOX32 * 0.05)
        assert np.all(np.abs(scan.values.real - scan.analytic.real) < gate)

    def test_box_ground_state_profile(self):
        sys_box = build_lattice(16, 1.0, 1.0, 1.0, "box")
        p0 = sys_box.zero_momentum_index()
        scan = scan_wavefunction(
            (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis, p0,
            g=0.05, shots_per_point=40_000, seed=33,
        )
        err_re = np.abs(scan.values.real - scan.analytic.real)
        err_im = np.abs(scan.values.imag - scan.analytic.imag)
        assert np.all(err_re < np.maximum(4.0 * scan.std_err_re, 0.01))
        assert np.all(err_im < np.maximum(4.0 * scan.std_err_im, 0.01))

    def test_harmonic_ground_state_profile(self):
        sys_h = build_lattice(32, 20.0, 1.0, 1.0, ("harmonic", 1.0))
        p0 = sys_h.zero_momentum_index()
        scan = scan_wavefunction(
            (sys_h.e_basis, 0), sys_h.x_basis, sys_h.p_basis, p0,
            g=0.05, shots_per_point=40_000, seed=35,
        )
        err_re = np.abs(scan.values.real - scan.analytic.real)
        err_im = np.abs(scan.values.imag - scan.analytic.imag)
        assert np.all(err_re < np.maximum(4.0 * scan.std_err_re, 0.01))
        assert np.all(err_im < np.maximum(4.0 * scan.std_err_im, 0.01))
        # bell-shaped magnitude profile peaked at the well center
        mags = np.abs(scan.analytic)
        assert 15 <= int(np.argmax(mags)) <= 17
        assert mags.max() > 5 * mags[1]

    def test_rate_floor_enforced(self):
        sys_box = build_lattice(16, 1.0, 1.0, 1.0, "box")
        # ground state is orthogonal-ish to a far momentum outcome
        with pytest.raises(PostSelectionStarvation):
            scan_wavefunction(
                (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis, 0,
                g=0.05, shots_per_point=20_000, seed=1,
            )

    def test_dimension_cap_enforced(self):
        sys_big = build_lattice(128, 1.0, 1.0, 1.0, "box")
        with pytest.raises(ValueError):
            scan_wavefunction(
                (sys_big.e_basis, 0), sys_big.x_basis, sys_big.p_basis,
                sys_big.zero_momentum_index(), g=0.05, shots_per_point=20_000, seed=1,
            )

    def test_csv_export_well_formed(self):
        sys_free = build_lattice(8, 1.0, 1.0, 1.0, "free")
        scan = scan_wavefunction(
            (sys_free.e_basis, 0), sys_free.x_basis, sys_free.p_basis,
            sys_free.zero_momentum_index(), g=0.1, shots_per_point=10_000, seed=2,
        )
        lines = scan.to_csv().strip().splitlines()
        assert lines[0] == "x_index,re,im,se_re,se_im,analytic_re,analytic_im"
        assert len(lines) == 9
        assert all(len(row.split(",")) == 7 for row in lines[1:])
