import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import (
    BasisMismatch,
    DimensionMismatch,
    PhaseProfile,
    apply_phase_transform,
    backaction_check,
    ccp_table,
    computational_basis,
    ergodic_table,
    quantized_spectrum_check,
    transformed_prob,
)
from qergo.verify import conjugation_prob
from conftest import haar_triple


def _zx_table():
    from qergo import computational_basis, make_basis

    z = computational_basis(2)
    x = make_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2), labels=["+", "-"])
    return z, x, ccp_table(z, x, x)


def _transition(b, a):
    """p(b|a) as [a, b], the layout of :func:`transformed_prob`."""
    return ergodic_table(b, a).T


class TestApplyPhaseTransform:
    def test_zero_phases_identity(self):
        z, x, t = _zx_table()
        out = apply_phase_transform(t, PhaseProfile.from_phases(z, [0.0, 0.0]))
        np.testing.assert_allclose(out[:, t.defined_mask], t.vals[:, t.defined_mask], atol=1e-15)
        assert np.isnan(out[:, ~t.defined_mask]).all()

    def test_constant_phase_cancels(self):
        z, x, t = _zx_table()
        out = apply_phase_transform(t, PhaseProfile.from_phases(z, [1.3, 1.3]))
        np.testing.assert_allclose(out[:, t.defined_mask], t.vals[:, t.defined_mask], atol=1e-14)

    def test_pi_flip_on_plus_state_degenerates(self):
        # <U(+)|+> = <-|+> = 0: the transformed pair is orthogonal, so its column is NaN
        z, x, t = _zx_table()
        out = apply_phase_transform(t, PhaseProfile.from_phases(z, [0.0, np.pi]))
        assert np.isnan(out[:, 0, 0]).all()

    def test_transformed_overlap_decides_definedness(self):
        # |<b|a>| = 1 is defined and |sum_m p(m|a,b) e^{i phi_m}| = 5e-12, which a floor
        # of 1e-12 on that sum alone would keep; the transformed overlap is at or
        # below ORTHOGONALITY_CUTOFF, so is_defined rules the column undefined.
        z, x, t = _zx_table()
        phases = np.array([0.0, np.pi + 1e-11])
        assert 1e-12 < abs(t.column(0, 0) @ np.exp(1j * phases)) <= 1e-10
        out = apply_phase_transform(t, PhaseProfile.from_phases(z, phases))
        assert np.isnan(out[:, 0, 0]).all()
        kept = apply_phase_transform(t, PhaseProfile.from_phases(z, [0.0, np.pi + 1e-9]))
        assert np.isfinite(kept[:, 0, 0]).all()

    def test_output_sums_to_one(self):
        m, a, b = haar_triple(5, 40)
        t = ccp_table(m, a, b)
        prof = PhaseProfile.from_phases(m, np.linspace(0.0, 2.0, 5))
        out = apply_phase_transform(t, prof)
        assert t.defined_mask.all()
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_profile_basis_checked(self):
        m, a, b = haar_triple(3, 41)
        t = ccp_table(m, a, b)
        with pytest.raises(BasisMismatch):
            apply_phase_transform(t, PhaseProfile.from_phases(a, [0.0, 0.0, 0.0]))

    def test_composition_and_inversion(self):
        m, a, b = haar_triple(4, 42)
        t = ccp_table(m, a, b)
        phi = np.array([0.1, 0.7, -0.4, 1.9])
        psi = np.array([0.5, -0.2, 0.9, 0.3])
        step1 = apply_phase_transform(t, PhaseProfile.from_phases(m, phi))
        # feed the transformed table back in
        t_mid = dataclasses.replace(t, vals=step1)
        step2 = apply_phase_transform(t_mid, PhaseProfile.from_phases(m, psi))
        joint = apply_phase_transform(t, PhaseProfile.from_phases(m, phi + psi))
        np.testing.assert_allclose(step2, joint, atol=1e-10)
        undo = apply_phase_transform(t_mid, PhaseProfile.from_phases(m, -phi))
        np.testing.assert_allclose(undo, t.vals, atol=1e-10)


class TestTransformedProb:
    def test_zero_phases_give_transition_prob(self):
        m, a, b = haar_triple(3, 50)
        t = ccp_table(m, a, b)
        prof = PhaseProfile.from_phases(m, np.zeros(3))
        for direction in ("on_a", "on_b"):
            np.testing.assert_allclose(
                transformed_prob(t, prof, direction), _transition(b, a), atol=1e-15
            )

    def test_z_pi_rotation_sends_plus_to_minus(self):
        z, x, t = _zx_table()
        prof = PhaseProfile.from_phases(z, [0.0, np.pi])
        out = transformed_prob(t, prof, "on_a")
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        # the (+, -) column itself is an orthogonal pair: the flipped
        # output probability is only reachable through the matrix oracle
        assert np.isnan(out[0, 1])
        assert conjugation_prob(z, np.array([0.0, np.pi]), x, x, "on_a")[0, 1] == (
            pytest.approx(1.0)
        )

    def test_constant_phase_shift_invariance(self):
        m, a, b = haar_triple(4, 51)
        t = ccp_table(m, a, b)
        phi = np.array([0.2, 1.1, -0.7, 0.4])
        base = transformed_prob(t, PhaseProfile.from_phases(m, phi), "on_a")
        shifted = transformed_prob(t, PhaseProfile.from_phases(m, phi + 2.2), "on_a")
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_direction_sign_relation(self):
        m, a, b = haar_triple(4, 52)
        t = ccp_table(m, a, b)
        phi = np.array([0.3, -0.8, 1.4, 0.1])
        on_a = transformed_prob(t, PhaseProfile.from_phases(m, phi), "on_a")
        on_b = transformed_prob(t, PhaseProfile.from_phases(m, -phi), "on_b")
        np.testing.assert_allclose(on_a, on_b, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_unitary_conjugation_oracle(self, seed):
        dim = 2 + seed % 3
        m, a, b = haar_triple(dim, seed)
        t = ccp_table(m, a, b)
        rng = np.random.default_rng(seed)
        phi = rng.uniform(0, 2 * np.pi, dim)
        prof = PhaseProfile.from_phases(m, phi)
        for direction in ("on_a", "on_b"):
            via_ccp = transformed_prob(t, prof, direction)
            via_matrix = conjugation_prob(m, phi, a, b, direction)
            assert np.max(np.abs(via_ccp - via_matrix)[t.defined_mask]) < 1e-10

    def test_alignment_maximizes_output(self):
        # phases matching Arg p(m|a,b) beat 1000 random profiles
        m, a, b = haar_triple(5, 53)
        t = ccp_table(m, a, b)
        col = t.column(0, 0)
        best = transformed_prob(t, PhaseProfile.from_phases(m, np.angle(col)), "on_a")[0, 0]
        rng = np.random.default_rng(99)
        for _ in range(1000):
            prof = PhaseProfile.from_phases(m, rng.uniform(0, 2 * np.pi, 5))
            assert transformed_prob(t, prof, "on_a")[0, 0] <= best + 1e-12

    def test_invalid_direction(self):
        m, a, b = haar_triple(3, 54)
        t = ccp_table(m, a, b)
        with pytest.raises(ValueError):
            transformed_prob(t, PhaseProfile.from_phases(m, np.zeros(3)), "sideways")
        with pytest.raises(ValueError):
            conjugation_prob(m, np.zeros(3), a, b, "sideways")


def _dephased(t):
    """p(b|a) sum_m |p(m|a,b)|^2 as [a, b]: the summed direct side of the back-action check."""
    return backaction_check(t).rhs.sum(axis=-3)


class TestDephase:
    def test_m_equals_a_basis_collapses(self):
        from qergo import computational_basis, make_basis

        z = computational_basis(2)
        x = make_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        t = ccp_table(z, z, x)
        assert _dephased(t)[0, 0] == pytest.approx(ergodic_table(x, z)[0, 0])

    def test_qubit_half(self):
        z, x, t = _zx_table()
        assert _dephased(t)[0, 0] == pytest.approx(0.5)

    def test_equals_sequential_sum(self):
        m, a, b = haar_triple(5, 55)
        t = ccp_table(m, a, b)
        p_b_m, p_m_a = ergodic_table(b, m), ergodic_table(m, a)
        dephased = _dephased(t)
        for ai in range(5):
            for bi in range(5):
                seq = sum(p_b_m[bi, mi] * p_m_a[mi, ai] for mi in range(5))
                assert dephased[ai, bi] == pytest.approx(seq, abs=1e-10)

    def test_is_mean_of_random_phase_transforms(self):
        # 1e5 uniform draws, gate at four standard errors
        m, a, b = haar_triple(5, 56)
        t = ccp_table(m, a, b)
        target = _dephased(t)[2, 1]
        rng = np.random.default_rng(123)
        n = 100_000
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, 5))
        col = t.column(2, 1)
        p_b_a = ergodic_table(b, a)[1, 2]
        amps = np.exp(-1j * phases) @ col
        values = p_b_a * np.abs(amps) ** 2
        se = values.std(ddof=1) / np.sqrt(n)
        assert abs(values.mean() - target) < 4.0 * se


class TestPhaseProfile:
    def test_generator_identity_is_exact(self):
        from qergo import computational_basis

        z = computational_basis(3)
        energies = np.array([0.0, 1.5, 4.0])
        prof = PhaseProfile.from_generator(z, energies, parameter=0.7, hbar=2.0)
        assert np.array_equal(prof.phases, energies * 0.7 / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phases_rejected(self, bad):
        from qergo import computational_basis

        with pytest.raises(ValueError, match="phases"):
            PhaseProfile.from_phases(computational_basis(2), [0.0, bad])

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("energies", dict(energies=[0.0, np.nan], parameter=1.0)),
            ("energies", dict(energies=[np.inf, 1.0], parameter=1.0)),
            ("parameter", dict(energies=[0.0, 1.0], parameter=np.nan)),
            ("parameter", dict(energies=[0.0, 1.0], parameter=np.inf)),
            ("hbar", dict(energies=[0.0, 1.0], parameter=1.0, hbar=np.nan)),
            ("hbar", dict(energies=[0.0, 1.0], parameter=1.0, hbar=np.inf)),
        ],
    )
    def test_non_finite_generator_rejected(self, field, kwargs):
        from qergo import computational_basis

        with pytest.raises(ValueError, match=field):
            PhaseProfile.from_generator(computational_basis(2), **kwargs)

    def test_json_round_trip_fields(self):
        from qergo import computational_basis

        z = computational_basis(2)
        prof = PhaseProfile.from_generator(z, [0.0, 2.0], parameter=1.0)
        payload = prof.to_json()
        import json

        data = json.loads(payload)
        assert data["labels"] == ["0", "1"]
        assert data["E"] == [0.0, 2.0]
        assert data["t"] == 1.0
        assert data["hbar"] == 1.0


class TestQuantizedSpectrum:
    def test_exact_multiples_pass(self):
        unit = 2 * np.pi
        result = quantized_spectrum_check([0.0, unit, 2 * unit], period=1.0, hbar=1.0)
        assert result.passed
        assert result.max_defect == 0.0

    def test_half_integer_spacing_fails(self):
        unit = 2 * np.pi
        result = quantized_spectrum_check([0.0, 0.5 * unit], period=1.0, hbar=1.0)
        assert not result.passed
        assert result.max_defect == pytest.approx(0.5)

    def test_passing_profile_at_full_period_is_identity(self):
        # if the spectrum passes, phases at t = T act trivially
        m, a, b = haar_triple(4, 57)
        t = ccp_table(m, a, b)
        period = 0.9
        unit = 2 * np.pi / period
        energies = unit * np.array([0.0, 1.0, 3.0, 4.0])
        assert quantized_spectrum_check(energies, period, hbar=1.0).passed
        prof = PhaseProfile.from_generator(m, energies, parameter=period)
        np.testing.assert_allclose(transformed_prob(t, prof, "on_a"), _transition(b, a), atol=1e-10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quantized_spectrum_check([0.0, 1.0], period=-1.0, hbar=1.0)
        from qergo import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            quantized_spectrum_check([1.0], period=1.0, hbar=1.0)

    def test_negative_rtol_rejected(self):
        # a perfect spectrum has defect 0.0, which no negative rtol admits: it would read FAIL
        with pytest.raises(ValueError, match="rtol"):
            quantized_spectrum_check([0.0, 2 * np.pi], period=1.0, hbar=1.0, rtol=-1.0)
        assert quantized_spectrum_check([0.0, 2 * np.pi], period=1.0, hbar=1.0, rtol=0.0).passed

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("generator_values", dict(generator_values=[0.0, np.nan])),
            ("generator_values", dict(generator_values=[0.0, np.inf])),
            ("period", dict(period=np.nan)),
            ("period", dict(period=np.inf)),
            ("hbar", dict(hbar=np.nan)),
            ("hbar", dict(hbar=np.inf)),
            ("rtol", dict(rtol=np.nan)),
            ("rtol", dict(rtol=np.inf)),
        ],
    )
    def test_non_finite_input_rejected(self, field, kwargs):
        # a NaN would otherwise read FAIL (an identity violation) or make any spectrum pass
        args = dict(generator_values=[0.0, 2 * np.pi], period=1.0, hbar=1.0, rtol=1e-8)
        with pytest.raises(ValueError, match=field):
            quantized_spectrum_check(**{**args, **kwargs})


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: PhaseProfile.from_phases(computational_basis(2), [0.0]),
            DimensionMismatch, "(1,) phases for dim 2", id="phase-count",
        ),
        pytest.param(
            lambda: PhaseProfile.from_generator(computational_basis(2), [0.0, 1.0], 1.0, hbar=-1.0),
            ValueError, "hbar must be positive, got -1.0", id="generator-hbar",
        ),
        pytest.param(
            lambda: PhaseProfile.from_generator(computational_basis(2), [0.0, 1.0, 2.0], 1.0),
            DimensionMismatch, "(3,) generator values for dim 2", id="generator-value-count",
        ),
        pytest.param(
            lambda: quantized_spectrum_check([0.0, 1.0], 1.0, hbar=-1.0),
            ValueError, "hbar must be positive, got -1.0", id="quantize-hbar",
        ),
    ],
)
def test_input_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
