import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import (
    Basis,
    JointQuasiProb,
    NumericsError,
    ParseError,
    ZeroReferenceOverlap,
    align_global_phase,
    born_rule_coherence,
    ccp_table,
    haar_random_basis,
    inner_product_ccp,
    mix_joints,
    predict_outcome_prob,
    pure_state_joint,
    reconstruct_vector,
    reference_gauge_amplitudes,
)
from conftest import haar_triple


class TestReconstructVector:
    def test_z_state_against_x_reference(self, z2, x2):
        t = ccp_table(z2, z2, x2)
        vec = reconstruct_vector(t, 0)[:, 0]
        np.testing.assert_allclose(vec, [1.0, 0.0], atol=1e-14)

    def test_y_intermediate_unit_norm(self, z2, x2, y2):
        t = ccp_table(y2, z2, x2)
        vec = reconstruct_vector(t, 0)[:, 0]
        np.testing.assert_allclose(np.abs(vec) ** 2, [0.5, 0.5], atol=1e-14)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_zero_reference_overlap(self, z2, y2):
        t = ccp_table(z2, y2, z2)  # intermediate Z, reference in Z
        with pytest.raises(ZeroReferenceOverlap):
            reconstruct_vector(t, 0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_haar_matches_gauge_oracle_up_to_global_phase(self, seed):
        m, a, b = haar_triple(6, seed)
        vecs = reconstruct_vector(ccp_table(m, a, b), 0)
        oracles = reference_gauge_amplitudes(m, a, b, 0)
        for ai in range(6):
            vec = vecs[:, ai]
            oracle = oracles[:, ai]
            aligned = align_global_phase(vec, oracle)
            assert np.max(np.abs(aligned - oracle)) < 1e-9
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_round_trip_all_dims(self):
        for dim in range(2, 9):
            m, a, b = haar_triple(dim, 100 + dim)
            vecs = reconstruct_vector(ccp_table(m, a, b), 1)
            oracles = reference_gauge_amplitudes(m, a, b, 1)
            for ai in range(dim):
                vec = vecs[:, ai]
                oracle = oracles[:, ai]
                assert np.max(np.abs(align_global_phase(vec, oracle) - oracle)) < 1e-9


class TestInnerProduct:
    def test_f_equals_a_is_one(self):
        m, a, b = haar_triple(4, 7)
        val = inner_product_ccp(a, a, m, b, 0)[2, 2]
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_qubit_magnitude(self, z2, x2, y2):
        # intermediate Y with the reference inside Y: the cancelled pairing
        val = inner_product_ccp(x2, z2, y2, y2, 0)[0, 0]
        assert abs(val) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_independent_of_intermediate_basis(self):
        f, a, b = haar_triple(5, 71)
        m1 = haar_random_basis(5, 500)
        m2 = haar_random_basis(5, 501)
        v1 = inner_product_ccp(f, a, m1, b, 2)[1, 3]
        v2 = inner_product_ccp(f, a, m2, b, 2)[1, 3]
        assert abs(v1 - v2) < 1e-9

    def test_magnitude_matches_oracle(self):
        f, a, b = haar_triple(5, 72)
        m = haar_random_basis(5, 502)
        vals = inner_product_ccp(f, a, m, b, 0)
        for fi in range(5):
            for ai in range(5):
                val = vals[fi, ai]
                assert abs(abs(val) - abs(f.overlap(fi, a, ai))) < 1e-9


class TestBornCoherence:
    def test_f_equals_a_gives_one(self):
        m, a, b = haar_triple(4, 73)
        assert born_rule_coherence(a, a, m, (b, 0))[1, 1] == pytest.approx(1.0, abs=1e-10)

    def test_qubit_half(self, z2, x2, y2):
        assert born_rule_coherence(x2, z2, y2, (y2, 0))[0, 0] == pytest.approx(0.5)

    def test_haar_sweep_matches_transition_prob(self):
        f, a, b = haar_triple(5, 74)
        m = haar_random_basis(5, 503)
        vals = born_rule_coherence(f, a, m, (b, 1))
        for fi in range(5):
            for ai in range(5):
                val = vals[fi, ai]
                oracle = abs(f.overlap(fi, a, ai)) ** 2
                assert abs(val - oracle) < 1e-9

    def test_double_sum_hermitian_symmetry(self):
        # the (m, m') summand matrix equals its own conjugate transpose
        # up to the real positive weight ratio, so the total is real
        from qergo.bridge import _paired_conditionals

        f, a, b = haar_triple(4, 75)
        m = haar_random_basis(4, 504)
        left_f, right_f = _paired_conditionals(f, m, a, b, 0)
        left_a, right_a = _paired_conditionals(a, m, f, b, 0)
        left = left_f[1] * right_f[:, 2]  # p(f_1|m,b) p(m|a_2,b) over m
        right = left_a[2] * right_a[:, 1]  # p(a_2|m,b) p(m|f_1,b) over m
        summand = np.outer(left, right)
        np.testing.assert_allclose(summand, summand.conj().T, atol=1e-12)


class TestPureStateJoint:
    def test_a_basis_holding_the_state(self, z2, x2):
        joint = pure_state_joint((z2, 0), z2, x2)
        # row a=0 carries p(b|m); row a=1 vanishes
        np.testing.assert_allclose(joint.vals[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(joint.vals[0], [0.5, 0.5], atol=1e-14)

    def test_qubit_x_y_marginals(self, z2, x2, y2):
        joint = pure_state_joint((z2, 0), x2, y2)
        assert joint.total() == pytest.approx(1.0 + 0.0j, abs=1e-12)
        np.testing.assert_allclose(joint.marginal_a().real, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(joint.marginal_b().real, [0.5, 0.5], atol=1e-12)

    def test_orthogonal_pairs_get_limit_entries(self, z2, x2):
        # A = B: every off-diagonal (a, b) pair is orthogonal, yet the
        # joint is finite and normalized
        joint = pure_state_joint((x2, 0), z2, z2)
        np.testing.assert_allclose(joint.vals, np.diag([0.5, 0.5]), atol=1e-14)

    def test_haar_marginals_match_born_rule(self):
        m, a, b = haar_triple(4, 76)
        joint = pure_state_joint((m, 2), a, b)
        psi = m.vectors[:, 2]
        np.testing.assert_allclose(
            joint.marginal_a(), np.abs(a.vectors.conj().T @ psi) ** 2, atol=1e-9
        )
        np.testing.assert_allclose(
            joint.marginal_b(), np.abs(b.vectors.conj().T @ psi) ** 2, atol=1e-9
        )

    def test_matches_conjugate_conditional_where_defined(self):
        m, a, b = haar_triple(3, 77)
        joint = pure_state_joint((m, 0), a, b)
        t = ccp_table(m, a, b)
        p_b_a = np.abs(b.overlaps_with(a)) ** 2
        for ai in range(3):
            for bi in range(3):
                expected = np.conj(t.value(0, ai, bi)) * p_b_a[bi, ai]
                assert joint.vals[ai, bi] == pytest.approx(expected, abs=1e-12)


class TestPredictOutcome:
    def test_m_basis_equals_a_basis_gives_marginal(self, z2, x2, y2):
        joint = pure_state_joint((z2, 0), x2, y2)
        probs = predict_outcome_prob(joint, x2)
        for k in range(2):
            assert probs[k] == pytest.approx(
                joint.marginal_a()[k].real, abs=1e-12
            )

    def test_recovers_sharp_state(self, z2, x2, y2):
        joint = pure_state_joint((z2, 0), x2, y2)
        probs = predict_outcome_prob(joint, z2)
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)

    def test_haar_d6_matches_born_rule(self):
        m, a, b = haar_triple(6, 78)
        f = haar_random_basis(6, 600)
        joint = pure_state_joint((m, 3), a, b)
        psi = m.vectors[:, 3]
        probs = predict_outcome_prob(joint, f)
        for k in range(6):
            oracle = abs(np.vdot(f.vectors[:, k], psi)) ** 2
            assert abs(probs[k] - oracle) < 1e-9

    def test_reference_independence_across_basis_pairs(self):
        m = haar_random_basis(5, 79)
        f = haar_random_basis(5, 601)
        joints = [
            pure_state_joint((m, 1), haar_random_basis(5, 333), haar_random_basis(5, 334)),
            pure_state_joint((m, 1), haar_random_basis(5, 335), haar_random_basis(5, 336)),
        ]
        probs1 = predict_outcome_prob(joints[0], f)
        probs2 = predict_outcome_prob(joints[1], f)
        for k in range(5):
            p1 = probs1[k]
            p2 = probs2[k]
            assert abs(p1 - p2) < 1e-9


class TestMixAndSerialize:
    def test_convex_mixture_interpolates(self):
        m, a, b = haar_triple(3, 81)
        j0 = pure_state_joint((m, 0), a, b)
        j1 = pure_state_joint((m, 1), a, b)
        mixed = mix_joints([j0, j1], [0.25, 0.75])
        np.testing.assert_allclose(
            mixed.vals, 0.25 * j0.vals + 0.75 * j1.vals, atol=1e-15
        )
        assert mixed.total() == pytest.approx(1.0 + 0.0j, abs=1e-12)
        f = haar_random_basis(3, 700)
        expected = 0.25 * predict_outcome_prob(j0, f) + 0.75 * predict_outcome_prob(j1, f)
        probs = predict_outcome_prob(mixed, f)
        for k in range(3):
            assert probs[k] == pytest.approx(expected[k], abs=1e-12)

    def test_bad_weights_rejected(self):
        m, a, b = haar_triple(3, 82)
        j = pure_state_joint((m, 0), a, b)
        with pytest.raises(ValueError):
            mix_joints([j, j], [0.5, 0.6])

    def test_json_round_trip(self):
        m, a, b = haar_triple(3, 83)
        joint = pure_state_joint((m, 0), a, b)
        again = JointQuasiProb.from_json(joint.to_json())
        assert np.array_equal(again.vals, joint.vals)
        assert np.array_equal(again.sandwich, joint.sandwich)

    def test_csv_export_parses(self):
        m, a, b = haar_triple(2, 84)
        joint = pure_state_joint((m, 0), a, b)
        lines = joint.to_csv().strip().splitlines()
        assert lines[0] == "a_label,b_label,re,im"
        assert len(lines) == 5
        total = sum(
            complex(float(row.split(",")[2]), float(row.split(",")[3]))
            for row in lines[1:]
        )
        assert total == pytest.approx(joint.total(), abs=1e-12)


def _nan_basis(dim: int) -> Basis:
    """A basis of NaN vectors, built directly so no constructor check sees it."""
    return Basis(dim=dim, vectors=np.full((dim, dim), np.nan + 0j), labels=tuple("abcdefgh"[:dim]))


class TestNonFiniteFailsClosed:
    """A NaN in a weight, a joint or a basis raises; it never reaches a result."""

    def test_nan_weights_rejected(self):
        m, a, b = haar_triple(3, 85)
        j = pure_state_joint((m, 0), a, b)
        with pytest.raises(ValueError):
            mix_joints([j, j], [np.nan, np.nan])

    def test_nan_sandwich_prediction_raises(self):
        m, a, b = haar_triple(3, 86)
        joint = pure_state_joint((m, 0), a, b)
        broken = dataclasses.replace(joint, sandwich=np.full((3, 3), np.nan + 0j))
        with pytest.raises(NumericsError):
            predict_outcome_prob(broken, m)

    def test_nan_state_joint_raises(self):
        _, a, b = haar_triple(3, 87)
        with pytest.raises(NumericsError):
            pure_state_joint((_nan_basis(3), 0), a, b)

    def test_nan_intermediate_coherence_raises(self):
        f, a, b = haar_triple(3, 88)
        with pytest.raises(NumericsError):
            born_rule_coherence(f, a, _nan_basis(3), (b, 0))


_NAN_3X3 = [[float("nan")] * 3] * 3


class TestJointFromJsonChecks:
    """The loader takes only finite (dim, dim) values and sandwich."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]},  # one-dimensional values
            {"sandwich_re": [[1.0]], "sandwich_im": [[0.0]]},  # 1 x 1 sandwich
            {"sandwich_re": _NAN_3X3},
            {"im": [[float("inf")] * 3] * 3},
            {"sandwich_re": None, "sandwich_im": None},  # the form of a joint without one
        ],
    )
    def test_rejected(self, fields):
        m, a, b = haar_triple(3, 89)
        payload = {**json.loads(pure_state_joint((m, 0), a, b).to_json()), **fields}
        with pytest.raises(ParseError):
            JointQuasiProb.from_json(json.dumps(payload))

    def test_values_of_one_state_with_the_sandwich_of_another_rejected(self):
        m, a, b = haar_triple(3, 89)
        payload = json.loads(pure_state_joint((m, 0), a, b).to_json())
        other = json.loads(pure_state_joint((m, 1), a, b).to_json())
        payload.update(sandwich_re=other["sandwich_re"], sandwich_im=other["sandwich_im"])
        with pytest.raises(ParseError, match="sandwich"):
            JointQuasiProb.from_json(json.dumps(payload))

    @pytest.mark.parametrize("dim, n", [(3, 2), (8, 200), (32, 400)])
    def test_mixtures_within_the_stated_rounding(self, dim, n):
        # The docstring's rounding budget, (2n + 3d + 12) u, holds each mixture.
        _, a, b = haar_triple(dim, 90)
        states = [(haar_random_basis(dim, 900 + k), k % dim) for k in range(n)]
        joints = [pure_state_joint(state, a, b) for state in states]
        weights = np.random.default_rng(n).random(n)
        mixed = mix_joints(joints, weights / weights.sum())
        defect = np.abs(mixed.vals - mixed.sandwich * b.overlaps_with(a).T)
        assert defect.max() <= (2 * n + 3 * dim + 12) * np.finfo(float).eps / 2
        again = JointQuasiProb.from_json(mixed.to_json())
        assert np.array_equal(again.vals, mixed.vals)
