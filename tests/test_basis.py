import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import (
    Basis,
    DimensionMismatch,
    NotOrthonormal,
    ParseError,
    computational_basis,
    ergodic_table,
    fourier_basis,
    haar_random_basis,
    make_basis,
)
from qergo.basis import (
    GRAM_INTERNAL_TOL,
    GRAM_INPUT_TOL,
    PHASE_PIVOT_TOL,
    _adjoint,
    _column_phases,
    _dft_columns,
    _finish_basis,
    _gram_defect,
    haar_random_bases,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestMakeBasis:
    def test_identity_columns_give_computational_basis(self):
        b = make_basis(np.eye(2))
        assert b.dim == 2
        assert b.labels == ("0", "1")
        np.testing.assert_allclose(b.vectors, np.eye(2))

    def test_hadamard_columns(self):
        b = make_basis(np.array([[1, 1], [1, -1]]) * SQRT_HALF)
        np.testing.assert_allclose(
            b.vectors, np.array([[1, 1], [1, -1]]) * SQRT_HALF, atol=1e-15
        )

    def test_duplicate_column_rejected(self):
        cols = np.array([[1, 1], [1, 1]]) * SQRT_HALF
        with pytest.raises(NotOrthonormal):
            make_basis(cols)

    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_basis([[1, 0], [0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_basis(np.ones((2, 3)))

    def test_dim_one_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_basis(np.eye(1))

    def test_phase_convention_first_significant_component(self):
        # global phases on the columns are stripped
        mat = np.array([[1j, 0], [0, -1]], dtype=complex)
        b = make_basis(mat)
        np.testing.assert_allclose(b.vectors, np.eye(2), atol=1e-15)

    def test_phase_convention_idempotent(self):
        b = haar_random_basis(5, 123)
        again = make_basis(b.vectors, labels=b.labels)
        assert np.max(np.abs(again.vectors - b.vectors)) < 1e-12

    def test_values_length_checked(self):
        with pytest.raises(DimensionMismatch):
            make_basis(np.eye(3), values=[1.0, 2.0])

    def test_labels_length_checked(self):
        with pytest.raises(DimensionMismatch):
            make_basis(np.eye(3), labels=["a", "b"])

    @pytest.mark.parametrize(
        "labels",
        [["a,1", "b"], ["<b", "c"], ["b>", "c"], ["a&", "b"], ['"a"', "b"],
         ["a\nb", "c"], ["a\r", "b"], ["a\u2028", "b"], ["a", "a"]],
    )
    def test_labels_unique_and_free_of_delimiters(self, labels):
        with pytest.raises(ValueError):
            make_basis(np.eye(2), labels=labels)


class TestFourierBasis:
    def test_d2_is_hadamard(self):
        f = fourier_basis(2)
        np.testing.assert_allclose(
            f.vectors, np.array([[1, 1], [1, -1]]) * SQRT_HALF, atol=1e-15
        )

    def test_d4_mutually_unbiased_with_computational(self):
        f = fourier_basis(4)
        probs = np.abs(f.vectors) ** 2
        np.testing.assert_allclose(probs, np.full((4, 4), 0.25), atol=1e-14)

    def test_d3_gram_matrix(self):
        f = fourier_basis(3)
        gram = f.vectors.conj().T @ f.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


class TestStructuralGate:
    """The structured bases, the identity (``first`` None) and the DFT, pass the one Gram gate."""

    @staticmethod
    def _structure(first):
        return np.eye(16) if first is None else _dft_columns(16, first, range(16))

    @pytest.mark.parametrize("first", [None, 0, -8])
    def test_exact_structures_pass(self, first):
        mat = self._structure(first)
        assert np.array_equal(_finish_basis(mat).vectors, mat)

    @pytest.mark.parametrize("first", [None, 0, -8])
    @pytest.mark.parametrize("entry", [(0, 0), (3, 11)])
    @pytest.mark.parametrize("bad", [1e-9, np.nan])
    def test_one_bad_entry_rejected(self, first, entry, bad):
        mat = self._structure(first)
        mat[entry] += bad
        with pytest.raises(NotOrthonormal):
            _finish_basis(mat)

    @pytest.mark.parametrize("first", [0, -4, 3])
    def test_dft_matches_exp_formula(self, first):
        j = np.arange(8)
        phases = np.outer(j, first + j) % 8  # reduced, so exp sees the table's arguments
        np.testing.assert_array_equal(
            _dft_columns(8, first, range(8)), np.exp(2j * np.pi * phases / 8) / np.sqrt(8)
        )

    @pytest.mark.parametrize("dim", [2, 3, 16, 33])
    def test_agrees_with_gram_product(self, dim):
        for mat in (computational_basis(dim).vectors, fourier_basis(dim).vectors):
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) <= GRAM_INTERNAL_TOL
            np.testing.assert_array_equal(mat * _column_phases(mat), mat)  # gauge holds as built


class TestGramDefect:
    """One helper, max|U^H diag(w) U - I|; the input gate takes it on both sides."""

    @staticmethod
    def _skewed_dft():
        # U = D F, D = diag(s, 1, ..., 1) with s^2 = 1 + 2e-8: U^H U - I has entries
        # 2e-8 / d = 2.5e-9, U U^H - I = D^2 - I one entry 2e-8
        mat = _dft_columns(8, 0, range(8))
        mat[0] *= np.sqrt(1.0 + 2e-8)
        return mat

    def test_one_side_passes_two_sides_fail(self):
        mat = self._skewed_dft()
        one_sided = _gram_defect(mat)
        two_sided = max(one_sided, _gram_defect(_adjoint(mat)))
        assert one_sided == pytest.approx(2.5e-9, rel=1e-6) and one_sided <= GRAM_INPUT_TOL
        assert two_sided == pytest.approx(2.0e-8, rel=1e-6) and two_sided > GRAM_INPUT_TOL

    def test_make_basis_gates_both_sides(self):
        with pytest.raises(NotOrthonormal):
            make_basis(self._skewed_dft())

    def test_from_json_gates_both_sides(self):
        mat = self._skewed_dft()
        payload = {"dim": 8, "labels": [str(k) for k in range(8)], "values": None,
                   "re": mat.real.tolist(), "im": mat.imag.tolist()}
        with pytest.raises(NotOrthonormal):
            Basis.from_json(json.dumps(payload))

    def test_weighted_real_matrix(self):
        rng = np.random.default_rng(3)
        mat, weights = rng.standard_normal((6, 4)), rng.uniform(0.5, 2.0, 6)
        explicit = mat.T @ np.diag(weights) @ mat - np.eye(4)
        assert _gram_defect(mat, weights) == pytest.approx(np.max(np.abs(explicit)), rel=1e-14)
        explicit = 2.0 * mat.T @ mat - np.eye(4)
        assert _gram_defect(mat, 2.0) == pytest.approx(np.max(np.abs(explicit)), rel=1e-14)

    def test_weighted_complex_stack(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        weights = rng.uniform(0.5, 2.0, 5)
        explicit = max(
            np.max(np.abs(u.conj().T @ np.diag(weights) @ u - np.eye(5))) for u in stack
        )
        assert _gram_defect(stack, weights) == pytest.approx(explicit, rel=1e-14)
        unweighted = max(np.max(np.abs(u.conj().T @ u - np.eye(5))) for u in stack)
        assert _gram_defect(stack) == pytest.approx(unweighted, rel=1e-14)


class TestHaarRandomBasis:
    def test_deterministic_for_fixed_seed(self):
        a = haar_random_basis(2, 1)
        b = haar_random_basis(2, 1)
        assert np.array_equal(a.vectors, b.vectors)

    def test_different_seeds_differ(self):
        assert not np.allclose(
            haar_random_basis(3, 1).vectors, haar_random_basis(3, 2).vectors
        )

    def test_d8_orthonormal(self):
        b = haar_random_basis(8, 7)
        gram = b.vectors.conj().T @ b.vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_first_moment_matches_haar_measure(self):
        # |<0|u_0>|^2 is Beta(1, d-1) under the Haar measure: mean 1/d,
        # variance (d-1)/(d^2 (d+1)).
        d, n = 2, 10_000
        samples = np.array(
            [abs(haar_random_basis(d, s).vectors[0, 0]) ** 2 for s in range(n)]
        )
        se = np.sqrt((d - 1) / (d**2 * (d + 1)) / n)
        assert abs(samples.mean() - 1.0 / d) < 3.0 * se


class TestErgodicProb:
    def test_same_outcome_is_one(self, z2):
        assert ergodic_table(z2, z2)[0, 0] == pytest.approx(1.0)

    def test_unbiased_pair_is_one_over_d(self):
        z = computational_basis(4)
        f = fourier_basis(4)
        for j in range(4):
            for k in range(4):
                assert ergodic_table(z, f)[j, k] == pytest.approx(0.25)

    def test_z_zero_against_x_plus(self, z2, x2):
        assert ergodic_table(z2, x2)[0, 0] == pytest.approx(0.5)

    def test_table_transpose_symmetry(self, z2, y2):
        t1 = ergodic_table(z2, y2)
        t2 = ergodic_table(y2, z2)
        np.testing.assert_allclose(t1, t2.T, atol=1e-15)

    def test_overlap_rejects_stacks(self):
        # A stack has one amplitude per entry; no scalar answers for all of them.
        stack = haar_random_bases(3, [1, 2])
        with pytest.raises(DimensionMismatch):
            stack.overlap(0, haar_random_bases(3, [3, 4]), 1)
        with pytest.raises(DimensionMismatch):
            haar_random_basis(3, 1).overlap(0, stack, 1)

    def test_table_columns_sum_to_one(self):
        t = ergodic_table(haar_random_basis(6, 5), haar_random_basis(6, 6))
        np.testing.assert_allclose(t.sum(axis=0), np.ones(6), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_haar_basis_is_unitary_both_sides(dim, seed):
    b = haar_random_basis(dim, seed)
    eye = np.eye(dim)
    assert np.max(np.abs(b.vectors.conj().T @ b.vectors - eye)) < 1e-10
    assert np.max(np.abs(b.vectors @ b.vectors.conj().T - eye)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_phase_pivot_real_nonnegative(dim, seed):
    b = haar_random_basis(dim, seed)
    for k in range(dim):
        col = b.vectors[:, k]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real >= 0.0


class TestSerialization:
    def test_round_trip_bit_faithful(self):
        b = haar_random_basis(5, 99)
        again = Basis.from_json(b.to_json())
        assert np.array_equal(again.vectors, b.vectors)
        assert again.labels == b.labels
        assert again.values is None

    def test_round_trip_with_values(self):
        b = make_basis(np.eye(3), values=[0.5, -1.0, 2.0])
        again = Basis.from_json(b.to_json())
        assert np.array_equal(again.values, b.values)

    def test_bad_gram_rejected_on_load(self):
        b = computational_basis(2)
        import json

        payload = json.loads(b.to_json())
        payload["re"][0][0] = 2.0
        with pytest.raises(NotOrthonormal):
            Basis.from_json(json.dumps(payload))

    def test_immutability(self):
        b = haar_random_basis(3, 1)
        with pytest.raises(ValueError):
            b.vectors[0, 0] = 0.0


class TestFinishBasis:
    """The tail of make_basis, entered directly by unitary-by-construction input."""

    def test_non_unitary_input_rejected(self):
        with pytest.raises(NotOrthonormal):
            _finish_basis(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_zero_column_rejected(self):
        mat = np.eye(3, dtype=complex)
        mat[:, 1] = 0.5 * PHASE_PIVOT_TOL
        with pytest.raises(NotOrthonormal, match="column 1 is numerically zero"):
            _finish_basis(mat)

    def test_dim_one_rejected(self):
        with pytest.raises(DimensionMismatch):
            computational_basis(1)

    def test_label_and_value_lengths_checked(self):
        with pytest.raises(DimensionMismatch):
            _finish_basis(np.eye(3, dtype=complex), labels=["a", "b"])
        with pytest.raises(DimensionMismatch):
            _finish_basis(np.eye(3, dtype=complex), values=[1.0, 2.0])


def _loop_phase_fix(mat: np.ndarray) -> np.ndarray:
    """Column-by-column reference for the vectorized gauge fix."""
    out = np.array(mat, copy=True)
    for k in range(out.shape[1]):
        col = out[:, k]
        pivot = col[np.flatnonzero(np.abs(col) > PHASE_PIVOT_TOL)[0]]
        out[:, k] = col * (np.conj(pivot) / abs(pivot))
    return out


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    leading=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    exponents=st.lists(st.floats(-0.05, 0.05), min_size=24, max_size=24),
)
def test_vectorized_gauge_matches_loop_near_pivot_floor(dim, seed, leading, exponents):
    # Each column opens with up to three components whose magnitudes lie
    # within about 12% of the pivot floor, so the pivot may be any of them
    # or the first ordinary component after them.
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for k in range(dim):
        for j in range(min(leading[k], dim - 1)):
            phase = np.exp(2j * np.pi * rng.uniform())
            mat[j, k] = PHASE_PIVOT_TOL * 10.0 ** exponents[3 * k + j] * phase
    fixed = mat * _column_phases(mat)
    assert np.max(np.abs(fixed - _loop_phase_fix(mat))) <= 1e-14


class TestFromJsonChecks:
    """The loader rejects what make_basis would reject."""

    @staticmethod
    def _payload():
        return json.loads(make_basis(np.eye(3), values=[0.0, 1.0, 2.0]).to_json())

    @staticmethod
    def _load(payload):
        return Basis.from_json(json.dumps(payload))

    def test_label_count_rejected(self):
        payload = self._payload()
        payload["labels"] = payload["labels"][:2]
        with pytest.raises(DimensionMismatch):
            self._load(payload)

    def test_value_count_rejected(self):
        payload = self._payload()
        payload["values"] = payload["values"] + [3.0]
        with pytest.raises(DimensionMismatch):
            self._load(payload)

    def test_dim_one_rejected(self):
        payload = {"dim": 1, "labels": ["0"], "values": None, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(DimensionMismatch):
            self._load(payload)

    @pytest.mark.parametrize("key", ["re", "im"])
    def test_ragged_matrix_rejected(self, key):
        payload = self._payload()
        payload[key][1] = payload[key][1][:2]
        with pytest.raises(ParseError):
            self._load(payload)

    @pytest.mark.parametrize("key", ["dim", "labels", "re", "im"])
    def test_missing_field_rejected(self, key):
        payload = self._payload()
        del payload[key]
        with pytest.raises(ParseError):
            self._load(payload)
