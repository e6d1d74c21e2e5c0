import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import (
    BasisMismatch,
    CcpTable,
    MissingValues,
    NumericsError,
    OrthogonalCondition,
    ParseError,
    backaction_check,
    bayes_convert,
    ccp_table,
    ccp_value,
    chain_compose,
    computational_basis,
    determinism_residual,
    ergodic_table,
    ergodicity_product,
    fourier_basis,
    haar_random_basis,
    make_basis,
    ozawa_error,
    phase_antisymmetry_check,
    sampling_variance,
)
from qergo.basis import haar_random_bases
from qergo.ccp import PHASE_FLOOR, IdentitySides, _not_below_phase_floor, ccp_tables
from conftest import haar_triple


def _determinism(m, a, b):
    return determinism_residual(chain_compose(ccp_table(a, m, b), ccp_table(m, a, b)))


def _ergodicity(m, a, b):
    return ergodicity_product(ccp_table(m, a, b), ccp_table(a, m, b))


def _antisymmetry(m, a, b):
    return phase_antisymmetry_check(ccp_table(m, a, b), ccp_table(a, m, b), ccp_table(m, b, a))


def _bayes(m, a, b):
    return bayes_convert(ccp_table(m, a, b), ccp_table(a, b, m))


def _ozawa(m, a, b):
    return ozawa_error(chain_compose(ccp_table(a, m, b), ccp_table(m, a, b)))


class TestCcpValue:
    def test_same_condition_pair_is_transition_prob(self, z2, y2):
        # a = b collapses the ratio to |<m|a>|^2, real
        v = ccp_value(y2, 0, z2, 0, z2, 0)
        assert v == pytest.approx(0.5)
        assert v.imag == pytest.approx(0.0, abs=1e-15)

    def test_textbook_qubit_example(self, z2, x2, y2):
        assert ccp_value(y2, 0, z2, 0, x2, 0) == pytest.approx(0.5 + 0.5j)
        assert ccp_value(y2, 1, z2, 0, x2, 0) == pytest.approx(0.5 - 0.5j)

    def test_orthogonal_pair_raises(self, z2, y2):
        with pytest.raises(OrthogonalCondition):
            ccp_value(y2, 0, z2, 0, z2, 1)

    def test_dimension_mismatch(self, z2):
        with pytest.raises(BasisMismatch):
            ccp_value(computational_basis(3), 0, z2, 0, z2, 0)


class TestCcpTable:
    def test_all_equal_bases_give_delta(self):
        z = computational_basis(3)
        t = ccp_table(z, z, z)
        for m in range(3):
            for a in range(3):
                assert t.value(m, a, a) == pytest.approx(1.0 if m == a else 0.0)

    def test_matches_entrywise_values(self, z2, x2):
        t = ccp_table(z2, z2, x2)
        for m in range(2):
            for a in range(2):
                for b in range(2):
                    assert t.value(m, a, b) == pytest.approx(
                        ccp_value(z2, m, z2, a, x2, b)
                    )

    def test_haar_columns_normalized(self):
        t = ccp_table(*haar_triple(5, 3))
        assert t.defined_mask.all()
        assert t.normalization_defect() < 1e-9

    def test_masked_entries_raise_on_access(self, z2, y2):
        t = ccp_table(y2, z2, z2)
        assert not t.defined_mask[0, 1]
        with pytest.raises(OrthogonalCondition):
            t.value(0, 0, 1)
        with pytest.raises(OrthogonalCondition):
            t.column(0, 1)

    def test_json_round_trip(self, z2, x2, y2):
        t = ccp_table(y2, z2, x2)
        again = CcpTable.from_json(t.to_json())
        assert np.array_equal(again.vals, t.vals)
        assert np.array_equal(again.defined_mask, t.defined_mask)

    def test_column_csv_shape(self, z2, x2, y2):
        t = ccp_table(y2, z2, x2)
        lines = t.column_csv(0, 0).strip().splitlines()
        assert lines[0] == "m_label,re,im,magnitude,phase"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "+i"
        assert float(fields[1]) == pytest.approx(0.5)
        assert float(fields[2]) == pytest.approx(0.5)


class TestDefinedness:
    """One absolute rule: |<b|a>| at or below 1e-10 leaves (a, b) undefined."""

    def test_overlap_between_relative_and_absolute_cutoff(self):
        # |<b0|a0>| = 9.5e-11 lies above 1e-10 * max|<b|a>| = 8.9e-11 but at
        # or below 1e-10, where a relative rule and the absolute one disagree.
        r = np.sqrt((1.0 - 0.89**2) / 2.0)
        cols = np.column_stack(
            [[9.5e-11, 0.89, r, r], np.random.default_rng(1).standard_normal((4, 3))]
        )
        a, b = computational_basis(4), make_basis(np.linalg.qr(cols)[0])
        m = haar_random_basis(4, 5)
        overlaps = np.abs(b.overlaps_with(a))
        assert overlaps[0, 0] == pytest.approx(9.5e-11, rel=1e-6)
        assert overlaps.max() == pytest.approx(0.89, rel=1e-12)
        table = ccp_table(m, a, b)
        assert not table.defined_mask[0, 0]
        with pytest.raises(OrthogonalCondition):
            table.value(0, 0, 0)
        with pytest.raises(OrthogonalCondition):
            ccp_value(m, 0, a, 0, b, 0)


class TestCcpTableFromJson:
    """The loader rejects tables whose arrays do not fit their bases."""

    @staticmethod
    def _payload(z2, x2, y2):
        return json.loads(ccp_table(y2, z2, x2).to_json())

    def test_values_of_wrong_shape_rejected(self, z2, x2, y2):
        payload = self._payload(z2, x2, y2)
        payload["re"], payload["im"] = payload["re"][:1], payload["im"][:1]
        with pytest.raises(ParseError):
            CcpTable.from_json(json.dumps(payload))

    def test_mask_of_wrong_shape_rejected(self, z2, x2, y2):
        payload = self._payload(z2, x2, y2)
        payload["defined_mask"] = payload["defined_mask"][0]
        with pytest.raises(ParseError):
            CcpTable.from_json(json.dumps(payload))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, z2, x2, y2, bad):
        payload = self._payload(z2, x2, y2)
        payload["re"][0][1][0] = bad
        with pytest.raises(ParseError):
            CcpTable.from_json(json.dumps(payload))


class TestChainRule:
    def test_two_paths_agree_in_d2(self, z2, x2, y2):
        outer = ccp_table(y2, z2, x2)  # p(f|m,b) with F=Y, M=Z
        inner = ccp_table(z2, z2, x2)  # p(m|a,b) over Z given Z, X
        composed = chain_compose(outer, inner)
        direct = ccp_table(y2, z2, x2)
        assert np.max(np.abs(composed.vals - direct.vals)) < 1e-12

    def test_f_equal_a_gives_delta(self):
        m, a, b = haar_triple(4, 11)
        composed = chain_compose(ccp_table(a, m, b), ccp_table(m, a, b))
        delta = np.eye(4)[:, :, np.newaxis]
        assert np.max(np.abs(composed.vals - delta)) < 1e-9

    def test_basis_mismatch_detected(self):
        m, a, b = haar_triple(3, 5)
        with pytest.raises(BasisMismatch):
            chain_compose(ccp_table(a, b, b), ccp_table(m, a, b))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_haar_chain_matches_direct(self, seed):
        m, a, b = haar_triple(4, seed)
        f = haar_random_basis(4, 7 * seed + 5)
        composed = chain_compose(ccp_table(f, m, b), ccp_table(m, a, b))
        direct = ccp_table(f, a, b)
        both = composed.defined_mask & direct.defined_mask
        dev = np.abs(composed.vals - direct.vals).max(axis=0)
        assert dev[both].max() < 1e-9


class TestDeterminism:
    def test_equal_bases_exact_zero(self):
        # M = A: every conditional is an exact 0, 1 or x/x, so the sum is
        # exactly delta.  With B equal too, every composition involves an
        # undefined conditional; nothing is compared and the check fails.
        z = computational_basis(3)
        assert _determinism(z, z, fourier_basis(3)).worst() == 0.0
        assert not _determinism(z, z, z).mask.any()
        assert math.isnan(_determinism(z, z, z).worst())

    def test_qubit_triple(self, z2, x2, y2):
        assert _determinism(z2, x2, y2).worst() < 1e-12

    def test_haar_d8(self):
        assert _determinism(*haar_triple(8, 21)).worst() < 1e-9


class TestErgodicityProduct:
    def test_qubit_value(self, z2, x2, y2):
        prod = _ergodicity(y2, z2, x2).lhs[0, 0, 0]
        assert prod == pytest.approx(0.5)
        assert prod.imag == pytest.approx(0.0, abs=1e-12)

    def test_m_in_own_basis_gives_delta(self, z2, x2):
        prod = _ergodicity(z2, z2, x2).lhs
        assert prod[0, 0, 0] == pytest.approx(1.0)
        assert prod[1, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_haar_d6_real_and_b_independent(self):
        m, a, b = haar_triple(6, 2)
        sides = _ergodicity(m, a, b)
        assert sides.mask.all()
        for mi in range(6):
            ref = ergodic_table(m, a)[mi, 1]
            for bi in range(6):
                prod = sides.lhs[mi, 1, bi]
                assert abs(prod.imag) < 1e-10
                assert abs(prod.real - ref) < 1e-10


class TestBackaction:
    def test_m_equals_a(self, z2, x2):
        sides = backaction_check(ccp_table(z2, z2, x2))
        lhs, rhs = sides.lhs[0, 0, 0], sides.rhs[0, 0, 0]
        assert lhs == pytest.approx(ergodic_table(x2, z2)[0, 0])
        assert rhs == pytest.approx(lhs)

    def test_qubit_quarter(self, z2, x2, y2):
        sides = backaction_check(ccp_table(y2, z2, x2))
        assert sides.lhs[0, 0, 0] == pytest.approx(0.25)
        assert sides.rhs[0, 0, 0] == pytest.approx(0.25)

    def test_haar_d4_full_sweep(self):
        sides = backaction_check(ccp_table(*haar_triple(4, 17)))
        assert sides.mask.all()
        assert np.max(np.abs(sides.lhs - sides.rhs)) < 1e-10


class TestPhaseAntisymmetry:
    def test_real_orthogonal_bases_exact(self):
        theta = 0.3
        rot = make_basis(
            np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
        )
        z = computational_basis(2)
        had = make_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert _antisymmetry(rot, z, had) < 1e-14

    def test_qubit_triple(self, z2, x2, y2):
        assert _antisymmetry(z2, x2, y2) < 1e-12

    def test_haar_d5(self):
        assert _antisymmetry(*haar_triple(5, 9)) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_two_angle_formula(self, seed):
        m, a, b = haar_triple(8, seed)
        forward, backward, swapped = ccp_table(m, a, b), ccp_table(a, m, b), ccp_table(m, b, a)
        fwd = forward.vals
        rev = np.transpose(backward.vals, (1, 0, 2))
        swap = np.transpose(swapped.vals, (0, 2, 1))
        ok_fwd = forward.defined_mask[np.newaxis] & ~(np.abs(fwd) < PHASE_FLOOR)
        ok_rev = backward.defined_mask.T[np.newaxis] & ~(np.abs(rev) < PHASE_FLOOR)
        ok_swap = swapped.defined_mask.T[np.newaxis] & ~(np.abs(swap) < PHASE_FLOOR)
        worst = 0.0
        for other, ok in ((rev, ok_fwd & ok_rev), (swap, ok_fwd & ok_swap)):
            total = np.angle(other[ok]) + np.angle(fwd[ok])
            worst = max(worst, np.max(np.abs(np.remainder(total + np.pi, 2 * np.pi) - np.pi)))
        assert worst > 0.0
        assert abs(phase_antisymmetry_check(forward, backward, swapped) - worst) <= 1e-12

    def test_empty_mask_reads_zero(self, z2, x2, y2):
        def emptied(t):
            return CcpTable(t.m_basis, t.a_basis, t.b_basis, t.vals, np.zeros((2, 2), dtype=bool))

        # nothing to compare: NaN, as IdentitySides.worst gives, so the check fails
        tables = (ccp_table(y2, z2, x2), ccp_table(z2, y2, x2), ccp_table(y2, x2, z2))
        assert math.isnan(phase_antisymmetry_check(*map(emptied, tables)))

    @pytest.mark.parametrize("broken", [1, 2])
    def test_each_identity_breaks_alone(self, broken):
        # a phase of 0.1 on p(a|m,b) breaks only the first identity; on p(m|b,a) only the second
        m, a, b = haar_triple(4, 21)
        tables = [ccp_table(m, a, b), ccp_table(a, m, b), ccp_table(m, b, a)]
        assert phase_antisymmetry_check(*tables) < 1e-12
        t = tables[broken]
        tables[broken] = CcpTable(t.m_basis, t.a_basis, t.b_basis, t.vals * np.exp(0.1j),
                                  t.defined_mask)
        assert phase_antisymmetry_check(*tables) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("dim, seed", [(8, 3), (2, 4), (4, 5)])
    def test_circular_defect_is_the_angle_of_the_product_bit_for_bit(self, dim, seed):
        # reference: |np.angle(u v)| reduced by IdentitySides over the same masks
        m, a, b = haar_triple(dim, seed)
        z = computational_basis(dim)
        for forward, backward, swapped in (
            (ccp_table(m, a, b), ccp_table(a, m, b), ccp_table(m, b, a)),
            (ccp_table(m, z, z), ccp_table(z, m, z), ccp_table(m, z, z)),  # partly undefined
        ):
            fwd = forward.vals
            worst = 0.0
            for other, mask in (
                (np.swapaxes(backward.vals, 0, 1), backward.defined_mask[:, np.newaxis, :]),
                (np.swapaxes(swapped.vals, 1, 2), swapped.defined_mask.T[np.newaxis]),
            ):
                ok = forward.defined_mask & mask & ~(np.abs(fwd) < PHASE_FLOOR)
                ok &= ~(np.abs(other) < PHASE_FLOOR)
                worst = np.maximum(worst, IdentitySides(np.angle(other * fwd), 0.0, ok).worst())
            assert phase_antisymmetry_check(forward, backward, swapped) == worst

    def test_floor_pretest_is_the_abs_mask(self):
        # a d=32 block of two triples, as verify stacks them, in the views the check takes
        m, a, b = (haar_random_bases(32, seeds) for seeds in ([1, 2], [3, 4], [5, 6]))
        t = ccp_tables(dict(m=m, a=a, b=b), ["mab", "amb", "mba"])
        views = [t["mab"].vals, np.swapaxes(t["amb"].vals, -3, -2), np.swapaxes(t["mba"].vals, -2, -1)]
        # a partly undefined triple (its undefined entries hold 0), with NaN, infinite and
        # floor-sized entries; 8e-13 (1 + 1j) is below the floor in each part, not in modulus
        z = computational_basis(4)
        odd = ccp_table(haar_random_basis(4, 7), z, z).vals.copy()
        odd.flat[:12] = [np.nan, complex(np.nan, 1e-13), complex(1e-13, np.nan), np.inf,
                         complex(np.nan, np.inf), 8e-13 * (1 + 1j), 1e-13 * (1 + 1j), 1e-12,
                         -1e-12j, complex(-7.1e-13, 7.1e-13), 0.0, -0.0]
        views += [odd, np.swapaxes(odd, -2, -1)]
        for vals in views:
            assert np.array_equal(_not_below_phase_floor(vals), ~(np.abs(vals) < PHASE_FLOOR))

    def test_conjugate_relation_between_swapped_conditions(self, z2, x2, y2):
        forward = ccp_value(y2, 0, z2, 0, x2, 0)
        swapped = ccp_value(y2, 0, x2, 0, z2, 0)
        assert swapped == pytest.approx(np.conj(forward))


class TestBayesConvert:
    def test_a_basis_equals_b_basis(self, z2, y2):
        sides = _bayes(y2, z2, z2)
        assert sides.mask[0, 0, 0]
        assert sides.lhs[0, 0, 0] == pytest.approx(sides.rhs[0, 0, 0])

    def test_qubit_instance(self, z2, x2, y2):
        sides = _bayes(y2, z2, x2)
        assert abs(sides.lhs[1, 0, 0] - sides.rhs[1, 0, 0]) < 1e-12

    def test_haar_d4_sweep(self):
        sides = _bayes(*haar_triple(4, 31))
        assert sides.mask.all()
        assert np.max(np.abs(sides.lhs - sides.rhs)) < 1e-10


class TestOzawaError:
    def test_deterministic_conditionals_give_zero(self, z2, x2, y2):
        a_vals = make_basis(z2.vectors, values=[1.0, -1.0])
        eps_sq = _ozawa(y2, a_vals, x2)
        assert eps_sq.shape == (2,)
        assert abs(eps_sq[0]) < 1e-9

    def test_classical_pair_variance_oracle(self):
        # enumerate the four (a, a') pairs by hand for +-1 uniform
        values = [1.0, -1.0]
        probs = [0.5, 0.5]
        expected = 0.0
        for va, pa in zip(values, probs):
            for vb, pb in zip(values, probs):
                expected += 0.5 * (va - vb) ** 2 * pa * pb
        assert expected == pytest.approx(1.0)
        assert sampling_variance(values, probs) == pytest.approx(expected)

    def test_sampling_variance_matches_moment_formula(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=6)
        probs = rng.random(6)
        probs /= probs.sum()
        direct = float(probs @ values**2 - (probs @ values) ** 2)
        assert sampling_variance(values, probs) == pytest.approx(direct, abs=1e-14)

    def test_haar_d4_values(self):
        m, a, b = haar_triple(4, 13)
        a_vals = make_basis(a.vectors, values=[0.0, 1.0, 2.0, 3.0])
        eps_sq = _ozawa(m, a_vals, b)
        for bi in range(4):
            assert abs(eps_sq[bi]) < 1e-9

    def test_non_identity_composition_by_hand(self, z2):
        # A = +-1 on z; b rotated so p(0|b_0) = 0.8, p(0|b_1) = 0.2.  Only a != a' carries
        # (A_a - A_a')^2 / 2 = 2, so eps^2(b) = 2 (c[1,0,b] p(0|b) + c[0,1,b] p(1|b)).
        a_vals = make_basis(z2.vectors, values=[1.0, -1.0])
        c, s = np.sqrt(0.8), np.sqrt(0.2)
        b = make_basis(np.array([[c, -s], [s, c]]))
        composed = np.array([[[0.7, 0.6], [0.3, 0.1]], [[0.3, 0.4], [0.7, 0.9]]])  # [a', a, b]
        table = CcpTable(a_vals, a_vals, b, composed.astype(complex), np.ones((2, 2), dtype=bool))
        expected = [2.0 * (0.3 * 0.8 + 0.3 * 0.2), 2.0 * (0.4 * 0.2 + 0.1 * 0.8)]  # 0.6, 0.32
        np.testing.assert_allclose(ozawa_error(table), expected, rtol=0, atol=1e-15)

    def test_missing_values(self, z2, x2, y2):
        with pytest.raises(MissingValues):
            _ozawa(y2, z2, x2)

    def test_nan_composition_raises(self, z2, x2):
        a_vals = make_basis(z2.vectors, values=[1.0, -1.0])
        composed = np.full((2, 2, 2), np.nan + 0j)
        table = CcpTable(a_vals, a_vals, x2, composed, np.ones((2, 2), dtype=bool))
        with pytest.raises(NumericsError):
            ozawa_error(table)


@settings(max_examples=15, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_normalization_invariant(dim, seed):
    t = ccp_table(*haar_triple(dim, seed))
    assert t.normalization_defect() < 1e-9


@settings(max_examples=15, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_backaction_sum_recovers_dephased_total(dim, seed):
    # summing the sequential side over m equals p(b|a) sum_m |p(m|a,b)|^2
    m, a, b = haar_triple(dim, seed)
    t = ccp_table(m, a, b)
    p_b_m = np.abs(b.overlaps_with(m)) ** 2
    p_m_a = np.abs(m.overlaps_with(a)) ** 2
    p_b_a = np.abs(b.overlaps_with(a)) ** 2
    for ai in range(dim):
        for bi in range(dim):
            seq = float(p_b_m[bi] @ p_m_a[:, ai])
            direct = p_b_a[bi, ai] * float(np.sum(np.abs(t.vals[:, ai, bi]) ** 2))
            assert abs(seq - direct) < 1e-10


def _conjugate_swap_is_exact(m, a, b):
    t = ccp_tables({"m": m, "a": a, "b": b}, ["mab", "mba"])
    mab, mba = t["mab"], t["mba"]
    assert np.array_equal(mba.defined_mask, np.swapaxes(mab.defined_mask, -1, -2))
    # + 0.0 makes every zero +0.0: conjugation flips the sign of a zero imaginary part
    got, want = (np.ascontiguousarray(x + 0.0).view(np.uint64)
                 for x in (mba.vals, np.swapaxes(mab.vals, -1, -2).conj()))
    assert np.array_equal(got, want)
    undefined = ~np.broadcast_to(mab.defined_mask[..., np.newaxis, :, :], mab.vals.shape)
    assert np.all(mab.vals[undefined] == 0)
    return mab


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
def test_swapped_table_is_the_exact_conjugate_haar(dim):
    # verify forms the table over (M, B, A) as this conjugate instead of building it
    stack = haar_random_bases(dim, range(10 * dim, 10 * dim + 6))
    m, a, b = (replace(stack, vectors=stack.vectors[[k, k + 3]]) for k in range(3))
    assert _conjugate_swap_is_exact(m, a, b).defined_mask.all()


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_swapped_table_is_the_exact_conjugate_with_undefined_pairs(dim):
    z, f = computational_basis(dim), fourier_basis(dim)
    h = haar_random_basis(dim, 11)
    triples = ((f, z, z), (z, z, z), (h, z, z), (z, z, f), (h, f, z))
    defined = [bool(_conjugate_swap_is_exact(*t).defined_mask.all()) for t in triples]
    assert defined == [False, False, False, True, True]


def _masked_worst(sides):
    """The masked reduction alone: the reference for worst()'s full-mask path."""
    dev = np.abs(sides.lhs - sides.rhs)
    axes = None if sides.axes is None else tuple(range(-sides.axes, 0))
    mask = np.broadcast_to(sides.mask, dev.shape)
    top = np.max(dev, axis=axes, where=mask, initial=-np.inf)
    return np.where(np.any(mask, axis=axes), top, np.nan)[()]


@settings(max_examples=300, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    trail=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    axes=st.sampled_from([None, 2, 3]),
    unit_axes=st.lists(st.booleans(), min_size=5, max_size=5),
    kind=st.sampled_from(["full", "partial", "empty"]),
    nan_at=st.sampled_from([None, True, False]),  # a compared entry, or a masked one
    seed=st.integers(0, 2**32 - 1),
)
def test_worst_full_mask_path_matches_masked_reduction(
    lead, trail, axes, unit_axes, kind, nan_at, seed
):
    shape = (*lead, *trail)
    rng = np.random.default_rng(seed)
    lhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rhs = rng.normal(size=shape[-2:]) + 1j * rng.normal(size=shape[-2:])  # broadcast
    mask_shape = tuple(1 if unit else n for unit, n in zip(unit_axes[-len(shape):], shape))
    mask = {"full": np.ones(mask_shape, dtype=bool), "empty": np.zeros(mask_shape, dtype=bool),
            "partial": rng.random(mask_shape) < 0.5}[kind]
    compared = np.broadcast_to(mask, shape)
    if nan_at is not None:
        spots = np.argwhere(compared == nan_at)
        if len(spots):
            lhs[tuple(spots[rng.integers(len(spots))])] = np.nan
    got = IdentitySides(lhs, rhs, mask, axes).worst()
    want = _masked_worst(IdentitySides(lhs, rhs, mask, axes))
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    # NaN exactly where an instance compares nothing or compares a NaN
    over = None if axes is None else tuple(range(-axes, 0))
    nan_rule = ~np.any(compared, axis=over) | np.any(compared & np.isnan(lhs), axis=over)
    assert np.array_equal(np.isnan(got), nan_rule)
