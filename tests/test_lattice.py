import warnings

import numpy as np
import pytest

from qergo import (
    BadGrid,
    OrthogonalCondition,
    PhaseUnwrapFailure,
    build_lattice,
    make_basis,
    quantized_spectrum_check,
)
from qergo.ccp import ccp_column, ccp_table
from qergo.lattice import (
    ccp_xEp,
    classical_momentum_check,
    conjugate_product_check,
    distribution_csv,
    eigenfunction_from_ccp,
    energy_concentration,
    fourier_relation_check,
    gauge_shift,
    schrodinger_residual,
    unwrap_phase,
)


@pytest.fixture(scope="module")
def box32():
    return build_lattice(32, 1.0, 1.0, 1.0, "box")


@pytest.fixture(scope="module")
def harmonic64():
    return build_lattice(64, 20.0, 1.0, 1.0, ("harmonic", 1.0))


def smooth_well(d: int, length: float = 20.0, depth: float = 5.0):
    """Analytic periodic potential: circulating doublets above the barrier."""
    xs = (length / d) * np.arange(d)
    v = depth * np.sin(np.pi * (xs - length / 2) / length) ** 2
    return build_lattice(d, length, 1.0, 1.0, v)


class TestBuildLattice:
    def test_grid_validation(self):
        with pytest.raises(BadGrid):
            build_lattice(7, 1.0, 1.0, 1.0, "free")
        with pytest.raises(BadGrid):
            build_lattice(6, 1.0, 1.0, 1.0, "free")
        with pytest.raises(BadGrid):
            build_lattice(16, -1.0, 1.0, 1.0, "free")
        with pytest.raises(BadGrid):
            build_lattice(16, 1.0, 1.0, 1.0, {"kind": "nonsense"})
        with pytest.raises(BadGrid):
            build_lattice(16, 1.0, 1.0, 1.0, np.zeros(7))

    def test_free_spectrum_is_kinetic(self):
        sys_free = build_lattice(16, 2 * np.pi, 1.0, 1.0, "free")
        expected = np.sort(sys_free.momenta**2 / 2.0)
        np.testing.assert_allclose(sys_free.energies, expected, atol=1e-9)

    def test_free_eigenvectors_are_momentum_columns(self):
        # after momentum re-diagonalization each energy column matches one
        # momentum column exactly (up to the fixed phase convention)
        sys_free = build_lattice(16, 2 * np.pi, 1.0, 1.0, "free")
        overlap = np.abs(sys_free.p_basis.vectors.conj().T @ sys_free.e_basis.vectors)
        assert np.max(np.abs(np.sort(overlap, axis=0)[-1] - 1.0)) < 1e-10

    def test_momentum_basis_unbiased_with_positions(self, box32):
        probs = np.abs(box32.p_basis.vectors) ** 2
        np.testing.assert_allclose(probs, 1.0 / 32, atol=1e-12)

    def test_box_ground_energy(self):
        sys_box = build_lattice(64, 1.0, 1.0, 1.0, "box")
        continuum = np.pi**2 / 2.0
        assert abs(sys_box.energies[0] - continuum) / continuum < 0.02

    def test_harmonic_levels(self, harmonic64):
        expected = np.arange(5) + 0.5
        np.testing.assert_allclose(harmonic64.energies[:5], expected, rtol=0.01)

    def test_eigen_residuals(self, harmonic64):
        h = harmonic64.hamiltonian
        v = harmonic64.e_basis.vectors
        resid = np.linalg.norm(h @ v - v * harmonic64.energies, axis=0)
        assert resid.max() < 1e-8 * harmonic64.hamiltonian_norm

    @pytest.mark.parametrize("which", ["box32", "harmonic64", "smooth_well"])
    def test_bases_match_make_basis_up_to_column_phases(self, which, request):
        sys_ = smooth_well(64) if which == "smooth_well" else request.getfixturevalue(which)
        ours = (sys_.x_basis, sys_.e_basis, sys_.p_basis)
        theirs = tuple(make_basis(b.vectors, b.labels, b.values) for b in ours)
        # Raw columns may differ by a phase: the polar step moves components
        # near the pivot floor by rounding, which can move the pivot.  The
        # magnitudes and the conditionals do not depend on column phases.
        for a, b in zip(ours, theirs):
            assert np.max(np.abs(np.abs(a.vectors) - np.abs(b.vectors))) <= 1e-14
        t_ours, t_theirs = ccp_table(*ours), ccp_table(*theirs)
        assert np.array_equal(t_ours.defined_mask, t_theirs.defined_mask)
        # p(x|E,p) = <p|x><x|E>/<p|E>; rounding in the denominator moves the
        # ratio by about |numerator| * d * eps / |<p|E>|^2.
        den_sq = np.abs(sys_.p_basis.overlaps_with(sys_.e_basis)).T ** 2  # [E, p]
        dev = np.abs(t_ours.vals - t_theirs.vals) * den_sq[np.newaxis]
        assert dev.max() <= sys_.d * np.finfo(float).eps

    def test_config_json(self, harmonic64):
        import json

        payload = json.loads(harmonic64.config_json())
        assert payload["d"] == 64
        assert payload["potential"] == {"kind": "harmonic", "omega": 1.0}


class TestCcpColumn:
    def test_free_self_conditional_is_flat(self):
        sys_free = build_lattice(16, 2 * np.pi, 1.0, 1.0, "free")
        # E index 0 is the p = 0 eigenstate; condition on the same momentum
        col = ccp_xEp(sys_free, 0, sys_free.zero_momentum_index())
        np.testing.assert_allclose(col, np.full(16, 1.0 / 16), atol=1e-12)
        assert complex(col.sum()) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_box_ground_reconstruction(self, box32):
        psi = eigenfunction_from_ccp(box32, 0, box32.zero_momentum_index())
        oracle = box32.e_basis.vectors[:, 0]
        phase = np.vdot(oracle, psi)
        phase /= abs(phase)
        assert np.max(np.abs(psi / phase - oracle)) < 1e-9

    def test_harmonic_odd_state_parity_blocked(self, harmonic64):
        with pytest.raises(OrthogonalCondition):
            ccp_xEp(harmonic64, 1, harmonic64.zero_momentum_index())

    def test_gauge_ramp_for_offset_reference(self, box32):
        p_ref = box32.zero_momentum_index() + 2
        psi = eigenfunction_from_ccp(box32, 0, p_ref)
        expected = box32.e_basis.vectors[:, 0] * np.exp(
            -1j * box32.momenta[p_ref] * box32.positions / box32.hbar
        )
        phase = np.vdot(expected, psi)
        phase /= abs(phase)
        assert np.max(np.abs(psi / phase - expected)) < 1e-9


class TestGaugeShift:
    def test_identity_shift(self, box32):
        p0 = box32.zero_momentum_index()
        np.testing.assert_allclose(
            gauge_shift(box32, 0, p0, p0), ccp_xEp(box32, 0, p0), atol=1e-14
        )

    def test_matches_direct_between_small_momenta(self, box32):
        p0 = box32.zero_momentum_index()
        direct = ccp_xEp(box32, 0, p0 + 1)
        via_shift = gauge_shift(box32, 0, p0, p0 + 1)
        assert np.max(np.abs(direct - via_shift)) < 1e-10

    def test_random_potential_random_references(self):
        rng = np.random.default_rng(17)
        v = rng.uniform(0.0, 3.0, 32)
        sys_r = build_lattice(32, 5.0, 1.0, 1.0, v)
        for e_idx, pa, pb in [(0, 16, 18), (3, 15, 20), (7, 17, 12)]:
            direct = ccp_xEp(sys_r, e_idx, pb)
            via_shift = gauge_shift(sys_r, e_idx, pa, pb)
            assert np.max(np.abs(direct - via_shift)) < 1e-9


class TestConjugateProduct:
    def test_free_any_triple(self):
        sys_free = build_lattice(16, 2 * np.pi, 1.0, 1.0, "free")
        pair = conjugate_product_check(sys_free, 0, 5, sys_free.zero_momentum_index())
        assert pair.lhs == pytest.approx(pair.rhs, abs=1e-12)

    def test_box_central_point(self, box32):
        pair = conjugate_product_check(box32, 0, 16, box32.zero_momentum_index() + 1)
        assert pair.rhs == pytest.approx(1.0 / 32)
        assert abs(pair.lhs - pair.rhs) < 1e-12
        assert abs(pair.lhs.imag) < 1e-12

    def test_harmonic_random_triples(self, harmonic64):
        rng = np.random.default_rng(3)
        count = 0
        while count < 100:
            e = int(rng.integers(0, 20))
            x = int(rng.integers(10, 54))
            p = int(rng.integers(24, 40))
            try:
                pair = conjugate_product_check(harmonic64, e, x, p)
            except OrthogonalCondition:
                continue
            assert abs(pair.lhs - pair.rhs) < 1e-10
            count += 1


class TestFourierRelation:
    def test_free_lattice_exact(self):
        sys_free = build_lattice(16, 2 * np.pi, 1.0, 1.0, "free")
        dev = fourier_relation_check(sys_free, 0, 5, sys_free.zero_momentum_index())
        assert dev < 1e-12

    def test_box(self, box32):
        dev = fourier_relation_check(box32, 0, 16, box32.zero_momentum_index())
        assert dev < 1e-10

    def test_harmonic(self, harmonic64):
        dev = fourier_relation_check(harmonic64, 0, 32, harmonic64.zero_momentum_index())
        assert dev < 1e-9


class TestSchrodingerResidual:
    def test_box_at_rest_reference(self, box32):
        # wall kink gives the box states algebraic momentum tails, so only
        # the unshifted reference avoids aliasing across the momentum edge
        p0 = box32.zero_momentum_index()
        assert schrodinger_residual(box32, 0, p0) < 1e-6 * box32.hamiltonian_norm
        assert schrodinger_residual(box32, 4, p0) < 1e-6 * box32.hamiltonian_norm

    def test_harmonic_with_shifted_references(self, harmonic64):
        p0 = harmonic64.zero_momentum_index()
        for e_idx, p_ref in [(0, p0), (2, p0 + 1), (4, p0 - 2)]:
            r = schrodinger_residual(harmonic64, e_idx, p_ref)
            assert r < 1e-6 * harmonic64.hamiltonian_norm


class TestPhaseUnwrap:
    def test_smooth_ramp_recovered(self):
        theta = np.linspace(0.0, 12.0, 200)
        wrapped = np.angle(np.exp(1j * theta))
        recovered = unwrap_phase(wrapped)
        np.testing.assert_allclose(recovered - recovered[0], theta, atol=1e-12)

    def test_pi_jump_is_ambiguous(self):
        with pytest.raises(PhaseUnwrapFailure):
            unwrap_phase(np.array([0.0, np.pi, 0.0]))


class TestClassicalMomentum:
    def test_free_momentum_eigenstate_exact(self):
        sys_free = build_lattice(64, 2 * np.pi, 1.0, 1.0, "free")
        k_idx = 40
        p_val = sys_free.momenta[k_idx]
        overlaps = np.abs(
            sys_free.p_basis.vectors[:, k_idx].conj() @ sys_free.e_basis.vectors
        )
        e_idx = int(np.argmax(overlaps))
        table = classical_momentum_check(sys_free, e_idx, range(10, 50), p_ref=k_idx)
        np.testing.assert_allclose(table.phase_gradient_momentum, p_val, atol=1e-10)
        np.testing.assert_allclose(table.classical_momentum, abs(p_val), atol=1e-10)

    def test_circulating_state_matches_wkb_momentum(self):
        sys_c = smooth_well(256)
        energies = sys_c.energies
        e_idx = int(np.argmin(np.abs(energies - 15.0)))
        evec = sys_c.e_basis.vectors[:, e_idx]
        p_amps = np.abs(sys_c.p_basis.vectors.conj().T @ evec) ** 2
        k_ref = int(np.argmax(p_amps))
        table = classical_momentum_check(sys_c, e_idx, range(20, 237), p_ref=k_ref)
        rel = np.abs(np.abs(table.phase_gradient_momentum) - table.classical_momentum)
        assert np.max(rel / table.classical_momentum) < 0.05

    def test_standing_waves_fail_unwrap(self, harmonic64):
        # bound standing waves have a real profile: every node is an
        # ambiguous pi jump, which the unwrapper must refuse
        sys_box = build_lattice(256, 1.0, 1.0, 1.0, "box")
        with pytest.raises(PhaseUnwrapFailure):
            classical_momentum_check(sys_box, 40, range(60, 200))
        sys_h = build_lattice(256, 20.0, 1.0, 1.0, ("harmonic", 1.0))
        with pytest.raises(PhaseUnwrapFailure):
            classical_momentum_check(sys_h, 20, range(100, 156))

    def test_window_validation(self):
        sys_c = smooth_well(64)
        e_idx = int(np.argmin(np.abs(sys_c.energies - 15.0)))
        with pytest.raises(ValueError):
            classical_momentum_check(sys_c, e_idx, range(0, 10))
        deep = int(np.argmin(np.abs(sys_c.energies - 2.0)))
        with pytest.raises(ValueError):
            classical_momentum_check(sys_c, deep, range(2, 62))


class TestEnergyConcentration:
    def test_ratio_grows_with_grid(self):
        ratios = []
        for d in (64, 128, 256):
            sys_h = build_lattice(d, 20.0, 1.0, 1.0, ("harmonic", 1.0))
            x_idx = int(0.6 * d)
            p_idx = int(np.argmin(np.abs(sys_h.momenta - 3.0)))
            ratios.append(energy_concentration(sys_h, x_idx, p_idx, 16).ratio)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_classical_bin_holds_the_shell(self):
        sys_h = build_lattice(128, 20.0, 1.0, 1.0, ("harmonic", 1.0))
        x_idx = 76
        p_idx = int(np.argmin(np.abs(sys_h.momenta - 3.0)))
        result = energy_concentration(sys_h, x_idx, p_idx, 16)
        h_cl = sys_h.potential[x_idx] + sys_h.momenta[p_idx] ** 2 / 2.0
        edges = np.linspace(sys_h.energies[0], sys_h.energies[-1], 17)
        assert edges[result.classical_bin] <= h_cl <= edges[result.classical_bin + 1]
        assert result.ratio > 0.5


class TestQuantizationOnLattice:
    def test_harmonic_spectrum_is_quantized_at_its_period(self, harmonic64):
        # discretization keeps the spacing ladder to well under a percent
        result = quantized_spectrum_check(
            harmonic64.energies[:5], period=2 * np.pi, hbar=1.0, rtol=0.01
        )
        assert result.passed
        assert result.max_defect < 0.01


class TestDistributionCsv:
    def test_round_trip_columns(self, box32):
        col = ccp_xEp(box32, 0, box32.zero_momentum_index())
        text = distribution_csv(box32, col)
        lines = text.strip().splitlines()
        assert lines[0] == "x,re,im,magnitude,phase_unwrapped"
        assert len(lines) == 33
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.0)
        assert float(first[3]) == pytest.approx(abs(col[0]))


# --- the real circulant build against the complex one it replaced ------------

EPS = np.finfo(float).eps


def _dense_fourier(sys_):
    """Momentum columns exp(i x p / hbar) / sqrt(d), one exp per entry."""
    return np.exp(1j * np.outer(sys_.positions, sys_.momenta) / sys_.hbar) / np.sqrt(sys_.d)


def _complex_reference(sys_):
    """The complex build: H = F diag(p^2 / 2m) F^H + V, complex eigh, and each
    degenerate block rotated against momentum through the dense F."""
    d, momenta, fourier = sys_.d, sys_.momenta, _dense_fourier(sys_)
    h = (fourier * (momenta**2 / (2.0 * sys_.mass))) @ fourier.conj().T
    h[np.diag_indices(d)] += sys_.potential
    h = 0.5 * (h + h.conj().T)
    energies, vectors = np.linalg.eigh(h)
    for block in _blocks(energies):
        fb = fourier.conj().T @ vectors[:, block]
        sub = (fb.conj().T * momenta) @ fb
        _, rot = np.linalg.eigh(0.5 * (sub + sub.conj().T))
        vectors[:, block] = vectors[:, block] @ rot
    return h, energies, vectors


def _blocks(energies):
    """Slices of neighbouring levels closer than the default degeneracy tolerance."""
    tol = 1e-8 * max(float(np.max(np.abs(energies))), 1.0)
    cuts = [0, *(np.flatnonzero(np.diff(energies) > tol) + 1), energies.size]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 1]


GRIDS = {
    "box": lambda d: build_lattice(d, 1.0, 1.0, 1.0, "box"),
    "harmonic": lambda d: build_lattice(d, 20.0, 1.0, 1.0, ("harmonic", 1.0)),
    "free": lambda d: build_lattice(d, 2 * np.pi, 1.0, 1.0, "free"),
    "circulating": smooth_well,
}


@pytest.fixture(
    scope="module",
    params=[(kind, d) for d in (64, 128) for kind in GRIDS],
    ids=lambda param: f"{param[0]}{param[1]}",
)
def built(request):
    kind, d = request.param
    sys_ = GRIDS[kind](d)
    return sys_, _complex_reference(sys_)


class TestRealCirculantBuild:
    def test_levels_match_complex_reference(self, built):
        # Both eigh are backward stable: each level is within d eps ||H|| of exact.
        sys_, (_, ref_energies, _) = built
        bound = sys_.d * EPS * float(np.max(np.abs(ref_energies)))
        assert np.max(np.abs(sys_.energies - ref_energies)) <= bound

    def test_columns_match_complex_reference_up_to_gauge(self, built):
        # With both builds within d eps ||H|| of H backward, Davis-Kahan puts
        # each column within d eps ||H|| / gap of the exact eigenvector, where
        # gap is the distance to the nearest level outside its degenerate block.
        sys_, (_, ref_energies, ref_vectors) = built
        energies, ours = sys_.energies, sys_.e_basis.vectors
        block_of = np.arange(sys_.d)
        for block in _blocks(energies):
            block_of[block] = block.start
        gaps = np.array(
            [np.min(np.abs(energies[block_of != block_of[k]] - energies[k])) for k in range(sys_.d)]
        )
        phases = np.sum(ref_vectors.conj() * ours, axis=0)
        phases /= np.abs(phases)
        errors = np.linalg.norm(ours - ref_vectors * phases, axis=0)
        bounds = 2 * sys_.d * EPS * float(np.max(np.abs(ref_energies))) / gaps
        assert np.all(errors <= bounds)

    def test_hamiltonian_real_exactly_symmetric(self, built):
        sys_, (ref_h, _, _) = built
        h = sys_.hamiltonian
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        assert not h.flags.writeable
        assert np.max(np.abs(h - ref_h)) <= sys_.d * EPS * float(np.max(np.abs(ref_h)))

    @pytest.mark.parametrize("kind", ["free", "circulating"])
    @pytest.mark.parametrize("d", [64, 128])
    def test_degenerate_blocks_are_running_waves(self, kind, d):
        sys_ = GRIDS[kind](d)
        blocks = _blocks(sys_.energies)
        assert blocks  # both grids take the degenerate-block path
        amps = _dense_fourier(sys_).conj().T @ sys_.e_basis.vectors  # <p_k|E_n>
        for block in blocks:
            moment = (amps[:, block].conj().T * sys_.momenta) @ amps[:, block]
            off = moment - np.diag(np.diagonal(moment))
            assert np.max(np.abs(off)) <= 1e-9 * float(np.max(np.abs(sys_.momenta)))
        if kind == "free":
            assert np.max(np.abs(np.max(np.abs(amps), axis=0) - 1.0)) <= 1e-12


class TestFftForms:
    @staticmethod
    def _dense_schrodinger(sys_, e_index, p_ref):
        col = ccp_xEp(sys_, e_index, p_ref)
        fourier = _dense_fourier(sys_)
        shifted_sq = (sys_.momenta + sys_.momenta[p_ref]) ** 2 / (2.0 * sys_.mass)
        kinetic = fourier @ (shifted_sq * (fourier.conj().T @ col))
        resid = kinetic + (sys_.potential - float(sys_.energies[e_index])) * col
        return float(np.linalg.norm(resid) / np.linalg.norm(col))

    @staticmethod
    def _dense_fourier_relation(sys_, e_index, x_ref, p_ref):
        col = ccp_xEp(sys_, e_index, p_ref)
        direct = ccp_column(sys_.p_basis, sys_.e_basis, e_index, sys_.x_basis, x_ref)
        delta_p = sys_.momenta[p_ref] - sys_.momenta
        numer = np.exp(1j * np.outer(delta_p, sys_.positions) / sys_.hbar) @ col
        denom = sys_.d * col[x_ref] * np.exp(1j * delta_p * sys_.positions[x_ref] / sys_.hbar)
        return float(np.max(np.abs(numer / denom - direct)))

    @pytest.mark.parametrize("which", ["box32", "harmonic64"])
    def test_schrodinger_residual_matches_dense(self, which, request):
        sys_ = request.getfixturevalue(which)
        p0 = sys_.zero_momentum_index()
        # (4, p0 - 2) on the box aliases across the momentum edge: a large residual
        for e_index, p_ref in [(0, p0), (2, p0 + 1), (4, p0 - 2)]:
            dense = self._dense_schrodinger(sys_, e_index, p_ref)
            fast = schrodinger_residual(sys_, e_index, p_ref)
            assert abs(fast - dense) <= sys_.d * EPS * sys_.hamiltonian_norm

    @pytest.mark.parametrize("which", ["box32", "harmonic64"])
    def test_fourier_relation_matches_dense(self, which, request):
        sys_ = request.getfixturevalue(which)
        p0, mid = sys_.zero_momentum_index(), sys_.d // 2
        for e_index, x_ref, p_ref in [(0, mid, p0), (2, mid + 3, p0 + 1), (4, mid - 2, p0 - 2)]:
            dense = self._dense_fourier_relation(sys_, e_index, x_ref, p_ref)
            fast = fourier_relation_check(sys_, e_index, x_ref, p_ref)
            assert abs(fast - dense) <= sys_.d * EPS


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["array", "custom"])
    def test_potential_rejected(self, bad, form):
        values = np.zeros(16)
        values[5] = bad
        spec = values if form == "array" else {"kind": "custom", "values": values.tolist()}
        with pytest.raises(BadGrid):
            build_lattice(16, 1.0, 1.0, 1.0, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_harmonic_frequency_rejected(self, bad):
        # refused before any arithmetic: inf * 0 would warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadGrid):
                build_lattice(16, 1.0, 1.0, 1.0, ("harmonic", bad))

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_grid_constants_rejected(self, field):
        constants = [1.0, 1.0, 1.0]
        constants[field] = np.nan
        with pytest.raises(BadGrid):
            build_lattice(16, *constants, "free")
