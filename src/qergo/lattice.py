"""Discretized single particle on a 1D periodic grid.

The grid carries three bases on one d-dimensional space: positions
(grid points), momenta (centered discrete Fourier modes, p_k =
2 pi hbar (k - d/2)/L), and energies (eigenvectors of the spectral-method
Hamiltonian p^2/(2 mass) + V).  All conditional-probability machinery
then applies verbatim to the (x, E, p) triple.

Degenerate energy eigenspaces (exactly, or within the block tolerance)
are re-diagonalized against the momentum operator, which makes the energy
basis deterministic and turns free or circulating eigenstates into
momentum-ordered running waves.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import Basis, _finish_basis, _structured_basis
from .ccp import ccp_column, is_defined
from .errors import (
    BadGrid,
    NonHermitian,
    NumericsError,
    OrthogonalCondition,
    PhaseUnwrapFailure,
)

#: Relative wall height used for the box potential.
BOX_WALL_FACTOR = 1e6
#: Fraction of pi above which an adjacent phase jump is ambiguous.
UNWRAP_AMBIGUITY = 1.0 - 1e-6
#: Smallest grid size; every grid size must also be even.
MIN_GRID_SIZE = 8


def valid_grid_size(d: int) -> bool:
    """Whether ``build_lattice`` accepts a grid of ``d`` points."""
    return d >= MIN_GRID_SIZE and d % 2 == 0


def _parse_potential(spec, positions: np.ndarray, length: float, mass: float, hbar: float):
    """Accepts 'free', 'box', ('harmonic', omega), {'kind': ...}, or an array.

    Raises :class:`BadGrid` on an unknown kind, a wrong shape, or any
    non-finite value of V.
    """
    v, canonical = _potential_values(spec, positions, length, mass, hbar)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise BadGrid(f"potential is {v[bad[0]]} at grid point {bad[0]}")
    return v, canonical


def _potential_values(spec, positions: np.ndarray, length: float, mass: float, hbar: float):
    d = positions.size
    if isinstance(spec, str):
        spec = {"kind": spec}
    elif isinstance(spec, tuple):
        kind, *params = spec
        spec = {"kind": kind, "params": params}
    if isinstance(spec, dict):
        kind = spec["kind"]
        if kind == "free":
            return np.zeros(d), {"kind": "free"}
        if kind == "box":
            wall = BOX_WALL_FACTOR * hbar**2 / (mass * length**2)
            v = np.zeros(d)
            v[0] = wall  # one wall site; the periodic seam closes the box
            return v, {"kind": "box"}
        if kind == "harmonic":
            if "params" in spec:
                (omega,) = spec["params"]
            else:
                omega = spec["omega"]
            if not np.isfinite(omega):
                raise BadGrid(f"harmonic frequency is {omega}")
            v = 0.5 * mass * omega**2 * (positions - length / 2.0) ** 2
            return v, {"kind": "harmonic", "omega": float(omega)}
        if kind == "custom":
            arr = np.asarray(spec["values"], dtype=np.float64)
            if arr.shape != (d,):
                raise BadGrid(f"custom potential of shape {arr.shape} for d={d}")
            return arr.copy(), {"kind": "custom", "values": [float(x) for x in arr]}
        raise BadGrid(f"unknown potential kind {kind!r}")
    arr = np.asarray(spec, dtype=np.float64)
    if arr.shape != (d,):
        raise BadGrid(f"potential array of shape {arr.shape} for d={d}")
    return arr.copy(), {"kind": "custom", "values": [float(x) for x in arr]}


@dataclass(frozen=True)
class LatticeSystem:
    """Periodic position grid with its position, momentum, and energy bases.

    ``hamiltonian`` is the real symmetric float64 matrix that was
    diagonalized: the kinetic circulant t[(j - l) mod d] plus diag(V).
    """

    d: int
    length: float
    mass: float
    hbar: float
    potential: np.ndarray  # V(x_j)
    positions: np.ndarray  # x_j = j * dx
    momenta: np.ndarray  # p_k = 2 pi hbar (k - d/2) / L
    x_basis: Basis
    p_basis: Basis
    e_basis: Basis  # values hold the energy eigenvalues, ascending
    hamiltonian: np.ndarray  # real symmetric, float64
    potential_spec: dict

    @property
    def dx(self) -> float:
        return self.length / self.d

    @property
    def energies(self) -> np.ndarray:
        return self.e_basis.values

    @property
    def hamiltonian_norm(self) -> float:
        return float(np.max(np.abs(self.energies)))

    def zero_momentum_index(self) -> int:
        return self.d // 2

    def config_json(self, indent: int | None = None) -> str:
        payload = {
            "d": self.d,
            "L": self.length,
            "mass": self.mass,
            "hbar": self.hbar,
            "potential": self.potential_spec,
        }
        return json.dumps(payload, sort_keys=True, indent=indent)


def build_lattice(
    d: int,
    length: float,
    mass: float,
    hbar: float,
    potential="free",
    degeneracy_tol: float | None = None,
) -> LatticeSystem:
    """Construct the grid, diagonalize, and assemble the three bases.

    The spectral kinetic term is a real symmetric circulant, formed from one
    length-d FFT of p^2/(2 mass), so the Hamiltonian is real and one real
    ``eigh`` diagonalizes it.  The energy basis becomes complex only where a
    degenerate block is rotated onto momentum eigenstates; the block's
    momentum amplitudes come from an FFT of its columns.  The position and
    momentum bases are the exact identity and the centered DFT, Gram-checked
    through their structure in O(d^2 log d).

    Parameters
    ----------
    d : int
        Grid size; even and at least 8.
    length, mass, hbar : float
        Box length and physical constants, all positive and finite.
    potential : str | tuple | dict | array_like
        'free', 'box', ('harmonic', omega), {'kind': ..., ...}, or V values.
    degeneracy_tol : float, optional
        Energy gap below which neighboring eigenvalues are treated as one
        block and re-diagonalized against momentum.  Defaults to
        1e-8 * ||H||, which keeps the eigen-residual contract intact.

    Raises
    ------
    BadGrid
        On a bad grid size or constant, or a potential with an unknown
        kind, a wrong shape, or a non-finite value.
    NonHermitian, NumericsError
        If the kinetic column is not real and even to within rounding, or
        an eigen-residual exceeds 1e-8 * ||H||.
    """
    if not valid_grid_size(d):
        raise BadGrid(f"grid size must be even and >= {MIN_GRID_SIZE}, got {d}")
    if not all(math.isfinite(q) and q > 0 for q in (length, mass, hbar)):
        raise BadGrid("length, mass, and hbar must all be positive and finite")
    dx = length / d
    positions = dx * np.arange(d)
    momenta = 2.0 * np.pi * hbar * (np.arange(d) - d / 2) / length
    v, spec = _parse_potential(potential, positions, length, mass, hbar)

    # Kinetic term: the circulant t[(j - l) mod d], with t = DFT(T) / d for
    # T = p_k^2/(2 mass) in FFT order.  T is even, so the DFT's sign does not
    # matter and t is real and even up to rounding; both are gated here.
    t = np.fft.fft(np.fft.ifftshift(momenta**2 / (2.0 * mass))) / d
    mirror = -np.arange(d)  # n -> (-n) mod d
    scale = max(1.0, float(np.max(np.abs(t))), float(np.max(np.abs(t[0].real + v))))
    herm_defect = float(np.max(np.abs(t - t[mirror].conj())))
    if not herm_defect <= 1e-10 * scale:
        raise NonHermitian(f"Hermiticity defect {herm_defect:.3e}")
    imag_part = float(np.max(np.abs(t.imag)))
    if not imag_part <= 1e-10 * scale:
        raise NumericsError(f"imaginary kinetic part {imag_part:.3e}")
    t = 0.5 * (t.real + t.real[mirror])  # exactly even
    # An even circulant is the symmetric Toeplitz matrix h[j, l] = t[|j - l|]:
    # row j is the window of [t[d-1], ..., t[1], t[0], ..., t[d-1]] at d-1-j.
    h = np.lib.stride_tricks.sliding_window_view(np.concatenate((t[:0:-1], t)), d)[::-1].copy()
    h[np.diag_indices(d)] += v

    energies, vectors = np.linalg.eigh(h)
    h_norm = float(np.max(np.abs(energies)))
    tol = degeneracy_tol if degeneracy_tol is not None else 1e-8 * max(h_norm, 1.0)
    hv = h @ vectors

    # Re-diagonalize (near-)degenerate blocks against momentum so the
    # energy basis is deterministic and running waves come out pure.  Only
    # these blocks make the eigenvectors complex; H applied to a rotated
    # block is (H block) rot, so the residual below needs no second product.
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and energies[stop] - energies[stop - 1] <= tol:
            stop += 1
        if stop - start > 1:
            if not np.iscomplexobj(vectors):
                vectors, hv = vectors.astype(np.complex128), hv.astype(np.complex128)
            block = vectors[:, start:stop]
            # momentum amplitudes <p_k|block>, k in the centered order of ``momenta``
            fb = np.fft.fftshift(np.fft.fft(block, axis=0), axes=0) / math.sqrt(d)
            sub = (fb.conj().T * momenta) @ fb
            sub = 0.5 * (sub + sub.conj().T)
            _, rot = np.linalg.eigh(sub)
            vectors[:, start:stop] = block @ rot
            hv[:, start:stop] = hv[:, start:stop] @ rot
        start = stop

    residual = float(np.max(np.linalg.norm(hv - vectors * energies, axis=0)))
    if not residual <= 1e-8 * max(h_norm, 1.0):
        raise NumericsError(f"eigen-residual {residual:.3e} exceeds 1e-8 * ||H||")

    x_basis = _structured_basis(d, None, [f"x{j}" for j in range(d)], positions)
    # column k is the mode exp(i p_k x / hbar), of DFT frequency k - d/2
    p_basis = _structured_basis(d, -(d // 2), [f"p{k}" for k in range(d)], momenta)
    e_basis = _finish_basis(vectors, [f"E{n}" for n in range(d)], energies)

    positions.setflags(write=False)
    momenta.setflags(write=False)
    v.setflags(write=False)
    h.setflags(write=False)
    return LatticeSystem(
        d=d,
        length=float(length),
        mass=float(mass),
        hbar=float(hbar),
        potential=v,
        positions=positions,
        momenta=momenta,
        x_basis=x_basis,
        p_basis=p_basis,
        e_basis=e_basis,
        hamiltonian=h,
        potential_spec=spec,
    )


def ccp_xEp(sys: LatticeSystem, e_index: int, p_ref: int) -> np.ndarray:
    """Conditional position column p(x|E, p_ref) over the whole grid."""
    return ccp_column(sys.x_basis, sys.e_basis, e_index, sys.p_basis, p_ref)


def eigenfunction_from_ccp(sys: LatticeSystem, e_index: int, p_ref: int) -> np.ndarray:
    """Rescaled conditional sqrt(p(p_ref|E) d) p(x|E,p_ref).

    For the zero-momentum reference this reproduces the energy
    eigenfunction up to one global phase; other references attach the
    gauge ramp exp(-i p_ref x / hbar).
    """
    col = ccp_xEp(sys, e_index, p_ref)
    p_p_e = abs(sys.p_basis.overlap(p_ref, sys.e_basis, e_index)) ** 2
    return math.sqrt(p_p_e * sys.d) * col


def gauge_shift(sys: LatticeSystem, e_index: int, p_from: int, p_to: int) -> np.ndarray:
    """Shift the reference momentum of a conditional column.

    Multiplies p(x|E,p_from) by exp(i (p_from - p_to) x / hbar) and
    renormalizes; equals the directly computed p(x|E,p_to).
    """
    col = ccp_xEp(sys, e_index, p_from)
    ramp = np.exp(
        1j * (sys.momenta[p_from] - sys.momenta[p_to]) * sys.positions / sys.hbar
    )
    shifted = col * ramp
    denom = shifted.sum()
    if not is_defined(denom):
        raise OrthogonalCondition(
            f"target reference p index {p_to} orthogonal to energy index {e_index}"
        )
    return shifted / denom


class ConjugatePair(NamedTuple):
    lhs: complex
    rhs: float


def conjugate_product_check(
    sys: LatticeSystem, e_index: int, x: int, p: int
) -> ConjugatePair:
    """Product p(x|E,p) p(p|E,x) against its constant value 1/d.

    1/d is the lattice counterpart of the continuum density 1/(2 pi hbar)
    under the grid convention dx dp = 2 pi hbar / d.
    """
    col_x = ccp_xEp(sys, e_index, p)
    col_p = ccp_column(sys.p_basis, sys.e_basis, e_index, sys.x_basis, x)
    return ConjugatePair(lhs=complex(col_x[x] * col_p[p]), rhs=1.0 / sys.d)


def fourier_relation_check(
    sys: LatticeSystem, e_index: int, x_ref: int, p_ref: int
) -> float:
    """Worst deviation of the cross-representation transform identity.

    Rebuilds p(p|E,x_ref) for every p from the single position column
    p(x|E,p_ref) via

        p(p|E,x) = sum_x' p(x'|E,p') e^{i(p'-p)x'/h} /
                   (d * p(x|E,p') e^{i(p'-p)x/h})

    and returns the max distance from the directly computed column.
    """
    col = ccp_xEp(sys, e_index, p_ref)
    direct = ccp_column(sys.p_basis, sys.e_basis, e_index, sys.x_basis, x_ref)
    # On the grid (p' - p) x_j / hbar = 2 pi j (p_ref - k) / d, so the sum over
    # x' is the DFT of the column at frequency k - p_ref.
    numer = np.roll(np.fft.fft(col), p_ref)
    k = np.arange(sys.d)
    ramp = np.exp(2j * np.pi * ((x_ref * (p_ref - k)) % sys.d) / sys.d)
    denom = sys.d * col[x_ref] * ramp
    if not is_defined(denom).all():
        raise OrthogonalCondition("reference position has no support in the column")
    rebuilt = numer / denom
    return float(np.max(np.abs(rebuilt - direct)))


def schrodinger_residual(sys: LatticeSystem, e_index: int, p_ref: int) -> float:
    """Residual of the reference-shifted eigenvalue relation on a column.

    Applies (-i hbar d/dx + p_ref)^2 / (2 mass) + V in the spectral
    calculus to the conditional column p(x|E,p_ref) and returns
    ||A c - E c|| / ||c||.  Meaningful for states with negligible support
    at the extreme momenta, where the reference shift would alias.
    """
    col = ccp_xEp(sys, e_index, p_ref)
    shifted_sq = (sys.momenta + sys.momenta[p_ref]) ** 2 / (2.0 * sys.mass)
    # The momentum basis is the DFT in centered order, so the spectral
    # multiplier is applied in FFT order between an FFT and its inverse.
    kinetic_col = np.fft.ifft(np.fft.ifftshift(shifted_sq) * np.fft.fft(col))
    resid = kinetic_col + (sys.potential - float(sys.energies[e_index])) * col
    return float(np.linalg.norm(resid) / np.linalg.norm(col))


def unwrap_phase(angles: np.ndarray) -> np.ndarray:
    """Nearest-branch continuation along the grid; ambiguity is fatal.

    Raises :class:`PhaseUnwrapFailure` when an adjacent jump comes within
    1e-6 of pi, where the branch choice is no longer determined.
    """
    jumps = np.angle(np.exp(1j * np.diff(angles)))
    if np.any(np.abs(jumps) >= np.pi * UNWRAP_AMBIGUITY):
        worst = float(np.max(np.abs(jumps)))
        raise PhaseUnwrapFailure(f"adjacent phase jump {worst:.6f} is ambiguous")
    out = np.empty_like(angles)
    out[0] = angles[0]
    out[1:] = angles[0] + np.cumsum(jumps)
    return out


class ClassicalMomentumTable(NamedTuple):
    x: np.ndarray
    phase_gradient_momentum: np.ndarray
    classical_momentum: np.ndarray


def classical_momentum_check(
    sys: LatticeSystem,
    e_index: int,
    window: range,
    p_ref: int | None = None,
) -> ClassicalMomentumTable:
    """Local momentum from the conditional phase vs the classical value.

    The signed estimate is hbar times the centered finite difference of
    the unwrapped phase of p(x|E, p_ref), plus the reference momentum
    (the conditional carries the gauge ramp exp(-i p_ref x/hbar), so the
    gradient is momentum relative to the reference; the offset vanishes
    for the default zero-momentum reference).  The classical column is
    sqrt(2 mass (E - V(x))).  The window must lie inside the classically
    allowed region, away from the grid edges, with the local wavelength
    resolved by at least four grid points.
    """
    if p_ref is None:
        p_ref = sys.zero_momentum_index()
    lo, hi = window.start, window.stop
    if window.step != 1:
        raise ValueError("window must have unit step")
    if lo < 1 or hi > sys.d - 1 or lo >= hi:
        raise ValueError("window must be a non-empty interior range")
    e_val = float(sys.energies[e_index])
    v_win = sys.potential[lo - 1 : hi + 1]
    if np.any(e_val - v_win <= 0.0):
        raise ValueError("window touches the classically forbidden region")
    p_cl_wide = np.sqrt(2.0 * sys.mass * (e_val - v_win))
    if np.any(2.0 * np.pi * sys.hbar / p_cl_wide < 4.0 * sys.dx):
        raise ValueError("local wavelength under-resolved (need >= 4 grid points)")

    col = ccp_xEp(sys, e_index, p_ref)
    theta = unwrap_phase(np.angle(col[lo - 1 : hi + 1]))
    grad = sys.hbar * (theta[2:] - theta[:-2]) / (2.0 * sys.dx) + sys.momenta[p_ref]
    return ClassicalMomentumTable(
        x=sys.positions[lo:hi],
        phase_gradient_momentum=grad,
        classical_momentum=p_cl_wide[1:-1],
    )


class ConcentrationResult(NamedTuple):
    ratio: float
    classical_bin: int
    bin_sums: np.ndarray


def energy_concentration(
    sys: LatticeSystem, x: int, p: int, n_bins: int
) -> ConcentrationResult:
    """Coarse-grained weight of p(E|x,p) on the classical energy shell.

    Partitions the system's spectral range into ``n_bins`` equal bins,
    coherently sums the conditional energy column within each, and
    returns |s_k*|^2 / sum_k |s_k|^2 for the bin containing the classical
    energy V(x) + p^2/(2 mass).  Off-shell bins cancel internally, so the
    ratio grows toward one as the grid (and with it the spectral range
    per bin) grows.
    """
    if n_bins < 2:
        raise ValueError("need at least two bins")
    col = ccp_column(sys.e_basis, sys.x_basis, x, sys.p_basis, p)
    e_lo, e_hi = float(sys.energies[0]), float(sys.energies[-1])
    edges = np.linspace(e_lo, e_hi, n_bins + 1)
    which = np.clip(np.searchsorted(edges, sys.energies, side="right") - 1, 0, n_bins - 1)
    sums = np.zeros(n_bins, dtype=np.complex128)
    np.add.at(sums, which, col)
    h_classical = float(sys.potential[x] + sys.momenta[p] ** 2 / (2.0 * sys.mass))
    k_star = int(np.clip(np.searchsorted(edges, h_classical, side="right") - 1, 0, n_bins - 1))
    weights = np.abs(sums) ** 2
    ratio = float(weights[k_star] / weights.sum())
    sums.setflags(write=False)
    return ConcentrationResult(ratio=ratio, classical_bin=k_star, bin_sums=sums)


def distribution_csv(sys: LatticeSystem, column: np.ndarray) -> str:
    """Position-distribution export (x, re, im, magnitude, phase_unwrapped)."""
    if column.shape != (sys.d,):
        raise BadGrid(f"column of shape {column.shape} for d={sys.d}")
    mags = np.abs(column)
    angles = np.angle(column)
    try:
        unwrapped = unwrap_phase(angles)
    except PhaseUnwrapFailure:
        unwrapped = angles  # raw phases; continuation is ambiguous here
    buf = io.StringIO()
    buf.write("x,re,im,magnitude,phase_unwrapped\n")
    for j in range(sys.d):
        buf.write(
            f"{float(sys.positions[j])!r},{float(column[j].real)!r},"
            f"{float(column[j].imag)!r},{float(mags[j])!r},{float(unwrapped[j])!r}\n"
        )
    return buf.getvalue()
