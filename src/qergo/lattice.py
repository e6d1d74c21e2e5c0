"""Discretized single particle on a 1D periodic grid.

The grid carries three bases on one d-dimensional space: positions
(grid points), momenta (centered discrete Fourier modes, p_k =
2 pi hbar (k - d/2)/L), and energies (eigenvectors of the spectral-method
Hamiltonian p^2/(2 mass) + V).  All conditional-probability machinery
then applies verbatim to the (x, E, p) triple.  H, an even circulant plus
diag(V), is held as its kinetic column t and V and applied to columns by FFT.

A potential even under the reflection j -> -j mod d (every built-in one)
makes H commute with it, and H is diagonalized as one even and one odd
block of about half the size, read off t and V, a quarter of the ``eigh``
cost; a dense H is formed only for any other V, or when a caller reads it.  The
energy basis's eigen-residual and Gram gates are taken on those blocks,
where ``eigh`` produces them, and the system keeps the basis as those
blocks: a column is scattered and gauge-fixed where it is read, and the
whole d x d basis only on a caller's first read of ``e_basis``.

Degenerate energy eigenspaces (exactly, or within the block tolerance)
are re-diagonalized against the momentum operator, which makes the energy
basis deterministic and turns free or circulating eigenstates into
momentum-ordered running waves.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basis import Basis, _check_index, _check_internal_gram, _column_phases, _csv, _dft_columns
from .basis import _finish_basis, _freeze, _gram_defect, _phased_gram_bound, _vdot
from .ccp import _ratio, _require_defined
from .errors import BadGrid, NonHermitian, NumericsError, PhaseUnwrapFailure

#: Relative wall height used for the box potential.
BOX_WALL_FACTOR = 1e6
#: Fraction of pi above which an adjacent phase jump is ambiguous.
UNWRAP_AMBIGUITY = 1.0 - 1e-6
#: Smallest grid size; every grid size must also be even.
MIN_GRID_SIZE = 8
#: Level gap, relative to max(||H||, 1), at or below which neighbouring levels
#: form one degenerate block; it equals the relative eigen-residual bound.
DEGENERACY_RTOL = 1e-8


def valid_grid_size(d: int) -> bool:
    """Whether ``build_lattice`` accepts a grid of ``d`` points."""
    return d >= MIN_GRID_SIZE and d % 2 == 0


def _parse_potential(spec, d: int, length: float, mass: float, hbar: float):
    """V on the grid and its canonical dict; a shorthand becomes that dict, read once.

    Raises :class:`BadGrid` on each malformed potential ``build_lattice`` lists.
    """
    if isinstance(spec, str):
        spec = {"kind": spec}
    elif isinstance(spec, tuple):  # (kind,) or (kind, omega)
        if len(spec) not in (1, 2):
            raise BadGrid(f"potential tuple of length {len(spec)}")
        spec = dict(zip(("kind", "omega"), spec))
    elif not isinstance(spec, dict):
        spec = {"kind": "custom", "values": spec}
    kind = spec.get("kind")
    try:  # a wall or V past the float range raises here rather than warning
        with np.errstate(over="raise"):
            v, canonical = _potential_on_grid(kind, spec, d, length, mass, hbar)
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        raise BadGrid(f"the {kind} potential leaves the float range") from None
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise BadGrid(f"potential is {v[bad[0]]} at grid point {bad[0]}")
    return v, canonical


def _potential_on_grid(kind, spec: dict, d: int, length: float, mass: float, hbar: float):
    """V on the grid and the canonical dict of a potential of kind ``kind``."""
    if kind in ("free", "box"):
        v = np.zeros(d)
        if kind == "box":  # one wall site; the periodic seam closes the box
            v[0] = BOX_WALL_FACTOR * hbar**2 / (mass * length**2)
            if not v[0] > 0.0:  # hbar^2 underflowed, or the denominator overflowed
                raise BadGrid("the box wall leaves the float range")
        return v, {"kind": kind}
    if kind == "harmonic":
        omega = spec.get("omega")
        if isinstance(omega, bool) or not isinstance(omega, numbers.Real) or not math.isfinite(omega):
            raise BadGrid(f"harmonic frequency is {omega!r}")
        # Signed offsets from the centre x_{d/2}: exactly odd under j -> -j
        # mod d on any grid, where positions - L/2 is so only for dyadic L/d.
        offsets = (np.arange(d) - d // 2) * (length / d)
        return 0.5 * mass * omega**2 * offsets**2, {"kind": "harmonic", "omega": float(omega)}
    if kind == "custom":
        try:
            v = np.array(spec["values"])
        except (KeyError, ValueError):  # absent, or ragged
            raise BadGrid("custom potential needs d numbers as its values") from None
        if v.dtype.kind not in "iuf" or v.shape != (d,):
            raise BadGrid(f"custom potential of shape {v.shape} and dtype {v.dtype} for d={d}")
        v = v.astype(np.float64)
        return v, {"kind": "custom", "values": v.tolist()}
    raise BadGrid(f"unknown potential kind {kind!r}")


class EnergyFactors(NamedTuple):
    """The energy basis as ``eigh`` produced it: no column is scattered until read.

    Under the reflection split, ``even`` holds the even block's eigenvectors,
    rows 1..d/2-1 scaled by sqrt(1/2), ``odd`` the odd block's, all scaled by
    sqrt(1/2), and basis column n is block eigenvector ``order[n]`` of the two,
    even ones first.  After the full ``eigh``, ``even`` holds every eigenvector,
    and ``odd`` and ``order`` are None.  ``rotated`` lists, ascending, the
    columns of the degenerate blocks rotated onto momentum, and
    ``rotated_vecs`` holds those columns after rotation, complex, d x
    len(rotated) (real and empty when there are none).
    """

    even: np.ndarray
    odd: np.ndarray | None
    order: np.ndarray | None
    rotated: np.ndarray
    rotated_vecs: np.ndarray

    def eigh_columns(self, cols: np.ndarray) -> np.ndarray:
        """Columns ``cols`` as the ``eigh`` blocks give them, unrotated and unphased: d x n real."""
        if self.odd is None:
            return np.take(self.even, cols, axis=1)
        half = self.even.shape[0] - 1
        src = self.order[cols]
        out = np.zeros((2 * half, src.size))
        even, odd = np.flatnonzero(src <= half), np.flatnonzero(src > half)
        block = self.even[:, src[even]]
        out[: half + 1, even] = block
        out[half + 1 :, even] = block[half - 1 : 0 : -1]  # row d - k holds row k
        block = self.odd[:, src[odd] - half - 1]
        out[1:half, odd] = block
        out[half + 1 :, odd] = -block[::-1]  # row d - k holds minus row k; rows 0, d/2 stay 0
        return out

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """Basis columns ``cols``, gauge-fixed as ``Basis`` columns are: d x n complex.

        The one scatter behind every energy column a caller reads, one or all.
        A build with rotated columns gauge-fixes every column in complex
        arithmetic, where a negative pivot leaves -0.0 imaginary parts.
        """
        mat = self.eigh_columns(cols)
        if self.rotated.size:
            mat = mat.astype(np.complex128)
            hit = np.isin(cols, self.rotated)
            mat[:, hit] = self.rotated_vecs[:, np.searchsorted(self.rotated, cols[hit])]
        mat = mat * _column_phases(mat)
        return mat.astype(np.complex128, copy=False)


@dataclass(frozen=True)
class LatticeSystem:
    """Periodic position grid with its position, momentum, and energy bases.

    The diagonalized H, the float64 matrix t[|j - l|] + V[j] delta_jl, is held
    as ``kinetic`` (t, exactly even) and ``potential`` (V); ``hamiltonian``
    assembles it on first read.  The energy basis is held as its ``eigh``
    factors, gated at build; ``energy_column`` scatters one column, and
    ``e_basis`` assembles them all on first read.  The position and momentum
    bases, the exact identity and the centered DFT, are Gram-checked like any
    other basis and cached on first access.  So a caller that reads none of
    the three bases forms no d x d matrix on a reflection-symmetric grid:
    every function but ``energy_concentration`` takes one column.  Each grid
    convention is stated once: H's entries in ``_toeplitz``, the kinetic
    multiplier in ``_kinetic_multiplier``, the momentum amplitudes <p_k|c>
    in ``_centered_fft``, the momentum columns in ``_momentum_column`` (from
    ``_dft_columns``' roots table), and every conditional's division in
    ``ccp._ratio``.
    """

    d: int
    length: float
    mass: float
    hbar: float
    potential: np.ndarray  # V(x_j)
    positions: np.ndarray  # x_j = j * dx
    momenta: np.ndarray  # p_k = 2 pi hbar (k - d/2) / L
    energies: np.ndarray  # the levels, ascending
    kinetic: np.ndarray  # t: H[j, l] = t[|j - l|] + V[j] delta_jl
    energy_factors: EnergyFactors
    potential_spec: dict

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """H as a read-only dense float64 matrix, assembled from t and V."""
        return _freeze(_dense_hamiltonian(self.kinetic, self.potential))

    @cached_property
    def e_basis(self) -> Basis:
        """The energy basis, assembled from its factors; its gates were taken at build."""
        vectors = _freeze(self.energy_factors.columns(np.arange(self.d)))
        labels = tuple(f"E{n}" for n in range(self.d))
        return Basis(dim=self.d, vectors=vectors, labels=labels, values=self.energies)

    @cached_property
    def x_basis(self) -> Basis:
        """The exact identity: column j is the grid point x_j."""
        return _finish_basis(np.eye(self.d), [f"x{j}" for j in range(self.d)], self.positions)

    @cached_property
    def p_basis(self) -> Basis:
        """The centered DFT: column k is the mode exp(i p_k x / hbar), of DFT frequency k - d/2."""
        labels = [f"p{k}" for k in range(self.d)]
        return _finish_basis(_momentum_column(self.d, range(self.d)), labels, self.momenta)

    @property
    def dx(self) -> float:
        return self.length / self.d

    def energy_column(self, n: int) -> np.ndarray:
        """Column n of ``e_basis``, in the same floats, scattered alone."""
        _check_index(n, self.d)
        return self.energy_factors.columns(np.array([n]))[:, 0]

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
) -> LatticeSystem:
    """Construct the grid and diagonalize H, keeping the energy basis as its ``eigh`` factors.

    The spectral kinetic term is a real symmetric circulant: its column t is
    the FFT of ``_kinetic_multiplier`` over d, and H, ``_toeplitz(t)`` plus
    diag(V), is real, so real ``eigh`` diagonalizes it.  t is exactly even,
    so when V[j] == V[(-j) mod d] for every j, H commutes exactly with the
    reflection and ``_reflection_eigh`` diagonalizes its even and odd blocks,
    read off t and V, for about a quarter of the cost of one ``eigh`` of H;
    any other V takes that one ``eigh``, of a dense H dropped after the
    build.  The symmetry test is exact: a V symmetric only to rounding takes
    the full ``eigh``, about 3.5 times the split's cost at d=2048.  The
    eigen-residual and Gram gates are taken on the blocks ``eigh``
    diagonalizes, so a symmetric build with no degenerate block forms no
    d x d product besides its two block ``eigh``.  The energy basis becomes
    complex only where a degenerate block is rotated onto the momentum
    eigenstates that ``_centered_fft`` reads.  A rotated column's residual is
    bounded only by its block's residuals plus the spread of the block's
    levels, up to (b - 1) DEGENERACY_RTOL max(||H||, 1) for b levels, at or
    above the gate; so H is applied to the rotated columns by FFT to gate
    them.  Both gates are decided here, so a later read never raises.

    Parameters
    ----------
    d : int
        Grid size; even and at least 8.
    length, mass, hbar : float
        Box length and physical constants, all positive and finite.
    potential : dict | str | tuple | array_like
        {'kind': 'free'}, {'kind': 'box'}, {'kind': 'harmonic', 'omega': w} or
        {'kind': 'custom', 'values': V}, as ``config_json`` records it; or a
        shorthand for one: 'free', 'box', ('harmonic', w), or V alone.

    Raises
    ------
    BadGrid
        On a bad grid size or constant; on a potential with a missing or
        unknown kind, an omega that is missing, not a number or not finite,
        custom values that are missing, not numbers or not d of them; on
        any non-finite value of V; or on a box wall, a V or a kinetic term
        that leaves the float range.
    NonHermitian, NumericsError
        If the kinetic column is not real and even to within rounding, or
        an eigen-residual exceeds 1e-8 * max(||H||, 1).
    NotOrthonormal
        If the energy basis's Gram defect, as bounded from its blocks,
        exceeds ``GRAM_INTERNAL_TOL``.
    """
    if not valid_grid_size(d):
        raise BadGrid(f"grid size must be even and >= {MIN_GRID_SIZE}, got {d}")
    if not all(math.isfinite(q) and q > 0 for q in (length, mass, hbar)):
        raise BadGrid("length, mass, and hbar must all be positive and finite")
    dx = length / d
    positions = dx * np.arange(d)
    v, spec = _parse_potential(potential, d, length, mass, hbar)

    # T is even, so t = DFT(T) / d is real and even, up to rounding gated here.
    try:  # a momentum or kinetic term past the float range raises here rather than warning
        with np.errstate(over="raise", invalid="raise"):
            momenta = 2.0 * np.pi * hbar * (np.arange(d) - d / 2) / length
            multiplier = _kinetic_multiplier(momenta, mass)
            t = np.fft.fft(multiplier) / d
    except FloatingPointError:
        raise BadGrid("the kinetic term leaves the float range") from None
    mirror = -np.arange(d)  # n -> (-n) mod d
    scale = max(1.0, float(np.max(np.abs(t))), float(np.max(np.abs(t[0].real + v))))
    herm_defect = float(np.max(np.abs(t - t[mirror].conj())))
    if not herm_defect <= 1e-10 * scale:
        raise NonHermitian(f"Hermiticity defect {herm_defect:.3e}")
    imag_part = float(np.max(np.abs(t.imag)))
    if not imag_part <= 1e-10 * scale:
        raise NumericsError(f"imaginary kinetic part {imag_part:.3e}")
    t = 0.5 * (t.real + t.real[mirror])  # exactly even

    energies, factors, residuals, gram_defect = _energy_eigh(t, v, multiplier, momenta)
    h_norm = float(np.max(np.abs(energies)))
    residual = float(np.max(residuals))
    if not residual <= 1e-8 * max(h_norm, 1.0):
        raise NumericsError(f"eigen-residual {residual:.3e} exceeds 1e-8 * ||H||")
    # Every unrotated column has a real pivot, so a phase of modulus 1 exactly:
    # only the rotated columns' phases widen the bound.
    _check_internal_gram(_phased_gram_bound(_column_phases(factors.rotated_vecs), gram_defect))

    return LatticeSystem(
        d=d,
        length=float(length),
        mass=float(mass),
        hbar=float(hbar),
        potential=_freeze(v),
        positions=_freeze(positions),
        momenta=_freeze(momenta),
        energies=_freeze(energies),
        kinetic=_freeze(t),
        energy_factors=EnergyFactors(*(a if a is None else _freeze(a) for a in factors)),
        potential_spec=spec,
    )


def _kinetic_multiplier(momenta: np.ndarray, mass: float) -> np.ndarray:
    """p^2/(2 mass) at centered ``momenta``, in FFT order: H's kinetic column t is its DFT / d."""
    return np.fft.ifftshift(momenta**2 / (2.0 * mass))


def _toeplitz(t: np.ndarray) -> np.ndarray:
    """The read-only view t[|j - l|] of an even t: row j is a window of [t[d-1], ..., t[1], t]."""
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((t[:0:-1], t)), t.size)[::-1]


def _centered_fft(cols: np.ndarray) -> np.ndarray:
    """<p_k|c> = fftshift(fft(c))[k] / sqrt(d), k as in ``momenta``, along axis 0 of ``cols``."""
    return np.fft.fftshift(np.fft.fft(cols, axis=0), axes=0) / math.sqrt(cols.shape[0])


def _momentum_column(d: int, p) -> np.ndarray:
    """Column p of ``p_basis``: <x_j|p> = exp(2i pi j (p - d/2)/d)/sqrt(d), from the roots table."""
    return _dft_columns(d, -(d // 2), p)


def _momentum_given_position(col: np.ndarray, x_ref: int, a_label: str, b_label: str) -> np.ndarray:
    """<x_ref|p><p|c>/<x_ref|c> over every momentum p; ``ccp_column``'s errors on (a, b).

    Row x_ref of ``p_basis`` is the uncentered DFT column x_ref, rolled to centered order.
    """
    x_row = np.roll(_dft_columns(col.size, 0, x_ref), col.size // 2)
    return _ratio(x_row * _centered_fft(col), col[x_ref], a_label, b_label)


def _dense_hamiltonian(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense H[j, l] = t[|j - l|] + V[j] delta_jl."""
    h = _toeplitz(t).copy()
    h[np.diag_indices(t.size)] += v
    return h


def _apply_h(multiplier: np.ndarray, v: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """ifft(T fft(c)) + v c along axis 0 of ``cols``, T from ``_kinetic_multiplier``: H c at v = V.

    It costs d log d a column; v = V - E gives (H - E) c.
    """
    axis = (slice(None),) + (np.newaxis,) * (cols.ndim - 1)
    return np.fft.ifft(multiplier[axis] * np.fft.fft(cols, axis=0), axis=0) + v[axis] * cols


def _energy_eigh(
    t: np.ndarray, v: np.ndarray, multiplier: np.ndarray, momenta: np.ndarray
) -> tuple[np.ndarray, EnergyFactors, np.ndarray, float]:
    """Levels, eigenvector factors, eigen-residual per column and Gram defect of H.

    H, t[|j - l|] + diag(V), is diagonalized by ``_reflection_eigh`` when V
    is exactly even, else as one dense block; either way both gates come
    from the blocks ``eigh`` diagonalized.  (Near-)degenerate blocks are then
    re-diagonalized against momentum, so the energy basis is deterministic
    and running waves come out pure; only these rotations make the
    eigenvectors complex.  A rotated column's residual is recomputed by
    ``_apply_h``, and its Gram defect is composed:
    for rotations R of at most b columns, each entry of (V R)^H (V R) - I is at most
        max|R^H R - I| + b (1 + max|R^H R - I|) (max|V^T V - I| + 2 eps),
    the 2 eps covering the rounding of the length-b products V R.
    """
    d = t.size
    if np.array_equal(v, v[-np.arange(d)]):  # exactly even: V[j] == V[(-j) mod d]
        energies, factors, residuals, gram_defect = _reflection_eigh(t, v)
    else:
        energies, vectors, residuals = _block_eigh(_dense_hamiltonian(t, v))
        gram_defect = _gram_defect(vectors)
        factors = EnergyFactors(vectors, None, None, np.arange(0), np.empty((d, 0)))
    tol = DEGENERACY_RTOL * max(float(np.max(np.abs(energies))), 1.0)
    # Blocks break where neighbouring energies differ by more than tol (or by NaN).
    bounds = np.concatenate(([0], np.flatnonzero(~(np.diff(energies) <= tol)) + 1, [d]))
    blocks = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi - lo > 1]
    if not blocks:
        return energies, factors, residuals, gram_defect
    cols = np.concatenate(blocks)
    vecs = factors.eigh_columns(cols).astype(np.complex128)
    rot_defects = []
    for block in np.split(vecs, np.cumsum([b.size for b in blocks])[:-1], axis=1):  # views of vecs
        fb = _centered_fft(block)
        sub = (fb.conj().T * momenta) @ fb
        sub = 0.5 * (sub + sub.conj().T)
        _, rot = np.linalg.eigh(sub)
        block[...] = block @ rot
        rot_defects.append(_gram_defect(rot))
    resid = _apply_h(multiplier, v, vecs) - vecs * energies[cols]
    residuals[cols] = np.linalg.norm(resid, axis=0)
    rho, width = float(np.max(rot_defects)), max(b.size for b in blocks)
    gram_defect = rho + width * (1.0 + rho) * (gram_defect + 2.0 * np.finfo(float).eps)
    return energies, factors._replace(rotated=cols, rotated_vecs=vecs), residuals, gram_defect


def _block_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eigh`` of a real symmetric block, with the residual ||B u - u lambda|| of each column."""
    levels, vecs = np.linalg.eigh(block)
    prod = block @ vecs
    prod -= vecs * levels  # in place: one fewer block-sized temporary at the build's memory peak
    return levels, vecs, np.linalg.norm(prod, axis=0)


def _reflection_eigh(
    t: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, EnergyFactors, np.ndarray, float]:
    """``eigh`` of H = t[|j - l|] + diag(V), for t and V exactly even under j -> -j mod d.

    The reflection splits R^d into an even space, spanned by e_0, e_{d/2}
    and (e_k + e_{d-k})/sqrt(2), and an odd one, spanned by
    (e_k - e_{d-k})/sqrt(2), for 0 < k < d/2.  H maps each into itself, so
    its blocks there, of sizes d/2 + 1 and d/2 - 1, are h[k, l] + h[k, d-l]
    and h[k, l] - h[k, d-l] on the top rows, the even block's e_0 and e_{d/2}
    rows and columns scaled by sqrt(1/2), where h[k, l] = t[|k - l|] and
    h[k, d-l] = t[(k + l) mod d], plus V on the diagonal of h.  The two block
    ``eigh`` together cost about a quarter of one on H.  The eigenvectors
    are kept, with their sqrt(1/2) weights, as the factors of the columns of
    the ascending merge of the two spectra (even first among equal levels);
    scattered, each column is exactly even or odd, and an odd one is exactly
    0 at x_0 and x_{d/2}.

    It also returns each column's residual in its block, ||B u - u lambda||,
    which is H's on the scattered column up to the rounding of the sqrt(1/2)
    weights, and the Gram defect of the scattered columns, read off the
    stored entries as row weights: an even column holds rows 0 and d/2 once
    and the others twice, an odd one every row twice (once negated), and an
    even and an odd column are orthogonal exactly.  Each gate costs two
    products of about (d/2)^3, where one on the assembled matrix costs d^3.
    """
    d = t.size
    half = d // 2
    # h[k, l] and h[k, d-l], 0 <= k, l <= d/2, as views of t
    near = _toeplitz(t)[: half + 1, : half + 1]
    far = np.lib.stride_tricks.sliding_window_view(np.append(t, t[0]), half + 1)
    diag = np.arange(half + 1)
    near_diag = t[0] + v[: half + 1]
    far_diag = far.diagonal().copy()
    far_diag[[0, half]] += v[[0, half]]  # where d - k = k
    even = near + far
    even[diag, diag] = near_diag + far_diag
    odd = near[1:half, 1:half] - far[1:half, 1:half]
    odd[diag[:-2], diag[:-2]] = (near_diag - far_diag)[1:half]
    root = math.sqrt(0.5)
    even[[0, half]] *= root
    even[:, [0, half]] *= root
    even_levels, even_vecs, even_res = _block_eigh(even)
    del even  # one block fewer at the odd block's memory peak
    odd_levels, odd_vecs, odd_res = _block_eigh(odd)
    del odd

    levels = np.concatenate((even_levels, odd_levels))
    order = np.argsort(levels, kind="stable")
    even_vecs[1:half] *= root
    odd_vecs *= root
    twice = np.r_[1.0, np.full(half - 1, 2.0), 1.0]  # rows 0 and d/2 are stored once
    gram_defect = float(np.maximum(_gram_defect(even_vecs, twice), _gram_defect(odd_vecs, 2.0)))
    residuals = np.concatenate((even_res, odd_res))[order]
    factors = EnergyFactors(even_vecs, odd_vecs, order, np.arange(0), np.empty((d, 0)))
    return levels[order], factors, residuals, gram_defect


def _xEp(sys: LatticeSystem, e_index: int, p_ref: int) -> tuple[np.ndarray, complex]:
    """The column p(x|E, p_ref) and the overlap <p_ref|E> it is divided by."""
    e_col = sys.energy_column(e_index)
    _check_index(p_ref, sys.d)
    p_col = _momentum_column(sys.d, p_ref)
    denom = _vdot(p_col, e_col)  # the floats ``ccp_column`` divides by and reports
    return _ratio(p_col.conj() * e_col, denom, f"E{e_index}", f"p{p_ref}"), denom


def _pEx(sys: LatticeSystem, e_index: int, x_ref: int) -> np.ndarray:
    """The column p(p|E, x_ref) over every momentum; it raises ``ccp_column``'s errors."""
    e_col = sys.energy_column(e_index)
    _check_index(x_ref, sys.d)
    return _momentum_given_position(e_col, x_ref, f"E{e_index}", f"x{x_ref}")


def ccp_xEp(sys: LatticeSystem, e_index: int, p_ref: int) -> np.ndarray:
    """Conditional position column p(x|E, p_ref) over the whole grid.

    On the grid <x|m> is the identity, so the definition <p|x><x|E>/<p|E>
    is the product of the energy column and the conjugate momentum column,
    over their inner product: O(d), with no d x d basis formed.  It
    equals ``ccp_column(sys.x_basis, sys.e_basis, e_index, sys.p_basis,
    p_ref)`` in every float and raises the same errors.
    """
    return _xEp(sys, e_index, p_ref)[0]


def eigenfunction_from_ccp(sys: LatticeSystem, e_index: int, p_ref: int) -> np.ndarray:
    """Rescaled conditional sqrt(p(p_ref|E) d) p(x|E,p_ref).

    For the zero-momentum reference this reproduces the energy
    eigenfunction up to one global phase; other references attach the
    gauge ramp exp(-i p_ref x / hbar).
    """
    col, p_e = _xEp(sys, e_index, p_ref)
    return math.sqrt(abs(p_e) ** 2 * sys.d) * col


def gauge_shift(sys: LatticeSystem, e_index: int, p_from: int, p_to: int) -> np.ndarray:
    """Shift the reference momentum of a conditional column.

    Multiplies p(x|E,p_from) by exp(i (p_from - p_to) x / hbar) and
    renormalizes; equals the directly computed p(x|E,p_to).  The
    renormalizing sum is <p_to|E>/<p_from|E>, so the target pair is held to
    ``ccp``'s one definedness rule through <p_to|E> = sum * <p_from|E>.
    """
    col, p_e = _xEp(sys, e_index, p_from)
    _check_index(p_to, sys.d)
    # (p_from - p_to) x_j / hbar = 2 pi j (p_from - p_to) / d: sqrt(d) times that DFT column
    shifted = col * (math.sqrt(sys.d) * _dft_columns(sys.d, p_from - p_to, 0))
    denom = shifted.sum()
    _require_defined(denom * p_e, f"E{e_index}", f"p{p_to}")
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
    col_p = _pEx(sys, e_index, x)
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
    direct = _pEx(sys, e_index, x_ref)
    # On the grid (p' - p) x_j / hbar = 2 pi j (p_ref - k) / d, so the right side
    # is p(p|c, x) of the state c = d p(x'|E,p'), read at momenta shifted by p_ref.
    rebuilt = _momentum_given_position(sys.d * col, x_ref, f"E{e_index}", f"x{x_ref}")
    rebuilt = np.roll(rebuilt, p_ref - sys.zero_momentum_index())
    return float(np.max(np.abs(rebuilt - direct)))


def schrodinger_residual(sys: LatticeSystem, e_index: int, p_ref: int) -> float:
    """Residual of the reference-shifted eigenvalue relation on a column.

    Applies (-i hbar d/dx + p_ref)^2 / (2 mass) + V in the spectral
    calculus to the conditional column p(x|E,p_ref) and returns
    ||A c - E c|| / ||c||.  Meaningful for states with negligible support
    at the extreme momenta, where the reference shift would alias.
    """
    col = ccp_xEp(sys, e_index, p_ref)
    multiplier = _kinetic_multiplier(sys.momenta + sys.momenta[p_ref], sys.mass)
    resid = _apply_h(multiplier, sys.potential - float(sys.energies[e_index]), col)
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
    _check_index(e_index, sys.d)
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
    _check_index(x, sys.d)
    _check_index(p, sys.d)
    p_col = _momentum_column(sys.d, p)
    e = sys.e_basis.vectors
    numer = np.einsum("i,im->m", p_col.conj(), e) * e[x].conj()  # <p|E><E|x>, as ccp_column has it
    col = _ratio(numer, p_col[x].conj(), f"x{x}", f"p{p}")
    e_lo, e_hi = float(sys.energies[0]), float(sys.energies[-1])
    edges = np.linspace(e_lo, e_hi, n_bins + 1)
    which = np.clip(np.searchsorted(edges, sys.energies, side="right") - 1, 0, n_bins - 1)
    sums = np.zeros(n_bins, dtype=np.complex128)
    np.add.at(sums, which, col)
    h_classical = float(sys.potential[x] + sys.momenta[p] ** 2 / (2.0 * sys.mass))
    k_star = int(np.clip(np.searchsorted(edges, h_classical, side="right") - 1, 0, n_bins - 1))
    weights = np.abs(sums) ** 2
    ratio = float(weights[k_star] / weights.sum())
    return ConcentrationResult(ratio=ratio, classical_bin=k_star, bin_sums=_freeze(sums))


def distribution_csv(sys: LatticeSystem, column: np.ndarray) -> str:
    """Position-distribution export (x, re, im, magnitude, phase_unwrapped)."""
    if column.shape != (sys.d,):
        raise BadGrid(f"column of shape {column.shape} for d={sys.d}")
    angles = np.angle(column)
    try:
        unwrapped = unwrap_phase(angles)
    except PhaseUnwrapFailure:
        unwrapped = angles  # raw phases; continuation is ambiguous here
    return _csv(
        x=sys.positions.tolist(), re=column.real.tolist(), im=column.imag.tolist(),
        magnitude=np.abs(column).tolist(), phase_unwrapped=unwrapped.tolist(),
    )
