"""Orthonormal outcome bases of a finite-dimensional system.

A basis is a labeled unitary matrix whose columns are the outcome vectors
of one sharp measurement.  Every column carries a fixed global-phase gauge
(first component of magnitude above ``PHASE_PIVOT_TOL`` is real and
non-negative) so that all downstream phase-sensitive quantities have a
deterministic representative.

A :class:`Basis` may hold a stack of bases, ``vectors`` of shape (..., dim,
dim) under one labelling; functions built on it treat leading axes as
independent bases, so a batch runs as one array program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, MissingValues, NotOrthonormal, ParseError

#: Gram-matrix deviation accepted on user-supplied columns.
GRAM_INPUT_TOL = 1e-8
#: Gram-matrix deviation guaranteed after internal re-orthonormalization.
GRAM_INTERNAL_TOL = 1e-10
#: Smallest component magnitude usable as a phase pivot.
PHASE_PIVOT_TOL = 1e-12
#: Smallest dimension of a basis.
MIN_DIM = 2
#: Largest entry difference at which two bases count as the same basis.
COMPATIBLE_TOL = 1e-12


def _as_square_complex(columns) -> np.ndarray:
    try:
        mat = np.array(columns, dtype=np.complex128)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(f"ragged or non-numeric column data: {exc}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < MIN_DIM:
        raise DimensionMismatch(f"need dim >= {MIN_DIM}, got {mat.shape[0]}")
    return mat


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(mat, -1, -2).conj()


def _gram_defect(mat: np.ndarray, weights=None) -> float:
    """max|U^H diag(w) U - I| over a matrix U or a stack; w, scalar or one per row, default 1."""
    adj = _adjoint(mat)
    gram = adj @ mat if weights is None else (adj * weights) @ mat
    # gram - I and its abs in place, but a complex gram's abs, which is real
    np.einsum("...ii->...i", gram)[...] -= 1.0
    return float(np.max(np.abs(gram, out=None if np.iscomplexobj(gram) else gram)))


def _check_input_gram(mat: np.ndarray) -> None:
    """Raise :class:`NotOrthonormal` unless U^H U and U U^H are within ``GRAM_INPUT_TOL`` of I.

    Entrywise the sides differ: a DFT row scaled by 1 + e moves U U^H by 2e, U^H U by 2e/d.
    """
    defect = max(_gram_defect(mat), _gram_defect(_adjoint(mat)))
    if not defect <= GRAM_INPUT_TOL:
        raise NotOrthonormal(f"Gram defect {defect:.3e} exceeds {GRAM_INPUT_TOL}")


def _column_phases(mat: np.ndarray) -> np.ndarray:
    """The unit factors that make each column's first component above the pivot floor real and >= 0."""
    mags = np.abs(mat)
    # First significant row of each column; row 0 of a column with none.
    rows = np.argmax(mags > PHASE_PIVOT_TOL, axis=-2)[..., np.newaxis, :]
    pivot_mags = np.take_along_axis(mags, rows, axis=-2)
    empty = ~(pivot_mags > PHASE_PIVOT_TOL)
    if empty.any():
        column = int(np.flatnonzero(empty)[0]) % mat.shape[-1]
        raise NotOrthonormal(f"column {column} is numerically zero")
    return np.conj(np.take_along_axis(mat, rows, axis=-2)) / pivot_mags


def _json_field(payload, key: str):
    """A required field of a loaded JSON object; ParseError if it is absent."""
    if not isinstance(payload, dict) or key not in payload:
        raise ParseError(f"missing field {key!r}", 1)
    return payload[key]


def _json_complex(payload, re_key: str, im_key: str) -> np.ndarray:
    """Complex array from a real and an imaginary nested list of one shape, all finite."""
    try:
        re = np.array(_json_field(payload, re_key), dtype=np.float64)
        im = np.array(_json_field(payload, im_key), dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"ragged or non-numeric {re_key}/{im_key}: {exc}", 1) from None
    if re.shape != im.shape:
        raise ParseError(f"{re_key} of shape {re.shape} but {im_key} of {im.shape}", 1)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError(f"non-finite value in {re_key}/{im_key}", 1)
    return re + 1j * im


def _csv(**columns) -> str:
    """CSV text whose header is the keywords and whose columns are their values.

    Columns hold str, int or float (an array's ``tolist()``), all of one length;
    each field is ``str`` of its entry, for a float its shortest round-trip repr.
    """
    rows = (",".join(map(str, row)) for row in zip(*columns.values()))
    return "\n".join((",".join(columns), *rows)) + "\n"


def _check_index(k: int, dim: int) -> None:
    """Raise :class:`IndexOutOfRange` unless ``k`` is an outcome index of a dim-``dim`` basis."""
    if not 0 <= k < dim:
        raise IndexOutOfRange(f"outcome index {k} outside 0..{dim - 1}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Basis:
    """Immutable orthonormal basis with outcome labels and optional values."""

    dim: int
    vectors: np.ndarray  # (..., dim, dim); column k is outcome k
    labels: tuple[str, ...]
    values: np.ndarray | None = None  # real outcome values, shape (dim,)

    def column(self, k: int) -> np.ndarray:
        self.check_index(k)
        return self.vectors[..., k]

    def check_index(self, k: int) -> None:
        _check_index(k, self.dim)

    def overlap(self, j: int, other: "Basis", k: int) -> complex:
        """Amplitude <self_j | other_k> between two single (unstacked) bases."""
        if self.vectors.ndim != 2 or other.vectors.ndim != 2:
            raise DimensionMismatch("overlap takes single bases; use overlaps_with for stacks")
        self.check_index(j)
        other.check_index(k)
        return complex(np.vdot(self.vectors[:, j], other.vectors[:, k]))

    def overlaps_with(self, other: "Basis") -> np.ndarray:
        """Matrix of amplitudes <self_j | other_k>, shape (..., dim, dim)."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        return _adjoint(self.vectors) @ other.vectors

    def amplitudes(self, vec: np.ndarray) -> np.ndarray:
        """Components <self_k | vec> of a vector, or of a stack of them, shape (..., dim)."""
        return (_adjoint(self.vectors) @ vec[..., np.newaxis])[..., 0]

    def compatible_with(self, other: "Basis") -> bool:
        return (
            self.dim == other.dim
            and float(np.max(np.abs(self.vectors - other.vectors))) <= COMPATIBLE_TOL
        )

    def value(self, k: int) -> float:
        self.check_index(k)
        if self.values is None:
            raise MissingValues(f"basis has no outcome values (label {self.labels[k]})")
        return float(self.values[k])

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "dim": self.dim,
            "labels": list(self.labels),
            "values": None if self.values is None else [float(v) for v in self.values],
            "re": [[float(v) for v in row] for row in self.vectors.real],
            "im": [[float(v) for v in row] for row in self.vectors.imag],
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Basis":
        payload = json.loads(text)
        mat = _as_square_complex(_json_complex(payload, "re", "im"))
        if mat.shape[0] != _json_field(payload, "dim"):
            raise DimensionMismatch("declared dim does not match matrix shape")
        _check_input_gram(mat)
        labels, values = _checked_labels_values(
            mat.shape[0], _json_field(payload, "labels"), payload.get("values")
        )
        # Round-trip fidelity: stored floats are used verbatim, with no
        # re-orthonormalization or re-phasing.
        return cls(dim=mat.shape[0], vectors=_freeze(mat), labels=labels, values=values)


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k) for k in range(dim))


def make_basis(
    columns,
    labels: Sequence[str] | None = None,
    values: Sequence[float] | None = None,
) -> Basis:
    """Validate, re-orthonormalize, and gauge-fix a set of basis columns.

    Parameters
    ----------
    columns : array_like
        Square complex matrix; column k is outcome k's vector.
    labels : sequence of str, optional
        Outcome names; defaults to "0", "1", ...
    values : sequence of float, optional
        Real outcome values (one per column).

    Raises
    ------
    NotOrthonormal
        If the Gram matrix deviates from the identity by more than 1e-8.
    DimensionMismatch
        On ragged input, dim < 2, or label/value length mismatch.
    """
    mat = _as_square_complex(columns)
    _check_input_gram(mat)
    # Nearest unitary via polar decomposition; a no-op (to rounding) for
    # already-unitary input, which keeps the phase convention idempotent.
    u, _, vh = np.linalg.svd(mat)
    return _finish_basis(u @ vh, labels, values)


def _finish_basis(
    mat: np.ndarray,
    labels: Sequence[str] | None = None,
    values: Sequence[float] | None = None,
) -> Basis:
    """Gauge-fix, Gram-check, label and freeze a unitary matrix or stack of them, dim >= 2.

    ``make_basis`` ends here after its polar step.  Matrices that are
    unitary by construction (Haar QR, the identity, the DFT) come here
    directly: they skip the polar step but keep the Gram gate, one product
    U^H U for a stack: U^H U - I and U U^H - I are similar, so one side
    bounds the other's spectral norm.  A real matrix is gauge-fixed in real
    arithmetic, then cast.
    """
    dim = mat.shape[-1]
    mat = mat * _column_phases(mat)
    _check_internal_gram(_gram_defect(mat))
    label_tuple, value_arr = _checked_labels_values(dim, labels, values)
    mat = mat.astype(np.complex128, copy=False)
    return Basis(dim=dim, vectors=_freeze(mat), labels=label_tuple, values=value_arr)


def _phased_gram_bound(phases: np.ndarray, gram_defect: float) -> float:
    """A bound on max|U^H U - I| after the columns of U are multiplied by ``phases``.

    ``gram_defect`` bounds it before: a builder that bounded it from the
    factors it built U from (the lattice's energy basis, from its ``eigh``
    blocks) gates U with no product.  Each entry becomes u c (1 + r): |c| is 1
    to within delta, and the complex product rounds by |r| <= sqrt(5) 2^-53 (a
    real phase, +-1, is exact).  With m = (1 + delta)(1 + |r|), every entry of
    the phased Gram matrix minus I is at most m^2 gram_defect + (m^2 - 1)(1 +
    gram_defect).  No phases, or real ones, leave the bound as it is.
    """
    delta = float(np.max(np.abs(np.abs(phases) - 1.0), initial=0.0))
    rounding = math.sqrt(5.0) * 2.0**-53 if np.iscomplexobj(phases) else 0.0
    m2 = ((1.0 + delta) * (1.0 + rounding)) ** 2
    return m2 * gram_defect + (m2 - 1.0) * (1.0 + gram_defect)


def _check_internal_gram(internal: float) -> None:
    """Raise :class:`NotOrthonormal` if a built basis's Gram defect exceeds ``GRAM_INTERNAL_TOL``."""
    if not internal <= GRAM_INTERNAL_TOL:
        raise NotOrthonormal(f"internal Gram defect {internal:.3e}")


def _dft_columns(dim: int, first: int, cols) -> np.ndarray:
    """Columns exp(2i pi j (first + k) / dim) / sqrt(dim) for k in ``cols``, j = 0..dim-1.

    Every entry is read from one table of the dim roots of unity at
    j (first + k) mod dim, so no entry carries the rounding of a large phase.
    An integer ``cols`` gives the one column as a vector; ``range(dim)``
    gives the whole DFT basis matrix.
    """
    # The narrowest unsigned type that holds (dim - 1)^2 keeps the d x d index small.
    rows = np.arange(dim, dtype=np.min_scalar_type((dim - 1) ** 2))
    freqs = ((first + np.asarray(cols)) % dim).astype(rows.dtype)
    index = np.multiply.outer(rows, freqs)
    np.remainder(index, dim, out=index)
    roots = np.exp(2j * np.pi * np.arange(dim) / dim) / math.sqrt(dim)
    return roots[index]


def _checked_labels_values(
    dim: int, labels: Sequence[str] | None, values: Sequence[float] | None
) -> tuple[tuple[str, ...], np.ndarray | None]:
    if labels is None:
        label_tuple = _default_labels(dim)
    else:
        label_tuple = tuple(str(s) for s in labels)
        if len(label_tuple) != dim:
            raise DimensionMismatch(f"{len(label_tuple)} labels for dim {dim}")
        # Labels become CSV fields and SVG text: no delimiter, no line break.
        joined = "".join(label_tuple)
        if set(',"<>&').intersection(joined) or "".join(joined.splitlines()) != joined:
            raise ValueError(f"a label holds one of , \" < > & or a line break: {label_tuple}")
        if len(set(label_tuple)) != dim:
            raise ValueError(f"labels are not unique: {label_tuple}")
    if values is None:
        return label_tuple, None
    value_arr = np.array(values, dtype=np.float64)
    if value_arr.shape != (dim,):
        raise DimensionMismatch(f"{value_arr.shape} values for dim {dim}")
    return label_tuple, _freeze(value_arr)


def computational_basis(dim: int, values: Sequence[float] | None = None) -> Basis:
    """Identity-column basis {|0>, ..., |dim-1>}."""
    if dim < MIN_DIM:
        raise DimensionMismatch(f"need dim >= {MIN_DIM}, got {dim}")
    return _finish_basis(np.eye(dim), values=values)


def fourier_basis(dim: int) -> Basis:
    """Discrete Fourier basis; column k has components exp(2i pi jk/d)/sqrt(d).

    Mutually unbiased with the computational basis: |<j|f_k>|^2 = 1/d.
    """
    if dim < MIN_DIM:
        raise DimensionMismatch(f"need dim >= {MIN_DIM}, got {dim}")
    return _finish_basis(_dft_columns(dim, 0, range(dim)), labels=[f"f{k}" for k in range(dim)])


def haar_random_bases(dim: int, seeds: Sequence[int]) -> Basis:
    """Stack of Haar-uniform random bases, entry k deterministic for ``seeds[k]``.

    Each seed draws a complex standard-normal matrix, real parts first; one
    QR with the R-diagonal phase correction makes each exactly
    Haar-distributed (plain QR is not: its phase gauge is not uniform).
    """
    if dim < MIN_DIM:
        raise DimensionMismatch(f"need dim >= {MIN_DIM}, got {dim}")
    parts = np.empty((len(seeds), 2, dim, dim))
    for draw, seed in zip(parts, seeds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        rng.standard_normal(out=draw)
    q, r = np.linalg.qr((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, np.newaxis, :]
    return _finish_basis(q, labels=[f"u{k}" for k in range(dim)])


def haar_random_basis(dim: int, seed: int) -> Basis:
    """Haar-uniform random basis, deterministic for a fixed seed; see :func:`haar_random_bases`."""
    stack = haar_random_bases(dim, [seed])
    return Basis(dim=dim, vectors=stack.vectors[0], labels=stack.labels)


def ergodic_table(basis_x: Basis, basis_y: Basis) -> np.ndarray:
    """Transition probabilities |<x|y>|^2, frozen, indexed [..., x, y]."""
    return _freeze(np.abs(basis_x.overlaps_with(basis_y)) ** 2)
