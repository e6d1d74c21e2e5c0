"""Complex conditional probabilities for ordered basis triples.

The central object is the ratio

    p(m|a,b) = <b|m><m|a> / <b|a>

for an intermediate outcome m between an initial outcome a and a final
outcome b.  The functions below build full (m, a, b) tables and check the
algebraic identities these ratios satisfy: chain composition, determinism,
the product law p(a|m,b) p(m|a,b) = p(m|a), phase antisymmetry, Bayesian
conversion, the sequential back-action relation, and the vanishing of the
conditional spread of any outcome value.  Each identity takes the tables
its caller has built and returns its two sides over every index at once
(:class:`IdentitySides`).  Tables over stacked bases (see :mod:`.basis`)
carry their leading axes: each identity runs per triple, as one array program.

Pairs (a, b) with |<b|a>| at or below ``ORTHOGONALITY_CUTOFF`` are
undefined (:func:`is_defined`): column operations raise
:class:`OrthogonalCondition`, table constructors mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .basis import Basis, _adjoint, _csv, _freeze, _json_complex, _json_complex_fields, _json_field
from .basis import ergodic_table
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    MissingValues,
    NumericsError,
    OrthogonalCondition,
    ParseError,
)

#: Overlaps |<b|a>| at or below this mark (a, b) undefined.  The rule is
#: absolute: every overlap is between unit vectors, so none needs rescaling.
ORTHOGONALITY_CUTOFF = 1e-10

#: Magnitudes below this have no meaningful phase.
PHASE_FLOOR = 1e-12

#: Hard bound on imaginary residues of analytically-real quantities.
IMAG_RESIDUE_TOL = 1e-9


def is_defined(overlap):
    """True where an overlap |<b|a>| is above ``ORTHOGONALITY_CUTOFF``."""
    return np.abs(overlap) > ORTHOGONALITY_CUTOFF


def _require_shared_dim(*bases: Basis) -> int:
    dims = {b.dim for b in bases}
    if len(dims) != 1:
        raise BasisMismatch(f"bases of different dimension: {sorted(dims)}")
    return dims.pop()


def _require_same(*pairs: tuple[Basis, Basis]) -> None:
    """Raise :class:`BasisMismatch` unless both bases of every pair agree."""
    if not all(x is y or x.compatible_with(y) for x, y in pairs):
        raise BasisMismatch("tables do not share the bases this identity pairs")


def _require_over(table: "CcpTable", m: Basis, a: Basis, b: Basis) -> None:
    """Raise :class:`BasisMismatch` unless ``table`` is over the bases (m, a, b)."""
    _require_same((table.m_basis, m), (table.a_basis, a), (table.b_basis, b))


def _require_defined(denom, a_label: str, b_label: str) -> None:
    """Raise :class:`OrthogonalCondition` unless the overlap ``denom`` = <b|a> is defined."""
    if not is_defined(denom):
        raise OrthogonalCondition(
            f"|<b|a>| = {abs(denom):.3e} at or below cutoff {ORTHOGONALITY_CUTOFF:.1e} "
            f"(a={a_label}, b={b_label})"
        )


def _real_part(z, what: str, tol: float = IMAG_RESIDUE_TOL):
    """Re z of an analytically real ``z``; :class:`NumericsError` unless max|Im z| < ``tol``."""
    residue = float(np.max(np.abs(z.imag)))
    if not residue < tol:
        raise NumericsError(f"imaginary residue {residue:.3e} in {what}")
    return z.real


def _ratio(numer, denom, a_label: str, b_label: str):
    """``numer`` / <b|a>; :class:`OrthogonalCondition` where ``denom`` = <b|a> is undefined."""
    _require_defined(denom, a_label, b_label)
    # + 0.0 turns an exact -0.0 into +0.0: an exact zero has one sign however formed
    return numer / denom + 0.0


def ccp_column(basis_m: Basis, basis_a: Basis, a: int, basis_b: Basis, b: int) -> np.ndarray:
    """All p(m|a,b) for fixed (a, b), as a length-dim complex array.

    Raises :class:`OrthogonalCondition` when (a, b) is undefined: the
    pre/post-selection pair is ill-posed and the ratio diverges.
    """
    _require_shared_dim(basis_m, basis_a, basis_b)
    basis_a.check_index(a)
    basis_b.check_index(b)
    denom = basis_b.overlap(b, basis_a, a)
    # numpy's own loops, not BLAS: a threaded gemv here would leave BLAS
    # workers spinning on every core after each of many small calls.
    b_m = np.einsum("i,im->m", basis_b.vectors[:, b].conj(), basis_m.vectors)  # <b|m>
    m_a = np.einsum("i,im->m", basis_a.vectors[:, a].conj(), basis_m.vectors).conj()  # <m|a>
    return _ratio(b_m * m_a, denom, basis_a.labels[a], basis_b.labels[b])


def ccp_value(basis_m: Basis, m: int, basis_a: Basis, a: int, basis_b: Basis, b: int) -> complex:
    """Single complex conditional probability p(m|a,b) = <b|m><m|a>/<b|a>."""
    basis_m.check_index(m)
    return complex(ccp_column(basis_m, basis_a, a, basis_b, b)[m])


@dataclass(frozen=True)
class CcpTable:
    """Complex conditional probabilities p(m|a,b) for one basis triple.

    ``vals[..., m, a, b]`` holds the conditional; entries of undefined
    (a, b) pairs are zeroed and flagged False in ``defined_mask[..., a, b]``.
    Leading axes, if any, are those of the stacked bases.
    """

    m_basis: Basis
    a_basis: Basis
    b_basis: Basis
    vals: np.ndarray  # (..., dim, dim, dim), complex
    defined_mask: np.ndarray  # (..., dim, dim), bool over (a, b)

    @property
    def dim(self) -> int:
        return self.m_basis.dim

    def require_defined(self, a: int, b: int) -> None:
        self.a_basis.check_index(a)
        self.b_basis.check_index(b)
        if not np.all(self.defined_mask[..., a, b]):
            raise OrthogonalCondition(
                f"(a={self.a_basis.labels[a]}, b={self.b_basis.labels[b]}) "
                "is an orthogonal pre/post pair"
            )

    def value(self, m: int, a: int, b: int) -> complex:
        self.m_basis.check_index(m)
        self.require_defined(a, b)
        return complex(self.vals[m, a, b])

    def column(self, a: int, b: int) -> np.ndarray:
        self.require_defined(a, b)
        return self.vals[..., :, a, b]

    def normalization_defect(self):
        """Worst |sum_m p(m|a,b) - 1| over defined (a, b) pairs, per stacked table."""
        return IdentitySides(self.vals.sum(axis=-3), 1.0, self.defined_mask, axes=2).worst()

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "m_basis": json.loads(self.m_basis.to_json()),
            "a_basis": json.loads(self.a_basis.to_json()),
            "b_basis": json.loads(self.b_basis.to_json()),
            **_json_complex_fields(self.vals, "re", "im"),
            "defined_mask": self.defined_mask.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CcpTable":
        payload = json.loads(text)
        m_b, a_b, b_b = (
            Basis.from_json(json.dumps(_json_field(payload, key)))
            for key in ("m_basis", "a_basis", "b_basis")
        )
        dim = _require_shared_dim(m_b, a_b, b_b)
        vals = _json_complex(payload, "re", "im")
        try:
            mask = np.array(_json_field(payload, "defined_mask"))
        except ValueError:
            raise ParseError("ragged defined_mask", 1) from None
        if vals.shape != (dim, dim, dim):
            raise ParseError(f"need values of shape {(dim,) * 3}, got {vals.shape}", 1)
        if mask.shape != (dim, dim) or mask.dtype != bool:
            raise ParseError(f"need a boolean mask of shape {(dim, dim)}", 1)
        vals, mask = _freeze(vals), _freeze(mask)
        return cls(m_basis=m_b, a_basis=a_b, b_basis=b_b, vals=vals, defined_mask=mask)

    def column_csv(self, a: int, b: int) -> str:
        """One (a, b) column as CSV rows (m_label, re, im, magnitude, phase)."""
        col = self.column(a, b)
        # Per-entry abs: np.abs over the array differs from it in the last bit.
        return _csv(
            m_label=self.m_basis.labels, re=col.real.tolist(), im=col.imag.tolist(),
            magnitude=[float(abs(v)) for v in col], phase=np.angle(col).tolist(),
        )


def ccp_table(basis_m: Basis, basis_a: Basis, basis_b: Basis) -> CcpTable:
    """Full conditional table over (m, a, b) with undefined pairs masked."""
    return ccp_tables({"m": basis_m, "a": basis_a, "b": basis_b}, ["mab"])["mab"]


def ccp_tables(bases: dict[str, Basis], names: list[str]) -> dict[str, CcpTable]:
    """Tables named by three one-letter keys of ``bases`` in (m, a, b) order.

    ``ccp_tables({"m": m, "a": a, "b": b}, ["mab", "amb"])`` holds ``ccp_table(m, a, b)``
    and ``ccp_table(a, m, b)``.  Each overlap matrix is formed once per pair of bases.
    """
    _require_shared_dim(*bases.values())
    amps: dict[str, np.ndarray] = {}

    def amp(x: str, y: str) -> np.ndarray:  # <x|y>, indexed [..., x, y]
        if x + y not in amps:
            yx = amps.get(y + x)
            amps[x + y] = bases[x].overlaps_with(bases[y]) if yx is None else _adjoint(yx)
        return amps[x + y]

    shape = np.broadcast_shapes(*(x.vectors.shape for x in bases.values()))
    # Stored as [..., b, m, a], so chain_compose's sum over m is a contiguous matrix
    # product; ``vals`` is the [..., m, a, b] view.  One allocation for all tables
    # lets the next call reuse it rather than fault fresh pages in.
    store = np.empty((len(names), *shape[:-1], shape[-1], shape[-1]), dtype=np.complex128)
    tables = {}
    for name, vals in zip(names, store):
        m, a, b = name
        b_a = amp(b, a)
        mask = is_defined(b_a)  # [..., b, a]
        factors = (amp(b, m)[..., np.newaxis], amp(m, a)[..., np.newaxis, :, :])
        # numpy's complex multiply is not commutative to the bit; an order that swapping
        # a and b reverses makes the table over (m, b, a) this one's exact conjugate.
        np.multiply(*(factors[::-1] if a < b else factors), out=vals)
        vals /= np.where(mask, b_a, 1.0)[..., :, np.newaxis, :]
        if not mask.all():
            np.copyto(vals, 0.0, where=~mask[..., :, np.newaxis, :])
        vals, mask = np.moveaxis(vals, -3, -1), np.swapaxes(mask, -1, -2)
        tables[name] = CcpTable(bases[m], bases[a], bases[b], _freeze(vals), _freeze(mask))
    return tables


def chain_compose(outer: CcpTable, inner: CcpTable) -> CcpTable:
    """Compose p(f|a,b) = sum_m p(f|m,b) p(m|a,b).

    ``outer`` is the table over (F, M, B), ``inner`` the table over
    (M, A, B); the shared M and B bases must match.  The result is a table
    over (F, A, B) whose mask marks entries where every contributing
    conditional was defined.
    """
    _require_same((outer.a_basis, inner.m_basis), (outer.b_basis, inner.b_basis))
    # One matrix product per b, over [..., b, f, m] and [..., b, m, a].
    vals = np.moveaxis(outer.vals, -1, -3) @ np.moveaxis(inner.vals, -1, -3)
    mask = inner.defined_mask & outer.defined_mask.all(axis=-2)[..., np.newaxis, :]
    if not mask.all():
        np.copyto(vals, 0.0, where=~np.swapaxes(mask, -1, -2)[..., :, np.newaxis, :])
    vals = _freeze(np.moveaxis(vals, -3, -1))
    return CcpTable(outer.m_basis, inner.a_basis, inner.b_basis, vals, _freeze(mask))


@dataclass(frozen=True)
class IdentitySides:
    """Both sides of an identity over every index, and where it is defined.

    ``mask`` broadcasts against ``lhs`` and ``rhs``; entries outside it
    involve an undefined conditional and are not compared.  ``axes`` counts
    the trailing axes compared (None: all); each leading index has its own worst.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    mask: np.ndarray
    axes: int | None = None

    def worst(self):
        """Largest |lhs - rhs| over the mask: a float, or one per stacked instance.

        NaN if the mask is empty or a compared entry is NaN, so a check with
        nothing to compare fails rather than reading 0.
        """
        return _masked_max(np.abs(self.lhs - self.rhs), self.mask, self.axes)


def _masked_max(dev: np.ndarray, mask: np.ndarray, axes: int | None):
    """Largest ``dev`` over ``mask`` on the trailing ``axes``, with the NaN rules of ``worst``."""
    axes = None if axes is None else tuple(range(-axes, 0))
    full = np.broadcast_to(mask, dev.shape)  # a view: nothing is copied
    if dev.size and np.all(mask):  # every Haar mask; the plain maximum is about 5x faster
        return np.max(dev, axis=axes)[()]
    top = np.max(dev, axis=axes, where=full, initial=-np.inf)
    return np.where(np.any(full, axis=axes), top, np.nan)[()]


def determinism_residual(composed: CcpTable) -> IdentitySides:
    """sum_m p(a'|m,b) p(m|a,b) against delta(a', a), over (a', a, b).

    ``composed`` is ``chain_compose(outer, inner)`` of the tables over
    (A, M, B) and (M, A, B).
    """
    _require_same((composed.m_basis, composed.a_basis))
    delta = np.eye(composed.dim)[:, :, np.newaxis]
    mask = composed.defined_mask[..., np.newaxis, :, :]
    return IdentitySides(composed.vals, delta, mask, axes=3)


def ergodicity_product(forward: CcpTable, backward: CcpTable) -> IdentitySides:
    """p(a|m,b) p(m|a,b) against the transition probability p(m|a), over (m, a, b).

    ``forward`` is the table over (M, A, B), ``backward`` the one over
    (A, M, B).  The product is real and independent of b.
    """
    _require_over(backward, forward.a_basis, forward.m_basis, forward.b_basis)
    prod = np.swapaxes(backward.vals, -3, -2) * forward.vals  # [..., m, a, b]
    p_m_a = ergodic_table(forward.m_basis, forward.a_basis)
    mask = forward.defined_mask[..., np.newaxis, :, :] & backward.defined_mask[..., np.newaxis, :]
    return IdentitySides(prod, p_m_a[..., np.newaxis], mask, axes=3)


def backaction_check(table: CcpTable) -> IdentitySides:
    """p(b|m) p(m|a) against p(b|a) |p(m|a,b)|^2, over (m, a, b).

    Summed over m, the two sides give the dephasing decomposition.
    """
    p_b_m = ergodic_table(table.b_basis, table.m_basis)  # [..., b, m]
    p_m_a = ergodic_table(table.m_basis, table.a_basis)  # [..., m, a]
    p_b_a = ergodic_table(table.b_basis, table.a_basis)  # [..., b, a]
    seq = np.swapaxes(p_b_m, -1, -2)[..., :, np.newaxis, :] * p_m_a[..., np.newaxis]
    direct = np.abs(table.vals)
    np.square(direct, out=direct)
    direct *= np.swapaxes(p_b_a, -1, -2)[..., np.newaxis, :, :]
    return IdentitySides(seq, direct, table.defined_mask[..., np.newaxis, :, :], axes=3)


def phase_antisymmetry_check(forward: CcpTable, backward: CcpTable):
    """Worst circular defect of Arg p(a|m,b) = -Arg p(m|a,b), per stacked triple.

    The identity is the phase of the product law: ``forward`` (over
    (M, A, B)) and ``backward`` (over (A, M, B)) are taken as
    :func:`ergodicity_product` takes them, and the defect is the angle of
    its product over the defined triples, skipping entries of either table
    whose magnitude is below ``PHASE_FLOOR`` (the phase of a numerical zero
    is noise).  As with :meth:`IdentitySides.worst`, a NaN entry or an
    empty mask gives NaN.
    """
    product = ergodicity_product(forward, backward)
    ok = product.mask & _not_below_phase_floor(forward.vals)
    ok &= _not_below_phase_floor(np.swapaxes(backward.vals, -3, -2))
    # Arg(u) + Arg(v) and Arg(u v) agree on the circle, so |Arg(u v)| is the
    # defect; arctan2(|Im z|, Re z) is |np.angle(z)| bit for bit.
    defect = np.abs(product.lhs.imag)
    np.arctan2(defect, product.lhs.real, out=defect)
    return _masked_max(defect, ok, 3)


def _not_below_phase_floor(z: np.ndarray) -> np.ndarray:
    """``~(np.abs(z) < PHASE_FLOOR)`` bit for bit, NaN entries included.

    hypot(x, y) >= max(|x|, |y|), so an entry with |Re z| or |Im z| at or
    above the floor passes without one; ``np.abs`` (a hypot per entry) runs
    only on the rest.
    """
    ok = np.abs(z.real) >= PHASE_FLOOR
    ok |= np.abs(z.imag) >= PHASE_FLOOR
    if not ok.all():
        rest = ~ok
        ok[rest] = ~(np.abs(z[rest]) < PHASE_FLOOR)
    return ok


def bayes_convert(forward: CcpTable, converted: CcpTable) -> IdentitySides:
    """p(m|a,b) p(a|b) against p(a|b,m) p(m|b), over (m, a, b).

    ``forward`` is the table over (M, A, B), ``converted`` the one over
    (A, B, M).
    """
    _require_over(converted, forward.a_basis, forward.b_basis, forward.m_basis)
    p_a_b = ergodic_table(forward.a_basis, forward.b_basis)  # [..., a, b]
    p_m_b = ergodic_table(forward.m_basis, forward.b_basis)  # [..., m, b]
    lhs = forward.vals * p_a_b[..., np.newaxis, :, :]
    rhs = np.moveaxis(converted.vals, -1, -3) * p_m_b[..., :, np.newaxis, :]
    converted_mask = np.swapaxes(converted.defined_mask, -1, -2)[..., :, np.newaxis, :]
    mask = forward.defined_mask[..., np.newaxis, :, :] & converted_mask
    return IdentitySides(lhs, rhs, mask, axes=3)


def ozawa_error(composed: CcpTable) -> np.ndarray:
    """Average conditional uncertainty of the values carried by A, per (stacked) condition b.

    ``composed`` is the determinism composition sum_m p(a'|m,b) p(m|a,b)
    over (A, A, B), as :func:`determinism_residual` takes it.  Evaluates
        eps^2(b) = sum_{a,a'} (A_a - A_a')^2/2 * sum_m p(a'|m,b) p(m|a,b) p(a|b)
    for every b.  Because the complex conditionals compose
    deterministically, the inner sum is delta(a, a') and eps^2 vanishes up
    to rounding.  A condition b with an undefined conditional gives NaN.
    """
    values = composed.a_basis.values
    if values is None:
        raise MissingValues("initial basis carries no outcome values")
    _require_same((composed.m_basis, composed.a_basis))
    half_sq = 0.5 * (values[:, np.newaxis] - values[np.newaxis, :]) ** 2  # [a', a], symmetric
    p_a_b = ergodic_table(composed.a_basis, composed.b_basis)  # [..., a, b]
    # numpy's own loops over the [..., b, a', a] storage: einsum is slower, a matmul wakes BLAS
    per_a = np.sum(np.moveaxis(composed.vals, -1, -3) * half_sq, axis=-2)  # [..., b, a]
    eps = _real_part(np.sum(per_a * np.swapaxes(p_a_b, -1, -2), axis=-1), "epsilon^2")
    return np.where(composed.defined_mask.all(axis=-2), eps, np.nan)


def sampling_variance(values, probs) -> float:
    """Spread of a value under a plain probability distribution.

    Pair-difference form sum_{a,a'} (A_a - A_a')^2/2 p(a) p(a'); equal to
    the ordinary variance of the distribution.
    """
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if values.shape != probs.shape:
        raise DimensionMismatch(f"{values.shape} values vs {probs.shape} probabilities")
    diff_sq = 0.5 * (values[:, np.newaxis] - values[np.newaxis, :]) ** 2
    return float(np.einsum("aA,a,A->", diff_sq, probs, probs))
