"""Complex conditional probabilities for ordered basis triples.

The central object is the ratio

    p(m|a,b) = <b|m><m|a> / <b|a>

for an intermediate outcome m between an initial outcome a and a final
outcome b.  The functions below build full (m, a, b) tables and check the
algebraic identities these ratios satisfy: chain composition, determinism,
the product law p(a|m,b) p(m|a,b) = p(m|a), phase antisymmetry, Bayesian
conversion, the sequential back-action relation, and the vanishing of the
conditional spread of any outcome value.

Pairs (a, b) with |<b|a>| at or below the cutoff are undefined: column
operations raise :class:`OrthogonalCondition`, table constructors mask.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .basis import Basis, ergodic_prob
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    MissingValues,
    NumericsError,
    OrthogonalCondition,
)

#: Overlaps |<b|a>| at or below cutoff * max|<b|a>| mark (a, b) undefined.
ORTHOGONALITY_CUTOFF = 1e-10

#: Magnitudes below this have no meaningful phase.
PHASE_FLOOR = 1e-12

#: Hard bound on imaginary residues of analytically-real quantities.
IMAG_RESIDUE_TOL = 1e-9


def _circle_distance(angles: np.ndarray | float) -> np.ndarray | float:
    """Distance of angles to 0 on the circle (result in [0, pi])."""
    return np.abs(np.remainder(np.asarray(angles) + np.pi, 2 * np.pi) - np.pi)


def _require_shared_dim(*bases: Basis) -> int:
    dims = {b.dim for b in bases}
    if len(dims) != 1:
        raise BasisMismatch(f"bases of different dimension: {sorted(dims)}")
    return dims.pop()


def ccp_value(
    basis_m: Basis,
    m: int,
    basis_a: Basis,
    a: int,
    basis_b: Basis,
    b: int,
    cutoff: float = ORTHOGONALITY_CUTOFF,
) -> complex:
    """Single complex conditional probability p(m|a,b) = <b|m><m|a>/<b|a>.

    Raises :class:`OrthogonalCondition` when |<b|a>| is at or below the
    cutoff: the pre/post-selection pair is ill-posed and the ratio diverges.
    """
    _require_shared_dim(basis_m, basis_a, basis_b)
    denom = basis_b.overlap(b, basis_a, a)
    if abs(denom) <= cutoff:
        raise OrthogonalCondition(
            f"|<b|a>| = {abs(denom):.3e} at or below cutoff {cutoff:.1e} "
            f"(a={basis_a.labels[a]}, b={basis_b.labels[b]})"
        )
    num = basis_b.overlap(b, basis_m, m) * basis_m.overlap(m, basis_a, a)
    return complex(num / denom)


def ccp_column(
    basis_m: Basis,
    basis_a: Basis,
    a: int,
    basis_b: Basis,
    b: int,
    cutoff: float = ORTHOGONALITY_CUTOFF,
) -> np.ndarray:
    """All p(m|a,b) for fixed (a, b), as a length-dim complex array."""
    _require_shared_dim(basis_m, basis_a, basis_b)
    basis_a.check_index(a)
    basis_b.check_index(b)
    denom = basis_b.overlap(b, basis_a, a)
    if abs(denom) <= cutoff:
        raise OrthogonalCondition(f"|<b|a>| = {abs(denom):.3e} at or below cutoff")
    b_m = np.conj(basis_m.vectors.conj().T @ basis_b.vectors[:, b])  # <b|m>
    m_a = basis_m.vectors.conj().T @ basis_a.vectors[:, a]  # <m|a>
    return b_m * m_a / denom


@dataclass(frozen=True)
class CcpTable:
    """Complex conditional probabilities p(m|a,b) for one basis triple.

    ``vals[m, a, b]`` holds the conditional; entries of undefined (a, b)
    pairs are zeroed and flagged False in ``defined_mask[a, b]``.
    """

    m_basis: Basis
    a_basis: Basis
    b_basis: Basis
    vals: np.ndarray  # (dim, dim, dim), complex
    defined_mask: np.ndarray  # (dim, dim), bool over (a, b)

    @property
    def dim(self) -> int:
        return self.m_basis.dim

    def require_defined(self, a: int, b: int) -> None:
        self.a_basis.check_index(a)
        self.b_basis.check_index(b)
        if not self.defined_mask[a, b]:
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
        return self.vals[:, a, b]

    def normalization_defect(self) -> float:
        """Worst |sum_m p(m|a,b) - 1| over defined (a, b) pairs."""
        sums = self.vals.sum(axis=0)
        defects = np.abs(sums - 1.0)
        if not self.defined_mask.any():
            return 0.0
        return float(defects[self.defined_mask].max())

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "m_basis": json.loads(self.m_basis.to_json()),
            "a_basis": json.loads(self.a_basis.to_json()),
            "b_basis": json.loads(self.b_basis.to_json()),
            "re": self.vals.real.tolist(),
            "im": self.vals.imag.tolist(),
            "defined_mask": self.defined_mask.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CcpTable":
        payload = json.loads(text)
        vals = np.array(payload["re"], dtype=np.float64) + 1j * np.array(
            payload["im"], dtype=np.float64
        )
        mask = np.array(payload["defined_mask"], dtype=bool)
        table = cls(
            m_basis=Basis.from_json(json.dumps(payload["m_basis"])),
            a_basis=Basis.from_json(json.dumps(payload["a_basis"])),
            b_basis=Basis.from_json(json.dumps(payload["b_basis"])),
            vals=vals,
            defined_mask=mask,
        )
        table.vals.setflags(write=False)
        table.defined_mask.setflags(write=False)
        return table

    def column_csv(self, a: int, b: int) -> str:
        """One (a, b) column as CSV rows (m_label, re, im, magnitude, phase)."""
        col = self.column(a, b)
        buf = io.StringIO()
        buf.write("m_label,re,im,magnitude,phase\n")
        for m in range(self.dim):
            v = col[m]
            buf.write(
                f"{self.m_basis.labels[m]},{float(v.real)!r},{float(v.imag)!r},"
                f"{float(abs(v))!r},{float(np.angle(v))!r}\n"
            )
        return buf.getvalue()


def ccp_table(
    basis_m: Basis,
    basis_a: Basis,
    basis_b: Basis,
    cutoff: float = ORTHOGONALITY_CUTOFF,
) -> CcpTable:
    """Full conditional table over (m, a, b) with undefined pairs masked."""
    _require_shared_dim(basis_m, basis_a, basis_b)
    b_a = basis_b.overlaps_with(basis_a)  # <b|a>, indexed [b, a]
    b_m = basis_b.overlaps_with(basis_m)  # <b|m>, indexed [b, m]
    m_a = basis_m.overlaps_with(basis_a)  # <m|a>, indexed [m, a]
    scale = float(np.max(np.abs(b_a)))
    mask = np.abs(b_a.T) > cutoff * max(scale, 1e-300)  # indexed [a, b]
    num = np.einsum("bm,ma->mab", b_m, m_a)
    denom = b_a.T[np.newaxis, :, :]
    vals = np.zeros_like(num)
    np.divide(num, denom, out=vals, where=mask[np.newaxis, :, :])
    vals.setflags(write=False)
    mask.setflags(write=False)
    return CcpTable(
        m_basis=basis_m, a_basis=basis_a, b_basis=basis_b, vals=vals, defined_mask=mask
    )


def chain_compose(outer: CcpTable, inner: CcpTable) -> CcpTable:
    """Compose p(f|a,b) = sum_m p(f|m,b) p(m|a,b).

    ``outer`` is the table over (F, M, B), ``inner`` the table over
    (M, A, B); the shared M and B bases must match.  The result is a table
    over (F, A, B) whose mask marks entries where every contributing
    conditional was defined.
    """
    if not outer.a_basis.compatible_with(inner.m_basis):
        raise BasisMismatch("outer initial basis differs from inner intermediate basis")
    if not outer.b_basis.compatible_with(inner.b_basis):
        raise BasisMismatch("outer and inner final bases differ")
    vals = np.einsum("fmb,mab->fab", outer.vals, inner.vals)
    mask = inner.defined_mask & outer.defined_mask.all(axis=0)[np.newaxis, :]
    vals = np.where(mask[np.newaxis, :, :], vals, 0.0)
    vals.setflags(write=False)
    mask.setflags(write=False)
    return CcpTable(
        m_basis=outer.m_basis,
        a_basis=inner.a_basis,
        b_basis=inner.b_basis,
        vals=vals,
        defined_mask=mask,
    )


def determinism_residual(basis_m: Basis, basis_a: Basis, basis_b: Basis) -> float:
    """Worst deviation of sum_m p(a'|m,b) p(m|a,b) from delta(a, a')."""
    inner = ccp_table(basis_m, basis_a, basis_b)
    outer = ccp_table(basis_a, basis_m, basis_b)
    composed = chain_compose(outer, inner)
    dim = basis_a.dim
    delta = np.eye(dim)[:, :, np.newaxis]
    dev = np.abs(composed.vals - delta)
    if not composed.defined_mask.any():
        return 0.0
    dev = np.where(composed.defined_mask[np.newaxis, :, :], dev, 0.0)
    return float(dev.max())


def ergodicity_product(
    basis_m: Basis,
    basis_a: Basis,
    basis_b: Basis,
    m: int,
    a: int,
    b: int,
) -> complex:
    """Product p(a|m,b) p(m|a,b); equals the real transition probability p(m|a)."""
    forward = ccp_value(basis_m, m, basis_a, a, basis_b, b)
    backward = ccp_value(basis_a, a, basis_m, m, basis_b, b)
    return backward * forward


def backaction_check(
    basis_m: Basis,
    basis_a: Basis,
    basis_b: Basis,
    m: int,
    a: int,
    b: int,
) -> tuple[float, float]:
    """Both sides of p(b|m) p(m|a) = p(b|a) |p(m|a,b)|^2."""
    lhs = ergodic_prob(basis_b, b, basis_m, m) * ergodic_prob(basis_m, m, basis_a, a)
    val = ccp_value(basis_m, m, basis_a, a, basis_b, b)
    rhs = ergodic_prob(basis_b, b, basis_a, a) * abs(val) ** 2
    return float(lhs), float(rhs)


def phase_antisymmetry_check(
    basis_m: Basis, basis_a: Basis, basis_b: Basis
) -> float:
    """Worst circular defect of the two phase-reversal identities.

    Checks Arg p(a|m,b) = -Arg p(m|a,b) and Arg p(m|a,b) = -Arg p(m|b,a)
    over all defined triples, skipping entries whose magnitude is below
    ``PHASE_FLOOR`` (the phase of a numerical zero is noise).  A NaN entry
    is not skipped, so it makes the result NaN.
    """
    t_mab = ccp_table(basis_m, basis_a, basis_b)
    t_amb = ccp_table(basis_a, basis_m, basis_b)
    t_mba = ccp_table(basis_m, basis_b, basis_a)

    worst = 0.0
    fwd = t_mab.vals  # [m, a, b]
    rev = np.transpose(t_amb.vals, (1, 0, 2))  # p(a|m,b) -> [m, a, b]
    swap = np.transpose(t_mba.vals, (0, 2, 1))  # p(m|b,a) -> [m, a, b]

    ok_fwd = t_mab.defined_mask[np.newaxis, :, :] & ~(np.abs(fwd) < PHASE_FLOOR)
    ok_rev = t_amb.defined_mask.T[np.newaxis, :, :] & ~(np.abs(rev) < PHASE_FLOOR)
    ok_swap = t_mba.defined_mask.T[np.newaxis, :, :] & ~(np.abs(swap) < PHASE_FLOOR)

    pair1 = ok_fwd & ok_rev
    if pair1.any():
        d1 = _circle_distance(np.angle(rev[pair1]) + np.angle(fwd[pair1]))
        worst = float(np.maximum(worst, np.max(d1)))  # NaN-propagating
    pair2 = ok_fwd & ok_swap
    if pair2.any():
        d2 = _circle_distance(np.angle(fwd[pair2]) + np.angle(swap[pair2]))
        worst = float(np.maximum(worst, np.max(d2)))
    return worst


def bayes_convert(
    basis_m: Basis,
    basis_a: Basis,
    basis_b: Basis,
    m: int,
    a: int,
    b: int,
) -> tuple[complex, complex]:
    """Both sides of p(m|a,b) p(a|b) = p(a|b,m) p(m|b)."""
    lhs = ccp_value(basis_m, m, basis_a, a, basis_b, b) * ergodic_prob(
        basis_a, a, basis_b, b
    )
    rhs = ccp_value(basis_a, a, basis_b, b, basis_m, m) * ergodic_prob(
        basis_m, m, basis_b, b
    )
    return complex(lhs), complex(rhs)


@dataclass(frozen=True)
class OzawaReport:
    """Conditional spread of an outcome value, evaluated with complex weights."""

    epsilon_sq: float
    per_m_terms: np.ndarray  # real contributions, one per intermediate outcome
    values_used: np.ndarray


def ozawa_error(
    basis_m: Basis,
    basis_a: Basis,
    condition: tuple[Basis, int],
) -> OzawaReport:
    """Average conditional uncertainty of the values carried by ``basis_a``.

    Evaluates
        eps^2 = sum_{a,a'} (A_a - A_a')^2/2 * sum_m p(a'|m,b) p(m|a,b) p(a|b)
    for the fixed condition b.  Because the complex conditionals compose
    deterministically, the inner sum is delta(a, a') and eps^2 vanishes up
    to rounding.
    """
    if basis_a.values is None:
        raise MissingValues("initial basis carries no outcome values")
    basis_b, b = condition
    _require_shared_dim(basis_m, basis_a, basis_b)
    basis_b.check_index(b)

    t_mab = ccp_table(basis_m, basis_a, basis_b)
    t_amb = ccp_table(basis_a, basis_m, basis_b)
    if not t_mab.defined_mask[:, b].all() or not t_amb.defined_mask[:, b].all():
        raise OrthogonalCondition(
            "some conditional needed for this condition is undefined"
        )

    values = np.asarray(basis_a.values, dtype=np.float64)
    half_sq = 0.5 * (values[:, np.newaxis] - values[np.newaxis, :]) ** 2  # [a, a']
    p_a_b = np.abs(basis_b.vectors[:, b].conj() @ basis_a.vectors) ** 2  # p(a|b)

    fwd = t_mab.vals[:, :, b]  # p(m|a,b), [m, a]
    rev = t_amb.vals[:, :, b]  # p(a'|m,b), [a', m]
    # weight[a, a', m] = p(a'|m,b) p(m|a,b) p(a|b)
    per_m_complex = np.einsum("aA,Am,ma,a->m", half_sq, rev, fwd, p_a_b)
    total = complex(per_m_complex.sum())
    if abs(total.imag) >= IMAG_RESIDUE_TOL:
        raise NumericsError(f"imaginary residue {total.imag:.3e} in epsilon^2")
    per_m = per_m_complex.real.copy()
    per_m.setflags(write=False)
    values_used = values.copy()
    values_used.setflags(write=False)
    return OzawaReport(
        epsilon_sq=float(total.real), per_m_terms=per_m, values_used=values_used
    )


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
