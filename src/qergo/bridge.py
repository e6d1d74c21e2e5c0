"""Vectors, inner products, and state quasiprobabilities from conditionals.

Everything here is built from conditional and transition probabilities
alone; the matching linear-algebra quantities serve only as test oracles.
A fixed reference outcome b supplies the phase standard: the reconstructed
amplitudes equal the conventional ones in the gauge where every overlap
with b is real and non-negative, so comparisons against raw amplitudes
must re-gauge first (see :func:`reference_gauge_amplitudes`).  Stacked
bases and tables (see :mod:`.basis`) give results with the same leading axes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .basis import COMPATIBLE_TOL, Basis, _csv, _json_complex, _json_field
from .ccp import CcpTable, IMAG_RESIDUE_TOL, _require_shared_dim, is_defined
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    NumericsError,
    OrthogonalCondition,
    ParseError,
    ZeroReferenceOverlap,
)

REFERENCE_OVERLAP_FLOOR = 1e-14


def _reference_probs(basis: Basis, basis_b: Basis, b_ref: int) -> np.ndarray:
    """Transition probabilities p(x|b_ref) for every outcome x of ``basis``."""
    return np.abs(basis.amplitudes(basis_b.column(b_ref))) ** 2


def reconstruct_vector(table: CcpTable, b_ref: int) -> np.ndarray:
    """Unit vectors of every outcome a in the intermediate basis, from conditionals.

    Column a holds sqrt(p(a|b_ref)/p(m|b_ref)) * p(m|a,b_ref) over m.  It
    has unit norm and equals the amplitude column <m|a> in the gauge fixed
    by the reference outcome, up to one global phase.
    """
    p_m_b = _reference_probs(table.m_basis, table.b_basis, b_ref)
    if not table.defined_mask[..., b_ref].all():
        raise OrthogonalCondition("an initial outcome is orthogonal to the reference")
    if np.any(p_m_b <= REFERENCE_OVERLAP_FLOOR):
        raise ZeroReferenceOverlap("reference outcome is orthogonal to an intermediate outcome")
    p_a_b = _reference_probs(table.a_basis, table.b_basis, b_ref)
    return np.sqrt(p_a_b[..., np.newaxis, :] / p_m_b[..., np.newaxis]) * table.vals[..., b_ref]


def reference_gauge_amplitudes(
    basis_m: Basis, basis_a: Basis, basis_b: Basis, b_ref: int
) -> np.ndarray:
    """Oracle amplitudes <m|a>, indexed [m, a], re-gauged so every <b_ref|.> is real positive.

    This is the linear-algebra counterpart of :func:`reconstruct_vector`:
    each vector is rotated by the phase of its overlap with the reference
    outcome, the gauge in which the reconstruction identity is exact.
    """
    b_vec = basis_b.column(b_ref)
    beta = np.angle(basis_m.amplitudes(b_vec))  # Arg <m|b_ref>
    alpha = np.angle(basis_a.amplitudes(b_vec))  # Arg <a|b_ref>
    phases = np.exp(1j * (alpha[..., np.newaxis, :] - beta[..., np.newaxis]))
    return basis_m.overlaps_with(basis_a) * phases


def align_global_phase(candidate: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotate ``candidate`` by the single phase that best matches ``target``."""
    overlap = np.vdot(target, candidate)
    if abs(overlap) == 0.0:
        return candidate
    return candidate * (np.conj(overlap) / abs(overlap))


def _paired_conditionals(
    basis_t: Basis, basis_m: Basis, basis_s: Basis, basis_b: Basis, b_ref: int
) -> tuple[np.ndarray, np.ndarray]:
    """Factors of p(t|m,b) p(m|s,b) at the reference b, finite at <b|m> = 0.

    Returns ``left[t, m]`` and ``right[m, s]`` whose product over each
    (t, m, s) is the paired conditional, so ``left @ right`` sums it over m.
    Where <b|m> is above cutoff they are the two conditionals; at
    (numerically) orthogonal intermediates, where each alone diverges or
    vanishes, they are rescaled by <b|m> and 1/<b|m>, which leaves their
    product at its analytic limit <b|t><t|m><m|s>/<b|s>.
    """
    if len({basis_t.dim, basis_m.dim, basis_s.dim, basis_b.dim}) != 1:
        raise DimensionMismatch("all four bases must share one dimension")
    b_vec = basis_b.column(b_ref)
    b_s = np.conj(basis_s.amplitudes(b_vec))  # <b|s>
    if not is_defined(b_s).all():
        raise OrthogonalCondition("an initial outcome is orthogonal to the reference")
    b_t = np.conj(basis_t.amplitudes(b_vec))  # <b|t>
    b_m = np.conj(basis_m.amplitudes(b_vec))  # <b|m>
    scale = np.where(is_defined(b_m), b_m, 1.0)
    t_m, m_s = basis_t.overlaps_with(basis_m), basis_m.overlaps_with(basis_s)
    left = b_t[..., np.newaxis] * t_m / scale[..., np.newaxis, :]  # p(t|m,b)
    right = scale[..., np.newaxis] * m_s / b_s[..., np.newaxis, :]  # p(m|s,b)
    return left, right


def inner_product_ccp(
    basis_f: Basis, basis_a: Basis, basis_m: Basis, basis_b: Basis, b_ref: int
) -> np.ndarray:
    """Inner products <f|a> assembled from conditionals through basis M.

    Entry [f, a] is sqrt(p(a|b)/p(f|b)) * sum_m p(f|m,b) p(m|a,b).  Its
    magnitude equals |<f|a>|; the phase is fixed by the reference outcome
    and is independent of the intermediate basis M.
    """
    p_f_b = _reference_probs(basis_f, basis_b, b_ref)
    if np.any(p_f_b <= REFERENCE_OVERLAP_FLOOR):
        raise OrthogonalCondition("a target outcome is orthogonal to the reference")
    p_a_b = _reference_probs(basis_a, basis_b, b_ref)
    left, right = _paired_conditionals(basis_f, basis_m, basis_a, basis_b, b_ref)
    return np.sqrt(p_a_b[..., np.newaxis, :] / p_f_b[..., np.newaxis]) * (left @ right)


def born_rule_coherence(
    basis_f: Basis, basis_a: Basis, basis_m: Basis, reference: tuple[Basis, int]
) -> np.ndarray:
    """Transition probabilities p(f|a) from the conditional double sum.

    Entry [f, a] is sum_{m,m'} (p(m|a,b) p(a|m',b)) (p(m'|f,b) p(f|m,b)) at
    the reference condition.  The summand is Hermitian under swapping
    (m, m'), so the total is real; it equals |<f|a>|^2.
    """
    basis_b, b_ref = reference
    # Grouped per index so each factor pair stays finite at <b|m> = 0; the
    # double sum factorizes into sum_m p(f|m,b) p(m|a,b) times its mirror.
    left, right = _paired_conditionals(basis_f, basis_m, basis_a, basis_b, b_ref)
    back_left, back_right = _paired_conditionals(basis_a, basis_m, basis_f, basis_b, b_ref)
    total = (left @ right) * np.swapaxes(back_left @ back_right, -1, -2)
    residue = float(np.max(np.abs(total.imag)))
    if not residue < IMAG_RESIDUE_TOL / 10:
        raise NumericsError(f"imaginary residue {residue:.3e} in coherence sum")
    return total.real


@dataclass(frozen=True)
class JointQuasiProb:
    """Complex joint quasiprobability of a state over a basis pair.

    ``vals[a, b] = <a|rho|b><b|a>`` sums to one and has real non-negative
    marginals.  ``sandwich[a, b] = <a|rho|b>`` is the overlap-free factor of
    each entry; predictions are summed over it, so they stay finite even at
    orthogonal (a, b) pairs, where the conditional alone diverges but the
    product does not.
    """

    a_basis: Basis
    b_basis: Basis
    vals: np.ndarray  # (..., dim, dim), complex
    sandwich: np.ndarray  # (..., dim, dim), complex

    @property
    def dim(self) -> int:
        return self.a_basis.dim

    def total(self) -> complex:
        return self.vals.sum(axis=(-2, -1))[()]

    def marginal_a(self) -> np.ndarray:
        return self.vals.sum(axis=-1)

    def marginal_b(self) -> np.ndarray:
        return self.vals.sum(axis=-2)

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "a_basis": json.loads(self.a_basis.to_json()),
            "b_basis": json.loads(self.b_basis.to_json()),
            "re": self.vals.real.tolist(),
            "im": self.vals.imag.tolist(),
            "sandwich_re": self.sandwich.real.tolist(),
            "sandwich_im": self.sandwich.imag.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "JointQuasiProb":
        """Load a joint, refusing a file whose ``vals`` is not ``sandwich * <b|a>``.

        Every entry must hold |vals - sandwich <b|a>| <= 2 sqrt(d) 1e-12 + 1e-12,
        <b|a> recomputed from the file's bases, which covers every joint
        ``pure_state_joint`` and ``mix_joints`` write.  The first term is
        ``mix_joints``' basis drift: it pairs bases that agree to
        ``COMPATIBLE_TOL`` per entry, which moves <b|a> by up to 2 sqrt(d)
        COMPATIBLE_TOL, and |sandwich| <= 1 under weights summing to one.
        The second bounds its rounding, u = 2^-53 (Higham 2002, sec. 3.1,
        lemma 3.5): sqrt(2) gamma_2 per product, sqrt(2) gamma_{d+2} per
        <b|a>, and gamma_n for each of its two sums over n joints, at most
        (2n + 3d + 12) u, under 1e-12 for 2n + 3d <= 8,995.  One state's values
        with another's sandwich miss by O(1) and raise :class:`ParseError`.
        """
        payload = json.loads(text)
        a_basis, b_basis = (
            Basis.from_json(json.dumps(_json_field(payload, key))) for key in ("a_basis", "b_basis")
        )
        shape = (_require_shared_dim(a_basis, b_basis),) * 2
        vals = _json_complex(payload, "re", "im")
        sandwich = _json_complex(payload, "sandwich_re", "sandwich_im")
        for name, arr in (("values", vals), ("sandwich", sandwich)):
            if arr.shape != shape:
                raise ParseError(f"need {name} of shape {shape}, got {arr.shape}", 1)
            arr.setflags(write=False)
        defect = np.abs(vals - sandwich * b_basis.overlaps_with(a_basis).T)
        bound = 2.0 * np.sqrt(shape[0]) * COMPATIBLE_TOL + 1e-12  # basis drift + rounding
        if not np.all(defect <= bound):
            worst = float(np.max(defect))
            raise ParseError(f"values are off sandwich * <b|a> by {worst:.3e} > {bound:.3e}", 1)
        return cls(a_basis=a_basis, b_basis=b_basis, vals=vals, sandwich=sandwich)

    def to_csv(self) -> str:
        return _csv(
            a_label=[a for a in self.a_basis.labels for _ in range(self.dim)],
            b_label=self.b_basis.labels * self.dim,
            re=self.vals.real.ravel().tolist(), im=self.vals.imag.ravel().tolist(),
        )


def _validate_joint(vals: np.ndarray) -> None:
    total = vals.sum(axis=(-2, -1))
    if not np.all(abs(total - 1.0) < 1e-9):
        raise NumericsError(f"joint total {total} deviates from 1")
    for marg in (vals.sum(axis=-2), vals.sum(axis=-1)):
        if not (np.all(np.abs(marg.imag) < 1e-9) and np.all(marg.real > -1e-9)):
            raise NumericsError("joint marginals are not real non-negative")


def pure_state_joint(state: tuple[Basis, int], basis_a: Basis, basis_b: Basis) -> JointQuasiProb:
    """Joint quasiprobability of a sharply prepared outcome over (A, B).

    Entry (a, b) is conj(p(m|a,b)) p(b|a) = <a|m><m|b><b|a>, evaluated in
    the product form, which stays finite at orthogonal (a, b) pairs where
    the conditional factor alone is undefined.
    """
    basis_m, m = state
    if basis_m.dim != basis_a.dim or basis_m.dim != basis_b.dim:
        raise DimensionMismatch("state and joint bases must share one dimension")
    basis_m.check_index(m)
    psi = basis_m.vectors[..., m]
    a_psi = basis_a.amplitudes(psi)  # <a|m>
    psi_b = np.conj(basis_b.amplitudes(psi))  # <m|b>
    sandwich = a_psi[..., np.newaxis] * psi_b[..., np.newaxis, :]  # <a|m><m|b>
    b_a = basis_b.overlaps_with(basis_a)  # <b|a>, [..., b, a]
    vals = sandwich * np.swapaxes(b_a, -1, -2)
    _validate_joint(vals)
    vals.setflags(write=False)
    sandwich.setflags(write=False)
    return JointQuasiProb(a_basis=basis_a, b_basis=basis_b, vals=vals, sandwich=sandwich)


def mix_joints(joints, weights) -> JointQuasiProb:
    """Convex mixture of joint quasiprobabilities over a common basis pair.

    Plain statistical mixing; this extension beyond sharply prepared
    states is a convenience of this implementation.
    """
    joints = list(joints)
    weights = np.asarray(weights, dtype=np.float64)
    if len(joints) == 0 or weights.shape != (len(joints),):
        raise DimensionMismatch("need one weight per joint")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be non-negative and sum to one")
    first = joints[0]
    for j in joints[1:]:
        if not (
            j.a_basis.compatible_with(first.a_basis)
            and j.b_basis.compatible_with(first.b_basis)
        ):
            raise BasisMismatch("joints are defined over different basis pairs")
    vals = sum(w * j.vals for w, j in zip(weights, joints))
    sandwich = sum(w * j.sandwich for w, j in zip(weights, joints))
    vals.setflags(write=False)
    sandwich.setflags(write=False)
    return JointQuasiProb(
        a_basis=first.a_basis, b_basis=first.b_basis, vals=vals, sandwich=sandwich
    )


def predict_outcome_prob(joint: JointQuasiProb, basis_m: Basis) -> np.ndarray:
    """Probabilities of every outcome m predicted from a joint quasiprobability.

    Evaluates p(m) = sum_{a,b} p(m|a,b) rho(a,b) in the overlap-free form
    <b|m><m|a> <a|rho|b>, in which <b|a> cancels, so it is exact for every
    basis pair, orthogonal (a, b) pairs included.
    """
    if basis_m.dim != joint.dim:
        raise BasisMismatch(f"dim {basis_m.dim} vs joint dim {joint.dim}")
    m_a = basis_m.overlaps_with(joint.a_basis)  # <m|a>
    b_m = np.conj(basis_m.overlaps_with(joint.b_basis))  # <b|m>, indexed [..., m, b]
    total = np.sum((m_a @ joint.sandwich) * b_m, axis=-1)
    residue = float(np.max(np.abs(total.imag)))
    if not residue < 1e-10:
        raise NumericsError(f"imaginary residue {residue:.3e} in prediction")
    prob = total.real
    if not np.all((prob >= -1e-9) & (prob <= 1.0 + 1e-9)):
        raise NumericsError(f"predicted probabilities {prob} outside [0, 1]")
    return prob
