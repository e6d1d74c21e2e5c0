"""Phase-shift representation of outcome-conserving unitaries.

A reversible map that conserves every outcome of a basis M acts on
conditional tables purely through one phase per outcome.  The phase of
outcome m generated by an energy E_m over a parameter span t is
phi_m = E_m t / hbar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import Basis, ergodic_prob
from .ccp import CcpTable
from .errors import BasisMismatch, DegenerateDenominator, DimensionMismatch

DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseProfile:
    """One phase per outcome of a basis, optionally derived from a generator."""

    basis: Basis
    phases: np.ndarray  # radians, shape (dim,)
    generator_values: np.ndarray | None = None  # energies, shape (dim,)
    parameter: float | None = None  # conjugate parameter (time)
    hbar: float = 1.0

    @classmethod
    def from_phases(cls, basis: Basis, phases) -> "PhaseProfile":
        arr = np.asarray(phases, dtype=np.float64).copy()
        if arr.shape != basis.vectors.shape[:-1]:
            raise DimensionMismatch(f"{arr.shape} phases for dim {basis.dim}")
        arr.setflags(write=False)
        return cls(basis=basis, phases=arr)

    @classmethod
    def from_generator(
        cls, basis: Basis, energies, parameter: float, hbar: float = 1.0
    ) -> "PhaseProfile":
        """Build phases phi_m = E_m * t / hbar from generator eigenvalues."""
        if hbar <= 0:
            raise ValueError(f"hbar must be positive, got {hbar}")
        e = np.asarray(energies, dtype=np.float64).copy()
        if e.shape != (basis.dim,):
            raise DimensionMismatch(f"{e.shape} generator values for dim {basis.dim}")
        phases = e * parameter / hbar
        phases.setflags(write=False)
        e.setflags(write=False)
        return cls(
            basis=basis,
            phases=phases,
            generator_values=e,
            parameter=float(parameter),
            hbar=float(hbar),
        )

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "labels": list(self.basis.labels),
            "phases": [float(p) for p in self.phases],
            "E": None
            if self.generator_values is None
            else [float(e) for e in self.generator_values],
            "t": self.parameter,
            "hbar": self.hbar,
        }
        return json.dumps(payload, sort_keys=True, indent=indent)


def _checked_column(table: CcpTable, profile: PhaseProfile, a: int, b: int):
    if not profile.basis.compatible_with(table.m_basis):
        raise BasisMismatch("profile basis differs from the table's intermediate basis")
    return table.column(a, b)


def apply_phase_transform(
    table: CcpTable, profile: PhaseProfile, a: int, b: int
) -> np.ndarray:
    """Conditional column after transforming the final condition.

    Returns p(m|a,U(b)) = p(m|a,b) e^{i phi_m} / sum_m' p(m'|a,b) e^{i phi_m'}.
    The output sums to one.  Raises :class:`DegenerateDenominator` when the
    renormalizer is numerically zero (the transformed pair is orthogonal).
    """
    col = _checked_column(table, profile, a, b)
    shifted = col * np.exp(1j * profile.phases)
    denom = shifted.sum()
    if abs(denom) <= DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            f"renormalizer magnitude {abs(denom):.3e} at (a={a}, b={b})"
        )
    return shifted / denom


def transformed_prob(
    table: CcpTable, profile: PhaseProfile, a: int, b: int, direction: str
) -> float:
    """Output probability after transforming a or b with the profiled map.

    ``direction='on_a'`` gives p(b|U(a)) = p(b|a) |sum_m p(m|a,b) e^{-i phi_m}|^2,
    ``direction='on_b'`` gives p(U(b)|a) with the opposite phase sign.
    Matches |<b|U|a>|^2 for U = sum_m e^{-i phi_m}|m><m| (adjoint for on_b).
    """
    col = _checked_column(table, profile, a, b)
    sign = {"on_a": -1.0, "on_b": 1.0}.get(direction)
    if sign is None:
        raise ValueError(f"direction must be 'on_a' or 'on_b', got {direction!r}")
    amp = np.sum(col * np.exp(sign * 1j * profile.phases), axis=-1)
    p_b_a = ergodic_prob(table.b_basis, b, table.a_basis, a)
    return p_b_a * np.abs(amp) ** 2


def dephase(table: CcpTable, a: int, b: int) -> float:
    """Output probability after full randomization of the outcome phases.

    Returns p(b|a) sum_m |p(m|a,b)|^2, which equals the incoherent
    sequential value sum_m p(b|m) p(m|a) and the mean of
    :func:`transformed_prob` over uniformly random phase profiles.
    """
    col = table.column(a, b)
    p_b_a = ergodic_prob(table.b_basis, b, table.a_basis, a)
    return float(p_b_a * np.sum(np.abs(col) ** 2))


class QuantizationResult(NamedTuple):
    passed: bool
    max_defect: float


def quantized_spectrum_check(
    generator_values, period: float, hbar: float, rtol: float = 1e-8
) -> QuantizationResult:
    """Test whether generator values are compatible with a periodic map.

    A transformation that repeats after parameter span T forces every
    pairwise difference of its generator values onto the ladder
    n * 2 pi hbar / T.  ``max_defect`` is the worst fractional distance of
    a pairwise difference from that ladder; ``passed`` requires it to stay
    within ``rtol``.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    values = np.asarray(generator_values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise DimensionMismatch("need at least two generator values")
    unit = 2.0 * np.pi * hbar / period
    diffs = (values[:, np.newaxis] - values[np.newaxis, :]) / unit
    defects = np.abs(diffs - np.round(diffs))
    max_defect = float(defects.max())
    return QuantizationResult(passed=max_defect <= rtol, max_defect=max_defect)
