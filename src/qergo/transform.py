"""Phase-shift representation of outcome-conserving unitaries.

A reversible map that conserves every outcome of a basis M acts on
conditional tables purely through one phase per outcome.  The phase of
outcome m generated by an energy E_m over a parameter span t is
phi_m = E_m t / hbar.  The transforms below act on a whole table, over
every (a, b) at once and per stacked triple, as the :mod:`.ccp` identities
do; an undefined pair reads NaN.  The fully dephased output
p(b|a) sum_m |p(m|a,b)|^2 is the summed direct side of
:func:`.ccp.backaction_check`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import Basis, ergodic_table
from .ccp import CcpTable, _require_same, is_defined
from .errors import DimensionMismatch


def _require_finite(**named) -> None:
    """Raise ValueError unless every named number or array is free of NaN and Inf."""
    for name, value in named.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


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
        _require_finite(phases=arr)
        if arr.shape != basis.vectors.shape[:-1]:
            raise DimensionMismatch(f"{arr.shape} phases for dim {basis.dim}")
        arr.setflags(write=False)
        return cls(basis=basis, phases=arr)

    @classmethod
    def from_generator(
        cls, basis: Basis, energies, parameter: float, hbar: float = 1.0
    ) -> "PhaseProfile":
        """Build phases phi_m = E_m * t / hbar from generator eigenvalues."""
        e = np.asarray(energies, dtype=np.float64).copy()
        _require_finite(energies=e, parameter=parameter, hbar=hbar)
        if hbar <= 0:
            raise ValueError(f"hbar must be positive, got {hbar}")
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


def _phase_sums(table: CcpTable, profile: PhaseProfile, sign: float) -> np.ndarray:
    """sum_m p(m|a,b) e^{sign i phi_m} for every pair, as [..., a, b].

    One matrix product per b against the table's stored [..., b, m, a] layout.
    """
    _require_same((profile.basis, table.m_basis))
    shift = np.exp(sign * 1j * profile.phases)[..., np.newaxis, np.newaxis, :]
    return np.swapaxes((shift @ np.moveaxis(table.vals, -1, -3))[..., 0, :], -1, -2)


def apply_phase_transform(table: CcpTable, profile: PhaseProfile) -> np.ndarray:
    """Conditionals after transforming the final condition, as [..., m, a, b].

    Returns p(m|a,U(b)) = p(m|a,b) e^{i phi_m} / sum_m' p(m'|a,b) e^{i phi_m'};
    every column sums to one.  A column is NaN unless the transformed overlap
    <U(b)|a> = <b|a> sum_m p(m|a,b) e^{i phi_m} is defined (:func:`.ccp.is_defined`).
    """
    sums = _phase_sums(table, profile, 1.0)
    overlap = np.swapaxes(table.b_basis.overlaps_with(table.a_basis), -1, -2) * sums
    defined = table.defined_mask & is_defined(overlap)
    out = table.vals * np.exp(1j * profile.phases)[..., :, np.newaxis, np.newaxis]
    out /= np.where(defined, sums, 1.0)[..., np.newaxis, :, :]
    return np.where(defined[..., np.newaxis, :, :], out, np.nan)


def transformed_prob(table: CcpTable, profile: PhaseProfile, direction: str) -> np.ndarray:
    """Output probability after transforming a or b with the profiled map, as [..., a, b].

    ``direction='on_a'`` gives p(b|U(a)) = p(b|a) |sum_m p(m|a,b) e^{-i phi_m}|^2,
    ``direction='on_b'`` gives p(U(b)|a) with the opposite phase sign.
    Matches |<b|U|a>|^2 for U = sum_m e^{-i phi_m}|m><m| (adjoint for on_b).
    Undefined pairs (a, b) are NaN.
    """
    sign = {"on_a": -1.0, "on_b": 1.0}.get(direction)
    if sign is None:
        raise ValueError(f"direction must be 'on_a' or 'on_b', got {direction!r}")
    amp = _phase_sums(table, profile, sign)
    # |<b|a>|^2 from <b|a>, the overlap the table divided by: the two cancel to rounding
    p_b_a = np.swapaxes(ergodic_table(table.b_basis, table.a_basis), -1, -2)  # [..., a, b]
    return np.where(table.defined_mask, p_b_a * np.abs(amp) ** 2, np.nan)


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
    within ``rtol``.  Every input must be finite.
    """
    values = np.asarray(generator_values, dtype=np.float64)
    _require_finite(period=period, hbar=hbar, rtol=rtol, generator_values=values)
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if rtol < 0:
        raise ValueError(f"rtol must be non-negative, got {rtol}")
    if values.ndim != 1 or values.size < 2:
        raise DimensionMismatch("need at least two generator values")
    unit = 2.0 * np.pi * hbar / period
    diffs = (values[:, np.newaxis] - values[np.newaxis, :]) / unit
    defects = np.abs(diffs - np.round(diffs))
    max_defect = float(defects.max())
    return QuantizationResult(passed=max_defect <= rtol, max_defect=max_defect)
