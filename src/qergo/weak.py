"""Monte Carlo weak measurements with a continuous Gaussian pointer.

Pointer model and readout conventions
-------------------------------------
The meter is a single continuous pointer prepared in a Gaussian state of
unit position width (position sd 1, momentum sd 1/2, the minimum
uncertainty pair).  The interaction displaces the pointer position by g
when the system is in the measured outcome m and leaves it untouched
otherwise, so after post-selecting the final outcome b the unnormalized
pointer wavefunction is

    chi(q) = <b|a> [ w Phi(q - g) + (1 - w) Phi(q) ],    w = p(m|a,b),

with Phi the unit-width Gaussian amplitude.  The complex conditional is
read out as

    Re w  ~  <q>/g          (mean position shift)
    Im w  ~  2 <k>/g        (mean momentum shift; the factor 2 is the
                             unit-width Gaussian convention, momentum
                             variance 1/4)

Both readouts are sampled exactly by rejection, with no pointer
discretization.  With x = w(1-w)*, c = Re x and r = Phi(q-g)/Phi(q), the
position target over Phi(q)^2 is |w|^2 r^2 + |1-w|^2 + 2cr; as
2r <= r^2 + 1, the envelope is (|w|^2+|c|) Phi(q-g)^2 + (|1-w|^2+|c|) Phi(q)^2.
The momentum target over its Gaussian (sd 1/2) is
|w|^2 + |1-w|^2 + 2|x| cos(gk - arg x); the envelope is its maximum,
(|w| + |1-w|)^2.  Each target has mass z = postselection_weight(w, g), so a
sampler accepts exactly z over its envelope's mass, near 1 for small real w.
Proposals come in chunks sized to that rate, with generators derived from
the root seed by counter, so results are independent of scheduling.
"""

from __future__ import annotations

import cmath
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .basis import Basis
from .ccp import ccp_column, ccp_value
from .errors import (
    DimensionMismatch,
    PostSelectionStarvation,
    WeakRegimeViolation,
)

MAX_COUPLING = 0.2
MIN_SHOTS = 10_000
MIN_POSTSELECTED = 100
POSTSELECTION_RATE_FLOOR = 1e-3
SAMPLING_CHUNK = 1 << 13

Seed = int | tuple[int, ...]
Proposal = tuple[np.ndarray, np.ndarray]  # candidates and their accept mask


def _entropy(seed: Seed, *extra: int) -> tuple[int, ...]:
    base = (seed,) if isinstance(seed, int) else tuple(seed)
    return base + extra


def _generator(seed: Seed, *extra: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(seed, *extra))))


def _cross_attenuation(g: float) -> float:
    # Overlap of the shifted and unshifted pointer amplitudes.
    return math.exp(-(g**2) / 8.0)


def postselection_weight(w: complex, g: float) -> float:
    """Norm of the post-selected pointer state divided by p(b|a)."""
    cross = w - abs(w) ** 2  # w * conj(1 - w)
    return abs(w) ** 2 + abs(1 - w) ** 2 + 2.0 * cross.real * _cross_attenuation(g)


def pointer_readout_means(w: complex, g: float) -> complex:
    """Exact finite-coupling readout (Re from <q>/g, Im from 2<k>/g).

    This is the closed form of the two-Gaussian pointer statistics; the
    Monte Carlo estimates converge to it for any g, and it converges to w
    itself as g -> 0 with an O(g^2) bias.
    """
    att, z = _cross_attenuation(g), postselection_weight(w, g)
    return complex((abs(w) ** 2 + (w - abs(w) ** 2).real * att) / z, w.imag * att / z)


def readout_bias_rate(w: complex, g: float) -> float:
    """Worst componentwise |readout - w| / g at coupling g (bias slope)."""
    exact = pointer_readout_means(w, g)
    return max(abs(exact.real - w.real), abs(exact.imag - w.imag)) / g


def _accept_chunks(
    n: int, acceptance: float, seed: Seed, stream: int, propose: Callable[..., Proposal]
) -> tuple[np.ndarray, int]:
    """First n accepted draws of ``propose(rng, size) -> (candidates, accept mask)``.

    Chunk i uses the generator (seed, stream, i) and proposes the draws still
    needed over the exact acceptance, plus 3 sd, at most ``SAMPLING_CHUNK``.
    Also returns the proposals made up to the n-th accepted one.
    """
    out = np.empty(n, dtype=np.float64)
    filled = proposals = chunk = 0
    while filled < n:
        needed = n - filled
        size = min(SAMPLING_CHUNK, math.ceil((needed + 3.0 * math.sqrt(needed)) / acceptance))
        cand, keep = propose(_generator(seed, stream, chunk), size)
        idx = np.flatnonzero(keep)[:needed]
        out[filled : filled + idx.size] = cand[idx]
        filled += idx.size
        proposals += int(idx[-1]) + 1 if filled == n else size
        chunk += 1
    return out, proposals


def _envelopes(w: complex) -> tuple[float, float, float]:
    """Phi(q-g)^2 weight and mass of the position envelope; mass of the momentum one."""
    x, base = w - abs(w) ** 2, abs(w) ** 2 + abs(1 - w) ** 2
    return abs(w) ** 2 + abs(x.real), base + 2.0 * abs(x.real), base + 2.0 * abs(x)


def _sample_positions(w: complex, g: float, n: int, seed: Seed) -> tuple[np.ndarray, int]:
    """Exact draws of the post-selected pointer position, and the proposals they took.

    Acceptance: postselection_weight(w, g) / (|w|^2 + |1-w|^2 + 2|Re w(1-w)*|).
    """
    shift, mass, _ = _envelopes(w)
    wa, wb, c2 = abs(w) ** 2, abs(1 - w) ** 2, 2.0 * (w - abs(w) ** 2).real

    def propose(rng: np.random.Generator, size: int) -> Proposal:
        q = np.where(rng.random(size) < shift / mass, g, 0.0) + rng.standard_normal(size)
        r = np.exp(0.5 * g * q - 0.25 * g * g)  # Phi(q - g) / Phi(q)
        envelope = shift * r * r + (mass - shift)  # both over Phi(q)^2
        return q, rng.random(size) * envelope < (wa * r + c2) * r + wb

    return _accept_chunks(n, postselection_weight(w, g) / mass, seed, 1, propose)


def _sample_momenta(w: complex, g: float, n: int, seed: Seed) -> tuple[np.ndarray, int]:
    """Exact draws of the post-selected pointer momentum, and the proposals they took.

    Acceptance: postselection_weight(w, g) / (|w| + |1-w|)^2.
    """
    x, base, mass = w - abs(w) ** 2, abs(w) ** 2 + abs(1 - w) ** 2, _envelopes(w)[2]

    def propose(rng: np.random.Generator, size: int) -> Proposal:
        k = 0.5 * rng.standard_normal(size)
        target = base + 2.0 * abs(x) * np.cos(g * k - cmath.phase(x))  # over exp(-2k^2)
        return k, rng.random(size) * mass < target

    return _accept_chunks(n, postselection_weight(w, g) / mass, seed, 2, propose)


@dataclass(frozen=True)
class WeakRunReport:
    """Monte Carlo estimate of one complex conditional probability."""

    estimate: complex
    std_err: tuple[float, float]  # (real part, imaginary part)
    shots_total: int
    shots_postselected: int
    coupling: float
    analytic_ref: complex

    def gate(self, bias_rate: float) -> float:
        """Acceptance half-width max(4 * std_err, bias_rate * g), worst component."""
        return max(4.0 * max(self.std_err), bias_rate * self.coupling)

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "estimate": {"re": self.estimate.real, "im": self.estimate.imag},
            "std_err": {"re": self.std_err[0], "im": self.std_err[1]},
            "shots_total": self.shots_total,
            "shots_postselected": self.shots_postselected,
            "coupling": self.coupling,
            "analytic_ref": {"re": self.analytic_ref.real, "im": self.analytic_ref.imag},
        }
        return json.dumps(payload, sort_keys=True, indent=indent)


def simulate_weak_value(
    initial: tuple[Basis, int],
    final: tuple[Basis, int],
    basis_m: Basis,
    m: int,
    g: float,
    shots: int,
    seed: Seed,
) -> WeakRunReport:
    """Estimate p(m|a,b) from a weakly coupled pointer with post-selection.

    Parameters
    ----------
    initial, final : (Basis, int)
        Prepared outcome a and post-selected outcome b.
    basis_m, m : Basis, int
        Weakly measured outcome.
    g : float
        Coupling in pointer-width units; must lie in (0, 0.2].
    shots : int
        Total trials before post-selection; at least 10^4.
    seed : int or tuple of int
        Root seed; all randomness derives from it by counter.
    """
    if not 0.0 < g <= MAX_COUPLING:
        raise WeakRegimeViolation(f"coupling g={g} outside (0, {MAX_COUPLING}]")
    if shots < MIN_SHOTS:
        raise ValueError(f"shots={shots} below the minimum {MIN_SHOTS}")
    basis_a, a = initial
    basis_b, b = final
    b_a = basis_b.overlap(b, basis_a, a)
    rate = abs(b_a) ** 2
    if rate < POSTSELECTION_RATE_FLOOR:
        raise PostSelectionStarvation(
            f"post-selection rate {rate:.3e} below {POSTSELECTION_RATE_FLOOR}"
        )
    w = ccp_value(basis_m, m, basis_a, a, basis_b, b)
    p_select = min(1.0, rate * postselection_weight(w, g))

    n_selected = int(_generator(seed, 0).binomial(shots, p_select))
    if n_selected < MIN_POSTSELECTED:
        raise PostSelectionStarvation(
            f"only {n_selected} post-selected shots (< {MIN_POSTSELECTED})"
        )
    qs, _ = _sample_positions(w, g, n_selected, seed)
    ks, _ = _sample_momenta(w, g, n_selected, seed)

    est_re = float(qs.mean() / g)
    est_im = float(2.0 * ks.mean() / g)
    se_re = float(qs.std(ddof=1) / (g * math.sqrt(n_selected)))
    se_im = float(2.0 * ks.std(ddof=1) / (g * math.sqrt(n_selected)))
    return WeakRunReport(
        estimate=complex(est_re, est_im),
        std_err=(se_re, se_im),
        shots_total=shots,
        shots_postselected=n_selected,
        coupling=g,
        analytic_ref=w,
    )


@dataclass(frozen=True)
class SequentialRun:
    """Joint frequencies of a projective m measurement followed by b."""

    m_basis: Basis
    b_basis: Basis
    counts: np.ndarray  # (dim, dim) ints, indexed (m, b)
    shots: int

    @property
    def freqs(self) -> np.ndarray:
        return self.counts / self.shots

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "m_labels": list(self.m_basis.labels),
            "b_labels": list(self.b_basis.labels),
            "counts": self.counts.tolist(),
            "shots": self.shots,
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m_label,b_label,count,frequency\n")
        for m in range(self.m_basis.dim):
            for b in range(self.b_basis.dim):
                buf.write(
                    f"{self.m_basis.labels[m]},{self.b_basis.labels[b]},"
                    f"{int(self.counts[m, b])},{float(self.counts[m, b] / self.shots)!r}\n"
                )
        return buf.getvalue()


def simulate_sequential(
    initial: tuple[Basis, int],
    basis_m: Basis,
    basis_b: Basis,
    shots: int,
    seed: Seed,
) -> SequentialRun:
    """Projective m then projective b: per shot, m ~ p(m|a), then b ~ p(b|m).

    The joint frequencies estimate p(b|m) p(m|a), the sequential side of
    the back-action identity.
    """
    if shots < MIN_SHOTS:
        raise ValueError(f"shots={shots} below the minimum {MIN_SHOTS}")
    basis_a, a = initial
    if basis_a.dim != basis_m.dim or basis_a.dim != basis_b.dim:
        raise DimensionMismatch("bases must share one dimension")
    dim = basis_a.dim
    p_m = np.abs(basis_m.vectors.conj().T @ basis_a.vectors[:, a]) ** 2
    p_m = p_m / p_m.sum()
    p_b_m = np.abs(basis_b.vectors.conj().T @ basis_m.vectors) ** 2  # [b, m]
    p_b_m = p_b_m / p_b_m.sum(axis=0, keepdims=True)

    rng = _generator(seed, 0)
    m_counts = rng.multinomial(shots, p_m)
    counts = np.zeros((dim, dim), dtype=np.int64)
    for m in range(dim):
        if m_counts[m]:
            counts[m] = rng.multinomial(int(m_counts[m]), p_b_m[:, m])
    counts.setflags(write=False)
    return SequentialRun(m_basis=basis_m, b_basis=basis_b, counts=counts, shots=shots)


@dataclass(frozen=True)
class WavefunctionScan:
    """Pointwise weak scan of a state in the position representation."""

    values: np.ndarray  # rescaled complex estimates, one per position
    std_err_re: np.ndarray
    std_err_im: np.ndarray
    analytic: np.ndarray  # exact rescaled conditionals (same gauge)
    shots_per_point: int
    postselection_rate: float
    coupling: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x_index,re,im,se_re,se_im,analytic_re,analytic_im\n")
        for x in range(self.values.size):
            buf.write(
                f"{x},{float(self.values[x].real)!r},{float(self.values[x].imag)!r},"
                f"{float(self.std_err_re[x])!r},{float(self.std_err_im[x])!r},"
                f"{float(self.analytic[x].real)!r},{float(self.analytic[x].imag)!r}\n"
            )
        return buf.getvalue()


MAX_SCAN_DIM = 64


def scan_wavefunction(
    state: tuple[Basis, int],
    position_basis: Basis,
    momentum_basis: Basis,
    b_ref: int,
    g: float,
    shots_per_point: int,
    seed: Seed,
) -> WavefunctionScan:
    """Weakly measure every position with a fixed momentum post-selection.

    Each position index runs :func:`simulate_weak_value`; estimates are
    rescaled by sqrt(rate * dim), with the post-selection rate pooled over
    all points, so the output estimates the state's amplitudes in the
    gauge fixed by the reference momentum outcome (for the zero-momentum
    reference this is the eigenfunction itself, up to one global phase).
    """
    basis_e, e_idx = state
    dim = basis_e.dim
    if dim > MAX_SCAN_DIM:
        raise ValueError(f"scan dimension {dim} exceeds {MAX_SCAN_DIM}")
    rate_exact = abs(momentum_basis.overlap(b_ref, basis_e, e_idx)) ** 2
    if rate_exact < POSTSELECTION_RATE_FLOOR:
        raise PostSelectionStarvation(
            f"reference outcome probability {rate_exact:.3e} below floor"
        )
    reports = [
        simulate_weak_value(
            (basis_e, e_idx),
            (momentum_basis, b_ref),
            position_basis,
            x,
            g,
            shots_per_point,
            _entropy(seed, x),
        )
        for x in range(dim)
    ]
    # Empirical post-selection rate pooled over all points; the weak
    # interaction perturbs it only at O(g^2), far below the per-point noise.
    pooled_rate = sum(r.shots_postselected for r in reports) / (dim * shots_per_point)
    scale = math.sqrt(pooled_rate * dim)
    values = np.array([scale * r.estimate for r in reports])
    analytic = scale * ccp_column(position_basis, basis_e, e_idx, momentum_basis, b_ref)
    se_re = np.array([scale * r.std_err[0] for r in reports])
    se_im = np.array([scale * r.std_err[1] for r in reports])
    for arr in (values, analytic, se_re, se_im):
        arr.setflags(write=False)
    return WavefunctionScan(
        values=values,
        std_err_re=se_re,
        std_err_im=se_im,
        analytic=analytic,
        shots_per_point=shots_per_point,
        postselection_rate=pooled_rate,
        coupling=g,
    )
