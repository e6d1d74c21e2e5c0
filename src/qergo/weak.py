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

Both readouts are sampled exactly, with no pointer discretization, as a
non-negative Gaussian part drawn directly plus an interference remainder
drawn by rejection.  With x = w(1-w)*, c = Re x and a = exp(-g^2/8), the
position target is |w|^2 N(g,1) + |1-w|^2 N(0,1) + 2ca N(g/2,1), a plain
mixture when c >= 0 (any w in (0, 1), as in a scan); for c < 0 the
proposal takes weight 2|c|a instead.  The momentum target over N(0, 1/4)
is (|w|-|1-w|)^2 + 2|x| (1 + cos(gk - arg x)); only the second part is
drawn by rejection.  Each sampler draws from one generator per (seed,
stream) and keeps only the count, mean and squared-deviation sum.
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
from .errors import DimensionMismatch, PostSelectionStarvation, WeakRegimeViolation

MAX_COUPLING = 0.2
MIN_SHOTS = 10_000
MIN_POSTSELECTED = 100
POSTSELECTION_RATE_FLOOR = 1e-3
SAMPLING_CHUNK = 1 << 13

Seed = int | tuple[int, ...]
Moments = tuple[int, float, float]  # count, mean, sum of squared deviations
NO_DRAWS: Moments = (0, 0.0, 0.0)


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


def _fold(moments: Moments, draws: np.ndarray) -> Moments:
    """Add a batch of draws to the moments (Chan, Golub and LeVeque's pairwise update)."""
    if not draws.size:
        return moments
    count, mean, ss = moments
    size, batch_mean = draws.size, float(draws.mean())
    dev, total, delta = draws - batch_mean, count + size, batch_mean - mean
    return total, mean + delta * size / total, ss + dev @ dev + delta**2 * count * size / total


def _draw_chunks(n: int, rng, draw: Callable, moments: Moments = NO_DRAWS) -> Moments:
    """Fold exactly n draws of ``draw(rng, size)``, made in chunks, into the moments."""
    for start in range(0, n, SAMPLING_CHUNK):
        moments = _fold(moments, draw(rng, min(SAMPLING_CHUNK, n - start)))
    return moments


def _accept_chunks(n: int, acceptance: float, rng, propose: Callable) -> tuple[Moments, int]:
    """Moments of the first n accepted draws of ``propose(rng, size) -> (candidates, mask)``.

    Each chunk proposes the draws still needed over the exact acceptance, plus
    3 sd, at most ``SAMPLING_CHUNK``, and keeps its first accepted ones, so
    proposals must be exchangeable.  Also returns the proposals up to the n-th.
    """
    moments, proposals = NO_DRAWS, 0
    while moments[0] < n:
        needed = n - moments[0]
        size = min(SAMPLING_CHUNK, math.ceil((needed + 3.0 * math.sqrt(needed)) / acceptance))
        cand, keep = propose(rng, size)
        idx = np.flatnonzero(keep)[:needed]
        moments = _fold(moments, cand[idx])
        proposals += int(idx[-1]) + 1 if idx.size == needed else size
    return moments, proposals


def _position_mixture(w: complex, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights and centres of the N(centre, 1) summing to |w Phi(q-g) + (1-w) Phi(q)|^2."""
    cross = 2.0 * (w - abs(w) ** 2).real * _cross_attenuation(g)  # Phi(q-g)Phi(q) = aPhi(q-g/2)^2
    return np.array([abs(w) ** 2, abs(1 - w) ** 2, cross]), np.array([g, 0.0, 0.5 * g])


def _momentum_split(w: complex) -> tuple[float, float, float]:
    """(|w|-|1-w|)^2, 2|x| and arg x: the momentum target over N(0, 1/4) is the first
    plus the second times 1 + cos(gk - arg x), x = w(1-w)*."""
    x = w - abs(w) ** 2
    return (abs(w) - abs(1 - w)) ** 2, 2.0 * abs(x), cmath.phase(x)


def _sample_positions(w: complex, g: float, n: int, seed: Seed) -> tuple[Moments, int]:
    """Moments of n exact post-selected pointer positions, and the proposals they took.

    For c >= 0 these are n plain mixture draws.  Otherwise each proposal
    picks its component, the cross one with weight 2|c|a, and is accepted
    with rate postselection_weight(w, g) / (|w|^2 + |1-w|^2 + 2|c|a).
    """
    rng, (weights, centres) = _generator(seed, 1), _position_mixture(w, g)
    if weights[2] >= 0.0:
        share = weights / weights.sum()

        def mix(rng: np.random.Generator, size: int) -> np.ndarray:
            return rng.standard_normal(size) + np.repeat(centres, rng.multinomial(size, share))

        return _draw_chunks(n, rng, mix), n
    (wa, wb, cross), mass = weights, np.abs(weights).sum()
    bounds, cross_r = np.cumsum(np.abs(weights[:2])) / mass, cross / _cross_attenuation(g)

    def propose(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.random(size)
        q = rng.standard_normal(size) + centres[np.searchsorted(bounds, u, side="right")]
        r = np.exp(0.5 * g * q - 0.25 * g * g)  # Phi(q-g)/Phi(q); the cross term over Phi^2 is 2cr
        plain = (wa * r) * r + wb
        return q, rng.random(size) * (plain - cross_r * r) < plain + cross_r * r

    return _accept_chunks(n, weights.sum() / mass, rng, propose)


def _sample_momenta(w: complex, g: float, n: int, seed: Seed) -> tuple[Moments, int]:
    """Moments of n exact post-selected pointer momenta, and the proposals they took.

    A binomial sends each draw to plain N(0, 1/4) or to the remainder, whose
    acceptance is (1 + a cos arg x) / 2; overall, n / proposals averages
    postselection_weight(w, g) / (|w| + |1-w|)^2.
    """
    rng, (plain, amp, phase) = _generator(seed, 2), _momentum_split(w)
    rate = 0.5 * (1.0 + math.cos(phase) * _cross_attenuation(g))
    n_rest = int(rng.binomial(n, 2.0 * amp * rate / (plain + 2.0 * amp * rate)))

    def propose(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        k = 0.5 * rng.standard_normal(size)
        return k, rng.random(size) * 2.0 < 1.0 + np.cos(g * k - phase)

    rest, proposals = _accept_chunks(n_rest, rate, rng, propose)
    moments = _draw_chunks(n - n_rest, rng, lambda r, size: 0.5 * r.standard_normal(size), rest)
    return moments, n - n_rest + proposals


@dataclass(frozen=True)
class WeakRunReport:
    """Monte Carlo estimate of one complex conditional probability."""

    estimate: complex
    std_err: tuple[float, float]  # (real part, imaginary part)
    shots_total: int
    shots_postselected: int
    coupling: float
    analytic_ref: complex
    proposals: tuple[int, int]  # (position, momentum) sampler proposals; not serialized

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
    initial: tuple[Basis, int], final: tuple[Basis, int], basis_m: Basis, m: int,
    g: float, shots: int, seed: Seed,
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
    rate = abs(basis_b.overlap(b, basis_a, a)) ** 2
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
    (_, mean_q, ss_q), q_proposals = _sample_positions(w, g, n_selected, seed)
    (_, mean_k, ss_k), k_proposals = _sample_momenta(w, g, n_selected, seed)
    # standard error of a mean: sqrt(ss / (n - 1)) / sqrt(n)
    se_scale = g * math.sqrt(n_selected * (n_selected - 1))
    return WeakRunReport(
        estimate=complex(mean_q / g, 2.0 * mean_k / g),
        std_err=(math.sqrt(ss_q) / se_scale, 2.0 * math.sqrt(ss_k) / se_scale),
        shots_total=shots, shots_postselected=n_selected, coupling=g, analytic_ref=w,
        proposals=(q_proposals, k_proposals),
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
    initial: tuple[Basis, int], basis_m: Basis, basis_b: Basis, shots: int, seed: Seed
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
    state: tuple[Basis, int], position_basis: Basis, momentum_basis: Basis, b_ref: int,
    g: float, shots_per_point: int, seed: Seed,
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
        simulate_weak_value((basis_e, e_idx), (momentum_basis, b_ref), position_basis, x, g,
                            shots_per_point, _entropy(seed, x))
        for x in range(dim)
    ]
    # Empirical post-selection rate pooled over all points; the weak
    # interaction perturbs it only at O(g^2), far below the per-point noise.
    pooled_rate = sum(r.shots_postselected for r in reports) / (dim * shots_per_point)
    scale = math.sqrt(pooled_rate * dim)
    values = np.array([scale * r.estimate for r in reports])
    analytic = scale * ccp_column(position_basis, basis_e, e_idx, momentum_basis, b_ref)
    se_re, se_im = scale * np.array([r.std_err for r in reports]).T
    for arr in (values, analytic, se_re, se_im):
        arr.setflags(write=False)
    return WavefunctionScan(values=values, std_err_re=se_re, std_err_im=se_im, analytic=analytic,
                            shots_per_point=shots_per_point, postselection_rate=pooled_rate,
                            coupling=g)
