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
non-negative Gaussian part plus an interference remainder drawn by
rejection.  With x = w(1-w)*, c = Re x and a = exp(-g^2/8), the position
target is |w|^2 N(g,1) + |1-w|^2 N(0,1) + 2ca N(g/2,1), a plain mixture
when c >= 0 (any w in (0, 1), as in a scan); for c < 0 the proposal takes
weight 2|c|a instead.  The momentum target over N(0, 1/4) is
(|w|-|1-w|)^2 + 2|x| (1 + cos(gk - arg x)); only the second part is drawn
by rejection, from an envelope whose acceptance stays above 0.55 at any
arg x and g <= 0.2.

The rejection test u * envelope < 1 + cos t, t = gk - arg x, is squeezed:
1 + cos t >= 2 - t^2/2 for every real t, so a proposal below
(2 - delta) - t^2/2 is accepted without a cosine.  The margin delta =
``SQUEEZE_MARGIN`` = 1e-12 covers the rounding of np.cos, t^2 and the two
subtractions (each below 1e-15 where the bound is positive) several
hundred times over, so the squeeze never accepts what the exact test
rejects.  Only the proposals above the bound take the exact test, about
1 in 7,000 on the d=64 box scan, and np.cos of those alone has the bits
it has in the whole array: every draw, decision and float is the exact
test's.  The squeeze is taken only where cos arg x >= 0.  Beyond, |t| is
near |arg x|, the bound falls below most proposals (below all once |t| > 2),
and each of them would pay for the bound and then take the cosine anyway.

Each run draws its post-selected count, positions and momenta from one
generator seeded by the run's seed, and keeps only the count, mean and
squared-deviation sum (SS).  A Gaussian part draws no variates: given its
count n, its mean is N(mu, sd^2/n) and its SS is sd^2 chi^2_{n-1},
independent of the mean (Cochran 1934), so it costs the same at any n.
Only the rejection parts draw variates, and every part is joined by one
pairwise update (Chan, Golub and LeVeque 1983).
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .basis import Basis, _csv, _freeze, _json_complex_fields, _reference_probs, _rng
from .basis import ergodic_table
from .ccp import ccp_column, ccp_value
from .errors import DimensionMismatch, PostSelectionStarvation, WeakRegimeViolation

MAX_COUPLING = 0.2
MIN_SHOTS = 10_000
MIN_POSTSELECTED = 100
POSTSELECTION_RATE_FLOOR = 1e-3
SAMPLING_CHUNK = 1 << 13
SQUEEZE_MARGIN = 1e-12  # rounding margin of the momentum squeeze (see above)

Seed = int | tuple[int, ...]
Moments = tuple[int, float, float]  # count, mean, sum of squared deviations
NO_DRAWS: Moments = (0, 0.0, 0.0)


def _entropy(seed: Seed, *extra: int) -> tuple[int, ...]:
    base = (seed,) if isinstance(seed, int) else tuple(seed)
    return base + extra


def _cross_attenuation(g: float) -> float:
    # Overlap of the shifted and unshifted pointer amplitudes.
    return math.exp(-(g**2) / 8.0)


def postselection_weight(w: complex, g: float) -> float:
    """Norm of the post-selected pointer state divided by p(b|a): the position mixture's mass."""
    return sum(_position_weights(w, g))


def pointer_readout_means(w: complex, g: float) -> complex:
    """Exact finite-coupling readout (Re from <q>/g, Im from 2<k>/g).

    This is the closed form of the two-Gaussian pointer statistics; the
    Monte Carlo estimates converge to it for any g, and it converges to w
    itself as g -> 0 with an O(g^2) bias.
    """
    weights = _position_weights(w, g)
    (wa, _, cross), z = weights, sum(weights)  # z = postselection_weight(w, g)
    return complex((wa + cross / 2.0) / z, w.imag * _cross_attenuation(g) / z)


def readout_bias_rate(w: complex, g: float) -> float:
    """Worst componentwise |readout - w| / g at coupling g (bias slope)."""
    exact = pointer_readout_means(w, g)
    return max(abs(exact.real - w.real), abs(exact.imag - w.imag)) / g


def _merge(left: Moments, right: Moments) -> Moments:
    """Moments of two disjoint samples joined (Chan, Golub and LeVeque's pairwise update)."""
    if not right[0]:
        return left
    if not left[0]:
        return right
    (count, mean, ss), (size, batch_mean, batch_ss) = left, right
    total, delta = count + size, batch_mean - mean
    return total, mean + delta * size / total, ss + batch_ss + delta**2 * count * size / total


def _fold(moments: Moments, draws: np.ndarray) -> Moments:
    """Add a batch of draws to the moments; the batch is overwritten by its deviations."""
    if not draws.size:
        return moments
    batch_mean = float(draws.sum()) / draws.size  # ndarray.mean's sum and quotient
    draws -= batch_mean
    return _merge(moments, (draws.size, batch_mean, float(draws @ draws)))


def _gaussian_moments(rng: np.random.Generator, n: int, mean: float, sd: float) -> Moments:
    """Exact moments of n iid N(mean, sd^2) draws, without drawing them.

    Their mean is N(mean, sd^2/n) and their squared-deviation sum is
    sd^2 chi^2_{n-1}, independent of it (Cochran's theorem).
    """
    if not n:
        return NO_DRAWS
    ss = sd * sd * float(rng.chisquare(n - 1)) if n > 1 else 0.0
    return n, mean + sd * float(rng.standard_normal()) / math.sqrt(n), ss


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


def _position_weights(w: complex, g: float) -> tuple[float, float, float]:
    """Weights of N(g, 1), N(0, 1) and N(g/2, 1) in |w Phi(q-g) + (1-w) Phi(q)|^2."""
    cross = 2.0 * (w - abs(w) ** 2).real * _cross_attenuation(g)  # Phi(q-g)Phi(q) = aPhi(q-g/2)^2
    return abs(w) ** 2, abs(1 - w) ** 2, cross


def _position_mixture(w: complex, g: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Weights and centres of the N(centre, 1) summing to |w Phi(q-g) + (1-w) Phi(q)|^2."""
    return _position_weights(w, g), (g, 0.0, 0.5 * g)


def _momentum_split(w: complex) -> tuple[float, float, float]:
    """(|w|-|1-w|)^2, 2|x| and arg x: the momentum target over N(0, 1/4) is the first
    plus the second times 1 + cos(gk - arg x), x = w(1-w)*."""
    x = w - abs(w) ** 2
    return (abs(w) - abs(1 - w)) ** 2, 2.0 * abs(x), cmath.phase(x)


def _remainder_envelope(phase: float, g: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients c and N(0, 1/4) masses of c0 + c1|k| + c2 k^2 >= 1 + cos(gk - phase).

    From cos(t - phase) <= cos phase + |sin phase||t| + max(0, -cos phase) t^2/2;
    the flat bound 2 is taken where it is lighter, or where the tilted one
    underflows to 0.  The masses are c times (1, E|k|, E k^2) = (1, 1/sqrt(2 pi), 1/4).
    """
    cos = math.cos(phase)
    coef = (1.0 + cos, abs(math.sin(phase)) * g, max(0.0, -cos) * g * g / 2.0)
    masses = (coef[0], coef[1] * (1.0 / math.sqrt(2.0 * math.pi)), coef[2] * 0.25)
    if not 0.0 < sum(masses) < 2.0:
        coef = masses = (2.0, 0.0, 0.0)
    return coef, masses


def _below_one_plus_cos(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The mask of v < 1 + cos t, bit for bit, with the cosine taken only above the squeeze."""
    bound = t * t
    bound *= -0.5
    bound += 2.0 - SQUEEZE_MARGIN  # 1 + cos t >= 2 - t^2/2, less the rounding margin
    below = v < bound
    rest = np.flatnonzero(~below)
    below[rest] = v[rest] < 1.0 + np.cos(t[rest])
    return below


def _sample_positions(
    w: complex, g: float, n: int, rng: np.random.Generator
) -> tuple[Moments, int]:
    """Moments of n exact post-selected pointer positions, and the proposals they took.

    For c >= 0 the mixture's component counts are one multinomial draw and
    each component's moments are drawn exactly, at a cost independent of n;
    each draw counts as one proposal.  Otherwise each proposal picks its
    component, the cross one with weight 2|c|a, and is accepted with rate
    postselection_weight(w, g) / (|w|^2 + |1-w|^2 + 2|c|a).
    """
    weights, centres = _position_mixture(w, g)
    (wa, wb, cross), z = weights, sum(weights)  # z = postselection_weight(w, g)
    if cross >= 0.0:
        moments = NO_DRAWS
        counts = rng.multinomial(n, [wa / z, wb / z, cross / z]).tolist()
        for count, centre in zip(counts, centres):
            moments = _merge(moments, _gaussian_moments(rng, count, centre, 1.0))
        return moments, n
    mass = abs(wa) + abs(wb) + abs(cross)
    bounds = np.array([abs(wa) / mass, (abs(wa) + abs(wb)) / mass])
    centres, cross_r = np.array(centres), cross / _cross_attenuation(g)

    def propose(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.random(size)
        q = rng.standard_normal(size) + centres[np.searchsorted(bounds, u, side="right")]
        r = np.exp(0.5 * g * q - 0.25 * g * g)  # Phi(q-g)/Phi(q); the cross term over Phi^2 is 2cr
        plain = (wa * r) * r + wb
        return q, rng.random(size) * (plain - cross_r * r) < plain + cross_r * r

    return _accept_chunks(n, z / mass, rng, propose)


def _sample_momenta(
    w: complex, g: float, n: int, rng: np.random.Generator
) -> tuple[Moments, int]:
    """Moments of n exact post-selected pointer momenta, and the proposals they took.

    A binomial sends each draw to plain N(0, 1/4), whose moments are drawn
    exactly at one proposal a draw, or to the remainder, drawn by rejection
    from :func:`_remainder_envelope` with acceptance (1 + a cos arg x) / M,
    M the envelope's mass (at most 2, and the acceptance above 0.55 for
    g <= 0.2); overall, n / proposals averages postselection_weight(w, g) /
    ((|w|-|1-w|)^2 + 2|x| M).  Where the envelope has no |k| or k^2 part, as
    for every real positive x, a proposal is a plain N(0, 1/4) draw.
    """
    plain, amp, phase = _momentum_split(w)
    coef, masses = _remainder_envelope(phase, g)
    cos = math.cos(phase)
    rest_mass = 1.0 + cos + cos * math.expm1(-g * g / 8.0)  # 1 + a cos, exact to rounding as g -> 0
    n_rest = int(rng.binomial(n, amp * rest_mass / (plain + amp * rest_mass)))
    mass, flat, squeeze = sum(masses), not (masses[1] or masses[2]), cos >= 0.0
    bounds = np.array([masses[0] / mass, (masses[0] + masses[1]) / mass])

    def propose(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        k, envelope = rng.standard_normal(size), coef[0]
        k *= 0.5
        if not flat:
            part = np.searchsorted(bounds, rng.random(size), side="right")
            # from |k|N(k) or k^2 N(k): |k| = sqrt(Gamma(1 or 3/2) / 2)
            tilted = np.flatnonzero(part)
            magnitude = np.sqrt(0.5 * rng.standard_gamma(0.5 + 0.5 * part[tilted]))
            k[tilted] = np.copysign(magnitude, k[tilted])
            abs_k = np.abs(k)
            envelope = envelope + abs_k * (coef[1] + coef[2] * abs_k)
        u, t = rng.random(size), g * k
        u *= envelope
        t -= phase
        return k, _below_one_plus_cos(u, t) if squeeze else u < 1.0 + np.cos(t)

    rest, proposals = _accept_chunks(n_rest, rest_mass / mass, rng, propose)
    return _merge(rest, _gaussian_moments(rng, n - n_rest, 0.0, 0.5)), n - n_rest + proposals


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
            "estimate": _json_complex_fields(self.estimate, "re", "im"),
            "std_err": _json_complex_fields(complex(*self.std_err), "re", "im"),
            "shots_total": self.shots_total,
            "shots_postselected": self.shots_postselected,
            "coupling": self.coupling,
            "analytic_ref": _json_complex_fields(self.analytic_ref, "re", "im"),
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
        Seed of the run's one generator.
    """
    _check_run(g, shots)
    rate = _postselection_rate(final, initial)
    return _weak_run(ccp_value(basis_m, m, *initial, *final), rate, g, shots, seed)


def _check_run(g: float, shots: int) -> None:
    """Raise unless g is a weak coupling and ``shots`` reaches ``MIN_SHOTS``."""
    if not 0.0 < g <= MAX_COUPLING:
        raise WeakRegimeViolation(f"coupling g={g} outside (0, {MAX_COUPLING}]")
    _check_shots(shots)


def _check_shots(shots: int) -> None:
    """Raise unless ``shots`` reaches ``MIN_SHOTS``."""
    if shots < MIN_SHOTS:
        raise ValueError(f"shots={shots} below the minimum {MIN_SHOTS}")


def _postselection_rate(final: tuple[Basis, int], initial: tuple[Basis, int]) -> float:
    """|<b|a>|^2, the unperturbed post-selection rate; raises below the floor."""
    rate = abs(final[0].overlap(final[1], *initial)) ** 2
    if rate < POSTSELECTION_RATE_FLOOR:
        raise PostSelectionStarvation(
            f"post-selection rate {rate:.3e} below {POSTSELECTION_RATE_FLOOR}"
        )
    return rate


def _weak_run(w: complex, rate: float, g: float, shots: int, seed: Seed) -> WeakRunReport:
    """Weak run of conditional w at post-selection rate ``rate`` = |<b|a>|^2, g and shots checked.

    The post-selected count, the positions and the momenta come, in that
    order, from the one generator of ``seed``.
    """
    rng = _rng(_entropy(seed))
    n_selected = int(rng.binomial(shots, min(1.0, rate * postselection_weight(w, g))))
    if n_selected < MIN_POSTSELECTED:
        raise PostSelectionStarvation(
            f"only {n_selected} post-selected shots (< {MIN_POSTSELECTED})"
        )
    (_, mean_q, ss_q), q_proposals = _sample_positions(w, g, n_selected, rng)
    (_, mean_k, ss_k), k_proposals = _sample_momenta(w, g, n_selected, rng)
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
        dim = self.m_basis.dim
        return _csv(
            m_label=[m for m in self.m_basis.labels for _ in range(dim)],
            b_label=self.b_basis.labels * dim,
            count=self.counts.ravel().tolist(), frequency=self.freqs.ravel().tolist(),
        )


def simulate_sequential(
    initial: tuple[Basis, int], basis_m: Basis, basis_b: Basis, shots: int, seed: Seed
) -> SequentialRun:
    """Projective m then projective b: per shot, m ~ p(m|a), then b ~ p(b|m).

    The joint frequencies estimate p(b|m) p(m|a), the sequential side of
    the back-action identity.
    """
    _check_shots(shots)
    basis_a, a = initial
    if basis_a.dim != basis_m.dim or basis_a.dim != basis_b.dim:
        raise DimensionMismatch("bases must share one dimension")
    p_m = _reference_probs(basis_m, basis_a, a)
    p_m = p_m / p_m.sum()
    p_b_m = ergodic_table(basis_b, basis_m)  # [b, m]
    p_b_m = p_b_m / p_b_m.sum(axis=0, keepdims=True)

    rng = _rng(_entropy(seed, 0))
    m_counts = rng.multinomial(shots, p_m)
    counts = rng.multinomial(m_counts, p_b_m.T)  # row m draws b | m; a zero count draws nothing
    return SequentialRun(m_basis=basis_m, b_basis=basis_b, counts=_freeze(counts), shots=shots)


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
        return _csv(
            x_index=range(self.values.size), re=self.values.real.tolist(),
            im=self.values.imag.tolist(), se_re=self.std_err_re.tolist(),
            se_im=self.std_err_im.tolist(), analytic_re=self.analytic.real.tolist(),
            analytic_im=self.analytic.imag.tolist(),
        )


MAX_SCAN_DIM = 64


def scan_wavefunction(
    state: tuple[Basis, int], position_basis: Basis, momentum_basis: Basis, b_ref: int,
    g: float, shots_per_point: int, seed: Seed,
) -> WavefunctionScan:
    """Weakly measure every position with a fixed momentum post-selection.

    Position x is the weak run that :func:`simulate_weak_value` makes for
    outcome x with seed (*seed, x); the checks, the rate and the column of
    conditionals are computed once for the scan.  Estimates are rescaled by
    sqrt(rate * dim), with the post-selection rate pooled over all points,
    so the output estimates the state's amplitudes in the gauge fixed by
    the reference momentum outcome (for the zero-momentum reference this
    is the eigenfunction itself, up to one global phase).
    """
    dim = state[0].dim
    if dim > MAX_SCAN_DIM:
        raise ValueError(f"scan dimension {dim} exceeds {MAX_SCAN_DIM}")
    _check_run(g, shots_per_point)
    final = (momentum_basis, b_ref)
    rate = _postselection_rate(final, state)
    column = ccp_column(position_basis, *state, *final)
    reports = [
        _weak_run(w, rate, g, shots_per_point, _entropy(seed, x))
        for x, w in enumerate(column.tolist())
    ]
    # Empirical post-selection rate pooled over all points; the weak
    # interaction perturbs it only at O(g^2), far below the per-point noise.
    pooled_rate = sum(r.shots_postselected for r in reports) / (dim * shots_per_point)
    scale = math.sqrt(pooled_rate * dim)
    values = np.array([scale * r.estimate for r in reports])
    analytic = scale * column
    se_re, se_im = scale * np.array([r.std_err for r in reports]).T
    values, analytic, se_re, se_im = map(_freeze, (values, analytic, se_re, se_im))
    return WavefunctionScan(values=values, std_err_re=se_re, std_err_im=se_im, analytic=analytic,
                            shots_per_point=shots_per_point, postselection_rate=pooled_rate,
                            coupling=g)
