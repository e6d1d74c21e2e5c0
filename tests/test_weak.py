import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import (
    DimensionMismatch,
    PostSelectionStarvation,
    WeakRegimeViolation,
    build_lattice,
    ccp_value,
    computational_basis,
    ergodic_table,
    fourier_basis,
    haar_random_basis,
    make_basis,
    scan_wavefunction,
    simulate_sequential,
    simulate_weak_value,
)
from qergo import basis, weak
from qergo.basis import _rng
from qergo.ccp import ccp_column
from qergo.weak import (
    MIN_SHOTS,
    SAMPLING_CHUNK,
    _entropy,
    _fold,
    _gaussian_moments,
    _momentum_split,
    _position_mixture,
    _sample_momenta,
    _sample_positions,
    pointer_readout_means,
    postselection_weight,
    readout_bias_rate,
)
from conftest import haar_triple

# Bias-rate constants calibrated once against the closed-form pointer
# statistics at the strongest supported coupling g = 0.2 (see
# test_bias_constants_are_calibrated, which re-derives them).
C_BENCHMARK = 0.0125
C_SCAN_BOX32 = 0.0011


def _qubit_scenario(z2, x2, y2):
    return (z2, 0), (x2, 0), y2, 0


class TestPointerReadout:
    def test_weak_limit_recovers_conditional(self):
        w = 0.3 - 0.8j
        for g in (0.05, 0.01):
            exact = pointer_readout_means(w, g)
            assert abs(exact - w) < 2.0 * g**2 * (1 + abs(w)) ** 2

    def test_benchmark_real_part_exact(self):
        # for w = (1+i)/2 the interference weight vanishes: <q>/g = 1/2 at any g
        w = 0.5 + 0.5j
        for g in (0.05, 0.2):
            assert pointer_readout_means(w, g).real == pytest.approx(0.5, abs=1e-14)

    def test_bias_constants_are_calibrated(self, z2, x2, y2):
        w_bench = ccp_value(y2, 0, z2, 0, x2, 0)
        assert readout_bias_rate(w_bench, 0.2) <= C_BENCHMARK
        assert readout_bias_rate(w_bench, 0.2) >= 0.9 * C_BENCHMARK
        sys_box = build_lattice(32, 1.0, 1.0, 1.0, "box")
        ws = ccp_column(
            sys_box.x_basis, sys_box.e_basis, 0, sys_box.p_basis,
            sys_box.zero_momentum_index(),
        )
        worst = max(readout_bias_rate(w, 0.2) for w in ws)
        assert worst <= C_SCAN_BOX32
        assert worst >= 0.5 * C_SCAN_BOX32

    def test_bias_rate_shrinks_with_coupling(self):
        # leading bias is O(g^2), so the rate |bias|/g falls roughly linearly
        w = 0.2 + 0.6j
        assert readout_bias_rate(w, 0.1) < 0.6 * readout_bias_rate(w, 0.2)


def _remainder_envelope(w, g):
    """(c0, c1, c2) with 1 + cos(gk - phi) <= c0 + c1|k| + c2 k^2, phi = arg x, and its mass
    over N(0, 1/4): the tilted bound, or the flat bound 2 where that is lighter (or the
    tilted one underflows to 0)."""
    phase = _momentum_split(w)[2]
    cos, sin = np.cos(phase), abs(np.sin(phase))
    coef = np.array([1.0 + cos, sin * g, max(0.0, -cos) * g * g / 2.0])
    # E|k| = 1/sqrt(2 pi) and E k^2 = 1/4 under N(0, 1/4)
    mass = coef[0] + coef[1] / np.sqrt(2.0 * np.pi) + coef[2] / 4.0
    return (coef, mass) if 0.0 < mass < 2.0 else (np.array([2.0, 0.0, 0.0]), 2.0)


def _remainder_target(w, g):
    """The remainder's mass 1 + cos(phi) exp(-g^2/8) over N(0, 1/4), without cancellation."""
    cos = np.cos(_momentum_split(w)[2])
    return 1.0 + cos + cos * np.expm1(-g * g / 8.0)


def _stated_rates(w, g):
    """Each sampler's n over its expected proposals, as its docstring states.

    Each rate's numerator and denominator sum the same terms, the numerator's
    no larger, so a rate cannot round above 1; both numerators equal
    postselection_weight(w, g) (see test_envelopes_dominate_and_acceptance_is_exact).
    """
    weights, (plain, amp, _) = _position_mixture(w, g)[0], _momentum_split(w)
    target, envelope = _remainder_target(w, g), _remainder_envelope(w, g)[1]
    return weights.sum() / np.abs(weights).sum(), (plain + amp * target) / (plain + amp * envelope)


def _remainder_rate(w, g):
    return _remainder_target(w, g) / _remainder_envelope(w, g)[1]


def _target_moments(w, g):
    """Variance and fourth central moment of q and of k, by quadrature of the complex targets."""
    q, k = np.linspace(-14.0, 14.0, 28001), np.linspace(-7.0, 7.0, 28001)
    densities = (
        (q, np.abs(w * np.exp(-((q - g) ** 2) / 4.0) + (1 - w) * np.exp(-(q**2) / 4.0)) ** 2),
        (k, np.exp(-2.0 * k**2) * np.abs(w * np.exp(-1j * g * k) + (1 - w)) ** 2),
    )
    out = []
    for grid, p in densities:
        p = p / p.sum()
        dev = grid - p @ grid
        out += [p @ dev**2, p @ dev**4]
    return out


class TestSamplerEnvelopes:
    @settings(max_examples=300, deadline=None)
    @given(
        re=st.floats(-3.0, 3.0),
        im=st.floats(-3.0, 3.0),
        g=st.floats(0.0, 0.2, exclude_min=True),
    )
    def test_envelopes_dominate_and_acceptance_is_exact(self, re, im, g):
        w = complex(re, im)
        peak = (abs(w) + abs(1 - w)) ** 2  # bound of either target over its Gaussian
        # position: the mixture equals |w Phi(q-g) + (1-w) Phi(q)|^2 as a density
        q = np.linspace(-12.0, 12.0, 4001)
        phi_g, phi_0 = np.exp(-((q - g) ** 2) / 4.0), np.exp(-(q**2) / 4.0)
        target = np.abs(w * phi_g + (1 - w) * phi_0) ** 2
        weights, centres = _position_mixture(w, g)
        mixture = sum(wt * np.exp(-((q - c) ** 2) / 2.0) for wt, c in zip(weights, centres))
        assert np.all(np.abs(mixture - target) <= 1e-12 * peak)
        # momentum: plain part plus remainder equals the interference factor
        k = np.linspace(-6.0, 6.0, 4001)
        plain, amp, phase = _momentum_split(w)
        remainder = 1.0 + np.cos(g * k - phase)
        split = plain + amp * remainder
        target = np.abs(w * np.exp(-1j * g * k) + (1 - w)) ** 2
        assert np.all(np.abs(split - target) <= 1e-12 * peak)
        # the remainder's envelope dominates it
        (c0, c1, c2), mass = _remainder_envelope(w, g)
        assert np.all(remainder <= c0 + c1 * np.abs(k) + c2 * k**2 + 1e-12)
        # every part has the target's mass z, and the remainder rate is a probability
        z, rest = postselection_weight(w, g), _remainder_rate(w, g)
        assert weights.sum() == pytest.approx(z, rel=1e-12)
        assert plain + amp * mass * rest == pytest.approx(z, rel=1e-12)
        assert 0.0 <= rest <= 1.0
        # a remainder draw costs 1/rest proposals, so the momenta take (plain + amp mass) / z each
        assert plain + amp * mass == pytest.approx(z / _stated_rates(w, g)[1], rel=1e-12)
        # the stated rates lie in (0, 1] and are at least the rejection-only samplers' rates
        c = (w - abs(w) ** 2).real
        old = (z / (abs(w) ** 2 + abs(1 - w) ** 2 + 2.0 * abs(c)), z / (abs(w) + abs(1 - w)) ** 2)
        for rate, old_rate in zip(_stated_rates(w, g), old):
            assert 0.0 < rate <= 1.0
            assert rate >= old_rate * (1.0 - 1e-12)

    def test_scan_like_position_rate_near_one(self):
        # small real w: the position draws need no accept test, the momenta almost none
        (count, _, _), proposals = _sample_positions(0.03, 0.05, 50_000, _rng(_entropy(3)))
        assert count == proposals == 50_000
        rate_q, rate_k = _stated_rates(0.03, 0.05)
        assert rate_q == pytest.approx(1.0, abs=1e-15)
        assert rate_k > 0.999

    @pytest.mark.parametrize("w", [0.03, 0.5 + 0.5j, -0.3, 1.2 - 0.4j])
    def test_moments_and_acceptance_at_strong_coupling(self, w):
        g, n = 0.2, 1_000_000
        exact = pointer_readout_means(w, g)
        (nq, mean_q, ss_q), q_proposals = _sample_positions(w, g, n, _rng(_entropy((91, 1))))
        (nk, mean_k, ss_k), k_proposals = _sample_momenta(w, g, n, _rng(_entropy((91, 2))))
        assert nq == nk == n
        var_q, var_k = ss_q / (n - 1), ss_k / (n - 1)
        assert abs(mean_q / g - exact.real) < 5.0 * np.sqrt(var_q / n) / g
        assert abs(2.0 * mean_k / g - exact.imag) < 5.0 * 2.0 * np.sqrt(var_k / n) / g
        # variances against the targets': the sd of a sample variance is sqrt((mu4 - var^2)/n)
        tv_q, m4_q, tv_k, m4_k = _target_moments(w, g)
        assert abs(var_q - tv_q) < 5.0 * np.sqrt((m4_q - tv_q**2) / n)
        assert abs(var_k - tv_k) < 5.0 * np.sqrt((m4_k - tv_k**2) / n)
        assert q_proposals >= n and k_proposals >= n
        rate_q, rate_k = _stated_rates(w, g)
        if _position_mixture(w, g)[0][2] >= 0.0:
            assert q_proposals == n
        else:
            # proposals until the n-th accept: sd of n/proposals is rate sqrt((1-rate)/n)
            assert abs(n / q_proposals - rate_q) <= 5.0 * rate_q * np.sqrt((1.0 - rate_q) / n)
        # a momentum draw costs one proposal, or a geometric number in the remainder
        rest, mass = _remainder_rate(w, g), _remainder_envelope(w, g)[1]
        plain, amp, _ = _momentum_split(w)
        share = amp * mass * rest / (plain + amp * mass * rest)
        var_cost = (1.0 - share) + share * (2.0 - rest) / rest**2 - 1.0 / rate_k**2
        assert abs(n / k_proposals - rate_k) <= 5.0 * rate_k**2 * np.sqrt(var_cost / n)

    @pytest.mark.parametrize("w", [0.8, 1.2 - 0.4j])
    def test_short_runs_unbiased(self, w):
        # a 16-draw run is one chunk cut at the draws still needed
        g, n, runs = 0.2, 16, 2000
        exact = pointer_readout_means(w, g)
        targets = ((_sample_positions, g * exact.real), (_sample_momenta, 0.5 * g * exact.imag))
        for sampler, target in targets:
            means = np.array([sampler(w, g, n, _rng(_entropy((93, i))))[0][1] for i in range(runs)])
            assert abs(means.mean() - target) < 5.0 * means.std(ddof=1) / np.sqrt(runs)

    def test_folded_moments_match_concatenation(self):
        rng = np.random.default_rng(5)
        batches = [(0.0, 1), (1e3, 7), (-5.0, 8192), (2.0, 0), (0.5, 100)]
        parts = [rng.normal(loc, 1.0, size) for loc, size in batches]
        merged = (0, 0.0, 0.0)
        for part in parts:
            merged = _fold(merged, part)
        whole = np.concatenate(parts)
        dev = whole - whole.mean()
        assert merged[0] == whole.size
        assert merged[1] == pytest.approx(whole.mean(), rel=1e-12)
        assert merged[2] == pytest.approx(dev @ dev, rel=1e-12)


#: Kolmogorov-Smirnov critical value at level 0.001: sqrt(-ln(0.0005) / 2).
KS_001 = 1.949


def _ks_distance(x, y):
    """Largest gap between the empirical distribution functions of two samples."""
    grid = np.concatenate([x, y])
    return np.max(np.abs(np.searchsorted(np.sort(x), grid, side="right") / x.size
                         - np.searchsorted(np.sort(y), grid, side="right") / y.size))


def _variate_positions(w, g, n, seed):
    """The c >= 0 position sampler drawing every variate: n mixture draws, in chunks, folded."""
    rng, (weights, centres) = np.random.default_rng(seed), _position_mixture(w, g)
    share, moments = weights / weights.sum(), (0, 0.0, 0.0)
    for start in range(0, n, SAMPLING_CHUNK):
        size = min(SAMPLING_CHUNK, n - start)
        draws = rng.standard_normal(size) + np.repeat(centres, rng.multinomial(size, share))
        moments = _fold(moments, draws)
    return moments


def _variate_momenta(w, g, n, seed):
    """The momentum sampler drawing every variate: the remainder by rejection from the flat
    envelope 2 N(0, 1/4), then each plain N(0, 1/4) draw."""
    rng, (plain, amp, phase) = np.random.default_rng(seed), _momentum_split(w)
    rate = 0.5 * (1.0 + np.cos(phase) * np.exp(-g * g / 8.0))
    n_rest = int(rng.binomial(n, 2.0 * amp * rate / (plain + 2.0 * amp * rate)))
    moments = (0, 0.0, 0.0)
    while moments[0] < n_rest:
        k = 0.5 * rng.standard_normal(2 * n_rest + 16)
        kept = k[rng.random(k.size) * 2.0 < 1.0 + np.cos(g * k - phase)]
        moments = _fold(moments, kept[: n_rest - moments[0]])
    return _fold(moments, 0.5 * rng.standard_normal(n - n_rest))


class TestExactMoments:
    """Gaussian parts drawn as exact (count, mean, SS), against their laws and the variate path."""

    @pytest.mark.parametrize("n, mu, sd", [(2, 0.3, 1.0), (9, -1.0, 0.5), (5000, 0.05, 0.5)])
    def test_normal_mean_and_chi_square_ss(self, n, mu, sd):
        rng, runs = np.random.default_rng(61), 4000
        draws = np.array([_gaussian_moments(rng, n, mu, sd) for _ in range(runs)])
        assert np.all(draws[:, 0] == n)
        # the standardized mean against the normal distribution function, by Kolmogorov-Smirnov
        z = (draws[:, 1] - mu) * np.sqrt(n) / sd
        cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.sort(z)])
        ranks = np.arange(runs + 1) / runs
        assert max(np.max(ranks[1:] - cdf), np.max(cdf - ranks[:-1])) < KS_001 / np.sqrt(runs)
        # SS / sd^2 is chi^2 with k = n - 1: mean k, variance 2k, fourth central moment 12k(k + 4)
        chi, k = draws[:, 2] / sd**2, n - 1
        assert abs(chi.mean() - k) < 5.0 * np.sqrt(2.0 * k / runs)
        assert abs(chi.var(ddof=1) - 2.0 * k) < 5.0 * np.sqrt((8.0 * k * k + 48.0 * k) / runs)
        # and independent of the mean
        assert abs(np.corrcoef(z, chi)[0, 1]) < 5.0 / np.sqrt(runs)

    def test_single_and_empty_parts(self):
        rng = np.random.default_rng(3)
        assert _gaussian_moments(rng, 0, 1.0, 1.0) == (0, 0.0, 0.0)
        count, mean, ss = _gaussian_moments(rng, 1, 1.0, 1.0)
        assert count == 1 and ss == 0.0 and math.isfinite(mean)

    @pytest.mark.parametrize("w, g", [(0.03, 0.05), (0.6 + 0.1j, 3.0)])
    def test_positions_match_variate_oracle(self, w, g):
        # at g = 3 the components lie apart, so the SS carries the merge's between-part term
        n, runs = 64, 2000
        exact = np.array(
            [_sample_positions(w, g, n, _rng(_entropy((71, i))))[0] for i in range(runs)]
        )
        oracle = np.array([_variate_positions(w, g, n, (72, i)) for i in range(runs)])
        assert np.all(exact[:, 0] == n)
        for col in (1, 2):
            assert _ks_distance(exact[:, col], oracle[:, col]) < KS_001 * np.sqrt(2.0 / runs)

    @pytest.mark.parametrize("w, g", [(0.03, 0.05), (0.5 + 0.5j, 2.0), (-0.3, 3.0)])
    def test_momenta_match_variate_oracle(self, w, g):
        # (0.5+0.5j, 2) proposes from |k|N(k) in 44% of remainder draws, (-0.3, 3) from k^2 N(k)
        n, runs = 64, 2000
        exact = np.array(
            [_sample_momenta(w, g, n, _rng(_entropy((73, i))))[0] for i in range(runs)]
        )
        oracle = np.array([_variate_momenta(w, g, n, (74, i)) for i in range(runs)])
        assert np.all(exact[:, 0] == n)
        for col in (1, 2):
            assert _ks_distance(exact[:, col], oracle[:, col]) < KS_001 * np.sqrt(2.0 / runs)

    def test_position_draw_costs_the_same_at_any_n(self):
        n, w, g = 10**12, 0.03, 0.05
        (count, mean, ss), proposals = _sample_positions(w, g, n, _rng(_entropy(5)))
        assert count == proposals == n
        assert math.isfinite(mean) and math.isfinite(ss)
        # against the mixture's mean and variance, within 5 sd of 10^12 near-normal draws
        weights, centres = _position_mixture(w, g)
        share = weights / weights.sum()
        mu = share @ centres
        var = 1.0 + share @ (centres - mu) ** 2
        assert abs(mean - mu) < 5.0 * np.sqrt(var / n)
        assert abs(ss / (n - 1) - var) < 5.0 * var * np.sqrt(2.0 / n)

    def test_remainder_cost_bounded_at_small_coupling(self):
        # x = w(1-w)* real and negative: a flat-envelope remainder draw took about 16/g^2 proposals
        n = 10**6
        for seed in range(40):
            (count, _, _), proposals = _sample_momenta(-0.3, 1e-3, n, _rng(_entropy(seed)))
            assert count == n
            assert proposals <= 3 * n


def _vdot_conditional(m_vec, a_vec, b_vec):
    """<b|m><m|a>/<b|a> straight from the vectors, not through qergo.ccp."""
    return complex(np.vdot(b_vec, m_vec) * np.vdot(m_vec, a_vec) / np.vdot(b_vec, a_vec))


class TestIndependentOracle:
    """The pointer estimate against the readout of a conditional formed from the vectors."""

    @staticmethod
    def _assert_matches(initial, final, basis_m, m, g, shots, seed):
        w = _vdot_conditional(basis_m.vectors[:, m], initial[0].vectors[:, initial[1]],
                              final[0].vectors[:, final[1]])
        report = simulate_weak_value(initial, final, basis_m, m, g, shots, seed)
        assert abs(report.analytic_ref - w) < 1e-12
        exact = pointer_readout_means(w, g)
        assert abs(report.estimate.real - exact.real) < 4.0 * report.std_err[0]
        assert abs(report.estimate.imag - exact.imag) < 4.0 * report.std_err[1]
        return w

    def test_benchmark_triple(self, z2, x2, y2):
        w = self._assert_matches((z2, 0), (x2, 0), y2, 0, 0.2, 1_000_000, 2013)
        assert w == pytest.approx(0.5 + 0.5j, abs=1e-14)

    def test_haar_triple_with_negative_cross_weight(self):
        m, a, b = haar_triple(3, 1002)
        w = self._assert_matches((a, 0), (b, 0), m, 0, 0.2, 1_000_000, 2013)
        assert (w - abs(w) ** 2).real < 0.0  # the position sampler's rejection branch

    def test_box_scan_against_vdot_column(self):
        sys_box = build_lattice(32, 1.0, 1.0, 1.0, "box")
        p0, g = sys_box.zero_momentum_index(), 0.05
        scan = scan_wavefunction(
            (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis, p0,
            g=g, shots_per_point=100_000, seed=2013,
        )
        e, p = sys_box.e_basis.vectors[:, 0], sys_box.p_basis.vectors[:, p0]
        xs = sys_box.x_basis.vectors
        ws = [_vdot_conditional(xs[:, x], e, p) for x in range(32)]
        scale = np.sqrt(scan.postselection_rate * 32)
        np.testing.assert_allclose(scan.analytic, scale * np.array(ws), rtol=0, atol=1e-12 * scale)
        expected = scale * np.array([pointer_readout_means(w, g) for w in ws])
        assert np.all(np.abs(scan.values.real - expected.real) < 4.0 * scan.std_err_re)
        assert np.all(np.abs(scan.values.imag - expected.imag) < 4.0 * scan.std_err_im)


class TestSimulateWeakValue:
    def test_estimates_within_gate(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 200_000, 2024)
        assert report.analytic_ref == pytest.approx(0.5 + 0.5j)
        gate = report.gate(C_BENCHMARK)
        assert abs(report.estimate.real - 0.5) < gate
        assert abs(report.estimate.imag - 0.5) < gate

    def test_no_postselection_disturbance_when_b_equals_a(self, z2, y2):
        report = simulate_weak_value((z2, 0), (z2, 0), y2, 0, 0.1, 100_000, 5)
        assert report.analytic_ref == pytest.approx(0.5)
        assert abs(report.estimate.real - 0.5) < 4.0 * report.std_err[0]
        assert abs(report.estimate.imag) < 4.0 * report.std_err[1]

    def test_matches_closed_form_at_strong_coupling(self, z2, x2, y2):
        # sharp oracle check of the exact two-Gaussian sampler
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        g = 0.2
        report = simulate_weak_value(a, b, m_basis, m, g, 400_000, 7)
        exact = pointer_readout_means(report.analytic_ref, g)
        assert abs(report.estimate.real - exact.real) < 4.0 * report.std_err[0]
        assert abs(report.estimate.imag - exact.imag) < 4.0 * report.std_err[1]

    def test_deterministic_and_schedule_independent(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        r1 = simulate_weak_value(a, b, m_basis, m, 0.05, 50_000, 42)
        r2 = simulate_weak_value(a, b, m_basis, m, 0.05, 50_000, 42)
        assert r1 == r2
        assert r1.to_json() == r2.to_json()

    def test_postselection_rate_matches(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 400_000, 9)
        rate = report.shots_postselected / report.shots_total
        p = ergodic_table(x2, z2)[0, 0]
        se = np.sqrt(p * (1 - p) / report.shots_total)
        assert abs(rate - p) < 4.0 * se + 0.01 * p  # small O(g^2) shift allowed

    def test_consistency_across_coupling_and_shots(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        points = [(0.2, 10_000), (0.1, 40_000), (0.05, 160_000)]
        ses = []
        for g, shots in points:
            report = simulate_weak_value(a, b, m_basis, m, g, shots, 77)
            gate = report.gate(C_BENCHMARK)
            assert abs(report.estimate.real - 0.5) < gate
            assert abs(report.estimate.imag - 0.5) < gate
            ses.append(report.std_err[0])
        # quadrupling shots halves the standard error (up to sampling noise
        # of the SE estimate itself and the changing g normalization)
        assert ses[1] / ses[0] == pytest.approx(1.0, abs=0.25)
        assert ses[2] / ses[1] == pytest.approx(1.0, abs=0.25)

    def test_coupling_out_of_range(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        for g in (0.0, -0.1, 0.25):
            with pytest.raises(WeakRegimeViolation):
                simulate_weak_value(a, b, m_basis, m, g, 10_000, 1)

    def test_orthogonal_postselection_starves(self, z2, y2):
        with pytest.raises(PostSelectionStarvation):
            simulate_weak_value((z2, 0), (z2, 1), y2, 0, 0.05, 10_000, 1)

    def test_too_few_shots_rejected(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        with pytest.raises(ValueError):
            simulate_weak_value(a, b, m_basis, m, 0.05, 500, 1)

    def test_proposals_reported_not_serialized(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 50_000, 4)
        # w = (1+i)/2 has c = 0: plain position mixture, momenta all in the remainder
        assert report.proposals[0] == report.shots_postselected
        assert report.proposals[1] > report.shots_postselected
        assert "proposals" not in report.to_json()

    def test_report_serialization(self, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        report = simulate_weak_value(a, b, m_basis, m, 0.05, 10_000, 3)
        import json

        payload = json.loads(report.to_json())
        assert payload["shots_total"] == 10_000
        assert payload["analytic_ref"]["re"] == pytest.approx(0.5)
        assert payload["std_err"]["re"] > 0
        assert report.shots_postselected <= report.shots_total


class TestSimulateSequential:
    def test_m_basis_equals_initial_collapses(self, z2, x2):
        run = simulate_sequential((z2, 0), z2, x2, 100_000, 11)
        np.testing.assert_array_equal(run.counts[1], [0, 0])
        freqs = run.freqs
        assert freqs[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_qubit_quarters(self, z2, x2):
        run = simulate_sequential((x2, 0), z2, x2, 1_000_000, 13)
        for m in range(2):
            for b in range(2):
                se = np.sqrt(0.25 * 0.75 / run.shots)
                assert abs(run.freqs[m, b] - 0.25) < 4.0 * se

    def test_matches_backaction_product_haar_d3(self):
        exceedances = 0
        checks = 0
        for scenario in range(20):
            m, a, b = haar_triple(3, 900 + scenario)
            run = simulate_sequential((a, 0), m, b, 20_000, scenario)
            p_m = np.abs(m.vectors.conj().T @ a.vectors[:, 0]) ** 2
            p_b_m = np.abs(b.overlaps_with(m)) ** 2
            expected = p_b_m.T * p_m[:, np.newaxis]
            se = np.sqrt(expected * (1 - expected) / run.shots)
            exceedances += int(np.sum(np.abs(run.freqs - expected) > 4.0 * se))
            checks += expected.size
        assert checks == 180
        assert exceedances <= 1

    def test_b_marginal_matches_dephased_sum(self):
        m, a, b = haar_triple(3, 950)
        run = simulate_sequential((a, 1), m, b, 200_000, 20)
        p_m = np.abs(m.vectors.conj().T @ a.vectors[:, 1]) ** 2
        p_b_m = np.abs(b.overlaps_with(m)) ** 2
        expected = p_b_m @ p_m
        marginal = run.freqs.sum(axis=0)
        se = np.sqrt(expected * (1 - expected) / run.shots)
        assert np.all(np.abs(marginal - expected) < 4.0 * se)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_counts_equal_the_per_m_loop(self, dim):
        """One broadcast multinomial draws what a loop over m does, zero-count rows included."""
        for seed in range(10):
            m, a, b = haar_triple(dim, 1200 + seed)
            for initial in ((a, 0), (m, dim - 1)):  # (m, .) leaves every other row at zero count
                run = simulate_sequential(initial, m, b, MIN_SHOTS, seed)
                p_m = np.abs(m.vectors.conj().T @ initial[0].vectors[:, initial[1]]) ** 2
                p_b_m = np.abs(b.vectors.conj().T @ m.vectors) ** 2
                p_b_m = p_b_m / p_b_m.sum(axis=0, keepdims=True)
                rng = _rng(_entropy(seed, 0))
                m_counts = rng.multinomial(MIN_SHOTS, p_m / p_m.sum())
                loop = np.zeros((dim, dim), dtype=np.int64)
                for row in np.flatnonzero(m_counts):
                    loop[row] = rng.multinomial(int(m_counts[row]), p_b_m[:, row])
                assert np.array_equal(run.counts, loop), (dim, seed, initial[1])

    def test_determinism(self, z2, x2):
        r1 = simulate_sequential((x2, 0), z2, x2, 50_000, 3)
        r2 = simulate_sequential((x2, 0), z2, x2, 50_000, 3)
        assert np.array_equal(r1.counts, r2.counts)
        assert r1.to_csv() == r2.to_csv()


class TestScanWavefunction:
    def test_free_momentum_eigenstate_flat_profile(self):
        sys_free = build_lattice(8, 1.0, 1.0, 1.0, "free")
        p0 = sys_free.zero_momentum_index()
        # the p = 0 eigenstate sits at the bottom of the spectrum
        scan = scan_wavefunction(
            (sys_free.e_basis, 0), sys_free.x_basis, sys_free.p_basis, p0,
            g=0.05, shots_per_point=20_000, seed=31,
        )
        # the analytic column carries the empirical pooled-rate scale,
        # which differs from the ideal one only at the O(g^2) level
        np.testing.assert_allclose(
            scan.analytic, np.full(8, 1 / np.sqrt(8)), atol=1e-3
        )
        gate = np.maximum(4.0 * scan.std_err_re, C_SCAN_BOX32 * 0.05)
        assert np.all(np.abs(scan.values.real - scan.analytic.real) < gate)

    def test_box_ground_state_profile(self):
        sys_box = build_lattice(16, 1.0, 1.0, 1.0, "box")
        p0 = sys_box.zero_momentum_index()
        scan = scan_wavefunction(
            (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis, p0,
            g=0.05, shots_per_point=40_000, seed=33,
        )
        err_re = np.abs(scan.values.real - scan.analytic.real)
        err_im = np.abs(scan.values.imag - scan.analytic.imag)
        assert np.all(err_re < np.maximum(4.0 * scan.std_err_re, 0.01))
        assert np.all(err_im < np.maximum(4.0 * scan.std_err_im, 0.01))

    def test_harmonic_ground_state_profile(self):
        sys_h = build_lattice(32, 20.0, 1.0, 1.0, ("harmonic", 1.0))
        p0 = sys_h.zero_momentum_index()
        scan = scan_wavefunction(
            (sys_h.e_basis, 0), sys_h.x_basis, sys_h.p_basis, p0,
            g=0.05, shots_per_point=40_000, seed=35,
        )
        err_re = np.abs(scan.values.real - scan.analytic.real)
        err_im = np.abs(scan.values.imag - scan.analytic.imag)
        assert np.all(err_re < np.maximum(4.0 * scan.std_err_re, 0.01))
        assert np.all(err_im < np.maximum(4.0 * scan.std_err_im, 0.01))
        # bell-shaped magnitude profile peaked at the well center
        mags = np.abs(scan.analytic)
        assert 15 <= int(np.argmax(mags)) <= 17
        assert mags.max() > 5 * mags[1]

    def test_rate_floor_enforced(self):
        sys_box = build_lattice(16, 1.0, 1.0, 1.0, "box")
        # ground state is orthogonal-ish to a far momentum outcome
        with pytest.raises(PostSelectionStarvation):
            scan_wavefunction(
                (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis, 0,
                g=0.05, shots_per_point=20_000, seed=1,
            )

    def test_dimension_cap_enforced(self):
        sys_big = build_lattice(128, 1.0, 1.0, 1.0, "box")
        with pytest.raises(ValueError):
            scan_wavefunction(
                (sys_big.e_basis, 0), sys_big.x_basis, sys_big.p_basis,
                sys_big.zero_momentum_index(), g=0.05, shots_per_point=20_000, seed=1,
            )

    @pytest.mark.parametrize(
        "g, shots, error",
        [(0.3, MIN_SHOTS, WeakRegimeViolation), (0.05, MIN_SHOTS - 1, ValueError)],
    )
    def test_run_settings_checked_before_any_run(self, monkeypatch, g, shots, error):
        sys_box = build_lattice(8, 1.0, 1.0, 1.0, "box")

        def no_run(*args):
            raise AssertionError("a weak run started before the scan checked its settings")

        monkeypatch.setattr(weak, "_weak_run", no_run)
        with pytest.raises(error):
            scan_wavefunction(
                (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis,
                sys_box.zero_momentum_index(), g=g, shots_per_point=shots, seed=1,
            )

    def test_points_are_simulate_weak_value_runs(self):
        # point x is simulate_weak_value at seed (seed, x), bit for bit, and the
        # analytic column is ccp_column's under the same pooled-rate scale
        sys_box = build_lattice(8, 1.0, 1.0, 1.0, "box")
        state, final = (sys_box.e_basis, 0), (sys_box.p_basis, sys_box.zero_momentum_index())
        g, shots, seed = 0.1, 10_000, 23
        scan = scan_wavefunction(state, sys_box.x_basis, *final, g, shots, seed)
        reports = [simulate_weak_value(state, final, sys_box.x_basis, x, g, shots, (seed, x))
                   for x in range(8)]
        assert scan.postselection_rate == sum(r.shots_postselected for r in reports) / (8 * shots)
        scale = math.sqrt(scan.postselection_rate * 8)
        for x, report in enumerate(reports):
            assert scan.values[x] == scale * report.estimate
            assert scan.std_err_re[x] == scale * report.std_err[0]
            assert scan.std_err_im[x] == scale * report.std_err[1]
        assert np.array_equal(scan.analytic, scale * ccp_column(sys_box.x_basis, *state, *final))

    def test_same_seed_identical_arrays(self):
        sys_box = build_lattice(16, 1.0, 1.0, 1.0, "box")
        scans = [
            scan_wavefunction(
                (sys_box.e_basis, 0), sys_box.x_basis, sys_box.p_basis,
                sys_box.zero_momentum_index(), g=0.2, shots_per_point=10_000, seed=(6, 1),
            )
            for _ in range(2)
        ]
        for field in ("values", "std_err_re", "std_err_im", "analytic"):
            assert np.array_equal(getattr(scans[0], field), getattr(scans[1], field))
        assert scans[0].postselection_rate == scans[1].postselection_rate

    def test_csv_export_well_formed(self):
        sys_free = build_lattice(8, 1.0, 1.0, 1.0, "free")
        scan = scan_wavefunction(
            (sys_free.e_basis, 0), sys_free.x_basis, sys_free.p_basis,
            sys_free.zero_momentum_index(), g=0.1, shots_per_point=10_000, seed=2,
        )
        lines = scan.to_csv().strip().splitlines()
        assert lines[0] == "x_index,re,im,se_re,se_im,analytic_re,analytic_im"
        assert len(lines) == 9
        assert all(len(row.split(",")) == 7 for row in lines[1:])


# ROADMAP item 1: weak, seq and scan draws are to come from independent
# streams.  These pass once it lands; today each pair seeds one stream.
_ZERO_PADDED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="SeedSequence zero-pads entropy, so s, (s, 0) and (s, 0, 0) seed one stream "
    "(CHANGES.md FOUND on weak._entropy)",
)


@pytest.fixture
def seeded_entropies(monkeypatch):
    """The entropy of every generator that ``basis._rng`` builds during a test, in order."""
    seen, rng = [], basis._rng

    def spy(entropy):
        seen.append(entropy)
        return rng(entropy)

    for module in (basis, weak):
        monkeypatch.setattr(module, "_rng", spy)
    return seen


def _first_words(entropy) -> list[int]:
    return np.random.SeedSequence(entropy).generate_state(4).tolist()


class TestIndependentStreams:
    @_ZERO_PADDED
    def test_weak_and_seq_at_one_seed(self, seeded_entropies, z2, x2, y2):
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        simulate_weak_value(a, b, m_basis, m, 0.05, MIN_SHOTS, 9)
        simulate_sequential(a, m_basis, b[0], MIN_SHOTS, 9)
        weak_entropy, seq_entropy = seeded_entropies
        assert _first_words(weak_entropy) != _first_words(seq_entropy)

    @_ZERO_PADDED
    def test_scan_point_zero_and_the_bare_seed(self, seeded_entropies):
        sys_ = build_lattice(8, 1.0, 1.0, 1.0, "free")
        state, p0 = (sys_.e_basis, 0), sys_.zero_momentum_index()
        scan_wavefunction(state, sys_.x_basis, sys_.p_basis, p0, 0.05, MIN_SHOTS, 9)
        simulate_weak_value(state, (sys_.p_basis, p0), sys_.x_basis, 0, 0.05, MIN_SHOTS, 9)
        assert len(seeded_entropies) == sys_.d + 1
        assert _first_words(seeded_entropies[0]) != _first_words(seeded_entropies[-1])

    @_ZERO_PADDED
    def test_weak_seed_and_haar_seed_of_one_number(self, seeded_entropies, z2, x2, y2):
        haar_random_basis(2, 9)
        a, b, m_basis, m = _qubit_scenario(z2, x2, y2)
        simulate_weak_value(a, b, m_basis, m, 0.05, MIN_SHOTS, 9)
        haar_entropy, weak_entropy = seeded_entropies
        assert _first_words(haar_entropy) != _first_words(weak_entropy)


def _starved_run():
    """A run at post-selection rate 0.002, above the floor, and w = 1: about 20 of 1e4 shots."""
    s, c = math.sqrt(0.002), math.sqrt(0.998)
    z2 = computational_basis(2)
    final = make_basis(np.array([[s, c], [c, -s]]))
    return simulate_weak_value((z2, 0), (final, 0), z2, 0, 0.05, MIN_SHOTS, 1)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            _starved_run, PostSelectionStarvation, "post-selected shots (< 100)", id="starved",
        ),
        pytest.param(
            lambda: simulate_sequential(
                (computational_basis(2), 0), fourier_basis(2), fourier_basis(2), MIN_SHOTS - 1, 0
            ),
            ValueError, f"shots={MIN_SHOTS - 1} below the minimum {MIN_SHOTS}", id="seq-shots",
        ),
        pytest.param(
            lambda: simulate_sequential(
                (computational_basis(3), 0), fourier_basis(2), fourier_basis(2), MIN_SHOTS, 0
            ),
            DimensionMismatch, "bases must share one dimension", id="seq-dims",
        ),
    ],
)
def test_input_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
