"""Batch verification of every conditional-probability identity.

One run draws Haar-random basis quadruples per (dimension, seed) pair and
accumulates the worst deviation of each identity across the sweep.  The
checks are tensorized equivalents of the single-entry operations, each
compared against an independent linear-algebra oracle where one exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, haar_random_basis
from .bridge import pure_state_joint, reference_gauge_amplitudes
from .ccp import ccp_table, chain_compose, phase_antisymmetry_check
from .transform import PhaseProfile, transformed_prob

MAX_DIM = 32

#: (identity name, tolerance); tolerances scale linearly beyond dim 16.
IDENTITY_TOLERANCES: tuple[tuple[str, float], ...] = (
    ("column normalization", 1e-9),
    ("chain rule", 1e-9),
    ("determinism", 1e-9),
    ("ergodicity product", 1e-10),
    ("phase antisymmetry", 1e-9),
    ("bayes conversion", 1e-10),
    ("back-action", 1e-10),
    ("dephasing decomposition", 1e-10),
    ("vector reconstruction", 1e-9),
    ("inner product", 1e-9),
    ("born coherence", 1e-9),
    ("joint quasiprobability", 1e-9),
    ("outcome prediction", 1e-9),
    ("conditional error", 1e-9),
    ("transform oracle", 1e-10),
)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    tolerance: float
    worst: float

    @property
    def passed(self) -> bool:
        # Fail closed: a NaN or infinite worst never passes.
        return math.isfinite(self.worst) and self.worst < self.tolerance


@dataclass(frozen=True)
class VerdictReport:
    dims: tuple[int, ...]
    seeds_per_dim: int
    root_seed: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "dims": list(self.dims),
            "seeds_per_dim": self.seeds_per_dim,
            "root_seed": self.root_seed,
            "checks": [
                {
                    "name": c.name,
                    "tolerance": c.tolerance,
                    "worst": c.worst,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "all_pass": self.all_pass,
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"{status}  {c.name:<26} worst={c.worst:.3e}  tol={c.tolerance:.0e}")
        return out


def _child_seeds(root_seed: int, dim: int, index: int, count: int) -> list[int]:
    ss = np.random.SeedSequence((root_seed, dim, index))
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]


def conjugation_prob(
    basis_m: Basis,
    phases: np.ndarray,
    basis_a: Basis,
    a: int,
    basis_b: Basis,
    b: int,
    direction: str,
) -> float:
    """Matrix-conjugation oracle for the phase-transformed probability.

    Builds U = sum_m e^{-i phi_m}|m><m| explicitly and returns
    |<b|U|a>|^2 (direction 'on_a') or |<b|U^dag|a>|^2 ('on_b').
    """
    u = (basis_m.vectors * np.exp(-1j * phases)) @ basis_m.vectors.conj().T
    if direction == "on_b":
        u = u.conj().T
    amp = np.vdot(basis_b.vectors[:, b], u @ basis_a.vectors[:, a])
    return float(abs(amp) ** 2)


def _worst(*values: float) -> float:
    """Largest value, NaN if any value is NaN.

    Python's ``max`` keeps its first argument unless a later one compares
    greater, so ``max(0.0, nan)`` is 0.0 and a NaN deviation would vanish.
    """
    return float(np.max(values))


def _masked_max(dev: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return 0.0
    return float(dev[mask].max())


def _triple_worsts(
    m_b: Basis, a_b: Basis, b_b: Basis, f_b: Basis, rng_seed: int
) -> dict[str, float]:
    """Worst deviation of each identity on one basis quadruple."""
    dim = m_b.dim
    worst: dict[str, float] = {}

    t_mab = ccp_table(m_b, a_b, b_b)
    t_amb = ccp_table(a_b, m_b, b_b)
    t_fmb = ccp_table(f_b, m_b, b_b)
    t_fab = ccp_table(f_b, a_b, b_b)
    t_mba = ccp_table(m_b, b_b, a_b)

    mask3 = t_mab.defined_mask[np.newaxis, :, :]

    worst["column normalization"] = _worst(
        *(t.normalization_defect() for t in (t_mab, t_amb, t_fmb, t_fab, t_mba))
    )

    composed = chain_compose(t_fmb, t_mab)
    both = composed.defined_mask & t_fab.defined_mask
    worst["chain rule"] = _masked_max(
        np.abs(composed.vals - t_fab.vals).max(axis=0), both
    )

    det = chain_compose(t_amb, t_mab)
    delta = np.eye(dim)[:, :, np.newaxis]
    worst["determinism"] = _masked_max(
        np.abs(det.vals - delta).max(axis=0), det.defined_mask
    )

    # p(a|m,b) p(m|a,b) against the b-independent transition probability.
    prod = np.transpose(t_amb.vals, (1, 0, 2)) * t_mab.vals  # [m, a, b]
    p_m_a = np.abs(m_b.overlaps_with(a_b)) ** 2  # [m, a]
    pair_mask = mask3 & t_amb.defined_mask[:, np.newaxis, :]  # (m,b) defined too
    worst["ergodicity product"] = _masked_max(
        np.abs(prod - p_m_a[:, :, np.newaxis]),
        np.broadcast_to(pair_mask, prod.shape),
    )

    worst["phase antisymmetry"] = phase_antisymmetry_check(m_b, a_b, b_b)

    # Bayes: p(m|a,b) p(a|b) = p(a|b,m) p(m|b).
    t_abm = ccp_table(a_b, b_b, m_b)  # vals[a, b, m] = p(a|b,m)
    p_a_b = np.abs(a_b.overlaps_with(b_b)) ** 2  # [a, b]
    p_m_b = np.abs(m_b.overlaps_with(b_b)) ** 2  # [m, b]
    lhs = t_mab.vals * p_a_b[np.newaxis, :, :]
    rhs = np.transpose(t_abm.vals, (2, 0, 1)) * p_m_b[:, np.newaxis, :]
    bayes_mask = mask3 & t_abm.defined_mask.T[:, np.newaxis, :]  # [m, 1, b]
    worst["bayes conversion"] = _masked_max(
        np.abs(lhs - rhs), np.broadcast_to(bayes_mask, lhs.shape)
    )

    # Back-action: p(b|m) p(m|a) = p(b|a) |p(m|a,b)|^2, plus its m-sum,
    # which is the dephasing decomposition.
    p_b_m = np.abs(b_b.overlaps_with(m_b)) ** 2  # [b, m]
    p_b_a = np.abs(b_b.overlaps_with(a_b)) ** 2  # [b, a]
    seq = p_b_m.T[:, np.newaxis, :] * p_m_a[:, :, np.newaxis]  # [m, a, b]
    direct = p_b_a.T[np.newaxis, :, :] * np.abs(t_mab.vals) ** 2
    worst["back-action"] = _masked_max(
        np.abs(seq - direct), np.broadcast_to(mask3, seq.shape)
    )
    worst["dephasing decomposition"] = _masked_max(
        np.abs(seq.sum(axis=0) - direct.sum(axis=0)), t_mab.defined_mask
    )

    # Reconstruction of every a-column against the reference-gauge oracle.
    b_ref = 0
    recon_worst = 0.0
    p_m_bref = p_m_b[:, b_ref]
    if t_mab.defined_mask[:, b_ref].all() and p_m_bref.min() > 1e-14:
        scale = np.sqrt(p_a_b[:, b_ref][np.newaxis, :] / p_m_bref[:, np.newaxis])
        recon = scale * t_mab.vals[:, :, b_ref]  # [m, a]
        oracle = np.column_stack(
            [reference_gauge_amplitudes(m_b, a_b, a, b_b, b_ref) for a in range(dim)]
        )
        recon_worst = float(np.max(np.abs(recon - oracle)))
    worst["vector reconstruction"] = recon_worst

    # Inner products <f|a> via the intermediate basis M against the direct
    # conditional route (an alternate intermediate basis, analytically).
    chain_f = np.einsum("fm,ma->fa", t_fmb.vals[:, :, b_ref], t_mab.vals[:, :, b_ref])
    p_f_b = np.abs(f_b.overlaps_with(b_b)) ** 2
    inner = np.sqrt(p_a_b[np.newaxis, :, b_ref] / p_f_b[:, np.newaxis, b_ref]) * chain_f
    oracle_mag = np.abs(f_b.overlaps_with(a_b))
    inner_dev = float(np.max(np.abs(np.abs(inner) - oracle_mag)))
    alt = (
        np.sqrt(p_a_b[np.newaxis, :, b_ref] / p_f_b[:, np.newaxis, b_ref])
        * t_fab.vals[:, :, b_ref]
    )
    worst["inner product"] = _worst(inner_dev, np.max(np.abs(inner - alt)))

    # Born coherence double sum for all (f, a) at the reference condition.
    t_mfb = ccp_table(m_b, f_b, b_b)
    d1 = chain_f  # sum_m p(f|m,b) p(m|a,b)
    d2 = np.einsum("am,mf->fa", t_amb.vals[:, :, b_ref], t_mfb.vals[:, :, b_ref])
    born = d1 * d2
    p_f_a = np.abs(f_b.overlaps_with(a_b)) ** 2
    worst["born coherence"] = _worst(
        np.max(np.abs(born.imag)), np.max(np.abs(born.real - p_f_a))
    )

    # Pure-state joint: total, marginals, and outcome prediction.
    joint = pure_state_joint((m_b, 0), a_b, b_b)
    psi = m_b.vectors[:, 0]
    born_a = np.abs(a_b.vectors.conj().T @ psi) ** 2
    born_b = np.abs(b_b.vectors.conj().T @ psi) ** 2
    worst["joint quasiprobability"] = _worst(
        abs(joint.total() - 1.0),
        np.max(np.abs(joint.marginal_a() - born_a)),
        np.max(np.abs(joint.marginal_b() - born_b)),
    )

    f_a = f_b.vectors.conj().T @ joint.a_basis.vectors  # <f|a>
    b_f = np.conj(f_b.vectors.conj().T @ joint.b_basis.vectors)  # <b|f>
    pred = np.einsum("fa,fb,ab->f", f_a, b_f, joint.sandwich)
    born_f = np.abs(f_b.vectors.conj().T @ psi) ** 2
    worst["outcome prediction"] = _worst(
        np.max(np.abs(pred.imag)), np.max(np.abs(pred.real - born_f))
    )

    # Conditional spread of outcome values under every condition b.
    values = np.arange(dim, dtype=np.float64)
    half_sq = 0.5 * (values[:, np.newaxis] - values[np.newaxis, :]) ** 2
    eps = np.einsum("aA,Amb,mab,ab->b", half_sq, t_amb.vals, t_mab.vals, p_a_b)
    worst["conditional error"] = float(np.max(np.abs(eps)))

    # Phase-transform oracle, both directions, one random profile.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    phases = rng.uniform(0.0, 2.0 * np.pi, dim)
    profile = PhaseProfile.from_phases(m_b, phases)
    t_dev = 0.0
    for direction in ("on_a", "on_b"):
        via_ccp = transformed_prob(t_mab, profile, 0, 0, direction)
        via_matrix = conjugation_prob(m_b, phases, a_b, 0, b_b, 0, direction)
        t_dev = _worst(t_dev, abs(via_ccp - via_matrix))
    worst["transform oracle"] = t_dev

    return worst


def run_verification_suite(
    dims: list[int], seeds_per_dim: int, root_seed: int
) -> VerdictReport:
    """Sweep all identities over Haar-random bases.

    ``dims`` must be a subset of 2..32; each (dim, seed index) pair draws
    an independent basis quadruple from the root seed.
    """
    dims = list(dims)
    if not dims or any(d < 2 or d > MAX_DIM for d in dims):
        raise ValueError(f"dims must be non-empty and within 2..{MAX_DIM}: {dims}")
    if seeds_per_dim < 1:
        raise ValueError("seeds_per_dim must be at least 1")

    worst: dict[str, float] = {name: 0.0 for name, _ in IDENTITY_TOLERANCES}
    for dim in dims:
        for index in range(seeds_per_dim):
            s_m, s_a, s_b, s_f, s_phi = _child_seeds(root_seed, dim, index, 5)
            bases = (
                haar_random_basis(dim, s_m),
                haar_random_basis(dim, s_a),
                haar_random_basis(dim, s_b),
                haar_random_basis(dim, s_f),
            )
            triple_worst = _triple_worsts(*bases, rng_seed=s_phi)
            for name, value in triple_worst.items():
                worst[name] = _worst(worst[name], value)

    scale = max(1.0, max(dims) / 16.0)  # rounding grows with the dim^3 sums
    checks = tuple(
        IdentityCheck(name=name, tolerance=tol * scale, worst=worst[name])
        for name, tol in IDENTITY_TOLERANCES
    )
    return VerdictReport(
        dims=tuple(dims),
        seeds_per_dim=seeds_per_dim,
        root_seed=root_seed,
        checks=checks,
    )
