"""Batch verification of every conditional-probability identity.

One run draws Haar-random basis quadruples per (dimension, seed) pair and
accumulates the worst deviation of each identity across the sweep.  Every
identity is evaluated by its library function over all indices at once;
this module only builds the tables, reduces each result to its worst, and
keeps the independent linear-algebra oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import MIN_DIM, Basis, haar_random_basis
from .bridge import (
    born_rule_coherence,
    inner_product_ccp,
    predict_outcome_prob,
    pure_state_joint,
    reconstruct_vector,
    reference_gauge_amplitudes,
)
from .ccp import (
    IdentitySides,
    backaction_check,
    bayes_convert,
    ccp_table,
    chain_compose,
    determinism_residual,
    ergodicity_product,
    ozawa_error,
    phase_antisymmetry_check,
)
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


def _triple_worsts(
    m_b: Basis, a_b: Basis, b_b: Basis, f_b: Basis, rng_seed: int
) -> dict[str, float]:
    """Worst deviation of each identity on one basis quadruple."""
    dim = m_b.dim
    b_ref = 0
    a_b = replace(a_b, values=np.arange(dim, dtype=np.float64))  # for the conditional error
    t_mab = ccp_table(m_b, a_b, b_b)
    t_amb = ccp_table(a_b, m_b, b_b)
    t_fmb = ccp_table(f_b, m_b, b_b)
    t_fab = ccp_table(f_b, a_b, b_b)
    t_mba = ccp_table(m_b, b_b, a_b)
    t_abm = ccp_table(a_b, b_b, m_b)
    chain = chain_compose(t_fmb, t_mab)
    det = chain_compose(t_amb, t_mab)
    back = backaction_check(t_mab)

    f_a = np.abs(f_b.overlaps_with(a_b))  # |<f|a>|
    recon_oracle = reference_gauge_amplitudes(m_b, a_b, b_b, b_ref)
    inner = inner_product_ccp(f_b, a_b, m_b, b_b, b_ref)
    direct = inner_product_ccp(f_b, a_b, a_b, b_b, b_ref)  # intermediate basis A
    joint = pure_state_joint((m_b, 0), a_b, b_b)
    psi = m_b.vectors[:, 0]
    born_a, born_b, born_f = (np.abs(x.vectors.conj().T @ psi) ** 2 for x in (a_b, b_b, f_b))

    worst = {
        "column normalization": np.max(
            [t.normalization_defect() for t in (t_mab, t_amb, t_fmb, t_fab, t_mba, t_abm)]
        ),
        "chain rule": IdentitySides(
            chain.vals, t_fab.vals, chain.defined_mask & t_fab.defined_mask
        ).worst(),
        "determinism": determinism_residual(det).worst(),
        "ergodicity product": ergodicity_product(t_mab, t_amb).worst(),
        "phase antisymmetry": phase_antisymmetry_check(t_mab, t_amb, t_mba),
        "bayes conversion": bayes_convert(t_mab, t_abm).worst(),
        "back-action": back.worst(),
        "dephasing decomposition": IdentitySides(
            back.lhs.sum(axis=0), back.rhs.sum(axis=0), t_mab.defined_mask
        ).worst(),
        "vector reconstruction": np.max(
            np.abs(reconstruct_vector(t_mab, b_ref) - recon_oracle)
        ),
        "inner product": np.max(
            [np.max(np.abs(np.abs(inner) - f_a)), np.max(np.abs(inner - direct))]
        ),
        "born coherence": np.max(
            np.abs(born_rule_coherence(f_b, a_b, m_b, (b_b, b_ref)) - f_a**2)
        ),
        "joint quasiprobability": np.max([
            abs(joint.total() - 1.0),
            np.max(np.abs(joint.marginal_a() - born_a)),
            np.max(np.abs(joint.marginal_b() - born_b)),
        ]),
        "outcome prediction": np.max(np.abs(predict_outcome_prob(joint, f_b) - born_f)),
        "conditional error": np.max(np.abs(ozawa_error(det))),
    }

    # Phase-transform oracle, both directions, one random profile.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    phases = rng.uniform(0.0, 2.0 * np.pi, dim)
    profile = PhaseProfile.from_phases(m_b, phases)
    worst["transform oracle"] = np.max([
        abs(transformed_prob(t_mab, profile, 0, 0, direction)
            - conjugation_prob(m_b, phases, a_b, 0, b_b, 0, direction))
        for direction in ("on_a", "on_b")
    ])
    return {name: float(value) for name, value in worst.items()}


def run_verification_suite(
    dims: list[int], seeds_per_dim: int, root_seed: int
) -> VerdictReport:
    """Sweep all identities over Haar-random bases.

    ``dims`` must be a subset of 2..32; each (dim, seed index) pair draws
    an independent basis quadruple from the root seed.
    """
    dims = list(dims)
    if not dims or any(d < MIN_DIM or d > MAX_DIM for d in dims):
        raise ValueError(f"dims must be non-empty and within {MIN_DIM}..{MAX_DIM}: {dims}")
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
                worst[name] = float(np.max([worst[name], value]))  # NaN propagates

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
