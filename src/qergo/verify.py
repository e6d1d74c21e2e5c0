"""Batch verification of every conditional-probability identity.

One run draws Haar-random basis quadruples per (dimension, seed) pair and
accumulates the worst deviation of each identity across the sweep.  The
quadruples of a dim are evaluated in blocks, as stacked bases and tables:
each identity's library function runs once per block over all indices of
every quadruple in it.  ``BLOCK_BYTES`` bounds one d^3 table of a block,
which fixes the block size per dim.  Quadruple k draws from its own child
seeds, so blocking changes no basis.  This module builds the tables,
reduces each result to its worst, and keeps the independent oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bridge, ccp
from .basis import MIN_DIM, Basis, _adjoint, _freeze, haar_random_bases
from .transform import PhaseProfile, transformed_prob

MAX_DIM = 32

#: Bytes of one complex d^3 table over a block of quadruples of one dim.  It
#: sets the block size: 2 quadruples at d=32, 128 or more at d <= 8.
BLOCK_BYTES = 1 << 20

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
                {"name": c.name, "tolerance": c.tolerance, "worst": c.worst, "pass": c.passed}
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
    basis_m: Basis, phases, basis_a: Basis, a: int, basis_b: Basis, b: int, direction: str
):
    """Matrix-conjugation oracle for the phase-transformed probability.

    Builds U = sum_m e^{-i phi_m}|m><m| explicitly and returns |<b|U|a>|^2
    (direction 'on_a') or |<b|U^dag|a>|^2 ('on_b'), per stacked basis.
    """
    u = (basis_m.vectors * np.exp(-1j * phases)[..., np.newaxis, :]) @ _adjoint(basis_m.vectors)
    if direction == "on_b":
        u = _adjoint(u)
    amp = basis_b.amplitudes((u @ basis_a.column(a)[..., np.newaxis])[..., 0])[..., b]
    return np.abs(amp) ** 2


def _draw_block(root_seed: int, dim: int, indices: range) -> tuple[list[Basis], np.ndarray]:
    """The stacked (M, A, B, F) bases and transform phases of quadruples ``indices``."""
    seeds = [_child_seeds(root_seed, dim, index, 5) for index in indices]
    stack = haar_random_bases(dim, [s[role] for role in range(4) for s in seeds])
    vectors = stack.vectors.reshape(4, len(seeds), dim, dim)
    values = _freeze(np.arange(dim, dtype=np.float64))  # A's, for the conditional error
    bases = [
        Basis(dim, vectors[role], stack.labels, values if role == 1 else None) for role in range(4)
    ]
    rngs = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(s[4]))) for s in seeds)
    return bases, np.array([rng.uniform(0.0, 2.0 * np.pi, dim) for rng in rngs])


def _block_worsts(m_b: Basis, a_b: Basis, b_b: Basis, f_b: Basis, phases) -> dict[str, np.ndarray]:
    """Worst deviation of each identity, one per quadruple of a stacked block.

    The d^3 compositions and back-action sides are reduced and dropped one
    at a time, so a block holds at most one of them beside its six tables.
    """
    b_ref = 0
    names = ["mab", "amb", "fmb", "fab", "mba", "abm"]
    t = ccp.ccp_tables(dict(m=m_b, a=a_b, b=b_b, f=f_b), names)
    t_mab, t_amb = t["mab"], t["amb"]

    def top(x, axes=(-2, -1)):  # worst per quadruple; NaN propagates
        return np.max(np.abs(x), axis=axes)

    chain = ccp.chain_compose(t["fmb"], t_mab)
    fab_mask = (chain.defined_mask & t["fab"].defined_mask)[..., np.newaxis, :, :]
    worst = {"chain rule": ccp.IdentitySides(chain.vals, t["fab"].vals, fab_mask, axes=3).worst()}
    del chain
    det = ccp.chain_compose(t_amb, t_mab)
    worst["determinism"] = ccp.determinism_residual(det).worst()
    worst["conditional error"] = top(ccp.ozawa_error(det), -1)
    del det
    back = ccp.backaction_check(t_mab)
    worst["back-action"] = back.worst()
    dephasing = (back.lhs.sum(axis=-3), back.rhs.sum(axis=-3), t_mab.defined_mask)
    worst["dephasing decomposition"] = ccp.IdentitySides(*dephasing, axes=2).worst()
    del back
    worst["column normalization"] = np.max([x.normalization_defect() for x in t.values()], axis=0)
    worst["ergodicity product"] = ccp.ergodicity_product(t_mab, t_amb).worst()
    worst["phase antisymmetry"] = ccp.phase_antisymmetry_check(t_mab, t_amb, t["mba"])
    worst["bayes conversion"] = ccp.bayes_convert(t_mab, t["abm"]).worst()

    f_a = np.abs(f_b.overlaps_with(a_b))  # |<f|a>|
    oracle = bridge.reference_gauge_amplitudes(m_b, a_b, b_b, b_ref)
    worst["vector reconstruction"] = top(bridge.reconstruct_vector(t_mab, b_ref) - oracle)
    inner = bridge.inner_product_ccp(f_b, a_b, m_b, b_b, b_ref)
    direct = bridge.inner_product_ccp(f_b, a_b, a_b, b_b, b_ref)  # intermediate basis A
    worst["inner product"] = np.maximum(top(np.abs(inner) - f_a), top(inner - direct))
    coherence = bridge.born_rule_coherence(f_b, a_b, m_b, (b_b, b_ref))
    worst["born coherence"] = top(coherence - f_a**2)
    joint = bridge.pure_state_joint((m_b, 0), a_b, b_b)
    psi = m_b.vectors[..., 0]
    born_a, born_b, born_f = (np.abs(x.amplitudes(psi)) ** 2 for x in (a_b, b_b, f_b))
    marginals = (top(joint.marginal_a() - born_a, -1), top(joint.marginal_b() - born_b, -1))
    worst["joint quasiprobability"] = np.max([np.abs(joint.total() - 1.0), *marginals], axis=0)
    worst["outcome prediction"] = top(bridge.predict_outcome_prob(joint, f_b) - born_f, -1)

    # Phase-transform oracle, both directions, one random profile.
    profile = PhaseProfile.from_phases(m_b, phases)
    worst["transform oracle"] = np.max([
        np.abs(transformed_prob(t_mab, profile, 0, 0, direction)
               - conjugation_prob(m_b, phases, a_b, 0, b_b, 0, direction))
        for direction in ("on_a", "on_b")
    ], axis=0)
    return worst


def run_verification_suite(dims: list[int], seeds_per_dim: int, root_seed: int) -> VerdictReport:
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
        size = max(1, BLOCK_BYTES // (16 * dim**3))
        for start in range(0, seeds_per_dim, size):
            indices = range(start, min(start + size, seeds_per_dim))
            bases, phases = _draw_block(root_seed, dim, indices)
            for name, values in _block_worsts(*bases, phases).items():
                worst[name] = float(np.max(values, initial=worst[name]))  # NaN propagates

    scale = max(1.0, max(dims) / 16.0)  # rounding grows with the dim^3 sums
    checks = tuple(
        IdentityCheck(name=name, tolerance=tol * scale, worst=worst[name])
        for name, tol in IDENTITY_TOLERANCES
    )
    return VerdictReport(tuple(dims), seeds_per_dim, root_seed, checks)
