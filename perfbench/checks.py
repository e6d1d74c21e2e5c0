"""Output checks made apart from qergo.

Each check compares the program's output with values the benchmark computes
with numpy and the standard library alone, or tests a property the method
must have.  None compares against a stored copy of earlier output.
A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

EPS = np.finfo(np.float64).eps

#: The fifteen identities of a verify report, with their base tolerances.
#: A report may use a tighter tolerance, never a looser one.
VERIFY_TOLERANCES = {
    "column normalization": 1e-9,
    "chain rule": 1e-9,
    "determinism": 1e-9,
    "ergodicity product": 1e-10,
    "phase antisymmetry": 1e-9,
    "bayes conversion": 1e-10,
    "back-action": 1e-10,
    "dephasing decomposition": 1e-10,
    "vector reconstruction": 1e-9,
    "inner product": 1e-9,
    "born coherence": 1e-9,
    "joint quasiprobability": 1e-9,
    "outcome prediction": 1e-9,
    "conditional error": 1e-9,
    "transform oracle": 1e-10,
}

#: A basis the program draws must equal the benchmark's draw up to column phases within this.
BASIS_TOLERANCE = 1e-10

#: The tables of one quadruple: four conditional tables and two compositions.
TABLES = ("mab", "fmb", "fab", "amb", "chain", "determinism")

#: Identities that never hold exactly in floating point on Haar-random bases.
ROUNDED_IDENTITIES = ("chain rule", "determinism", "ergodicity product")

#: Relative cutoff below which |<b|a>| makes (a, b) undefined.
ORTHOGONALITY_CUTOFF = 1e-10

#: Weak scan: component exceedances of the gate allowed per operation.
SCAN_EXCEEDANCE_ALLOWANCE = 2

#: Weak scan: a standard error may lie this many of its own sigmas from its closed form.
SCAN_SE_SIGMAS = 6.0

#: Lattice: number of lowest oscillator levels compared with (n + 1/2) hbar omega.
OSCILLATOR_LEVELS = 10


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def tolerance_scale(dims) -> float:
    return max(1.0, max(dims) / 16.0)


# --- verify -----------------------------------------------------------------


def check_verify_report(report: dict, dims, seeds_per_dim: int, root_seed: int) -> None:
    require(report.get("dims") == list(dims), f"report dims {report.get('dims')} != {dims}")
    require(report.get("seeds_per_dim") == seeds_per_dim, "report seeds_per_dim differs")
    require(report.get("root_seed") == root_seed, "report root_seed differs")
    checks = report.get("checks", [])
    names = [c.get("name") for c in checks]
    require(sorted(names) == sorted(VERIFY_TOLERANCES), f"report has checks {names}")
    scale = tolerance_scale(dims)
    for c in checks:
        worst, tol = c["worst"], c["tolerance"]
        require(isinstance(worst, (int, float)) and math.isfinite(worst), f"{c['name']}: worst {worst!r}")
        require(0.0 <= worst < tol, f"{c['name']}: worst {worst!r} not below tolerance {tol!r}")
        require(tol <= VERIFY_TOLERANCES[c["name"]] * scale * (1 + 1e-12), f"{c['name']}: tolerance {tol!r} loosened")
        require(c.get("pass") is True, f"{c['name']}: not marked pass")
        # A sweep that computed these identities meets rounding error
        # somewhere; a worst of exactly 0 means every deviation was NaN
        # (max(0.0, nan) is 0.0) or none was computed.
        require(c["name"] not in ROUNDED_IDENTITIES or worst > 0.0, f"{c['name']}: worst is exactly 0")
    require(report.get("all_pass") is True, "report all_pass is not true")


def quadruple_seeds(root_seed: int, dim: int, index: int) -> list[int]:
    """The five child seeds of one (dim, index) quadruple of a verify sweep."""
    ss = np.random.SeedSequence((root_seed, dim, index))
    return [int(s) for s in ss.generate_state(5, dtype=np.uint64)]


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Mezzadri's construction: QR of a complex Ginibre matrix, R-diagonal phases fixed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def conditionals(m: np.ndarray, a: np.ndarray, b: np.ndarray):
    """p(m|a,b) = <b|m><m|a>/<b|a> as [m, a, b], and the defined (a, b) mask."""
    b_a = b.conj().T @ a  # [b, a]
    b_m = b.conj().T @ m  # [b, m]
    m_a = m.conj().T @ a  # [m, a]
    mask = np.abs(b_a.T) > ORTHOGONALITY_CUTOFF * np.abs(b_a).max()  # [a, b]
    vals = b_m.T[:, np.newaxis, :] * m_a[:, :, np.newaxis] / b_a.T[np.newaxis, :, :]
    return vals, mask


def reference_tables(m, a, b, f) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The six tables of ``TABLES`` as (vals, defined mask), computed with numpy."""
    t = {"mab": conditionals(m, a, b), "fmb": conditionals(f, m, b),
         "fab": conditionals(f, a, b), "amb": conditionals(a, m, b)}
    for name, outer in (("chain", "fmb"), ("determinism", "amb")):
        mask = t["mab"][1] & t[outer][1].all(axis=0)[np.newaxis, :]
        vals = np.einsum("fmb,mab->fab", t[outer][0], t["mab"][0])
        t[name] = (np.where(mask, vals, 0.0), mask)
    return t


def identity_deviations(tables, m, a) -> dict[str, float]:
    """Worst deviation of the chain rule, determinism and ergodicity product."""
    t_mab, mask_ab = tables["mab"]
    t_amb, mask_mb = tables["amb"]
    chain, ok = tables["chain"]
    det, _ = tables["determinism"]
    t_fab, _ = tables["fab"]
    dim = m.shape[0]
    chain_dev = np.abs(chain - t_fab)
    det_dev = np.abs(det - np.eye(dim)[:, :, np.newaxis])
    prod = np.transpose(t_amb, (1, 0, 2)) * t_mab  # [m, a, b]
    p_m_a = np.abs(m.conj().T @ a) ** 2
    ergo_ok = mask_ab[np.newaxis, :, :] & mask_mb[:, np.newaxis, :]
    ergo = np.abs(prod - p_m_a[:, :, np.newaxis])
    return {
        "chain rule": float(chain_dev[:, ok].max()),
        "determinism": float(det_dev[:, ok].max()),
        "ergodicity product": float(ergo[np.broadcast_to(ergo_ok, ergo.shape)].max()),
    }


def sample_indices(root_seed: int, dims, seeds_per_dim: int) -> list[tuple[int, int]]:
    """One quadruple index per dim, drawn from the operation's root seed."""
    rng = np.random.default_rng(root_seed)
    return [(dim, int(rng.integers(seeds_per_dim))) for dim in dims]


def check_verify_sample(root_seed: int, dims, seeds_per_dim: int, program_quadruple) -> None:
    """Compare the program's bases and tables with numpy's on sampled quadruples.

    ``program_quadruple(dim, seeds)`` returns the program's four unitaries
    (m, a, b, f), drawn from the first four child seeds, and its tables
    named in ``TABLES``, as (vals, defined mask).  Its unitaries must equal
    numpy's draw up to column phases.  Every table value must be finite,
    the masks must agree, and each defined value must equal numpy's
    <b|m><m|a>/<b|a>, or its composition, within the identity tolerance
    relative to max(1, |value|).  The conditionals do not depend on the
    column phases, so qergo's gauge fixing is not repeated.  Then the chain
    rule, determinism and ergodicity product must hold on the program's
    tables.
    """
    scale = tolerance_scale(dims)
    tol = VERIFY_TOLERANCES["chain rule"] * scale
    for dim, index in sample_indices(root_seed, dims, seeds_per_dim):
        where = f"d={dim} index {index}"
        seeds = quadruple_seeds(root_seed, dim, index)[:4]
        ref_quad = [haar_unitary(dim, s) for s in seeds]
        quad, tables = program_quadruple(dim, seeds)
        for name, ref, got in zip("mabf", ref_quad, quad):
            got = np.asarray(got)
            require(got.shape == ref.shape and np.all(np.isfinite(got)), f"{where}: basis {name} shape or NaN")
            phases = np.sum(ref.conj() * got, axis=0)
            require(np.all(np.abs(phases) > 0.5), f"{where}: basis {name} is not the sweep's draw")
            dev = float(np.max(np.abs(got - ref * (phases / np.abs(phases)))))
            require(dev <= BASIS_TOLERANCE, f"{where}: basis {name} differs from the draw by {dev!r}")
        refs = reference_tables(*ref_quad)
        for name in TABLES:
            vals, mask = (np.asarray(x) for x in tables[name])
            ref_vals, ref_mask = refs[name]
            require(vals.shape == ref_vals.shape and np.all(np.isfinite(vals)), f"{where}: table {name} shape or non-finite value")
            require(np.array_equal(mask, ref_mask), f"{where}: table {name} defined mask differs")
            dev = np.abs(vals - ref_vals) / np.maximum(1.0, np.abs(ref_vals))
            worst = float(np.max(dev[:, mask]))
            require(worst <= tol, f"{where}: table {name} differs from numpy by {worst!r} (relative) >= {tol!r}")
        for name, dev in identity_deviations(tables, *ref_quad[:2]).items():
            limit = VERIFY_TOLERANCES[name] * scale
            require(math.isfinite(dev) and dev < limit, f"{where}: {name} deviation {dev!r} >= {limit!r}")


# --- weak scan --------------------------------------------------------------


def readout_means(w: np.ndarray, g: float) -> np.ndarray:
    """Closed-form mean of the two-Gaussian pointer readout (Re <q>/g, Im 2<k>/g)."""
    att = math.exp(-(g**2) / 8.0)
    cross = w - np.abs(w) ** 2
    z = np.abs(w) ** 2 + np.abs(1 - w) ** 2 + 2.0 * cross.real * att
    return (np.abs(w) ** 2 + cross.real * att) / z + 1j * (w.imag * att / z)


def readout_std_errs(w: np.ndarray, g: float, shots: int, rate: float):
    """Closed-form standard errors of the two readouts, and their relative spread.

    The post-selected pointer density is a three-Gaussian mixture:
    |w|^2 N(g, 1) + |1-w|^2 N(0, 1) + 2 Re(w conj(1-w)) e^{-g^2/8} N(g/2, 1)
    in position, and the same weights on e^{-ikg} interference over
    N(0, 1/4) in momentum.  Their moments give the readout variances.  A
    point keeps n = shots * rate * z of its shots on average, with z the
    mixture's norm, so se = sd / (g sqrt(n)), and 2 sd / (g sqrt(n)) for
    the momentum readout.  The relative spread of a reported se combines
    the sample sd's sqrt(1/(2n)), for a near-Gaussian readout, with half
    the binomial spread of n.
    """
    att = math.exp(-(g**2) / 8.0)
    c = w - np.abs(w) ** 2  # w conj(1 - w)
    z = np.abs(w) ** 2 + np.abs(1 - w) ** 2 + 2.0 * c.real * att
    mean_q = g * (np.abs(w) ** 2 + c.real * att) / z
    var_q = 1.0 + g**2 * (np.abs(w) ** 2 + 0.5 * c.real * att) / z - mean_q**2
    mean_k = g * c.imag * att / (2.0 * z)
    second_k = ((np.abs(w) ** 2 + np.abs(1 - w) ** 2) / 4.0 + 2.0 * c.real * att * (0.25 - g**2 / 16.0)) / z
    var_k = second_k - mean_k**2
    p_select = np.minimum(1.0, rate * z)
    n = shots * p_select
    se_re = np.sqrt(var_q) / (g * np.sqrt(n))
    se_im = 2.0 * np.sqrt(var_k) / (g * np.sqrt(n))
    spread = np.sqrt(1.0 / (2.0 * n) + (1.0 - p_select) / (4.0 * n))
    return se_re, se_im, spread


def scan_conditionals(x_vecs: np.ndarray, e_vec: np.ndarray, p_vec: np.ndarray) -> np.ndarray:
    """p(x|E,p) for every position x, from the basis vectors."""
    return (p_vec.conj() @ x_vecs) * (x_vecs.conj().T @ e_vec) / np.vdot(p_vec, e_vec)


def check_scan(scan, x_vecs, e_vec, p_vec, g: float, shots: int) -> int:
    """Check one wavefunction scan; returns the number of gate exceedances."""
    dim = x_vecs.shape[0]
    values = np.asarray(scan.values)
    se = np.stack([np.asarray(scan.std_err_re), np.asarray(scan.std_err_im)])
    require(values.shape == (dim,) and se.shape == (2, dim), "scan arrays have the wrong shape")
    require(np.all(np.isfinite(values)) and np.all(np.isfinite(se)) and np.all(se > 0), "non-finite scan output")
    require(scan.shots_per_point == shots and scan.coupling == g, "scan settings differ from the request")

    rate_exact = abs(np.vdot(p_vec, e_vec)) ** 2
    sigma = math.sqrt(rate_exact * (1 - rate_exact) / (dim * shots))
    rate = scan.postselection_rate
    require(abs(rate - rate_exact) <= 5 * sigma, f"pooled post-selection rate {rate!r} vs {rate_exact!r} (sigma {sigma:.2e})")

    w = scan_conditionals(x_vecs, e_vec, p_vec)
    scale = math.sqrt(rate * dim)
    analytic = np.asarray(scan.analytic)
    require(np.max(np.abs(analytic - scale * w)) <= 1e-9 * scale * np.max(np.abs(w)), "scan analytic column differs")
    bias = readout_means(w, g) - w
    dev = values - scale * w
    gate_re = np.maximum(4.0 * se[0], scale * np.abs(bias.real))
    gate_im = np.maximum(4.0 * se[1], scale * np.abs(bias.imag))
    bad = int(np.sum(np.abs(dev.real) > gate_re) + np.sum(np.abs(dev.imag) > gate_im))
    require(bad <= SCAN_EXCEEDANCE_ALLOWANCE, f"{bad} of {2 * dim} scan components outside the gate")

    # The gate above widens with se, so se itself is held to its closed form.
    exp_re, exp_im, spread = readout_std_errs(w, g, shots, rate_exact)
    ratio = se / (scale * np.stack([exp_re, exp_im]))
    worst = float(np.max(np.abs(ratio - 1.0) / spread))
    require(worst <= SCAN_SE_SIGMAS, f"scan standard errors {worst:.1f} sigma from their closed form "
                                     f"(ratios {ratio.min():.4f}..{ratio.max():.4f})")
    return bad


# --- lattice ----------------------------------------------------------------


def degenerate_blocks(energies: np.ndarray) -> int:
    """Runs of neighbouring levels closer than 1e-8 * max(|E|, 1)."""
    tol = 1e-8 * max(float(np.max(np.abs(energies))), 1.0)
    close = np.diff(energies) <= tol
    starts = close & ~np.concatenate(([False], close[:-1]))
    return int(np.sum(starts))


def check_lattice(grid: dict, column_csv: str, svg: str, config: dict) -> None:
    params = config["params"]
    d, length, hbar = params["d"], params["L"], params["hbar"]
    omega = params["potential"]["omega"]
    require(grid["config"]["d"] == d and grid["config"]["potential"]["kind"] == "harmonic", "grid config differs")
    energies = np.array(grid["energies"], dtype=np.float64)
    require(energies.shape == (d,) and np.all(np.isfinite(energies)), "energies missing or non-finite")
    require(np.all(np.diff(energies) >= 0), "energies are not ascending")
    # eigh is backward stable: each level is exact for H + dH with
    # ||dH|| <= d * eps * ||H||, and Weyl's bound moves it by at most that.
    bound = d * EPS * float(np.max(np.abs(energies)))
    exact = hbar * omega * (np.arange(OSCILLATOR_LEVELS) + 0.5)
    worst = float(np.max(np.abs(energies[:OSCILLATOR_LEVELS] - exact)))
    require(worst <= bound, f"oscillator levels off by {worst:.3e} (bound {bound:.3e})")

    rows = list(csv.reader(io.StringIO(column_csv)))
    require(rows and rows[0][:3] == ["x", "re", "im"], "column CSV header")
    body = np.array(rows[1:], dtype=np.float64)
    require(body.shape[0] == d, f"column has {body.shape[0]} rows for d={d}")
    require(np.allclose(body[:, 0], np.arange(d) * length / d, rtol=0, atol=1e-12 * length), "column positions")
    total = complex(body[:, 1].sum(), body[:, 2].sum())
    require(abs(total - 1.0) <= 1e-9, f"column sums to {total!r}, not 1")

    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    require(root.tag.endswith("svg"), f"SVG root is {root.tag}")
    require(any(el.tag.endswith("polyline") for el in root.iter()), "SVG profile has no polyline")


def load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
