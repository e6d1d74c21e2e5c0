"""The benchmark's workloads: inputs made from a seed, one operation, its check.

An operation is one call a user makes into qergo's public entry point:
``cli.main([...])`` for a CLI scenario, ``weak.scan_wavefunction`` for the
scan, which has no command.  The lattice scenario is two CLI calls, the
build with its column export and the render of that column, because the
render reads the build's output.  Every entry point is looked up on its
module at call time, so the traced run sees the wrapped function.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from qergo import basis, ccp, cli, lattice, weak

import checks

#: Per-operation root seeds drawn up front; a run never attempts more.
MAX_OPS = 100_000


class OpFailed(RuntimeError):
    pass


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qergo {' '.join(argv)} exited with {code}")


def program_quadruple(dim: int, seeds) -> tuple[list[np.ndarray], dict]:
    """qergo's Haar bases from ``seeds`` and the tables the verify sweep builds from them."""
    m, a, b, f = (basis.haar_random_basis(dim, int(s)) for s in seeds)
    t = {"mab": ccp.ccp_table(m, a, b), "fmb": ccp.ccp_table(f, m, b),
         "fab": ccp.ccp_table(f, a, b), "amb": ccp.ccp_table(a, m, b)}
    t["chain"] = ccp.chain_compose(t["fmb"], t["mab"])
    t["determinism"] = ccp.chain_compose(t["amb"], t["mab"])
    return [x.vectors for x in (m, a, b, f)], {k: (v.vals, v.defined_mask) for k, v in t.items()}


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """Inputs are made in ``__init__``; ``warm_up`` runs one reduced operation."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.op_seeds = np.random.SeedSequence(seed).generate_state(MAX_OPS, dtype=np.uint32)

    def op_dir(self, i: int) -> Path:
        return self.workdir / f"op{i}"

    def _write_config(self, name: str, payload: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return str(path)


class Verify(Workload):
    """``qergo verify`` over Haar-random quadruples, a fresh root seed per operation."""

    def __init__(self, seed, workdir, dims, seeds_per_dim):
        super().__init__(seed, workdir)
        self.dims, self.seeds_per_dim = list(dims), seeds_per_dim
        self.config = self._write_config("verify.json", {"params": {"dims": self.dims, "seeds_per_dim": seeds_per_dim}})
        self.warm_config = self._write_config("warm.json", {"params": {"dims": self.dims, "seeds_per_dim": 1}})

    def warm_up(self) -> None:
        _cli(["verify", "--config", self.warm_config, "--seed", "0", "--out", str(self.workdir / "warm" / "report")])

    def op(self, i: int) -> None:
        out = self.op_dir(i) / "report"
        _cli(["verify", "--config", self.config, "--seed", str(self.op_seeds[i]), "--out", str(out)])

    def check(self, i: int) -> dict[str, float]:
        root = int(self.op_seeds[i])
        report = checks.load_json((self.op_dir(i) / "report.json").read_text())
        checks.check_verify_report(report, self.dims, self.seeds_per_dim, root)
        checks.check_verify_sample(root, self.dims, self.seeds_per_dim, program_quadruple)
        return {"cli.output_bytes": _tree_bytes(self.op_dir(i))}


class Scan(Workload):
    """Lundeen-style scan of the box ground state on a d=64 lattice."""

    D, G, SHOTS = 64, 0.05, 100_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.system = lattice.build_lattice(self.D, 1.0, 1.0, 1.0, "box")
        self.p_ref = self.system.zero_momentum_index()
        self.results: dict[int, object] = {}

    def _scan(self, shots: int, seed: int):
        s = self.system
        return weak.scan_wavefunction((s.e_basis, 0), s.x_basis, s.p_basis, self.p_ref, self.G, shots, seed)

    def warm_up(self) -> None:
        self._scan(weak.MIN_SHOTS, 0)

    def op(self, i: int) -> None:
        self.results[i] = self._scan(self.SHOTS, int(self.op_seeds[i]))

    def check(self, i: int) -> dict[str, float]:
        s = self.system
        checks.check_scan(
            self.results.pop(i),
            np.array(s.x_basis.vectors),
            np.array(s.e_basis.vectors[:, 0]),
            np.array(s.p_basis.vectors[:, self.p_ref]),
            self.G,
            self.SHOTS,
        )
        return {}


class Lattice(Workload):
    """``qergo lattice`` on a d=1024 harmonic grid with a column export, then its profile render."""

    D, LENGTH = 1024, 20.0
    ENERGY_INDICES = (0, 2, 4)  # even levels: odd ones are orthogonal to the p=0 reference

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        energy_index = self.ENERGY_INDICES[seed % len(self.ENERGY_INDICES)]
        self.params = self._params(self.D, energy_index)
        self.config = self._write_config("lattice.json", self.params)
        self.warm_config = self._write_config("warm.json", self._params(64, 0))

    def _params(self, d: int, energy_index: int) -> dict:
        potential = {"kind": "harmonic", "omega": 1.0}
        column = {"energy_index": energy_index, "p_ref_index": d // 2}
        return {"params": {"d": d, "L": self.LENGTH, "mass": 1.0, "hbar": 1.0, "potential": potential, "column": column}}

    def _build_and_render(self, config: str, out: Path) -> None:
        _cli(["lattice", "--config", config, "--out", str(out)])
        _cli(["render", str(out) + ".csv", "--style", "profile", "--out", str(out)])

    def warm_up(self) -> None:
        self._build_and_render(self.warm_config, self.workdir / "warm" / "grid")

    def op(self, i: int) -> None:
        self._build_and_render(self.config, self.op_dir(i) / "grid")

    def check(self, i: int) -> dict[str, float]:
        out = self.op_dir(i)
        grid = checks.load_json((out / "grid.json").read_text())
        checks.check_lattice(grid, (out / "grid.csv").read_text(), (out / "grid.svg").read_text(), self.params)
        energies = np.array(grid["energies"], dtype=np.float64)
        return {"lattice.degenerate_blocks": checks.degenerate_blocks(energies), "cli.output_bytes": _tree_bytes(out)}


WORKLOADS = {
    "verify-small": lambda seed, work: Verify(seed, work, range(2, 9), 100),
    "verify-d32": lambda seed, work: Verify(seed, work, [32], 20),
    "weak-scan": Scan,
    "lattice-1024": Lattice,
}
