"""Batch command-line front end: scenario configs in, verdicts and exports out.

Exit codes: 0 all checks passed, 1 identity violation, 2 configuration or
usage error, 3 internal numeric failure.  Every command is deterministic
for a fixed (config, seed) pair.  The QERGO_THREADS environment variable
must be a positive integer if set, but it caps nothing: numpy's BLAS
library picks its own thread count, so dense linear algebra such as the
lattice ``eigh`` may run on every core.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import lattice as lat
from .basis import (
    MIN_DIM, Basis, computational_basis, fourier_basis, haar_random_basis, make_basis,
)
from .bridge import pure_state_joint
from .errors import BadGrid, ConfigError, NumericsError, ParseError, QergoError
from .render import render_distribution
from .transform import quantized_spectrum_check
from .verify import MAX_DIM, run_verification_suite
from .weak import MAX_COUPLING, MIN_SHOTS, simulate_sequential, simulate_weak_value

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3

VALID_KINDS = ("verify", "kd_table", "weak_run", "sequential_run", "lattice", "quantize")


@dataclass(frozen=True)
class Scenario:
    """Validated batch scenario: what to run, with which inputs, to where."""

    kind: str
    params: dict[str, Any]
    seed: int | None
    output: str


def thread_cap() -> int:
    raw = os.environ.get("QERGO_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"QERGO_THREADS={raw!r} is not an integer") from None
    if cap < 1:
        raise ConfigError(f"QERGO_THREADS must be >= 1, got {cap}")
    return cap


def _need(params: dict, key: str, types, what: str):
    if key not in params:
        raise ConfigError(f"missing required parameter {key!r} ({what})")
    value = params[key]
    if not isinstance(value, types):
        raise ConfigError(f"parameter {key!r} must be {what}, got {type(value).__name__}")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("this command requires --config PATH")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return payload


def build_scenario(kind: str, payload: dict, seed_flag: int | None, out: str) -> Scenario:
    params = payload.get("params", payload)
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    seed = seed_flag if seed_flag is not None else payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    _validate_params(kind, params)
    return Scenario(kind=kind, params=params, seed=seed, output=out)


def basis_from_spec(spec: Any, dim: int) -> Basis:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"basis spec must be an object with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "computational":
        return computational_basis(dim)
    if kind == "fourier":
        return fourier_basis(dim)
    if kind == "haar":
        seed = _need(spec, "seed", int, "an integer")
        return haar_random_basis(dim, seed)
    if kind == "explicit":
        re = _need(spec, "re", list, "a nested list")
        im = _need(spec, "im", list, "a nested list")
        mat = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
        return make_basis(mat, labels=spec.get("labels"))
    raise ConfigError(f"unknown basis kind {kind!r}")


def _outcome_from_spec(spec: Any, dim: int) -> tuple[Basis, int]:
    if not isinstance(spec, dict):
        raise ConfigError("outcome spec must be an object {basis, index}")
    basis = basis_from_spec(_need(spec, "basis", dict, "a basis spec"), dim)
    index = _need(spec, "index", int, "an integer")
    if not 0 <= index < dim:
        raise ConfigError(f"outcome index {index} outside 0..{dim - 1}")
    return basis, index


def _validate_params(kind: str, params: dict) -> None:
    """Fail-fast validation: no scenario computation before this passes."""
    if kind == "verify":
        dims = _need(params, "dims", list, "a list of integers")
        if not dims or not all(isinstance(d, int) and MIN_DIM <= d <= MAX_DIM for d in dims):
            raise ConfigError(f"dims must be integers within {MIN_DIM}..{MAX_DIM}, got {dims}")
        seeds = _need(params, "seeds_per_dim", int, "an integer")
        if seeds < 1:
            raise ConfigError("seeds_per_dim must be >= 1")
    elif kind == "kd_table":
        if _need(params, "dim", int, "an integer") < MIN_DIM:
            raise ConfigError(f"dim must be >= {MIN_DIM}")
        for key in ("state", "row_basis", "col_basis"):
            _need(params, key, dict, "an object")
    elif kind == "weak_run":
        if _need(params, "dim", int, "an integer") < MIN_DIM:
            raise ConfigError(f"dim must be >= {MIN_DIM}")
        for key in ("initial", "final", "meter_basis"):
            _need(params, key, dict, "an object")
        _need(params, "m_index", int, "an integer")
        g = _need(params, "g", (int, float), "a number")
        if not 0 < g <= MAX_COUPLING:
            raise ConfigError(f"g must lie in (0, {MAX_COUPLING}]")
        shots = _need(params, "shots", int, "an integer")
        if shots < MIN_SHOTS:
            raise ConfigError(f"shots must be >= {MIN_SHOTS}")
    elif kind == "sequential_run":
        if _need(params, "dim", int, "an integer") < MIN_DIM:
            raise ConfigError(f"dim must be >= {MIN_DIM}")
        for key in ("initial", "m_basis", "b_basis"):
            _need(params, key, dict, "an object")
        shots = _need(params, "shots", int, "an integer")
        if shots < MIN_SHOTS:
            raise ConfigError(f"shots must be >= {MIN_SHOTS}")
    elif kind == "lattice":
        d = _need(params, "d", int, "an integer")
        if not lat.valid_grid_size(d):
            raise ConfigError(f"d must be even and >= {lat.MIN_GRID_SIZE}")
        for key in ("L", "mass", "hbar"):
            v = _need(params, key, (int, float), "a number")
            if v <= 0:
                raise ConfigError(f"{key} must be positive")
        _need(params, "potential", dict, "an object")
        column = params.get("column")
        if column is not None:
            if not isinstance(column, dict):
                raise ConfigError("column must be an object")
            for key in ("energy_index", "p_ref_index"):
                idx = _need(column, key, int, "an integer")
                if not 0 <= idx < d:
                    raise ConfigError(f"{key} {idx} outside 0..{d - 1}")
    elif kind == "quantize":
        if "values" in params:
            values = params["values"]
            if not isinstance(values, list) or len(values) < 2:
                raise ConfigError("values must be a list of at least two numbers")
        elif "lattice" in params:
            _need(params, "lattice", dict, "an object")
            _need(params, "levels", int, "an integer")
        else:
            raise ConfigError("quantize needs either 'values' or 'lattice'")
        period = _need(params, "period", (int, float), "a number")
        if period <= 0:
            raise ConfigError("period must be positive")
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _run_verify(scenario: Scenario) -> int:
    params = scenario.params
    seed = scenario.seed if scenario.seed is not None else 0
    started = time.perf_counter()
    report = run_verification_suite(params["dims"], params["seeds_per_dim"], seed)
    elapsed = time.perf_counter() - started
    for line in report.lines():
        print(line)
    print(f"wall time: {elapsed:.2f} s")  # console only; the file stays deterministic
    _write(Path(scenario.output + ".json"), report.to_json(indent=2) + "\n")
    return EXIT_OK if report.all_pass else EXIT_IDENTITY_FAILURE


def _run_kd(scenario: Scenario, fmt: str) -> int:
    params = scenario.params
    dim = params["dim"]
    state = _outcome_from_spec(params["state"], dim)
    row = basis_from_spec(params["row_basis"], dim)
    col = basis_from_spec(params["col_basis"], dim)
    joint = pure_state_joint(state, row, col)
    if fmt == "csv":
        _write(Path(scenario.output + ".csv"), joint.to_csv())
    else:
        _write(Path(scenario.output + ".json"), joint.to_json(indent=2) + "\n")
    return EXIT_OK


def _run_weak(scenario: Scenario) -> int:
    params = scenario.params
    dim = params["dim"]
    seed = scenario.seed if scenario.seed is not None else 0
    report = simulate_weak_value(
        _outcome_from_spec(params["initial"], dim),
        _outcome_from_spec(params["final"], dim),
        basis_from_spec(params["meter_basis"], dim),
        params["m_index"],
        float(params["g"]),
        params["shots"],
        seed,
    )
    print(
        f"estimate: {report.estimate.real:+.6f}{report.estimate.imag:+.6f}i  "
        f"(analytic {report.analytic_ref.real:+.6f}{report.analytic_ref.imag:+.6f}i)"
    )
    _write(Path(scenario.output + ".json"), report.to_json(indent=2) + "\n")
    return EXIT_OK


def _run_seq(scenario: Scenario, fmt: str) -> int:
    params = scenario.params
    dim = params["dim"]
    seed = scenario.seed if scenario.seed is not None else 0
    run = simulate_sequential(
        _outcome_from_spec(params["initial"], dim),
        basis_from_spec(params["m_basis"], dim),
        basis_from_spec(params["b_basis"], dim),
        params["shots"],
        seed,
    )
    if fmt == "csv":
        _write(Path(scenario.output + ".csv"), run.to_csv())
    else:
        _write(Path(scenario.output + ".json"), run.to_json(indent=2) + "\n")
    return EXIT_OK


def _run_lattice(scenario: Scenario) -> int:
    params = scenario.params
    sys_ = lat.build_lattice(
        params["d"], float(params["L"]), float(params["mass"]), float(params["hbar"]),
        params["potential"],
    )
    payload = {
        "config": json.loads(sys_.config_json()),
        "energies": [float(e) for e in sys_.energies],
    }
    _write(
        Path(scenario.output + ".json"),
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
    )
    column = params.get("column")
    if column is not None:
        col = lat.ccp_xEp(sys_, column["energy_index"], column["p_ref_index"])
        _write(Path(scenario.output + ".csv"), lat.distribution_csv(sys_, col))
    return EXIT_OK


def _run_quantize(scenario: Scenario) -> int:
    params = scenario.params
    hbar = float(params.get("hbar", 1.0))
    rtol = float(params.get("rtol", 1e-8))
    if "values" in params:
        values = [float(v) for v in params["values"]]
    else:
        spec = params["lattice"]
        sys_ = lat.build_lattice(
            spec["d"], float(spec["L"]), float(spec["mass"]), float(spec["hbar"]),
            spec["potential"],
        )
        hbar = sys_.hbar
        values = [float(e) for e in sys_.energies[: params["levels"]]]
    result = quantized_spectrum_check(values, float(params["period"]), hbar, rtol=rtol)
    payload = {"pass": result.passed, "max_defect": result.max_defect, "values": values}
    print(f"{'PASS' if result.passed else 'FAIL'}  max_defect={result.max_defect:.3e}")
    _write(
        Path(scenario.output + ".json"),
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
    )
    return EXIT_OK


def _run_render(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from None
    svg = render_distribution(text, args.style)
    _write(Path(args.out + ".svg"), svg)
    return EXIT_OK


_COMMAND_KINDS = {
    "verify": "verify",
    "kd": "kd_table",
    "weak": "weak_run",
    "seq": "sequential_run",
    "lattice": "lattice",
    "quantize": "quantize",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qergo",
        description="Verify conditional-probability identities and export distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "kd", "weak", "seq", "lattice", "quantize"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out", help="output path prefix")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p = sub.add_parser("render")
    p.add_argument("input", help="CSV or JSON export to render")
    p.add_argument("--style", choices=("heatmap", "profile"), required=True)
    p.add_argument("--out", default="out", help="output path prefix")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        thread_cap()
        if args.command == "render":
            return _run_render(args)
        kind = _COMMAND_KINDS[args.command]
        if args.command == "verify" and args.config is None:
            payload: dict[str, Any] = {"params": {"dims": list(range(2, 9)), "seeds_per_dim": 10}}
        else:
            payload = _load_config(args.config)
        scenario = build_scenario(kind, payload, args.seed, args.out)
        if kind == "verify":
            return _run_verify(scenario)
        if kind == "kd_table":
            return _run_kd(scenario, args.format)
        if kind == "weak_run":
            return _run_weak(scenario)
        if kind == "sequential_run":
            return _run_seq(scenario, args.format)
        if kind == "lattice":
            return _run_lattice(scenario)
        return _run_quantize(scenario)
    except (BadGrid, ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'qergo <command> --help' for usage", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except QergoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
