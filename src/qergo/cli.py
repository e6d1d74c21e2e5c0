"""Batch command-line front end: scenario configs in, verdicts and exports out.

Each command is one ``COMMANDS`` entry: the flags it reads, its config parser
and its runner.  The parser reads every field of the config once, nested
specs included, into the keyword arguments of the library call its runner
makes, so a malformed config exits 2 before any computation.  Exit codes:
0 all checks passed, 1 identity violation (a ``verify`` or ``quantize``
FAIL), 2 configuration or usage error, 3 internal numeric failure.  Every
command is deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import lattice as lat
from .basis import (
    MIN_DIM, Basis, _json_complex, computational_basis, fourier_basis, haar_random_basis,
    make_basis,
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


@dataclass(frozen=True)
class Scenario:
    """Parsed batch scenario: its runner's library arguments, root seed and output prefix."""

    params: dict[str, Any]
    seed: int
    output: str


def _need(params: dict, key: str, types, what: str):
    if key not in params:
        raise ConfigError(f"missing required parameter {key!r} ({what})")
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, types):  # JSON true is no number
        raise ConfigError(f"parameter {key!r} must be {what}, got {type(value).__name__}")
    return value


def _number(params: dict, key: str, default: float | None = None, positive: bool = False) -> float:
    """A JSON number as a float; a NaN passes, to the library's own finiteness checks."""
    if default is not None and key not in params:
        return default
    try:
        value = float(_need(params, key, (int, float), "a number"))
    except OverflowError:  # an integer literal past the float range
        raise ConfigError(f"{key} lies past the float range") from None
    if positive and value <= 0:
        raise ConfigError(f"{key} must be positive")
    return value


def _integer(params: dict, key: str, low: int, high: int | None = None) -> int:
    """An integer within low..high, or at least ``low`` when ``high`` is None."""
    value = _need(params, key, int, "an integer")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"within {low}..{high}"
        raise ConfigError(f"{key} must be {bound}, got {value}")
    return value


def _load_config(path: str) -> dict:
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


def build_scenario(kind: str, payload: dict | None, seed_flag: int | None, out: str) -> Scenario:
    """Parse a command's config payload into its runner's library arguments.

    Every field, nested basis, outcome, grid and column specs included, is read
    and checked here, so a malformed config raises before any computation runs.
    """
    if kind not in COMMANDS or COMMANDS[kind].parse is None:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    if payload is None:
        raise ConfigError("this command requires --config PATH")
    params = payload.get("params", payload)
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    seed = seed_flag if seed_flag is not None else payload.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError("seed must be an integer")
    return Scenario(params=COMMANDS[kind].parse(params), seed=seed or 0, output=out)


def basis_from_spec(spec: Any, dim: int) -> Basis:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"basis spec must be an object with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "computational":
        return computational_basis(dim)
    if kind == "fourier":
        return fourier_basis(dim)
    if kind == "haar":
        return haar_random_basis(dim, _need(spec, "seed", int, "an integer"))
    if kind == "explicit":
        _need(spec, "re", list, "a nested list")
        _need(spec, "im", list, "a nested list")
        labels = spec.get("labels")
        if not (labels is None or isinstance(labels, list) and all(type(s) is str for s in labels)):
            raise ConfigError(f"explicit basis labels must be a list of strings, got {labels!r}")
        try:
            basis = make_basis(_json_complex(spec, "re", "im"), labels=labels)
        except QergoError as exc:  # bad re/im arrays, or not an orthonormal square matrix
            raise ConfigError(f"explicit basis: {exc}") from None
        if basis.dim != dim:
            raise ConfigError(f"explicit basis of dim {basis.dim} for dim {dim}")
        return basis
    raise ConfigError(f"unknown basis kind {kind!r}")


def _basis(params: dict, key: str, dim: int) -> Basis:
    return basis_from_spec(_need(params, key, dict, "a basis spec"), dim)


def _outcome(params: dict, key: str, dim: int) -> tuple[Basis, int]:
    spec = _need(params, key, dict, "an outcome spec {basis, index}")
    return _basis(spec, "basis", dim), _integer(spec, "index", 0, dim - 1)


def _parse_verify(params: dict) -> dict:
    dims = _need(params, "dims", list, "a list of integers")
    if not dims or not all(isinstance(d, int) and MIN_DIM <= d <= MAX_DIM for d in dims):
        raise ConfigError(f"dims must be integers within {MIN_DIM}..{MAX_DIM}, got {dims}")
    return {"dims": dims, "seeds_per_dim": _integer(params, "seeds_per_dim", 1)}


def _parse_kd(params: dict) -> dict:
    dim = _integer(params, "dim", MIN_DIM)
    return {
        "state": _outcome(params, "state", dim),
        "basis_a": _basis(params, "row_basis", dim),
        "basis_b": _basis(params, "col_basis", dim),
    }


def _parse_weak(params: dict) -> dict:
    dim = _integer(params, "dim", MIN_DIM)
    g = _number(params, "g")
    if not 0 < g <= MAX_COUPLING:
        raise ConfigError(f"g must lie in (0, {MAX_COUPLING}]")
    return {
        "initial": _outcome(params, "initial", dim),
        "final": _outcome(params, "final", dim),
        "basis_m": _basis(params, "meter_basis", dim),
        "m": _integer(params, "m_index", 0, dim - 1),
        "g": g,
        "shots": _integer(params, "shots", MIN_SHOTS),
    }


def _parse_seq(params: dict) -> dict:
    dim = _integer(params, "dim", MIN_DIM)
    return {
        "initial": _outcome(params, "initial", dim),
        "basis_m": _basis(params, "m_basis", dim),
        "basis_b": _basis(params, "b_basis", dim),
        "shots": _integer(params, "shots", MIN_SHOTS),
    }


def _parse_grid(spec: dict) -> dict:
    """``build_lattice``'s arguments from a lattice spec {d, L, mass, hbar, potential}."""
    d = _need(spec, "d", int, "an integer")
    if not lat.valid_grid_size(d):
        raise ConfigError(f"d must be even and >= {lat.MIN_GRID_SIZE}")
    return {
        "d": d,
        "length": _number(spec, "L", positive=True),
        "mass": _number(spec, "mass", positive=True),
        "hbar": _number(spec, "hbar", positive=True),
        "potential": _need(spec, "potential", dict, "an object"),  # read by build_lattice
    }


def _parse_lattice(params: dict) -> dict:
    grid, column = _parse_grid(params), None
    if params.get("column") is not None:
        spec, last = _need(params, "column", dict, "an object"), grid["d"] - 1
        column = (_integer(spec, "energy_index", 0, last), _integer(spec, "p_ref_index", 0, last))
    return {**grid, "column": column}


def _parse_quantize(params: dict) -> dict:
    """``quantized_spectrum_check``'s arguments; a lattice and ``levels`` stand in for values."""
    if "values" in params:
        values = _need(params, "values", list, "a list of numbers")
        if len(values) < 2 or not all(type(v) in (int, float) for v in values):  # bool is no number
            raise ConfigError("values must be a list of at least two numbers")
        source = {"generator_values": [float(v) for v in values]}
    elif "lattice" in params:
        grid = _parse_grid(_need(params, "lattice", dict, "an object"))
        levels = _integer(params, "levels", 2, grid["d"])
        source = {"lattice": grid, "levels": levels, "hbar": grid["hbar"]}
    else:
        raise ConfigError("quantize needs either 'values' or 'lattice'")
    return {
        "period": _number(params, "period", positive=True),
        "hbar": _number(params, "hbar", default=1.0),
        "rtol": _number(params, "rtol", default=1e-8),
        **source,  # a lattice's own hbar replaces the top-level one
    }


def _write(prefix: str, ext: str, text: str) -> None:
    path = Path(prefix + ext)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _export(prefix: str, fmt: str, result) -> None:
    """Write ``result`` as PREFIX.csv or, indented, as PREFIX.json."""
    if fmt == "csv":
        _write(prefix, ".csv", result.to_csv())
    else:
        _write(prefix, ".json", result.to_json(indent=2) + "\n")


def _run_verify(scenario: Scenario, args) -> int:
    started = time.perf_counter()
    report = run_verification_suite(**scenario.params, root_seed=scenario.seed)
    elapsed = time.perf_counter() - started
    for line in report.lines():
        print(line)
    print(f"wall time: {elapsed:.2f} s")  # console only; the file stays deterministic
    _export(scenario.output, "json", report)
    return EXIT_OK if report.all_pass else EXIT_IDENTITY_FAILURE


def _run_kd(scenario: Scenario, args) -> int:
    _export(scenario.output, args.format, pure_state_joint(**scenario.params))
    return EXIT_OK


def _run_weak(scenario: Scenario, args) -> int:
    report = simulate_weak_value(**scenario.params, seed=scenario.seed)
    print(
        f"estimate: {report.estimate.real:+.6f}{report.estimate.imag:+.6f}i  "
        f"(analytic {report.analytic_ref.real:+.6f}{report.analytic_ref.imag:+.6f}i)"
    )
    _export(scenario.output, "json", report)
    return EXIT_OK


def _run_seq(scenario: Scenario, args) -> int:
    run = simulate_sequential(**scenario.params, seed=scenario.seed)
    _export(scenario.output, args.format, run)
    return EXIT_OK


def _run_lattice(scenario: Scenario, args) -> int:
    grid = dict(scenario.params)
    column = grid.pop("column")
    sys_ = lat.build_lattice(**grid)
    payload = {"config": json.loads(sys_.config_json()), "energies": sys_.energies.tolist()}
    _write(scenario.output, ".json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if column is not None:
        _write(scenario.output, ".csv", lat.distribution_csv(sys_, lat.ccp_xEp(sys_, *column)))
    return EXIT_OK


def _run_quantize(scenario: Scenario, args) -> int:
    params = dict(scenario.params)
    if "lattice" in params:
        sys_ = lat.build_lattice(**params.pop("lattice"))
        params["generator_values"] = [float(e) for e in sys_.energies[: params.pop("levels")]]
    result = quantized_spectrum_check(**params)
    values = params["generator_values"]
    payload = {"pass": result.passed, "max_defect": result.max_defect, "values": values}
    print(f"{'PASS' if result.passed else 'FAIL'}  max_defect={result.max_defect:.3e}")
    _write(scenario.output, ".json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if result.passed else EXIT_IDENTITY_FAILURE


def _run_render(scenario: None, args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from None
    _write(args.out, ".svg", render_distribution(text, args.style))
    return EXIT_OK


@dataclass(frozen=True)
class Command:
    """A subcommand.  ``parse`` is None if it takes no config; ``default`` runs without one."""

    flags: tuple[str, ...]
    parse: Callable[[dict], dict] | None
    run: Callable[[Scenario | None, argparse.Namespace], int]
    default: dict | None = None


_FLAGS: dict[str, tuple[tuple[str, ...], dict]] = {
    "input": (("input",), {"help": "CSV or JSON export to render"}),
    "config": (("--config",), {"help": "scenario JSON"}),
    "style": (("--style",), {"choices": ("heatmap", "profile"), "required": True}),
    "seed": (("--seed",), {"type": int, "default": None}),
    "out": (("--out",), {"default": "out", "help": "output path prefix"}),
    "format": (("--format",), {"choices": ("json", "csv"), "default": "json"}),
}

COMMANDS: dict[str, Command] = {
    "verify": Command(
        ("config", "seed", "out"), _parse_verify, _run_verify,
        default={"params": {"dims": list(range(2, 9)), "seeds_per_dim": 10}},
    ),
    "kd": Command(("config", "out", "format"), _parse_kd, _run_kd),
    "weak": Command(("config", "seed", "out"), _parse_weak, _run_weak),
    "seq": Command(("config", "seed", "out", "format"), _parse_seq, _run_seq),
    "lattice": Command(("config", "out"), _parse_lattice, _run_lattice),
    "quantize": Command(("config", "out"), _parse_quantize, _run_quantize),
    "render": Command(("input", "style", "out"), None, _run_render),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qergo",
        description="Verify conditional-probability identities and export distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in command.flags:
            names, options = _FLAGS[flag]
            p.add_argument(*names, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        scenario = None
        if command.parse is not None:
            payload = command.default if args.config is None else _load_config(args.config)
            scenario = build_scenario(args.command, payload, getattr(args, "seed", None), args.out)
        return command.run(scenario, args)
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
