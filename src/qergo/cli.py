"""Batch command-line front end: scenario configs in, verdicts and exports out.

Each command is one ``COMMANDS`` entry: the flags it reads, its config check
and its runner.  Exit codes: 0 all checks passed, 1 identity violation (a
``verify`` or ``quantize`` FAIL), 2 configuration or usage error, 3 internal
numeric failure.  Every command is deterministic for a fixed (config, seed) pair.
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
    """Validated batch scenario: its inputs, root seed and output prefix."""

    params: dict[str, Any]
    seed: int
    output: str


def _need(params: dict, key: str, types, what: str):
    if key not in params:
        raise ConfigError(f"missing required parameter {key!r} ({what})")
    value = params[key]
    if not isinstance(value, types):
        raise ConfigError(f"parameter {key!r} must be {what}, got {type(value).__name__}")
    return value


def _need_objects(params: dict, *keys: str) -> None:
    for key in keys:
        _need(params, key, dict, "an object")


def _need_dim(params: dict) -> None:
    if _need(params, "dim", int, "an integer") < MIN_DIM:
        raise ConfigError(f"dim must be >= {MIN_DIM}")


def _need_shots(params: dict) -> None:
    if _need(params, "shots", int, "an integer") < MIN_SHOTS:
        raise ConfigError(f"shots must be >= {MIN_SHOTS}")


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
    """Validate a command's config payload; no computation runs before this passes."""
    if kind not in COMMANDS or COMMANDS[kind].validate is None:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    if payload is None:
        raise ConfigError("this command requires --config PATH")
    params = payload.get("params", payload)
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    seed = seed_flag if seed_flag is not None else payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    COMMANDS[kind].validate(params)
    return Scenario(params=params, seed=seed or 0, output=out)


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
        try:
            return make_basis(_json_complex(spec, "re", "im"), labels=spec.get("labels"))
        except QergoError as exc:  # bad re/im arrays, or not an orthonormal square matrix
            raise ConfigError(f"explicit basis: {exc}") from None
    raise ConfigError(f"unknown basis kind {kind!r}")


def _outcome_from_spec(spec: Any, dim: int) -> tuple[Basis, int]:
    if not isinstance(spec, dict):
        raise ConfigError("outcome spec must be an object {basis, index}")
    basis = basis_from_spec(_need(spec, "basis", dict, "a basis spec"), dim)
    index = _need(spec, "index", int, "an integer")
    if not 0 <= index < dim:
        raise ConfigError(f"outcome index {index} outside 0..{dim - 1}")
    return basis, index


def _check_verify(params: dict) -> None:
    dims = _need(params, "dims", list, "a list of integers")
    if not dims or not all(isinstance(d, int) and MIN_DIM <= d <= MAX_DIM for d in dims):
        raise ConfigError(f"dims must be integers within {MIN_DIM}..{MAX_DIM}, got {dims}")
    if _need(params, "seeds_per_dim", int, "an integer") < 1:
        raise ConfigError("seeds_per_dim must be >= 1")


def _check_kd(params: dict) -> None:
    _need_dim(params)
    _need_objects(params, "state", "row_basis", "col_basis")


def _check_weak(params: dict) -> None:
    _need_dim(params)
    _need_objects(params, "initial", "final", "meter_basis")
    _need(params, "m_index", int, "an integer")
    g = _need(params, "g", (int, float), "a number")
    if not 0 < g <= MAX_COUPLING:
        raise ConfigError(f"g must lie in (0, {MAX_COUPLING}]")
    _need_shots(params)


def _check_seq(params: dict) -> None:
    _need_dim(params)
    _need_objects(params, "initial", "m_basis", "b_basis")
    _need_shots(params)


def _check_grid(spec: dict) -> int:
    """Validate a lattice spec {d, L, mass, hbar, potential}; return d."""
    d = _need(spec, "d", int, "an integer")
    if not lat.valid_grid_size(d):
        raise ConfigError(f"d must be even and >= {lat.MIN_GRID_SIZE}")
    for key in ("L", "mass", "hbar"):
        if _need(spec, key, (int, float), "a number") <= 0:
            raise ConfigError(f"{key} must be positive")
    _need_objects(spec, "potential")
    return d


def _check_lattice(params: dict) -> None:
    d = _check_grid(params)
    column = params.get("column")
    if column is not None:
        if not isinstance(column, dict):
            raise ConfigError("column must be an object")
        for key in ("energy_index", "p_ref_index"):
            idx = _need(column, key, int, "an integer")
            if not 0 <= idx < d:
                raise ConfigError(f"{key} {idx} outside 0..{d - 1}")


def _check_quantize(params: dict) -> None:
    if "values" in params:
        values = params["values"]
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError("values must be a list of at least two numbers")
    elif "lattice" in params:
        d = _check_grid(_need(params, "lattice", dict, "an object"))
        if not 2 <= _need(params, "levels", int, "an integer") <= d:
            raise ConfigError(f"levels must lie within 2..{d}")
    else:
        raise ConfigError("quantize needs either 'values' or 'lattice'")
    if _need(params, "period", (int, float), "a number") <= 0:
        raise ConfigError("period must be positive")


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


def _lattice_from_spec(spec: dict):
    return lat.build_lattice(
        spec["d"], float(spec["L"]), float(spec["mass"]), float(spec["hbar"]), spec["potential"]
    )


def _run_verify(scenario: Scenario, args) -> int:
    params = scenario.params
    started = time.perf_counter()
    report = run_verification_suite(params["dims"], params["seeds_per_dim"], scenario.seed)
    elapsed = time.perf_counter() - started
    for line in report.lines():
        print(line)
    print(f"wall time: {elapsed:.2f} s")  # console only; the file stays deterministic
    _export(scenario.output, "json", report)
    return EXIT_OK if report.all_pass else EXIT_IDENTITY_FAILURE


def _run_kd(scenario: Scenario, args) -> int:
    params = scenario.params
    dim = params["dim"]
    state = _outcome_from_spec(params["state"], dim)
    row = basis_from_spec(params["row_basis"], dim)
    col = basis_from_spec(params["col_basis"], dim)
    _export(scenario.output, args.format, pure_state_joint(state, row, col))
    return EXIT_OK


def _run_weak(scenario: Scenario, args) -> int:
    params = scenario.params
    dim = params["dim"]
    report = simulate_weak_value(
        _outcome_from_spec(params["initial"], dim),
        _outcome_from_spec(params["final"], dim),
        basis_from_spec(params["meter_basis"], dim),
        params["m_index"],
        float(params["g"]),
        params["shots"],
        scenario.seed,
    )
    print(
        f"estimate: {report.estimate.real:+.6f}{report.estimate.imag:+.6f}i  "
        f"(analytic {report.analytic_ref.real:+.6f}{report.analytic_ref.imag:+.6f}i)"
    )
    _export(scenario.output, "json", report)
    return EXIT_OK


def _run_seq(scenario: Scenario, args) -> int:
    params = scenario.params
    dim = params["dim"]
    run = simulate_sequential(
        _outcome_from_spec(params["initial"], dim),
        basis_from_spec(params["m_basis"], dim),
        basis_from_spec(params["b_basis"], dim),
        params["shots"],
        scenario.seed,
    )
    _export(scenario.output, args.format, run)
    return EXIT_OK


def _run_lattice(scenario: Scenario, args) -> int:
    params = scenario.params
    sys_ = _lattice_from_spec(params)
    payload = {"config": json.loads(sys_.config_json()), "energies": sys_.energies.tolist()}
    _write(scenario.output, ".json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    column = params.get("column")
    if column is not None:
        col = lat.ccp_xEp(sys_, column["energy_index"], column["p_ref_index"])
        _write(scenario.output, ".csv", lat.distribution_csv(sys_, col))
    return EXIT_OK


def _run_quantize(scenario: Scenario, args) -> int:
    params = scenario.params
    hbar = float(params.get("hbar", 1.0))
    rtol = float(params.get("rtol", 1e-8))
    if "values" in params:
        values = [float(v) for v in params["values"]]
    else:
        sys_ = _lattice_from_spec(params["lattice"])
        hbar = sys_.hbar
        values = [float(e) for e in sys_.energies[: params["levels"]]]
    result = quantized_spectrum_check(values, float(params["period"]), hbar, rtol=rtol)
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
    """A subcommand.  ``validate`` is None if it takes no config; ``default`` runs without one."""

    flags: tuple[str, ...]
    validate: Callable[[dict], None] | None
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
        ("config", "seed", "out"), _check_verify, _run_verify,
        default={"params": {"dims": list(range(2, 9)), "seeds_per_dim": 10}},
    ),
    "kd": Command(("config", "out", "format"), _check_kd, _run_kd),
    "weak": Command(("config", "seed", "out"), _check_weak, _run_weak),
    "seq": Command(("config", "seed", "out", "format"), _check_seq, _run_seq),
    "lattice": Command(("config", "out"), _check_lattice, _run_lattice),
    "quantize": Command(("config", "out"), _check_quantize, _run_quantize),
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
        if command.validate is not None:
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
