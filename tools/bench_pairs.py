"""Alternating parent/change benchmark pairs, and their reduction to a BENCH file.

    python3 tools/bench_pairs.py run --parent OLD --change NEW --workload weak-scan \
        --pairs 10 --first-seed 1201 --out runs.jsonl
    python3 tools/bench_pairs.py reduce runs.jsonl [more.jsonl ...] --parent OLD \
        --change NEW --out BENCH.json

OLD and NEW are two checkouts.  ``run`` runs ``perfbench/run.py`` in each
with the same seed, for the ``run_seconds`` of NEW's BENCHMARK.json, pair by
pair, the parent first on even pairs and the change first on odd ones, and
appends one JSON line per run to ``--out``.  ``reduce`` writes, per
workload, the median and quartiles of every end-to-end metric on each side,
the pairs the change won, the seeds, the correctness of every run, the numpy
and BLAS versions, the OpenBLAS kernel set and thread count, the core count
and the ``src/`` line count of each checkout.  It refuses a run that repeats
a (workload, seed, side), so no run made is dropped unreported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
#: Where numpy's wheel bundles its OpenBLAS.
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def run_pairs(args: argparse.Namespace) -> None:
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    seconds = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(checkouts[side], args.workload, seed, seconds)
                record = {"workload": args.workload, "seed": seed, "side": side, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                metrics = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{args.workload} seed {seed} {side}: {metrics}", file=sys.stderr, flush=True)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / "src").rglob("*.py")))


def reduce_runs(records: list[dict], spec: dict) -> dict:
    """Per workload and metric: both sides' median and quartiles, and the pairs won."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    by_workload: dict[str, dict[int, dict[str, dict]]] = defaultdict(lambda: defaultdict(dict))
    for rec in records:
        seed_runs = by_workload[rec["workload"]][rec["seed"]]
        if rec["side"] in seed_runs:
            raise ValueError(f"{rec['workload']} seed {rec['seed']} {rec['side']} was run twice")
        seed_runs[rec["side"]] = rec["result"]
    workloads = {}
    for name, pairs in sorted(by_workload.items()):
        seeds = sorted(s for s, sides in pairs.items() if set(sides) == set(SIDES))
        results = [pairs[s] for s in seeds]
        metrics = {}
        for metric, direction in better.items():
            values = {side: [r[side]["metrics"][metric]["value"] for r in results] for side in SIDES}
            sign = 1.0 if direction == "lower" else -1.0
            won = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
            metrics[metric] = {**{side: quartiles(values[side]) for side in SIDES},
                               "pairs_won": int(won), "pairs": len(seeds)}
        workloads[name] = {
            "seeds": seeds,
            "metrics": metrics,
            "all_correct": {side: all(r[side]["correct"] for r in results) for side in SIDES},
            "failed_ops": {side: sum(r[side]["failed"] for r in results) for side in SIDES},
            "peak_rss_mb_per_pair": [
                [r[side]["metrics"]["peak_rss_mb"]["value"] for side in SIDES] for r in results
            ],
        }
    return workloads


def openblas() -> dict:
    """The kernel set and thread count of numpy's bundled OpenBLAS, None where it cannot say.

    Both decide output bits: another kernel set, or one thread in place of
    two, sums a d=1024 lattice ``eigh`` in another order.  The count is this
    process's, which the runs inherit with its environment.
    """
    try:
        lib = ctypes.CDLL(str(next(NUMPY_LIBS.glob("libscipy_openblas64_*.so"))))
    except (StopIteration, OSError):  # a numpy built against another BLAS, or no library
        return {"openblas_core": None, "openblas_threads": None}
    core = getattr(lib, "scipy_openblas_get_corename64_", None)
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    for fn, restype in ((core, ctypes.c_char_p), (threads, ctypes.c_int)):
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
    return {"openblas_core": core and core().decode(), "openblas_threads": threads and threads()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "cores": os.cpu_count(), **openblas()}


def reduce_files(args: argparse.Namespace) -> None:
    records = [json.loads(line) for path in args.runs for line in Path(path).read_text().splitlines()]
    change = Path(args.change)
    spec = json.loads((change / "BENCHMARK.json").read_text())
    bench = {
        "run_seconds": spec["run_seconds"],
        "environment": environment(),
        "src_lines": {"parent": src_lines(Path(args.parent)), "change": src_lines(change)},
        "workloads": reduce_runs(records, spec),
    }
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, required=True)
    run.add_argument("--out", required=True)
    red = commands.add_parser("reduce")
    red.add_argument("runs", nargs="+")
    red.add_argument("--parent", required=True)
    red.add_argument("--change", required=True)
    red.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    (run_pairs if args.command == "run" else reduce_files)(args)


if __name__ == "__main__":
    main()
