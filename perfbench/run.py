"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload verify-d32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; qergo is imported from ``src/`` and need
not be installed.  Operations run in a closed loop for ``--seconds``; each
is checked afterwards (see ``checks.py``).  With ``--trace 0`` the result
holds the end-to-end metrics.  With ``--trace 1`` untraced and traced
operations alternate, and the result holds the per-layer metrics.  Scratch output goes to ``perfbench/_work/`` and is
removed at exit; the span record of a traced run goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh processes timed from spawn to the end of their warm-up; setup_s is their median.
SETUP_PROBES = 7


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_qergo() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other qergo."""
    if not (SRC / "qergo" / "__init__.py").is_file():
        log(f"error: no qergo sources under {SRC}; run from the root of a checkout")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qergo

    if Path(qergo.__file__).resolve().parent != SRC / "qergo":
        log(f"error: imported qergo from {qergo.__file__}, not {SRC}")
        raise SystemExit(2)


def closed_loop(workload, seconds: float, recorder=None) -> dict:
    """Run operations back to back until ``seconds`` have passed (at least one).

    With a recorder, even operations run untraced and odd ones traced, and
    the loop ends on a whole (untraced, traced) pair.
    """
    times, ok = [], []
    cpu0, start = time.process_time(), time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            if recorder is not None and i % 2:
                recorder.run_op(i, workload.op, i)
            else:
                workload.op(i)
            ok.append(i)
        except Exception:
            log(f"operation {i} failed:\n{traceback.format_exc()}")
        t1 = time.perf_counter()
        times.append(t1 - t0)
        i += 1
        if t1 - start >= seconds and (recorder is None or i % 2 == 0):
            break
    return {
        "ops": list(range(i)),
        "ok": ok,
        "times": times,
        "elapsed": time.perf_counter() - start,
        "cpu": time.process_time() - cpu0,
    }


def check_all(workload, ok_ops) -> tuple[bool, dict[int, dict]]:
    correct, counts = True, {}
    for i in ok_ops:
        try:
            counts[i] = workload.check(i)
        except Exception:
            correct = False
            log(f"operation {i} output check failed:\n{traceback.format_exc()}")
    return correct, counts


def setup_probe_times(args) -> list[float]:
    """Spawn fresh processes that import, make the inputs and warm up, then exit."""
    out = []
    for _ in range(SETUP_PROBES):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--probe-setup", repr(spawned)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(args, workload) -> tuple[bool, dict, dict]:
    loop = closed_loop(workload, args.seconds)
    correct, _ = check_all(workload, loop["ok"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_probe_times(args))
    n = max(len(loop["ok"]), 1)
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(loop["times"]),
        "ops_per_s": len(loop["ok"]) / loop["elapsed"],
        "cpu_s_per_op": loop["cpu"] / n,
        "peak_rss_mb": peak_rss_mb,
    }
    return correct, loop, {name: (values[name], unit) for name, unit in metric_units("end_to_end").items()}


def per_layer(args, workload) -> tuple[bool, dict, dict]:
    import numpy as np

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    loop = closed_loop(workload, args.seconds, recorder)

    correct, extra = check_all(workload, loop["ok"])
    table, walls = recorder.self_times(), recorder.op_walls()
    ops = [i for i in loop["ok"] if i % 2]
    sums = defaultdict(float)
    for op, defect in recorder.self_sum_defects().items():
        correct = False
        log(f"operation {op}: self times miss its wall time by {defect!r} s")
    for op in ops:
        for name, (calls, self_s) in table[op].items():
            if name == spans.ROOT:
                sums["trace.harness_self_s"] += self_s
                continue
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                sums[f"{key}.calls"] += calls
                sums[f"{key}.self_s"] += self_s
        for key, value in list(recorder.counts[op].items()) + list(extra.get(op, {}).items()):
            sums[key] += value
        sums["trace.op_wall_s"] += walls[op]

    n = max(len(ops), 1)
    units = metric_units("per_layer")
    values = {name: sums[name] / n for name in units}
    # Neighbouring operations see the same machine speed, so the drift cancels in each pair.
    times = loop["times"]
    values["trace.overhead_s"] = statistics.median(times[k + 1] - times[k] for k in range(0, len(times), 2))
    if recorder.hamiltonian is not None:
        t0 = time.perf_counter()
        np.linalg.eigh(recorder.hamiltonian)
        values["lattice.bare_eigh_s"] = time.perf_counter() - t0
    recorder.write(BENCH / "results" / f"spans-{args.workload}-seed{args.seed}.json")
    return correct, loop, {name: (values[name], unit) for name, unit in units.items()}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(argv=None) -> int:
    args = parse(argv)
    import_qergo()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        if args.probe_setup is not None:
            print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - args.probe_setup))
            return 0
        measure = per_layer if args.trace else end_to_end
        correct, loop, metrics = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    result = {
        "correct": correct,
        "attempted": len(loop["ops"]),
        "failed": len(loop["ops"]) - len(loop["ok"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
