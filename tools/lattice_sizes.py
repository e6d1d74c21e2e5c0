"""Build time, block ``eigh`` time and peak memory of harmonic lattice builds, by grid size.

    python3 tools/lattice_sizes.py [--dims 1024 2048 4096] [--builds 3]

Each size runs in a fresh Python process that imports qergo from this
checkout's ``src/``.  The process builds the harmonic grid (L=20, mass, hbar
and omega all 1) ``--builds`` times and reports the median build wall time,
the median time of each of the two block ``eigh`` of the reflection split
(timed inside the build), the build over their sum, and its own peak
resident set (``ru_maxrss``).  No warm-up build is made, so the median of
three holds one cold build.  One more build then runs under ``tracemalloc``,
whose peak counts numpy's arrays but not LAPACK's ``eigh`` workspace, which
``ru_maxrss`` does count; the traced build is not timed, and ``ru_maxrss`` is
read before it.  The d=4096 build peaks above 1 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(d: int, builds: int) -> dict:
    """Median build and block ``eigh`` times of ``builds`` d-point harmonic builds, in this process."""
    import numpy as np

    from qergo import build_lattice

    eigh, blocks = np.linalg.eigh, []

    def timed(a):  # the two diagonalizations are real; the momentum rotations complex
        start = time.perf_counter()
        out = eigh(a)
        if not np.iscomplexobj(a):
            blocks[-1].append(time.perf_counter() - start)
        return out

    np.linalg.eigh = timed
    walls = []
    for _ in range(builds):
        blocks.append([])
        start = time.perf_counter()
        build_lattice(d, 20.0, 1.0, 1.0, ("harmonic", 1.0))
        walls.append(time.perf_counter() - start)
    np.linalg.eigh = eigh
    if any(len(b) != 2 for b in blocks):
        raise SystemExit(f"d={d}: expected the two block eigh of the split, saw {blocks}")
    even, odd = (float(np.median([b[k] for b in blocks])) for k in (0, 1))
    wall = float(np.median(walls))
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    build_lattice(d, 20.0, 1.0, 1.0, ("harmonic", 1.0))
    traced = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {
        "d": d, "builds": builds, "build_s": wall, "even_eigh_s": even, "odd_eigh_s": odd,
        "build_over_split": wall / (even + odd), "maxrss_mb": maxrss, "traced_peak_mb": traced,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[1024, 2048, 4096])
    parser.add_argument("--builds", type=int, default=3)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.dims[0], args.builds)))
        return
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    print(f"{'d':>5} {'build s':>8} {'even eigh s':>12} {'odd eigh s':>11} {'build/split':>12} "
          f"{'maxrss MB':>10} {'traced MB':>10}")
    for d in args.dims:
        cmd = [sys.executable, __file__, "--child", "--dims", str(d), "--builds", str(args.builds)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"d={d} exited {proc.returncode}\n{proc.stderr}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{d:>5} {r['build_s']:>8.3f} {r['even_eigh_s']:>12.3f} {r['odd_eigh_s']:>11.3f} "
              f"{r['build_over_split']:>12.2f} {r['maxrss_mb']:>10.1f} {r['traced_peak_mb']:>10.1f}",
              flush=True)


if __name__ == "__main__":
    main()
