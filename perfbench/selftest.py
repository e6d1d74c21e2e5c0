"""Corruption self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one real operation of every workload, shows that its output passes
its check, then corrupts each checked output in turn and shows that the
check fails.  Also shows that a failing command counts as a failed
operation and that a span moved to the wrong operation breaks the
self-time sum.  Exits 0 when every clean output passes and every
corruption is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import sys

import numpy as np

import run

run.import_qergo()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, should_pass: bool, fn) -> None:
    try:
        fn()
        passed = True
    except (checks.CheckFailed, workloads.OpFailed) as exc:
        passed, why = False, str(exc)
    ok = passed == should_pass
    RESULTS.append((label, ok))
    verdict = "ok  " if ok else "MISS"
    print(f"{verdict} {label}: check {'passes' if passed else 'fails'}" + ("" if passed else f" ({why})"))


def verify_cases(workload) -> None:
    workload.op(0)
    root = int(workload.op_seeds[0])
    report = json.loads((workload.op_dir(0) / "report.json").read_text())
    dims, n = workload.dims, workload.seeds_per_dim

    def with_report(mutate):
        bad = copy.deepcopy(report)
        mutate(bad)
        return lambda: checks.check_verify_report(bad, dims, n, root)

    def chain(bad):
        return next(c for c in bad["checks"] if c["name"] == "chain rule")

    name = f"{len(dims)} dims"
    expect(f"verify ({name}) clean report", True, lambda: checks.check_verify_report(report, dims, n, root))
    expect("verify: NaN worst", False, with_report(lambda b: chain(b).update(worst=math.nan)))
    expect("verify: worst at tolerance", False, with_report(lambda b: chain(b).update(worst=chain(b)["tolerance"])))
    expect("verify: loosened tolerance", False, with_report(lambda b: chain(b).update(tolerance=1e-3)))
    expect("verify: a check missing", False, with_report(lambda b: b["checks"].pop()))
    expect("verify: all_pass false", False, with_report(lambda b: b.update(all_pass=False)))
    expect("verify: other root seed", False, with_report(lambda b: b.update(root_seed=root + 1)))
    expect("verify: worst exactly 0 (every deviation NaN)", False, with_report(lambda b: chain(b).update(worst=0.0)))

    def program(corrupt):
        def quadruple(dim, seeds):
            quad, tables = workloads.program_quadruple(dim, seeds)
            quad = [np.array(u) for u in quad]
            tables = {k: (np.array(v), np.array(m)) for k, (v, m) in tables.items()}
            corrupt(quad, tables)
            return quad, tables

        return lambda: checks.check_verify_sample(root, dims, n, quadruple)

    def put(table, index, value):
        def corrupt(quad, tables):
            tables[table][0][index] = value
        return corrupt

    def shift(table, index, delta):
        def corrupt(quad, tables):
            tables[table][0][index] += delta
        return corrupt

    def swap_columns(quad, tables):
        quad[1][:, [0, 1]] = quad[1][:, [1, 0]]

    def drop_mask(quad, tables):
        tables["mab"][1][0, 0] = False

    expect("verify: clean sample of the program's tables", True, program(lambda quad, tables: None))
    expect("verify: NaN in the program's p(m|a,b) table", False, program(put("mab", (0, 0, 0), np.nan)))
    expect("verify: NaN in the program's chain composition", False, program(put("chain", (1, 0, 1), np.nan)))
    expect("verify: p(m|a,b) entry off by 1e-6", False, program(shift("mab", (0, 1, 0), 1e-6)))
    expect("verify: determinism composition off by 1e-6", False, program(shift("determinism", (0, 0, 0), 1e-6)))
    expect("verify: program's basis a with two columns swapped", False, program(swap_columns))
    expect("verify: a defined pair masked out", False, program(drop_mask))
    bad_config = workload.workdir / "bad.json"
    bad_config.write_text(json.dumps({"params": {"dims": [1], "seeds_per_dim": 1}}))
    expect("verify: command exits non-zero", False,
           lambda: workloads._cli(["verify", "--config", str(bad_config), "--out", str(workload.workdir / "bad")]))


def scan_cases(workload) -> None:
    workload.op(0)
    scan = workload.results[0]
    s = workload.system
    inputs = (
        np.array(s.x_basis.vectors),
        np.array(s.e_basis.vectors[:, 0]),
        np.array(s.p_basis.vectors[:, workload.p_ref]),
        workload.G,
        workload.SHOTS,
    )

    def case(label, should_pass, **changes):
        bad = dataclasses.replace(scan, **changes)
        expect(label, should_pass, lambda: checks.check_scan(bad, *inputs))

    def shifted(count):
        vals = np.array(scan.values)
        vals[:count] += 10.0 * scan.std_err_re[:count]
        return vals

    case("scan: clean", True)
    case("scan: two points off by 10 se (within allowance)", True, values=shifted(2))
    case("scan: three points off by 10 se", False, values=shifted(3))
    case("scan: NaN point", False, values=np.where(np.arange(scan.values.size) == 5, np.nan, scan.values))
    case("scan: zero standard error", False, std_err_im=np.zeros_like(scan.std_err_im))
    rate_exact = abs(np.vdot(inputs[2], inputs[1])) ** 2
    scale_w = math.sqrt(scan.postselection_rate * scan.values.size) * checks.scan_conditionals(*inputs[:3])
    sigma = math.sqrt(rate_exact * (1 - rate_exact) / (scan.values.size * workload.SHOTS))
    case("scan: pooled rate 6 sigma off", False, postselection_rate=rate_exact + 6 * sigma)
    case("scan: analytic column scaled", False, analytic=scan.analytic * (1 + 1e-6))
    case("scan: other shot count", False, shots_per_point=workload.SHOTS // 2)
    case("scan: values and standard errors both 1.1x wider", False,
         values=scale_w + 1.1 * (scan.values - scale_w), std_err_re=1.1 * scan.std_err_re, std_err_im=1.1 * scan.std_err_im)


def lattice_cases(workload) -> None:
    workload.op(0)
    out = workload.op_dir(0)
    grid = json.loads((out / "grid.json").read_text())
    column = (out / "grid.csv").read_text()
    svg = (out / "grid.svg").read_text()

    def case(label, should_pass, grid_=grid, column_=column, svg_=svg):
        expect(label, should_pass, lambda: checks.check_lattice(grid_, column_, svg_, workload.params))

    def energies(mutate):
        bad = copy.deepcopy(grid)
        mutate(bad["energies"])
        return bad

    def swap(e):
        e[5], e[6] = e[6], e[5]

    lines = column.splitlines(keepends=True)
    scaled = lines[0] + "".join(
        ",".join([f[0], repr(float(f[1]) * 1.001)] + f[2:]) for f in (ln.split(",") for ln in lines[1:])
    )
    case("lattice: clean", True)
    case("lattice: two levels swapped", False, grid_=energies(swap))
    case("lattice: ground level off by 1e-6", False, grid_=energies(lambda e: e.__setitem__(0, e[0] + 1e-6)))
    case("lattice: NaN level", False, grid_=energies(lambda e: e.__setitem__(9, math.nan)))
    case("lattice: column scaled by 1.001", False, column_=scaled)
    case("lattice: column row missing", False, column_="".join(lines[:-1]))
    case("lattice: SVG truncated", False, svg_=svg[: len(svg) // 2])
    case("lattice: SVG without profile", False, svg_=svg.replace("polyline", "line"))


def span_cases() -> None:
    from qergo import basis

    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.run_op(0, lambda: basis.haar_random_basis(4, 1))
    expect("spans: self times sum to wall", True,
           lambda: checks.require(not recorder.self_sum_defects(tol=1e-12), "self-time sum defect"))
    name, start, end, parent, _ = recorder.spans[1]
    recorder.spans[1] = (name, start, end, parent, 1)  # child credited to another operation
    expect("spans: child span moved to another operation", False,
           lambda: checks.require(not recorder.self_sum_defects(tol=1e-12), "self-time sum defect"))


def main() -> int:
    work = run.BENCH / "_work" / "selftest"
    try:
        for name, cases in (("verify-small", verify_cases), ("verify-d32", verify_cases),
                            ("weak-scan", scan_cases), ("lattice-1024", lattice_cases)):
            cases(workloads.WORKLOADS[name](1, work / name))
        span_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missed = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(missed)} of {len(RESULTS)} cases as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
