"""Span recorder for the traced run.

Tracing wraps every public function of each qergo module, and replaces the
function in every qergo module namespace that holds it, so calls made
between modules are recorded as well as calls from the benchmark.  The
recorder keeps spans in memory; ``write`` stores them when the run ends.
The wrappers record only while ``Recorder.run_op`` runs an operation;
outside it they call straight through, so traced and untraced operations
can alternate in one process.

A span is (name, start, end, parent, op): the wrapped function's
``module.function`` name, perf_counter times, the index of the enclosing
span (-1 for an operation's root), and the operation id.  A span's self
time is its duration minus the durations of its direct children, so the
self times of one operation sum to its root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

#: qergo modules traced as layers.
LAYERS = ("basis", "ccp", "transform", "bridge", "weak", "lattice", "verify", "render", "cli")

ROOT = "op"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.hamiltonian = None  # of the last lattice built, for the bare-eigh floor
        self._stack: list[int] = []
        self._op = -1
        self._on = False

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._op)

    def count(self, key: str, value: float) -> None:
        self.counts[self._op][key] += value

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under a root span."""
        self._op, self._on = op_id, True
        index, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(index, ROOT, start, parent)
            self._on = False

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start, parent)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def self_times(self) -> dict[int, dict[str, tuple[int, float]]]:
        """Per operation: span name -> (calls, summed self time)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            entry = table[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return {op: {k: (v[0], v[1]) for k, v in names.items()} for op, names in table.items()}

    def op_walls(self) -> dict[int, float]:
        return {op: end - start for name, start, end, parent, op in self.spans if parent < 0}

    def self_sum_defects(self, tol: float = 1e-6) -> dict[int, float]:
        """Operations whose span self times do not sum to the root's duration."""
        walls = self.op_walls()
        table = self.self_times()
        sums = {op: sum(s for _, s in names.values()) for op, names in table.items()}
        return {op: sums.get(op, 0.0) - wall for op, wall in walls.items() if abs(sums.get(op, 0.0) - wall) > tol}

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[code[n], s, e, p, o] for n, s, e, p, o in self.spans],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _on_make_basis(rec: Recorder, basis) -> None:
    rec.count("basis.make_basis.d3_sum", basis.dim**3)


def _on_weak_value(rec: Recorder, report) -> None:
    rec.count("weak.shots_total", report.shots_total)
    rec.count("weak.shots_postselected", report.shots_postselected)


def _on_verify(rec: Recorder, report) -> None:
    rec.count("verify.quadruples", len(report.dims) * report.seeds_per_dim)


def _on_build_lattice(rec: Recorder, system) -> None:
    rec.hamiltonian = system.hamiltonian


def _on_render(rec: Recorder, svg: str) -> None:
    rec.count("render.svg_bytes", len(svg.encode()))


HOOKS = {
    "basis.make_basis": _on_make_basis,
    "weak.simulate_weak_value": _on_weak_value,
    "verify.run_verification_suite": _on_verify,
    "lattice.build_lattice": _on_build_lattice,
    "render.render_distribution": _on_render,
}


def install(rec: Recorder) -> None:
    """Wrap every public qergo function wherever a qergo module looks it up."""
    modules = {layer: importlib.import_module(f"qergo.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                span = f"{layer}.{name}"
                wrapped[obj] = rec.wrap(span, obj, HOOKS.get(span))
    namespaces = list(modules.values()) + [importlib.import_module("qergo")]
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
