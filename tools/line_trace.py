"""Statements of ``src/`` that the tier-1 suite never executes, by a stdlib line trace.

    python3 tools/line_trace.py [pytest args ...]

Runs pytest in this process (default arguments: ``-q -p no:cacheprovider``
on ``tests/``) with a ``sys.settrace`` hook that records every line event in
a file under this checkout's ``src/``, then prints each statement that never
ran, as ``path:line: source``, and a count per file.  A statement is an
``ast`` statement whose first line holds bytecode, so docstrings, ``pass``
lines with no code and continuation lines are not listed.  No coverage
package is needed.

Code that tests run in another process is not seen: the CLI tests that
start ``python -m qergo``, and the fresh-interpreter tests of
``tests/conftest.py``'s ``run_fresh_interpreter``.  A statement listed here
may still be covered there.  The trace slows the suite by about half.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements of ``path`` that hold bytecode."""
    text = path.read_text()
    code_lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    nodes = list(ast.walk(ast.parse(text)))
    docstrings = {
        node.body[0].lineno
        for node in nodes
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    statements = {node.lineno for node in nodes if isinstance(node, ast.stmt)}
    return (statements & code_lines) - docstrings


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(SRC))
    sys.settrace(call)
    threading.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(SRC.rglob("*.py")):
        missed = sorted(statement_lines(path) - hits[str(path)])
        if not missed:
            continue
        total += len(missed)
        source = path.read_text().splitlines()
        name = path.relative_to(ROOT)
        print(f"\n{name}: {len(missed)} statements never executed")
        for line in missed:
            print(f"{name}:{line}: {source[line - 1].strip()}")
    print(f"\n{total} statements never executed in {SRC.relative_to(ROOT)}/")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
