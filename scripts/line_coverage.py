#!/usr/bin/env python3
"""List every statement of `src/equicolor` that the Tier-1 tests never run.

Usage: python3 scripts/line_coverage.py

Runs pytest on `tests/` in this process under `sys.settrace` and
`threading.settrace`, recording the lines run in files under
`src/equicolor`.  Code that the tests run in a subprocess is not seen.
Statements come from `ast`; docstrings and `global`/`nonlocal`
declarations are skipped.  A simple statement is reached when any of its
lines runs, a compound statement when a line of its header runs.

Prints one `file:line: source` line per unreached statement, then their
count, then pytest's exit status, which may be nonzero under tracing
(tracing slows every call, so a test with a time bound can fail).  Exits 1
when an unreached statement is not in `ALLOWED`, or when an entry of
`ALLOWED` names a statement that the tests reach or that no longer
exists; else 0.  The traced suite takes about 18 minutes on 2 vCPUs.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equicolor"

# (module, stripped source of the statement) -> why no test runs it.  A key
# covers every statement of the module with that text.
ALLOWED: dict[tuple[str, str], str] = {}


def _docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list[tuple[range, str]]:
    """The lines that reach each statement of a module, and its key text:
    all its lines for a simple statement, its header (decorators included)
    for a compound one.  The key text is those lines stripped and joined by
    one space."""
    text = source.splitlines()
    out = []
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _docstring(node, parent):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            if body:
                lines = range(first, max(first + 1, body[0].lineno))
            else:
                lines = range(first, node.end_lineno + 1)
            out.append((lines, " ".join(text[i - 1].strip() for i in lines)))
    return sorted(out, key=lambda s: s[0].start)


class LineTracer:
    """Records the lines run in files under `root`."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.lines: dict[str, set[int]] = {}

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None
        lines = self.lines.setdefault(filename, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        # a tracer in force is put back on exit, so a test of this class can
        # run under the probe
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def unreached(run: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(module, first line, key text) of every package statement none of
    whose reaching lines is in `run`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        hit = run.get(str(path), set())
        for lines, key in statements(path.read_text()):
            if hit.isdisjoint(lines):
                out.append((path.name, lines.start, key))
    return out


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    missed = unreached(tracer.lines)
    for module, lineno, key in missed:
        note = "" if (module, key) in ALLOWED else "  [not allowed]"
        print(f"src/equicolor/{module}:{lineno}: {key}{note}")
    print(f"{len(missed)} unreached statements")
    print(f"pytest exit status {int(status)}")
    keys = {(module, key) for module, _, key in missed}
    stale = [entry for entry in ALLOWED if entry not in keys]
    for module, key in stale:
        print(f"stale allow-list entry: {module}: {key}")
    return 1 if stale or not keys <= ALLOWED.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
