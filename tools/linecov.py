"""Statements of `src/argsynth` that a pytest run never executes.

    python3 tools/linecov.py [PYTEST_ARG ...]

Runs pytest in this process (with no arguments: `-q tests`, from the
repository root) under a line tracer that `sys.settrace` and
`threading.settrace` install, and that traces only frames whose code
comes from `src/argsynth`. It then prints each statement of the package
that no traced frame ran, as `path:line: source`, and a count.

Statements are found with `ast`. Docstrings, `def`, `class` and `import`
statements, `global`/`nonlocal` declarations, bare annotations and `...`
bodies are left out: they hold no code of their own that a test could
run. A compound statement counts as run when a line of its header did.

Tests that run the program in a child process (the benchmark tracer,
bitcheck and ab_pairs tests) are not seen: what only they run is listed
as never run. This is a report, not a gate; the exit status is pytest's.
It finds code that nothing runs, as `coverage` would, which is not a
dependency of the project. The whole suite takes a few minutes under it.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "argsynth"

# Statements with no code of their own, or whose own lines a test does not
# run: their bodies are reported statement by statement.
_LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


class LineRecorder:
    """Context manager recording the lines run by frames whose code lives
    under the directory `root`: `hits` maps each such file, by absolute
    path, to its set of line numbers. The tracers in place before it are
    put back on exit."""

    def __init__(self, root):
        self.prefix = os.path.join(os.path.abspath(root), "")
        self.hits: dict[str, set[int]] = {}
        self._tracers: dict[str, object] = {}

    def _tracer_for(self, filename: str):
        path = os.path.abspath(filename)
        if not path.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._tracers[filename]
        except KeyError:
            tracer = self._tracers[filename] = self._tracer_for(filename)
            return tracer

    def __enter__(self) -> "LineRecorder":
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])


def statements(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement of `source` that holds
    code, in line order, leaving out what the module docstring lists. A
    compound statement spans its header: the lines before its body."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.add(id(node.body[0]))
    spans = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _LEFT_OUT)
                or id(node) in docstrings
                or isinstance(node, ast.AnnAssign) and node.value is None
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and node.value.value is Ellipsis):
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((node.lineno, last))
    return sorted(spans)


def never_ran(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of `source` none of whose lines are
    in `ran`."""
    return [first for first, last in statements(source)
            if not any(line in ran for line in range(first, last + 1))]


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    with LineRecorder(PACKAGE) as recorder:
        status = pytest.main(argv or ["-q", "tests"])
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        total += len(statements(source))
        for first in never_ran(source, recorder.hits.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements in {PACKAGE.relative_to(ROOT)} never ran "
          f"(pytest exit status {int(status)}). Tests that run the program in a child "
          f"process (the benchmark tracer, bitcheck and ab_pairs tests) are not seen.")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
