"""Print every statement of src/waveng that the test suite never executes.

Usage:
    python3 tools/untested_lines.py [PYTEST_ARGS...]

Runs `pytest.main(PYTEST_ARGS)` (default: the whole suite, quiet) in this
interpreter under sys.settrace and threading.settrace, and prints one
`path:line: source` line per statement that no traced frame reached.  Defs,
imports and docstrings are left out: they run at import, or not at all.
A statement counts as run when any of its lines does (for if, for, while,
with and try, any line of its header).  Tests that start a subprocess are
not traced, so what only they reach (`cli.py`'s `__main__` guard) is listed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "waveng"
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.AST) -> list[tuple[int, int]]:
    """(first, last) line of each statement to check; a compound one's header only."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((node.lineno, max(node.lineno, last)))
    return spans


def main(argv: list[str]) -> int:
    hit: dict[str, set[int]] = {str(p): set() for p in SRC.glob("*.py")}

    def trace(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, lines in sorted(hit.items()):
        source = Path(path).read_text().splitlines()
        for first, last in sorted(statements(ast.parse("\n".join(source)))):
            if not lines.intersection(range(first, last + 1)):
                print(f"{Path(path).relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
