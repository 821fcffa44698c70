"""Code lines of each ``src/vsbgraph`` module and their total.

    python3 tools/count_code_lines.py [ROOT]

A code line is a line that is not blank, not only a comment and not
part of a docstring (the string that opens a module, class or function
body).  ROOT is the directory that holds ``src/`` (default: the
repository this script is in).
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, HAS_DOCSTRING) or ast.get_docstring(node) is None:
            continue
        first = node.body[0]
        docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip()
        and not line.lstrip().startswith("#")
        and number not in docstrings
    )


def main() -> int:
    if len(sys.argv) > 1:
        root = Path(sys.argv[1])
    else:
        root = Path(__file__).resolve().parents[1]
    total = 0
    for path in sorted((root / "src" / "vsbgraph").glob("*.py")):
        lines = code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
