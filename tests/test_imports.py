"""Every name a module imports is read somewhere in that module.

There is no linter in the toolchain, so this guard parses each module of
``src/vsbgraph`` (except ``__init__.py``, which imports to re-export)
and each script in ``tools``, and fails on an imported name that is
never read.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vsbgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names the module source imports, other than ``__future__``
    features, that it never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert names >= {"cli.py", "connectivity.py", "digraph.py", "bench_compare.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "def f(xs: Iterable[int]) -> np.ndarray:\n"
        "    return xs\n"
    )
    assert unused_imports(source) == ["os", "Sequence"]
