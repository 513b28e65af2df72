"""Every name a module of the package imports is used in that module.

Parsed with `ast`, so nothing is imported or executed. `__init__.py` is
left out: its imports are the package's re-exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shapefeat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom .core import A, B as C, D\n"
        "def f():\n    from .data import E\n    return np.zeros(1), A\n"
    )
    assert unused_imports(source) == ["os", "C", "D", "E"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
