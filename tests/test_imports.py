"""Every name a module of the package imports is used in that module, no
module uses another module's underscore names, and no module writes its
own `__eq__`.

Parsed with `ast`, so nothing is imported or executed. `__init__.py` is
left out of the unused-import check: its imports are the package's
re-exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shapefeat"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(source: str) -> list:
    """Underscore names a module imports from, or reads off, another module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.extend(a.name for a in node.names if _private(a.name))
            if node.module is None:  # `from . import data`: the names are modules
                modules.update(a.asname or a.name for a in node.names)
    found.extend(
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and _private(node.attr)
    )
    return found


def test_checker_finds_foreign_private_names():
    source = (
        "import os.path\nimport numpy as np\nfrom . import data as dataio\n"
        "from .core import _frozen, value_eq\n"
        "dataio._atomic_write(np.__version__, os._exit, value_eq._x, _local)\n"
    )
    assert foreign_private_names(source) == ["_frozen", "dataio._atomic_write", "os._exit"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert foreign_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_hand_written_eq(path):
    # Value objects compare through `core.value_eq` or the generated __eq__.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "__eq__"]


#: The package modules each module may import: core <- profiles <- model <-
#: evaluate <- cli, with the I/O module `data` on `core` alone.
LAYERS = {
    "core": set(),
    "profiles": {"core"},
    "model": {"core", "profiles"},
    "evaluate": {"core", "profiles", "model"},
    "data": {"core"},
    "cli": {"core", "profiles", "model", "evaluate", "data"},
    "__main__": {"cli"},
}


def package_imports(source: str) -> set:
    """The package modules a module imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shapefeat."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("shapefeat."))
    return found


def test_checker_finds_package_imports():
    source = (
        "import numpy\nimport shapefeat.model\nfrom . import data as dataio\n"
        "from .core import A\nfrom shapefeat.profiles import B\n"
    )
    assert package_imports(source) == {"model", "data", "core", "profiles"}


def test_layers_cover_every_module():
    assert set(LAYERS) == {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    assert package_imports(path.read_text(encoding="utf-8")) <= LAYERS[path.stem]
