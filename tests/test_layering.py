"""Layering: no module of the package reads another object's private names.

A read of obj._name is allowed only on self or cls; dunders are exempt.
What one module needs from another's object goes through a public method
or attribute, so the terms a method relies on change in one place.  The
private names one module imports from another are pinned to a short list,
so a new private dependency between modules shows in review.  No module
imports weakref: data derived from a sequence is kept on it, through
ZeroSequence.derived, so a new module-level cache shows in review too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "expozeros"
# the private names a module may import from another
SHARED_PRIVATE = {"_RealAxis", "_require_finite", "_center_logs"}


def private_reads(path: Path) -> list[str]:
    """file:line of every load of obj._name with obj not self or cls."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_private_reads_stay_on_self():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = [hit for path in files for hit in private_reads(path)]
    assert hits == []


def test_a_reach_in_is_found(tmp_path):
    path = tmp_path / "reach.py"
    path.write_text("def f(axis, self):\n"
                    "    axis._re = 1\n"          # a write, not a read
                    "    a = self._re + axis.__dict__\n"
                    "    return axis._re[axis._im == 0.0]\n")
    assert private_reads(path) == ["reach.py:4", "reach.py:4"]


def private_imports(path: Path) -> list[str]:
    """module:name of every `from .module import _name` in path."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            hits += [f"{node.module}:{alias.name}" for alias in node.names
                     if alias.name.startswith("_")]
    return hits


def test_private_imports_stay_on_the_list():
    hits = sorted({hit for path in sorted(SRC.glob("*.py")) for hit in private_imports(path)})
    assert hits == sorted(f"counting:{name}" for name in SHARED_PRIVATE)


def test_a_private_import_is_found(tmp_path):
    path = tmp_path / "imports.py"
    path.write_text("from .counting import _split, exact_sum\n"
                    "from . import counting\n"
                    "from numpy import _core\n")
    assert private_imports(path) == ["counting:_split"]


def imported_modules(path: Path) -> list[str]:
    """The top-level name of every module that path imports."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            hits += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            hits.append(node.module.split(".")[0])
    return hits


def test_no_module_imports_weakref():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [path.name for path in files if "weakref" in imported_modules(path)] == []


def test_a_weakref_import_is_found(tmp_path):
    for text in ("import weakref\n", "from weakref import WeakKeyDictionary\n",
                 "import numpy as np, weakref as wr\n", "def f():\n    import weakref\n"):
        path = tmp_path / "cache.py"
        path.write_text(text)
        assert "weakref" in imported_modules(path)
    path.write_text("from .weakref import x\nimport weakrefs\n")
    assert "weakref" not in imported_modules(path)
