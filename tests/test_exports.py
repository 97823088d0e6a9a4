"""Module hygiene: every name a module lists in ``__all__`` resolves on
that module, and no module of the package, its tests or its benchmark
imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spectemp

MODULES = [importlib.import_module(f"spectemp.{info.name}")
           for info in pkgutil.iter_modules(spectemp.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]
SOURCES = sorted(Path(spectemp.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# The acceptance gate is never edited, so its unused imports stay.
SCANNED = SOURCES + sorted(
    path for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/**/*.py")]
    if path.name != "test_acceptance.py")


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ lists missing names {missing}"


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads, as "name (line n)".

    A name counts as read when it appears as a name anywhere in the module
    (attribute chains start with one) or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_import_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "def f():\n    import sys\n    return np.pi, osp\n")
    assert unused_imports(source) == ["dumps (line 5)", "os (line 2)", "sys (line 8)"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda path: (
    path.name if path in SOURCES else str(path.relative_to(ROOT))))
def test_package_modules_have_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(source: str) -> dict:
    """Module-level private names a source binds, as name -> line: the
    functions, classes and plain assignments whose names start with one
    underscore."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set:
    """Every name a source reads: loaded names, attribute names (as in
    ``mc._promote``) and names imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_name_scan_flags_only_unread_names():
    source = ("_LIMIT = 3\n_spare: int = 4\n__version__ = '1'\n"
              "def _used():\n    return _LIMIT\n"
              "def _stale():\n    return _used()\n"
              "class _Old:\n    _inner = 1\n")
    names = private_names(source)
    assert names == {"_LIMIT": 1, "_spare": 2, "_used": 4, "_stale": 6, "_Old": 8}
    assert sorted(set(names) - names_read(source)) == ["_Old", "_spare", "_stale"]


def test_every_private_name_is_read_in_the_package():
    """A private helper nothing in the package reads is a leftover: delete it."""
    sources = {path: path.read_text(encoding="utf-8") for path in SOURCES}
    read = set().union(*map(names_read, sources.values()))
    unread = [f"{path.name}: {name} (line {line})" for path, source in sources.items()
              for name, line in private_names(source).items() if name not in read]
    assert unread == []
