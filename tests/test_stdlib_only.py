"""The package runs on the standard library alone and declares no dependency."""

import ast
import sys
from pathlib import Path

import pytest

import simplotope

PACKAGE = Path(simplotope.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def imported_modules(tree):
    """(line, top-level module) of every absolute import, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} imports {name}" for line, name in imported_modules(tree)
                  if name not in sys.stdlib_module_names]
    assert found == []


def test_scan_sees_numpy_imports():
    tree = ast.parse("import numpy as np\ndef f():\n    from numpy.linalg import det\n")
    assert [name for _, name in imported_modules(tree)] == ["numpy", "numpy"]


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == []
