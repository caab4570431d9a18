"""The package runs on the standard library and numpy alone: every module of
``src/qpurify`` imports only those and the package itself, and
``pyproject.toml`` declares numpy as its one dependency."""

import ast
import sys
from pathlib import Path

import pytest

import qpurify

PACKAGE = Path(qpurify.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ALLOWED = sys.stdlib_module_names | {"numpy", "qpurify"}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports, at any depth;
    relative imports are the package itself and are left out."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_detector():
    source = (
        "import os.path, numpy as np\n"
        "from . import io\n"
        "from .core import DEFAULT_TOL\n"
        "def f():\n"
        "    from click.testing import CliRunner\n"
        "    import qpurify.linalg\n"
    )
    assert imported_roots(source) == {"os", "numpy", "click", "qpurify"}


def test_package_imports_stdlib_and_numpy_only():
    outside = {
        path.name: sorted(imported_roots(path.read_text()) - ALLOWED)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: roots for name, roots in outside.items() if roots} == {}


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.23"]
