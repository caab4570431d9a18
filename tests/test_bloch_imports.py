"""``bloch`` imports no numpy at module level, and of the package only
``errors``: the ``bloch`` command runs on ``math`` alone, and a module-level
import of numpy, or of a layer that imports it, would put numpy's import
time back on every run of it. ``bloch_surface`` imports numpy in its body."""

import ast
from pathlib import Path

import qpurify

BLOCH = Path(qpurify.__file__).with_name("bloch.py")


def module_level_imports(source: str) -> list[str]:
    """The modules ``source`` imports outside a function body, a relative one
    with its leading dots (``from . import errors`` imports ``.errors``)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.extend([base] if node.module else (base + alias.name for alias in node.names))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def drifts(source: str) -> list[str]:
    """The module-level imports of ``source`` that are numpy or a package
    module other than ``errors``."""
    return [
        name
        for name in module_level_imports(source)
        if name.split(".")[0] == "numpy" or (name.startswith(".") and name != ".errors")
    ]


def test_detector():
    source = (
        "import math\nimport numpy as np\nfrom numpy.linalg import eigh\n"
        "from . import errors\nfrom .errors import BadRange\nfrom .core import DEFAULT_TOL\n"
        "if flag:\n    import numpy.fft\n"
        "def f():\n    import numpy as np\n"
    )
    assert drifts(source) == ["numpy", "numpy.linalg", ".core", "numpy.fft"]


def test_bloch_imports_no_numpy_at_module_level():
    assert drifts(BLOCH.read_text()) == []
