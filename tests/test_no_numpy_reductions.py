"""No module-level numpy reductions in the package: ``np.sum``, ``np.max``,
``np.min``, ``np.all``, ``np.any`` and ``np.linalg.norm`` each add a
Python-level dispatch to every call, which on small registers costs more than
the arithmetic. The ndarray methods (``x.sum()``, ``x.max()``, ...) give the
same bits, and a unit-norm check can use norm's own formula,
``sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))``."""

import ast
from pathlib import Path

import qpurify

PACKAGE = Path(qpurify.__file__).parent
BANNED = {"np.sum", "np.max", "np.min", "np.all", "np.any", "np.linalg.norm"}


def dotted(node) -> str | None:
    """``a.b.c`` for an attribute chain on a name, with ``numpy`` spelled ``np``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append("np" if node.id == "numpy" else node.id)
    return ".".join(reversed(parts))


def banned_calls(source: str) -> list[int]:
    """Line numbers of the calls to a banned function in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and dotted(node.func) in BANNED
    ]


def test_detector():
    source = "np.sum(x)\nx.sum()\nnumpy.max(x)\nnp.linalg.norm(x)\nnp.maximum(x, y)\nf(np.any)\n"
    assert banned_calls(source) == [1, 3, 4]


def test_package_uses_ndarray_methods():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in banned_calls(path.read_text())
    ]
    assert found == []
