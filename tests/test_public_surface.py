"""Every public name serves the package or an acceptance criterion: each name
in ``qpurify.__all__`` is used in a module of ``src/qpurify`` other than where
it is exported, or in ``tests/test_acceptance.py``. A function only the unit
tests call belongs in those tests, as an oracle."""

import ast
from pathlib import Path

import qpurify

PACKAGE = Path(qpurify.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def used_names(path: Path) -> set[str]:
    """Names read in ``path`` (as a bare name or an attribute); definitions,
    imports and docstrings are not uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used():
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(used_names(p) for p in modules), used_names(ACCEPTANCE))
    assert sorted(set(qpurify.__all__) - used) == []
