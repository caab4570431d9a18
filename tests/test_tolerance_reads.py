"""No new hard-coded tolerances: every read of a ``DEFAULT_TOL`` field in the
package is one of the allow-listed sites below. Each is a path where a caller
cannot pass their own ``ToleranceConfig``, which ROADMAP item 1 routes through
the caller's tolerances, so the list only shrinks: a site that goes must leave
the list too. Likewise every field is read from a caller's ``tol`` somewhere,
except the allow-listed ones, which a caller sets to no effect."""

import ast
from dataclasses import fields
from pathlib import Path

import qpurify
from qpurify import ToleranceConfig

PACKAGE = Path(qpurify.__file__).parent

#: (module, enclosing definition, field) of each allowed read.
ALLOWED = [
    ("cli", "synth", "eps_recon"),  # ROADMAP item 1
    ("core", "PureState.__post_init__", "eps_norm"),  # ROADMAP item 1
]

#: Fields that no function reads from a caller's ``tol``.
UNREAD = []


def tolerance_reads(source: str) -> list[tuple[str, str, int]]:
    """``(enclosing definition, field, line)`` of each ``DEFAULT_TOL.<field>``
    read in ``source``, the definition as a dotted qualified name."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "DEFAULT_TOL":
                found.append((scope, node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_detector():
    source = (
        "x = DEFAULT_TOL.eps_herm\n"
        "class A:\n"
        "    def f(self, tol=None):\n"
        "        tol = tol or DEFAULT_TOL\n"
        "        return tol.eps_norm, core.DEFAULT_TOL.eps_recon\n"
        "def g():\n"
        "    return DEFAULT_TOL.eps_pivot\n"
    )
    assert tolerance_reads(source) == [
        ("", "eps_herm", 1), ("A.f", "eps_recon", 5), ("g", "eps_pivot", 7)
    ]
    assert caller_reads(source) == {"eps_norm"}


def test_package_reads_only_allowed_defaults():
    reads = [
        ((path.stem, scope, field), f"{path.name}:{line}")
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, field, line in tolerance_reads(path.read_text())
    ]
    unlisted = [where for site, where in reads if site not in ALLOWED]
    assert sorted(site for site, _ in reads) == ALLOWED, unlisted


def caller_reads(source: str) -> set[str]:
    """Fields read as ``tol.<field>`` in ``source``: through the tolerances a
    caller passed, or their ``tol or DEFAULT_TOL`` fallback."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "tol"
    }


def test_every_field_is_read_from_a_callers_tol():
    read = set().union(*(caller_reads(path.read_text()) for path in PACKAGE.glob("*.py")))
    assert sorted(f.name for f in fields(ToleranceConfig) if f.name not in read) == UNREAD
