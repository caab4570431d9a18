"""Every public name serves the package, the benchmark or an acceptance
criterion. A public function, class, constant or method of ``src/qpurify``
(a module-level or class-level name without a leading underscore) must be
read outside its own definition: in a module of ``src/qpurify``, in
``tests/test_acceptance.py``, or in ``bench/``. A command handler is read
by the CLI's parser table. A name only the unit tests read belongs in those
tests, as an oracle."""

import ast
from pathlib import Path

import qpurify

PACKAGE = Path(qpurify.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
BENCH = Path(__file__).parents[1] / "bench"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Nodes that define a name: a read inside one is not a use of that name.
SCOPES = DEFINITIONS + (ast.Assign, ast.AnnAssign)


def uses(tree: ast.AST) -> list[tuple[str, frozenset[int]]]:
    """Each name read in ``tree`` (as a bare name or an attribute), with the
    ids of the definitions it is read inside; imports, strings and
    docstrings are not reads."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        if isinstance(node, SCOPES):
            inside = inside | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def public_definitions(module: str, tree: ast.Module):
    """``(qualified name, name, node)`` of each public function, class and
    constant of a module, and each public method of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield f"{module}.{target.id}", target.id, node
        elif isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS[:2]) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member.name, member


def unused_public_names(package: Path, readers: list[Path]) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    reads = [u for tree in trees.values() for u in uses(tree)]
    reads += [u for path in readers for u in uses(ast.parse(path.read_text()))]
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in public_definitions(module, tree):
            if not any(read == name and id(node) not in inside for read, inside in reads):
                unused.append(qualified)
    return unused


def test_every_public_name_is_used():
    readers = [ACCEPTANCE, *sorted(BENCH.glob("*.py"))]
    assert unused_public_names(PACKAGE, readers) == []


def test_guard_sees_methods_and_self_reads(tmp_path):
    # a method read only by itself, and a constant read only in its own
    # assignment, are flagged
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "ECHO = ECHO if False else 1\n"
        "class Stream:\n"
        "    def draw(self):\n"
        "        return self.draw() + LIMIT\n"
        "    def used(self):\n"
        "        return 1\n"
        "Stream().used()\n"
    )
    assert unused_public_names(package, []) == ["mod.ECHO", "mod.Stream.draw"]
