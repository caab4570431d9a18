"""Every CLI failure leaves through ``main``: a command raises, and ``main``
alone prints the error line and picks the exit code, so
``src/qpurify/cli.py`` calls ``sys.exit`` and prints to ``sys.stderr``
nowhere else."""

import ast
from pathlib import Path

import qpurify

CLI = Path(qpurify.__file__).parent / "cli.py"


def exits_outside_main(source: str) -> list[int]:
    """Line numbers of the ``sys.exit(...)`` calls and of the calls given
    ``file=sys.stderr`` in ``source`` that lie outside its ``main`` function."""
    tree = ast.parse(source)
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            inside |= {id(n) for n in ast.walk(node)}

    def is_sys(node, attr):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        )

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (is_sys(node.func, "exit") or any(is_sys(k.value, "stderr") for k in node.keywords))
        and id(node) not in inside
    ]


def test_detector():
    source = (
        "def main():\n"
        "    print('x', file=sys.stderr)\n"
        "    sys.exit(1)\n"
        "def purify():\n"
        "    print('x', file=sys.stderr)\n"
        "    sys.exit(3)\n"
        "    print('x')\n"
        "    exit = sys.exit\n"
        "def wrapper():\n"
        "    def main():\n"
        "        sys.exit(1)\n"
    )
    assert exits_outside_main(source) == [5, 6, 11]


def test_cli_exits_only_in_main():
    assert exits_outside_main(CLI.read_text()) == []
