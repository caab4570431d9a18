"""No output file of the CLI is built as one string: each command writes the
pieces of an ``io`` writer to an open file, so ``src/qpurify/cli.py`` calls no
``write_text`` (which takes the whole text, and encodes it whole once more)."""

import ast
from pathlib import Path

import qpurify

CLI = Path(qpurify.__file__).parent / "cli.py"


def write_text_calls(source: str) -> list[int]:
    """Line numbers of the ``….write_text(...)`` calls in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "write_text"
    ]


def test_detector():
    source = 'Path(p).write_text(t)\n"write_text"\nout.writelines(t)\nf = p.write_text\nx.write_text("")\n'
    assert write_text_calls(source) == [1, 5]


def test_cli_writes_pieces():
    assert write_text_calls(CLI.read_text()) == []
