"""Runs the command line in-process and captures what it prints.

``CliRunner().invoke(main, args)`` calls ``main(args)`` with stdout and
stderr captured, catches the ``SystemExit`` it ends in, and returns a
:class:`Result`. Any other exception propagates to the test.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    #: Both streams, interleaved in the order they were written.
    output: str
    #: The ``SystemExit`` of a nonzero exit, else None.
    exception: SystemExit | None


class _Tee(io.StringIO):
    """A text stream that also copies each write to ``mixed``."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args) -> Result:
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args), prog_name="qpurify")
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                exception = exc if code != 0 else None
        return Result(code, out.getvalue(), err.getvalue(), mixed.getvalue(), exception)
