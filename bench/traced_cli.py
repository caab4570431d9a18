"""Run the qpurify command line under the layer tracer.

Usage: python3 bench/traced_cli.py SPANS_FILE COMMAND [ARGS...]

Behaves like ``python3 -m qpurify.cli COMMAND [ARGS...]`` (same output and
exit code) and writes the spans of the call to SPANS_FILE, with the whole
command as one ``cli.<COMMAND>`` span.
"""

import sys
from pathlib import Path

from tracing import Tracer


def main() -> None:
    spans_path = Path(sys.argv[1])
    args = sys.argv[2:]
    from qpurify import cli

    tracer = Tracer()
    try:
        with tracer, tracer.span(f"cli.{args[0]}"):
            cli.main(args, prog_name="qpurify")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
