"""Command-line surface: purify, synth, simulate, bloch, random.

Exit codes: 0 success, 1 IO/parse errors, 2 validation failures,
3 reconstruction/verification failures. A command raises its failure, and
:func:`main` alone prints it as one stderr line prefixed with the failure
kind (e.g. ``NotPSD:``, ``ReconstructionFailure:``) and exits.
A usage error (a missing, unknown or abbreviated option, a value of the
wrong type or choice, no command, or options that do not go together)
prints the usage and one error line to stderr and exits 2 before any file
is opened.

The parser is the standard library's ``argparse``, so the command line
depends on nothing beyond numpy. Each command imports the layers it runs at
the top of its body, after its usage checks, so ``--help`` and usage errors
load neither numpy nor a layer. ``bloch`` runs on ``math`` alone and loads
no numpy. Input files are handed to the ``io`` readers open, which read them
a block at a time. Output files are written piece by piece as the ``io`` and
``bloch`` writers make them; a writer refuses its input before the file is
opened, so a refused write leaves no file.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .errors import QPurifyError, ReconstructionFailure

_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError)


class _UsageError(Exception):
    """Options that parse one by one but do not go together; exits 2 with the usage."""


def _read(path: str, load):
    """What ``load`` reads from the file at ``path``, opened in binary mode."""
    with Path(path).open("rb") as file:
        return load(file)


def _write(path: str, pieces) -> None:
    """Write the text ``pieces`` to ``path``, with ``write_text``'s encoding and newlines."""
    with Path(path).open("w") as out:
        out.writelines(pieces)


def purify(input_path, method, reshuffle, out_path, coeffs_path):
    """Purify a density matrix and verify the result by partial trace."""
    if reshuffle and method != "cholesky":
        raise _UsageError("--reshuffle requires --method cholesky")
    from . import io
    from .purify import cholesky_purify, coefficients_to_state, reshuffle_purify, spectral_purify
    from .purify import verify_purification

    rho = _read(input_path, io.load_density)
    if method == "spectral":
        state = spectral_purify(rho)
    elif reshuffle:
        _, state = reshuffle_purify(rho)
    else:
        state = coefficients_to_state(cholesky_purify(rho))
    report = verify_purification(state, rho)
    _write(out_path, io.state_pieces(state))
    if coeffs_path:
        coeffs = state.amplitudes.reshape(state.ancilla_dim, state.system_dim)
        _write(coeffs_path, io.coefficient_pieces(coeffs))
    print(f"max_abs_error={report.max_abs_error!r}")
    if not report.passed:
        raise ReconstructionFailure(f"round-trip error {report.max_abs_error!r}")


def synth(input_path, out_path):
    """Purify, extract circuit parameters, and emit the gate schedule."""
    from . import io
    from .circuit import apply_schedule, extract_parameters
    from .core import DEFAULT_TOL
    from .purify import cholesky_purify, coefficients_to_state, verify_purification

    rho = _read(input_path, io.load_density)
    coeffs = cholesky_purify(rho)
    params = extract_parameters(coeffs)
    target = coefficients_to_state(coeffs)
    prepared = apply_schedule(params)
    deviation = float(abs(prepared.amplitudes - target.amplitudes).max())
    _write(out_path, io.circuit_pieces(rho.shape, params))
    print(f"parameters={params.parameter_count} max_deviation={deviation!r}")
    eps = DEFAULT_TOL.eps_recon
    if deviation > eps:
        raise ReconstructionFailure(f"schedule deviates by {deviation!r} above eps_recon {eps!r}")
    report = verify_purification(prepared, rho)
    if not report.passed:
        raise ReconstructionFailure(f"circuit state misses rho by {report.max_abs_error!r}")


def simulate(circuit_path, out_path, expect_path):
    """Apply a circuit's gate schedule to |0...0> and optionally check it."""
    from . import io
    from .circuit import apply_schedule
    from .purify import verify_purification

    _, params, _ = _read(circuit_path, io.load_circuit)
    state = apply_schedule(params)
    _write(out_path, io.state_pieces(state))
    if expect_path:
        rho = _read(expect_path, io.load_density)
        report = verify_purification(state, rho)
        print(f"max_abs_error={report.max_abs_error!r}")
        if not report.passed:
            raise ReconstructionFailure(f"simulated state misses target by {report.max_abs_error!r}")


def bloch(alpha, alphas, grid, out_path):
    """Emit surface points of the contracted/translated Bloch sphere."""
    if (alpha is None) == (alphas is None):
        raise _UsageError("exactly one of --alpha or --alphas is required")
    try:
        n_theta, n_phi = (int(part) for part in grid.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"grid must look like 50x50, got {grid!r}") from exc
    from .bloch import bloch_pieces, sweep_alphas

    values = [alpha] if alpha is not None else sweep_alphas(alphas)
    _write(out_path, bloch_pieces(values, n_theta, n_phi))
    print(f"rows={len(values) * n_theta * n_phi}")


def random(d, n, seed, rank, out_path):
    """Write a seeded random density matrix (Ginibre ensemble)."""
    import numpy as np

    from . import io
    from .rng import random_density

    rho = random_density(d, n, seed, rank=rank)
    _write(out_path, io.density_pieces(rho))
    purity = float(np.vdot(rho.entries, rho.entries).real)  # Tr rho^2 = sum |rho_ij|^2
    print(f"purity={purity!r}")


def _parser(prog: str | None) -> argparse.ArgumentParser:
    """The parser of the five commands. Each command's namespace carries its
    handler and the ``error`` method of its own parser, which reports the
    usage errors its body finds."""
    parser = _new_parser(
        argparse.ArgumentParser,
        prog=prog,
        description="Purify qudit density matrices and synthesize preparation circuits.",
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(handler):
        doc = handler.__doc__
        sub = _new_parser(commands.add_parser, handler.__name__, help=doc, description=doc)
        sub.set_defaults(handler=handler, usage_error=sub.error)
        return sub.add_argument

    option = command(purify)
    option("--input", dest="input_path", required=True, metavar="PATH", help="Density matrix JSON.")
    option("--method", choices=["cholesky", "spectral"], default="cholesky",
           help="[default: %(default)s]")
    option("--reshuffle", action="store_true",
           help="Sort the basis by diagonal size before pivoting.")
    option("--out", dest="out_path", required=True, metavar="PATH", help="Purification state JSON.")
    option("--coeffs", dest="coeffs_path", metavar="PATH", help="Optional coefficient matrix JSON.")

    option = command(synth)
    option("--input", dest="input_path", required=True, metavar="PATH", help="Density matrix JSON.")
    option("--out", dest="out_path", required=True, metavar="PATH", help="Circuit JSON.")

    option = command(simulate)
    option("--circuit", dest="circuit_path", required=True, metavar="PATH", help="Circuit JSON.")
    option("--out", dest="out_path", required=True, metavar="PATH", help="Output state JSON.")
    option("--expect", dest="expect_path", metavar="PATH", help="Density matrix to compare against.")

    option = command(bloch)
    option("--alpha", type=float, metavar="FLOAT", help="Single mixing angle in [0, pi/2].")
    option("--alphas", type=int, metavar="INTEGER",
           help="Number of mixing angles sweeping [0, pi/2].")
    option("--grid", default="50x50", metavar="TEXT",
           help="Sampling grid, THETAxPHI. [default: %(default)s]")
    option("--out", dest="out_path", required=True, metavar="PATH", help="Surface CSV.")

    option = command(random)
    option("--d", type=int, required=True, metavar="INTEGER", help="Local dimension (>= 2).")
    option("--n", type=int, required=True, metavar="INTEGER", help="Number of qudits (>= 1).")
    option("--seed", type=int, required=True, metavar="INTEGER", help="Stream seed.")
    option("--rank", type=int, metavar="INTEGER", help="Limit the Ginibre factor to this rank.")
    option("--out", dest="out_path", required=True, metavar="PATH", help="Density matrix JSON.")
    return parser


def _new_parser(make, *args, **kwargs) -> argparse.ArgumentParser:
    """A parser from ``make`` that takes whole option names only, reads any
    token with one leading dash as a value, and whose one help option is
    ``--help``."""
    parser = make(*args, add_help=False, allow_abbrev=False, **kwargs)
    # argparse takes only plain negative numbers such as -3 or -0.5 for values;
    # --alpha -1e-3, --alpha -inf and --grid -3x3 must reach the range checks
    parser._negative_number_matcher = re.compile("-[^-]")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def main(args=None, prog_name=None):
    """Run the command named in ``args`` (default ``sys.argv[1:]``) and exit
    with its code, 0 on success; ``prog_name`` heads the usage line."""
    options = vars(_parser(prog_name).parse_args(args))
    handler, usage_error = options.pop("handler"), options.pop("usage_error")
    try:
        handler(**options)
    except _UsageError as exc:
        usage_error(str(exc))
    except QPurifyError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except _PARSE_ERRORS as exc:
        # str(KeyError) is only the key's repr
        message = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"ParseError: {message}", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main(prog_name="python -m qpurify.cli")
