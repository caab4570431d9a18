"""Command-line surface: purify, synth, simulate, bloch, random.

Exit codes: 0 success, 1 IO/parse errors, 2 validation failures,
3 reconstruction/verification failures. Errors print one line to stderr
prefixed with the failure kind (e.g. ``NotPSD:``, ``ReconstructionFailure:``).

Each command imports the layers it runs at the top of its body, after its
usage checks, so ``--help`` and usage errors load neither numpy nor a layer.
``bloch`` runs on ``math`` alone and loads no numpy. Input files are handed
to the ``io`` readers open, which read them a block at a time. Output files
are written piece by piece as the ``io`` and ``bloch`` writers make them;
a writer refuses its input before the file is opened, so a refused write
leaves no file.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .errors import QPurifyError

_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _read(path: str, load):
    """What ``load`` reads from the file at ``path``, opened in binary mode."""
    with Path(path).open("rb") as file:
        return load(file)


def _write(path: str, pieces) -> None:
    """Write the text ``pieces`` to ``path``, with ``write_text``'s encoding and newlines."""
    with Path(path).open("w") as out:
        out.writelines(pieces)


def _guarded(body):
    @functools.wraps(body)
    def wrapper(*args, **kwargs):
        try:
            body(*args, **kwargs)
        except QPurifyError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(exc.exit_code)
        except _PARSE_ERRORS as exc:
            # str(KeyError) is only the key's repr
            message = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            click.echo(f"ParseError: {message}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Purify qudit density matrices and synthesize preparation circuits."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(), help="Density matrix JSON.")
@click.option(
    "--method",
    type=click.Choice(["cholesky", "spectral"]),
    default="cholesky",
    show_default=True,
)
@click.option("--reshuffle", is_flag=True, help="Sort the basis by diagonal size before pivoting.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Purification state JSON.")
@click.option("--coeffs", "coeffs_path", type=click.Path(), help="Optional coefficient matrix JSON.")
@_guarded
def purify(input_path, method, reshuffle, out_path, coeffs_path):
    """Purify a density matrix and verify the result by partial trace."""
    if reshuffle and method != "cholesky":
        raise click.UsageError("--reshuffle requires --method cholesky")
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
    click.echo(f"max_abs_error={report.max_abs_error!r}")
    if not report.passed:
        click.echo(f"ReconstructionFailure: round-trip error {report.max_abs_error!r}", err=True)
        sys.exit(3)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(), help="Density matrix JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Circuit JSON.")
@_guarded
def synth(input_path, out_path):
    """Purify, extract circuit parameters, and emit the gate schedule."""
    from . import io
    from .circuit import apply_schedule, extract_parameters, schedule_from_parameters
    from .core import DEFAULT_TOL
    from .purify import cholesky_purify, coefficients_to_state

    rho = _read(input_path, io.load_density)
    coeffs = cholesky_purify(rho)
    params = extract_parameters(coeffs)
    schedule = schedule_from_parameters(params)
    target = coefficients_to_state(coeffs)
    prepared = apply_schedule(schedule)
    deviation = float(abs(prepared.amplitudes - target.amplitudes).max())
    _write(out_path, io.circuit_pieces(rho.shape, params, schedule))
    click.echo(f"parameters={params.parameter_count} max_deviation={deviation!r}")
    eps = DEFAULT_TOL.eps_recon
    if deviation > eps:
        message = f"schedule deviates by {deviation!r} above eps_recon {eps!r}"
        click.echo(f"ReconstructionFailure: {message}", err=True)
        sys.exit(3)


@main.command()
@click.option("--circuit", "circuit_path", required=True, type=click.Path(), help="Circuit JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output state JSON.")
@click.option("--expect", "expect_path", type=click.Path(), help="Density matrix to compare against.")
@_guarded
def simulate(circuit_path, out_path, expect_path):
    """Apply a circuit's gate schedule to |0...0> and optionally check it."""
    from . import io
    from .circuit import apply_schedule
    from .purify import verify_purification

    _, _, schedule = _read(circuit_path, io.load_circuit)
    state = apply_schedule(schedule)
    _write(out_path, io.state_pieces(state))
    if expect_path:
        rho = _read(expect_path, io.load_density)
        report = verify_purification(state, rho)
        click.echo(f"max_abs_error={report.max_abs_error!r}")
        if not report.passed:
            click.echo(
                f"ReconstructionFailure: simulated state misses target by "
                f"{report.max_abs_error!r}",
                err=True,
            )
            sys.exit(3)


@main.command()
@click.option("--alpha", type=float, help="Single mixing angle in [0, pi/2].")
@click.option("--alphas", type=int, help="Number of mixing angles sweeping [0, pi/2].")
@click.option("--grid", default="50x50", show_default=True, help="Sampling grid, THETAxPHI.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Surface CSV.")
@_guarded
def bloch(alpha, alphas, grid, out_path):
    """Emit surface points of the contracted/translated Bloch sphere."""
    if (alpha is None) == (alphas is None):
        raise click.UsageError("exactly one of --alpha or --alphas is required")
    try:
        n_theta, n_phi = (int(part) for part in grid.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"grid must look like 50x50, got {grid!r}") from exc
    from .bloch import bloch_pieces, sweep_alphas

    values = [alpha] if alpha is not None else sweep_alphas(alphas)
    _write(out_path, bloch_pieces(values, n_theta, n_phi))
    click.echo(f"rows={len(values) * n_theta * n_phi}")


@main.command()
@click.option("--d", type=int, required=True, help="Local dimension (>= 2).")
@click.option("--n", type=int, required=True, help="Number of qudits (>= 1).")
@click.option("--seed", type=int, required=True, help="Stream seed.")
@click.option("--rank", type=int, help="Limit the Ginibre factor to this rank.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Density matrix JSON.")
@_guarded
def random(d, n, seed, rank, out_path):
    """Write a seeded random density matrix (Ginibre ensemble)."""
    import numpy as np

    from . import io
    from .rng import random_density

    rho = random_density(d, n, seed, rank=rank)
    _write(out_path, io.density_pieces(rho))
    purity = float(np.vdot(rho.entries, rho.entries).real)  # Tr rho^2 = sum |rho_ij|^2
    click.echo(f"purity={purity!r}")


if __name__ == "__main__":
    main()
