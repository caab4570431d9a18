"""Pinned CLI output bytes: every session in bench/goldens.json, run in-process.

Each pinned session records the shape, rank and seed of a ``random`` call,
and the exit code and sha256 digest of the output file of each of the seven
commands that follow it. A change that moves one ulp of any output fails
here.
"""

import hashlib
import json
from pathlib import Path

import pytest
from cli_runner import CliRunner

from qpurify.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"

#: Bloch sampling grid of each pinned scale.
GRID = {"full": "50x50", "tiny": "10x10"}

#: (command name, argv template, output file), in session order.
SESSION = (
    ("random", "random --d {d} --n {n} --seed {seed} {rank} --out rho.json", "rho.json"),
    ("purify", "purify --input rho.json --out psi.json", "psi.json"),
    (
        "purify_reshuffle",
        "purify --input rho.json --reshuffle --out psi_reshuffle.json",
        "psi_reshuffle.json",
    ),
    (
        "purify_spectral",
        "purify --input rho.json --method spectral --out psi_spectral.json",
        "psi_spectral.json",
    ),
    ("synth", "synth --input rho.json --out circuit.json", "circuit.json"),
    ("simulate", "simulate --circuit circuit.json --out state.json --expect rho.json", "state.json"),
    ("bloch", "bloch --alphas 6 --grid {grid} --out bloch.csv", "bloch.csv"),
)


def pinned_sessions():
    goldens = json.loads(GOLDENS.read_text())
    return [
        pytest.param(scale, entry, id=f"{scale}-{k}")
        for scale, sessions in sorted(goldens.items())
        for k, entry in sorted(sessions.items())
    ]


@pytest.mark.parametrize("scale,entry", pinned_sessions())
def test_cli_outputs_match_goldens(scale, entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    rank = "" if entry["rank"] is None else f"--rank {entry['rank']}"
    for name, template, output in SESSION:
        argv = template.format(
            d=entry["d"], n=entry["n"], seed=entry["seed"], rank=rank, grid=GRID[scale]
        ).split()
        result = runner.invoke(main, argv)
        assert result.exit_code == entry["exit_codes"][name], (name, result.output)
        digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        assert digest == entry["digests"][name], name
