"""The front door loads only what a command runs.

``--help`` and usage errors import neither numpy nor a layer, nor click;
``bloch`` loads no numpy and, of the package, only ``cli``, ``bloch`` and
``errors``; no JSON command loads ``bloch``, and ``random`` and ``purify``
load no ``circuit``; the package namespace imports a layer on the first
read of one of its names; and each command, run alone in a fresh
interpreter, imports everything it needs (in-process runs share earlier
imports and cannot show a missing one).
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_goldens import GOLDENS, GRID, SESSION

import qpurify

PACKAGE = Path(qpurify.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

#: Home module of each public name of the package.
HOMES = {
    "bloch_surface": "bloch",
    **dict.fromkeys(
        ["GATE", "CircuitParameters", "apply_schedule", "extract_parameters",
         "schedule_from_parameters", "simulate_circuit"],
        "circuit",
    ),
    **dict.fromkeys(
        ["CoefficientMatrix", "DensityMatrix", "PureState", "QuditShape", "ToleranceConfig",
         "validate_density"],
        "core",
    ),
    **dict.fromkeys(
        ["hermitian_eigen", "partial_trace_ancilla", "reference_cholesky"], "linalg"
    ),
    **dict.fromkeys(
        ["VerificationReport", "cholesky_purify", "coefficients_to_state", "gauge_transform",
         "qubit_closed_form", "reshuffle_purify", "spectral_purify",
         "verify_purification"],
        "purify",
    ),
    **dict.fromkeys(["CounterRng", "random_density", "random_unitary"], "rng"),
}


def fresh_python(args, cwd, **run):
    """Run ``python ARGS`` in a new interpreter that imports the package from
    ``src``; ``run`` goes on to ``subprocess.run``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, **run
    )


#: Runs the command line on its arguments and, at exit, prints the names of
#: the loaded modules to stderr as one JSON line. (``-X importtime`` misses
#: the modules the package namespace loads through importlib.)
LIST_MODULES = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "from qpurify.cli import main\n"
    "main(sys.argv[1:], prog_name='qpurify')\n"
)


def loaded_modules(argv, cwd):
    """The finished run of a command in a fresh interpreter, and the modules it loaded."""
    proc = fresh_python(["-c", LIST_MODULES, *argv], cwd)
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        (["purify", "--help"], 0),
        ([], 2),
        (["nonesuch"], 2),
        (["bloch", "--grid", "4x4", "--out", "s.csv"], 2),
        (["purify", "--input", "rho.json", "--method", "spectral", "--reshuffle", "--out", "p.json"], 2),
    ],
    ids=["help", "purify-help", "no-command", "unknown-command", "bloch-usage", "reshuffle-usage"],
)
def test_front_door_loads_no_layer(argv, code, tmp_path):
    proc, names = loaded_modules(argv, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "click" not in names
    assert sorted(n for n in names if n.split(".")[0] == "numpy") == []
    assert {n for n in names if n.split(".")[0] == "qpurify"} <= {"qpurify", "qpurify.cli", "qpurify.errors"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,rows",
    [(["--alpha", "0.3", "--grid", "5x5"], 25), (["--alphas", "3", "--grid", "4x4"], 48)],
    ids=["alpha", "alphas"],
)
def test_bloch_runs_without_numpy(argv, rows, tmp_path):
    proc, names = loaded_modules(["bloch", *argv, "--out", "s.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"rows={rows}\n"
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + rows
    assert sorted(n for n in names if n.split(".")[0] == "numpy") == []
    assert {n for n in names if n.split(".")[0] == "qpurify"} == {
        "qpurify", "qpurify.cli", "qpurify.errors", "qpurify.bloch"
    }


def test_json_commands_load_no_bloch(tmp_path):
    for argv in (
        ["random", "--d", "2", "--n", "1", "--seed", "1", "--out", "rho.json"],
        ["purify", "--input", "rho.json", "--out", "psi.json"],
        ["purify", "--input", "rho.json", "--reshuffle", "--out", "psi.json"],
        ["purify", "--input", "rho.json", "--method", "spectral", "--out", "psi.json"],
    ):
        proc, names = loaded_modules(argv, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "qpurify.io" in names and "qpurify.bloch" not in names, argv
        # only synth and simulate build or read a circuit
        assert "qpurify.circuit" not in names, argv


def test_bare_import_loads_nothing_and_resolves_submodules(tmp_path):
    probe = (
        "import json, sys, qpurify\n"
        "listed = dir(qpurify)\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qpurify.'))\n"
        f"resolved = [m for m in {SUBMODULES!r} if getattr(qpurify, m) is sys.modules['qpurify.' + m]]\n"
        "print(json.dumps([loaded, listed, resolved]))\n"
    )
    proc = fresh_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded, listed, resolved = json.loads(proc.stdout)
    assert loaded == []
    assert resolved == SUBMODULES
    assert set(qpurify.__all__) | set(SUBMODULES) <= set(listed)
    # here, with the layers loaded, the list only grows by the names bound since
    assert set(listed) <= set(dir(qpurify))


def test_public_names_are_their_home_modules_objects():
    assert qpurify.__all__ == sorted(HOMES)
    for name, home in HOMES.items():
        assert getattr(qpurify, name) is getattr(importlib.import_module(f"qpurify.{home}"), name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'qpurify' has no attribute 'nonesuch'$"):
        qpurify.nonesuch
    assert not hasattr(qpurify, "cholesky")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qpurify import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == qpurify.__all__
    assert all(value is getattr(qpurify, name) for name, value in namespace.items())


def test_pinned_session_one_interpreter_per_command(tmp_path):
    entry = json.loads(GOLDENS.read_text())["tiny"]["0"]
    rank = "" if entry["rank"] is None else f"--rank {entry['rank']}"
    for name, template, output in SESSION:
        argv = template.format(
            d=entry["d"], n=entry["n"], seed=entry["seed"], rank=rank, grid=GRID["tiny"]
        ).split()
        proc = fresh_python(["-m", "qpurify.cli", *argv], tmp_path)
        assert proc.returncode == entry["exit_codes"][name], (name, proc.stderr)
        digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        assert digest == entry["digests"][name], name
