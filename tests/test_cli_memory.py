"""The memory each command path takes at N = 256, in-process under
``tracemalloc``.

Each command runs twice through ``cli.main``, and the second run's traced peak
is bounded in N×N complex arrays (N² · 16 bytes), so that imports and
first-call caches do not count. The bounds are the peaks measured with
``random --d 2 --n 8 --seed 1`` (numpy 2.4, x86-64) plus a margin of about
half an array: random 3.03, random --rank 64 2.17, purify 4.04, purify
--reshuffle 4.04, synth 6.93 and simulate --expect 5.53 arrays. A change that
earns a lower peak lowers its bound.
"""

import tracemalloc

import pytest
from cli_runner import CliRunner

from qpurify.cli import main

N = 256
ARRAY_BYTES = N * N * 16

#: Per command path: its arguments and the bound on its peak, in arrays.
COMMANDS = {
    "random": (["random", "--d", "2", "--n", "8", "--seed", "1", "--out", "rho.json"], 3.5),
    "random --rank 64": (
        ["random", "--d", "2", "--n", "8", "--seed", "1", "--rank", "64", "--out", "rho64.json"],
        2.7,
    ),
    "purify": (["purify", "--input", "rho.json", "--out", "psi.json"], 4.5),
    "purify --reshuffle": (["purify", "--input", "rho.json", "--reshuffle", "--out", "psi.json"], 4.5),
    "synth": (["synth", "--input", "rho.json", "--out", "circuit.json"], 7.5),
    "simulate --expect": (
        ["simulate", "--circuit", "circuit.json", "--out", "state.json", "--expect", "rho.json"],
        6.0,
    ),
}


def run(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the N = 256 density and circuit files."""
    path = tmp_path_factory.mktemp("n256")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(path)
        run(COMMANDS["random"][0])
        run(COMMANDS["synth"][0])
    return path


@pytest.mark.parametrize("command", COMMANDS)
def test_command_peak(workdir, monkeypatch, command):
    argv, bound = COMMANDS[command]
    monkeypatch.chdir(workdir)
    run(argv)  # warm imports and caches
    tracemalloc.start()
    try:
        run(argv)
        peak = tracemalloc.get_traced_memory()[1] / ARRAY_BYTES
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"{command} peaked at {peak:.2f} arrays"
