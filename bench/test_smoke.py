"""Smoke test of the benchmark: a tiny-size run of every workload, untraced and traced.

Run from the repository root: python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
POOL = json.loads((BENCH / "goldens.json").read_text())["tiny"]
SEED = 5


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def run_tiny(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_failures_are_the_known_defect(workload, trace):
    lines, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1

    # The only failures are synth exiting 3 on rank-deficient input (it trips
    # a hard-coded amplitude tolerance on zero-branch residue), so the count
    # is fixed by the exit codes pinned for the pool sessions that ran.
    expected = 0
    if workload == "cli-roundtrip":
        # a traced run replays the ops of its untraced half
        ops = range(result["attempted"] // 2) if trace else range(result["attempted"])
        sessions = [POOL[str((SEED + i) % len(POOL))] for i in ops]
        failing = [s for s in sessions if s["exit_codes"]["synth"] == 3]
        assert all(s["rank"] is not None for s in failing)
        expected = len(failing) * (2 if trace else 1)
        refused = [line for line in lines if line.startswith("refused: ")]
        assert refused and all(line.startswith("refused: synth exit 3: ") for line in refused)
    assert result["failed"] == expected
    if not trace:
        ratio = result["metrics"]["success_ratio"]["value"]
        assert ratio == pytest.approx(1 - expected / result["attempted"])
    if trace and workload == "circuit-large":
        assert result["metrics"]["linalg.hermitian_eigen.calls"]["value"] == 0


def test_fails_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "small-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
