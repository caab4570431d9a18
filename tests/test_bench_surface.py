"""The benchmark's in-process workloads still run on this package.

``bench/run.py`` reaches the package through module attributes and function
signatures of its own (``schedule_from_parameters(params)``,
``apply_schedule(schedule)``, ``load_circuit`` returning a triple, ...). This
test loads the script as it is and runs a few ops of each in-process workload
at the smoke test's tiny scale, so a change to that surface fails here first.
"""

import importlib.util
import os
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture
def bench_run():
    saved = dict(os.environ)  # the script pins the BLAS thread counts on import
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(saved)


@pytest.mark.parametrize("workload", ["small-sweep", "circuit-large"])
def test_in_process_workload_runs_clean(bench_run, workload, tmp_path):
    ops = bench_run.WORKLOADS[workload](5, "tiny", tmp_path, bench_run.Clock())
    ops.setup()
    times, problems = bench_run.run_ops(ops, count=4)
    assert len(times) == 4
    assert [p for p in problems if p] == []
