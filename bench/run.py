"""qpurify benchmark: three closed-loop workloads, one client each.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and the command line runs as ``python3 -m qpurify.cli``, one
subprocess at a time. Every op checks its outputs. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` they are the per-layer ones, from a traced replay
of the ops (see tracing.py), and the spans are written to ``.bench_work/``.

An op fails when the program refuses it (an exception or a nonzero exit) or
when a check rejects an output. ``correct`` is false only for the second kind:
an output the program passed off as good.

Times are scaled to a nominal machine speed (see :class:`Clock`); the lines
before the JSON give the measured speed, the tail percentile and sample count,
and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = BENCH / "goldens.json"

NPROC = len(os.sched_getaffinity(0))
#: At most NPROC. One thread: at N <= 256 a second BLAS thread saves little,
#: and on a shared two-core machine it made every timing slower and noisier.
BLAS_THREADS = 1
# Pinned before numpy loads, for this process and every subprocess.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Largest gap allowed between the two simulation modes (acceptance criterion 6).
MODE_GAP = 1e-12
#: A hung subprocess fails its op instead of outliving the run.
CLI_TIMEOUT_S = 120
#: Reference-kernel time that defines the nominal machine speed.
REF_NOMINAL_S = 1e-3
#: Longest gap between two timings of the reference kernel.
REF_EVERY_S = 0.05

#: Size of each workload at full scale, and at the tiny scale of the smoke test.
SCALES = {
    "full": {
        "cli_shapes": ((2, 6), (4, 3)),
        "bloch_grid": "50x50",
        "probe_shape": (2, 3),
        "sweep_shapes": ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)),
        "large_shapes": ((2, 8), (4, 4)),
    },
    "tiny": {
        "cli_shapes": ((2, 3), (8, 1)),
        "bloch_grid": "10x10",
        "probe_shape": (2, 2),
        "sweep_shapes": ((2, 1), (3, 1), (2, 2)),
        "large_shapes": ((2, 4), (4, 2)),
    },
}

#: The seven commands of a CLI session, in order: (metric name, argv).
#: ``{rank}`` expands to ``--rank N/4`` on rank-deficient sessions.
SESSION = (
    ("random", "random --d {d} --n {n} --seed {seed} {rank} --out rho.json"),
    ("purify", "purify --input rho.json --out psi.json"),
    ("purify_reshuffle", "purify --input rho.json --reshuffle --out psi_reshuffle.json"),
    ("purify_spectral", "purify --input rho.json --method spectral --out psi_spectral.json"),
    ("synth", "synth --input rho.json --out circuit.json"),
    ("simulate", "simulate --circuit circuit.json --out state.json --expect rho.json"),
    ("bloch", "bloch --alphas 6 --grid {grid} --out bloch.csv"),
)
#: The output file of each command, digested and compared with the goldens.
OUTPUTS = {
    "random": "rho.json",
    "purify": "psi.json",
    "purify_reshuffle": "psi_reshuffle.json",
    "purify_spectral": "psi_spectral.json",
    "synth": "circuit.json",
    "simulate": "state.json",
    "bloch": "bloch.csv",
}
#: cli-roundtrip cycles through a fixed pool of four sessions, one per
#: (shape, rank) pair, whose output digests are pinned in goldens.json;
#: session k runs ``random --seed GOLDEN_SEED_BASE + k``.
GOLDEN_POOL = 4
GOLDEN_SEED_BASE = 1000

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    **{f"cli.{name}_ms": "ms" for name, _ in SESSION},
}

#: Per-layer metrics. Every ``.s`` is self time (children's spans excluded);
#: times and counts are per op of the traced replay.
PER_LAYER = {
    "rng.complex_normal_matrix.s": "s",
    "rng.random_density.s": "s",
    "core.validate_density.s": "s",
    "core.validate_density.calls": "count",
    "linalg.hermitian_eigen.s": "s",
    "linalg.hermitian_eigen.calls": "count",
    "linalg.reference_cholesky.s": "s",
    "linalg.partial_trace_ancilla.s": "s",
    "purify.cholesky_purify.s": "s",
    "purify.reshuffle_purify.s": "s",
    "purify.spectral_purify.s": "s",
    "purify.verify_purification.s": "s",
    "purify.zero_branches": "count",
    "circuit.extract_parameters.s": "s",
    "circuit.schedule_from_parameters.s": "s",
    "circuit.apply_schedule.s": "s",
    "circuit.simulate_product.s": "s",
    "circuit.gates": "count",
    "circuit.parameters": "count",
    "io.load_density.s": "s",
    "io.dump_density.s": "s",
    "io.dump_circuit.s": "s",
    "io.load_circuit.s": "s",
    "io.dump_state.s": "s",
    "io.load_state.s": "s",
    "io.bytes_written": "bytes",
    "bloch.bloch_surface.s": "s",
    "bloch.points": "count",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Clock:
    """Wall time scaled to a nominal machine speed.

    On the shared machine this benchmark was written on, the speed of the same
    code drifts by up to 1.7x between 20-second windows, with other tenants'
    load. A fixed reference kernel that does not touch qpurify is timed before
    each measured call (at most REF_EVERY_S apart) and after each long one, on
    the same core as the call. A call's wall time is multiplied by
    REF_NOMINAL_S / (the kernel's time around it). A slower qpurify still reads
    slower; a slower machine does not.
    """

    def __init__(self):
        import numpy as np

        self._matrix = np.linspace(0.0, 1.0, 256).reshape(16, 16) * (1 + 0.5j)
        self.samples: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        # interpreter loop plus small-array numpy calls, like qpurify's own mix
        total = 0
        for i in range(6000):
            total += i * i
        for _ in range(100):
            total += float(abs(self._matrix @ self._matrix.conj().T).max())

    def reference(self) -> float:
        """Time the kernel; the fastest of three discards interrupts."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        self._last = time.perf_counter()
        return best

    def measure(self, fn):
        """Call ``fn()``; return (its scaled seconds, its result)."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.reference()
        ref = self.samples[-1]
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        if seconds >= REF_EVERY_S:
            ref = (ref + self.reference()) / 2
        return seconds * REF_NOMINAL_S / ref, result

    def factor(self, first=0) -> float:
        """Scale factor over the samples from index ``first`` on."""
        return REF_NOMINAL_S / statistics.median(self.samples[first:])


def derive_seed(*parts) -> int:
    """63-bit seed determined by the workload seed and an op's position."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sha256_file(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_cli(argv: list[str], cwd: Path, spans: Path | None = None):
    """Run one CLI command; returns (exit code, last stderr line).

    With ``spans`` the command runs under the tracer and writes its spans there.
    """
    if spans is None:
        cmd = [sys.executable, "-m", "qpurify.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CLI_TIMEOUT_S} s"
    lines = proc.stderr.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def session_argv(template, d, n, seed, rank, scale):
    rank_flag = "" if rank is None else f"--rank {rank}"
    grid = SCALES[scale]["bloch_grid"]
    return template.format(d=d, n=n, seed=seed, rank=rank_flag, grid=grid).split()


class Problems(list):
    """(kind, text) pairs; kind is "refused" or "wrong"."""

    def check(self, ok: bool, text: str) -> None:
        if not ok:
            self.append(("wrong", text))


class CliRoundtrip:
    """cli-roundtrip: what users type. Six of the seven commands re-run the
    Jacobi validation and each pays interpreter start-up, so the core/linalg
    front door plus io and cli do most of the work."""

    #: Whole cycles of the pool, so every run has the same mix of inputs.
    block = GOLDEN_POOL

    def __init__(self, seed, scale, work, clock):
        self.seed = seed
        self.scale = scale
        self.work = work
        self.clock = clock
        self.tracer = None
        self.command_s = {name: [] for name, _ in SESSION}

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        run_cli(["--help"], self.work)

    def session(self, k):
        """Shape, rank and random seed of pool session ``k``: shapes alternate,
        and full rank alternates with rank N/4 every two sessions."""
        d, n = SCALES[self.scale]["cli_shapes"][k % 2]
        rank = None if k // 2 == 0 else d**n // 4
        return d, n, rank, GOLDEN_SEED_BASE + k

    def run_session(self, k, out):
        """Run the seven commands of pool session ``k`` in directory ``out``.

        Yields (command, scaled seconds, exit code, last stderr line, output digest).
        """
        d, n, rank, seed = self.session(k)
        for name, template in SESSION:
            argv = session_argv(template, d, n, seed, rank, self.scale)
            spans = None if self.tracer is None else out / f"{name}.spans.json"
            seconds, (code, err) = self.clock.measure(lambda: run_cli(argv, out, spans))
            if spans is not None and spans.is_file():
                self.tracer.absorb(spans)
            yield name, seconds, code, err, sha256_file(out / OUTPUTS[name])

    def op(self, i):
        # the workload seed picks where in the cycle a run starts
        k = (self.seed + i) % GOLDEN_POOL
        pinned = json.loads(GOLDENS.read_text())[self.scale][str(k)]["digests"]
        out = self.work / f"op{i}"
        out.mkdir()
        problems = Problems()
        total = 0.0
        for name, seconds, code, err, digest in self.run_session(k, out):
            self.command_s[name].append(seconds)
            total += seconds
            if code != 0:
                problems.append(("refused", f"{name} exit {code}: {err}"))
            if code == 0 or digest is not None:
                problems.check(digest == pinned[name], f"{name} output differs from goldens")
        shutil.rmtree(out)
        return total, problems


class InProcess:
    """Shared base of the two library workloads: ops call qpurify in this
    process, through module attributes so the tracer can rebind them."""

    block = 1

    def __init__(self, seed, scale, work, clock):
        import qpurify
        import qpurify.io  # the package namespace does not import io itself

        self.qp = qpurify
        self.seed = seed
        self.scale = SCALES[scale]
        self.clock = clock

    def op(self, i):
        problems = Problems()

        def body():
            try:
                self.run_op(i, problems)
            except self.qp.errors.QPurifyError as exc:
                problems.append(("refused", f"{type(exc).__name__}: {exc}"))

        seconds, _ = self.clock.measure(body)
        return seconds, problems

    def verify(self, problems, label, state, rho):
        report = self.qp.purify.verify_purification(state, rho)
        problems.check(report.passed, f"{label}: partial trace misses rho by {report.max_abs_error!r}")

    def check_circuit(self, problems, rho, params, product, gates):
        """Parameter count, agreement of the two simulation modes, circuit state vs rho."""
        problems.check(params.parameter_count == rho.shape.N**2 - 1, "parameter count != N^2-1")
        gap = float(abs(product.amplitudes - gates.amplitudes).max())
        problems.check(gap <= MODE_GAP, f"simulation modes differ by {gap!r}")
        self.verify(problems, "circuit", product, rho)


class SmallSweep(InProcess):
    """small-sweep: the acceptance-style research sweep over small registers.
    Per-call overhead (frozen-dataclass checks, Python row loops) and small-N
    Jacobi dominate; it guards against a large-N vectorization that taxes
    small N."""

    def setup(self):
        # ranks {N, N/2 rounded up, 1}, each once per shape: 17 inputs. With an
        # odd count the median op falls inside one input class, not in the gap
        # between two, so op_p50_ms is steady.
        self.combos = [
            (d, n, None if rank == d**n else rank)
            for d, n in self.scale["sweep_shapes"]
            for rank in sorted({d**n, -(-(d**n) // 2), 1}, reverse=True)
        ]
        # one untimed pass over every combination warms caches and lazy imports
        for i in range(len(self.combos)):
            self.run_op(i, Problems(), warm=True)

    def run_op(self, i, problems, warm=False):
        qp = self.qp
        d, n, rank = self.combos[i % len(self.combos)]
        seed = derive_seed("small-sweep", self.seed, i, warm)
        rho = qp.rng.random_density(d, n, seed, rank=rank)
        coeffs = qp.purify.cholesky_purify(rho)
        self.verify(problems, "cholesky", qp.purify.coefficients_to_state(coeffs), rho)
        self.verify(problems, "reshuffle", qp.purify.reshuffle_purify(rho)[1], rho)
        self.verify(problems, "spectral", qp.purify.spectral_purify(rho), rho)
        if rank is None:  # positive definite: the elimination oracle applies
            oracle = qp.linalg.reference_cholesky(rho.entries)
            gap = float(abs(coeffs.C - oracle[:, ::-1].T).max())
            problems.check(gap <= qp.core.DEFAULT_TOL.eps_recon, f"oracle gap {gap!r}")
        params = qp.circuit.extract_parameters(coeffs)
        product = qp.circuit.simulate_circuit(params, "product")
        gates = qp.circuit.simulate_circuit(params, "gates")
        self.check_circuit(problems, rho, params, product, gates)


class CircuitLarge(InProcess):
    """circuit-large: N=256 circuits from a rho built without validation, so
    the Jacobi front door is bypassed entirely and the 65,535-gate object
    graph through extract, schedule, apply and circuit JSON does the work."""

    def setup(self):
        qp = self.qp
        self.rhos = []
        for k, (d, n) in enumerate(self.scale["large_shapes"]):
            shape = qp.core.QuditShape(d, n)
            rng = qp.rng.CounterRng(derive_seed("circuit-large", self.seed, k))
            g = rng.complex_normal_matrix(shape.N, shape.N)
            gram = g @ g.conj().T
            gram = (gram + gram.conj().T) / 2.0
            gram /= float(gram.trace().real)
            rho = qp.core.DensityMatrix(shape, gram)
            qp.purify.cholesky_purify(rho)  # warms BLAS: the first factorization is slow
            self.rhos.append(rho)

    def run_op(self, i, problems):
        qp = self.qp
        circuit = qp.circuit
        rho = self.rhos[i % len(self.rhos)]
        coeffs = qp.purify.cholesky_purify(rho)
        self.verify(problems, "cholesky", qp.purify.coefficients_to_state(coeffs), rho)
        params = circuit.extract_parameters(coeffs)
        schedule = circuit.schedule_from_parameters(params)
        gates = circuit.apply_schedule(schedule)
        product = circuit.simulate_circuit(params, "product")
        self.check_circuit(problems, rho, params, product, gates)
        _, _, loaded = qp.io.load_circuit(qp.io.dump_circuit(rho.shape, params, schedule))
        self.verify(problems, "loaded circuit", circuit.apply_schedule(loaded), rho)
        back = qp.io.load_state(qp.io.dump_state(gates))
        problems.check(bool((back.amplitudes == gates.amplitudes).all()), "state JSON not exact")


WORKLOADS = {
    "cli-roundtrip": CliRoundtrip,
    "small-sweep": SmallSweep,
    "circuit-large": CircuitLarge,
}


def run_ops(workload, seconds=None, count=None, tracer=None):
    """Closed loop from op 0: run whole blocks of ops until ``seconds`` of wall
    time have passed or ``count`` ops have run.

    Returns per-op scaled seconds and per-op problems.
    """
    times, problems = [], []
    start = time.perf_counter()
    while True:
        for _ in range(workload.block):
            if tracer is not None:
                tracer.op = len(times)
            op_seconds, found = workload.op(len(times))
            times.append(op_seconds)
            problems.append(found)
        if count is not None and len(times) >= count:
            return times, problems
        if count is None and time.perf_counter() - start >= seconds:
            return times, problems


def tail(times):
    """Percentile and value of the tail: the highest percentile with ten
    samples beyond it, but not below p90 (nearest rank), so that a run of
    fewer than 100 ops still reports a tail rather than a low percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))
    return 100.0 * rank / n, ordered[rank - 1]


def cli_probe(seed, scale, work, clock, repeats=5):
    """Median per-command times of a few small CLI sessions.

    Every end-to-end metric is reported on every workload; on the two
    in-process workloads the ``cli.*_ms`` figures come from these sessions,
    run after the measured loop.
    """
    d, n = SCALES[scale]["probe_shape"]
    out = work / "probe"
    out.mkdir(parents=True)
    times, problems = {name: [] for name, _ in SESSION}, Problems()
    for r in range(repeats):
        for name, template in SESSION:
            argv = session_argv(template, d, n, derive_seed("probe", seed, r), None, scale)
            seconds, (code, err) = clock.measure(lambda: run_cli(argv, out))
            times[name].append(seconds)
            if code != 0:
                problems.append(("refused", f"probe {name} exit {code}: {err}"))
    shutil.rmtree(out)
    return {name: statistics.median(v) for name, v in times.items()}, problems


def cli_startup_ms(cwd, clock, repeats=3) -> float:
    """Median time of ``qpurify --help``: interpreter start plus imports."""
    return 1e3 * statistics.median(
        clock.measure(lambda: run_cli(["--help"], cwd))[0] for _ in range(repeats)
    )


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "src_lines": src_lines,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, seconds, scale, work, clock):
    """Untraced run: set-up several times, then the closed loop, then the probe."""
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[name](seed, scale, work, clock)
        setups.append(clock.measure(workload.setup)[0])
    times, problems = run_ops(workload, seconds=seconds)
    failed = sum(1 for p in problems if p)
    if isinstance(workload, CliRoundtrip):
        command_s = {k: statistics.median(v) for k, v in workload.command_s.items()}
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        command_s, probe_problems = cli_probe(seed, scale, work, clock)
        problems.append(probe_problems)
    pct, tail_s = tail(times)
    print(f"ops {len(times)}, failed {failed} (fail_ratio {failed / len(times):.4f}); "
          f"op_tail_ms is p{pct:.2f} of {len(times)} samples")
    values = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric((len(times) - failed) / sum(times), "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "success_ratio": metric((len(times) - failed) / len(times), "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    for cmd, s in command_s.items():
        values[f"cli.{cmd}_ms"] = metric(s * 1e3, "ms")
    return len(times), failed, problems, values


def per_layer(name, seed, seconds, scale, work, clock):
    """Traced run: ops untraced for half the time, then the same ops traced."""
    from tracing import Tracer

    startup_ms = cli_startup_ms(ROOT, clock)
    workload = WORKLOADS[name](seed, scale, work, clock)
    workload.setup()
    plain, problems = run_ops(workload, seconds=seconds / 2)
    tracer = Tracer()
    first_sample = len(clock.samples)
    if isinstance(workload, CliRoundtrip):
        workload.tracer = tracer  # the commands trace themselves in their processes
        traced, more = run_ops(workload, count=len(plain), tracer=tracer)
    else:
        with tracer:
            traced, more = run_ops(workload, count=len(plain), tracer=tracer)
    problems += more
    ops = len(traced)
    factor = clock.factor(first_sample)
    seconds_by, calls_by = tracer.self_times()
    values = {}
    for key, unit in PER_LAYER.items():
        if key.endswith(".s"):
            value = seconds_by.get(key[:-2], 0.0) * factor / ops
        elif key.endswith(".calls"):
            value = calls_by.get(key[: -len(".calls")], 0) / ops
        else:
            value = tracer.counts.get(key, 0) / ops
        values[key] = metric(value, unit)
    values["cli.startup_ms"] = metric(startup_ms, "ms")
    values["trace.overhead_ratio"] = metric(sum(traced) / sum(plain), "ratio")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{name}-seed{seed}.json"
    tracer.dump(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
          f"self time per op, scaled:")
    for span_name in sorted(seconds_by, key=seconds_by.get, reverse=True):
        print(f"  {seconds_by[span_name] * factor / ops:12.6f} s  "
              f"{calls_by[span_name] / ops:10.2f} calls  {span_name}")
    failed = sum(1 for p in problems if p)
    return len(problems), failed, problems, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="tiny sizes are for the smoke test only")
    args = parser.parse_args(argv)
    if not (SRC / "qpurify" / "cli.py").is_file():
        sys.exit(f"error: no qpurify sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    # one core for this process and its subprocesses, so the reference kernel
    # and the measured calls always run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    print("env " + json.dumps(environment(), sort_keys=True))
    clock = Clock()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    run = per_layer if args.trace else end_to_end
    try:
        attempted, failed, problems, values = run(
            args.workload, args.seed, args.seconds, args.scale, work, clock
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wrong = [text for p in problems for kind, text in p if kind == "wrong"]
    refused = sorted({text for p in problems for kind, text in p if kind == "refused"})
    ref_ms = [s * 1e3 for s in clock.samples]
    print(f"reference kernel {statistics.median(ref_ms):.4f} ms median of {len(ref_ms)} "
          f"(range {min(ref_ms):.4f}-{max(ref_ms):.4f}); times scaled to "
          f"{REF_NOMINAL_S * 1e3:g} ms")
    for text in refused[:20]:
        print(f"refused: {text}")
    for text in wrong[:20]:
        print(f"WRONG: {text}")
    for key, entry in values.items():
        print(f"  {key:36s} {entry['value']:.6g} {entry['unit']}")
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": values}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
