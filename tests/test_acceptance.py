"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion. Seeds are fixed; every expected value is either exact or
bounded by the stated tolerance.
"""

import json
import math

import numpy as np
import pytest
from cli_runner import CliRunner

from qpurify import (
    QuditShape,
    bloch_surface,
    cholesky_purify,
    coefficients_to_state,
    extract_parameters,
    gauge_transform,
    partial_trace_ancilla,
    qubit_closed_form,
    random_density,
    random_unitary,
    reference_cholesky,
    simulate_circuit,
    spectral_purify,
    validate_density,
    verify_purification,
)
from qpurify.circuit import CircuitParameters
from qpurify.cli import main
from qpurify.rng import CounterRng

SHAPES = [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3)]
PD_SHAPES = SHAPES + [(3, 2), (4, 2)]  # N up to 16


def _report(number: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _pd_density(d, n, seed, weight=0.1):
    rho = random_density(d, n, seed=seed)
    dim = rho.shape.N
    mixed = (1 - weight) * rho.entries + weight * np.eye(dim) / dim
    return validate_density(mixed, rho.shape)


def test_criterion_1_round_trip_purification():
    worst = 0.0
    for d, n in SHAPES:
        for seed in range(200):
            rho = random_density(d, n, seed=seed)
            triangular = coefficients_to_state(cholesky_purify(rho))
            spectral = spectral_purify(rho)
            for state in (triangular, spectral):
                worst = max(worst, verify_purification(state, rho).max_abs_error)
    _report(1, f"round-trip error {worst:.3e} <= 1e-10 on 1000 states, both methods", worst <= 1e-10)


def test_criterion_2_closed_form_agreement():
    worst = 0.0
    for seed in range(1000):
        rho = random_density(2, 1, seed=seed)
        gap = np.max(np.abs(cholesky_purify(rho).C - qubit_closed_form(rho).C))
        worst = max(worst, float(gap))
    # 100 rank-1 states with rho11 = 0: unit trace + PSD force |0><0| exactly,
    # both paths take the dedicated branch
    ground = validate_density(np.diag([1.0, 0.0]), QuditShape(2, 1))
    for _ in range(100):
        gap = np.max(np.abs(cholesky_purify(ground).C - qubit_closed_form(ground).C))
        worst = max(worst, float(gap))
    _report(2, f"closed-form vs general gap {worst:.3e} <= 1e-12", worst <= 1e-12)


def test_criterion_3_gauge_pattern():
    ok = True
    cases = [random_density(d, n, seed=seed) for d, n in SHAPES for seed in range(20)]
    cases += [random_density(2, 2, seed=seed, rank=r) for seed in range(10) for r in (1, 2)]
    cases += [
        validate_density(np.diag([1.0, 0.0]), QuditShape(2, 1)),
        validate_density(np.eye(3) / 3, QuditShape(3, 1)),
    ]
    for rho in cases:
        c = cholesky_purify(rho).C
        dim = rho.shape.N
        for alpha in range(dim):
            anti = c[alpha, dim - 1 - alpha]
            ok &= anti.imag == 0.0 and anti.real >= 0.0
            for i in range(dim - alpha, dim):
                ok &= c[alpha, i] == 0.0
    _report(3, "zero pattern bit-exact and anti-diagonal real nonnegative", bool(ok))


def test_criterion_4_oracle_equivalence():
    worst = 0.0
    count = 0
    per_shape = math.ceil(200 / len(PD_SHAPES))
    for d, n in PD_SHAPES:
        for seed in range(per_shape):
            rho = _pd_density(d, n, seed)
            dim = rho.shape.N
            coeffs = cholesky_purify(rho).C
            oracle = reference_cholesky(rho.entries)
            gap = max(
                abs(coeffs[alpha, i] - oracle[i, dim - 1 - alpha])
                for alpha in range(dim)
                for i in range(dim)
            )
            worst = max(worst, gap)
            count += 1
    _report(
        4,
        f"purifier matches reversed-basis elimination, gap {worst:.3e} <= 1e-10 ({count} PD states)",
        worst <= 1e-10 and count >= 200,
    )


def test_criterion_5_parameter_counting():
    ok = True
    expected = {(2, 1): 3, (3, 1): 8, (2, 2): 15}
    for (d, n), count in expected.items():
        rho = random_density(d, n, seed=0)
        params = extract_parameters(cholesky_purify(rho))
        ok &= params.parameter_count == count
    for d, n in [(4, 1), (2, 3), (3, 2), (4, 2)]:
        rho = random_density(d, n, seed=1)
        params = extract_parameters(cholesky_purify(rho))
        ok &= params.parameter_count == rho.shape.N ** 2 - 1
    for d in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            ok &= 2 * d ** (2 * n - 1) - 2 < d ** (2 * n) - 1
    _report(5, "3 / 8 / 15 / N^2-1 parameters; smaller ancilla always insufficient", bool(ok))


def _random_parameters(n, seed):
    rng = CounterRng(seed)
    weights = np.array([(math.pi / 2) * rng.uniform() for _ in range(n - 1)])
    branches = []
    for k in range(n):
        m = n - k
        angles = np.array([(math.pi / 2) * rng.uniform() for _ in range(m - 1)])
        phases = np.array([2 * math.pi * 0.999 * rng.uniform() for _ in range(m - 1)])
        branches.append((m, angles, phases))
    return CircuitParameters.from_branches(n, weights, branches)


def test_criterion_6_circuit_fidelity():
    worst_amp = 0.0
    per_shape = math.ceil(200 / len(PD_SHAPES))
    for d, n in PD_SHAPES:
        for seed in range(per_shape):
            coeffs = cholesky_purify(_pd_density(d, n, seed, weight=0.2))
            assert np.min(coeffs.row_weights()) > 1e-8
            state = simulate_circuit(extract_parameters(coeffs))
            gap = np.max(np.abs(state.amplitudes - coeffs.C.reshape(-1)))
            worst_amp = max(worst_amp, float(gap))
    worst_mode = 0.0
    for seed in range(200):
        params = _random_parameters(2 + seed % 7, seed)
        product = simulate_circuit(params, mode="product")
        gates = simulate_circuit(params, mode="gates")
        worst_mode = max(worst_mode, float(np.max(np.abs(product.amplitudes - gates.amplitudes))))
    _report(
        6,
        f"coefficients reproduced to {worst_amp:.3e} <= 1e-10; modes agree to {worst_mode:.3e} <= 1e-12",
        worst_amp <= 1e-10 and worst_mode <= 1e-12,
    )


def test_criterion_7_gauge_freedom():
    worst = 0.0
    for seed in range(100):
        d, n = SHAPES[seed % len(SHAPES)]
        rho = random_density(d, n, seed=seed)
        state = coefficients_to_state(cholesky_purify(rho))
        unitary = random_unitary(rho.shape.N, seed=seed + 10_000)
        moved = gauge_transform(state, unitary)
        worst = max(worst, verify_purification(moved, rho).max_abs_error)
    _report(7, f"ancilla-rotated purifications still round-trip, {worst:.3e} <= 1e-10", worst <= 1e-10)


def test_criterion_8_bloch_invasion_law():
    alphas = [0.0, math.pi / 10, 2 * math.pi / 10, 3 * math.pi / 10, 4 * math.pi / 10, math.pi / 2]
    worst = 0.0
    for alpha in alphas:
        center = math.sin(alpha) ** 2
        radius_sq = math.cos(alpha) ** 4
        x, y, z = bloch_surface(alpha, (50, 50)).T
        law = float(np.max(np.abs(x**2 + y**2 + (z - center) ** 2 - radius_sq)))
        worst = max(worst, law)
    pole = float(np.max(np.abs(bloch_surface(math.pi / 2, (50, 50)) - [0.0, 0.0, 1.0])))
    _report(
        8,
        f"contraction/translation law holds to {worst:.3e} <= 1e-12; pole collapse {pole:.3e}",
        worst <= 1e-12 and pole <= 1e-12,
    )


def test_criterion_9_cli_end_to_end(tmp_path):
    runner = CliRunner()
    ok = True
    goldens = {}
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        produced = {}
        for seed in range(100):
            d, n = SHAPES[seed % len(SHAPES)]
            rho = base / f"rho_{seed}.json"
            psi = base / f"psi_{seed}.json"
            circuit = base / f"circuit_{seed}.json"
            out = base / f"out_{seed}.json"
            steps = [
                ["random", "--d", str(d), "--n", str(n), "--seed", str(seed), "--out", str(rho)],
                ["purify", "--input", str(rho), "--out", str(psi)],
                ["synth", "--input", str(rho), "--out", str(circuit)],
                ["simulate", "--circuit", str(circuit), "--out", str(out), "--expect", str(rho)],
            ]
            for step in steps:
                result = runner.invoke(main, step)
                ok &= result.exit_code == 0
            for path in (rho, psi, circuit, out):
                produced[path.name] = path.read_bytes()
        csv = base / "surface.csv"
        result = runner.invoke(main, ["bloch", "--alphas", "6", "--grid", "20x20", "--out", str(csv)])
        ok &= result.exit_code == 0
        produced[csv.name] = csv.read_bytes()
        goldens[run] = produced
    stable = goldens["first"] == goldens["second"]
    _report(
        9,
        f"random/purify/synth/simulate pipeline exits 0 for 100 seeds; "
        f"{len(goldens['first'])} golden files byte-stable across runs",
        bool(ok) and stable,
    )
