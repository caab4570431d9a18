"""JSON and CSV file formats.

Serialization is canonical so golden files are byte-stable: fixed key
order, compact separators, one trailing newline, and floats rendered as
the shortest decimal that round-trips to the same IEEE double (Python's
repr). Complex numbers are stored as [re, im] pairs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bloch import bloch_surface, grid_angles
from .circuit import (
    BranchParameters,
    CircuitParameters,
    GateSchedule,
    schedule_from_parameters,
)
from .core import (
    DensityMatrix,
    PureState,
    QuditShape,
    ToleranceConfig,
    validate_density,
)
from .errors import OutOfRange, ReconstructionFailure


def _dump(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _complex_matrix(rows) -> list[list[list[float]]]:
    return [[_pair(complex(v)) for v in row] for row in rows]


def _parse_complex_matrix(data, rows: int, cols: int) -> np.ndarray:
    out = np.empty((rows, cols), dtype=np.complex128)
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"expected {rows} matrix rows")
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"row {r}: expected {cols} entries")
        for c, pair in enumerate(row):
            out[r, c] = _parse_complex(pair)
    return out


def _parse_complex(pair) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    return complex(float(pair[0]), float(pair[1]))


def dump_density(rho: DensityMatrix) -> str:
    return _dump(
        {
            "d": rho.shape.d,
            "n": rho.shape.n,
            "matrix": _complex_matrix(rho.entries),
        }
    )


def load_density(text: str, tol: ToleranceConfig | None = None) -> DensityMatrix:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("matrix file must be a JSON object")
    shape = QuditShape(int(data["d"]), int(data["n"]))
    matrix = _parse_complex_matrix(data["matrix"], shape.N, shape.N)
    return validate_density(matrix, shape, tol)


def dump_state(state: PureState) -> str:
    # the text json.dumps gives for the record, written straight from the arrays
    amps = state.amplitudes
    bad = ~np.isfinite(amps)
    if bad.any():
        json.dumps(_pair(amps[bad][0]), allow_nan=False)  # raises json's ValueError
    pairs = ",".join([f"[{re!r},{im!r}]" for re, im in zip(amps.real.tolist(), amps.imag.tolist())])
    return (
        f'{{"ancilla_dim":{state.ancilla_dim},"system_dim":{state.system_dim},'
        f'"amplitudes":[{pairs}]}}\n'
    )


def load_state(text: str) -> PureState:
    data = json.loads(text)
    m = int(data["ancilla_dim"])
    n = int(data["system_dim"])
    amps = np.array([_parse_complex(p) for p in data["amplitudes"]], dtype=np.complex128)
    return PureState(m, n, amps)


def dump_coefficients(matrix) -> str:
    arr = np.asarray(matrix, dtype=np.complex128)
    return _dump({"N": arr.shape[0], "C": _complex_matrix(arr)})


def _parse_gate(record) -> tuple:
    """Gate-table row of one JSON record (the inverse of :func:`_gate_records`)."""
    kind = record["gate"]
    control = record["control_value"]
    if control is None:
        control = -1
    elif int(control) < 0:
        raise OutOfRange(f"control value {control} outside ancilla register")
    value = float(record["value"])
    if kind == "rotation":
        a, b = record["subspace"]
        return (False, int(control), int(a), int(b), value)
    if kind == "phase":
        return (True, int(control), int(record["basis"]), 0, value)
    raise ValueError(f"unknown gate kind {kind!r}")


def _gate_records(gates: np.ndarray) -> str:
    """JSON records of the gate table, comma-joined; control -1 (ancilla) is null.

    :class:`GateSchedule` admits finite values only, so no value needs the
    ``allow_nan`` check.
    """
    control = np.where(gates["control"] < 0, "null", gates["control"].astype(str))
    rows = zip(
        gates["phase"].tolist(),
        control.tolist(),
        gates["a"].tolist(),
        gates["b"].tolist(),
        gates["value"].tolist(),
    )
    return ",".join(
        [
            f'{{"gate":"phase","control_value":{c},"basis":{a},"value":{v!r}}}'
            if phase
            else f'{{"gate":"rotation","control_value":{c},"subspace":[{a},{b}],"value":{v!r}}}'
            for phase, c, a, b, v in rows
        ]
    )


def dump_circuit(shape: QuditShape, params: CircuitParameters, schedule: GateSchedule) -> str:
    parameters = {
        "weight_angles": params.weight_angles.tolist(),
        "branches": [
            {"dim": b.dim, "angles": b.angles.tolist(), "phases": b.phases.tolist()}
            for b in params.branches
        ],
    }
    head = _dump({"N": params.N, "d": shape.d, "n": shape.n, "parameters": parameters})
    # the schedule joins the record as its last key: head ends in "}\n"
    return f'{head[:-2]},"schedule":[{_gate_records(schedule.gates)}]}}\n'


def load_circuit(text: str) -> tuple[QuditShape, CircuitParameters, GateSchedule]:
    data = json.loads(text)
    shape = QuditShape(int(data["d"]), int(data["n"]))
    n = int(data["N"])
    if n != shape.N:
        raise ValueError(f"declared N={n} disagrees with d**n={shape.N}")
    block = data["parameters"]
    branches = tuple(
        BranchParameters(
            int(b["dim"]),
            np.array([float(a) for a in b["angles"]]),
            np.array([float(p) for p in b["phases"]]),
        )
        for b in block["branches"]
    )
    params = CircuitParameters(
        n, np.array([float(a) for a in block["weight_angles"]]), branches
    )
    schedule = GateSchedule(n, n, [_parse_gate(g) for g in data["schedule"]])
    # the schedule must be the one its parameters block prepares
    expected = schedule_from_parameters(params).gates
    rows = min(len(schedule.gates), len(expected))
    differs = np.flatnonzero(schedule.gates[:rows] != expected[:rows])
    if differs.size or len(schedule.gates) != len(expected):
        k = int(differs[0]) if differs.size else rows
        raise ReconstructionFailure(f"schedule row {k} disagrees with the parameters block")
    return shape, params, schedule


def bloch_csv(alphas, n_theta: int, n_phi: int) -> str:
    """CSV of surface points, one block per alpha: alpha,theta,phi,X,Y,Z."""
    lines = ["alpha,theta,phi,X,Y,Z"]
    thetas, phis = grid_angles(n_theta, n_phi)
    # theta-major, phi-minor, as bloch_surface emits its points
    grid = [f"{theta!r},{phi!r}" for theta in thetas.tolist() for phi in phis.tolist()]
    for alpha in alphas:
        alpha = float(alpha)
        points = bloch_surface(alpha, (n_theta, n_phi))
        head = repr(alpha)
        lines += [f"{head},{at},{p.x!r},{p.y!r},{p.z!r}" for at, p in zip(grid, points)]
    return "\n".join(lines) + "\n"


def sweep_alphas(count: int) -> list[float]:
    """``count`` mixing angles spanning [0, pi/2] uniformly."""
    if count < 1:
        raise ValueError(f"alpha count must be >= 1, got {count}")
    if count == 1:
        return [0.0]
    step = (math.pi / 2.0) / (count - 1)
    return [i * step for i in range(count)]
