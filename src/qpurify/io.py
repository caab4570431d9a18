"""JSON and CSV file formats.

Serialization is canonical so golden files are byte-stable: fixed key
order, compact separators, one trailing newline, and floats rendered as
the shortest decimal that round-trips to the same IEEE double (Python's
repr). Complex numbers are stored as [re, im] pairs. The writers build the
text json.dumps would give straight from the arrays.

A circuit file's ``schedule`` block is derived from its ``parameters``
block, and one renderer, :func:`_schedule_text`, writes it. The reader
parses only the record before the block, rebuilds the gate table and
compares the block's bytes with the rendered text in place; any other
layout of the same record goes through a full parse with the same errors.
Dimension fields must be JSON integers.
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


def _integer(record, key: str) -> int:
    """``record[key]``, which must be a JSON integer (not a float, string or bool)."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def _pairs(values: np.ndarray) -> str:
    """The [re, im] pairs of a 1-D complex array, comma-joined."""
    # no name holds the column lists, so they are freed before the join
    return ",".join(
        [f"[{re!r},{im!r}]" for re, im in zip(values.real.tolist(), values.imag.tolist())]
    )


def _complex_items(values) -> str:
    """The items of a 1-D or 2-D complex array as json.dumps writes them, without
    the array's outer brackets."""
    values = np.asarray(values, dtype=np.complex128)
    bad = ~np.isfinite(values)
    if bad.any():
        first = values[bad][0]
        json.dumps([float(first.real), float(first.imag)], allow_nan=False)  # raises json's ValueError
    if values.ndim == 2:
        return ",".join([f"[{_pairs(row)}]" for row in values])
    return _pairs(values)


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
    return f'{{"d":{rho.shape.d},"n":{rho.shape.n},"matrix":[{_complex_items(rho.entries)}]}}\n'


def load_density(text: str, tol: ToleranceConfig | None = None) -> DensityMatrix:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("matrix file must be a JSON object")
    shape = QuditShape(_integer(data, "d"), _integer(data, "n"))
    matrix = _parse_complex_matrix(data["matrix"], shape.N, shape.N)
    return validate_density(matrix, shape, tol)


def dump_state(state: PureState) -> str:
    return (
        f'{{"ancilla_dim":{state.ancilla_dim},"system_dim":{state.system_dim},'
        f'"amplitudes":[{_complex_items(state.amplitudes)}]}}\n'
    )


def load_state(text: str) -> PureState:
    data = json.loads(text)
    m = _integer(data, "ancilla_dim")
    n = _integer(data, "system_dim")
    amps = np.array([_parse_complex(p) for p in data["amplitudes"]], dtype=np.complex128)
    return PureState(m, n, amps)


def dump_coefficients(matrix) -> str:
    arr = np.asarray(matrix, dtype=np.complex128)
    return f'{{"N":{arr.shape[0]},"C":[{_complex_items(arr)}]}}\n'


#: Where the schedule block starts in a canonical circuit file: it is the
#: record's last key.
_SCHEDULE_KEY = ',"schedule":['

#: Gate rows rendered per piece of the schedule block.
_BLOCK_ROWS = 4096


def _schedule_text(gates: np.ndarray, values: list[str] | None = None):
    """Canonical text of the schedule block, from ``,"schedule":[`` to the
    file's end, in pieces of at most ``_BLOCK_ROWS`` gate records.

    ``values`` are the gates' value tokens; None renders each value with
    ``repr``. Control -1 (ancilla register) is written null. The writer joins
    the pieces; the reader compares each one in place, so the whole block
    never has to exist twice. :class:`GateSchedule` admits finite values
    only, so no value needs the ``allow_nan`` check.
    """
    yield _SCHEDULE_KEY
    for lo in range(0, len(gates), _BLOCK_ROWS):
        block = gates[lo : lo + _BLOCK_ROWS]
        if values is None:
            tokens = map(repr, block["value"].tolist())
        else:
            tokens = values[lo : lo + _BLOCK_ROWS]
        rows = zip(
            block["phase"].tolist(),
            block["control"].tolist(),
            block["a"].tolist(),
            block["b"].tolist(),
            tokens,
        )
        if lo:
            yield ","
        yield ",".join(
            [
                f'{{"gate":"phase","control_value":{"null" if c < 0 else c},"basis":{a},"value":{v}}}'
                if phase
                else f'{{"gate":"rotation","control_value":{"null" if c < 0 else c},'
                f'"subspace":[{a},{b}],"value":{v}}}'
                for phase, c, a, b, v in rows
            ]
        )
    yield "]}\n"


def dump_circuit(shape: QuditShape, params: CircuitParameters, schedule: GateSchedule) -> str:
    # one repr per parameter; the table of these parameters holds the weight
    # angles, then each branch's angles and its phases negated
    weights = list(map(repr, params.weight_angles.tolist()))
    values, branches, stored = list(weights), [], [params.weight_angles]
    for b in params.branches:
        angles = list(map(repr, b.angles.tolist()))
        phases = list(map(repr, b.phases.tolist()))
        branches.append(
            f'{{"dim":{b.dim},"angles":[{",".join(angles)}],"phases":[{",".join(phases)}]}}'
        )
        values += angles
        values += [t[1:] if t[0] == "-" else "-" + t for t in phases]  # repr(-x), for finite x
        stored += [b.angles, -b.phases]
    head = (
        f'{{"N":{params.N},"d":{shape.d},"n":{shape.n},"parameters":'
        f'{{"weight_angles":[{",".join(weights)}],"branches":[{",".join(branches)}]}}'
    )
    gates = schedule.gates
    stored = np.concatenate(stored)
    # bit for bit, so that -0.0 and 0.0 differ: otherwise repr the table's own values
    if len(gates) != len(stored) or not np.array_equal(
        gates["value"].view(np.int64), stored.view(np.int64)
    ):
        values = None
    return "".join([head, *_schedule_text(gates, values)])


def _parse_gate(record) -> tuple:
    """Gate-table row of one JSON record (the inverse of :func:`_schedule_text`)."""
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


def _circuit_head(data) -> tuple[QuditShape, CircuitParameters]:
    """Shape and parameters of a parsed circuit record."""
    shape = QuditShape(_integer(data, "d"), _integer(data, "n"))
    n = _integer(data, "N")
    if n != shape.N:
        raise ValueError(f"declared N={n} disagrees with d**n={shape.N}")
    block = data["parameters"]
    branches = tuple(
        BranchParameters(
            _integer(b, "dim"),
            np.array([float(a) for a in b["angles"]]),
            np.array([float(p) for p in b["phases"]]),
        )
        for b in block["branches"]
    )
    params = CircuitParameters(
        n, np.array([float(a) for a in block["weight_angles"]]), branches
    )
    return shape, params


def _load_canonical_circuit(text: str):
    """The circuit in ``text`` if its schedule block is, byte for byte, the
    one its parameters give (as :func:`dump_circuit` writes it); else None."""
    cut = text.find(_SCHEDULE_KEY)
    if cut < 0:
        return None
    try:
        shape, params = _circuit_head(json.loads(text[:cut] + "}"))
    except Exception:
        return None  # whatever is wrong, the full parse raises it as it always has
    schedule = schedule_from_parameters(params)
    pos = cut
    for piece in _schedule_text(schedule.gates):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return (shape, params, schedule) if pos == len(text) else None


def load_circuit(text: str) -> tuple[QuditShape, CircuitParameters, GateSchedule]:
    """Shape, parameters and gate table of a circuit file.

    A file as :func:`dump_circuit` writes it is accepted by comparing its
    schedule block with the text the parameters give. Any other layout is
    parsed in full, and its schedule must agree with its parameters.
    """
    circuit = _load_canonical_circuit(text)
    if circuit is not None:
        return circuit
    data = json.loads(text)
    shape, params = _circuit_head(data)
    n = params.N
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
