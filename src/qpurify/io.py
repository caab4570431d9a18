"""JSON and CSV file formats.

Serialization is canonical so golden files are byte-stable: fixed key
order, compact separators, one trailing newline, and floats rendered as
the shortest decimal that round-trips to the same IEEE double (Python's
repr). Complex numbers are stored as [re, im] pairs. The writers build the
text json.dumps would give straight from the arrays.

The readers first check that a file has the layout the writers produce,
and read such a file with no Python work per entry:

* a state or density file is parsed up to its array; the array's text,
  once its number tokens are deleted, must be exactly the bracket-and-comma
  skeleton its dimensions imply, and one ``json.loads`` of the tokens as a
  flat list gives its doubles;
* a circuit file's ``schedule`` block is derived from its ``parameters``
  block. One renderer, :func:`_circuit_pieces`, writes the whole file from
  its shape and the parameter lists' number tokens, with every byte of the
  block but its values built once per N; the writer refuses a schedule that
  disagrees with its parameters. The reader decodes the head (the text
  before the block) with the full parse's own :func:`_circuit_head`, takes
  the head's innermost lists as the tokens, and accepts the file only if it
  is, byte for byte, the text those tokens render to.

Any other layout goes through a full parse with the same errors, where gate
rows from outside are range-checked before they are compared. Dimension
fields and gate indices must be JSON integers, every other number a JSON
int or float (not a string or bool) within the float range (BadRange), and
every list or object a JSON list or object. A value of the wrong JSON type
is a ValueError that names its field; so is a file nested too deeply for
``json`` to decode, which names the file kind.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from itertools import chain, islice, repeat

import numpy as np

from .bloch import bloch_surface, grid_angles
from .circuit import (
    GATE,
    CircuitParameters,
    GateSchedule,
    _gate_table,
    schedule_from_parameters,
)
from .core import (
    DensityMatrix,
    PureState,
    QuditShape,
    ToleranceConfig,
    validate_density,
)
from .errors import BadRange, OutOfRange, ReconstructionFailure, ShapeMismatch, shown


def _integer(value, name: str) -> int:
    """``value``, which must be a JSON integer (not a float, string or bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name!r} must be a JSON integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a float; it must be a JSON int or float (not a string or
    bool), and an int must lie within the float range (BadRange)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name!r} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise BadRange(f"{name!r} holds an integer beyond the float range") from None


def _json(value, kind: type, name: str):
    """``value``, which must be a JSON list (``kind`` list) or object (dict)."""
    if not isinstance(value, kind):
        raise ValueError(f"{name!r} must be a JSON {'list' if kind is list else 'object'}")
    return value


def _numbers(values, name: str) -> np.ndarray:
    """The doubles of ``values``, a JSON list of numbers (see :func:`_number`)."""
    if set(map(type, _json(values, list, name))) <= {int, float}:
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:
            pass  # an integer beyond the float range, which _number names
    return np.array([_number(v, name) for v in values], dtype=np.float64)


def _objects(values, name: str) -> list:
    """``values``, which must be a JSON list of objects."""
    if not all(isinstance(v, dict) for v in _json(values, list, name)):
        raise ValueError(f"{name!r} entries must be JSON objects")
    return values


def _record(text: str, kind: str) -> dict:
    """The JSON object of a whole ``kind`` file, as the full parses read it."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{kind} file nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file must be a JSON object")
    return data


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


#: The characters of a JSON number token.
_NUMBER_CHARS = b"0123456789+-.eE"


def _skeleton(shape: tuple[int, ...]) -> bytes:
    """What the writers' text of a complex array of ``shape`` (1-D or 2-D)
    leaves once its outer brackets and number tokens are deleted."""
    pairs = b",".join([b"[,]"] * shape[-1])
    return pairs if len(shape) == 1 else b",".join([b"[" + pairs + b"]"] * shape[0])


def _canonical_complex(text: str, key: str, shape_of):
    """``(record, values)`` of a file whose last key, ``key``, holds a complex
    array as the writers write it; None for any other text.

    ``record`` is the JSON object before ``key``, and ``shape_of(record)``
    the shape of the array it declares. Once its number tokens are deleted,
    the array's text must be exactly the skeleton of that shape: that
    proves the [re, im] structure. With the separators between pairs and
    rows turned into commas, one ``json.loads`` of what is left (a flat list
    of the tokens; for a matrix, wrapped in one more list) proves each token
    a JSON number; a stray token beside a bracket keeps that bracket, which
    makes it fail.
    """
    cut = text.find(key)
    if cut < 0 or not text.endswith("]}\n"):
        return None
    try:
        record = json.loads(text[:cut] + "}")
        shape = shape_of(record)
        body = text[cut + len(key) : -3]
        # each pair takes at least 6 characters, so a huge declared shape builds nothing
        if 6 * math.prod(shape) - 1 > len(body):
            return None
        if body.encode().translate(None, _NUMBER_CHARS) != _skeleton(shape):
            return None
        flat = json.loads(body.replace("]],[[", ",").replace("],[", ","))
        values = np.array(flat, dtype=np.float64).view(np.complex128)
        return record, values.reshape(shape)
    except Exception:
        return None  # whatever is wrong, the full parse raises it as it always has


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
    return complex(_number(pair[0], "re"), _number(pair[1], "im"))


def dump_density(rho: DensityMatrix) -> str:
    return f'{{"d":{rho.shape.d},"n":{rho.shape.n},"matrix":[{_complex_items(rho.entries)}]}}\n'


def _density_shape(record) -> QuditShape:
    return QuditShape(_integer(record["d"], "d"), _integer(record["n"], "n"))


def load_density(text: str, tol: ToleranceConfig | None = None) -> DensityMatrix:
    canonical = _canonical_complex(text, ',"matrix":[', lambda r: (_density_shape(r).N,) * 2)
    if canonical is not None:
        record, matrix = canonical
        return validate_density(matrix, _density_shape(record), tol)
    data = _record(text, "matrix")
    shape = _density_shape(data)
    matrix = _parse_complex_matrix(data["matrix"], shape.N, shape.N)
    return validate_density(matrix, shape, tol)


def dump_state(state: PureState) -> str:
    return (
        f'{{"ancilla_dim":{state.ancilla_dim},"system_dim":{state.system_dim},'
        f'"amplitudes":[{_complex_items(state.amplitudes)}]}}\n'
    )


def _state_dims(record) -> tuple[int, int]:
    return (
        _integer(record["ancilla_dim"], "ancilla_dim"),
        _integer(record["system_dim"], "system_dim"),
    )


def load_state(text: str) -> PureState:
    canonical = _canonical_complex(text, ',"amplitudes":[', lambda r: (math.prod(_state_dims(r)),))
    if canonical is not None:
        record, amps = canonical
        return PureState(*_state_dims(record), amps)
    data = _record(text, "state")
    m, n = _state_dims(data)
    pairs = _json(data["amplitudes"], list, "amplitudes")
    amps = np.array([_parse_complex(p) for p in pairs], dtype=np.complex128)
    return PureState(m, n, amps)


def dump_coefficients(matrix) -> str:
    """Canonical text of a square coefficient matrix; any other shape is refused."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"coefficients must be a square matrix, got shape {arr.shape}")
    return f'{{"N":{arr.shape[0]},"C":[{_complex_items(arr)}]}}\n'


#: Where the schedule block starts in a canonical circuit file: it is the
#: record's last key.
_SCHEDULE_KEY = ',"schedule":['

#: Gate rows rendered per piece of the schedule block.
_BLOCK_ROWS = 4096


def _negated(tokens: str) -> str:
    """The comma-joined tokens of -x, from those of finite floats x: a sign
    flip as text, which float() reads back as the negated double."""
    return ("-" + tokens.replace(",", ",-")).replace("--", "") if tokens else ""


def _circuit_pieces(shape: QuditShape, lists: list[str]) -> Iterator[str]:
    """Canonical text of a circuit file, in pieces: the head one branch per
    piece, the schedule block ``_BLOCK_ROWS`` records per piece.

    ``lists`` are the parameter lists as comma-joined number tokens of
    finite values: the weight angles, then each branch's angles and phases.
    The block holds the same tokens in table order, a phase negated (see
    :data:`~qpurify.circuit.GATE`). Every other byte of it depends on N only,
    so a record joins strings built once per call, with no formatting per
    gate (a separator, its group's head, its subspace or basis line, its
    value). The writer joins the pieces; the reader compares each in place.
    """
    N, weights, angles, phases = shape.N, lists[0], lists[1::2], lists[2::2]
    yield (
        f'{{"N":{N},"d":{shape.d},"n":{shape.n},"parameters":'
        f'{{"weight_angles":[{weights}],"branches":['
    )
    for k, (a, p) in enumerate(zip(angles, phases)):
        yield f'{"," if k else ""}{{"dim":{N - k},"angles":[{a}],"phases":[{p}]}}'
    yield "]}"
    values = [weights]
    for a, p in zip(angles, phases):
        values += [a, _negated(p)]
    gate = '{"gate":"%s","control_value":%s'
    rot = [f',"subspace":[0,{t}],"value":' for t in range(N - 1, 0, -1)]
    basis = [f',"basis":{a},"value":' for a in range(N - 1)]
    heads, lines = [repeat(gate % ("rotation", "null"), N - 1)], [rot]
    for k in range(N - 1):
        steps = N - 1 - k
        heads += [repeat(gate % ("rotation", k), steps), repeat(gate % ("phase", k), steps)]
        lines += [rot[k:], basis[:steps]]
    seps = chain(("",), repeat("},"))  # "}" closes the record before
    tokens = chain.from_iterable(v.split(",") for v in values if v)
    cells = chain.from_iterable(zip(seps, chain(*heads), chain(*lines), tokens))
    yield _SCHEDULE_KEY
    while block := "".join(islice(cells, 4 * _BLOCK_ROWS)):
        yield block
    yield "}]}\n"


def _check_schedule(gates: np.ndarray, params: CircuitParameters) -> None:
    """Raise ReconstructionFailure, naming the first differing row, unless
    ``gates`` equals the table ``params`` prepare under ==."""
    expected = _gate_table(params)
    rows = min(len(gates), len(expected))
    differs = np.flatnonzero(gates[:rows] != expected[:rows])
    if differs.size or len(gates) != len(expected):
        k = int(differs[0]) if differs.size else rows
        raise ReconstructionFailure(f"schedule row {k} disagrees with the parameters block")


def dump_circuit(shape: QuditShape, params: CircuitParameters, schedule: GateSchedule) -> str:
    """Canonical text of a circuit; a file load_circuit would reject is refused."""
    if shape.N != params.N:
        raise ShapeMismatch(f"circuit of N={params.N} for a register of N={shape.N}")
    if schedule.parameters is not params:  # a schedule is its parameters
        _check_schedule(schedule.gates, params)
    # one repr per parameter; the table of these parameters holds the weight
    # angles, then each branch's angles and its phases negated
    n = params.N
    arrays = [params.weight_angles]
    for k in range(n):  # branch k's values: the first N - 1 - k of row k
        arrays += [params.angles[k, : n - 1 - k], params.phases[k, : n - 1 - k]]
    return "".join(_circuit_pieces(shape, [",".join(map(repr, a.tolist())) for a in arrays]))


def _parse_gate(record) -> tuple:
    """Gate-table row of one JSON record (the inverse of :func:`_circuit_pieces`)."""
    kind = record["gate"]
    control = record["control_value"]
    if control is None:
        control = -1
    elif _integer(control, "control_value") < 0:
        raise OutOfRange(f"control value {control} outside ancilla register")
    value = _number(record["value"], "value")
    if kind == "rotation":
        pair = record["subspace"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("'subspace' must be a JSON list of two integers")
        a, b = pair
        return (False, control, _integer(a, "subspace"), _integer(b, "subspace"), value)
    if kind == "phase":
        return (True, control, _integer(record["basis"], "basis"), 0, value)
    raise ValueError(f"unknown gate kind {kind!r}")


def _gate_rows(n: int, records) -> np.ndarray:
    """The :data:`GATE` table of an N-line circuit's schedule records, with
    every index in range (OutOfRange) and every value finite (BadRange)."""
    rows = [_parse_gate(g) for g in _objects(records, "schedule")]
    try:
        gates = np.array(rows, dtype=GATE)
    except OverflowError as exc:
        raise OutOfRange(f"gate index beyond the int64 range: {exc}") from exc
    control, a, b, phase = gates["control"], gates["a"], gates["b"], gates["phase"]
    bad = control >= n  # _parse_gate refuses a control below -1 (null)
    if bad.any():
        raise OutOfRange(f"control value {control[bad][0]} outside ancilla register")
    bad = ~phase & ~((0 <= a) & (a < b) & (b < n))
    if bad.any():
        raise OutOfRange(f"rotation subspace ({a[bad][0]}, {b[bad][0]}) invalid for dim {n}")
    bad = phase & ~((0 <= a) & (a < n))
    if bad.any():
        raise OutOfRange(f"phase basis {a[bad][0]} outside register of dim {n}")
    if not np.isfinite(gates["value"]).all():
        raise BadRange("gate values must be finite")
    return gates


def _circuit_head(data) -> tuple[QuditShape, CircuitParameters]:
    """Shape and parameters of a parsed circuit record, or of the record
    before its ``schedule`` key: the one decoder of a circuit file's head."""
    shape = QuditShape(_integer(data["d"], "d"), _integer(data["n"], "n"))
    n = _integer(data["N"], "N")
    if n != shape.N:
        raise ValueError(f"declared N={shown(n, 'N')} disagrees with d**n={shape.N}")
    block = _json(data["parameters"], dict, "parameters")
    branches = [
        (_integer(b["dim"], "dim"), _numbers(b["angles"], "angles"), _numbers(b["phases"], "phases"))
        for b in _objects(block["branches"], "branches")
    ]
    weights = _numbers(block["weight_angles"], "weight_angles")
    return shape, CircuitParameters.from_branches(n, weights, branches)


def _load_canonical_circuit(text: str):
    """The circuit in ``text`` if it is, byte for byte, the text its own
    parameter tokens render to (as :func:`dump_circuit` renders the tokens
    ``repr`` writes); else None."""
    cut = text.find(_SCHEDULE_KEY)
    if cut < 0:
        return None
    try:
        shape, params = _circuit_head(json.loads(text[:cut] + "}"))
    except Exception:
        return None  # whatever is wrong, the full parse raises it as it always has
    # the innermost arrays of the head: its parameter lists, of bare number
    # tokens only (a space would render as "- x" in a negated phase)
    lists = [p.partition("]")[0] for p in text[:cut].split("[")[1:] if "]" in p]
    if "".join(lists).encode().translate(None, b"," + _NUMBER_CHARS):
        return None
    pos = 0
    for piece in _circuit_pieces(shape, lists):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return (shape, params, schedule_from_parameters(params)) if pos == len(text) else None


def load_circuit(text: str) -> tuple[QuditShape, CircuitParameters, GateSchedule]:
    """Shape, parameters and gate schedule of a circuit file.

    A file as :func:`dump_circuit` writes it is accepted by comparing its
    text with the text its parameter tokens render to. Any other layout is
    parsed in full, and its schedule must agree with its parameters under
    ==; the schedule returned is the parameters' own, signed zeros and all.
    """
    circuit = _load_canonical_circuit(text)
    if circuit is not None:
        return circuit
    data = _record(text, "circuit")
    shape, params = _circuit_head(data)
    _check_schedule(_gate_rows(params.N, data["schedule"]), params)
    return shape, params, schedule_from_parameters(params)


def bloch_csv(alphas, n_theta: int, n_phi: int) -> str:
    """CSV of surface points, one block per alpha: alpha,theta,phi,X,Y,Z."""
    lines = ["alpha,theta,phi,X,Y,Z"]
    thetas, phis = grid_angles(n_theta, n_phi)
    phis = [repr(phi) for phi in phis.tolist()]
    for alpha in alphas:
        alpha = float(alpha)
        points = bloch_surface(alpha, (n_theta, n_phi))
        xs, ys = map(repr, points[:, 0].tolist()), map(repr, points[:, 1].tolist())
        # theta-major, phi-minor, as bloch_surface emits its points; Z depends
        # on theta only, so each row's alpha, theta and Z are written once
        for theta, z in zip(thetas.tolist(), points[::n_phi, 2].tolist()):
            head, tail = f"{alpha!r},{theta!r},", f",{z!r}"
            row = zip(phis, islice(xs, n_phi), islice(ys, n_phi))
            lines += [f"{head}{phi},{x},{y}{tail}" for phi, x, y in row]
    return "\n".join(lines) + "\n"


def sweep_alphas(count: int) -> list[float]:
    """``count`` mixing angles spanning [0, pi/2] uniformly."""
    if count < 1:
        raise BadRange(f"alpha count must be >= 1, got {shown(count, 'count')}")
    if count == 1:
        return [0.0]
    step = (math.pi / 2.0) / (count - 1)
    return [i * step for i in range(count)]
