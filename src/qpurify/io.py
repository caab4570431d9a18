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
  block. One renderer, :func:`_schedule_text`, writes it from N and the
  value tokens, with every other byte built once per N; the writer refuses
  a schedule that disagrees with its parameters. The reader takes the head's
  innermost lists as the tokens, accepts them only if they are float
  literals that re-render the head (:func:`_circuit_text`, shared with the
  writer), and compares the block in place with their text.

Any other layout goes through a full parse with the same errors, where gate
rows from outside are range-checked before they are compared. Dimension
fields and gate indices must be JSON integers, and every other number a
JSON int or float (not a string or bool).
"""

from __future__ import annotations

import json
import math
import re
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
from .errors import BadRange, OutOfRange, ReconstructionFailure, ShapeMismatch


def _integer(value, name: str) -> int:
    """``value``, which must be a JSON integer (not a float, string or bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name!r} must be a JSON integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a float; it must be a JSON int or float (not a string or bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name!r} must be a JSON number, got {value!r}")
    return float(value)


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
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("matrix file must be a JSON object")
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
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("state file must be a JSON object")
    m, n = _state_dims(data)
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


def _negated(tokens: str) -> str:
    """The comma-joined tokens of -x, from those of finite floats x: a sign
    flip as text, which float() reads back as the negated double."""
    return ("-" + tokens.replace(",", ",-")).replace("--", "") if tokens else ""


def _circuit_text(shape: QuditShape, lists: list[str]) -> tuple[Iterator[str], Iterator[str]]:
    """Head of a circuit file (the text before ``,"schedule":[``), in pieces,
    and the value tokens of its gate table, in table order.

    ``lists`` are the parameter lists as comma-joined float tokens: the
    weight angles, then each branch's angles and phases. A phase is stored
    negated in the table (see :data:`~qpurify.circuit.GATE`). Both come
    lazily, one branch at a time: the writer joins them, the reader compares
    them in place.
    """
    weights, angles, phases = lists[0], lists[1::2], lists[2::2]
    N = len(angles)  # one branch per ancilla value

    def head():
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
    return head(), chain.from_iterable(v.split(",") for v in values if v)


def _schedule_text(N: int, values: Iterator[str]) -> Iterator[str]:
    """Canonical text of the schedule block of an N-line circuit, from
    ``,"schedule":[`` to the file's end, in pieces of ``_BLOCK_ROWS`` records.

    ``values`` are the table's value tokens, in order; parameters and tables
    admit finite values only, so none needs ``allow_nan``. Every other byte
    depends on N only (see :func:`~qpurify.circuit.schedule_from_parameters`):
    a record joins strings built once per call, with no formatting per gate
    (a separator, its group's head, its subspace or basis line, its value).
    The writer joins the pieces; the reader compares each in place.
    """
    gate = '{"gate":"%s","control_value":%s'
    rot = [f',"subspace":[0,{t}],"value":' for t in range(N - 1, 0, -1)]
    basis = [f',"basis":{a},"value":' for a in range(N - 1)]
    heads, lines = [repeat(gate % ("rotation", "null"), N - 1)], [rot]
    for k in range(N - 1):
        steps = N - 1 - k
        heads += [repeat(gate % ("rotation", k), steps), repeat(gate % ("phase", k), steps)]
        lines += [rot[k:], basis[:steps]]
    seps = chain(("",), repeat("},"))  # "}" closes the record before
    cells = chain.from_iterable(zip(seps, chain(*heads), chain(*lines), values))
    yield _SCHEDULE_KEY
    while block := "".join(islice(cells, 4 * _BLOCK_ROWS)):
        yield block
    yield "}]}\n" if N > 1 else "]}\n"


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
    head, values = _circuit_text(shape, [",".join(map(repr, a.tolist())) for a in arrays])
    return "".join([*head, *_schedule_text(params.N, values)])


def _parse_gate(record) -> tuple:
    """Gate-table row of one JSON record (the inverse of :func:`_schedule_text`)."""
    kind = record["gate"]
    control = record["control_value"]
    if control is None:
        control = -1
    elif _integer(control, "control_value") < 0:
        raise OutOfRange(f"control value {control} outside ancilla register")
    value = _number(record["value"], "value")
    if kind == "rotation":
        a, b = record["subspace"]
        return (False, control, _integer(a, "subspace"), _integer(b, "subspace"), value)
    if kind == "phase":
        return (True, control, _integer(record["basis"], "basis"), 0, value)
    raise ValueError(f"unknown gate kind {kind!r}")


def _gate_rows(n: int, records) -> np.ndarray:
    """The :data:`GATE` table of an N-line circuit's schedule records, with
    every index in range (OutOfRange) and every value finite (BadRange)."""
    rows = [_parse_gate(g) for g in records]
    try:
        gates = np.array(rows, dtype=GATE)
    except OverflowError as exc:
        raise OutOfRange(f"gate index beyond the int64 range: {exc}") from exc
    control, a, b, phase = gates["control"], gates["a"], gates["b"], gates["phase"]
    bad = (control < -1) | (control >= n)
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


def _numbers(values, name: str) -> np.ndarray:
    return np.array([_number(v, name) for v in values], dtype=np.float64)


def _circuit_head(data) -> tuple[QuditShape, CircuitParameters]:
    """Shape and parameters of a parsed circuit record."""
    shape = QuditShape(_integer(data["d"], "d"), _integer(data["n"], "n"))
    n = _integer(data["N"], "N")
    if n != shape.N:
        raise ValueError(f"declared N={n} disagrees with d**n={shape.N}")
    block = data["parameters"]
    branches = [
        (_integer(b["dim"], "dim"), _numbers(b["angles"], "angles"), _numbers(b["phases"], "phases"))
        for b in block["branches"]
    ]
    weights = _numbers(block["weight_angles"], "weight_angles")
    return shape, CircuitParameters.from_branches(n, weights, branches)


#: The dimensions that open a canonical circuit file.
_CIRCUIT_DIMS = re.compile(r'\{"N":(\d+),"d":(\d+),"n":(\d+),')


def _float_array(tokens: str) -> np.ndarray:
    """The doubles of the comma-joined ``tokens``, each of which must be a
    float literal with a '.', 'e' or 'E', as repr writes it (ValueError if
    not). Without the mark json reads an int, and a text sign flip of "0"
    does not give -0.0."""
    marks = tokens.encode().translate(None, b"0123456789+-")
    # a float leaves its '.', 'e' or 'E'; an integer leaves an empty item
    if tokens and (marks.translate(None, b".eE,") or b",," in b"," + marks + b","):
        raise ValueError("parameter tokens are not all float literals")
    return np.array(json.loads(f"[{tokens}]"), dtype=np.float64)


def _load_canonical_circuit(text: str):
    """The circuit in ``text`` if it is, byte for byte, the text its own
    parameter tokens render to (as :func:`dump_circuit` renders the tokens
    ``repr`` writes); else None."""
    cut = text.find(_SCHEDULE_KEY)
    if cut < 0:
        return None
    dims = _CIRCUIT_DIMS.match(text, 0, cut)
    if dims is None:
        return None
    # the innermost arrays of the head: its parameter lists
    lists = [p.partition("]")[0] for p in text[:cut].split("[")[1:] if "]" in p]
    try:
        N, d, n = map(int, dims.groups())
        shape = QuditShape(d, n)
        if N != shape.N:
            return None
        weights, *rest = [_float_array(item) for item in lists]
        branches = [(N - k, a, p) for k, (a, p) in enumerate(zip(rest[::2], rest[1::2]))]
        params = CircuitParameters.from_branches(N, weights, branches)
    except Exception:
        return None  # whatever is wrong, the full parse raises it as it always has
    schedule = schedule_from_parameters(params)
    head, values = _circuit_text(shape, lists)
    pos = 0
    for piece in chain(head, _schedule_text(N, values)):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return (shape, params, schedule) if pos == len(text) else None


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
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("circuit file must be a JSON object")
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
        raise BadRange(f"alpha count must be >= 1, got {count}")
    if count == 1:
        return [0.0]
    step = (math.pi / 2.0) / (count - 1)
    return [i * step for i in range(count)]
