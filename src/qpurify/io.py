"""JSON file formats, written and read a block at a time. (The CSV of the
``bloch`` command is written by :mod:`qpurify.bloch`, which loads no numpy.)

Serialization is canonical so golden files are byte-stable: fixed key
order, compact separators, one trailing newline, and floats rendered as
the shortest decimal that round-trips to the same IEEE double (Python's
repr). Complex numbers are stored as [re, im] pairs. The writers build the
text json.dumps would give straight from the arrays.

Every writer (``*_pieces``) hands out the text in pieces of about
``errors.BLOCK_ROWS`` pairs (whole rows of a matrix) or gate records, for
the CLI to write to an open file; no whole-file string is built. It
runs every refusal check (non-finite values, shape, N) before it returns,
so nothing is written for a refused input. ``dump_state`` and
``dump_circuit`` join the pieces.

The readers take a file's text or the open binary file. They first check,
front to back and without holding an open file whole, that a file has the
layout the writers produce, and read such a file with no Python work per
entry. This check works in bytes: an open file is read a part at a time,
and a text is encoded one window at a time, never copied whole.

* a state or density file is parsed up to its array, which is read into a
  preallocated array one block of about ``errors.BLOCK_ROWS`` pairs (whole
  rows of a matrix) at a time, each block cut at a separator. A block's
  text, once its number tokens are deleted, must be exactly the
  bracket-and-comma skeleton of its pair or row count, and one
  ``json.loads`` of its tokens as a flat list gives its doubles;
* a circuit file's ``schedule`` block is derived from its ``parameters``
  block: a schedule is its :class:`~qpurify.circuit.CircuitParameters`.
  One renderer, :func:`_render_circuit`, writes the whole file from its
  shape and the parameter lists' number tokens, with every byte of the
  block but its values built once per N; :func:`dump_circuit` refuses a
  schedule that disagrees with its parameters. The reader decodes the head
  as the full parse decodes it, and accepts the file when, from its first
  byte to its last, it equals the text the head's tokens render to.

Any other layout goes through a full parse with the same errors; an open
file is read whole for it and decoded as ``Path.read_text`` decodes it. The
full parse checks a circuit's branch and gate records in the order they are
written, as it reads them, so of several faults it names the first. A gate
record is checked in full (its fields, its control value, a finite value,
its subspace or basis, then its agreement with the row the parameters fix)
before the next is read. Dimension fields and gate indices must be JSON
integers, every other number a JSON int or float (not a string or bool)
within the float range (BadRange), and every list or object a JSON list or
object. A value of the wrong JSON type is a ValueError that names its
field; so is a file nested too deeply for ``json`` to decode, which names
the file kind.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from io import SEEK_END, BytesIO, TextIOWrapper
from itertools import chain, islice, repeat, zip_longest

import numpy as np

from . import errors
from .core import DensityMatrix, PureState, QuditShape, validate_density
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


class _Cursor:
    """A file read front to back, a part at a time, as bytes: an open binary
    file (one that cannot seek, a pipe, is read whole into one that can, so
    the full parse can rewind it), or a file's text, held whole and encoded
    one window at a time. Positions count the text's characters, or the
    file's bytes."""

    def __init__(self, source):
        self.file = not isinstance(source, str)
        if self.file and not source.seekable():
            source = BytesIO(source.read())
        self.source, self.pos = source, 0
        self.size = source.seek(0, SEEK_END) if self.file else len(source)
        if self.file:
            source.seek(0)

    def read(self, n: int) -> bytes:
        """The next ``n`` bytes, or characters encoded (a lone surrogate as
        non-ASCII bytes); fewer at the end of the file."""
        part = self.source.read(n) if self.file else self.source[self.pos : self.pos + n]
        self.pos += len(part)
        return part if self.file else part.encode("utf-8", "surrogatepass")

    def until(self, key: str) -> str | None:
        """The text up to the next ``key`` (a file's bytes must be ASCII
        there: UnicodeDecodeError), with the cursor moved past the key; None
        if no ``key`` follows."""
        if not self.file:
            cut = self.source.find(key, self.pos)
            if cut < 0:
                return None
            head, self.pos = self.source[self.pos : cut], cut + len(key)
            return head
        key = key.encode()
        text, cut = bytearray(), -1
        while cut < 0:
            part = self.source.read(64 * errors.BLOCK_ROWS)
            if not part:
                return None
            seen = max(len(text) - len(key) + 1, 0)  # a key across two parts
            text += part
            cut = text.find(key, seen)
        self.pos += cut + len(key)
        self.source.seek(self.pos)
        return str(memoryview(text)[:cut], "ascii")


def _text(source) -> str:
    """The whole text of a file, as ``Path.read_text`` reads it: its bytes
    decoded with the locale's encoding, with universal newlines."""
    if isinstance(source, str):
        return source
    source.seek(0)
    return TextIOWrapper(BytesIO(source.read())).read()


def _record(source, kind: str) -> dict:
    """The JSON object of a whole ``kind`` file, as the full parses read it."""
    text = _text(source)
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{kind} file nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file must be a JSON object")
    return data


#: The characters of a JSON number token.
_NUMBER_CHARS = b"0123456789+-.eE"


def _rows_per_block(width: int) -> int:
    """Rows of ``width`` pairs in a block: whole rows, about
    ``errors.BLOCK_ROWS`` pairs."""
    return max(errors.BLOCK_ROWS // max(width, 1), 1)


def _pairs(values: np.ndarray) -> str:
    """The [re, im] pairs of a 1-D complex array, comma-joined."""
    # no name holds the column lists, so they are freed before the join
    return ",".join(
        [f"[{re!r},{im!r}]" for re, im in zip(values.real.tolist(), values.imag.tolist())]
    )


def _array_record(head: str, values) -> Iterator[str]:
    """Pieces of a record whose last key, which ``head`` opens, holds a 1-D
    or 2-D complex array: ``head``, the array's items as json.dumps writes
    them in pieces of about ``errors.BLOCK_ROWS`` pairs (whole rows of a
    matrix), then the record's close. A non-finite entry is refused here,
    before any piece is made."""
    values = np.asarray(values, dtype=np.complex128)
    finite = np.isfinite(values)
    if not finite.all():
        first = values[~finite][0]
        json.dumps([float(first.real), float(first.imag)], allow_nan=False)  # raises json's ValueError
    width = values.shape[1] if values.ndim == 2 else 1  # pairs per row; a pair is a 1-D row
    return _array_pieces(head, values, _rows_per_block(width))


def _array_pieces(head: str, values: np.ndarray, step: int) -> Iterator[str]:
    """:func:`_array_record` after its check: ``step`` pairs or rows a piece."""
    yield head
    for top in range(0, len(values), step):
        block = values[top : top + step]
        text = _pairs(block) if block.ndim == 1 else ",".join([f"[{_pairs(row)}]" for row in block])
        yield f",{text}" if top else text
    yield "]}\n"


def _skeleton(shape: tuple[int, ...]) -> bytes:
    """What the writers' text of a complex array of ``shape`` (1-D or 2-D)
    leaves once its outer brackets and number tokens are deleted."""
    pairs = b",".join([b"[,]"] * shape[-1])
    return pairs if len(shape) == 1 else b",".join([b"[" + pairs + b"]"] * shape[0])


def _canonical_complex(file: _Cursor, key: str, shape_of):
    """``(record, values)`` of a file, read from ``file`` at its start,
    whose last key, ``key``, holds a complex array as the writers write it;
    None for any other file.

    ``record`` is the JSON object before ``key``, and ``shape_of(record)``
    the shape of the array it declares. The array is read into a read-only
    array of that shape, a block of about ``errors.BLOCK_ROWS`` pairs (whole
    rows of a matrix) at a time, each block cut at the last separator between
    pairs or rows in the text read so far. Once its number tokens are
    deleted, a block's text must be exactly the skeleton of its pair or row
    count: that proves the [re, im] structure. With the separators in it
    turned into commas, one ``json.loads`` of what is left (a flat list of
    the tokens; for rows, wrapped in one more list) proves each token a JSON
    number; a stray token beside a bracket keeps that bracket, which makes
    it fail. The counts must add up to the declared shape.
    """
    try:
        head = file.until(key)
        if head is None:
            return None
        record = json.loads(head + "}")
        shape = shape_of(record)
        count, body = math.prod(shape), file.size - file.pos - 3  # the array's text
        # each pair takes at least 6 characters, so a huge declared shape builds nothing
        if 6 * count - 1 > body:
            return None
        values = np.empty(count, dtype=np.complex128)
        flat = values.view(np.float64)
        matrix = len(shape) == 2
        width = shape[1] if matrix else 1  # pairs per row; a 1-D array's row is a pair
        row_sep, pair_sep = b"]],[[", b"],["
        sep = row_sep if matrix else pair_sep
        half = len(sep) // 2  # the block before a separator keeps its closing brackets
        # a block's share of the text, for its rows' share of the pairs
        window = max(body * _rows_per_block(width) * width // max(count, 1), 1)
        pending, filled = b"", 0
        while pending is not None:
            part = file.read(window)
            pending += part
            # a short part is the end (n characters encode to at least n
            # bytes): the last block, then the record's close
            if len(part) < window:
                if not pending.endswith(b"]}\n"):
                    return None
                block, pending = pending[:-3], None
            else:
                at = pending.rfind(sep)
                if at < 0:
                    continue
                block, pending = pending[: at + half], pending[at + half + 1 :]
            rows = block.count(sep) + 1
            size = rows * width
            if filled + size > count:
                return None
            skeleton = _skeleton((rows, width) if matrix else (rows,))
            if block.translate(None, _NUMBER_CHARS) != skeleton:
                return None
            numbers = json.loads(block.replace(row_sep, b",").replace(pair_sep, b","))
            flat[2 * filled : 2 * (filled + size)] = numbers[0] if matrix else numbers
            filled += size
        if filled != count:
            return None
        values.flags.writeable = False
        return record, values.reshape(shape)
    except Exception:
        return None  # whatever is wrong, the full parse raises it as it always has


def _parse_complex_matrix(data, rows: int, cols: int) -> np.ndarray:
    """A JSON list of rows of [re, im] pairs; a wrong length is a ShapeMismatch."""
    out = np.empty((rows, cols), dtype=np.complex128)
    if len(_json(data, list, "matrix")) != rows:
        raise ShapeMismatch(f"expected {rows} matrix rows, got {len(data)}")
    for r, row in enumerate(data):
        if len(_json(row, list, "matrix")) != cols:
            raise ShapeMismatch(f"matrix row {r}: expected {cols} entries, got {len(row)}")
        for c, pair in enumerate(row):
            out[r, c] = _parse_complex(pair)
    return out


def _parse_complex(pair) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    return complex(_number(pair[0], "re"), _number(pair[1], "im"))


def density_pieces(rho: DensityMatrix) -> Iterator[str]:
    """Canonical text of a density matrix, in pieces (see :func:`_array_record`)."""
    return _array_record(f'{{"d":{rho.shape.d},"n":{rho.shape.n},"matrix":[', rho.entries)


def _density_shape(record) -> QuditShape:
    return QuditShape(_integer(record["d"], "d"), _integer(record["n"], "n"))


def load_density(source) -> DensityMatrix:
    """The validated density matrix of a file: its text, or the open binary file."""
    file = _Cursor(source)
    canonical = _canonical_complex(file, ',"matrix":[', lambda r: (_density_shape(r).N,) * 2)
    if canonical is not None:
        record, matrix = canonical
        return validate_density(matrix, _density_shape(record))
    data = _record(file.source, "matrix")
    shape = _density_shape(data)
    matrix = _parse_complex_matrix(data["matrix"], shape.N, shape.N)
    return validate_density(matrix, shape)


def state_pieces(state: PureState) -> Iterator[str]:
    """Canonical text of a state, in pieces (see :func:`_array_record`)."""
    head = f'{{"ancilla_dim":{state.ancilla_dim},"system_dim":{state.system_dim},"amplitudes":['
    return _array_record(head, state.amplitudes)


def dump_state(state: PureState) -> str:
    return "".join(state_pieces(state))


def _state_dims(record) -> tuple[int, int]:
    return (
        _integer(record["ancilla_dim"], "ancilla_dim"),
        _integer(record["system_dim"], "system_dim"),
    )


def load_state(source) -> PureState:
    """The state of a file: its text, or the open binary file."""
    file = _Cursor(source)
    canonical = _canonical_complex(file, ',"amplitudes":[', lambda r: (math.prod(_state_dims(r)),))
    if canonical is not None:
        record, amps = canonical
        return PureState(*_state_dims(record), amps)
    data = _record(file.source, "state")
    m, n = _state_dims(data)
    pairs = _json(data["amplitudes"], list, "amplitudes")
    amps = np.array([_parse_complex(p) for p in pairs], dtype=np.complex128)
    return PureState(m, n, amps)


def coefficient_pieces(matrix) -> Iterator[str]:
    """Canonical text of a square coefficient matrix, in pieces; any other
    shape is refused before the first."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"coefficients must be a square matrix, got shape {arr.shape}")
    return _array_record(f'{{"N":{arr.shape[0]},"C":[', arr)


#: Where the schedule block starts in a canonical circuit file: it is the
#: record's last key.
_SCHEDULE_KEY = ',"schedule":['


def _negated(tokens: str) -> str:
    """The comma-joined tokens of -x, from those of finite floats x: a sign
    flip as text, which float() reads back as the negated double."""
    return ("-" + tokens.replace(",", ",-")).replace("--", "") if tokens else ""


def _render_circuit(shape: QuditShape, lists: list[str]) -> Iterator[str]:
    """Canonical text of a circuit file, in pieces: the head one branch per
    piece, the schedule block ``errors.BLOCK_ROWS`` records per piece.

    ``lists`` are the parameter lists as comma-joined number tokens of
    finite values: the weight angles, then each branch's angles and phases.
    The block holds the same tokens in table order, a phase negated (see
    :meth:`~qpurify.circuit.CircuitParameters.gate_rows`). Every other byte
    of it depends on N only, so a record joins strings built once per call,
    with no formatting per gate (a separator, its group's head, its subspace
    or basis line, its value). :func:`circuit_pieces` hands the pieces out;
    the reader compares each with the file as it reads it.
    """
    N, weights, angles, phases = shape.N, lists[0], lists[1::2], lists[2::2]
    yield (
        f'{{"N":{N},"d":{shape.d},"n":{shape.n},"parameters":'
        f'{{"weight_angles":[{weights}],"branches":['
    )
    for k, (a, p) in enumerate(zip(angles, phases)):
        yield f'{"," if k else ""}{{"dim":{N - k},"angles":[{a}],"phases":[{p}]}}'
    yield "]}"
    # one branch's tokens at a time: the negated phases are never all held
    values = chain((weights,), chain.from_iterable((a, _negated(p)) for a, p in zip(angles, phases)))
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
    while block := "".join(islice(cells, 4 * errors.BLOCK_ROWS)):
        yield block
    yield "}]}\n"


def _check_schedule(rows, params: CircuitParameters) -> None:
    """Raise ReconstructionFailure at the first of the gate rows ``rows``
    (tuples, taken one at a time) that differs under == from the row of
    :meth:`~qpurify.circuit.CircuitParameters.gate_rows` beside it; a
    schedule too long or too short differs at the row past the shorter one."""
    for k, (row, expected) in enumerate(zip_longest(rows, params.gate_rows())):
        if row != expected:
            raise ReconstructionFailure(f"schedule row {k} disagrees with the parameters block")


def circuit_pieces(shape: QuditShape, params: CircuitParameters) -> Iterator[str]:
    """Canonical text of a circuit, in pieces; a file load_circuit would
    reject is refused before the first."""
    if shape.N != params.N:
        raise ShapeMismatch(f"circuit of N={params.N} for a register of N={shape.N}")
    # one repr per parameter; the gate rows of these parameters hold the
    # weight angles, then each branch's angles and its phases negated
    n = params.N
    arrays = [params.weight_angles]
    for k in range(n):  # branch k's values: the first N - 1 - k of row k
        arrays += [params.angles[k, : n - 1 - k], params.phases[k, : n - 1 - k]]
    return _render_circuit(shape, [",".join(map(repr, a.tolist())) for a in arrays])


def dump_circuit(
    shape: QuditShape, params: CircuitParameters, schedule: CircuitParameters
) -> str:
    """Canonical text of a circuit whose ``schedule`` is ``params``; other
    parameters are refused unless their gate rows equal those of ``params``
    under ==."""
    pieces = circuit_pieces(shape, params)
    if schedule is not params:
        _check_schedule(schedule.gate_rows(), params)
    return "".join(pieces)


def _parse_gate(record, n: int) -> tuple:
    """Gate row of one JSON record of an N-line circuit's schedule (the
    inverse of :func:`_render_circuit`), its value finite (BadRange) and its
    indices in range (OutOfRange)."""
    if not isinstance(record, dict):
        raise ValueError("'schedule' entries must be JSON objects")
    kind, control = record["gate"], record["control_value"]
    if control is None:
        control = -1
    elif not 0 <= _integer(control, "control_value") < n:
        raise OutOfRange(f"control value {shown(control, 'control_value')} outside ancilla register")
    value = _number(record["value"], "value")
    if not math.isfinite(value):
        raise BadRange("gate values must be finite")
    if kind == "rotation":
        pair = record["subspace"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("'subspace' must be a JSON list of two integers")
        a, b = _integer(pair[0], "subspace"), _integer(pair[1], "subspace")
        if not 0 <= a < b < n:
            a, b = shown(a, "subspace"), shown(b, "subspace")
            raise OutOfRange(f"rotation subspace ({a}, {b}) invalid for dim {n}")
        return (False, control, a, b, value)
    if kind == "phase":
        a = _integer(record["basis"], "basis")
        if not 0 <= a < n:
            raise OutOfRange(f"phase basis {shown(a, 'basis')} outside register of dim {n}")
        return (True, control, a, 0, value)
    raise ValueError(f"unknown gate kind {kind!r}")


def _branch(b) -> tuple:
    """``(dim, angles, phases)`` of one JSON branch record."""
    if not isinstance(b, dict):
        raise ValueError("'branches' entries must be JSON objects")
    return _integer(b["dim"], "dim"), _numbers(b["angles"], "angles"), _numbers(b["phases"], "phases")


def _circuit_head(data) -> tuple[QuditShape, CircuitParameters]:
    """Shape and parameters of a parsed circuit record, or of the record
    before its ``schedule`` key: the one decoder of a circuit file's head."""
    from .circuit import CircuitParameters

    shape = QuditShape(_integer(data["d"], "d"), _integer(data["n"], "n"))
    n = _integer(data["N"], "N")
    if n != shape.N:
        raise ValueError(f"declared N={shown(n, 'N')} disagrees with d**n={shape.N}")
    block = _json(data["parameters"], dict, "parameters")
    weights = _numbers(block["weight_angles"], "weight_angles")
    branches = map(_branch, _json(block["branches"], list, "branches"))  # one at a time
    return shape, CircuitParameters.from_branches(n, weights, branches)


def _load_canonical_circuit(file: _Cursor):
    """The circuit in a file, read from ``file`` at its start; else None.
    The head is decoded as the full parse decodes it, and the file is
    accepted when, from its first byte to its last, it equals the text the
    head's tokens render to (:func:`dump_circuit` renders ``repr``'s tokens)."""
    try:
        head = file.until(_SCHEDULE_KEY)
        if head is None:
            return None
        record = head + "}"
        del head
        shape, params = _circuit_head(json.loads(record))
    except Exception:
        return None  # whatever is wrong, the full parse raises it as it always has
    # the innermost arrays of the head: its parameter lists, of bare number
    # tokens only (a space would render as "- x" in a negated phase)
    lists = [p.partition("]")[0] for p in record.split("[")[1:] if "]" in p]
    if any(item.encode().translate(None, b"," + _NUMBER_CHARS) for item in lists):
        return None
    file = _Cursor(file.source)  # from the first byte again
    same = all(file.read(len(p)) == p.encode() for p in _render_circuit(shape, lists))
    return (shape, params, params) if same and not file.read(1) else None


def load_circuit(source) -> tuple[QuditShape, CircuitParameters, CircuitParameters]:
    """Shape, parameters and gate schedule of a circuit file: its text, or
    the open binary file. The schedule is the parameters, returned twice.

    A file as :func:`dump_circuit` writes it is read by one comparison: its
    head is decoded as the full parse decodes it, and the file, from its
    first byte to its last, must equal the text the head's tokens render
    to. Any other layout is parsed in full, the head first; then each
    schedule record is checked in full before the next is read (as the
    module docstring lists), ending with its agreement under == with the
    row the parameters fix. The parameters keep their own signed zeros.
    """
    file = _Cursor(source)
    circuit = _load_canonical_circuit(file)
    if circuit is not None:
        return circuit
    data = _record(file.source, "circuit")
    shape, params = _circuit_head(data)
    n = params.N
    _check_schedule((_parse_gate(g, n) for g in _json(data["schedule"], list, "schedule")), params)
    return shape, params, params

