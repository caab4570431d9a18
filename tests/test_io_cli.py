import json
import math
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from cli_runner import CliRunner

from qpurify import (
    GATE,
    CircuitParameters,
    DensityMatrix,
    PureState,
    QuditShape,
    ToleranceConfig,
    apply_schedule,
    cholesky_purify,
    coefficients_to_state,
    extract_parameters,
    random_density,
    random_unitary,
    schedule_from_parameters,
    validate_density,
    verify_purification,
)
from qpurify import bloch, circuit, core, io
from qpurify.circuit import _branch_cells
from qpurify.cli import main
from qpurify.errors import BadRange, NormFailure, OutOfRange, QPurifyError, ReconstructionFailure, ShapeMismatch, shown
from test_bloch import numpy_bloch_surface, numpy_grid_angles
from test_core import with_smallest_eigenvalue
from test_startup import fresh_python


@pytest.fixture
def runner():
    return CliRunner()


def dump_density(rho):
    return "".join(io.density_pieces(rho))


def dump_coefficients(matrix):
    return "".join(io.coefficient_pieces(matrix))


def bloch_csv(alphas, n_theta, n_phi):
    return "".join(bloch.bloch_pieces(alphas, n_theta, n_phi))


def write_density(path, rho):
    path.write_text(dump_density(rho))
    return str(path)


def qutrit_circuit():
    """Circuit JSON of a full-rank qutrit (N = 3), parsed into a dict.

    Schedule rows: 0-1 ancilla rotations, 2-3 rotations and 4-5 phases
    controlled on ancilla value 0, 6 rotation and 7 phase on value 1.
    """
    rho = random_density(3, 1, seed=5)
    params = extract_parameters(cholesky_purify(rho))
    return json.loads(io.dump_circuit(rho.shape, params, schedule_from_parameters(params)))


def json_text(record):
    """What the writers must emit: the record through json.dumps."""
    return json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"


def pair_record(values):
    """[re, im] pairs of a 1-D or 2-D complex array, nested like the array."""
    if np.ndim(values) == 2:
        return [pair_record(row) for row in values]
    return [[float(a.real), float(a.imag)] for a in values]


def state_record(state):
    return {
        "ancilla_dim": state.ancilla_dim,
        "system_dim": state.system_dim,
        "amplitudes": pair_record(state.amplitudes),
    }


def density_record(rho):
    return {"d": rho.shape.d, "n": rho.shape.n, "matrix": pair_record(rho.entries)}


def coefficient_record(matrix):
    return {"N": len(matrix), "C": pair_record(matrix)}


def circuit_record(shape, params, schedule):
    """The circuit as nested dicts, one per gate; control -1 is written as null."""
    gates = []
    for phase, control, a, b, value in schedule.gates.tolist():
        control = None if control < 0 else control
        if phase:
            gates.append({"gate": "phase", "control_value": control, "basis": a, "value": value})
        else:
            gates.append({"gate": "rotation", "control_value": control, "subspace": [a, b], "value": value})
    N = params.N
    branches = [
        {"dim": N - k, "angles": a[: N - 1 - k], "phases": p[: N - 1 - k]}
        for k, (a, p) in enumerate(zip(params.angles.tolist(), params.phases.tolist()))
    ]
    return {
        "N": params.N,
        "d": shape.d,
        "n": shape.n,
        "parameters": {"weight_angles": [float(x) for x in params.weight_angles], "branches": branches},
        "schedule": gates,
    }


def json_integer(value, name):
    """The full parse's rule for dimensions and gate indices: a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name!r} must be a JSON integer, got {value!r}")
    return value


def json_number(value, name):
    """The full parse's rule for every other number: a JSON int or float, and
    an int within the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name!r} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise BadRange(f"{name!r} holds an integer beyond the float range") from None


def json_list(value, name):
    """The full parse's rule for a field that holds a list."""
    if not isinstance(value, list):
        raise ValueError(f"{name!r} must be a JSON list")
    return value


def json_record(text, kind):
    """The full parse's reading of a whole file: one JSON object."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{kind} file nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file must be a JSON object")
    return data


def reference_gate(record, n):
    """The GATE row of one schedule record of an N-line circuit, checked in
    full as it is read: an object, its fields' JSON types, its indices in
    range (an index past sys.maxsize named, not printed)."""
    if not isinstance(record, dict):
        raise ValueError("'schedule' entries must be JSON objects")
    kind = record["gate"]
    control = record["control_value"]
    if control is None:
        control = -1
    elif not 0 <= json_integer(control, "control_value") < n:
        raise OutOfRange(f"control value {shown(control, 'control_value')} outside ancilla register")
    value = json_number(record["value"], "value")
    if kind == "rotation":
        pair = record["subspace"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("'subspace' must be a JSON list of two integers")
        a, b = json_integer(pair[0], "subspace"), json_integer(pair[1], "subspace")
        if not 0 <= a < b < n:
            raise OutOfRange(f"rotation subspace ({shown(a, 'subspace')}, {shown(b, 'subspace')}) invalid for dim {n}")
        return (False, control, a, b, value)
    if kind == "phase":
        a = json_integer(record["basis"], "basis")
        if not 0 <= a < n:
            raise OutOfRange(f"phase basis {shown(a, 'basis')} outside register of dim {n}")
        return (True, control, a, 0, value)
    raise ValueError(f"unknown gate kind {kind!r}")


def reference_gate_table(n, records):
    """The GATE rows of an N-line circuit's schedule records, each checked in
    full in the order they are written, then the values: the first fault
    in the file is the one named."""
    gates = np.array([reference_gate(g, n) for g in json_list(records, "schedule")], dtype=GATE)
    if not all(math.isfinite(value) for *_, value in gates.tolist()):
        raise BadRange("gate values must be finite")
    return gates


def reference_branches(n, records):
    """The (dim, angles, phases) triples of an N-line circuit's branch
    records, each decoded and checked (shape, then dimension) in the order
    they are written, then their count."""
    branches = []
    for k, b in enumerate(json_list(records, "branches")):
        if not isinstance(b, dict):
            raise ValueError("'branches' entries must be JSON objects")
        dim = json_integer(b["dim"], "dim")
        angles, phases = reference_numbers(b["angles"], "angles"), reference_numbers(b["phases"], "phases")
        expected = max(dim - 1, 0)
        if angles.shape != (expected,) or phases.shape != (expected,):
            raise ShapeMismatch(f"branch of dimension {shown(dim, 'dim')} needs {shown(expected, 'dim - 1')} angles and phases")
        if k < n and dim != n - k:
            raise ShapeMismatch(f"branch {k} must have dimension {n - k}")
        branches.append((dim, angles, phases))
    if len(branches) != n:
        raise ShapeMismatch(f"expected {n} branches, got {len(branches)}")
    return branches


def reference_numbers(values, name):
    return np.array([json_number(v, name) for v in json_list(values, name)], dtype=np.float64)


def reference_load_circuit(text):
    """The full parse: every schedule record read with json and checked row by
    row against the table the parameters give. load_circuit must return what
    this returns, or raise the same exception type and message."""
    data = json_record(text, "circuit")
    shape = QuditShape(json_integer(data["d"], "d"), json_integer(data["n"], "n"))
    n = json_integer(data["N"], "N")
    if n != shape.N:
        raise ValueError(f"declared N={shown(n, 'N')} disagrees with d**n={shape.N}")
    block = data["parameters"]
    if not isinstance(block, dict):
        raise ValueError("'parameters' must be a JSON object")
    weights = reference_numbers(block["weight_angles"], "weight_angles")
    params = CircuitParameters.from_branches(n, weights, reference_branches(n, block["branches"]))
    gates = reference_gate_table(n, data["schedule"])
    schedule = schedule_from_parameters(params)
    expected = schedule.gates
    rows = min(len(gates), len(expected))
    differs = np.flatnonzero(gates[:rows] != expected[:rows])
    if differs.size or len(gates) != len(expected):
        k = int(differs[0]) if differs.size else rows
        raise ReconstructionFailure(f"schedule row {k} disagrees with the parameters block")
    return shape, params, schedule


def reference_load_state(text):
    """The full parse of a state file: json, then one io._parse_complex call per
    amplitude. load_state must return what this returns, or raise the same
    exception type and message."""
    data = json_record(text, "state")
    m = json_integer(data["ancilla_dim"], "ancilla_dim")
    n = json_integer(data["system_dim"], "system_dim")
    amps = np.array([io._parse_complex(p) for p in json_list(data["amplitudes"], "amplitudes")], dtype=np.complex128)
    return PureState(m, n, amps)


def reference_load_density(text):
    """The full parse of a matrix file, one io._parse_complex call per entry, as
    reference_load_state is for states."""
    data = json_record(text, "matrix")
    shape = QuditShape(json_integer(data["d"], "d"), json_integer(data["n"], "n"))
    rows = data["matrix"]
    matrix = np.empty((shape.N, shape.N), dtype=np.complex128)
    if not isinstance(rows, list) or len(rows) != shape.N:
        raise ValueError(f"expected {shape.N} matrix rows")
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape.N:
            raise ValueError(f"row {r}: expected {shape.N} entries")
        for c, pair in enumerate(row):
            matrix[r, c] = io._parse_complex(pair)
    return validate_density(matrix, shape)


def load_outcome(load, text):
    """What a circuit loader gives, bit for bit: shape, parameters and table,
    or the exception type and message."""
    try:
        shape, params, schedule = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (params.weight_angles, params.angles, params.phases)
    return shape, params.N, *(a.tobytes() for a in arrays), schedule.gates.tobytes()


#: (d, n, rank) of the canonical circuit files: N in {2, 3, 4, 9, 16, 64},
#: full rank and rank-deficient (zero branches give -0.0 gate values).
CIRCUIT_SHAPES = [
    (d, n, rank)
    for d, n in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (2, 6)]
    for rank in (None, 1, (d**n + 1) // 2)
]


def canonical_circuit(d, n, rank):
    rho = random_density(d, n, seed=d**n, rank=rank)
    params = extract_parameters(cholesky_purify(rho))
    return io.dump_circuit(rho.shape, params, schedule_from_parameters(params))


def negative_zero_phases(text):
    """The canonical file of the same circuit with every zero phase written -0.0
    (the schedule then holds +0.0), or None if it has no zero phase."""
    shape, params, _ = io.load_circuit(text)
    if not (params.phases[_branch_cells(params.N)] == 0.0).any():
        return None
    signed = np.where(params.phases == 0.0, -0.0, params.phases)
    params = CircuitParameters(params.N, params.weight_angles, params.angles, signed)
    return io.dump_circuit(shape, params, schedule_from_parameters(params))


def circuit_variants(text):
    """Valid and invalid texts of one canonical circuit file, by label."""
    data = json.loads(text)
    cut = text.index(',"schedule":[')
    head, block = text[:cut], text[cut:]
    garbage = ',"schedule":[{"gate":"swap"}]'
    variants = {
        "canonical": text,
        "indent": json.dumps(data, indent=1),
        "schedule first": json_text({"schedule": data["schedule"], **data}),
        "head keys reordered": json_text({key: data[key] for key in ("parameters", "n", "d", "N", "schedule")}),
        "garbage schedule first": head + garbage + block,
        "garbage schedule last": text[:-2] + garbage + "}\n",
        "1.50 token": head + re.sub(r'("value":-?\d+\.\d+)}', r"\g<1>0}", block, count=1),
        "0 token": head + block.replace('"value":-0.0}', '"value":-0}', 1).replace('"value":0.0}', '"value":0}', 1),
        "0 token in parameters": text.replace('"phases":[0.0', '"phases":[0', 1),
        "-0.0 phase in parameters": text.replace('"phases":[0.0', '"phases":[-0.0', 1),
        "-0.0 phases, canonical": negative_zero_phases(text),
        "0 phase in parameters, -0 in its schedule record": zero_phase_as_int(text),
        "1.50 in the head and in the matching schedule value": padded_weight_angle(text),
        "huge integer token": re.sub(r'(?<="weight_angles":\[)[^,\]]+', "1" + "0" * 400, text, count=1),
        "a space in a head list only": text.replace('"weight_angles":[', '"weight_angles":[ ', 1),
        "a space after a comma in a phase list, and the same space in its negated schedule record": spaced_phase(text),
        "branch dim edited": re.sub(r'"dim":(\d+)', lambda m: f'"dim":{int(m[1]) + 1}', text, count=1),
        "edited value": head + re.sub(r'"value":(-?[\d.e+-]+)}', lambda m: f'"value":{float(m[1]) + 0.1!r}}}', block, count=1),
        "truncated": text[: len(text) // 2],
        "trailing whitespace": text + "  \n",
        "no final newline": text[:-1],
        "missing schedule": json_text({key: value for key, value in data.items() if key != "schedule"}),
        "not an object": json_text(list(data.values())),
    }
    data["parameters"]["weight_angles"][0] = math.nan
    variants["NaN in parameters"] = json.dumps(data, separators=(",", ":")) + "\n"
    return {label: variant for label, variant in variants.items() if variant is not None}


def zero_phase_as_int(text):
    """The file with its first leading zero phase written 0 in ``parameters``
    and -0 in its schedule record, or None if no phase list starts with 0.0.
    Both are integer tokens: the table gets +0.0 where the phase gives -0.0."""
    data = json.loads(text)
    k = next((k for k, b in enumerate(data["parameters"]["branches"]) if b["phases"][:1] == [0.0]), None)
    if k is None:
        return None
    record = f'{{"gate":"phase","control_value":{k},"basis":0,"value":-0.0}}'
    head, block = text.split(',"schedule":[')
    assert record in block
    return head.replace('"phases":[0.0', '"phases":[0', 1) + ',"schedule":[' + block.replace(record, record.replace("-0.0", "-0"), 1)


def spaced_phase(text):
    """The file with a space after the first comma of branch 0's phases, and
    "- " before that phase in its schedule record, as a text sign flip of the
    spaced list would write it; None if branch 0 has fewer than two phases.
    The text is not JSON."""
    head, block = text.split(',"schedule":[')
    phases = re.search(r'"phases":\[([^\]]*)\]', head)[1].split(",")
    if len(phases) < 2:
        return None
    spaced = ",".join([phases[0], " " + phases[1], *phases[2:]])
    record = re.compile(r'(?<=\{"gate":"phase","control_value":0,"basis":1,"value":)[^}]+')
    assert record.search(block)
    return (
        head.replace('"phases":[' + ",".join(phases), '"phases":[' + spaced, 1)
        + ',"schedule":['
        + record.sub(lambda _: "- " + phases[1], block, count=1)
    )


def padded_weight_angle(text):
    """The file with its first weight angle written with a trailing 0, in the
    parameters block and in the schedule record that holds it."""
    head, block = text.split(',"schedule":[')
    token = re.search(r'"weight_angles":\[([^,\]]+)', head)[1]
    return (
        head.replace(f'"weight_angles":[{token}', f'"weight_angles":[{token}0', 1)
        + ',"schedule":['
        + block.replace(f'"value":{token}}}', f'"value":{token}0}}', 1)
    )


def qutrit_params(weights, branch0, branch1):
    """N = 3 parameters from (angles, phases) of branches 0 and 1."""
    return CircuitParameters.from_branches(3, weights, [(3, *branch0), (2, *branch1), (1, [], [])])


def array_outcome(load, text):
    """What a state or matrix loader gives, bit for bit: dimensions and array,
    or the exception type and message."""
    try:
        result = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, PureState):
        return result.ancilla_dim, result.system_dim, result.amplitudes.tobytes()
    return result.shape, result.entries.tobytes()


def canonical_state(d, n, rank):
    rho = random_density(d, n, seed=d**n, rank=rank)
    return io.dump_state(coefficients_to_state(cholesky_purify(rho)))


def canonical_density(d, n, rank):
    return dump_density(random_density(d, n, seed=d**n, rank=rank))


#: Per array format: its reader, the full parse, a canonical file and the array's key.
ARRAY_FORMATS = {
    "state": (io.load_state, reference_load_state, canonical_state, "amplitudes"),
    "density": (io.load_density, reference_load_density, canonical_density, "matrix"),
}

#: (d, n, rank) of the canonical state and matrix files: N in {2, 3, 4, 16, 64}.
ARRAY_SHAPES = [(2, 1, None), (3, 1, None), (2, 2, 1), (2, 4, None), (2, 6, 3)]

#: A number token of an array file.
NUMBER = r"-?\d[\d.eE+-]*"


def array_variants(text, key):
    """Valid and invalid texts of one canonical state or matrix file, by label."""
    data = json.loads(text)
    cut = text.index(f'"{key}":[') + len(key) + 4
    head, body = text[:cut], text[cut:]

    def first_token(new):
        return head + re.sub(NUMBER, new, body, count=1)

    def first_pairs(pairs):
        """The file with its first two [re, im] pairs replaced by ``pairs``."""
        copy = json.loads(text)
        row = copy[key] if key == "amplitudes" else copy[key][0]
        row[:2] = pairs
        return json_text(copy)

    row = data[key] if key == "amplitudes" else data[key][0]
    (re0, im0), (re1, im1) = row[:2]
    first = next(iter(data))
    return {
        "canonical": text,
        "indent": json.dumps(data, indent=1),
        "keys reordered": json_text(dict(reversed(data.items()))),
        "duplicated dimension key": f'{{"{first}":0,{text[1:]}',
        "duplicated array key": f'{text[:-2]},"{key}":[]}}\n',
        "1.50 token": head + re.sub(r"(-?\d+\.\d+)(?=[,\]])", r"\g<1>0", body, count=1),
        "0 token": head + re.sub(r"(?<=[\[,])-?0\.0(?=[,\]])", "0", body, count=1),
        "-0 token": head + re.sub(r"(?<=[\[,])-?0\.0(?=[,\]])", "-0", body, count=1),
        "integer token": first_token("9007199254740993"),
        "huge integer token": first_token("1" + "0" * 400),
        "1e400 token": first_token("1e400"),
        "NaN": first_token("NaN"),
        "Infinity": first_token("Infinity"),
        "string entry": head + re.sub(NUMBER, lambda m: f'"{m[0]}"', body, count=1),
        "[a,b,c],[d]": first_pairs([[re0, im0, re1], [im1]]),
        "[a],[b,c,d]": first_pairs([[re0], [im0, re1, im1]]),
        "space after a pair": head + body.replace("],[", "], [", 1),
        "number after a pair": head + body.replace("],[", "]0,[", 1),
        "number before a pair": head + body.replace("],[", "],0[", 1),
        "number between rows": head + body.replace("]],[[", "]],0[[", 1),
        "number before the first pair": head + "0" + body,
        "truncated": text[: len(text) // 2],
        "trailing whitespace": text + "  \n",
        "no final newline": text[:-1],
        "empty list": json_text({**data, key: []}),
        "one row or pair too many": json_text({**data, key: [*data[key], data[key][0]]}),
        "not an object": json_text(list(data.values())),
    }


class TestJsonFormats:
    def test_density_byte_round_trip(self):
        rho = random_density(2, 2, seed=9)
        text = dump_density(rho)
        again = dump_density(io.load_density(text))
        assert again == text

    def test_density_fields(self):
        rho = random_density(3, 1, seed=2)
        data = json.loads(dump_density(rho))
        assert list(data.keys()) == ["d", "n", "matrix"]
        assert data["d"] == 3 and data["n"] == 1
        assert len(data["matrix"]) == 3 and len(data["matrix"][0][0]) == 2

    def test_state_round_trip(self):
        state = coefficients_to_state(cholesky_purify(random_density(2, 2, seed=4)))
        text = io.dump_state(state)
        loaded = io.load_state(text)
        assert np.array_equal(loaded.amplitudes, state.amplitudes)
        assert io.dump_state(loaded) == text

    def test_circuit_byte_round_trip(self):
        rho = random_density(2, 2, seed=6)
        coeffs = cholesky_purify(rho)
        params = extract_parameters(coeffs)
        schedule = schedule_from_parameters(params)
        text = io.dump_circuit(rho.shape, params, schedule)
        shape, params2, schedule2 = io.load_circuit(text)
        assert shape == rho.shape
        assert io.dump_circuit(shape, params2, schedule2) == text
        assert np.array_equal(schedule2.gates, schedule.gates)
        # a loaded circuit still prepares the purification
        from qpurify import apply_schedule

        prepared = apply_schedule(schedule2)
        target = coefficients_to_state(coeffs)
        assert np.max(np.abs(prepared.amplitudes - target.amplitudes)) <= 1e-10

    def test_circuit_writer_matches_json(self):
        rho = random_density(2, 2, seed=3)
        params = extract_parameters(cholesky_purify(rho))
        # zero phases give -0.0 gate values; 1.0 and 2.0 print as integer-valued floats
        zeros = qutrit_params([0.0, 0.0], ([0.0, 0.0], [0.0, 0.0]), ([0.0], [0.0]))
        whole = qutrit_params([1.0, 0.0], ([1.0, 0.0], [2.0, 0.0]), ([1.0], [3.0]))
        # its schedule holds +0.0 where the zeros' holds -0.0
        signed = qutrit_params([0.0, 0.0], ([0.0, 0.0], [-0.0, -0.0]), ([0.0], [-0.0]))
        qutrit = QuditShape(3, 1)
        cases = [
            (rho.shape, params, schedule_from_parameters(params)),
            (qutrit, zeros, schedule_from_parameters(zeros)),
            (qutrit, whole, schedule_from_parameters(whole)),
            (qutrit, signed, schedule_from_parameters(signed)),
        ]
        for d, n, rank in CIRCUIT_SHAPES:
            rho = random_density(d, n, seed=d**n, rank=rank)
            params = extract_parameters(cholesky_purify(rho))
            cases.append((rho.shape, params, schedule_from_parameters(params)))
        assert "-0.0" in io.dump_circuit(*cases[1]) and "null" in io.dump_circuit(*cases[1])
        for shape, circuit_params, schedule in cases:
            text = io.dump_circuit(shape, circuit_params, schedule)
            assert text == json_text(circuit_record(shape, circuit_params, schedule))
            assert io.load_circuit(text)[2].gates.tobytes() == schedule.gates.tobytes()

    def test_circuit_writer_refuses_foreign_table(self):
        # a schedule load_circuit would reject against the parameters is never written
        whole = qutrit_params([1.0, 0.0], ([1.0, 0.0], [2.0, 0.0]), ([1.0], [3.0]))
        others = {
            0: qutrit_params([1.5, 0.0], ([1.0, 0.0], [2.0, 0.0]), ([1.0], [3.0])),
            3: qutrit_params([1.0, 0.0], ([1.0, 0.5], [2.0, 0.0]), ([1.0], [3.0])),
            4: qutrit_params([1.0, 0.0], ([1.0, 0.0], [2.5, 0.0]), ([1.0], [3.0])),
            7: qutrit_params([1.0, 0.0], ([1.0, 0.0], [2.0, 0.0]), ([1.0], [0.0])),
        }
        qubit = CircuitParameters.from_branches(2, [1.0], [(2, [1.0], [2.0]), (1, [], [])])
        for row, other in [*others.items(), (0, qubit)]:
            with pytest.raises(ReconstructionFailure, match=f"^schedule row {row} disagrees"):
                io.dump_circuit(QuditShape(3, 1), whole, schedule_from_parameters(other))
        # zeros of the other sign are equal under ==: written from the parameters
        signed = qutrit_params([1.0, -0.0], ([1.0, -0.0], [2.0, -0.0]), ([1.0], [3.0]))
        text = io.dump_circuit(QuditShape(3, 1), whole, schedule_from_parameters(signed))
        assert text == io.dump_circuit(QuditShape(3, 1), whole, schedule_from_parameters(whole))

    def test_loaded_schedule_follows_parameter_zero_signs(self):
        # a schedule block that differs from its parameters only in the signs
        # of zeros loads through the full parse as the parameters' own schedule
        zeros = qutrit_params([0.0, 0.0], ([0.0, 0.0], [0.0, 0.0]), ([0.0], [0.0]))
        text = io.dump_circuit(QuditShape(3, 1), zeros, schedule_from_parameters(zeros))
        flipped = text.replace('"value":-0.0}', '"value":0.0}')  # the three phase records
        assert flipped.count('"value":0.0}') == text.count('"value":0.0}') + 3
        shape, params, schedule = io.load_circuit(flipped)
        assert schedule.gates.tobytes() == schedule_from_parameters(zeros).gates.tobytes()
        assert np.signbit(schedule.gates["value"][[4, 5, 7]]).all()
        assert io.dump_circuit(shape, params, schedule) == text

    def test_state_writer_matches_json(self):
        # -0.0, subnormal, huge and integer-valued floats, in states, density
        # matrices and coefficient matrices alike
        rho = random_density(2, 3, seed=8)
        states = [
            apply_schedule(schedule_from_parameters(extract_parameters(cholesky_purify(rho)))),
            PureState(2, 2, [complex(1.0, -0.0), complex(5e-324, -5e-324), -0.0, complex(1e-300, 2e-300)]),
        ]
        for state in states:
            assert io.dump_state(state) == json_text(state_record(state))
        extremes = np.array([[complex(1.0, -0.0), complex(5e-324, 1e300)], [complex(-2.0, 3.0), -0.0]])
        densities = [rho, SimpleNamespace(shape=QuditShape(2, 1), entries=extremes)]
        for density in densities:
            assert dump_density(density) == json_text(density_record(density))
        for matrix in (cholesky_purify(rho).C, extremes):
            assert dump_coefficients(matrix) == json_text(coefficient_record(matrix))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_writer_rejects_non_finite(self, runner, tmp_path, monkeypatch, bad):
        state = SimpleNamespace(ancilla_dim=1, system_dim=2, amplitudes=np.array([1.0, complex(0.0, bad)]))
        matrix = np.array([[1.0, 0.0], [complex(0.0, 1.0), complex(bad, 0.0)]])
        density = SimpleNamespace(shape=QuditShape(2, 1), entries=matrix)
        cases = [
            (io.dump_state, state, state_record),
            (dump_density, density, density_record),
            (dump_coefficients, matrix, coefficient_record),
        ]
        for writer, value, record in cases:
            with pytest.raises(ValueError) as want:
                json_text(record(value))
            with pytest.raises(ValueError, match=str(want.value)):
                writer(value)
        # simulate reports it as a parse error and writes no state file
        monkeypatch.setattr(circuit, "apply_schedule", lambda schedule: state)
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(qutrit_circuit()))
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["simulate", "--circuit", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.startswith("ParseError:")
        assert not out.exists()

    @pytest.mark.parametrize("d,n,rank", CIRCUIT_SHAPES)
    def test_circuit_reader_matches_full_parse(self, d, n, rank):
        for label, text in circuit_variants(canonical_circuit(d, n, rank)).items():
            assert load_outcome(io.load_circuit, text) == load_outcome(reference_load_circuit, text), label

    def test_canonical_circuit_skips_record_parse(self, monkeypatch):
        # a file as dump_circuit writes it is checked by bytes, not parsed row by row
        def refuse(record):
            raise AssertionError("a canonical schedule block was parsed record by record")

        monkeypatch.setattr(io, "_parse_gate", refuse)
        for d, n, rank in CIRCUIT_SHAPES:
            text = canonical_circuit(d, n, rank)
            assert load_outcome(io.load_circuit, text) == load_outcome(reference_load_circuit, text)
            for again in (padded_weight_angle(text), negative_zero_phases(text), zero_phase_as_int(text)):
                if again is not None:
                    assert load_outcome(io.load_circuit, again) == load_outcome(reference_load_circuit, again)

    def test_circuit_codec_repr_calls(self, monkeypatch):
        # the writer renders each parameter once; the canonical reader renders none
        calls = []

        def counting(value):
            calls.append(value)
            return float.__repr__(value)

        monkeypatch.setattr(io, "repr", counting, raising=False)
        for d, n, rank in CIRCUIT_SHAPES:
            rho = random_density(d, n, seed=d**n, rank=rank)
            params = extract_parameters(cholesky_purify(rho))
            schedule = schedule_from_parameters(params)
            calls.clear()
            text = io.dump_circuit(rho.shape, params, schedule)
            assert len(calls) == params.parameter_count == rho.shape.N**2 - 1
            calls.clear()
            io.load_circuit(text)
            assert calls == []

    @pytest.mark.parametrize("kind", sorted(ARRAY_FORMATS))
    @pytest.mark.parametrize("d,n,rank", ARRAY_SHAPES)
    def test_array_reader_matches_full_parse(self, kind, d, n, rank):
        load, reference, canonical, key = ARRAY_FORMATS[kind]
        for label, text in array_variants(canonical(d, n, rank), key).items():
            assert array_outcome(load, text) == array_outcome(reference, text), label

    def test_canonical_arrays_skip_entry_parse(self, monkeypatch):
        # a file as the writers write it is read without one call per entry
        def refuse(pair):
            raise AssertionError("a canonical array was parsed entry by entry")

        monkeypatch.setattr(io, "_parse_complex", refuse)
        for load, _, canonical, _ in ARRAY_FORMATS.values():
            for d, n, rank in ARRAY_SHAPES:
                load(canonical(d, n, rank))

    @pytest.mark.parametrize("value", [2.9, "2", True, 2.0])
    @pytest.mark.parametrize(
        "kind,field",
        [
            ("density", "d"),
            ("density", "n"),
            ("state", "ancilla_dim"),
            ("state", "system_dim"),
            ("circuit", "N"),
            ("circuit", "d"),
            ("circuit", "n"),
            ("circuit", "dim"),
        ],
    )
    def test_dimension_fields_must_be_integers(self, runner, tmp_path, kind, field, value):
        rho = random_density(2, 1, seed=1)
        if kind == "density":
            text, load, command = dump_density(rho), io.load_density, "purify --input"
        elif kind == "state":
            text, load, command = io.dump_state(coefficients_to_state(cholesky_purify(rho))), io.load_state, None
        else:
            params = extract_parameters(cholesky_purify(rho))
            text = io.dump_circuit(rho.shape, params, schedule_from_parameters(params))
            load, command = io.load_circuit, "simulate --circuit"
        data = json.loads(text)
        (data["parameters"]["branches"][0] if field == "dim" else data)[field] = value
        text = json_text(data)  # the canonical layout, so a circuit's head is read first
        message = re.escape(f"{field!r} must be a JSON integer")
        with pytest.raises(ValueError, match=message):
            load(text)
        if command:
            path, out = tmp_path / "in.json", tmp_path / "out.json"
            path.write_text(text)
            res = runner.invoke(main, [*command.split(), str(path), "--out", str(out)])
            assert res.exit_code == 1
            assert res.stderr.startswith("ParseError:") and re.search(message, res.stderr)
            assert not out.exists()

    @pytest.mark.parametrize("value", ["string", True])
    @pytest.mark.parametrize(
        "kind,field",
        [
            ("density", "re"),
            ("state", "im"),
            ("circuit", "weight_angles"),
            ("circuit", "angles"),
            ("circuit", "phases"),
            ("circuit", "value"),
        ],
    )
    def test_number_fields_must_be_numbers(self, runner, tmp_path, kind, field, value):
        rho = random_density(2, 1, seed=1)
        if kind == "density":
            data, load, command = json.loads(dump_density(rho)), io.load_density, "purify --input"
            entries = data["matrix"][0][0]
        elif kind == "state":
            data, load, command = json.loads(io.dump_state(coefficients_to_state(cholesky_purify(rho)))), io.load_state, None
            entries = data["amplitudes"][0]
        else:
            params = extract_parameters(cholesky_purify(rho))
            data = json.loads(io.dump_circuit(rho.shape, params, schedule_from_parameters(params)))
            load, command = io.load_circuit, "simulate --circuit"
            branch = data["parameters"]["branches"][0]
            entries = {
                "weight_angles": data["parameters"]["weight_angles"],
                "angles": branch["angles"],
                "phases": branch["phases"],
                "value": data["schedule"][1],
            }[field]
        index = {"re": 0, "im": 1, "value": "value"}.get(field, 0)
        entries[index] = str(entries[index]) if value == "string" else value
        text = json_text(data)  # the canonical layout, so the canonical reader sees it first
        message = re.escape(f"{field!r} must be a JSON number")
        with pytest.raises(ValueError, match=message):
            load(text)
        if command:
            path, out = tmp_path / "in.json", tmp_path / "out.json"
            path.write_text(text)
            res = runner.invoke(main, [*command.split(), str(path), "--out", str(out)])
            assert res.exit_code == 1
            assert res.stderr.startswith("ParseError:") and re.search(message, res.stderr)
            assert not out.exists()

    @pytest.mark.parametrize("value", [0.4, "1", True])
    @pytest.mark.parametrize("row,field", [(2, "control_value"), (2, "subspace"), (4, "basis")])
    def test_gate_indices_must_be_integers(self, runner, tmp_path, row, field, value):
        data = qutrit_circuit()
        record = data["schedule"][row]
        if field == "subspace":
            record[field] = [value, record[field][1]]
        else:
            record[field] = value
        message = re.escape(f"{field!r} must be a JSON integer")
        with pytest.raises(ValueError, match=message):
            io.load_circuit(json.dumps(data))
        path, out = tmp_path / "circ.json", tmp_path / "x.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["simulate", "--circuit", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.startswith("ParseError:") and re.search(message, res.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("edit,row", [("value", 3), ("drop", 7), ("extra", 8)])
    def test_schedule_must_match_parameters(self, edit, row):
        data = qutrit_circuit()
        if edit == "value":
            data["schedule"][3]["value"] += 0.1
        elif edit == "drop":
            data["schedule"].pop()
        else:
            data["schedule"].append(data["schedule"][0])
        with pytest.raises(ReconstructionFailure, match=f"schedule row {row} "):
            io.load_circuit(json.dumps(data))

    def test_state_rejects_nan_amplitude(self):
        with pytest.raises(NormFailure):
            io.load_state('{"ancilla_dim":1,"system_dim":2,"amplitudes":[[NaN,0],[0,0]]}')

    @pytest.mark.parametrize("where", ["weight angle", "branch phase", "gate value"])
    def test_circuit_rejects_nan(self, where):
        data = qutrit_circuit()
        if where == "weight angle":
            data["parameters"]["weight_angles"][0] = math.nan
        elif where == "branch phase":
            data["parameters"]["branches"][0]["phases"][1] = math.nan
        else:
            data["schedule"][3]["value"] = math.nan
        with pytest.raises(BadRange):
            io.load_circuit(json.dumps(data))

    @pytest.mark.parametrize("text", ["[1,2]\n", "1", '"N"', "null"])
    def test_files_must_be_json_objects(self, text):
        # each reader names the fault before it looks up a key
        for load, kind in [(io.load_density, "matrix"), (io.load_state, "state"), (io.load_circuit, "circuit")]:
            with pytest.raises(ValueError, match=f"^{kind} file must be a JSON object$"):
                load(text)

    def test_circuit_writer_refuses_foreign_shape(self):
        # parameters of N = 4 written for a register of N = 8 would declare
        # "N":8 beside four branches, which load_circuit rejects
        rho = random_density(2, 2, seed=1)
        params = extract_parameters(cholesky_purify(rho))
        with pytest.raises(ShapeMismatch, match=r"^circuit of N=4 for a register of N=8$"):
            io.dump_circuit(QuditShape(2, 3), params, schedule_from_parameters(params))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 2, 2), ()])
    def test_coefficient_writer_refuses_non_square(self, shape):
        # a vector, a 2x3 block or a stack would be written as an "N"-by-N record
        # that is not one, or in non-canonical text
        message = f"coefficients must be a square matrix, got shape {shape}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            dump_coefficients(np.zeros(shape))

    def test_circuit_rejects_inconsistent_dims(self):
        rho = random_density(2, 1, seed=1)
        params = extract_parameters(cholesky_purify(rho))
        schedule = schedule_from_parameters(params)
        data = json.loads(io.dump_circuit(rho.shape, params, schedule))
        data["N"] = 3
        with pytest.raises(ValueError):
            io.load_circuit(json.dumps(data))

    def test_bloch_csv_layout(self):
        text = bloch_csv([0.0], 3, 4)
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,theta,phi,X,Y,Z"
        assert len(lines) == 1 + 12
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "0.0" and first[2] == "0.0"

    @pytest.mark.parametrize("alphas,n_theta,n_phi", [
        ([0.0], 2, 2), ([0.3, 1.0], 3, 5), ([1.2], 7, 2), (bloch.sweep_alphas(6), 10, 10),
        (np.array([0.25, math.pi / 2]), 4, 3),
    ])
    def test_bloch_csv_matches_point_by_point_formulation(self, alphas, n_theta, n_phi):
        # the rows as they were written: one repr of each of X, Y and Z per
        # point, from the numpy grid and arithmetic
        lines = ["alpha,theta,phi,X,Y,Z"]
        thetas, phis = numpy_grid_angles(n_theta, n_phi)
        grid = [f"{theta!r},{phi!r}" for theta in thetas.tolist() for phi in phis.tolist()]
        for alpha in alphas:
            alpha = float(alpha)
            points = numpy_bloch_surface(alpha, (n_theta, n_phi)).tolist()
            lines += [f"{alpha!r},{at},{x!r},{y!r},{z!r}" for at, (x, y, z) in zip(grid, points)]
        assert bloch_csv(alphas, n_theta, n_phi) == "\n".join(lines) + "\n"

    def test_sweep_alphas(self):
        values = bloch.sweep_alphas(6)
        assert len(values) == 6
        assert values[0] == 0.0
        assert abs(values[-1] - math.pi / 2) < 1e-15
        assert abs(values[1] - math.pi / 10) < 1e-15
        with pytest.raises(BadRange):
            bloch.sweep_alphas(0)


#: The values set, one at a time, at every JSON path of a canonical file.
ODD_VALUES = [None, True, 5, -1, 1.5, 10**400, "s", [], [1], {}, {"a": 1}]

#: A text nested deeper than json can decode.
DEEP = "[" * 100000 + "]" * 100000

#: Per file kind: its reader, the full parse, and a canonical file of (d, n).
LOADERS = {
    "density": (io.load_density, reference_load_density, lambda d, n: canonical_density(d, n, None)),
    "state": (io.load_state, reference_load_state, lambda d, n: canonical_state(d, n, None)),
    "circuit": (io.load_circuit, reference_load_circuit, lambda d, n: canonical_circuit(d, n, None)),
}


def short_id(value):
    """A test id for the long values above."""
    if value is DEEP:
        return "DEEP"
    return "10**400" if value == 10**400 else "-10**400" if value == -(10**400) else None


def json_paths(value, path=()):
    """Every path into a parsed JSON value, the empty path (the whole) first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


def with_value(text, path, value):
    """The canonical layout of ``text`` with ``value`` at ``path``; DEEP is
    spliced in as text."""
    data = json.loads(text)
    if not path:
        return DEEP if value is DEEP else json_text(value)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@deep@" if value is DEEP else value
    return json_text(data).replace('"@deep@"', DEEP)


def outcome(load, text):
    """What a loader gives: its result, or the exception type and message."""
    if load in (io.load_circuit, reference_load_circuit):
        return load_outcome(load, text)
    return array_outcome(load, text)


class TestMalformedInputs:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("d", [2, 3])
    def test_no_traceback(self, kind, d):
        # each value at each path: the reader returns, or raises a parse or
        # validation error, and gives the full parse's outcome either way
        load, reference, canonical = LOADERS[kind]
        text = canonical(d, 1)
        variants = [with_value(text, path, value) for path in json_paths(json.loads(text)) for value in [*ODD_VALUES, DEEP]]
        assert DEEP in variants  # the whole file replaced
        for variant in variants:
            try:
                load(variant)
            except (QPurifyError, ValueError, KeyError):
                pass
            assert outcome(load, variant) == outcome(reference, variant), variant[:200]

    @pytest.mark.parametrize(
        "kind,path,value,code,line",
        [
            ("density", ("matrix", 0, 0, 0), 10**400, 2, "BadRange: 're' holds an integer beyond the float range"),
            ("density", (), DEEP, 1, "ParseError: matrix file nests too deeply to decode"),
            ("density", ("matrix", 1), DEEP, 1, "ParseError: matrix file nests too deeply to decode"),
            ("circuit", (), DEEP, 1, "ParseError: circuit file nests too deeply to decode"),
            ("circuit", ("parameters", "weight_angles", 0), 10**400, 2, "BadRange: 'weight_angles' holds an integer beyond the float range"),
            ("circuit", ("schedule", 0, "value"), 10**400, 2, "BadRange: 'value' holds an integer beyond the float range"),
            ("circuit", ("parameters",), [1], 1, "ParseError: 'parameters' must be a JSON object"),
            ("circuit", ("parameters", "branches", 0, "phases"), 5, 1, "ParseError: 'phases' must be a JSON list"),
            ("circuit", ("schedule", 2), None, 1, "ParseError: 'schedule' entries must be JSON objects"),
            ("circuit", ("schedule", 2, "subspace"), 5, 1, "ParseError: 'subspace' must be a JSON list of two integers"),
            ("circuit", ("schedule", 2, "control_value"), -(10**400), 2, "OutOfRange: control value control_value outside ancilla register"),
        ],
        ids=short_id,
    )
    def test_cli_prints_one_line(self, runner, tmp_path, kind, path, value, code, line):
        text = with_value(LOADERS[kind][2](3, 1), path, value)
        command = "purify --input" if kind == "density" else "simulate --circuit"
        source, out = tmp_path / "in.json", tmp_path / "out.json"
        source.write_text(text)
        res = runner.invoke(main, [*command.split(), str(source), "--out", str(out)])
        assert isinstance(res.exception, SystemExit) and res.exit_code == code
        assert res.stderr == line + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,path,value,message",
        [
            ("circuit", ("parameters",), 5, "'parameters' must be a JSON object"),
            ("circuit", ("parameters",), [1], "'parameters' must be a JSON object"),
            ("circuit", ("parameters", "weight_angles"), 5, "'weight_angles' must be a JSON list"),
            ("circuit", ("parameters", "branches"), 5, "'branches' must be a JSON list"),
            ("circuit", ("parameters", "branches", 1, "angles"), 5, "'angles' must be a JSON list"),
            ("circuit", ("parameters", "branches", 0, "phases"), {"a": 1}, "'phases' must be a JSON list"),
            ("circuit", ("schedule",), 5, "'schedule' must be a JSON list"),
            ("circuit", ("parameters", "branches", 0), 5, "'branches' entries must be JSON objects"),
            ("circuit", ("schedule", 0), 5, "'schedule' entries must be JSON objects"),
            ("circuit", ("schedule", 0, "subspace"), 5, "'subspace' must be a JSON list of two integers"),
            ("circuit", ("schedule", 0, "subspace"), [1], "'subspace' must be a JSON list of two integers"),
            ("state", ("amplitudes",), 5, "'amplitudes' must be a JSON list"),
        ],
    )
    def test_wrong_json_type_names_the_field(self, kind, path, value, message):
        load, reference, canonical = LOADERS[kind]
        text = with_value(canonical(2, 1), path, value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load(text)
        assert outcome(load, text) == outcome(reference, text)

    @pytest.mark.parametrize(
        "kind,path,value,error,message",
        [
            ("circuit", ("N",), -(10**400), ValueError, "declared N=N disagrees with d**n=2"),
            ("circuit", ("parameters", "branches", 0, "dim"), 10**400, ShapeMismatch,
             "branch of dimension dim needs dim - 1 angles and phases"),
            ("state", ("ancilla_dim",), 10**400, ShapeMismatch,
             "expected ancilla_dim * system_dim amplitudes, got (4,)"),
            ("circuit", ("schedule", 1, "control_value"), -(10**400), OutOfRange,
             "control value control_value outside ancilla register"),
            ("circuit", ("schedule", 1, "subspace"), [0, 10**400], OutOfRange,
             "rotation subspace (0, subspace) invalid for dim 2"),
        ],
        ids=["N", "dim", "ancilla_dim", "control_value", "subspace"],
    )
    def test_400_digit_field_names_the_field(self, kind, path, value, error, message):
        # a 400-digit integer field is named in a short message, not printed
        load, reference, canonical = LOADERS[kind]
        text = with_value(canonical(2, 1), path, value)
        with pytest.raises(error) as caught:
            load(text)
        assert type(caught.value) is error and str(caught.value) == message
        assert outcome(load, text) == outcome(reference, text)

    @pytest.mark.parametrize(
        "edits,code,line",
        [
            ([(("parameters",), {})], 1, "ParseError: missing key 'weight_angles'"),
            ([(("schedule", 7, "gate"), "swap"), (("schedule", 2, "control_value"), 3)], 2,
             "OutOfRange: control value 3 outside ancilla register"),
            ([(("parameters", "branches", 1), {"dim": 3, "angles": [0.1, 0.2], "phases": [0.5, 0.6]}),
              (("parameters", "branches", 2), 5)], 2,
             "ShapeMismatch: branch 1 must have dimension 2"),
        ],
        ids=["empty parameters", "gate records 2 and 7", "branches 1 and 2"],
    )
    def test_first_fault_in_the_file_is_named(self, runner, tmp_path, edits, code, line):
        # a circuit file is read in the order it is written: of several
        # faults, the reader and the CLI name the first
        data = qutrit_circuit()
        for path, value in edits:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        text = json_text(data)
        assert outcome(io.load_circuit, text) == outcome(reference_load_circuit, text)
        source, out = tmp_path / "circ.json", tmp_path / "out.json"
        source.write_text(text)
        res = runner.invoke(main, ["simulate", "--circuit", str(source), "--out", str(out)])
        assert res.exit_code == code and res.stderr == line + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_huge_integer_is_bad_range(self, kind):
        # 1 followed by 400 zeros is a JSON integer no double holds
        load, reference, canonical = LOADERS[kind]
        path = {"density": ("matrix", 0, 0, 1), "state": ("amplitudes", 1, 0), "circuit": ("parameters", "weight_angles", 0)}[kind]
        name = {"density": "im", "state": "re", "circuit": "weight_angles"}[kind]
        text = with_value(canonical(2, 1), path, 10**400)
        with pytest.raises(BadRange, match=f"^'{name}' holds an integer beyond the float range$"):
            load(text)
        assert outcome(load, text) == outcome(reference, text)


class TestCliPipeline:
    def test_end_to_end(self, runner, tmp_path):
        rho_path = tmp_path / "rho.json"
        res = runner.invoke(main, ["random", "--d", "2", "--n", "2", "--seed", "3", "--out", str(rho_path)])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("purity=")
        entries = io.load_density(rho_path.read_text()).entries
        purity = float(res.output.split("=", 1)[1])
        assert abs(purity - np.trace(entries @ entries).real) <= 1e-15

        psi_path = tmp_path / "psi.json"
        coeff_path = tmp_path / "coeffs.json"
        res = runner.invoke(
            main,
            ["purify", "--input", str(rho_path), "--out", str(psi_path), "--coeffs", str(coeff_path)],
        )
        assert res.exit_code == 0, res.output
        assert float(res.output.split("=", 1)[1]) <= 1e-10
        assert coeff_path.exists()

        circuit_path = tmp_path / "circuit.json"
        res = runner.invoke(main, ["synth", "--input", str(rho_path), "--out", str(circuit_path)])
        assert res.exit_code == 0, res.output
        assert "parameters=15" in res.output

        out_path = tmp_path / "psi2.json"
        res = runner.invoke(
            main,
            ["simulate", "--circuit", str(circuit_path), "--out", str(out_path), "--expect", str(rho_path)],
        )
        assert res.exit_code == 0, res.output

        # the simulated state purifies rho to within tolerance
        state = io.load_state(out_path.read_text())
        from qpurify import partial_trace_ancilla

        rho = io.load_density(rho_path.read_text())
        assert np.max(np.abs(partial_trace_ancilla(state) - rho.entries)) <= 1e-10

    def test_purify_writes_expected_state(self, runner, tmp_path):
        rho = validate_density(np.eye(2) / 2, QuditShape(2, 1))
        rho_path = write_density(tmp_path / "rho.json", rho)
        psi_path = tmp_path / "psi.json"
        res = runner.invoke(main, ["purify", "--input", rho_path, "--out", str(psi_path)])
        assert res.exit_code == 0
        assert float(res.output.split("=", 1)[1]) <= 1e-15
        state = io.load_state(psi_path.read_text())
        expected = np.zeros(4, dtype=complex)
        expected[1] = expected[2] = math.sqrt(0.5)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    @pytest.mark.parametrize(
        "flags", [[], ["--reshuffle"], ["--method", "spectral"]], ids=["cholesky", "reshuffle", "spectral"]
    )
    def test_coeffs_are_the_state_amplitudes(self, runner, tmp_path, flags):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 2, seed=8, rank=3))
        psi_path, coeff_path = tmp_path / "psi.json", tmp_path / "coeffs.json"
        res = runner.invoke(
            main,
            ["purify", "--input", rho_path, *flags, "--out", str(psi_path), "--coeffs", str(coeff_path)],
        )
        assert res.exit_code == 0, res.output
        state = io.load_state(psi_path.read_text())
        coeffs = json.loads(coeff_path.read_text())
        assert coeffs["N"] == 4
        matrix = np.array(coeffs["C"], dtype=float)
        assert np.array_equal(matrix[..., 0] + 1j * matrix[..., 1], state.amplitudes.reshape(4, 4))

    def test_spectral_method(self, runner, tmp_path):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 2, seed=8))
        res = runner.invoke(
            main,
            ["purify", "--input", rho_path, "--method", "spectral", "--out", str(tmp_path / "psi.json")],
        )
        assert res.exit_code == 0, res.output

    def test_reshuffle_flag(self, runner, tmp_path):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 2, seed=8, rank=2))
        res = runner.invoke(
            main,
            ["purify", "--input", rho_path, "--reshuffle", "--out", str(tmp_path / "psi.json")],
        )
        assert res.exit_code == 0, res.output
        res = runner.invoke(
            main,
            ["purify", "--input", rho_path, "--method", "spectral", "--reshuffle", "--out", str(tmp_path / "x.json")],
        )
        assert res.exit_code == 2

    def test_byte_stable_outputs(self, runner, tmp_path):
        files = {}
        for tag in ("one", "two"):
            rho_path = tmp_path / f"rho_{tag}.json"
            circ_path = tmp_path / f"circ_{tag}.json"
            psi_path = tmp_path / f"psi_{tag}.json"
            csv_path = tmp_path / f"surf_{tag}.csv"
            assert runner.invoke(main, ["random", "--d", "2", "--n", "2", "--seed", "21", "--out", str(rho_path)]).exit_code == 0
            assert runner.invoke(main, ["synth", "--input", str(rho_path), "--out", str(circ_path)]).exit_code == 0
            assert runner.invoke(main, ["purify", "--input", str(rho_path), "--out", str(psi_path)]).exit_code == 0
            assert runner.invoke(main, ["bloch", "--alphas", "3", "--grid", "6x6", "--out", str(csv_path)]).exit_code == 0
            files[tag] = tuple(p.read_bytes() for p in (rho_path, circ_path, psi_path, csv_path))
        assert files["one"] == files["two"]


class TestCliErrors:
    def test_parse_error_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        res = runner.invoke(main, ["purify", "--input", str(bad), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 1
        assert "ParseError:" in res.stderr

    @pytest.mark.parametrize("command,flag,key", [("simulate", "--circuit", "N"), ("purify", "--input", "matrix")])
    def test_missing_key_exit_1(self, runner, tmp_path, command, flag, key):
        # each command reads the other's input file, which lacks its first key
        rho = random_density(2, 1, seed=3)
        params = extract_parameters(cholesky_purify(rho))
        inputs = {
            "simulate": dump_density(rho),
            "purify": io.dump_circuit(rho.shape, params, schedule_from_parameters(params)),
        }
        path, out = tmp_path / "input.json", tmp_path / "out.json"
        path.write_text(inputs[command])
        res = runner.invoke(main, [command, flag, str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr == f"ParseError: missing key {key!r}\n"
        assert not out.exists()

    def test_synth_compares_with_eps_recon(self, runner, tmp_path, monkeypatch):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 2, seed=4))
        monkeypatch.setattr(core, "DEFAULT_TOL", ToleranceConfig(eps_recon=0.0))
        res = runner.invoke(main, ["synth", "--input", rho_path, "--out", str(tmp_path / "c.json")])
        assert res.exit_code == 3
        assert re.fullmatch(r"ReconstructionFailure: schedule deviates by \S+ above eps_recon 0\.0\n", res.stderr)

    def test_circuit_not_an_object_exit_1(self, runner, tmp_path):
        path, out = tmp_path / "circuit.json", tmp_path / "out.json"
        path.write_text("[1,2]\n")
        res = runner.invoke(main, ["simulate", "--circuit", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr == "ParseError: circuit file must be a JSON object\n"
        assert not out.exists()

    def test_missing_file_exit_1(self, runner, tmp_path):
        res = runner.invoke(main, ["purify", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 1

    def test_not_psd_exit_2(self, runner, tmp_path):
        data = {"d": 2, "n": 1, "matrix": [[[0.5, 0], [0.6, 0]], [[0.6, 0], [0.5, 0]]]}
        path = tmp_path / "notpsd.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["purify", "--input", str(path), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2
        assert res.stderr.startswith("NotPSD:")

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_exit_2(self, runner, tmp_path, token):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"d":2,"n":1,"matrix":[[[%s,0],[0,0]],[[0,0],[0.5,0]]]}' % token)
        res = runner.invoke(main, ["purify", "--input", str(path), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2
        assert res.stderr.startswith("BadRange: matrix has non-finite entries")

    @pytest.mark.parametrize(
        "matrix,line",
        [
            ([[0.5, 9e307], [9e307, 0.5]], "BadRange: matrix entries overflow its Hermitian part"),
            ([[0.5, 1e308], [1e308, 0.5]], "BadRange: matrix entries overflow its Hermitian part"),
            ([[9e307, 0], [0, -9e307]], "BadRange: matrix entries overflow its Hermitian part"),
            ([[1e308, 0], [0, -1e308]], "BadRange: matrix entries overflow its Hermitian part"),
            ([[0.5, 1e308], [-1e308, 0.5]], "NotHermitian: asymmetry inf exceeds tolerance 1e-10"),
        ],
        ids=["off-diagonal 9e307", "off-diagonal 1e308", "diagonal 9e307", "diagonal 1e308", "antisymmetric 1e308"],
    )
    @pytest.mark.parametrize(
        "command",
        [["purify"], ["purify", "--reshuffle"], ["purify", "--method", "spectral"], ["synth"]],
        ids=" ".join,
    )
    def test_hermitian_part_overflow_exit_2(self, runner, tmp_path, matrix, line, command):
        # finite entries whose sum or difference with the adjoint passes the float range
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 2, "n": 1, "matrix": [[[x, 0] for x in row] for row in matrix]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, [*command, "--input", str(path), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2
        assert res.stderr == line + "\n"
        assert not caught, [str(w.message) for w in caught]

    def test_eigensolver_failure_exit_3(self, runner, tmp_path, monkeypatch):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 1, seed=3))

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        res = runner.invoke(main, ["purify", "--input", rho_path, "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 3
        assert res.stderr.startswith("NoConvergence:")

    def test_not_hermitian_exit_2(self, runner, tmp_path):
        data = {"d": 2, "n": 1, "matrix": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
        path = tmp_path / "noth.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["purify", "--input", str(path), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2
        assert res.stderr.startswith("NotHermitian:")

    @pytest.mark.parametrize(
        "row,field,value,code,kind",
        [
            (0, "control_value", 3, 2, "OutOfRange:"),
            (2, "control_value", 3, 2, "OutOfRange:"),
            (2, "control_value", -1, 2, "OutOfRange:"),
            (2, "subspace", [1, 1], 2, "OutOfRange:"),
            (2, "subspace", [0, 3], 2, "OutOfRange:"),
            (0, "subspace", [0, 3], 2, "OutOfRange:"),
            (6, "subspace", [2, 1], 2, "OutOfRange:"),
            (6, "subspace", [0, 2**70], 2, "OutOfRange:"),
            (4, "basis", 3, 2, "OutOfRange:"),
            (7, "basis", -1, 2, "OutOfRange:"),
            (6, "value", math.nan, 2, "BadRange:"),
            (2, "gate", "swap", 1, "ParseError:"),
        ],
    )
    def test_tampered_schedule_rejected(self, runner, tmp_path, row, field, value, code, kind):
        data = qutrit_circuit()
        data["schedule"][row][field] = value
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["simulate", "--circuit", str(path), "--out", str(out)])
        assert res.exit_code == code
        assert res.stderr.startswith(kind)
        assert not out.exists()

    def test_exit_code_per_error_class(self):
        compute = {cls.__name__ for cls in QPurifyError.__subclasses__() if cls.exit_code == 3}
        assert compute == {"NoConvergence", "ReconstructionFailure", "DegenerateBranch"}
        assert all(cls.exit_code in (2, 3) for cls in QPurifyError.__subclasses__())

    def test_tampered_circuit_exit_3(self, runner, tmp_path):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 1, seed=42))
        circ_path = tmp_path / "circ.json"
        assert runner.invoke(main, ["synth", "--input", str(rho_path), "--out", str(circ_path)]).exit_code == 0
        data = json.loads(circ_path.read_text())
        data["schedule"][0]["value"] += 0.1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        res = runner.invoke(
            main,
            ["simulate", "--circuit", str(tampered), "--out", str(tmp_path / "x.json"), "--expect", str(rho_path)],
        )
        assert res.exit_code == 3
        assert "ReconstructionFailure:" in res.stderr

    def test_tampered_circuit_without_expect_exit_3(self, runner, tmp_path):
        rho_path = write_density(tmp_path / "rho.json", random_density(2, 1, seed=42))
        circ_path = tmp_path / "circ.json"
        assert runner.invoke(main, ["synth", "--input", str(rho_path), "--out", str(circ_path)]).exit_code == 0
        data = json.loads(circ_path.read_text())
        data["schedule"][0]["value"] += 0.1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["simulate", "--circuit", str(tampered), "--out", str(out)])
        assert res.exit_code == 3
        assert res.stderr.startswith("ReconstructionFailure: schedule row 0 ")
        assert not out.exists()

    def test_bloch_bad_range_exit_2(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        for flag, value in [("--alpha", "2.0"), ("--alphas", "0"), ("--alphas", "-3")]:
            res = runner.invoke(main, ["bloch", flag, value, "--grid", "4x4", "--out", str(out)])
            assert res.exit_code == 2, value
            assert res.stderr.startswith("BadRange:"), res.stderr
            assert not out.exists()

    def test_random_bad_shape_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["random", "--d", "1", "--n", "1", "--seed", "0", "--out", str(tmp_path / "r.json")])
        assert res.exit_code == 2
        assert res.stderr.startswith("BadShape:")

    def test_purify_huge_shape_exit_2(self, runner, tmp_path):
        # d**n has thousands of digits; the cap is decided without it
        path, out = tmp_path / "rho.json", tmp_path / "out.json"
        path.write_text('{"d":3,"n":10000,"matrix":[[[1.0,0.0]]]}\n')
        res = runner.invoke(main, ["purify", "--input", str(path), "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr.startswith("BadShape: N = 3**10000 exceeds cap 4096")
        assert not out.exists()

    @pytest.mark.parametrize("field,message", [("d", "N = d**1"), ("n", "N = 2**n")])
    def test_purify_400_digit_shape_names_the_field(self, runner, tmp_path, field, message):
        path, out = tmp_path / "rho.json", tmp_path / "out.json"
        shape = {"d": 2, "n": 1, field: "1" + "0" * 400}
        path.write_text(f'{{"d":{shape["d"]},"n":{shape["n"]},"matrix":[]}}\n')
        res = runner.invoke(main, ["purify", "--input", str(path), "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr == f"BadShape: {message} exceeds cap 4096\n"
        assert len(res.stderr) < 60
        assert not out.exists()

    HUGE = "1" + "0" * 400

    # each value is refused before anything is allocated; a huge positive
    # --alphas or --grid would allocate without bound, so none is run
    @pytest.mark.parametrize("args,line", [
        (["random", "--d", f"-{HUGE}", "--n", "1"], "BadShape: local dimension d must be >= 2, got d"),
        (["random", "--d", "2", "--n", f"-{HUGE}"], "BadShape: qudit count n must be >= 1, got n"),
        (["random", "--d", "2", "--n", "1", "--rank", HUGE], "BadShape: rank must lie in [1, 2], got rank"),
        (["random", "--d", "2", "--n", "1", "--rank", f"-{HUGE}"], "BadShape: rank must lie in [1, 2], got rank"),
        (["bloch", "--alphas", f"-{HUGE}"], "BadRange: alpha count must be >= 1, got count"),
        (["bloch", "--alpha", "0.3", "--grid", f"-{HUGE}x3"], "BadRange: grid sizes must be >= 2, got THETAx3"),
    ], ids=["d", "n", "rank", "negative-rank", "alphas", "grid"])
    def test_400_digit_argument_names_the_field(self, runner, tmp_path, args, line):
        out = tmp_path / "out"
        extra = ["--seed", "0"] if args[0] == "random" else []
        res = runner.invoke(main, [*args, *extra, "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr == line + "\n"
        assert not out.exists()

    def test_simulate_expect_other_rho_exit_3(self, runner, tmp_path):
        # the circuit prepares one session's rho, --expect names another's
        circuit_path, out = tmp_path / "c.json", tmp_path / "psi.json"
        rho_a = write_density(tmp_path / "a.json", random_density(2, 2, seed=4))
        rho_b = write_density(tmp_path / "b.json", random_density(2, 2, seed=5))
        assert runner.invoke(main, ["synth", "--input", rho_a, "--out", str(circuit_path)]).exit_code == 0
        res = runner.invoke(main, ["simulate", "--circuit", str(circuit_path), "--out", str(out), "--expect", rho_b])
        assert res.exit_code == 3
        assert re.fullmatch(r"max_abs_error=\S+\n", res.stdout)
        error = float(res.stdout.split("=", 1)[1])
        assert res.stderr == f"ReconstructionFailure: simulated state misses target by {error!r}\n"
        assert error > 1e-3

    def test_purify_round_trip_failure_exit_3(self, runner, tmp_path, monkeypatch):
        # no accepted rho misses eps_recon by itself: the verifier's default
        # tolerance is set to zero, which the spectral round trip cannot meet
        from qpurify import purify

        rho_path = write_density(tmp_path / "rho.json", random_density(2, 2, seed=4))
        monkeypatch.setattr(purify, "DEFAULT_TOL", ToleranceConfig(eps_recon=0.0))
        out = tmp_path / "psi.json"
        res = runner.invoke(main, ["purify", "--input", rho_path, "--method", "spectral", "--out", str(out)])
        assert res.exit_code == 3
        error = float(res.stdout.split("=", 1)[1])
        assert error > 0.0
        assert res.stderr == f"ReconstructionFailure: round-trip error {error!r}\n"
        assert out.exists()  # the state is written before the verdict

    def test_synth_circuit_state_misses_rho_exit_3(self, runner, tmp_path, monkeypatch):
        # the verifier's default tolerance is set to zero; core's stays, so the
        # amplitude comparison passes and the partial trace of the circuit
        # state is what fails
        from qpurify import purify

        rho_path = write_density(tmp_path / "rho.json", random_density(2, 2, seed=4))
        rho = io.load_density((tmp_path / "rho.json").read_text())
        prepared = apply_schedule(extract_parameters(cholesky_purify(rho)))
        error = verify_purification(prepared, rho).max_abs_error
        assert error > 0.0
        monkeypatch.setattr(purify, "DEFAULT_TOL", ToleranceConfig(eps_recon=0.0))
        out = tmp_path / "c.json"
        res = runner.invoke(main, ["synth", "--input", rho_path, "--out", str(out)])
        assert res.exit_code == 3
        assert res.stderr == f"ReconstructionFailure: circuit state misses rho by {error!r}\n"
        assert out.exists()  # the circuit is written before the verdict

    def test_spectral_purifies_at_the_rounding_floor(self, runner, tmp_path):
        # a 12-decade spectrum under a spread-out basis, N = 64: the Jacobi
        # solver stops at its rounding floor instead of raising NoConvergence
        spectrum = 10.0 ** -np.linspace(0, 12, 64)
        spectrum /= spectrum.sum()
        u = random_unitary(64, 0)
        rho = DensityMatrix(QuditShape(2, 6), (u * spectrum) @ u.conj().T)
        rho_path = write_density(tmp_path / "rho.json", rho)
        for method in (["--method", "spectral"], [], ["--reshuffle"]):
            res = runner.invoke(main, ["purify", "--input", rho_path, *method, "--out", str(tmp_path / "psi.json")])
            assert res.exit_code == 0, (method, res.output)
            assert float(res.stdout.split("=", 1)[1]) <= 1e-14

    def test_bloch_grid_not_parsed_exit_1(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["bloch", "--alpha", "0.3", "--grid", "abc", "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr == "ParseError: grid must look like 50x50, got 'abc'\n"
        assert not out.exists()

    def test_bloch_requires_one_alpha_flavor(self, runner, tmp_path):
        res = runner.invoke(main, ["bloch", "--grid", "4x4", "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2

    # rho.json is a readable input, so an abbreviation taken for --input
    # would purify and write psi.json
    @pytest.mark.parametrize("argv,option", [
        (["purify", "--input", "rho.json", "--inp", "rho.json", "--out", "psi.json"], "--inp"),
        (["random", "--d", "x", "--n", "1", "--seed", "1", "--out", "r.json"], "--d"),
        (["purify", "--input", "rho.json", "--method", "foo", "--out", "psi.json"], "--method"),
        (["purify", "--input", "rho.json"], "--out"),
        (["bloch", "--alpha", "0.3", "--alphas", "3", "--out", "s.csv"], "--alphas"),
        (["purify", "--input", "rho.json", "--reshuffle", "--method", "spectral", "--out", "psi.json"], "--reshuffle"),
    ], ids=["prefix", "not-an-int", "not-a-choice", "missing", "both-alphas", "reshuffle-spectral"])
    def test_usage_error_names_the_option(self, runner, tmp_path, monkeypatch, argv, option):
        rho = write_density(tmp_path / "rho.json", random_density(2, 1, seed=1))
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        res = runner.invoke(main, [rho if arg == "rho.json" else arg for arg in argv])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: qpurify ")
        assert re.search(rf"{option}(?![\w-])", res.stderr.splitlines()[-1]), res.stderr
        assert list(out.iterdir()) == []

    # values that start with a dash are values, not options
    @pytest.mark.parametrize("argv,code,line", [
        (["random", "--d", "2", "--n", "1", "--seed", "1", "--out=r.json"], 0, None),
        (["random", "--d", "-1", "--n", "1", "--seed", "1", "--out", "r.json"], 2,
         "BadShape: local dimension d must be >= 2, got -1"),
        (["bloch", "--alpha", "-1e-3", "--out", "s.csv"], 2, "BadRange: alpha -0.001 outside [0, pi/2]"),
    ], ids=["out-equals", "negative-int", "negative-exponent"])
    def test_values_still_parse(self, runner, tmp_path, monkeypatch, argv, code, line):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, argv)
        assert res.exit_code == code, res.output
        if line is None:
            assert res.stdout.startswith("purity=") and (tmp_path / "r.json").exists()
        else:
            assert res.stderr == line + "\n"
            assert list(tmp_path.iterdir()) == []


def psd_edge_density(tmp_path, smallest, dim):
    """A rho file with the given smallest eigenvalue, written unvalidated."""
    matrix = with_smallest_eigenvalue(smallest, dim, seed=dim)
    return write_density(tmp_path / "rho.json", DensityMatrix(QuditShape(2, dim.bit_length() - 1), matrix))


class TestCliPsdEdge:
    """Validation refuses what the purifiers would refuse at the PSD edge:
    below the rounding bound ``purify`` exits 2 under each method (the old
    fixed 1e-9 bound let -5e-10 through to exit 3), and a zero eigenvalue passes."""

    METHODS = {"cholesky": [], "reshuffle": ["--reshuffle"], "spectral": ["--method", "spectral"]}

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("dim", [4, 8, 16])
    @pytest.mark.parametrize("smallest", [-1e-9, -5e-10, -1e-11, -1e-12])
    def test_below_the_bound_exits_2(self, runner, tmp_path, smallest, dim, method):
        out = tmp_path / "psi.json"
        path = psd_edge_density(tmp_path, smallest, dim)
        res = runner.invoke(main, ["purify", "--input", path, *self.METHODS[method], "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert re.fullmatch(r"NotPSD: smallest eigenvalue \S+ below -\S+\n", res.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_zero_eigenvalue_purifies(self, runner, tmp_path, dim, method):
        path = psd_edge_density(tmp_path, 0.0, dim)
        res = runner.invoke(main, ["purify", "--input", path, *self.METHODS[method], "--out", str(tmp_path / "psi.json")])
        assert res.exit_code == 0, res.output
        assert float(res.output.split("=", 1)[1]) <= 1e-10


class TestCliBloch:
    def test_single_alpha_rows(self, runner, tmp_path):
        out = tmp_path / "surface.csv"
        res = runner.invoke(main, ["bloch", "--alpha", "0", "--grid", "10x10", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 101
        for line in lines[1:]:
            _, _, _, x, y, z = (float(v) for v in line.split(","))
            assert abs(x * x + y * y + z * z - 1.0) <= 1e-12

    def test_alpha_sweep_monotone_centers(self, runner, tmp_path):
        out = tmp_path / "surface.csv"
        res = runner.invoke(main, ["bloch", "--alphas", "6", "--grid", "5x5", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert len(lines) == 6 * 25
        alphas = sorted({float(line.split(",")[0]) for line in lines})
        centers = [math.sin(a) ** 2 for a in alphas]
        assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_one_alpha_count_writes_alpha_zero(self, runner, tmp_path):
        out = tmp_path / "surface.csv"
        res = runner.invoke(main, ["bloch", "--alphas", "1", "--grid", "3x3", "--out", str(out)])
        assert res.exit_code == 0
        assert res.output == "rows=9\n"
        assert {line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]} == {"0.0"}

    def test_near_pole_alpha_collapses(self, runner, tmp_path):
        out = tmp_path / "pole.csv"
        res = runner.invoke(main, ["bloch", "--alpha", "1.5707963", "--grid", "5x5", "--out", str(out)])
        assert res.exit_code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            _, _, _, x, y, z = (float(v) for v in line.split(","))
            assert abs(x) < 1e-6 and abs(y) < 1e-6 and abs(z - 1.0) < 1e-6

    def test_rank_flag_prints_unit_purity(self, runner, tmp_path):
        res = runner.invoke(
            main, ["random", "--d", "2", "--n", "2", "--seed", "1", "--rank", "1", "--out", str(tmp_path / "r.json")]
        )
        assert res.exit_code == 0
        purity = float(res.output.split("=", 1)[1])
        assert abs(purity - 1.0) <= 1e-12


class TestCliSynthCounts:
    @pytest.mark.parametrize("d,n,count", [(2, 1, 3), (3, 1, 8), (2, 2, 15)])
    def test_parameter_counts(self, runner, tmp_path, d, n, count):
        rho_path = write_density(tmp_path / "rho.json", random_density(d, n, seed=5))
        res = runner.invoke(main, ["synth", "--input", rho_path, "--out", str(tmp_path / "c.json")])
        assert res.exit_code == 0
        assert f"parameters={count} " in res.output


@pytest.mark.xfail(strict=True, reason="angles from a running division (ROADMAP item 3)")
def test_synth_keeps_a_small_coherence(runner, tmp_path):
    # full rank, and purify verifies it to about 1e-16; the circuit misses
    # the 1e-8 coherence by 4.1e-9
    matrix = np.diag(np.array([0.3, 0.2, 0.5], dtype=complex))
    matrix[0, 2] = matrix[2, 0] = 1e-8
    rho_path = write_density(tmp_path / "rho.json", validate_density(matrix, QuditShape(3, 1)))
    res = runner.invoke(main, ["synth", "--input", rho_path, "--out", str(tmp_path / "c.json")])
    assert res.exit_code == 0, res.output


def test_console_script_entry_point():
    proc = fresh_python(["-m", "qpurify.cli", "--help"], cwd=None)
    assert proc.returncode == 0
    assert "purify" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_commands_read_a_pipe(tmp_path):
    """A file piped to ``/dev/stdin``, which cannot seek, gives the same
    output lines and files as the file read from disk."""

    def run(*args, stdin=None):
        proc = fresh_python(["-m", "qpurify.cli", *args], tmp_path, input=stdin)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    run("random", "--d", "2", "--n", "3", "--seed", "5", "--out", "rho.json")
    run("synth", "--input", "rho.json", "--out", "circuit.json")
    for name, command in [
        ("rho.json", ["purify", "--input"]),
        ("circuit.json", ["simulate", "--expect", "rho.json", "--circuit"]),
    ]:
        piped = run(*command, "/dev/stdin", "--out", "piped.json", stdin=(tmp_path / name).read_text())
        direct = run(*command, name, "--out", "direct.json")
        assert piped == direct
        assert (tmp_path / "piped.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
