"""Property tests of the codecs: any finite doubles in a state or matrix, and
any valid circuit parameters, round-trip through the writers and the
canonical readers bit for bit."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from test_io_cli import circuit_record, dump_density, json_text

from qpurify import CircuitParameters, QuditShape, io, schedule_from_parameters

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Finite doubles, with the edge cases drawn often: signed zeros, subnormals,
#: the extremes, and integer-valued doubles (repr writes those as "2.0").
DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-(2**53), 2**53).map(float),
)

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, database=None)


def complex_array(doubles):
    return np.array(doubles, dtype=np.float64).view(np.complex128)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def refuse(pair):
    raise AssertionError("a canonical array was parsed entry by entry")


@SETTINGS
@hypothesis.given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_state_round_trip_is_bit_exact(dims, data):
    m, n = dims
    doubles = data.draw(st.lists(DOUBLES, min_size=2 * m * n, max_size=2 * m * n))
    state = SimpleNamespace(ancilla_dim=m, system_dim=n, amplitudes=complex_array(doubles))
    with pytest.MonkeyPatch.context() as patch:
        # any doubles, not only unit-norm states; and no per-entry parse
        patch.setattr(io, "PureState", lambda m, n, amps: SimpleNamespace(ancilla_dim=m, system_dim=n, amplitudes=amps))
        patch.setattr(io, "_parse_complex", refuse)
        loaded = io.load_state(io.dump_state(state))
    assert (loaded.ancilla_dim, loaded.system_dim) == (m, n)
    assert same_bits(loaded.amplitudes, state.amplitudes)


@SETTINGS
@hypothesis.given(
    dims=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
    data=st.data(),
)
def test_matrix_round_trip_is_bit_exact(dims, data):
    shape = QuditShape(*dims)
    doubles = data.draw(st.lists(DOUBLES, min_size=2 * shape.N**2, max_size=2 * shape.N**2))
    rho = SimpleNamespace(shape=shape, entries=complex_array(doubles).reshape(shape.N, shape.N))
    with pytest.MonkeyPatch.context() as patch:
        # the parsed matrix itself, before validation; and no per-entry parse
        patch.setattr(io, "validate_density", lambda matrix, shape: SimpleNamespace(shape=shape, entries=matrix))
        patch.setattr(io, "_parse_complex", refuse)
        loaded = io.load_density(dump_density(rho))
    assert loaded.shape == shape
    assert same_bits(loaded.entries, rho.entries)


#: Valid circuit angles, [0, pi/2], with the ends, signed zeros and subnormals
#: drawn often.
ANGLES = st.one_of(
    st.floats(0.0, math.pi / 2),
    st.sampled_from([0.0, -0.0, math.pi / 2, 5e-324, 1e-310, 2.2250738585072014e-308]),
)
#: Valid phases, [0, 2 pi), with signed zeros, a subnormal and the largest
#: double below 2 pi drawn often.
PHASES = st.one_of(
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.sampled_from([0.0, -0.0, 5e-324, math.nextafter(2 * math.pi, 0.0)]),
)


def refuse_gate(record):
    raise AssertionError("a canonical schedule block was parsed record by record")


@SETTINGS
@hypothesis.given(
    dims=st.sampled_from([(2, 1), (3, 1), (2, 2), (6, 1)]),
    data=st.data(),
)
def test_circuit_round_trip_is_bit_exact(dims, data):
    shape = QuditShape(*dims)
    N = shape.N

    def draw(values, size):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)

    branches = [(N - k, draw(ANGLES, N - k - 1), draw(PHASES, N - k - 1)) for k in range(N)]
    params = CircuitParameters.from_branches(N, draw(ANGLES, N - 1), branches)
    schedule = schedule_from_parameters(params)
    text = io.dump_circuit(shape, params, schedule)
    assert text == json_text(circuit_record(shape, params, schedule))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_parse_gate", refuse_gate)
        loaded_shape, loaded, loaded_schedule = io.load_circuit(text)
    assert loaded_shape == shape
    for field in ("weight_angles", "angles", "phases"):
        assert same_bits(getattr(loaded, field), getattr(params, field)), field
    assert repr(loaded_schedule.gates) == repr(schedule.gates)
