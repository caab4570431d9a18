"""Property tests of linalg against its bit-for-bit oracles.

On any Hermitian matrix up to N = 6, hermitian_eigen repeats reference_jacobi
bit for bit, or both give up.

Giving up is NoConvergence, or, for reference_jacobi alone, NaN eigenvalues:
its last stop test ``off > stop`` is false for a NaN ``off``, so where the
rotations turn NaN it returns NaN where hermitian_eigen raises. Both rotate a
matrix whose entries are all tiny scaled up by a power of two, so 1 / |a_pq|
(which overflows once |a_pq| is below about 5.6e-309) stays finite.
"""

import numpy as np
import pytest
from test_linalg import reference_jacobi, same_bits

from qpurify import PureState, hermitian_eigen, partial_trace_ancilla
from qpurify.errors import NoConvergence

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Signed zeros, subnormals, the smallest normal, and magnitudes from 1e-200
#: to 1e100. Larger entries are left out: Python's abs(complex) raises
#: OverflowError where numpy's abs returns inf.
ENTRIES = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
        st.floats(min_value=1e-200, max_value=1e100),
    ),
    st.booleans(),
)

#: How the off-diagonals are drawn; "tiny" scales every entry by 1e-300.
FAMILIES = ("complex", "real", "imaginary", "tiny")


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(1, 6))
    family = draw(st.sampled_from(FAMILIES))
    pairs = n * (n - 1) // 2
    diagonal = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    re = draw(st.lists(ENTRIES, min_size=pairs, max_size=pairs))
    im = draw(st.lists(ENTRIES, min_size=pairs, max_size=pairs))
    if family == "real":
        im = [0.0] * pairs
    elif family == "imaginary":
        re = [0.0] * pairs
    elif family == "tiny":
        diagonal, re, im = ([x * 1e-300 for x in part] for part in (diagonal, re, im))
    upper, lower = np.triu_indices(n, 1), np.tril_indices(n, -1)[::-1]
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix.real[np.diag_indices(n)] = diagonal
    matrix.real[upper], matrix.imag[upper] = re, im
    # the lower triangle is the conjugate: -x, so -0.0 below a +0.0
    matrix.real[lower], matrix.imag[lower] = re, np.negative(im)
    return matrix


def solve(solver, matrix):
    """Eigenvalues and eigenvectors, or None on NoConvergence."""
    with np.errstate(all="ignore"):
        try:
            return solver(matrix)
        except NoConvergence:
            return None


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(hermitian_matrices())
@hypothesis.example(np.array([[0.0, -5e-324j], [5e-324j, 0.0]]))
@hypothesis.example(np.array([[1e-310, 3e-311 + 1e-311j], [3e-311 - 1e-311j, 2e-310]]))
def test_matches_reference_bit_for_bit(matrix):
    want = solve(reference_jacobi, matrix)
    got = solve(hermitian_eigen, matrix)
    if want is not None and np.isnan(want[0]).any():
        want = None
    if want is None or got is None:
        assert want is None and got is None
    else:
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])


def index_partial_trace(state):
    """partial_trace_ancilla as it was written with index arrays: the upper
    triangle mirrored through triu_indices, the diagonal's imaginary parts
    cleared through diag_indices. The oracle for its bits."""
    m, n = state.ancilla_dim, state.system_dim
    a = state.amplitudes.reshape(m, n)
    sigma = a.T @ a.conj()
    upper = np.triu_indices(n, 1)
    sigma[upper[1], upper[0]] = sigma[upper].conj()
    sigma[np.diag_indices(n)] = np.diagonal(sigma).real
    return sigma


#: Amplitude parts: signed zeros, and magnitudes that keep the norm exact
#: enough for PureState.
PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def unit_states(draw):
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    amps = np.empty(m * n, dtype=np.complex128)
    amps.real = draw(st.lists(PARTS, min_size=m * n, max_size=m * n))
    amps.imag = draw(st.lists(PARTS, min_size=m * n, max_size=m * n))
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        amps.real[0], norm = 1.0, 1.0
    amps.real /= norm  # part by part, so the signed zeros stay
    amps.imag /= norm
    return PureState(m, n, amps)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(unit_states())
def test_partial_trace_matches_index_formulation(state):
    got, want = partial_trace_ancilla(state), index_partial_trace(state)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signed zeros count
