"""Property test of the random stream against its scalar oracle: one
CounterRng that interleaves uniform() and complex_normal_matrix() calls
draws, bit for bit, what ScalarStream draws one value at a time."""

import pytest
from test_linalg import same_bits
from test_rng import ScalarStream

from qpurify import CounterRng

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Seeds near 0, 2**63 and 2**64 - 1, where the counter sum wraps.
SEEDS = st.one_of(
    st.integers(0, 2**16),
    st.integers(2**63 - 2**16, 2**63 + 2**16),
    st.integers(2**64 - 2**16, 2**64 - 1),
)

#: A draw: None for one uniform(), else a (rows, cols) matrix.
DRAWS = st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 5)))


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(SEEDS, st.lists(DRAWS, max_size=8))
def test_interleaved_draws_follow_scalar_stream(seed, draws):
    # uniform() and complex_normal_matrix advance one cursor over one stream
    rng, oracle = CounterRng(seed), ScalarStream(seed)
    for draw in draws:
        if draw is None:
            assert same_bits(rng.uniform(), oracle.uniform())
        else:
            assert same_bits(rng.complex_normal_matrix(*draw), oracle.complex_normals(*draw))
    assert same_bits(rng.uniform(), oracle.uniform())
