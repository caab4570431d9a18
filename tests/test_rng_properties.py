"""Property test of the random stream against its scalar oracle: one
CounterRng that interleaves uniform() and complex_normal_matrix() calls
draws, bit for bit, what ScalarStream draws one value at a time; and the
density matrix random_density returns unvalidated is a fixed point of
validate_density, bit for bit."""

import numpy as np
import pytest
from test_linalg import same_bits
from test_rng import ScalarStream

from qpurify import CounterRng, random_density, validate_density

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


#: Every (d, n) with N = d**n <= 64.
SHAPES = [(d, n) for d in range(2, 65) for n in range(1, 7) if d**n <= 64]


def fixed_point(d, n, seed, rank):
    """validate_density accepts the rho of random_density and returns its
    entries bit for bit, compared as int64 views."""
    rho = random_density(d, n, seed, rank=rank)
    again = validate_density(rho.entries, rho.shape)
    assert again.shape == rho.shape
    assert (again.entries.view(np.int64) == rho.entries.view(np.int64)).all()


@pytest.mark.parametrize("d,n,rank", [
    (d, n, rank) for d, n in SHAPES for rank in sorted({1, -(-d**n // 2), d**n})
])
@hypothesis.settings(max_examples=3, deadline=None, database=None)
@hypothesis.given(seed=SEEDS)
def test_random_density_is_a_validation_fixed_point(d, n, rank, seed):
    # random_density returns its Gram matrix unvalidated: validation is an identity on it
    fixed_point(d, n, seed, rank)


@pytest.mark.parametrize("rank", [1, 128, 256])
def test_random_density_is_a_validation_fixed_point_at_256(rank):
    fixed_point(2, 8, 20_261_019, rank)
