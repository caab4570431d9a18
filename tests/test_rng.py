import math

import numpy as np
import pytest
from test_linalg import same_bits

from qpurify import CounterRng, QuditShape, random_density, random_unitary, validate_density
from qpurify import errors
from qpurify.errors import BadShape
from qpurify.rng import _uniforms

# published SplitMix64 outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

MASK64 = (1 << 64) - 1


def word(seed, index):
    """The index-th 64-bit word of the stream for ``seed``, in Python ints:
    SplitMix64, one word at a time. The oracle of the package's numpy mixer."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


class ScalarStream:
    """The stream of one seed drawn one value at a time, as the module
    docstring of ``qpurify.rng`` defines it: words, uniforms in (0, 1], and
    Box-Muller normal pairs of consecutive uniforms."""

    def __init__(self, seed):
        self.seed = seed & MASK64
        self.index = 0

    def next_u64(self):
        value = word(self.seed, self.index)
        self.index += 1
        return value

    def uniform(self):
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal_pair(self):
        radius = math.sqrt(-2.0 * math.log(self.uniform()))
        angle = 2.0 * math.pi * self.uniform()
        return radius * math.cos(angle), radius * math.sin(angle)

    def complex_normals(self, rows, cols):
        """A rows x cols matrix filled row-major, one normal pair per entry."""
        values = [complex(*self.normal_pair()) for _ in range(rows * cols)]
        return np.array(values, dtype=np.complex128).reshape(rows, cols)


class TestCounterStream:
    def test_known_vectors(self):
        for index, expected in enumerate(SPLITMIX64_SEED0):
            assert word(0, index) == expected

    def test_counter_is_pure(self):
        rng = CounterRng(12345)
        stream = [rng.uniform() for _ in range(8)]
        assert stream == [((word(12345, i) >> 11) + 1) * 2.0**-53 for i in range(8)]

    def test_uniform_in_half_open_unit(self):
        rng = CounterRng(7)
        draws = [rng.uniform() for _ in range(2000)]
        assert all(0.0 < u <= 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.05

    def test_normals_look_standard(self):
        draws = CounterRng(11).complex_normal_matrix(40, 50)
        for part in (draws.real, draws.imag):
            assert abs(np.mean(part)) < 0.1
            assert abs(np.std(part) - 1.0) < 0.1

    def test_matrix_fill_is_row_major(self):
        # the vectorized fill matches the scalar stream bit for bit, also
        # after a prior draw (nonzero cursor) and for seeds beyond 2**63
        cases = [
            (3, None, (2, 3)),
            (3, (4, 5), (17, 9)),
            (2**63 + 12345, None, (17, 9)),
            (2**64 - 1, (1, 3), (5, 2)),
        ]
        for seed, prior, shape in cases:
            direct = ScalarStream(seed)
            filler = CounterRng(seed)
            if prior is not None:
                direct.complex_normals(*prior)
                filler.complex_normal_matrix(*prior)
            matrix = filler.complex_normal_matrix(*shape)
            assert same_bits(matrix, direct.complex_normals(*shape))
            # the cursor ends where the scalar stream does
            assert filler.uniform() == direct.uniform()

    @pytest.mark.parametrize("block", [1, 5, None])
    def test_matrix_fill_across_row_blocks(self, monkeypatch, block):
        # the stream is mixed a block of whole rows at a time; matrices that
        # straddle block boundaries, rows wider than a block, empty shapes and
        # consecutive calls on one generator all give the scalar stream's
        # values, with the cursor carried from call to call
        if block is not None:
            monkeypatch.setattr(errors, "BLOCK_ROWS", block)
        shapes = [(7, 3), (4, 6), (0, 4), (3, 0), (2, 1)]
        if block is None:  # the real block: one boundary crossed, one row wider
            shapes += [(errors.BLOCK_ROWS // 3 + 2, 3), (2, errors.BLOCK_ROWS + 1)]
        direct, filler = ScalarStream(2**64 - 99), CounterRng(2**64 - 99)
        for shape in shapes:
            matrix = filler.complex_normal_matrix(*shape)
            assert same_bits(matrix, direct.complex_normals(*shape))
            # the cursor agrees
            assert same_bits(filler.complex_normal_matrix(1, 1), direct.complex_normals(1, 1))

    def test_numpy_trig_is_math_trig(self):
        # the fill takes each block's cos and sin in one numpy call, and is
        # bit for bit the scalar stream only while numpy's float64 cos and sin
        # round as math's do (both call the platform libm; numpy's SIMD log
        # does not, so log stays per entry). 3 * 2**17 of the stream's own
        # angles, drawn as the fill draws them, and the edge uniforms
        counters = np.arange(1, 2**18 + 1, dtype=np.uint64)
        uniforms = [_uniforms(seed, counters)[1::2] for seed in (1, 2**63, 2**64 - 1)]
        uniforms.append(np.array([2.0**-53, 0.5, 1.0]))
        angles = 2.0 * math.pi * np.concatenate(uniforms)
        for numpy_f, math_f in ((np.cos, math.cos), (np.sin, math.sin)):
            scalar = np.fromiter(map(math_f, angles.tolist()), float, angles.size)
            assert same_bits(numpy_f(angles), scalar), (
                f"numpy {np.__version__} {numpy_f.__name__} rounds unlike math's on the "
                "Box-Muller angles: CounterRng.complex_normal_matrix must go back to "
                f"math.{math_f.__name__} per entry"
            )


class TestRandomDensity:
    def test_deterministic(self):
        a = random_density(2, 1, seed=7)
        b = random_density(2, 1, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_distinct_seeds_differ(self):
        a = random_density(2, 1, seed=1)
        b = random_density(2, 1, seed=2)
        assert not np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3)])
    def test_output_is_valid(self, d, n):
        rho = random_density(d, n, seed=5)
        validate_density(rho.entries, QuditShape(d, n))

    def test_rank_one_is_pure(self):
        rho = random_density(2, 2, seed=1, rank=1)
        purity = float(np.trace(rho.entries @ rho.entries).real)
        assert abs(purity - 1.0) <= 1e-12

    def test_bad_rank(self):
        with pytest.raises(BadShape):
            random_density(2, 1, seed=0, rank=3)
        with pytest.raises(BadShape):
            random_density(2, 1, seed=0, rank=0)


class TestRandomUnitary:
    def test_unitarity(self):
        for dim in (2, 3, 4, 9):
            u = random_unitary(dim, seed=dim)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_unitary(4, seed=5), random_unitary(4, seed=5))
