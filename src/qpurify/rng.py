"""Deterministic random-state generation on a counter-based generator.

Golden test fixtures must reproduce bit-for-bit across platforms and
library versions, so randomness comes from an in-repo SplitMix64 stream
rather than a library generator whose bit stream may change:

* word i is w_i = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15), where mix64
  is the SplitMix64 finalizer (xor-shift 30 / multiply 0xBF58476D1CE4E5B9 /
  xor-shift 27 / multiply 0x94D049BB133111EB / xor-shift 31), all mod 2^64.
* uniforms take the top 53 bits: u_i = ((w_i >> 11) + 1) * 2^-53 in (0, 1].
* normal pairs come from the Box-Muller transform of consecutive uniforms.
* a complex Ginibre matrix is filled row-major, one normal pair (real,
  imaginary) per entry; the density matrix is G G^dagger / Tr(G G^dagger),
  valid by construction and so returned unvalidated.

Words are mixed only in :func:`_uniforms`, Box-Muller runs only in
:meth:`CounterRng.complex_normal_matrix`, and everything downstream of the
integer stream is plain IEEE-754 double arithmetic, so same seed means the
same matrix everywhere up to libm rounding of log/cos/sin. Box-Muller takes
``log`` per entry through ``math``, because numpy's SIMD log rounds
differently; ``cos`` and ``sin`` are one numpy call per block, since numpy's
float64 cos and sin call the same platform libm as ``math`` does.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors
from .core import DensityMatrix, QuditShape
from .errors import BadShape, shown

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """The uniforms u_(c-1) of the stream for ``seed``, for each uint64 counter c.

    numpy's uint64 arithmetic wraps mod 2^64, which is exactly the mixing
    arithmetic of the stream.
    """
    x = np.uint64(seed) + counters * np.uint64(_GAMMA)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return ((x >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TO_UNIT


class CounterRng:
    """Stateful cursor over the counter stream of one seed."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._index = 0

    def uniform(self) -> float:
        """Uniform double in (0, 1] (never 0, safe under log)."""
        self._index += 1
        return float(_uniforms(self._seed, np.array([self._index], dtype=np.uint64))[0])

    def complex_normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major fill, one Box-Muller normal pair (real, imaginary) of
        the next two uniforms per entry.

        The integer stream is mixed in numpy a block of whole rows, about
        ``errors.BLOCK_ROWS`` entries, at a time. Box-Muller keeps ``math``'s
        log, one call per entry, as numpy's SIMD log rounds differently; its
        cos and sin are one numpy call each over the block's angles (both
        call the platform libm), and its square root and products, which
        IEEE 754 rounds exactly, run on the block's arrays.
        """
        out = np.empty((rows, cols), dtype=np.complex128)
        per_block = max(1, errors.BLOCK_ROWS // max(cols, 1))
        steps = np.arange(1, 2 * per_block * cols + 1, dtype=np.uint64)
        for top in range(0, rows, per_block):
            block = out[top : top + per_block].reshape(-1)
            size = block.size
            uniforms = _uniforms(self._seed, self._index + steps[: 2 * size])
            self._index += 2 * size
            radii = np.sqrt(-2.0 * np.fromiter(map(math.log, uniforms[0::2].tolist()), float, size))
            angles = 2.0 * math.pi * uniforms[1::2]
            np.multiply(radii, np.cos(angles), out=block.real)
            np.multiply(radii, np.sin(angles), out=block.imag)
        return out


def random_density(d: int, n: int, seed: int, rank: int | None = None) -> DensityMatrix:
    """Seeded Ginibre-ensemble density matrix: G G^dagger normalized to unit trace.

    ``rank`` limits G to N x rank columns (rank 1 gives a pure state);
    None draws the full square matrix. The averaged Gram matrix is a density
    matrix by construction: :func:`validate_density` would return it bit for bit.
    """
    shape = QuditShape(d, n)
    columns = shape.N if rank is None else rank
    if not 1 <= columns <= shape.N:
        raise BadShape(f"rank must lie in [1, {shape.N}], got {shown(rank, 'rank')}")
    g = CounterRng(seed).complex_normal_matrix(shape.N, columns)
    gram = g @ g.conj().T
    del g
    np.add(gram, gram.conj().T, out=gram)  # conj() copies, so out= does not alias
    gram /= 2.0
    gram /= float(np.trace(gram).real)
    gram.flags.writeable = False  # held, not copied
    return DensityMatrix(shape, gram)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Ginibre draw, R-diagonal phases fixed."""
    g = CounterRng(seed).complex_normal_matrix(dim, dim)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
