import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from qpurify import (
    PureState,
    hermitian_eigen,
    partial_trace_ancilla,
    random_density,
    random_unitary,
    reference_cholesky,
)
from qpurify import linalg
from qpurify.errors import BadRange, NoConvergence, NotPSD, ShapeMismatch
from qpurify.rng import CounterRng


def random_hermitian(dim, seed):
    g = CounterRng(seed).complex_normal_matrix(dim, dim)
    return (g + g.conj().T) / 2.0


def reference_jacobi(matrix, max_sweeps=100):
    """Cyclic Jacobi with one numpy update per row and per column of a and of
    the eigenvectors: the arithmetic hermitian_eigen must reproduce bit for
    bit, down to the tie-breaking sort."""
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    vecs = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), vecs
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(n), vecs
    # a tiny matrix rotates scaled up to max|a| in [0.5, 1)
    shift = -math.frexp(scale)[1] if scale < sys.float_info.min / 1e-17 else 0
    a = ldexp(a, shift)
    scale = float(np.max(np.abs(a)))
    stop = 1e-15 * scale
    skip = 0.01 * stop
    for _ in range(max_sweeps):
        if float(np.max(np.abs(a - np.diag(np.diagonal(a))))) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = abs(a[p, q])
                if g <= skip:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                phase = a[p, q] / g
                tau = (app - aqq) / (2.0 * g)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = (t * c) * phase.conjugate()
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp + np.conj(s) * rq
                a[q, :] = -s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp + s * cq
                a[:, q] = -np.conj(s) * cp + c * cq
                vp, vq = vecs[:, p].copy(), vecs[:, q].copy()
                vecs[:, p] = c * vp + s * vq
                vecs[:, q] = -np.conj(s) * vp + c * vq
    else:
        if float(np.max(np.abs(a - np.diag(np.diagonal(a))))) > stop:
            raise NoConvergence("reference Jacobi did not converge")
    values = np.diagonal(a).real * 2.0**-shift
    keys = np.empty((2 * n + 1, n))
    for row, comp in enumerate(range(n - 1, -1, -1)):
        keys[2 * row] = -vecs[comp, :].imag
        keys[2 * row + 1] = -vecs[comp, :].real
    keys[2 * n] = -values
    order = np.lexsort(keys)
    return values[order], vecs[:, order]


def ldexp(matrix, exponent):
    """A complex matrix times 2**exponent, part by part."""
    out = np.empty_like(matrix)
    out.real, out.imag = np.ldexp(matrix.real, exponent), np.ldexp(matrix.imag, exponent)
    return out


def same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_matches_reference(matrix):
    got_values, got_vecs = hermitian_eigen(matrix)
    values, vecs = reference_jacobi(matrix)
    assert same_bits(got_values, values)
    assert same_bits(got_vecs, vecs)


def jacobi_cases(dim):
    """Full rank, rank one, tied eigenvalues (a rotated repeat and a diagonal
    with repeats), I/N and zero; from N = 3 on, also the edge cases of the
    rotation angles (see ``angle_cases``) and a block-diagonal matrix (see
    ``block_diagonal``)."""
    h = random_hermitian(dim, seed=dim)
    v = CounterRng(50 + dim).complex_normal_matrix(dim, 1)
    u = np.linalg.qr(CounterRng(70 + dim).complex_normal_matrix(dim, dim))[0]
    repeats = np.repeat([0.5, 0.3, 0.2], -(-dim // 3))[:dim]
    return [
        h,
        v @ v.conj().T,
        (u * repeats) @ u.conj().T,
        np.diag(repeats),
        np.eye(dim) / dim,
        np.zeros((dim, dim)),
    ] + (angle_cases(h) + [block_diagonal(dim)] if dim >= 3 else [])


def layout_cases(dim):
    """Inputs whose layout moves which operand a rotation reads strided: a
    real-symmetric matrix (every imaginary part +0.0), a column-major matrix,
    and the conjugate-transposed view of a matrix that is Hermitian only up
    to rounding."""
    g = CounterRng(80 + dim).complex_normal_matrix(dim, dim)
    u = np.linalg.qr(CounterRng(90 + dim).complex_normal_matrix(dim, dim))[0]
    rounded = (u * np.linspace(1.0, 0.1, dim)) @ u.conj().T
    return [
        ((g.real + g.real.T) / 2.0).astype(np.complex128),
        np.asfortranarray(random_hermitian(dim, seed=60 + dim)),
        rounded.conj().T,
    ]


def block_diagonal(dim):
    """Two complex Hermitian blocks, of sizes dim // 2 and the rest, with
    exact zeros between them: every rotation inside one block carries the
    zeros of the other through its strided column products."""
    k = dim // 2
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[:k, :k] = random_hermitian(k, seed=30 + dim)
    out[k:, k:] = random_hermitian(dim - k, seed=40 + dim)
    return out


def angle_cases(h):
    """Variants of the Hermitian ``h``: real symmetric; purely imaginary
    off-diagonals; off-diagonals whose real part is -0.0 (where a phase of
    a_pq * (1 / |a_pq|) would round a zero's sign apart from numpy's
    quotient); and the first pair (0, 1), rotated first, exactly at and one
    ulp above the skip bound 0.01 * 1e-15 * max|a|, with the rest still
    needing a sweep."""
    off = ~np.eye(len(h), dtype=bool)
    imaginary = np.diag(h.diagonal().real) + 1j * h.imag
    signed_zero = imaginary.copy()
    signed_zero.real[off] = -0.0
    at_skip = h.copy()
    at_skip[0, 1] = at_skip[1, 0] = 0.0
    skip = 0.01 * (1e-15 * float(np.max(np.abs(at_skip))))
    above_skip = at_skip.copy()
    at_skip[0, 1] = at_skip[1, 0] = skip
    above_skip[0, 1] = above_skip[1, 0] = np.nextafter(skip, 1.0)
    return [h.real.copy(), imaginary, signed_zero, at_skip, above_skip]


def brute_partial_trace(amplitudes, m, n):
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for a in range(m):
                out[i, j] += amplitudes[a * n + i] * np.conj(amplitudes[a * n + j])
    return out


class TestHermitianEigen:
    def test_diagonal_input(self):
        values, vecs = hermitian_eigen(np.diag([0.7, 0.3]))
        assert np.array_equal(values, [0.7, 0.3])
        assert np.array_equal(vecs, np.eye(2))

    def test_plus_projector(self):
        values, vecs = hermitian_eigen(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(values, [1.0, 0.0], atol=1e-14)
        overlap = abs(vecs[:, 0] @ np.array([1.0, 1.0]) / math.sqrt(2))
        assert abs(overlap - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_residual_and_orthonormality(self, dim):
        h = random_hermitian(dim, seed=dim)
        values, vecs = hermitian_eigen(h)
        norm = np.linalg.norm(h)
        for k in range(dim):
            residual = np.linalg.norm(h @ vecs[:, k] - values[k] * vecs[:, k])
            assert residual <= 1e-9 * max(norm, 1.0)
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10

    def test_trace_and_reconstruction(self):
        h = random_hermitian(6, seed=99)
        values, vecs = hermitian_eigen(h)
        assert abs(np.sum(values) - np.trace(h).real) <= 1e-10 * max(1.0, abs(np.trace(h)))
        rebuilt = vecs @ np.diag(values) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - h)) <= 1e-9

    def test_sorted_descending(self):
        values, _ = hermitian_eigen(random_hermitian(8, seed=5))
        assert np.all(np.diff(values) <= 0)

    def test_bit_deterministic(self):
        h = random_hermitian(5, seed=11)
        a_values, a_vecs = hermitian_eigen(h)
        b_values, b_vecs = hermitian_eigen(h)
        assert np.array_equal(a_values, b_values)
        assert np.array_equal(a_vecs, b_vecs)

    def test_degenerate_ties_resolve_deterministically(self):
        _, vecs = hermitian_eigen(np.eye(3) / 3)
        assert np.array_equal(vecs, np.eye(3))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 9, 16])
    def test_matches_reference_bit_for_bit(self, dim):
        for matrix in jacobi_cases(dim) + layout_cases(dim):
            assert_matches_reference(matrix)

    @pytest.mark.parametrize(
        "d,n,seed,rank", [(2, 6, 1000, None), (4, 3, 1001, None), (2, 6, 1002, 16), (4, 3, 1003, 16)]
    )
    def test_roundtrip_inputs_bit_for_bit(self, d, n, seed, rank):
        # the four inputs of the pinned CLI sessions, N = 64
        assert_matches_reference(random_density(d, n, seed, rank=rank).entries)

    @pytest.mark.parametrize("entries", [[(0, 1), (1, 0)], [(0, 0)]], ids=["off-diagonal", "diagonal"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_entries(self, entries, value):
        matrix = np.eye(16, dtype=np.complex128) / 16
        for i, j in entries:
            matrix[i, j] = value
        with pytest.raises(BadRange, match="non-finite"):
            hermitian_eigen(matrix)

    #: Hermitian matrices whose entries are all subnormal: 1 / |a_pq| overflows
    SUBNORMAL = [
        np.array([[0.0, -5e-324j], [5e-324j, 0.0]]),
        np.array([[1e-310, 3e-311 + 1e-311j], [3e-311 - 1e-311j, 2e-310]]),
    ]

    @pytest.mark.parametrize("case", range(len(SUBNORMAL)))
    def test_subnormal_input(self, case):
        matrix = self.SUBNORMAL[case]
        values, vecs = hermitian_eigen(matrix)
        # the closed form for 2 x 2, in a copy scaled up by 2**1074
        up = ldexp(matrix, 1074)
        mean, half = (up[0, 0].real + up[1, 1].real) / 2, (up[0, 0].real - up[1, 1].real) / 2
        radius = math.hypot(half, abs(up[0, 1]))
        want = np.ldexp([mean + radius, mean - radius], -1074)
        assert np.all(np.abs(values - want) <= 5e-324)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2))) <= 1e-15
        # each eigenvalue is rounded to a multiple of 5e-324, 1.0 once scaled up
        rebuilt = vecs @ np.diag(np.ldexp(values, 1074)) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - up)) <= 1.0 + 1e-15 * np.max(np.abs(up))

    def test_tiny_matrix_rotates_scaled_up(self):
        # below max|a| = 2.2e-291 the rotations run on the matrix scaled to
        # max|a| in [0.5, 1); the power of two leaves the eigenvectors alone
        h = random_hermitian(5, seed=21)
        exponent = math.frexp(float(np.max(np.abs(h))))[1]
        unit_values, unit_vecs = hermitian_eigen(ldexp(h, -exponent))
        for down in (966, 1000):
            tiny = ldexp(h, -exponent - down)
            assert np.array_equal(ldexp(tiny, down), ldexp(h, -exponent))  # no entry subnormal
            tiny_values, tiny_vecs = hermitian_eigen(tiny)
            assert same_bits(tiny_vecs, unit_vecs)
            assert same_bits(tiny_values, np.ldexp(unit_values, -down))

    #: sha256 of the eigenvalue and eigenvector bytes on every case above
    #: (jacobi_cases, the two N = 64 inputs, SUBNORMAL), pinned like the CLI
    #: goldens
    PINNED_DIGEST = "aea80c0e6ac16c97d3499ea3d9e70ccade6df2c256de3006784cddc2380af1a4"

    def test_returns_pinned_pair(self):
        matrices = [m for dim in (1, 2, 3, 4, 8, 9, 16) for m in jacobi_cases(dim)]
        matrices += [random_density(2, 6, 1000).entries, random_density(4, 3, 1003, rank=16).entries]
        digest = hashlib.sha256()
        for matrix in matrices + self.SUBNORMAL:
            result = hermitian_eigen(matrix)
            assert type(result) is tuple and len(result) == 2
            values, vecs = result
            assert values.dtype == np.float64 and vecs.dtype == np.complex128
            assert values.shape == (len(matrix),) and vecs.shape == (len(matrix),) * 2
            digest.update(np.ascontiguousarray(values).tobytes())
            digest.update(np.ascontiguousarray(vecs).tobytes())
        assert digest.hexdigest() == self.PINNED_DIGEST

    def test_stops_at_the_rounding_floor(self):
        # eigenvalues over 12 decades in a spread-out basis, N = 64: the largest
        # off-diagonal entry settles above 1e-15 * max|a| but below N * u * ||A||_F
        spectrum = 10.0 ** -np.linspace(0, 12, 64)
        spectrum /= spectrum.sum()
        u = random_unitary(64, 0)
        h = (u * spectrum) @ u.conj().T
        h = (h + h.conj().T) / 2.0  # as validation symmetrizes it
        values, vecs = hermitian_eigen(h)  # NoConvergence after 100 sweeps before
        assert np.max(np.abs(values - np.linalg.eigvalsh(h)[::-1])) <= 1e-14
        assert np.max(np.abs(h @ vecs - vecs * values)) <= 1e-14
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(64))) <= 1e-13

    def test_peak_memory_is_a_few_work_arrays(self):
        # the 2N x N work array (a over the eigenvectors), one sweep's N x N
        # stop-test temporaries and the closing sort's keys and lexsort
        # buffers: 3.4 work arrays at N = 128. The rotation buffers are O(N);
        # a plan of views per pair (320-400 B each) would add 5-6 more.
        n = 128
        v = CounterRng(3).complex_normal_matrix(n, 1)
        matrix = v @ v.conj().T
        hermitian_eigen(matrix[:4, :4])  # warm caches
        tracemalloc.start()
        try:
            hermitian_eigen(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work = 2 * n * n * np.dtype(np.complex128).itemsize
        assert peak <= 4 * work, peak / work

    def test_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="in 0 sweeps"):
            hermitian_eigen(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            hermitian_eigen(np.zeros((2, 3)))


class TestPartialTrace:
    def test_basis_state(self):
        state = PureState(2, 2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
        assert np.array_equal(partial_trace_ancilla(state), np.diag([1.0, 0.0]))

    def test_bell_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = math.sqrt(0.5)
        sigma = partial_trace_ancilla(PureState(2, 2, amps))
        assert np.allclose(sigma, np.eye(2) / 2)

    def test_product_state_drops_ancilla(self):
        chi = np.array([0.6, 0.8j], dtype=complex)
        anc = np.array([0.28, 0.96], dtype=complex)
        state = PureState(2, 2, np.outer(anc, chi).reshape(-1))
        assert np.allclose(partial_trace_ancilla(state), np.outer(chi, chi.conj()), atol=1e-12)

    @pytest.mark.parametrize("m,n,seed", [(2, 2, 0), (3, 3, 1), (4, 4, 2), (2, 4, 3)])
    def test_matches_brute_force(self, m, n, seed):
        raw = CounterRng(seed).complex_normal_matrix(m, n).reshape(-1)
        raw /= np.linalg.norm(raw)
        state = PureState(m, n, raw)
        sigma = partial_trace_ancilla(state)
        assert np.max(np.abs(sigma - brute_partial_trace(raw, m, n))) < 1e-12
        # exact Hermitian, unit trace, PSD by construction
        assert np.array_equal(sigma, sigma.conj().T)
        assert abs(np.trace(sigma).real - 1.0) < 1e-10
        assert hermitian_eigen(sigma)[0][-1] > -1e-12


class TestReferenceCholesky:
    def test_diagonal(self):
        d = reference_cholesky(np.diag([0.5, 0.5]))
        assert np.allclose(d, np.diag([math.sqrt(0.5)] * 2))

    def test_rank_one(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        d = reference_cholesky(rho)
        assert np.max(np.abs(d @ d.conj().T - rho)) <= 1e-12
        assert np.linalg.matrix_rank(d, tol=1e-6) == 1

    def test_upper_triangular_nonneg_diagonal(self):
        g = CounterRng(3).complex_normal_matrix(8, 8)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        d = reference_cholesky(rho)
        assert np.allclose(np.tril(d, -1), 0)
        diag = np.diagonal(d)
        assert np.all(diag.imag == 0) and np.all(diag.real >= 0)
        assert np.max(np.abs(d @ d.conj().T - rho)) <= 1e-10

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            reference_cholesky(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            reference_cholesky(np.zeros((2, 3)))

    def test_bit_deterministic(self):
        g = CounterRng(4).complex_normal_matrix(5, 5)
        rho = g @ g.conj().T
        assert np.array_equal(reference_cholesky(rho), reference_cholesky(rho))

    def test_unique_for_positive_definite(self):
        # any upper factor with positive diagonal and D D^dagger = rho must
        # match: compare against an independently scaled reconstruction
        g = CounterRng(8).complex_normal_matrix(4, 4)
        rho = g @ g.conj().T + np.eye(4)
        d = reference_cholesky(rho)
        assert np.all(np.diagonal(d).real > 0)
        rebuilt = reference_cholesky(d @ d.conj().T)
        assert np.max(np.abs(rebuilt - d)) <= 1e-10
