"""Self-contained complex dense linear algebra.

The Hermitian eigensolver and the reference Cholesky elimination are written
out in full (no LAPACK-backed ``eigh``/``cholesky``) so the numeric streams
are deterministic and the Cholesky oracle stays an independent check on the
purifier rather than a relabelling of it. The cyclic Jacobi solver serves
only spectral purification and the test oracle, and returns its eigenpairs
as a plain ``(eigenvalues, eigenvectors)`` pair; density-matrix validation
needs just a threshold decision on the smallest eigenvalue and takes it
from LAPACK (``numpy.linalg.eigvalsh``) instead.

Each Jacobi rotation works out its angles in Python floats from entries read
with ``item``, with no complex scalar built: the phase a_pq / |a_pq| term by
term as numpy's complex-by-real quotient rounds it, and the sine
s = (t * c + 0j) * conj(phase) term by term as CPython's complex product
rounds it, signed zeros included. The eight rotation coefficients go into a
buffer as sixteen floats in one ``struct`` pack, and the rotation is four
vector calls into buffers allocated once per call: a broadcast product and a
sum for rows p and q of the matrix, then for columns p and q of the matrix
and the eigenvectors. Matrix and eigenvectors are stacked as one 2N x N
column-major array, so each column of the pair is one contiguous run of 2N
entries, and the row pair is read in place at a stride of 2N entries. The
pinned ``purify --method spectral`` outputs were rounded with each product a
scalar times a contiguous copy. numpy picks a complex-multiply kernel by
operand layout, and kernels need not round alike (its contiguous kernel fuses
multiply-adds, and Python's complex product differs from it on about half of
random operands). With numpy 2.4 on x86-64 (AVX-512), the strided and
contiguous kernels do round alike: 2.37 million broadcast products and sums
on row pairs of a column-major array, column pairs of a row-major one and
contiguous copies gave the same bits; the row-major solver matched the
contiguous-copy version bit for bit on 3,248 inputs (random, sparse,
signed-zero, subnormal and 1e100 matrices, N = 2 to 64), and this one matched
the row-major solver on 622 (the same kinds, real-symmetric, column-major and
transposed inputs, N = 2 to 64). The bit-for-bit tests against
``reference_jacobi``, which multiplies contiguous copies, would fail on a
build where they do not.

The iteration stops at the start of a sweep when the largest off-diagonal
entry is at most 1e-15 * max|a|, or when it is at most the rounding floor
N * u * ||A||_F (u = 2**-53) and the last sweep did not lower the
off-diagonal Frobenius norm: with spread-out eigenvectors the first bound
can lie below what rounding lets a rotation reach.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from .core import DEFAULT_TOL, PureState, ToleranceConfig, _strict_lower
from .errors import BadRange, NoConvergence, NotPSD, ShapeMismatch

#: Sweep cap for the cyclic Jacobi iteration.
MAX_SWEEPS = 100


def hermitian_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a complex Hermitian matrix by cyclic
    Jacobi rotations; eigenvector k is column k. A matrix with an inf or NaN
    entry raises BadRange.

    Deterministic for a fixed input: the sweep order is fixed (p < q
    ascending) and the final ordering sorts eigenvalues descending with
    exact ties broken by the first differing eigenvector component
    (larger real part first, then larger imaginary part).
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        raise BadRange("matrix has non-finite entries")
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=np.complex128)
    if scale == 0.0:
        return np.zeros(n), np.eye(n, dtype=np.complex128)

    # one column rotation updates a and the eigenvectors together: a stacked
    # over them, column-major, so that each column is contiguous
    w = np.zeros((2 * n, n), dtype=np.complex128, order="F")
    w[:n] = a
    a, vecs = w[:n], w[n:]
    np.fill_diagonal(vecs, 1.0)
    # where the skip bound 1e-17 * scale is subnormal, 1/|a_pq| can overflow:
    # rotate a copy scaled up by a power of two, which is exact
    shift = -math.frexp(scale)[1] if scale < sys.float_info.min / 1e-17 else 0
    if shift:
        for part in (a.real, a.imag):
            np.ldexp(part, shift, out=part)
        scale = float(np.abs(a).max())
    stop = 1e-15 * scale
    skip = 0.01 * stop
    # rotations keep ||A||_F, so the floor is fixed per call (inf, and unused, on overflow)
    floor = n * 2.0**-53 * math.sqrt(float(np.vdot(a, a).real))
    last = math.inf

    # rotation buffers, allocated once: the coefficients (written as 16
    # floats in one pack) and the two broadcast products
    row_coef, col_coef = coef = np.empty((2, 2, 2, 1), dtype=np.complex128)
    row_prod = np.empty((2, 2, n), dtype=np.complex128)
    col_prod = np.empty((2, 2, 2 * n), dtype=np.complex128)
    pack, wt = struct.Struct("16d").pack_into, w.T
    (rp0, rp1), (cp0, cp1) = row_prod.transpose(1, 0, 2), col_prod.transpose(1, 0, 2)
    multiply, add, item, sqrt = np.multiply, np.add, a.item, math.sqrt

    for sweep in range(MAX_SWEEPS + 1):
        off = a - np.diag(np.diagonal(a))
        largest, off_sq = float(np.abs(off).max()), float(np.vdot(off, off).real)
        if largest <= stop or (largest <= floor < math.inf and off_sq >= last):
            break
        last = off_sq
        if sweep == MAX_SWEEPS:
            raise NoConvergence(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = item(p, q)
                g = abs(apq)
                if g <= skip:
                    continue
                # the phase u = apq / (g + 0j) by numpy's Smith quotient, in floats
                re, im, inv = apq.real, apq.imag, 1.0 / g
                ur, ui = (re + im * 0.0) * inv, (im - re * 0.0) * inv
                tau = (item(p, p).real - item(q, q).real) / (2.0 * g)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                # s = (t * c + 0j) * conj(u) by CPython's complex product
                x = t * c
                sr, si = x * ur - 0.0 * -ui, x * -ui + 0.0 * ur
                # a <- U† a U and vecs <- vecs U, U embedding
                # [[c, -conj(s)], [s, c]] at (p, q): coefficients
                # c, conj(s), -s, c for the rows and c, s, -conj(s), c for the
                # columns; the row pair is read in place, strided (see module
                # docstring)
                pack(coef, 0, c, 0.0, sr, -si, -sr, -si, c, 0.0, c, 0.0, sr, si, -sr, si, c, 0.0)
                rows = a[p : q + 1 : q - p]
                multiply(row_coef, rows, row_prod)
                add(rp0, rp1, rows)
                cols = wt[p : q + 1 : q - p]
                multiply(col_coef, cols, col_prod)
                add(cp0, cp1, cols)

    values = np.ldexp(np.diagonal(a).real, -shift)
    # lexsort keys, last row is primary: eigenvalue descending, then the
    # eigenvector components (real before imaginary) descending
    keys = np.empty((2 * n + 1, n))
    keys[0 : 2 * n : 2] = -vecs[::-1].imag
    keys[1 : 2 * n : 2] = -vecs[::-1].real
    keys[2 * n] = -values
    order = np.lexsort(keys)
    return values[order], vecs[:, order]


def partial_trace_ancilla(state: PureState) -> np.ndarray:
    """Reduced system matrix sigma_ij = sum_alpha a[alpha,i] * conj(a[alpha,j]).

    The result is Hermitian by construction (upper triangle mirrored, real
    diagonal) and PSD because it is a Gram matrix.
    """
    m, n = state.ancilla_dim, state.system_dim
    a = state.amplitudes.reshape(m, n)
    sigma = a.T @ a.conj()
    np.copyto(sigma, sigma.T.conj(), where=_strict_lower(n))
    sigma.ravel()[:: n + 1].imag = 0.0
    return sigma


def reference_cholesky(matrix, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Upper-triangular D with nonnegative real diagonal and D @ D† = matrix.

    Textbook column-by-column elimination run from the bottom-right corner
    (the unique orientation for which an upper-triangular right factor
    exists). When a pivot falls below ``eps_pivot`` the rest of its column
    is zeroed and elimination continues, mirroring the purifier's
    zero-branch rule; a pivot below ``-eps_pivot`` means the input was not
    PSD.
    """
    tol = tol or DEFAULT_TOL
    rho = np.asarray(matrix, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {rho.shape}")
    n = rho.shape[0]
    d = np.zeros((n, n), dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        rest = d[k, k + 1 :]
        head = float(rho[k, k].real - (np.abs(rest) ** 2).sum())
        if head < -tol.eps_pivot:
            raise NotPSD(f"pivot {head!r} at index {k} below -{tol.eps_pivot!r}")
        pivot = math.sqrt(max(head, 0.0))
        d[k, k] = pivot
        if k and pivot > tol.eps_pivot:
            d[:k, k] = (rho[:k, k] - d[:k, k + 1 :] @ rest.conj()) / pivot
    return d
