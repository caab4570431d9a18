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
with ``item``. The phase a_pq / |a_pq| and the sine take numpy's formulas for
the complex-by-real quotient and the full complex product, so they round as
numpy's scalars do on every Python version. The eight rotation coefficients
go into a buffer in one write, and the rotation is four vector calls into
buffers allocated once per call: a broadcast product and a sum for rows p and
q of the matrix, then for columns p and q of the matrix and the eigenvectors
(stacked as one 2N x N array). The column pair is read in place, a strided
view, where the pinned ``purify --method spectral`` outputs were rounded with
each product a scalar times a contiguous copy. numpy picks a complex-multiply
kernel by operand layout, and kernels need not round alike (its contiguous
kernel fuses multiply-adds, and Python's complex product differs from it on
about half of random operands). With numpy 2.4 on x86-64 (AVX-512), the strided
and contiguous kernels do round alike: 1.57 million broadcast products on
strided, column-major and contiguous operands gave the same bits, and the
solver matched the contiguous-copy version bit for bit on 3,248 inputs
(random, sparse, signed-zero, subnormal and 1e100 matrices, N = 2 to 64). The
bit-for-bit tests against ``reference_jacobi``, which multiplies contiguous
copies, would fail on a build where they do not.

The iteration stops at the start of a sweep when the largest off-diagonal
entry is at most 1e-15 * max|a|, or when it is at most the rounding floor
N * u * ||A||_F (u = 2**-53) and the last sweep did not lower the
off-diagonal Frobenius norm: with spread-out eigenvectors the first bound
can lie below what rounding lets a rotation reach.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import DEFAULT_TOL, PureState, ToleranceConfig, _strict_lower
from .errors import NoConvergence, NotPSD, ShapeMismatch

#: Sweep cap for the cyclic Jacobi iteration.
MAX_SWEEPS = 100


def hermitian_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a complex Hermitian matrix by cyclic
    Jacobi rotations; eigenvector k is column k.

    Deterministic for a fixed input: the sweep order is fixed (p < q
    ascending) and the final ordering sorts eigenvalues descending with
    exact ties broken by the first differing eigenvector component
    (larger real part first, then larger imaginary part).
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    # one column rotation updates a and the eigenvectors together
    w = np.concatenate([a, np.eye(n, dtype=np.complex128)])
    a, vecs = w[:n], w[n:]
    if n == 1:
        return np.array([a[0, 0].real]), vecs

    scale = float(np.abs(a).max())
    if scale == 0.0:
        return np.zeros(n), vecs
    # where the skip bound 1e-17 * scale is subnormal, 1/|a_pq| can overflow:
    # rotate a copy scaled up by a power of two, which is exact
    shift = -math.frexp(scale)[1] if scale < sys.float_info.min / 1e-17 else 0
    if shift:
        np.ldexp(a.view(np.float64), shift, out=a.view(np.float64))
        scale = float(np.abs(a).max())
    stop = 1e-15 * scale
    skip = 0.01 * stop
    # rotations keep ||A||_F, so the floor is fixed per call (inf, and unused, on overflow)
    floor = n * 2.0**-53 * math.sqrt(float(np.vdot(a, a).real))
    last = math.inf

    # rotation buffers, allocated once: coefficients (written through one
    # flat view) and the two broadcast products
    row_coef, col_coef = coef = np.empty((2, 2, 2, 1), dtype=np.complex128)
    row_prod = np.empty((2, 2, n), dtype=np.complex128)
    col_prod = np.empty((2, 2, 2 * n), dtype=np.complex128)
    flat, wt = coef.reshape(8), w.T
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
                # numpy's quotient apq / (g + 0j) by Smith's formula and its full
                # product (t * c + 0j) * conj(phase): Python's apq / g, apq * (1 / g)
                # and (from 3.14) float * complex round signed zeros differently
                inv = 1.0 / g
                phase = complex((apq.real + apq.imag * 0.0) * inv, (apq.imag - apq.real * 0.0) * inv)
                tau = (item(p, p).real - item(q, q).real) / (2.0 * g)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = complex(t * c, 0.0) * phase.conjugate()
                # a <- U† a U and vecs <- vecs U, U embedding
                # [[c, -conj(s)], [s, c]] at (p, q); the column pair is read
                # in place, strided (see module docstring)
                sc = s.conjugate()
                flat[:] = c, sc, -s, c, c, s, -sc, c
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
