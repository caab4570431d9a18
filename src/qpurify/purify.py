"""Triangular and spectral purification of density matrices.

The triangular purifier fills the coefficient matrix row by row: row alpha
owns the anti-diagonal pivot at column t = N - 1 - alpha, taken as a real
nonnegative square root, and the remaining entries of the row follow by
forward substitution against the rows already fixed. The result is the
(anti-)triangular Gram factor of rho, i.e. rho_ij = sum_alpha C[alpha][i] *
conj(C[alpha][j]), and it is unique for positive-definite rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoefficientMatrix,
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    ToleranceConfig,
)
from .errors import NotUnitary, ShapeMismatch
from .linalg import hermitian_eigen, partial_trace_ancilla


def cholesky_purify(rho: DensityMatrix, tol: ToleranceConfig | None = None) -> CoefficientMatrix:
    """Anti-triangular purification coefficients of a validated density matrix.

    Row alpha (pivot column t = N - 1 - alpha):

    1. pivot q = sqrt(max(rho_tt - sum_{beta<alpha} |C[beta][t]|^2, 0))
    2. for j < t: C[alpha][j] = (rho_jt - sum_{beta<alpha} C[beta][j] *
       conj(C[beta][t])) / q, or 0 when q <= eps_pivot (zero-branch rule)
    3. C[alpha][i] = 0 for i > t

    The factor is returned unchecked: ``verify_purification`` checks it
    against rho by partial trace.
    """
    tol = tol or DEFAULT_TOL
    r = rho.entries
    n = rho.shape.N
    c = np.zeros((n, n), dtype=np.complex128)
    for alpha in range(n):
        t = n - 1 - alpha
        col = c[:alpha, t]
        head = float(r[t, t].real - (np.abs(col) ** 2).sum())
        q = math.sqrt(max(head, 0.0))
        c[alpha, t] = q
        if t and q > tol.eps_pivot:
            c[alpha, :t] = (r[:t, t] - c[:alpha, :t].T @ col.conj()) / q
    c.flags.writeable = False  # held, not copied
    return CoefficientMatrix(n, c)


def reshuffle_purify(
    rho: DensityMatrix, tol: ToleranceConfig | None = None
) -> tuple[np.ndarray, PureState]:
    """Alternate pivoting strategy: purify in a basis sorted by diagonal size.

    Permutes the system basis so the diagonal of rho is nonincreasing,
    runs the triangular purifier there, and un-permutes the coefficient
    columns. The returned matrix purifies rho but generally breaks the
    anti-triangular pattern, so it is handed back as a read-only array
    alongside the purification state, which views it.
    """
    tol = tol or DEFAULT_TOL
    n = rho.shape.N
    diag = rho.entries.diagonal().real
    perm = np.argsort(-diag, kind="stable")
    permuted = rho.entries[perm[:, None], perm]
    permuted.flags.writeable = False  # held, not copied
    coeffs = cholesky_purify(DensityMatrix(rho.shape, permuted), tol)
    del permuted  # freed before the un-permuted copy is made
    unshuffled = np.take(coeffs.C, np.argsort(perm), axis=1)  # the inverse permutation
    unshuffled.flags.writeable = False  # held, not copied
    return unshuffled, PureState(n, n, unshuffled.reshape(-1))


def qubit_closed_form(rho: DensityMatrix, tol: ToleranceConfig | None = None) -> CoefficientMatrix:
    """Closed-form single-qubit fast path of the triangular purifier.

    C01 = sqrt(rho11), C00 = rho01 / C01, C10 = sqrt(det(rho) / rho11),
    C11 = 0; when rho11 vanishes (pure |0><0|) the ambiguity is removed by
    C00 = 0, leaving the basis state |1>|0>.
    """
    tol = tol or DEFAULT_TOL
    if rho.shape.N != 2:
        raise ShapeMismatch(f"closed form requires N=2, got N={rho.shape.N}")
    r = rho.entries
    rho00 = float(r[0, 0].real)
    rho11 = float(r[1, 1].real)
    c = np.zeros((2, 2), dtype=np.complex128)
    q = math.sqrt(max(rho11, 0.0))
    c[0, 1] = q
    if q > tol.eps_pivot:
        c[0, 0] = r[0, 1] / q
        det = rho00 * rho11 - float((r[1, 0] * r[0, 1]).real)
        c[1, 0] = math.sqrt(max(det, 0.0) / rho11)
    else:
        c[1, 0] = math.sqrt(max(rho00, 0.0))
    return CoefficientMatrix(2, c)


def spectral_purify(rho: DensityMatrix) -> PureState:
    """Eigenbasis purification: amplitudes[k*N + i] = sqrt(p_k) * v_k[i].

    Eigenvalues use the solver's deterministic descending order; negatives
    within the PSD bound are clamped to zero and the weights
    renormalized.
    """
    n = rho.shape.N
    values, vectors = hermitian_eigen(rho.entries)
    p = np.clip(values, 0.0, None)
    p = p / p.sum()
    amps = (np.sqrt(p)[:, None] * vectors.T).reshape(-1)
    return PureState(n, n, amps)


def coefficients_to_state(coeffs: CoefficientMatrix) -> PureState:
    """Flatten coefficients into the composite state sum C[alpha][i] |alpha>|i>."""
    return PureState(coeffs.N, coeffs.N, coeffs.C.reshape(-1))


@dataclass(frozen=True)
class VerificationReport:
    max_abs_error: float
    passed: bool


def verify_purification(
    state: PureState, rho: DensityMatrix, tol: ToleranceConfig | None = None
) -> VerificationReport:
    """Partial-trace round trip: does tracing out the ancilla reproduce rho?"""
    tol = tol or DEFAULT_TOL
    if state.system_dim != rho.shape.N:
        raise ShapeMismatch(
            f"state system dim {state.system_dim} vs rho dim {rho.shape.N}"
        )
    err = float(np.abs(partial_trace_ancilla(state) - rho.entries).max())
    return VerificationReport(err, err <= tol.eps_recon)


def gauge_transform(
    state: PureState, unitary, tol: ToleranceConfig | None = None
) -> PureState:
    """Apply an ancilla-only unitary (U_A tensor identity) to a purification.

    Any such transform maps one purification of rho onto another; the
    partial trace is unchanged. ``unitary`` is refused when max|U†U - I|
    exceeds ``tol.eps_norm`` or is NaN, as a non-finite entry makes it.
    """
    tol = tol or DEFAULT_TOL
    u = np.asarray(unitary, dtype=np.complex128)
    m = state.ancilla_dim
    if u.shape != (m, m):
        raise ShapeMismatch(f"expected {m}x{m} ancilla unitary, got {u.shape}")
    with np.errstate(invalid="ignore"):  # an inf entry makes inf * 0 = NaN, refused below
        defect = float(np.abs(u.conj().T @ u - np.eye(m)).max())
    eps = tol.eps_norm
    if not defect <= eps:  # NaN fails
        raise NotUnitary(f"unitarity defect {defect!r} exceeds eps_norm {eps!r}")
    rotated = u @ state.amplitudes.reshape(m, state.system_dim)
    return PureState(m, state.system_dim, rotated.reshape(-1))
