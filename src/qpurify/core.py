"""Domain types, index conventions, and density-matrix validation.

Composite ancilla+system states use one flat index convention everywhere:
the amplitude of |alpha>|i> (ancilla value alpha, system basis state i)
lives at position alpha * N + i, i.e. the ancilla register is the most
significant block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .errors import (
    BadRange,
    BadShape,
    GaugeViolation,
    NoConvergence,
    NormFailure,
    NotHermitian,
    NotPSD,
    ShapeMismatch,
    TraceDeviation,
    shown,
)

#: Largest admissible Hilbert-space dimension N = d**n.
DIM_CAP = 4096
PSD_SLACK = 4  #: the c of validate_density's PSD bound, derived there


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``. An array of that dtype
    that is read-only, as is every array it views down to the one owning the
    data, is returned as it is (nothing can write to it); anything else is
    copied and the copy frozen."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        base = values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only N x N mask of i > j, built once per N; flipped as ``[:, ::-1]``
    it marks the cells beyond the anti-diagonal (i + j > N - 1)."""
    return _frozen_array(np.tri(n, k=-1, dtype=bool), bool)


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances of validation, the purifiers and the verifier; positivity takes none."""

    eps_herm: float = 1e-10
    eps_trace: float = 1e-10
    eps_recon: float = 1e-10
    eps_norm: float = 1e-10
    eps_pivot: float = 1e-12

    def __post_init__(self):
        for entry in fields(self):
            if not getattr(self, entry.name) >= 0:
                raise BadRange(f"tolerance {entry.name} must be nonnegative")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class QuditShape:
    """Shape of an n-qudit register: local dimension d, qudit count n, N = d**n."""

    d: int
    n: int
    N: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise BadShape(f"local dimension d must be >= 2, got {shown(self.d, 'd')}")
        if self.n < 1:
            raise BadShape(f"qudit count n must be >= 1, got {shown(self.n, 'n')}")
        # d**n >= 2**n > DIM_CAP past the cap's bit length: no power
        if self.n > DIM_CAP.bit_length() or self.d > DIM_CAP:
            raise BadShape(f"N = {shown(self.d, 'd')}**{shown(self.n, 'n')} exceeds cap {DIM_CAP}")
        total = self.d ** self.n
        if total > DIM_CAP:
            raise BadShape(f"N = {self.d}**{self.n} = {total} exceeds cap {DIM_CAP}")
        object.__setattr__(self, "N", total)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated N x N density matrix (Hermitian, unit trace, PSD) with qudit shape.

    Outside input goes through :func:`validate_density`; a matrix valid by
    construction (``random_density``, ``reshuffle_purify``'s permutation) is
    built directly, as the dataclass itself only checks dimensions.
    """

    shape: QuditShape
    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries, np.complex128)
        if entries.shape != (self.shape.N, self.shape.N):
            raise ShapeMismatch(
                f"expected {self.shape.N}x{self.shape.N} entries, got {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state of ancilla (dim M) + system (dim N), flat length M*N."""

    ancilla_dim: int
    system_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.ancilla_dim < 1 or self.system_dim < 1:
            raise ShapeMismatch("register dimensions must be positive")
        amps = _frozen_array(self.amplitudes, np.complex128)
        expected = self.ancilla_dim * self.system_dim
        if amps.shape != (expected,):
            raise ShapeMismatch(
                f"expected {shown(expected, 'ancilla_dim * system_dim')} amplitudes, got {amps.shape}"
            )
        norm = math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))  # as numpy's norm
        if not abs(norm - 1.0) <= DEFAULT_TOL.eps_norm:
            raise NormFailure(f"state norm {norm!r} deviates from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """Purification coefficients C[alpha][i] in the anti-triangular gauge.

    Invariants enforced exactly at construction: C[alpha][i] == 0 for
    i > N - 1 - alpha, and each anti-diagonal entry C[alpha][N - 1 - alpha]
    is real and >= 0 (NaN fails), in every row and with no tolerance.
    """

    N: int
    C: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.C, np.complex128)
        if mat.shape != (self.N, self.N):
            raise ShapeMismatch(f"expected {self.N}x{self.N} coefficients, got {mat.shape}")
        if mat[_strict_lower(self.N)[:, ::-1]].any():
            raise GaugeViolation("entries beyond the anti-diagonal must be exactly zero")
        anti = mat[:, ::-1].diagonal()
        if (anti.imag != 0.0).any() or not (anti.real >= 0.0).all():
            raise GaugeViolation("anti-diagonal entries must be real and nonnegative")
        object.__setattr__(self, "C", mat)

    def row_weights(self) -> np.ndarray:
        """Squared row norms (the mixture weights of the purification)."""
        return (np.abs(self.C) ** 2).sum(axis=1)


def validate_density(
    matrix, shape: QuditShape, tol: ToleranceConfig | None = None
) -> DensityMatrix:
    """Check finiteness, Hermiticity, unit trace and positivity; return a DensityMatrix.

    Asymmetry within ``eps_herm`` is symmetrized away (file round-trips carry
    last-ulp noise); anything larger raises NotHermitian. NotPSD is raised when
    LAPACK's values-only solver gives lambda_min < -c*N*u*lambda_max (u = 2**-53,
    c = PSD_SLACK): a backward-stable solver moves each eigenvalue of a PSD rho by
    at most p(N)*u*||rho||_2 = p(N)*u*lambda_max (Weyl; Higham 2002). Rank-deficient
    draws reach |lambda_min| = 1.5*N*u*lambda_max (N = 2), so c = 4 has 2.6x margin.
    """
    tol = tol or DEFAULT_TOL
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.shape != (shape.N, shape.N):
        raise ShapeMismatch(f"expected {shape.N}x{shape.N} matrix, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadRange("matrix has non-finite entries")
    adjoint = arr.conj().T
    with np.errstate(over="ignore", invalid="ignore"):  # entries past about 8.99e307
        asym = float(np.abs(arr - adjoint).max())
        if asym > tol.eps_herm:
            raise NotHermitian(f"asymmetry {asym!r} exceeds tolerance {tol.eps_herm!r}")
        sym = arr + adjoint
        sym /= 2.0
    if not np.isfinite(sym).all():
        raise BadRange("matrix entries overflow its Hermitian part")
    trace = float(sym.trace().real)
    if abs(trace - 1.0) > tol.eps_trace:
        raise TraceDeviation(f"trace {trace!r} deviates from 1 beyond {tol.eps_trace!r}")
    try:
        values = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigenvalue solver failed: {exc}") from exc
    smallest, bound = float(values[0]), PSD_SLACK * shape.N * 2.0**-53 * float(values[-1])
    if smallest < -bound:
        raise NotPSD(f"smallest eigenvalue {smallest!r} below -{bound!r}")
    sym.flags.writeable = False  # held as it is, not copied
    return DensityMatrix(shape, sym)
