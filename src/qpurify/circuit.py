"""Circuit parameterization of a purification and its simulator.

A coefficient matrix factors into N^2 - 1 real parameters, held as arrays
(:class:`CircuitParameters`):

* ``weight_angles``, N - 1 of them. A chain of rotations on the ancilla
  register turns |0> into sum_k sqrt(w_k) |k>, where w_k is the squared
  norm of coefficient row k. The first angle peels off w_{N-1}, the next
  w_{N-2} within the remaining mass, and so on.
* ``angles`` and ``phases``, N x (N - 1) each. Row k is branch k (a
  normalized coefficient row, a pure state on the first m = N - k basis
  states): its m - 1 angles and m - 1 phases, left-aligned, and zeros after.
  Rotations peel amplitudes from the last (real, nonnegative by the gauge)
  down to the first; each stripped amplitude's argument becomes a phase.

Extraction, the gate schedule and the product formulas work on these arrays
whole, with no per-branch record. Simulation offers two modes that must
agree: the direct product formulas (``math`` trig), and a gate schedule of
two-level rotations and phase shifts applied to |0...0> (numpy trig). The
parameters fix the schedule: one gate per parameter, in an order that
depends on N only, so a schedule is its :class:`CircuitParameters`. Each
reader takes the values in its own order: extraction writes a step's angles
into their column, and apply takes its trig once, in step order. Only
:meth:`CircuitParameters.gate_rows` lists them in table order, one tuple at
a time: for the full parse's schedule check, beside each record as it is
read (and for :func:`~qpurify.io.dump_circuit`, given a schedule that is not
its parameters), and for :attr:`CircuitParameters.gates`, which the gate
counter of ``bench/tracing.py`` reads. The file writer renders the schedule
block from the parameters' number tokens and lists no gate.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    CoefficientMatrix,
    DEFAULT_TOL,
    PureState,
    ToleranceConfig,
    _frozen_array,
    _strict_lower,
)
from .errors import BadRange, DegenerateBranch, ShapeMismatch, shown

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0

#: Leftover amplitude above this scale when a branch cosine underflows
#: raises DegenerateBranch. Rows are normalized first, so valid input reaches
#: it too: a coherence of about 5e-9 in a nearly diagonal rho (ROADMAP item 3).
_LEFTOVER_LIMIT = 1e-8

#: Rows per band of an extraction step's scaling (unbanded: same bytes, 1.3-1.5x slower, N = 256-1024).
_BAND = 64


def _check_angles(angles: np.ndarray, label: str) -> None:
    if angles.size and not (angles.min() >= 0.0 and angles.max() <= HALF_PI):
        raise BadRange(f"{label} must lie in [0, pi/2]")


def _branch_cells(n: int) -> np.ndarray:
    """N x (N - 1) mask of the cells that hold branch values: the first
    N - 1 - k of row k. Row-major order is branch by branch. Read-only: a
    view of the strict lower triangle, flipped upside down."""
    return _strict_lower(n)[::-1, : n - 1]


@dataclass(frozen=True, eq=False)
class CircuitParameters:
    """Weight angles plus branch angles and phases; N^2 - 1 reals.

    ``angles`` and ``phases`` are read-only N x (N - 1) arrays. Row k holds
    branch k's N - 1 - k values left-aligned; the rest of the row is
    padding, which must be zero.
    """

    N: int
    weight_angles: np.ndarray
    angles: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        n = self.N
        weights = _frozen_array(self.weight_angles, np.float64)
        if weights.shape != (n - 1,):
            raise ShapeMismatch(f"expected {n - 1} weight angles, got {weights.shape}")
        _check_angles(weights, "weight angles")
        angles = _frozen_array(self.angles, np.float64)
        phases = _frozen_array(self.phases, np.float64)
        if angles.shape != (n, n - 1) or phases.shape != (n, n - 1):
            raise ShapeMismatch(
                f"expected {n}x{n - 1} branch angles and phases, "
                f"got {angles.shape} and {phases.shape}"
            )
        _check_angles(angles, "branch angles")
        if phases.size and not (phases.min() >= 0.0 and phases.max() < TWO_PI):
            raise BadRange("phases must lie in [0, 2*pi)")
        spill = ~_branch_cells(n) & ((angles != 0.0) | (phases != 0.0))
        if spill.any():
            k = int(np.argmax(spill.any(axis=1)))
            raise ShapeMismatch(f"branch {k} has values beyond its {n - 1 - k} angles and phases")
        object.__setattr__(self, "weight_angles", weights)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def from_branches(cls, n: int, weight_angles, branches) -> CircuitParameters:
        """Parameters from one ``(dim, angles, phases)`` triple per branch, in
        ancilla order, as a circuit file lists them, each branch's shape and
        dimension checked as it comes; the count is checked at the end."""
        angles, phases = np.zeros((n, n - 1)), np.zeros((n, n - 1))
        k = 0  # branches seen
        for dim, a, p in branches:
            a = np.asarray(a, dtype=np.float64)
            p = np.asarray(p, dtype=np.float64)
            expected = max(dim - 1, 0)
            if a.shape != (expected,) or p.shape != (expected,):
                raise ShapeMismatch(
                    f"branch of dimension {shown(dim, 'dim')} needs "
                    f"{shown(expected, 'dim - 1')} angles and phases"
                )
            if k < n:  # a branch past branch N - 1 is only counted
                if dim != n - k:
                    raise ShapeMismatch(f"branch {k} must have dimension {n - k}")
                angles[k, : a.size] = a  # branch k's values, left-aligned in row k
                phases[k, : p.size] = p
            k += 1
        if k != n:
            raise ShapeMismatch(f"expected {n} branches, got {k}")
        angles.flags.writeable = phases.flags.writeable = False  # held, not copied
        return cls(n, weight_angles, angles, phases)

    @property
    def parameter_count(self) -> int:
        return int(self.weight_angles.size + 2 * np.count_nonzero(_branch_cells(self.N)))

    def gate_rows(self) -> Iterator[tuple[bool, int, int, int, float]]:
        """The gates these parameters fix, as ``(phase, control, a, b, value)``
        tuples in table order: the weight chain on lines (0, t), t descending,
        then for each branch k its rotations r on lines (0, N - 1 - k - r),
        then its phases r on line r. ``phase`` False is a rotation
        [[cos, -sin], [sin, cos]] by ``value`` on lines ``a < b``; True is a
        phase shift diag(1, e^{-i phi}) on line ``a`` (``b`` is 0) that holds
        -phi: the line picks up e^{-i value} = e^{i phi}, which keeps each
        branch's last amplitude real. ``control`` -1 acts on the ancilla
        register, k on the system register inside ancilla block k.
        """
        n = self.N
        weights = self.weight_angles.tolist()
        yield from ((False, -1, 0, n - 1 - r, weights[r]) for r in range(n - 1))
        for k in range(n):  # one branch's floats at a time: the rows are never all held
            m = n - 1 - k
            angles, phases = self.angles[k, :m].tolist(), self.phases[k, :m].tolist()
            yield from ((False, k, 0, m - r, angles[r]) for r in range(m))
            yield from ((True, k, r, 0, -phases[r]) for r in range(m))

    @property
    def gates(self) -> list[tuple[bool, int, int, int, float]]:
        """The rows of :meth:`gate_rows`, as a list built on each access."""
        return list(self.gate_rows())


def _extract_weight_angles(weights: np.ndarray) -> np.ndarray:
    n = weights.size
    cumulative = weights.cumsum().tolist()
    weights = weights.tolist()
    angles = np.zeros(n - 1)
    for step in range(1, n):
        k = n - step
        remaining = cumulative[k]
        if remaining > 0.0:
            ratio = min(weights[k] / remaining, 1.0)
            angles[step - 1] = math.asin(math.sqrt(ratio))
    return angles


def extract_parameters(
    coeffs: CoefficientMatrix, tol: ToleranceConfig | None = None
) -> CircuitParameters:
    """Invert a coefficient matrix into weight angles, branch angles, phases.

    All branches peel together in one N x N work matrix. Row k holds
    coefficient row k, normalized, in columns k..N-1, so at step s the
    branches that peel column N - s are exactly rows 0..N-s-1, and one
    scaling updates them all. A row whose weight does not exceed
    ``eps_pivot`` stays zero (its content is arbitrary; zero keeps the
    result deterministic). Angles, cosines and phases come from scalar
    ``math``/``cmath`` (numpy's ``arcsin``, ``abs`` and ``angle`` round
    differently).

    Each step divides by the branch cosines c as numpy's complex quotient by
    c + 0j does, ((re + im*0) * (1/c), (im - re*0) * (1/c)): a sign step
    (the quotient by 1), then a scaling by 1/c. The sign step changes only
    signed zeros, commutes with the scaling and settles after two
    applications: (-0, -0) -> (-0, +0) -> (+0, +0). The row normalization is
    one quotient, so one more sign step on every column a step divides (all
    but the last) lets each step multiply the float view by 1/c in place,
    with the same bits. It is not a no-op: without it an amplitude that
    enters as (-0, -0) keeps phase pi where the quotients give 0.

    Stop rule: when a branch's cosine falls to ``eps_pivot`` or below, the
    amplitudes it has left to peel are zeroed, or DegenerateBranch is
    raised if any exceeds ``_LEFTOVER_LIMIT``. A zero row peels as
    asin(0) = 0 with phase 0, so zero-weight and stopped branches get zero
    angles and phases from the same arithmetic as the others.
    """
    tol = tol or DEFAULT_TOL
    n = coeffs.N
    weights = coeffs.row_weights()
    weight_angles = _extract_weight_angles(weights)
    weighted = weights > tol.eps_pivot
    work = np.zeros((n, n), dtype=np.complex128)
    for k in np.flatnonzero(weighted).tolist():
        work[k, k:] = coeffs.C[k, : n - k]
    work /= np.sqrt(np.where(weighted, weights, 1.0))[:, None]
    work[:, : n - 1] /= 1.0  # the sign step
    flat = work.view(np.float64)  # re, im of column j in columns 2j, 2j + 1
    angles = np.zeros((n, n - 1))
    for step in range(1, n):
        col = n - step  # branches 0..col-1 peel this column
        sines = [1.0 if x > 1.0 else x for x in map(abs, work[:col, col].tolist())]
        theta = list(map(math.asin, sines))
        cos = list(map(math.cos, theta))
        angles[:col, step - 1] = theta  # angle step - 1 of branches 0..col-1
        if min(cos) <= tol.eps_pivot:
            for i, c in enumerate(cos):
                if c <= tol.eps_pivot:
                    if float(np.abs(work[i, :col]).max()) > _LEFTOVER_LIMIT:
                        raise DegenerateBranch(
                            "branch cosine underflowed with nonzero amplitudes remaining"
                        )
                    work[i, :col] = 0.0  # the branch stops: what is left peels as zeros
                    cos[i] = 1.0
        scale = 1.0 / np.array(cos)
        # row i is +0 left of column i: scale the upper triangle, a band of rows at a time
        for top in range(0, col, _BAND):
            rows = slice(top, min(top + _BAND, col))
            flat[rows, 2 * top : 2 * col] *= scale[rows, None]
    # phase j of branch k is that of work[k, k + j]: row-major, the upper
    # triangle of the first N - 1 columns (i <= j, or j + 1 > i) lists them
    # branch by branch
    values = work[:, : n - 1][_strict_lower(n).T[:, 1:]]
    phases = np.mod(list(map(cmath.phase, values.tolist())), TWO_PI)
    phases[phases >= TWO_PI] = 0.0
    branch_phases = np.zeros((n, n - 1))
    branch_phases[_branch_cells(n)] = phases
    angles.flags.writeable = branch_phases.flags.writeable = False  # held, not copied
    return CircuitParameters(n, weight_angles, angles, branch_phases)


def _chain(angles: list[float]) -> list[float]:
    """Amplitudes a chain of rotations prepares from |0> (the weight chain, or
    one branch before its phases): angle t peels amplitude m - 1 - t with
    the product of the cosines before it; amplitude 0 keeps the whole
    product."""
    prefix = list(accumulate(map(math.cos, angles), operator.mul, initial=1.0))
    peeled = list(map(operator.mul, prefix, map(math.sin, angles)))
    return [prefix[-1], *reversed(peeled)]


def simulate_circuit(params: CircuitParameters, mode: str = "product") -> PureState:
    """Purification state prepared by the parameterized circuit.

    ``mode="product"`` evaluates the closed-form products directly:
    amplitude[k*N + i] = (weight chain factor k) * (branch-k amplitude i),
    with ``math`` trig and sequential prefix products, and phase j of
    branch k on its amplitude j. ``mode="gates"`` applies the parameters'
    gate schedule to |0...0>. Both agree to within a few ulp.
    """
    if mode == "gates":
        return apply_schedule(params)
    if mode != "product":
        raise BadRange(f"unknown simulation mode {mode!r}")
    n = params.N
    amp = np.zeros((n, n), dtype=np.complex128)
    magnitudes = amp.real
    for k, angles in enumerate(params.angles):  # branch k has N - 1 - k angles
        magnitudes[k, : n - k] = _chain(angles[: n - 1 - k].tolist())
    cells = _branch_cells(n)
    phases = params.phases[cells].tolist()
    factor = np.empty(len(phases), dtype=np.complex128)  # e^{i phi}, as cmath.exp rounds it
    factor.real = np.fromiter(map(math.cos, phases), np.float64, len(phases))
    factor.imag = np.fromiter(map(math.sin, phases), np.float64, len(phases))
    phased = amp[:, : n - 1]  # phase j of branch k multiplies its amplitude j
    phased[cells] *= factor
    amp *= np.array(_chain(params.weight_angles.tolist()))[:, None]
    amp.flags.writeable = False  # held, not copied
    return PureState(n, n, amp.reshape(-1))


def schedule_from_parameters(params: CircuitParameters) -> CircuitParameters:
    """Gate realization: ancilla weight chain, then per-branch controlled gates.

    Each chain is a column-preparation sequence of rotations on subspace
    pairs (0, t) with t descending; branch k adds its rotations, then its
    phases, all controlled on ancilla value k. One gate per parameter,
    N^2 - 1 in total. The order depends on N only, so the schedule is
    ``params`` itself.
    """
    return params


def apply_schedule(params: CircuitParameters) -> PureState:
    """Apply the parameters' gates to |0...0> and return the resulting state.

    Gates controlled on different ancilla values act on disjoint lines, so
    they commute, and the fixed gate order runs in 2N - 1 vector steps:

    1. the N - 1 weight-chain rotations, rotation j on whole blocks 0 and
       N - 1 - j of N lines;
    2. for r = 0 .. N - 2, rotation r of every branch k < N - 1 - r, on
       lines (k, 0) and (k, N - 1 - k - r);
    3. every phase, in one multiply.

    Every line still sees its gates in table order. The trig is taken once
    over one value column in step order: the weight angles, then column r of
    ``angles`` (rotation r of branches 0 .. N - 2 - r) for each r, then the
    negated phases branch by branch, so each step reads a slice of it.
    """
    n = params.N
    cells = _branch_cells(n)
    value = np.concatenate([params.weight_angles, params.angles.T[cells.T], -params.phases[cells]])
    # complex with +0 imaginary parts, as numpy promotes a float operand, so
    # no step has to cast: float columns give the same bytes 13-19 % slower
    cos = np.zeros(value.size, dtype=np.complex128)
    sin = np.zeros(value.size, dtype=np.complex128)
    np.cos(value, out=cos.real)
    np.sin(value, out=sin.real)
    del value  # freed before the state is allocated
    # (lines a, lines b, rotation count): one weight rotation per step, then
    # rotation r of m = N - 1 - r branches, the next m values of the column
    blocks = range(n - 1, 0, -1)
    steps = [(slice(0, n), slice(b * n, b * n + n), 1) for b in blocks]
    # line (k, N - 1 - k - r) is m + k(N - 1)
    steps += [(slice(0, m * n, n), slice(m, m * n, n - 1), m) for m in blocks]
    vec = np.zeros(n * n, dtype=np.complex128)
    vec[0] = 1.0
    at = 0
    for ia, ib, m in steps:
        xa, xb = vec[ia], vec[ib]
        c, s = cos[at : at + m], sin[at : at + m]
        at += m
        # both results before either write: the slices are views
        new_a, new_b = c * xa - s * xb, s * xa + c * xb
        vec[ia], vec[ib] = new_a, new_b
    # phase r of branch k is on line (k, r), after its N - 1 - k rotations
    factor = cos[at:]  # in place: no step reads cos again
    np.negative(sin.real[at:], out=factor.imag)  # e^{-i value}, as cmath.exp rounds it
    vec.reshape(n, n)[:, : n - 1][cells] *= factor
    vec.flags.writeable = False  # held, not copied
    return PureState(n, n, vec)
