"""Circuit parameterization of a purification and its simulator.

A coefficient matrix factors into N^2 - 1 real parameters:

* N - 1 weight angles. A chain of rotations on the ancilla register turns
  |0> into sum_k sqrt(w_k) |k>, where w_k is the squared norm of
  coefficient row k. The first angle peels off w_{N-1}, the next w_{N-2}
  within the remaining mass, and so on.
* Per branch k (a normalized coefficient row, a pure state on the first
  m = N - k basis states), m - 1 angles and m - 1 phases. Rotations peel
  amplitudes from the last (real, nonnegative by the gauge) down to the
  first; each stripped amplitude's argument becomes a phase.

Simulation offers two modes that must agree: the direct product formulas,
and a gate schedule of two-level rotations and phase shifts applied to
|0...0>. The schedule is one structured array (:data:`GATE`), one row per
gate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoefficientMatrix,
    DEFAULT_TOL,
    PureState,
    ToleranceConfig,
    _frozen_array,
)
from .errors import BadRange, DegenerateBranch, OutOfRange, ShapeMismatch

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0

#: Leftover amplitude above this scale when a branch cosine underflows
#: signals a malformed (non-unit or off-pattern) coefficient row.
_LEFTOVER_LIMIT = 1e-8


def _check_angles(angles: np.ndarray, label: str) -> None:
    if angles.size and not (np.min(angles) >= 0.0 and np.max(angles) <= HALF_PI):
        raise BadRange(f"{label} must lie in [0, pi/2]")


@dataclass(frozen=True, eq=False)
class BranchParameters:
    """Angles and phases preparing one branch state of dimension ``dim``."""

    dim: int
    angles: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        angles = _frozen_array(self.angles, np.float64)
        phases = _frozen_array(self.phases, np.float64)
        expected = max(self.dim - 1, 0)
        if angles.shape != (expected,) or phases.shape != (expected,):
            raise ShapeMismatch(
                f"branch of dimension {self.dim} needs {expected} angles and phases"
            )
        _check_angles(angles, "branch angles")
        if phases.size and not (np.min(phases) >= 0.0 and np.max(phases) < TWO_PI):
            raise BadRange("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True, eq=False)
class CircuitParameters:
    """Weight angles plus one branch record per ancilla value; N^2 - 1 reals."""

    N: int
    weight_angles: np.ndarray
    branches: tuple[BranchParameters, ...]

    def __post_init__(self):
        weights = _frozen_array(self.weight_angles, np.float64)
        if weights.shape != (self.N - 1,):
            raise ShapeMismatch(f"expected {self.N - 1} weight angles, got {weights.shape}")
        _check_angles(weights, "weight angles")
        branches = tuple(self.branches)
        if len(branches) != self.N:
            raise ShapeMismatch(f"expected {self.N} branches, got {len(branches)}")
        for k, branch in enumerate(branches):
            if branch.dim != self.N - k:
                raise ShapeMismatch(f"branch {k} must have dimension {self.N - k}")
        object.__setattr__(self, "weight_angles", weights)
        object.__setattr__(self, "branches", branches)

    @property
    def parameter_count(self) -> int:
        return int(self.weight_angles.size) + sum(
            b.angles.size + b.phases.size for b in self.branches
        )


#: One row per gate of a :class:`GateSchedule`.
#:
#: * ``phase`` False: two-level rotation [[cos, -sin], [sin, cos]] on basis
#:   lines ``a < b``.
#: * ``phase`` True: phase shift on basis line ``a`` (``b`` unused, 0),
#:   stored with the sign convention diag(1, e^{-i phi}): ``value`` holds
#:   -phi and the line picks up e^{-i value} = e^{i phi}, which keeps each
#:   branch's last amplitude real.
#: * ``control`` -1: the gate acts on the ancilla register. Otherwise it acts
#:   on the system register inside the block where the ancilla equals
#:   ``control``.
GATE = np.dtype(
    [
        ("phase", np.bool_),
        ("control", np.int64),
        ("a", np.int64),
        ("b", np.int64),
        ("value", np.float64),
    ]
)


def _first(bad: np.ndarray, *columns: np.ndarray) -> tuple:
    """The entries of ``columns`` at the first row flagged in ``bad``."""
    k = int(np.argmax(bad))
    return tuple(int(column[k]) for column in columns)


@dataclass(frozen=True, eq=False)
class GateSchedule:
    """Ordered gates whose application to |0...0> prepares the purification.

    ``gates`` is a read-only 1-D :data:`GATE` table, one row per gate.
    """

    ancilla_dim: int
    system_dim: int
    gates: np.ndarray

    def __post_init__(self):
        try:
            gates = _frozen_array(self.gates, GATE)
        except OverflowError as exc:
            raise OutOfRange(f"gate index beyond the int64 range: {exc}") from exc
        if gates.ndim != 1:
            raise ShapeMismatch(f"gate table must be 1-D, got shape {gates.shape}")
        control, a, b = gates["control"], gates["a"], gates["b"]
        bad = (control < -1) | (control >= self.ancilla_dim)
        if bad.any():
            raise OutOfRange("control value %d outside ancilla register" % _first(bad, control))
        dim = np.where(control < 0, self.ancilla_dim, self.system_dim)
        phase = gates["phase"]
        bad = ~phase & ~((0 <= a) & (a < b) & (b < dim))
        if bad.any():
            raise OutOfRange("rotation subspace (%d, %d) invalid for dim %d" % _first(bad, a, b, dim))
        bad = phase & ~((0 <= a) & (a < dim))
        if bad.any():
            raise OutOfRange("phase basis %d outside register of dim %d" % _first(bad, a, dim))
        if not np.all(np.isfinite(gates["value"])):
            raise BadRange("gate values must be finite")
        object.__setattr__(self, "gates", gates)


def _extract_weight_angles(weights: np.ndarray) -> np.ndarray:
    n = weights.size
    cumulative = np.cumsum(weights)
    angles = np.zeros(n - 1)
    for step in range(1, n):
        k = n - step
        remaining = float(cumulative[k])
        if remaining > 0.0:
            ratio = min(float(weights[k]) / remaining, 1.0)
            angles[step - 1] = math.asin(math.sqrt(ratio))
    return angles


def extract_parameters(
    coeffs: CoefficientMatrix, tol: ToleranceConfig | None = None
) -> CircuitParameters:
    """Invert a coefficient matrix into weight angles, branch angles, phases.

    All branches peel together in one N x N work matrix. Row k holds
    coefficient row k, normalized, in columns k..N-1, so at step s the
    branches that peel column N - s are exactly rows 0..N-s-1, and one
    division updates them all. A row whose weight does not exceed
    ``eps_pivot`` stays zero (its content is arbitrary; zero keeps the
    result deterministic). Angles, cosines and phases come from scalar
    ``math``/``cmath`` (numpy's ``arcsin``, ``abs`` and ``angle`` round
    differently).

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
    angles = np.zeros((n, n - 1))
    for step in range(1, n):
        col = n - step  # branches 0..col-1 peel this column
        theta = [math.asin(min(abs(v), 1.0)) for v in work[:col, col].tolist()]
        cos = [math.cos(t) for t in theta]
        angles[:col, step - 1] = theta
        if min(cos) <= tol.eps_pivot:
            for i, c in enumerate(cos):
                if c <= tol.eps_pivot:
                    if float(np.max(np.abs(work[i, :col]))) > _LEFTOVER_LIMIT:
                        raise DegenerateBranch(
                            "branch cosine underflowed with nonzero amplitudes remaining"
                        )
                    work[i, :col] = 0.0  # the branch stops: what is left peels as zeros
                    cos[i] = 1.0
        work[:col, :col] /= np.array(cos)[:, None]
    # phase j of branch k is that of work[k, k + j]
    phases = np.zeros((n, n - 1))
    for k, row in enumerate(work[:, : n - 1].tolist()):
        phases[k, k:] = [cmath.phase(v) for v in row[k:]]
    phases = np.mod(phases, TWO_PI)
    phases[phases >= TWO_PI] = 0.0
    branches = (BranchParameters(n - k, angles[k, : n - 1 - k], phases[k, k:]) for k in range(n))
    return CircuitParameters(n, weight_angles, tuple(branches))


def _weight_amplitudes(weight_angles: np.ndarray, n: int) -> np.ndarray:
    amp = np.zeros(n)
    prefix = 1.0
    for step in range(1, n):
        angle = float(weight_angles[step - 1])
        amp[n - step] = prefix * math.sin(angle)
        prefix *= math.cos(angle)
    amp[0] = prefix
    return amp


def _branch_amplitudes(branch: BranchParameters) -> np.ndarray:
    m = branch.dim
    amp = np.zeros(m, dtype=np.complex128)
    if m == 1:
        amp[0] = 1.0
        return amp
    prefix = 1.0
    for step in range(1, m):
        j = m - step
        theta = float(branch.angles[step - 1])
        value = prefix * math.sin(theta)
        if j < m - 1:
            amp[j] = value * cmath.exp(1j * float(branch.phases[j]))
        else:
            amp[j] = value
        prefix *= math.cos(theta)
    amp[0] = prefix * cmath.exp(1j * float(branch.phases[0]))
    return amp


def simulate_circuit(params: CircuitParameters, mode: str = "product") -> PureState:
    """Purification state prepared by the parameterized circuit.

    ``mode="product"`` evaluates the closed-form products directly:
    amplitude[k*N + i] = (weight chain factor k) * (branch-k amplitude i).
    ``mode="gates"`` builds the gate schedule and applies it to |0...0>.
    Both agree to within a few ulp.
    """
    if mode == "gates":
        return apply_schedule(schedule_from_parameters(params))
    if mode != "product":
        raise BadRange(f"unknown simulation mode {mode!r}")
    n = params.N
    weight_amp = _weight_amplitudes(params.weight_angles, n)
    vec = np.zeros(n * n, dtype=np.complex128)
    for k, branch in enumerate(params.branches):
        if weight_amp[k] == 0.0:
            continue
        vec[k * n : k * n + branch.dim] = weight_amp[k] * _branch_amplitudes(branch)
    return PureState(n, n, vec)


def schedule_from_parameters(params: CircuitParameters) -> GateSchedule:
    """Gate realization: ancilla weight chain, then per-branch controlled gates.

    Each chain is a column-preparation sequence of rotations on subspace
    pairs (0, t) with t descending; branch k adds its rotations, then its
    phases, all controlled on ancilla value k. One gate per parameter,
    N^2 - 1 in total.
    """
    return GateSchedule(params.N, params.N, _gate_table(params))


def _gate_table(params: CircuitParameters) -> np.ndarray:
    """The :data:`GATE` table of :func:`schedule_from_parameters`, unvalidated."""
    n = params.N
    gates = np.zeros(n * n - 1, dtype=GATE)
    chain = gates[: n - 1]
    chain["control"] = -1
    chain["b"] = np.arange(n - 1, 0, -1)
    chain["value"] = params.weight_angles
    start = n - 1
    for k, branch in enumerate(params.branches):
        steps = branch.dim - 1
        rotations = gates[start : start + steps]
        phases = gates[start + steps : start + 2 * steps]
        start += 2 * steps
        rotations["control"] = k
        rotations["b"] = np.arange(steps, 0, -1)
        rotations["value"] = branch.angles
        phases["phase"] = True
        phases["control"] = k
        phases["a"] = np.arange(steps)
        phases["value"] = -branch.phases
    return gates


def _group_starts(*keys: np.ndarray) -> np.ndarray:
    """True at each row where any of ``keys`` differs from the row before."""
    start = np.zeros(len(keys[0]), dtype=bool)
    start[:1] = True
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    return start


def apply_schedule(schedule: GateSchedule) -> PureState:
    """Apply the gates in order to |0...0> and return the resulting state.

    Gates controlled on different ancilla values act on disjoint lines, so
    they commute. Each ancilla-register gate opens a run; inside a run, a
    controlled gate's level is its rank among the run's gates on the same
    control value. Runs go in order, each ancilla gate first as one step on
    whole blocks of n lines, then one vector step per level (rotations and
    phases apart). Every line still sees its gates in table order.
    """
    m, n = schedule.ancilla_dim, schedule.system_dim
    gates = schedule.gates
    count = len(gates)
    control = gates["control"]
    ancilla = control < 0
    run = np.cumsum(ancilla)
    order = np.lexsort((control, run))  # stable: table order inside a group
    rank = np.arange(count)
    start = _group_starts(run[order], control[order])
    level = np.empty(count, dtype=np.int64)
    level[order] = rank - np.maximum.accumulate(np.where(start, rank, 0))
    level[ancilla] = -1  # first in its run
    seq = np.lexsort((gates["phase"], level, run))
    phase, ancilla = gates["phase"][seq], ancilla[seq]
    starts = np.flatnonzero(_group_starts(run[seq], level[seq], phase))
    # an ancilla gate's lines are where its two blocks of n lines begin; a
    # controlled gate's lines lie inside the block of its control value
    base = np.where(ancilla, 0, control[seq] * n)
    width = np.where(ancilla, n, 1)
    line_a = base + gates["a"][seq] * width
    line_b = base + gates["b"][seq] * width
    value = gates["value"][seq]
    # complex with +0 imaginary parts, as numpy promotes a float operand, so
    # no step has to cast
    cos = np.zeros(count, dtype=np.complex128)
    sin = np.zeros(count, dtype=np.complex128)
    cos.real, sin.real = np.cos(value), np.sin(value)
    factor = np.empty(count, dtype=np.complex128)
    factor.real, factor.imag = cos.real, -sin.real  # e^{-i value}, as cmath.exp rounds it
    vec = np.zeros(m * n, dtype=np.complex128)
    vec[0] = 1.0
    steps = zip(
        starts.tolist(),
        starts[1:].tolist() + [count],
        ancilla[starts].tolist(),
        phase[starts].tolist(),
    )
    for lo, hi, whole_blocks, phase_step in steps:
        if whole_blocks:
            ia = slice(line_a[lo], line_a[lo] + n)
            ib = slice(line_b[lo], line_b[lo] + n)
        else:
            ia, ib = line_a[lo:hi], line_b[lo:hi]
        if phase_step:
            vec[ia] *= factor[lo:hi]
            continue
        xa, xb = vec[ia], vec[ib]
        c, s = cos[lo:hi], sin[lo:hi]
        # both results before either write: block slices are views
        new_a, new_b = c * xa - s * xb, s * xa + c * xb
        vec[ia], vec[ib] = new_a, new_b
    return PureState(m, n, vec)


def invert_qubit(params: CircuitParameters) -> CoefficientMatrix:
    """Closed inversion for N=2: C00 = cos(a)cos(t)e^{i p}, C01 = cos(a)sin(t),
    C10 = sin(a), C11 = 0."""
    if params.N != 2:
        raise ShapeMismatch(f"qubit inversion requires N=2, got N={params.N}")
    alpha = float(params.weight_angles[0])
    theta = float(params.branches[0].angles[0])
    phi = float(params.branches[0].phases[0])
    c = np.zeros((2, 2), dtype=np.complex128)
    c[0, 0] = math.cos(alpha) * math.cos(theta) * cmath.exp(1j * phi)
    c[0, 1] = math.cos(alpha) * math.sin(theta)
    c[1, 0] = math.sin(alpha)
    return CoefficientMatrix(2, c)
