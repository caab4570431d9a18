"""Triangular purification of n-qudit density matrices.

Given a density matrix rho on n qudits (local dimension d, N = d**n), the
package computes a pure state on system + same-size ancilla whose partial
trace over the ancilla reproduces rho, converts it into a parameterized
preparation circuit, and verifies every result by an independent
partial-trace reconstruction.
"""

from .bloch import bloch_surface
from .circuit import (
    GATE,
    CircuitParameters,
    GateSchedule,
    apply_schedule,
    extract_parameters,
    schedule_from_parameters,
    simulate_circuit,
)
from .core import (
    CoefficientMatrix,
    DensityMatrix,
    PureState,
    QuditShape,
    ToleranceConfig,
    validate_density,
)
from .linalg import (
    hermitian_eigen,
    max_abs_diff,
    partial_trace_ancilla,
    reference_cholesky,
)
from .purify import (
    VerificationReport,
    cholesky_purify,
    coefficients_to_state,
    gauge_transform,
    qubit_closed_form,
    reconstruct,
    reshuffle_purify,
    spectral_purify,
    verify_purification,
)
from .rng import CounterRng, random_density, random_unitary

__version__ = "0.1.0"

__all__ = [
    "CircuitParameters",
    "CoefficientMatrix",
    "CounterRng",
    "DensityMatrix",
    "GATE",
    "GateSchedule",
    "PureState",
    "QuditShape",
    "ToleranceConfig",
    "VerificationReport",
    "apply_schedule",
    "bloch_surface",
    "cholesky_purify",
    "coefficients_to_state",
    "extract_parameters",
    "gauge_transform",
    "hermitian_eigen",
    "max_abs_diff",
    "partial_trace_ancilla",
    "qubit_closed_form",
    "random_density",
    "random_unitary",
    "reconstruct",
    "reference_cholesky",
    "reshuffle_purify",
    "schedule_from_parameters",
    "simulate_circuit",
    "spectral_purify",
    "validate_density",
    "verify_purification",
]
