"""Triangular purification of n-qudit density matrices.

Given a density matrix rho on n qudits (local dimension d, N = d**n), the
package computes a pure state on system + same-size ancilla whose partial
trace over the ancilla reproduces rho, converts it into a parameterized
preparation circuit, and verifies every result by an independent
partial-trace reconstruction.

Names resolve on first read (PEP 562): ``import qpurify`` loads no layer
and no numpy; reading ``qpurify.cholesky_purify`` or ``qpurify.purify``
imports that layer once.
"""

import importlib

__version__ = "0.1.0"

#: Home module of each public name.
_HOMES = {
    "bloch": ("bloch_surface",),
    "circuit": (
        "CircuitParameters", "apply_schedule", "extract_parameters",
        "schedule_from_parameters", "simulate_circuit",
    ),
    "core": (
        "CoefficientMatrix", "DensityMatrix", "PureState", "QuditShape",
        "ToleranceConfig", "validate_density",
    ),
    "linalg": ("hermitian_eigen", "partial_trace_ancilla", "reference_cholesky"),
    "purify": (
        "VerificationReport", "cholesky_purify", "coefficients_to_state", "gauge_transform",
        "qubit_closed_form", "reshuffle_purify", "spectral_purify", "verify_purification",
    ),
    "rng": ("CounterRng", "random_density", "random_unitary"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("bloch", "circuit", "cli", "core", "errors", "io", "linalg", "purify", "rng")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
