"""Exception types shared across the package, how their messages print
integers, and the one block size: the one module every layer imports,
numpy-free."""

import sys

#: Pairs, gate records or CSV rows per piece of text: the one block size of the
#: writers' pieces (``io``, ``bloch``), the array reader and ``rng``'s fill.
BLOCK_ROWS = 4096


def shown(value: int, name: str) -> int | str:
    """``value`` as an error message prints it, or ``name`` in its place when
    it lies past sys.maxsize in magnitude, where it would print every digit."""
    return value if abs(value) <= sys.maxsize else name


class QPurifyError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the CLI exit status: 2 for invalid input, 3 when a
    computation on valid input fails.
    """

    exit_code = 2


class ShapeMismatch(QPurifyError):
    """Array dimensions disagree with the declared qudit shape."""


class BadShape(QPurifyError):
    """Qudit shape parameters are invalid or exceed the dimension cap."""


class OutOfRange(QPurifyError):
    """An index lies outside its admissible range."""


class NotHermitian(QPurifyError):
    """Matrix asymmetry exceeds the Hermiticity tolerance."""


class TraceDeviation(QPurifyError):
    """Matrix trace differs from one beyond tolerance."""


class NotPSD(QPurifyError):
    """Matrix has an eigenvalue (or elimination pivot) below the PSD tolerance."""


class NormFailure(QPurifyError):
    """Vector norm differs from one beyond tolerance."""


class NotUnitary(QPurifyError):
    """Matrix fails the unitarity check."""


class NoConvergence(QPurifyError):
    """Iterative eigensolver hit its sweep cap without converging."""

    exit_code = 3


class ReconstructionFailure(QPurifyError):
    """Purification coefficients do not reproduce the density matrix."""

    exit_code = 3


class GaugeViolation(QPurifyError):
    """Coefficient matrix breaks the anti-triangular gauge pattern."""


class DegenerateBranch(QPurifyError):
    """Branch peeling hit a vanishing cosine with amplitude left over."""

    exit_code = 3


class BadRange(QPurifyError):
    """Scalar argument lies outside its admissible interval."""
