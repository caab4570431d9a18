"""Single-qubit Bloch-ball geometry of the mixing-angle family.

For a fixed mixing angle a, the states cos^2(a) * |psi(theta, phi)><psi| +
sin^2(a) * |0><0| sweep a sphere of radius cos^2(a) centered at
(0, 0, sin^2(a)): the unit Bloch sphere contracted and pushed toward the
north pole. As a runs from 0 to pi/2 these spheres fill the whole ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, QuditShape, ToleranceConfig, validate_density
from .errors import BadRange, OutsideBall

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class BlochPoint:
    x: float
    y: float
    z: float


def grid_angles(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sampling grid: theta over [0, pi], phi over [0, 2*pi)."""
    if n_theta < 2 or n_phi < 2:
        raise BadRange(f"grid sizes must be >= 2, got {n_theta}x{n_phi}")
    return (
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
    )


def mixed_state_matrix(alpha: float, theta: float, phi: float) -> np.ndarray:
    """cos^2(alpha) times the pure-state projector plus sin^2(alpha) |0><0|."""
    ct, st = math.cos(theta), math.sin(theta)
    projector = np.array(
        [
            [ct * ct, ct * st * complex(math.cos(phi), math.sin(phi))],
            [ct * st * complex(math.cos(phi), -math.sin(phi)), st * st],
        ],
        dtype=np.complex128,
    )
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return ca * ca * projector + sa * sa * ground


def bloch_surface(alpha: float, grid: tuple[int, int]) -> list[BlochPoint]:
    """Points of the contracted/translated sphere at mixing angle ``alpha``.

    Each point evaluates the mixture entrywise (same arithmetic as
    :func:`mixed_state_matrix`, composed scalar-by-scalar for speed) and
    reads off the ball coordinates. Every emitted point satisfies
    x^2 + y^2 + (z - sin^2 a)^2 = cos^4 a. Points are emitted theta-major,
    phi-minor, matching the CSV layout.
    """
    if not 0.0 <= alpha <= HALF_PI:
        raise BadRange(f"alpha {alpha!r} outside [0, pi/2]")
    thetas, phis = grid_angles(*grid)
    ca, sa = math.cos(alpha), math.sin(alpha)
    ca2, sa2 = ca * ca, sa * sa
    points = []
    for theta in thetas:
        ct, st = math.cos(float(theta)), math.sin(float(theta))
        for phi in phis:
            rho00 = ca2 * ct * ct + sa2
            rho11 = ca2 * st * st
            rho01 = ca2 * ct * st * complex(math.cos(float(phi)), math.sin(float(phi)))
            # +0.0 normalizes IEEE negative zeros out of the emitted data
            points.append(
                BlochPoint(2.0 * rho01.real + 0.0, -2.0 * rho01.imag + 0.0, rho00 - rho11 + 0.0)
            )
    return points


def density_from_bloch(
    x: float, y: float, z: float, tol: ToleranceConfig | None = None
) -> DensityMatrix:
    """Single-qubit state 0.5 * [[1+Z, X-iY], [X+iY, 1-Z]] for a point in the ball."""
    radius_sq = x * x + y * y + z * z
    if radius_sq > 1.0 + 1e-12:
        raise OutsideBall(f"|r|^2 = {radius_sq!r} exceeds 1")
    matrix = 0.5 * np.array(
        [[1.0 + z, complex(x, -y)], [complex(x, y), 1.0 - z]], dtype=np.complex128
    )
    return validate_density(matrix, QuditShape(2, 1), tol)
