"""Single-qubit Bloch-ball geometry of the mixing-angle family.

For a fixed mixing angle a, the states cos^2(a) * |psi(theta, phi)><psi| +
sin^2(a) * |0><0| sweep a sphere of radius cos^2(a) centered at
(0, 0, sin^2(a)): the unit Bloch sphere contracted and pushed toward the
north pole. As a runs from 0 to pi/2 these spheres fill the whole ball.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadRange, shown

HALF_PI = math.pi / 2.0


def grid_angles(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sampling grid: theta over [0, pi], phi over [0, 2*pi)."""
    if n_theta < 2 or n_phi < 2:
        sizes = f"{shown(n_theta, 'THETA')}x{shown(n_phi, 'PHI')}"  # as --grid THETAxPHI
        raise BadRange(f"grid sizes must be >= 2, got {sizes}")
    return (
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
    )


def _check_alpha(alpha: float) -> None:
    """Raise BadRange unless the mixing angle ``alpha`` lies in [0, pi/2]."""
    if not 0.0 <= alpha <= HALF_PI:
        raise BadRange(f"alpha {alpha!r} outside [0, pi/2]")


def bloch_surface(alpha: float, grid: tuple[int, int]) -> np.ndarray:
    """Points of the contracted/translated sphere at mixing angle ``alpha``.

    Returns an ``(n_theta * n_phi, 3)`` array of ball coordinates (X, Y, Z),
    theta-major and phi-minor, matching the CSV layout. The mixture is
    evaluated entrywise: rho00 = cos^2 a cos^2 t + sin^2 a,
    rho11 = cos^2 a sin^2 t and rho01 = cos^2 a cos t sin t e^{i phi}, with
    ``math`` cosines and sines taken once per theta and once per phi. Every
    point satisfies x^2 + y^2 + (z - sin^2 a)^2 = cos^4 a.
    """
    _check_alpha(alpha)
    thetas, phis = grid_angles(*grid)
    ca, sa = math.cos(alpha), math.sin(alpha)
    ca2, sa2 = ca * ca, sa * sa
    ct = np.array([math.cos(t) for t in thetas.tolist()])
    st = np.array([math.sin(t) for t in thetas.tolist()])
    cp = np.array([math.cos(p) for p in phis.tolist()])
    sp = np.array([math.sin(p) for p in phis.tolist()])
    r = (ca2 * ct * st)[:, None]  # |rho01|
    points = np.empty((thetas.size, phis.size, 3))
    # +0.0 normalizes IEEE negative zeros out of the emitted data
    points[:, :, 0] = 2.0 * (r * cp) + 0.0
    points[:, :, 1] = -2.0 * (r * sp) + 0.0
    points[:, :, 2] = ((ca2 * ct * ct + sa2) - ca2 * st * st + 0.0)[:, None]
    return points.reshape(-1, 3)
