"""Single-qubit Bloch-ball geometry of the mixing-angle family, and its CSV.

For a fixed mixing angle a, the states cos^2(a) * |psi(theta, phi)><psi| +
sin^2(a) * |0><0| sweep a sphere of radius cos^2(a) centered at
(0, 0, sin^2(a)): the unit Bloch sphere contracted and pushed toward the
north pole. As a runs from 0 to pi/2 these spheres fill the whole ball.

The module runs on ``math`` alone, so the ``bloch`` command loads no numpy:
one point routine, :func:`_surface`, computes every point in plain floats,
and both the CSV writer and :func:`bloch_surface` (which imports numpy to
return an array) read it.
"""

from __future__ import annotations

import math

from . import errors
from .errors import BadRange, shown

HALF_PI = math.pi / 2.0


def grid_angles(n_theta: int, n_phi: int) -> tuple[list[float], list[float]]:
    """Uniform sampling grid: theta over [0, pi], phi over [0, 2*pi).

    The angles are the doubles ``np.linspace`` gives, ``linspace(0, pi,
    n_theta)`` and ``linspace(0, 2*pi, n_phi, endpoint=False)``: index times
    step, with the last theta set to pi.
    """
    if n_theta < 2 or n_phi < 2:
        sizes = f"{shown(n_theta, 'THETA')}x{shown(n_phi, 'PHI')}"  # as --grid THETAxPHI
        raise BadRange(f"grid sizes must be >= 2, got {sizes}")
    step = math.pi / (n_theta - 1)
    thetas = [i * step for i in range(n_theta - 1)] + [math.pi]
    step = 2.0 * math.pi / n_phi
    return thetas, [j * step for j in range(n_phi)]


def _check_alpha(alpha: float) -> None:
    """Raise BadRange unless the mixing angle ``alpha`` lies in [0, pi/2]."""
    if not 0.0 <= alpha <= HALF_PI:
        raise BadRange(f"alpha {alpha!r} outside [0, pi/2]")


def _surface(alpha: float, thetas: list[float], phis: list[float]):
    """The points at mixing angle ``alpha`` on the grid ``thetas`` x ``phis``,
    one theta at a time: ``(xs, ys, z)``, X and Y per phi and the theta's Z.

    The mixture is evaluated entrywise: rho00 = cos^2 a cos^2 t + sin^2 a,
    rho11 = cos^2 a sin^2 t and rho01 = cos^2 a cos t sin t e^{i phi}, with
    cosines and sines taken once per theta and once per phi.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    ca2, sa2 = ca * ca, sa * sa
    cps, sps = [math.cos(p) for p in phis], [math.sin(p) for p in phis]
    for theta in thetas:
        ct, st = math.cos(theta), math.sin(theta)
        r = ca2 * ct * st  # |rho01|
        # +0.0 normalizes IEEE negative zeros out of the emitted data
        yield (
            [2.0 * (r * cp) + 0.0 for cp in cps],
            [-2.0 * (r * sp) + 0.0 for sp in sps],
            ca2 * ct * ct + sa2 - ca2 * st * st + 0.0,
        )


def bloch_surface(alpha: float, grid: tuple[int, int]):
    """Points of the contracted/translated sphere at mixing angle ``alpha``.

    Returns an ``(n_theta * n_phi, 3)`` float64 array of ball coordinates
    (X, Y, Z), theta-major and phi-minor, matching the CSV layout. Every
    point satisfies x^2 + y^2 + (z - sin^2 a)^2 = cos^4 a.
    """
    import numpy as np

    _check_alpha(alpha)
    thetas, phis = grid_angles(*grid)
    points = np.empty((len(thetas), len(phis), 3))
    for row, (xs, ys, z) in zip(points, _surface(alpha, thetas, phis)):
        row[:, 0], row[:, 1], row[:, 2] = xs, ys, z
    return points.reshape(-1, 3)


def bloch_pieces(alphas, n_theta: int, n_phi: int):
    """CSV of surface points, one block per alpha: alpha,theta,phi,X,Y,Z, in
    pieces of about ``errors.BLOCK_ROWS`` rows (whole thetas of ``n_phi``
    rows) after the header. A grid or an alpha that :func:`bloch_surface`
    refuses is refused before the first."""
    thetas, phis = grid_angles(n_theta, n_phi)
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        _check_alpha(alpha)
    return _bloch_rows(alphas, thetas, phis)


def _bloch_rows(alphas: list[float], thetas: list[float], phis: list[float]):
    """:func:`bloch_pieces` after its checks."""
    yield "alpha,theta,phi,X,Y,Z\n"
    step = max(errors.BLOCK_ROWS // len(phis), 1)
    cells = [repr(phi) for phi in phis]
    for alpha in alphas:
        lines = []
        # Z depends on theta only, so each row's alpha, theta and Z are
        # written once per theta
        for k, (theta, (xs, ys, z)) in enumerate(zip(thetas, _surface(alpha, thetas, phis)), 1):
            head, tail = f"{alpha!r},{theta!r},", f",{z!r}\n"
            lines += [f"{head}{phi},{x!r},{y!r}{tail}" for phi, x, y in zip(cells, xs, ys)]
            if k % step == 0 or k == len(thetas):
                yield "".join(lines)
                lines = []


def sweep_alphas(count: int) -> list[float]:
    """``count`` mixing angles spanning [0, pi/2] uniformly."""
    if count < 1:
        raise BadRange(f"alpha count must be >= 1, got {shown(count, 'count')}")
    if count == 1:
        return [0.0]
    step = HALF_PI / (count - 1)
    return [i * step for i in range(count)]
