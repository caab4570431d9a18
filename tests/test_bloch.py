import math
import random

import numpy as np
import pytest

from qpurify import (
    QuditShape,
    bloch_surface,
    cholesky_purify,
    random_density,
    validate_density,
)
from qpurify.bloch import grid_angles, sweep_alphas
from qpurify.errors import BadRange, QPurifyError

HALF_PI = math.pi / 2


def numpy_grid_angles(n_theta, n_phi):
    """The sampling grid as numpy spaces it: the oracle of ``grid_angles``."""
    return (
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
    )


def numpy_bloch_surface(alpha, grid):
    """The surface points with the entrywise arithmetic in numpy arrays: the
    oracle of ``bloch_surface`` and of the CSV."""
    thetas, phis = numpy_grid_angles(*grid)
    ca, sa = math.cos(alpha), math.sin(alpha)
    ca2, sa2 = ca * ca, sa * sa
    ct = np.array([math.cos(t) for t in thetas.tolist()])
    st = np.array([math.sin(t) for t in thetas.tolist()])
    cp = np.array([math.cos(p) for p in phis.tolist()])
    sp = np.array([math.sin(p) for p in phis.tolist()])
    r = (ca2 * ct * st)[:, None]
    points = np.empty((thetas.size, phis.size, 3))
    points[:, :, 0] = 2.0 * (r * cp) + 0.0
    points[:, :, 1] = -2.0 * (r * sp) + 0.0
    points[:, :, 2] = ((ca2 * ct * ct + sa2) - ca2 * st * st + 0.0)[:, None]
    return points.reshape(-1, 3)


def mixed_state_matrix(alpha, theta, phi):
    """cos^2(alpha) times the pure-state projector plus sin^2(alpha) |0><0|,
    as a 2x2 matrix: the reference the entrywise surface must reproduce."""
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


def read_bloch(rho):
    """Ball coordinates of a 2x2 density matrix: rho01 = (X - iY) / 2, Z = rho00 - rho11."""
    return np.array(
        [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def sphere_law_error(points, alpha):
    """Largest deviation of the rows of ``points`` from the sphere at ``alpha``."""
    x, y, z = points.T
    center = math.sin(alpha) ** 2
    radius_sq = math.cos(alpha) ** 4
    return float(np.max(np.abs(x**2 + y**2 + (z - center) ** 2 - radius_sq)))


class TestBlochSurface:
    def test_alpha_zero_is_unit_sphere(self):
        pts = bloch_surface(0.0, (10, 10))
        assert pts.shape == (100, 3)
        assert np.max(np.abs(np.sum(pts**2, axis=1) - 1.0)) <= 1e-12

    def test_alpha_half_pi_is_north_pole(self):
        pts = bloch_surface(HALF_PI, (10, 10))
        assert np.max(np.abs(pts - [0.0, 0.0, 1.0])) <= 1e-12

    def test_alpha_quarter_pi_center_and_radius(self):
        pts = bloch_surface(math.pi / 4, (20, 20))
        assert sphere_law_error(pts, math.pi / 4) <= 1e-12
        # the equatorial sample theta = pi/2, phi = 0 sits at the ball center
        thetas, phis = grid_angles(20, 20)
        rho = mixed_state_matrix(math.pi / 4, HALF_PI, 0.0)
        assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.7, 1.1, HALF_PI])
    def test_contraction_translation_law(self, alpha):
        assert sphere_law_error(bloch_surface(alpha, (15, 17)), alpha) <= 1e-12

    def test_matches_matrix_mixture(self):
        alpha = 0.63
        pts = bloch_surface(alpha, (6, 8))
        thetas, phis = grid_angles(6, 8)
        ref = [
            read_bloch(mixed_state_matrix(alpha, float(theta), float(phi)))
            for theta in thetas
            for phi in phis
        ]
        assert pts.shape == (48, 3)
        assert np.max(np.abs(pts - np.array(ref))) < 1e-14

    def test_bad_alpha(self):
        with pytest.raises(BadRange):
            bloch_surface(-0.1, (5, 5))
        with pytest.raises(BadRange):
            bloch_surface(2.0, (5, 5))

    def test_bad_grid(self):
        with pytest.raises(BadRange):
            bloch_surface(0.3, (1, 5))


#: Mixing angles of the bit-exact comparison: both ends, the CLI's sweep,
#: the doubles next to the ends, and four drawn ones.
DRAWS = random.Random(21)
ORACLE_ALPHAS = sorted(
    {0.0, HALF_PI, *sweep_alphas(6), 5e-324, math.nextafter(HALF_PI, 0.0)}
    | {DRAWS.uniform(0.0, HALF_PI) for _ in range(4)}
)


class TestNumpyOracles:
    def test_grid_is_numpy_spacing_bit_for_bit(self):
        for side in range(2, 2001):
            thetas, phis = grid_angles(side, side)
            ref_thetas, ref_phis = numpy_grid_angles(side, side)
            assert np.array(thetas).tobytes() == ref_thetas.tobytes(), side
            assert np.array(phis).tobytes() == ref_phis.tobytes(), side

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_points_are_the_numpy_arithmetic_bit_for_bit(self, alpha):
        for grid in [(2, 2), (3, 5), (7, 2), (50, 50), (101, 37), (2, 300)]:
            points = bloch_surface(alpha, grid)
            assert points.dtype == np.float64 and points.shape == (grid[0] * grid[1], 3)
            assert points.tobytes() == numpy_bloch_surface(alpha, grid).tobytes(), grid


class TestInvasionCoverage:
    TARGETS = [
        (0.0, 0.0, 0.0),
        (0.3, -0.2, 0.1),
        (0.0, 0.0, -0.9),
        (0.5, 0.5, 0.5),
        (-0.7, 0.1, 0.2),
        (0.2, 0.3, 0.85),
    ]

    @staticmethod
    def _sphere_distance(alpha, target):
        qx, qy, qz = target
        center = math.sin(alpha) ** 2
        return abs(math.hypot(math.hypot(qx, qy), qz - center) - math.cos(alpha) ** 2)

    @classmethod
    def _best_alpha(cls, alphas, target):
        return min(alphas, key=lambda a: cls._sphere_distance(float(a), target))

    @staticmethod
    def _nearest_emitted(alpha, grid, target):
        pts = bloch_surface(alpha, grid)
        return float(np.min(np.linalg.norm(pts - np.array(target), axis=1)))

    def test_stated_sweep_reaches_grid_resolution(self):
        # 100 alpha values quantize the sphere family to ~1.6e-2 in center
        # height, and a 200x200 grid quantizes arcs to ~1.6e-2 * radius, so
        # the stated sweep resolves targets to ~2.5e-2 in the worst case.
        alphas = np.linspace(0.0, HALF_PI, 100)
        for target in self.TARGETS:
            alpha = self._best_alpha(alphas, target)
            assert self._nearest_emitted(float(alpha), (200, 200), target) <= 2.5e-2, target

    def test_refined_sweep_reaches_target_resolution(self):
        # a locally refined alpha and a finer angular grid push every
        # strictly interior target within 1e-2
        coarse = np.linspace(0.0, HALF_PI, 100)
        step = coarse[1] - coarse[0]
        for target in self.TARGETS[:3]:
            alpha = float(self._best_alpha(coarse, target))
            fine = np.linspace(max(alpha - step, 0.0), min(alpha + step, HALF_PI), 100)
            refined = float(self._best_alpha(fine, target))
            assert self._nearest_emitted(refined, (600, 600), target) <= 1e-2, target


class OutsideBall(QPurifyError):
    """Bloch coordinates lie outside the unit ball."""


def density_from_bloch(x, y, z):
    """Single-qubit state 0.5 * [[1+Z, X-iY], [X+iY, 1-Z]] for a point in the ball."""
    radius_sq = x * x + y * y + z * z
    if radius_sq > 1.0 + 1e-12:
        raise OutsideBall(f"|r|^2 = {radius_sq!r} exceeds 1")
    matrix = 0.5 * np.array([[1.0 + z, complex(x, -y)], [complex(x, y), 1.0 - z]], dtype=np.complex128)
    return validate_density(matrix, QuditShape(2, 1))


class TestDensityFromBloch:
    def test_center_is_maximally_mixed(self):
        rho = density_from_bloch(0.0, 0.0, 0.0)
        assert np.array_equal(rho.entries, np.eye(2) / 2)

    def test_north_pole(self):
        rho = density_from_bloch(0.0, 0.0, 1.0)
        assert np.array_equal(rho.entries, np.diag([1.0, 0.0]).astype(complex))

    def test_x_axis(self):
        rho = density_from_bloch(1.0, 0.0, 0.0)
        assert np.max(np.abs(rho.entries - np.full((2, 2), 0.5))) < 1e-15

    def test_outside_ball(self):
        with pytest.raises(OutsideBall):
            density_from_bloch(1.0, 0.5, 0.0)

    def test_round_trip_identity(self):
        for x, y, z in [(0.1, -0.4, 0.2), (0.0, 0.9, -0.3), (-0.5, -0.5, 0.5), (0.33, 0.1, -0.85)]:
            rho = density_from_bloch(x, y, z)
            assert np.max(np.abs(read_bloch(rho.entries) - [x, y, z])) <= 1e-14


class TestMixtureWeights:
    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2, QuditShape(2, 1))
        assert np.allclose(cholesky_purify(rho).row_weights(), [0.5, 0.5])

    def test_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0]), QuditShape(2, 1))
        w = cholesky_purify(rho).row_weights()
        assert abs(w[1] - 1.0) < 1e-12 and abs(w[0]) < 1e-12

    def test_qutrit_uniform(self):
        rho = validate_density(np.eye(3) / 3, QuditShape(3, 1))
        assert np.allclose(cholesky_purify(rho).row_weights(), [1 / 3] * 3)

    def test_sums_to_one(self):
        for seed in range(10):
            w = cholesky_purify(random_density(2, 2, seed=seed)).row_weights()
            assert abs(np.sum(w) - 1.0) <= 1e-10
