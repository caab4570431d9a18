import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qpurify import (
    DensityMatrix,
    QuditShape,
    ToleranceConfig,
    cholesky_purify,
    coefficients_to_state,
    gauge_transform,
    partial_trace_ancilla,
    qubit_closed_form,
    random_density,
    random_unitary,
    reference_cholesky,
    reshuffle_purify,
    spectral_purify,
    validate_density,
    verify_purification,
)
from qpurify.errors import NormFailure, NotPSD, NotUnitary, ShapeMismatch

SQ5 = math.sqrt(0.5)


def qubit(matrix, tol=None):
    return validate_density(matrix, QuditShape(2, 1), tol)


class TestCholeskyPurify:
    def test_maximally_mixed_qubit(self):
        c = cholesky_purify(qubit(np.eye(2) / 2)).C
        assert abs(c[0, 1] - SQ5) < 1e-15
        assert c[0, 0] == 0
        assert abs(c[1, 0] - SQ5) < 1e-15
        assert c[1, 1] == 0

    def test_ground_state_projector(self):
        # already pure: the purification is the basis state |1>|0>
        c = cholesky_purify(qubit(np.diag([1.0, 0.0]))).C
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 0] = 1.0
        assert np.array_equal(c, expected)
        state = coefficients_to_state(cholesky_purify(qubit(np.diag([1.0, 0.0]))))
        assert state.amplitudes.reshape(2, 2)[1, 0] == 1.0

    def test_plus_projector(self):
        c = cholesky_purify(qubit(np.full((2, 2), 0.5))).C
        assert abs(c[0, 1] - SQ5) < 1e-15
        assert abs(c[0, 0] - SQ5) < 1e-15
        assert abs(c[1, 0]) < 1e-7  # sqrt of cancellation noise in the determinant

    def test_qutrit_maximally_mixed(self):
        rho = validate_density(np.eye(3) / 3, QuditShape(3, 1))
        c = cholesky_purify(rho).C
        third = 1 / math.sqrt(3)
        for alpha in range(3):
            for i in range(3):
                expected = third if i == 2 - alpha else 0.0
                assert abs(c[alpha, i] - expected) < 1e-15

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3)])
    def test_round_trip_random(self, d, n):
        for seed in range(20):
            rho = random_density(d, n, seed=seed)
            state = coefficients_to_state(cholesky_purify(rho))
            report = verify_purification(state, rho)
            assert report.passed, (d, n, seed, report)

    def test_zero_pattern_exact(self):
        rho = random_density(2, 2, seed=123)
        c = cholesky_purify(rho).C
        n = 4
        for alpha in range(n):
            for i in range(n - alpha, n):
                assert c[alpha, i] == 0

    def test_psd_leakage_is_refused(self):
        # validation refuses this rho; built directly, it reaches the purifier,
        # whose factor drops the negative part and so is not a unit state
        leak = 9e-10
        entries = np.diag([1.0 + leak, -leak])
        with pytest.raises(NotPSD):
            qubit(entries)
        coeffs = cholesky_purify(DensityMatrix(QuditShape(2, 1), entries))
        with pytest.raises(NormFailure, match=r"^state norm 1\.00000000045 "):
            coefficients_to_state(coeffs)

    def test_peak_memory_is_at_most_two_arrays(self):
        # C itself and the row updates' temporaries, 1.6 arrays at N = 256;
        # a Gram product C^T conj(C) and its residual would add 1.5 more
        rho = random_density(2, 8, seed=1)
        cholesky_purify(random_density(2, 2, seed=1))  # warm caches
        tracemalloc.start()
        try:
            cholesky_purify(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = rho.entries.nbytes
        assert peak <= 2 * array, peak / array

    def test_oracle_equivalence_positive_definite(self):
        # the coefficient rows are the reversed columns of the independent
        # upper-triangular elimination: C[alpha][i] == D[i][N-1-alpha]
        for d, n, seed in [(2, 1, 0), (3, 1, 1), (2, 2, 2), (4, 1, 3), (2, 3, 4), (4, 2, 5)]:
            rho = random_density(d, n, seed=seed)
            dim = rho.shape.N
            mixed = 0.9 * rho.entries + 0.1 * np.eye(dim) / dim
            rho = validate_density(mixed, rho.shape)
            coeffs = cholesky_purify(rho)
            # (i) rho = C^T conj(C)
            assert np.max(np.abs(coeffs.C.T @ coeffs.C.conj() - rho.entries)) <= 1e-10
            # (ii) C^T with columns reversed is upper triangular, diag >= 0
            folded = coeffs.C.T[:, ::-1]
            assert np.all(np.tril(folded, -1) == 0)
            diag = np.diagonal(folded)
            assert np.all(diag.imag == 0) and np.all(diag.real >= 0)
            # (iii) it coincides with the independent elimination
            oracle = reference_cholesky(rho.entries)
            assert np.max(np.abs(folded - oracle)) <= 1e-10

    def test_free_parameter_count(self):
        # structurally free slots counted off the gauge pattern: complex
        # entries before the anti-diagonal (2 reals each) + real
        # anti-diagonal entries - 1 trace constraint
        for d, n in [(2, 1), (3, 1), (2, 2), (2, 3)]:
            c = cholesky_purify(random_density(d, n, seed=13)).C
            dim = c.shape[0]
            complex_slots = sum(
                1 for alpha in range(dim) for i in range(dim) if i < dim - 1 - alpha
            )
            real_slots = dim  # anti-diagonal
            assert 2 * complex_slots + real_slots - 1 == dim * dim - 1


class TestQubitClosedForm:
    def test_diagonal(self):
        c = qubit_closed_form(qubit(np.diag([0.25, 0.75]))).C
        assert abs(c[0, 1] - math.sqrt(0.75)) < 1e-15
        assert c[0, 0] == 0
        assert abs(c[1, 0] - 0.5) < 1e-15

    def test_ground_state(self):
        c = qubit_closed_form(qubit(np.diag([1.0, 0.0]))).C
        assert c[0, 0] == 0 and c[0, 1] == 0 and c[1, 0] == 1.0

    def test_imaginary_coherence(self):
        rho = qubit(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        c = qubit_closed_form(rho).C
        assert abs(c[0, 0] - 0.5j / SQ5) < 1e-15
        assert abs(c[0, 1] - SQ5) < 1e-15
        assert abs(c[1, 0]) < 1e-15  # determinant is exactly zero here

    def test_agreement_with_general_algorithm(self):
        for seed in range(300):
            rho = random_density(2, 1, seed=seed)
            a = cholesky_purify(rho).C
            b = qubit_closed_form(rho).C
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_rejects_larger_systems(self):
        with pytest.raises(ShapeMismatch):
            qubit_closed_form(random_density(3, 1, seed=0))


class TestSpectralPurify:
    def test_diagonal(self):
        state = spectral_purify(qubit(np.diag([0.7, 0.3])))
        expected = np.zeros(4, dtype=complex)
        expected[0] = math.sqrt(0.7)
        expected[3] = math.sqrt(0.3)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_pure_state_is_product(self):
        chi = np.array([0.6, 0.8j], dtype=complex)
        rho = qubit(np.outer(chi, chi.conj()))
        state = spectral_purify(rho)
        # single unit eigenvalue: all weight in the ancilla-0 block
        assert np.max(np.abs(state.amplitudes[2:])) < 1e-7
        sigma = partial_trace_ancilla(state)
        assert np.max(np.abs(sigma - rho.entries)) < 1e-10

    def test_round_trip_random(self):
        for seed in range(20):
            rho = random_density(4, 1, seed=seed)
            assert verify_purification(spectral_purify(rho), rho).passed


class TestCoefficientsToState:
    def test_non_unit_coefficients_rejected(self):
        from qpurify import CoefficientMatrix
        from qpurify.errors import NormFailure

        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = 0.5
        with pytest.raises(NormFailure):
            coefficients_to_state(CoefficientMatrix(2, c))

    def test_flat_layout(self):
        coeffs = cholesky_purify(qubit(np.eye(2) / 2))
        state = coefficients_to_state(coeffs)
        expected = np.zeros(4, dtype=complex)
        expected[1] = expected[2] = SQ5
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    def test_qutrit_layout(self):
        rho = validate_density(np.eye(3) / 3, QuditShape(3, 1))
        state = coefficients_to_state(cholesky_purify(rho))
        third = 1 / math.sqrt(3)
        hot = {2, 4, 6}  # |0>|2>, |1>|1>, |2>|0>
        for idx in range(9):
            expected = third if idx in hot else 0.0
            assert abs(state.amplitudes[idx] - expected) < 1e-15


class TestVerifyPurification:
    def test_exact_pass(self):
        state = coefficients_to_state(cholesky_purify(qubit(np.diag([1.0, 0.0]))))
        report = verify_purification(state, qubit(np.diag([1.0, 0.0])))
        assert report.passed and report.max_abs_error == 0.0

    def test_bell_purifies_mixed(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = SQ5
        from qpurify import PureState

        report = verify_purification(PureState(2, 2, amps), qubit(np.eye(2) / 2))
        assert report.passed

    def test_pure_state_cannot_purify_mixed(self):
        from qpurify import PureState

        state = PureState(2, 2, np.array([1.0, 0, 0, 0], dtype=complex))
        report = verify_purification(state, qubit(np.eye(2) / 2))
        assert not report.passed
        assert abs(report.max_abs_error - 0.5) < 1e-15

    def test_dimension_mismatch(self):
        from qpurify import PureState

        state = PureState(2, 2, np.array([1.0, 0, 0, 0], dtype=complex))
        with pytest.raises(ShapeMismatch):
            verify_purification(state, random_density(3, 1, seed=0))


class TestGaugeTransform:
    def test_identity(self):
        rho = random_density(2, 1, seed=1)
        state = coefficients_to_state(cholesky_purify(rho))
        moved = gauge_transform(state, np.eye(2))
        assert np.array_equal(moved.amplitudes, state.amplitudes)

    def test_ancilla_swap_on_bell(self):
        from qpurify import PureState

        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = SQ5
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        moved = gauge_transform(PureState(2, 2, amps), swap)
        assert verify_purification(moved, qubit(np.eye(2) / 2)).passed

    def test_random_unitaries_preserve_partial_trace(self):
        for seed in range(25):
            rho = random_density(2, 2, seed=seed)
            state = coefficients_to_state(cholesky_purify(rho))
            u = random_unitary(4, seed=seed + 500)
            assert verify_purification(gauge_transform(state, u), rho).passed

    def test_rejects_nonunitary(self):
        rho = random_density(2, 1, seed=2)
        state = coefficients_to_state(cholesky_purify(rho))
        # a non-finite entry makes the defect NaN, which compares False with eps_norm
        for entry in (0.5, math.nan, math.inf, -math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotUnitary):
                    gauge_transform(state, np.array([[1.0, 0.0], [0.0, entry]]))

    def test_rejects_wrong_shape(self):
        state = coefficients_to_state(cholesky_purify(random_density(2, 1, seed=2)))
        with pytest.raises(ShapeMismatch, match=r"^expected 2x2 ancilla unitary, got \(4, 4\)$"):
            gauge_transform(state, np.eye(4))

    def test_compares_with_eps_norm(self, monkeypatch):
        from qpurify import PureState, purify

        # max|U†U - I| of diag(1, 0.5) is 0.75; ancilla row 1 is empty, so
        # the norm survives once the unitarity check lets U through
        state = PureState(2, 2, np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
        u = np.diag([1.0, 0.5])
        with pytest.raises(NotUnitary, match=r"defect 0\.75 exceeds eps_norm 1e-10"):
            gauge_transform(state, u)
        monkeypatch.setattr(purify, "DEFAULT_TOL", ToleranceConfig(eps_norm=0.8))
        moved = gauge_transform(state, u)
        assert np.array_equal(moved.amplitudes, state.amplitudes)

    def test_reads_the_callers_eps_norm(self):
        from qpurify import PureState

        # max|U†U - I| of diag(1, 1 + 1e-11) is about 2e-11: inside the
        # default eps_norm 1e-10, outside a tight 1e-12
        state = PureState(2, 2, np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
        u = np.diag([1.0, 1.0 + 1e-11])
        moved = gauge_transform(state, u)
        assert np.array_equal(moved.amplitudes, state.amplitudes)
        with pytest.raises(NotUnitary, match=r"exceeds eps_norm 1e-12$"):
            gauge_transform(state, u, ToleranceConfig(eps_norm=1e-12))


class TestReshuffle:
    def test_still_purifies(self):
        for seed in range(10):
            rho = random_density(2, 2, seed=seed)
            _, state = reshuffle_purify(rho)
            assert verify_purification(state, rho).passed

    def test_singular_inputs(self):
        for seed in range(10):
            rho = random_density(2, 2, seed=seed, rank=2)
            _, state = reshuffle_purify(rho)
            assert verify_purification(state, rho).passed
        rho0 = qubit(np.diag([1.0, 0.0]))
        _, state = reshuffle_purify(rho0)
        assert verify_purification(state, rho0).passed

    def test_coefficients_returned_unpermuted(self):
        rho = random_density(3, 1, seed=7)
        raw, state = reshuffle_purify(rho)
        assert np.max(np.abs(raw.T @ raw.conj() - rho.entries)) <= 1e-10

    def test_peak_memory_is_at_most_three_arrays(self):
        # the permuted rho, C with the row updates' temporaries, then C and
        # its un-permuted copy, which the state views: 2.5 arrays at N = 256.
        # A copy by either constructor would add 1 more.
        rho = random_density(2, 8, seed=1)
        reshuffle_purify(random_density(2, 2, seed=1))  # warm caches
        tracemalloc.start()
        try:
            reshuffle_purify(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = rho.entries.nbytes
        assert peak <= 3 * array, peak / array


class TestTolerancePropagation:
    def test_tight_recon_tolerance_fails_verification(self):
        rho = random_density(2, 2, seed=3)
        state = coefficients_to_state(cholesky_purify(rho))
        assert verify_purification(state, rho).passed
        assert not verify_purification(state, rho, ToleranceConfig(eps_recon=1e-20)).passed
