import time
from dataclasses import fields

import numpy as np
import pytest

from qpurify import (
    CoefficientMatrix,
    DensityMatrix,
    PureState,
    QuditShape,
    ToleranceConfig,
    random_density,
    random_unitary,
    validate_density,
)
from qpurify import linalg
from qpurify.circuit import _branch_cells
from qpurify.core import PSD_SLACK, _strict_lower
from qpurify.errors import (
    BadRange,
    BadShape,
    GaugeViolation,
    NormFailure,
    NotHermitian,
    NotPSD,
    OutOfRange,
    ShapeMismatch,
    TraceDeviation,
)


class TestQuditShape:
    def test_derived_dimension(self):
        assert QuditShape(2, 3).N == 8
        assert QuditShape(3, 2).N == 9
        assert QuditShape(4, 1).N == 4

    @pytest.mark.parametrize("d,n", [(1, 1), (0, 2), (2, 0), (2, -1)])
    def test_rejects_bad_parameters(self, d, n):
        with pytest.raises(BadShape):
            QuditShape(d, n)

    def test_rejects_beyond_cap(self):
        with pytest.raises(BadShape, match=r"^N = 2\*\*13 = 8192 exceeds cap 4096$"):
            QuditShape(2, 13)
        assert QuditShape(2, 12).N == 4096

    @pytest.mark.parametrize("d,n", [(3, 10_000), (2, 10**6)])
    def test_rejects_huge_power_without_computing_it(self, d, n):
        start = time.perf_counter()
        with pytest.raises(BadShape, match=rf"^N = {d}\*\*{n} exceeds cap 4096$"):
            QuditShape(d, n)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("d,n,message", [
        (10**400, 1, "N = d**1 exceeds cap 4096"),
        (2, 10**400, "N = 2**n exceeds cap 4096"),
    ])
    def test_names_a_field_too_long_to_print(self, d, n, message):
        with pytest.raises(BadShape) as err:
            QuditShape(d, n)
        assert str(err.value) == message
        assert len(str(err.value)) < 40


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.eps_herm == tol.eps_trace == tol.eps_norm == 1e-10
        assert tol.eps_recon == 1e-10
        assert tol.eps_pivot == 1e-12
        # positivity has no tolerance: validation derives its bound from rho
        assert [f.name for f in fields(tol)] == [
            "eps_herm", "eps_trace", "eps_recon", "eps_norm", "eps_pivot"
        ]
        with pytest.raises(TypeError):
            ToleranceConfig(eps_psd=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(BadRange):
            ToleranceConfig(eps_pivot=-1e-12)

    @pytest.mark.parametrize("name", ["eps_herm", "eps_trace", "eps_recon", "eps_norm", "eps_pivot"])
    def test_rejects_nan(self, name):
        # a NaN tolerance would fail every check it bounds, or pass every one
        with pytest.raises(BadRange, match=f"^tolerance {name} must be nonnegative$"):
            ToleranceConfig(**{name: float("nan")})


def flat_index(alpha: int, i: int, N: int, ancilla_dim: int | None = None) -> int:
    """Flat position of |alpha>|i> in the composite state vector (alpha * N + i),
    with range checks: the index convention the package's reshapes rely on."""
    if N < 1:
        raise OutOfRange(f"system dimension must be positive, got {N}")
    if not 0 <= i < N:
        raise OutOfRange(f"system index {i} outside [0, {N})")
    if alpha < 0:
        raise OutOfRange(f"ancilla value {alpha} negative")
    if ancilla_dim is not None and alpha >= ancilla_dim:
        raise OutOfRange(f"ancilla value {alpha} outside [0, {ancilla_dim})")
    return alpha * N + i


def amplitude(state: PureState, alpha: int, i: int) -> complex:
    return complex(state.amplitudes[flat_index(alpha, i, state.system_dim, state.ancilla_dim)])


class TestFlatIndex:
    @pytest.mark.parametrize(
        "alpha,i,n,expected", [(0, 0, 4, 0), (1, 0, 2, 2), (3, 2, 4, 14)]
    )
    def test_examples(self, alpha, i, n, expected):
        assert flat_index(alpha, i, n) == expected

    def test_bijection(self):
        m, n = 5, 7
        seen = {flat_index(a, i, n, ancilla_dim=m) for a in range(m) for i in range(n)}
        assert seen == set(range(m * n))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            flat_index(0, 4, 4)
        with pytest.raises(OutOfRange):
            flat_index(-1, 0, 4)
        with pytest.raises(OutOfRange):
            flat_index(2, 0, 4, ancilla_dim=2)


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2, QuditShape(2, 1))
        assert isinstance(rho, DensityMatrix)
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_not_psd(self):
        # eigenvalues 1.1 and -0.1 by direct 2x2 diagonalization
        with pytest.raises(NotPSD):
            validate_density([[0.5, 0.6], [0.6, 0.5]], QuditShape(2, 1))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density([[1.0, 1j], [1j, 0.0]], QuditShape(2, 1))

    def test_trace_deviation(self):
        with pytest.raises(TraceDeviation):
            validate_density(np.eye(2), QuditShape(2, 1))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_density(np.eye(3) / 3, QuditShape(2, 1))

    def test_symmetrizes_small_asymmetry(self):
        noise = 1e-13
        raw = np.array([[0.5, 0.1 + noise * 1j], [0.1, 0.5]], dtype=complex)
        rho = validate_density(raw, QuditShape(2, 1))
        assert np.array_equal(rho.entries, rho.entries.conj().T)

    def test_custom_tolerances(self):
        tol = ToleranceConfig(eps_trace=1e-2)
        rho = validate_density(np.eye(2) * 0.501, QuditShape(2, 1), tol)
        assert abs(np.trace(rho.entries) - 1.002) < 1e-12

    def test_entries_frozen(self):
        rho = validate_density(np.eye(2) / 2, QuditShape(2, 1))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries(self, bad):
        matrix = np.eye(2, dtype=complex) / 2
        matrix[0, 0] = bad
        with pytest.raises(BadRange, match="non-finite"):
            validate_density(matrix, QuditShape(2, 1))


def with_smallest_eigenvalue(smallest, dim, seed):
    """U diag(spectrum) U^dagger with unit trace and the given smallest eigenvalue."""
    rest = np.linspace(1.0, 2.0, dim - 1)
    spectrum = np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])
    u = random_unitary(dim, seed)
    return (u * spectrum) @ u.conj().T


def psd_bound(values, dim: int) -> float:
    """validate_density's bound c * N * u * lambda_max, from any eigenvalues."""
    return PSD_SLACK * dim * 2.0**-53 * float(max(values))


class TestPsdCriterion:
    """The LAPACK check accepts exactly what the Jacobi oracle accepts."""

    @pytest.mark.parametrize("dim", [4, 8, 16])
    @pytest.mark.parametrize(
        "smallest,accepted", [(-1e-6, False), (-2e-9, False), (-5e-10, False), (0.0, True), (1e-6, True)]
    )
    def test_matches_jacobi_oracle(self, dim, smallest, accepted):
        shape = QuditShape(2, dim.bit_length() - 1)
        matrix = with_smallest_eigenvalue(smallest, dim, seed=dim)
        sym = (matrix + matrix.conj().T) / 2.0
        values = linalg.hermitian_eigen(sym)[0]
        oracle_rejects = float(values[-1]) < -psd_bound(values, dim)
        assert oracle_rejects == (not accepted)
        if accepted:
            validate_density(matrix, shape)
        else:
            with pytest.raises(NotPSD, match="smallest eigenvalue"):
                validate_density(matrix, shape)

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_bound_is_the_rounding_scale(self, dim):
        # c * N * u * lambda_max, about 1e-15 here: a tenth of it passes,
        # ten times it is refused, and the message names both numbers
        shape = QuditShape(2, dim.bit_length() - 1)
        for scale, accepted in [(0.1, True), (10.0, False)]:
            spectrum = np.linspace(1.0, 2.0, dim)
            spectrum /= spectrum.sum()
            smallest = -scale * psd_bound(spectrum, dim)
            matrix = with_smallest_eigenvalue(smallest, dim, seed=dim)
            values = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
            bound = psd_bound(values, dim)
            if accepted:
                validate_density(matrix, shape)
                continue
            with pytest.raises(NotPSD) as caught:
                validate_density(matrix, shape)
            assert str(caught.value) == f"smallest eigenvalue {float(values[0])!r} below -{bound!r}"

    def test_bound_reads_no_tolerance(self):
        # loosening every tolerance leaves the PSD decision as it was
        loose = ToleranceConfig(*[1.0] * len(fields(ToleranceConfig)))
        with pytest.raises(NotPSD):
            validate_density(with_smallest_eigenvalue(-1e-12, 8, seed=8), QuditShape(2, 3), loose)

    def test_validation_does_not_run_jacobi(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("validation called the Jacobi solver")

        monkeypatch.setattr(linalg, "hermitian_eigen", fail)
        validate_density(np.eye(4) / 4, QuditShape(2, 2))
        random_density(2, 3, seed=4)
        random_density(3, 2, seed=5, rank=2)


class TestPureState:
    def test_unit_norm_enforced(self):
        with pytest.raises(NormFailure):
            PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_length_enforced(self):
        with pytest.raises(ShapeMismatch):
            PureState(2, 2, np.array([1.0, 0.0]))

    def test_amplitude_accessor(self):
        state = PureState(2, 2, np.array([0.0, 0.0, 1.0, 0.0]))
        assert amplitude(state, 1, 0) == 1.0
        assert amplitude(state, 0, 1) == 0.0
        assert state.amplitudes.reshape(2, 2)[1, 0] == amplitude(state, 1, 0)


class TestCoefficientMatrix:
    def test_pattern_must_be_bit_zero(self):
        bad = np.full((2, 2), 0.5, dtype=complex)  # C[1][1] must be 0
        with pytest.raises(GaugeViolation):
            CoefficientMatrix(2, bad)
        tiny = np.array([[0.5, 0.5], [0.70710678, 1e-300]], dtype=complex)
        with pytest.raises(GaugeViolation):
            CoefficientMatrix(2, tiny)

    def test_anti_diagonal_reality(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = 0.5j
        c[1, 0] = np.sqrt(0.75)
        with pytest.raises(GaugeViolation):
            CoefficientMatrix(2, c)
        c2 = np.zeros((2, 2), dtype=complex)
        c2[0, 1] = -0.5
        c2[1, 0] = np.sqrt(0.75)
        with pytest.raises(GaugeViolation):
            CoefficientMatrix(2, c2)

    def test_zero_weight_row_exempt(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = 1.0
        coeffs = CoefficientMatrix(2, c)  # row 1 empty: its zero pivot is real and >= 0
        assert coeffs.row_weights()[1] == 0.0

    def test_row_weights(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = np.sqrt(0.5)
        c[1, 0] = np.sqrt(0.5)
        assert np.allclose(CoefficientMatrix(2, c).row_weights(), [0.5, 0.5])


QUBIT = QuditShape(2, 1)
#: psd_fault's eigenvalues are 1.1 and -0.1
PSD_FAULT = np.array([[0.5, 0.6], [0.6, 0.5]])
PSD_FAULT_VALUES = np.linalg.eigvalsh(PSD_FAULT)

#: One fault per input: (constructor, error type, exact message).
SINGLE_FAULTS = {
    "non-finite": (
        lambda: validate_density([[0.5, complex(0.0, np.inf)], [0.0, 0.5]], QUBIT),
        BadRange, "matrix has non-finite entries",
    ),
    "nan": (
        lambda: validate_density([[np.nan, 0.0], [0.0, 0.5]], QUBIT),
        BadRange, "matrix has non-finite entries",
    ),
    "hermitian-overflow": (
        lambda: validate_density([[0.5, 9e307], [9e307, 0.5]], QUBIT),
        BadRange, "matrix entries overflow its Hermitian part",
    ),
    "not-hermitian": (
        lambda: validate_density([[0.5, 1e-3], [0.0, 0.5]], QUBIT),
        NotHermitian, "asymmetry 0.001 exceeds tolerance 1e-10",
    ),
    "trace": (
        lambda: validate_density(np.eye(2), QUBIT),
        TraceDeviation, "trace 2.0 deviates from 1 beyond 1e-10",
    ),
    "not-psd": (
        lambda: validate_density(PSD_FAULT, QUBIT),
        NotPSD, f"smallest eigenvalue {float(PSD_FAULT_VALUES[0])!r} below -{psd_bound(PSD_FAULT_VALUES, 2)!r}",
    ),
    "matrix-shape": (
        lambda: validate_density(np.eye(3) / 3, QUBIT),
        ShapeMismatch, "expected 2x2 matrix, got (3, 3)",
    ),
    "entries-shape": (
        lambda: DensityMatrix(QUBIT, np.eye(3) / 3),
        ShapeMismatch, "expected 2x2 entries, got (3, 3)",
    ),
    "norm": (
        lambda: PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0])),
        NormFailure, "state norm 1.4142135623730951 deviates from 1 beyond tolerance",
    ),
    "norm-complex": (
        lambda: PureState(1, 3, np.array([0.3, 0.4j, -0.5 + 0.1j])),
        NormFailure, "state norm 0.714142842854285 deviates from 1 beyond tolerance",
    ),
    "norm-nan": (
        lambda: PureState(1, 2, np.array([np.nan, 0.0])),
        NormFailure, "state norm nan deviates from 1 beyond tolerance",
    ),
    "amplitude-count": (
        lambda: PureState(2, 2, np.array([1.0, 0.0])),
        ShapeMismatch, "expected 4 amplitudes, got (2,)",
    ),
    "coefficient-shape": (
        lambda: CoefficientMatrix(2, np.zeros((2, 3))),
        ShapeMismatch, "expected 2x2 coefficients, got (2, 3)",
    ),
    "beyond-anti-diagonal": (
        lambda: CoefficientMatrix(2, np.array([[0.6, 0.8], [0.0, 1e-300]], dtype=complex)),
        GaugeViolation, "entries beyond the anti-diagonal must be exactly zero",
    ),
    "beyond-anti-diagonal-imaginary": (
        lambda: CoefficientMatrix(2, np.array([[0.6, 0.8], [0.0, 1e-300j]], dtype=complex)),
        GaugeViolation, "entries beyond the anti-diagonal must be exactly zero",
    ),
    "beyond-anti-diagonal-nan": (
        lambda: CoefficientMatrix(2, np.array([[0.6, 0.8], [0.0, np.nan]], dtype=complex)),
        GaugeViolation, "entries beyond the anti-diagonal must be exactly zero",
    ),
    "anti-diagonal-negative": (
        lambda: CoefficientMatrix(2, np.array([[0.6, -0.8], [0.0, 0.0]], dtype=complex)),
        GaugeViolation, "anti-diagonal entries must be real and nonnegative",
    ),
    "anti-diagonal-imaginary": (
        lambda: CoefficientMatrix(2, np.array([[0.6, 0.8j], [0.0, 0.0]], dtype=complex)),
        GaugeViolation, "anti-diagonal entries must be real and nonnegative",
    ),
    # a light row (weight 1e-14, or NaN) is held to the gauge as any other
    "light-row-negative": (
        lambda: CoefficientMatrix(2, np.array([[0.0, 1.0], [-1e-7, 0.0]], dtype=complex)),
        GaugeViolation, "anti-diagonal entries must be real and nonnegative",
    ),
    "light-row-imaginary": (
        lambda: CoefficientMatrix(2, np.array([[0.0, 1.0], [1e-7j, 0.0]], dtype=complex)),
        GaugeViolation, "anti-diagonal entries must be real and nonnegative",
    ),
    "light-row-nan": (
        lambda: CoefficientMatrix(2, np.array([[0.0, 1.0], [np.nan, 0.0]], dtype=complex)),
        GaugeViolation, "anti-diagonal entries must be real and nonnegative",
    ),
}


class TestSingleFaults:
    """Each validator keeps its error type, message and exit code for an input
    with one fault."""

    @pytest.mark.parametrize("name", SINGLE_FAULTS)
    def test_type_message_and_exit_code(self, name):
        build, error, message = SINGLE_FAULTS[name]
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert caught.value.exit_code == 2

    def test_norm_is_numpys(self):
        # the NormFailure message prints the norm numpy.linalg.norm computes
        for seed in range(20):
            amps = np.random.default_rng(seed).standard_normal((7, 2)) @ [1.0, 1j]
            with pytest.raises(NormFailure) as caught:
                PureState(1, 7, amps)
            assert str(caught.value).split()[2] == repr(float(np.linalg.norm(amps)))

    def test_signed_zeros_pass_the_gauge(self):
        # -0.0 beyond the anti-diagonal is zero, and a -0.0 pivot is not negative
        c = np.array([[0.0, -0.0], [1.0, complex(-0.0, -0.0)]], dtype=complex)
        assert CoefficientMatrix(2, c).row_weights().tolist() == [0.0, 1.0]


class TestNOnlyMasks:
    """The cached N-only masks are read-only, bounded, and equal to the index
    arithmetic they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_match_old_formulations(self, n):
        cols = np.arange(n)
        assert np.array_equal(_strict_lower(n), cols[:, None] > cols[None, :])
        # CoefficientMatrix's cells beyond the anti-diagonal
        assert np.array_equal(_strict_lower(n)[:, ::-1], cols[None, :] > (n - 1 - cols[:, None]))
        # extract_parameters' phase cells: the upper triangle of N - 1 columns
        assert np.array_equal(_strict_lower(n).T[:, 1:], np.triu(np.ones((n, n - 1), dtype=bool)))
        old_cells = np.arange(n - 1)[None, :] < np.arange(n - 1, -1, -1)[:, None]
        assert np.array_equal(_branch_cells(n), old_cells)

    def test_read_only(self):
        for mask in (_strict_lower(5), _strict_lower(5)[:, ::-1], _branch_cells(5)):
            with pytest.raises(ValueError):
                mask[0, 0] = True

    def test_cache_is_bounded(self):
        assert 1 <= _strict_lower.cache_info().maxsize <= 4
        for n in range(1, 12):
            _strict_lower(n)
        assert _strict_lower.cache_info().currsize <= 4


class TestFrozenArrays:
    """The frozen dataclasses copy what a caller could still write to, and
    hold as it is what the package built and froze."""

    def test_writeable_input_is_copied(self):
        entries = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(QuditShape(2, 1), entries)
        entries[0, 0] = 5.0
        assert rho.entries[0, 0] == 0.5 and not np.shares_memory(rho.entries, entries)
        amplitudes = np.array([1.0, 0.0], dtype=complex)
        state = PureState(1, 2, amplitudes)
        amplitudes[0] = 0.0
        assert state.amplitudes[0] == 1.0

    def test_read_only_view_of_writeable_array_is_copied(self):
        # the caller can still write through the base
        entries = np.eye(2, dtype=complex) / 2
        view = entries.view()
        view.flags.writeable = False
        rho = DensityMatrix(QuditShape(2, 1), view)
        entries[0, 0] = 5.0
        assert rho.entries[0, 0] == 0.5 and not np.shares_memory(rho.entries, entries)

    def test_other_dtype_is_copied(self):
        entries = np.eye(2) / 2
        entries.flags.writeable = False
        rho = DensityMatrix(QuditShape(2, 1), entries)
        assert rho.entries.dtype == np.complex128 and not np.shares_memory(rho.entries, entries)

    def test_package_built_arrays_are_shared(self):
        from qpurify import (
            CircuitParameters,
            apply_schedule,
            cholesky_purify,
            coefficients_to_state,
            extract_parameters,
            schedule_from_parameters,
            simulate_circuit,
        )

        rho = random_density(2, 3, seed=4)
        assert np.shares_memory(DensityMatrix(rho.shape, rho.entries).entries, rho.entries)
        valid = validate_density(rho.entries, rho.shape)
        assert np.shares_memory(DensityMatrix(rho.shape, valid.entries).entries, valid.entries)
        coeffs = cholesky_purify(rho)
        assert np.shares_memory(coefficients_to_state(coeffs).amplitudes, coeffs.C)
        params = extract_parameters(coeffs)
        loaded = CircuitParameters.from_branches(
            params.N,
            params.weight_angles,
            [(params.N - k, a[: params.N - 1 - k], p[: params.N - 1 - k]) for k, (a, p) in enumerate(zip(params.angles, params.phases))],
        )
        for built in (params, loaded):
            again = CircuitParameters(built.N, built.weight_angles, built.angles, built.phases)
            assert np.shares_memory(again.angles, built.angles)
            assert np.shares_memory(again.phases, built.phases)
        for state in (simulate_circuit(params, "product"), apply_schedule(schedule_from_parameters(params))):
            again = PureState(state.ancilla_dim, state.system_dim, state.amplitudes)
            assert np.shares_memory(again.amplitudes, state.amplitudes)
