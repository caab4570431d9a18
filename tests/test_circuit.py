import cmath
import math
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from qpurify import (
    GATE,
    CircuitParameters,
    CoefficientMatrix,
    QuditShape,
    ToleranceConfig,
    apply_schedule,
    cholesky_purify,
    coefficients_to_state,
    extract_parameters,
    partial_trace_ancilla,
    random_density,
    schedule_from_parameters,
    simulate_circuit,
    validate_density,
)
from qpurify.circuit import _branch_cells
from qpurify.errors import BadRange, DegenerateBranch, ShapeMismatch
from qpurify.rng import CounterRng

HALF_PI = math.pi / 2


def make_params(n, weight_angles, branch_data):
    branches = [(n - k, a, p) for k, (a, p) in enumerate(branch_data)]
    return CircuitParameters.from_branches(n, weight_angles, branches)


def branch(params, k):
    """Angles and phases of branch k: the first N - 1 - k cells of row k."""
    m = params.N - 1 - k
    return params.angles[k, :m], params.phases[k, :m]


def amplitude(state, alpha, i):
    """Amplitude of |alpha>|i>: the ancilla register is the most significant block."""
    return state.amplitudes.reshape(state.ancilla_dim, state.system_dim)[alpha, i]


def invert_qubit(params):
    """Closed inversion for N=2: C00 = cos(a)cos(t)e^{i p}, C01 = cos(a)sin(t),
    C10 = sin(a), C11 = 0."""
    if params.N != 2:
        raise ShapeMismatch(f"qubit inversion requires N=2, got N={params.N}")
    alpha = float(params.weight_angles[0])
    theta = float(params.angles[0, 0])
    phi = float(params.phases[0, 0])
    c = np.zeros((2, 2), dtype=np.complex128)
    c[0, 0] = math.cos(alpha) * math.cos(theta) * cmath.exp(1j * phi)
    c[0, 1] = math.cos(alpha) * math.sin(theta)
    c[1, 0] = math.sin(alpha)
    return CoefficientMatrix(2, c)


def random_params(n, seed, low=0.15, high=0.8):
    rng = CounterRng(seed)
    span = high - low
    weights = [low + span * rng.uniform() for _ in range(n - 1)]
    branch_data = []
    for k in range(n):
        m = n - k
        angles = [HALF_PI * rng.uniform() for _ in range(m - 1)]
        phases = [2 * math.pi * rng.uniform() * 0.999 for _ in range(m - 1)]
        branch_data.append((angles, phases))
    return make_params(n, weights, branch_data)


def reference_apply(schedule):
    """Gate by gate with math/cmath on numpy slices: the arithmetic that
    apply_schedule must reproduce bit for bit."""
    n = schedule.N
    vec = np.zeros(n * n, dtype=np.complex128)
    vec[0] = 1.0
    for phase, ctrl, a, b, value in schedule.gates.tolist():
        if ctrl < 0:
            ia, ib = slice(a * n, a * n + n), slice(b * n, b * n + n)
        else:
            ia = slice(ctrl * n + a, ctrl * n + a + 1)
            ib = slice(ctrl * n + b, ctrl * n + b + 1)
        if phase:
            # out of place: numpy's complex multiply then takes its vector loop,
            # which fuses a*c - b*d where the CPU has FMA, as apply_schedule's
            # multiply of all N(N-1)/2 phases does from N = 3 on; an in-place
            # multiply of one entry takes the unfused scalar loop, and the two
            # can differ in the sign of an underflowed zero
            vec[ia] = vec[ia] * cmath.exp(-1j * value)
        else:
            c, s = math.cos(value), math.sin(value)
            xa, xb = vec[ia].copy(), vec[ib].copy()
            vec[ia] = c * xa - s * xb
            vec[ib] = s * xa + c * xb
    return vec


def reference_extract(coeffs, eps_pivot=1e-12):
    """One branch at a time, one peeled amplitude at a time, with math/cmath:
    the arithmetic extract_parameters must reproduce bit for bit. Returns the
    weight angles and one (angles, phases) pair per branch."""

    def wrap(value):
        out = float(np.mod(value, 2 * math.pi))
        return 0.0 if out >= 2 * math.pi else out

    n = coeffs.N
    weights = coeffs.row_weights()
    cumulative = np.cumsum(weights)
    weight_angles = np.zeros(n - 1)
    for step in range(1, n):
        remaining = float(cumulative[n - step])
        if remaining > 0.0:
            ratio = min(float(weights[n - step]) / remaining, 1.0)
            weight_angles[step - 1] = math.asin(math.sqrt(ratio))
    branches = []
    for k in range(n):
        dim = n - k
        angles, phases = np.zeros(max(dim - 1, 0)), np.zeros(max(dim - 1, 0))
        branches.append((angles, phases))
        if dim <= 1 or not weights[k] > eps_pivot:
            continue
        work = coeffs.C[k, :dim] / math.sqrt(float(weights[k]))
        for step in range(1, dim):
            j = dim - step
            theta = math.asin(min(abs(complex(work[j])), 1.0))
            angles[step - 1] = theta
            if j < dim - 1:
                phases[j] = wrap(cmath.phase(complex(work[j])))
            cos_theta = math.cos(theta)
            if not cos_theta > eps_pivot:
                if float(np.max(np.abs(work[:j]))) > 1e-8:
                    raise DegenerateBranch("leftover amplitude")
                break
            work[:j] /= cos_theta
        else:
            phases[0] = wrap(cmath.phase(complex(work[0])))
    return weight_angles, branches


def peak_arrays(call, make):
    """Transient tracemalloc peak of ``call(make(rho))`` in N x N complex
    arrays, for the N = 256 rho of the memory bounds; ``make`` runs before
    the tracing starts, and a call at N = 4 warms the caches."""
    call(make(random_density(2, 2, seed=1)))
    rho = random_density(2, 8, seed=1)
    value = make(rho)
    tracemalloc.start()
    try:
        call(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / rho.entries.nbytes


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_extract_matches_reference(coeffs, eps_pivot=1e-12):
    params = extract_parameters(coeffs, ToleranceConfig(eps_pivot=eps_pivot))
    weight_angles, branches = reference_extract(coeffs, eps_pivot)
    assert same_bits(params.weight_angles, weight_angles)
    for k, (angles, phases) in enumerate(branches):
        got_angles, got_phases = branch(params, k)
        assert same_bits(got_angles, angles), k
        assert same_bits(got_phases, phases), k  # signed zeros included
    padding = ~_branch_cells(coeffs.N)
    assert same_bits(params.angles[padding], np.zeros(padding.sum()))
    assert same_bits(params.phases[padding], np.zeros(padding.sum()))


class TestCircuitParameters:
    def test_parameter_count(self):
        for n in (2, 3, 4, 8, 16):
            params = random_params(n, seed=n)
            assert params.parameter_count == n * n - 1

    def test_angle_range_enforced(self):
        with pytest.raises(BadRange):
            make_params(2, [2.0], [([0.1], [0.0]), ([], [])])
        with pytest.raises(BadRange):
            make_params(2, [0.3], [([0.1], [7.0]), ([], [])])

    def test_branch_dimensions_enforced(self):
        with pytest.raises(ShapeMismatch):
            make_params(2, [0.3], [([0.1], [0.0]), ([0.1], [0.0])])

    QUTRIT = ([0.3, 0.2], [([0.1, 0.2], [0.5, 0.6]), ([0.3], [0.7]), ([], [])])

    #: (weight angles, branches 0 and 1 as (dim, angles, phases), error, message) by label
    INVALID = {
        "weight angle": ([2.0, 0.2], None, None, BadRange, "weight angles must lie in [0, pi/2]"),
        "weight count": ([0.3], None, None, ShapeMismatch, "expected 2 weight angles, got (1,)"),
        "negative angle": (None, (3, [0.1, -0.2], [0.5, 0.6]), None, BadRange, "branch angles must lie in [0, pi/2]"),
        "NaN angle": (None, (3, [0.1, math.nan], [0.5, 0.6]), None, BadRange, "branch angles must lie in [0, pi/2]"),
        "phase 2 pi": (None, (3, [0.1, 0.2], [0.5, 2 * math.pi]), None, BadRange, "phases must lie in [0, 2*pi)"),
        "short phases": (None, (3, [0.1, 0.2], [0.5]), None, ShapeMismatch, "branch of dimension 3 needs 2 angles and phases"),
        "branch dimension": (None, None, (3, [0.3, 0.4], [0.7, 0.8]), ShapeMismatch, "branch 1 must have dimension 2"),
    }

    @pytest.mark.parametrize("label", sorted(INVALID))
    def test_validation_messages_and_exit_codes(self, label):
        weights, branch0, branch1, kind, message = self.INVALID[label]
        branches = [branch0 or (3, [0.1, 0.2], [0.5, 0.6]), branch1 or (2, [0.3], [0.7]), (1, [], [])]
        with pytest.raises(kind) as raised:
            CircuitParameters.from_branches(3, weights or self.QUTRIT[0], branches)
        assert str(raised.value) == message
        assert raised.value.exit_code == 2

    def test_branch_count_enforced(self):
        with pytest.raises(ShapeMismatch, match=r"^expected 3 branches, got 2$"):
            CircuitParameters.from_branches(3, [0.3, 0.2], [(3, [0.1, 0.2], [0.5, 0.6]), (2, [0.3], [0.7])])

    def test_array_shapes_enforced(self):
        params = make_params(3, *self.QUTRIT)
        with pytest.raises(ShapeMismatch, match=r"expected 3x2 branch angles and phases"):
            CircuitParameters(3, params.weight_angles, params.angles[:, :1], params.phases)

    def test_nonzero_padding_rejected(self):
        params = make_params(3, *self.QUTRIT)
        for field, row, col in [("angles", 1, 1), ("phases", 2, 0)]:
            arrays = {"angles": params.angles.copy(), "phases": params.phases.copy()}
            arrays[field][row, col] = 0.25
            with pytest.raises(ShapeMismatch, match=rf"^branch {row} has values beyond its {2 - row} angles") as raised:
                CircuitParameters(3, params.weight_angles, **arrays)
            assert raised.value.exit_code == 2

    def test_negative_zero_phases_kept(self):
        # -0.0 lies in [0, 2*pi): it is kept, sign and all, and its gate holds -phase = +0.0
        params = make_params(3, [0.3, 0.2], [([0.1, 0.2], [0.5, -0.0]), ([0.3], [-0.0]), ([], [])])
        assert np.signbit(params.phases[[0, 1], [1, 0]]).all()
        values = schedule_from_parameters(params).gates["value"][[5, 7]]
        assert values.tolist() == [0.0, 0.0] and not np.signbit(values).any()
        # padding written as -0.0 is zero as well
        signed = np.where(params.phases == 0.0, -0.0, params.phases)
        CircuitParameters(3, params.weight_angles, params.angles, signed)

    def test_arrays_read_only(self):
        params = make_params(3, *self.QUTRIT)
        for array in (params.weight_angles, params.angles, params.phases):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestExtractParameters:
    def test_maximally_mixed_qubit(self):
        from qpurify import QuditShape, validate_density

        rho = validate_density(np.eye(2) / 2, QuditShape(2, 1))
        params = extract_parameters(cholesky_purify(rho))
        assert abs(params.weight_angles[0] - math.pi / 4) < 1e-12
        assert abs(params.angles[0, 0] - HALF_PI) < 1e-12
        assert params.phases[0, 0] == 0.0
        assert params.angles[1, 0] == 0.0  # padding: branch 1 has dimension 1

    def test_ground_state_zero_weight_rule(self):
        from qpurify import QuditShape, validate_density

        rho = validate_density(np.diag([1.0, 0.0]), QuditShape(2, 1))
        params = extract_parameters(cholesky_purify(rho))
        assert abs(params.weight_angles[0] - HALF_PI) < 1e-12
        assert params.angles[0, 0] == 0.0
        assert params.phases[0, 0] == 0.0

    def test_plus_state(self):
        from qpurify import QuditShape, validate_density

        rho = validate_density(np.full((2, 2), 0.5), QuditShape(2, 1))
        params = extract_parameters(cholesky_purify(rho))
        assert abs(params.weight_angles[0]) < 1e-7  # row-1 weight is determinant noise
        assert abs(params.angles[0, 0] - math.pi / 4) < 1e-12
        assert params.phases[0, 0] == 0.0

    def test_angles_in_range(self):
        for seed in range(20):
            rho = random_density(2, 2, seed=seed)
            params = extract_parameters(cholesky_purify(rho))
            assert np.all(params.weight_angles >= 0) and np.all(params.weight_angles <= HALF_PI)
            assert np.all(params.angles >= 0) and np.all(params.angles <= HALF_PI)
            assert np.all(params.phases >= 0) and np.all(params.phases < 2 * math.pi)

    def test_degenerate_branch_guard(self):
        # malformed row: its unit last amplitude leaves cos(pi/2) ~ 6e-17 to
        # divide the leftover 1.05e-8 by
        c = np.zeros((3, 3), dtype=complex)
        c[0] = [1.05e-8, 0.0, 1.0]
        with pytest.raises(DegenerateBranch):
            extract_parameters(CoefficientMatrix(3, c))
        with pytest.raises(DegenerateBranch):
            reference_extract(CoefficientMatrix(3, c))

    def test_degenerate_branch_stops(self):
        # a leftover at or below 1e-8 stops the branch: later angles and all
        # phases stay zero
        c = np.zeros((3, 3), dtype=complex)
        c[0] = [0.9e-8, 0.0, 1.0]
        angles, phases = branch(extract_parameters(CoefficientMatrix(3, c)), 0)
        assert angles.tolist() == [HALF_PI, 0.0]
        assert phases.tolist() == [0.0, 0.0]
        assert_extract_matches_reference(CoefficientMatrix(3, c))

    def test_diagonal_rho_stops_every_branch_at_once(self):
        rho = validate_density(np.diag([0.1, 0.2, 0.3, 0.4]), QuditShape(2, 2))
        coeffs = cholesky_purify(rho)
        params = extract_parameters(coeffs)
        for k in range(3):
            angles, phases = branch(params, k)
            assert angles[0] == HALF_PI
            assert not angles[1:].any() and not phases.any()
        assert_extract_matches_reference(coeffs)

    #: (rank, seed) of the inputs the benchmark's CLI sessions purify, by
    #: shape; the rank-16 ones keep 2 and 1 rows of weight in (0, 1e-12]
    CLI_POOL = {(2, 6): [(64, 1000), (16, 1002)], (4, 3): [(64, 1001), (16, 1003)]}

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (2, 6), (4, 3)])
    def test_extract_matches_reference_bit_for_bit(self, d, n):
        size = d**n
        draws = [(rank, 100 * size + seed) for rank in (size, -(-size // 2), 1) for seed in range(3)]
        for rank, seed in draws + self.CLI_POOL.get((d, n), []):
            coeffs = cholesky_purify(random_density(d, n, seed=seed, rank=rank))
            assert_extract_matches_reference(coeffs)
            if rank < size:
                assert_extract_matches_reference(coeffs, eps_pivot=1e-3)

    def test_peak_memory_is_at_most_four_and_a_half_arrays(self):
        # the work matrix, the phase values as complex, as Python complex
        # and as Python floats, and the angles: 4.3 arrays at N = 256.
        # Holding the angles in a list as well would add half an array.
        peak = peak_arrays(extract_parameters, cholesky_purify)
        assert peak <= 4.5, peak

    def test_extract_matches_reference_with_gaps_and_stops(self):
        # a zero-weight row between weighted ones, and branches that stop
        # part way (an angle of pi/2 leaves cos(pi/2) ~ 6e-17 to divide by)
        rho = validate_density(np.diag([0.25, 0.25, 0.0, 0.5]), QuditShape(2, 2))
        assert_extract_matches_reference(cholesky_purify(rho))
        # a rank-3 random block beside a diagonal block with zeros: zero-weight
        # rows, stopped branches and full branches in one matrix
        block = random_density(2, 3, seed=7, rank=3).entries
        diagonal = np.diag([0.3, 0.0, 0.2, 0.1, 0.0, 0.25, 0.15, 0.0])
        for blocks in ([block, diagonal], [diagonal, block]):
            mixed = np.zeros((16, 16), dtype=complex)
            mixed[:8, :8], mixed[8:, 8:] = blocks
            coeffs = cholesky_purify(validate_density(mixed / np.trace(mixed).real, QuditShape(2, 4)))
            assert_extract_matches_reference(coeffs)
            assert_extract_matches_reference(coeffs, eps_pivot=1e-3)
        for n, seed in [(3, 1), (5, 2), (8, 3), (16, 4)]:
            params = random_params(n, seed)
            weights = params.weight_angles.copy()
            weights[seed % (n - 1)] = 0.0  # one zero-weight branch
            # angle k % 3 of every odd branch k that has it
            rows = np.arange(n)[:, None]
            stops = (rows % 2 == 1) & (np.arange(n - 1) == rows % 3) & _branch_cells(n)
            angles = np.where(stops, HALF_PI, params.angles)
            state = simulate_circuit(CircuitParameters(n, weights, angles, params.phases))
            coeffs = CoefficientMatrix(n, state.amplitudes.reshape(n, n))
            assert_extract_matches_reference(coeffs)
            assert_extract_matches_reference(coeffs, eps_pivot=1e-3)


#: A part of a coefficient: a signed zero often, else a normal double.
PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))

#: Unit entries with signed-zero parts, the spikes of stopping rows.
UNITS = [(1.0, 0.0), (1.0, -0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, 1.0), (-0.0, -1.0)]


@st.composite
def signed_zero_coefficients(draw):
    """Gauge-valid C, rows not normalized, with signed-zero real and imaginary
    parts, zero rows, and rows that stop: one unit entry with a leftover of
    at most 1e-9 (a stop) or up to about 1e-7 (possibly DegenerateBranch)."""
    n = draw(st.integers(2, 12))
    c = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        m = n - k
        parts = np.array(draw(st.lists(PARTS, min_size=2 * m, max_size=2 * m)))
        kind = draw(st.sampled_from(["dense", "dense", "zero", "stop"]))
        if kind == "zero":
            parts = np.copysign(0.0, parts)
        elif kind == "stop":
            parts *= draw(st.sampled_from([1e-10, 2.5e-8]))
            spike = 2 * draw(st.integers(0, m - 1))
            parts[spike : spike + 2] = draw(st.sampled_from(UNITS))
        parts *= draw(st.sampled_from([1e-3, 1.0, 37.0]))
        # the last entry is real and nonnegative; a zero part keeps its sign
        parts[-2] = abs(parts[-2]) if parts[-2] else parts[-2]
        parts[-1] = np.copysign(0.0, parts[-1])
        c[k, :m] = parts.view(np.complex128)
    return c


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(signed_zero_coefficients(), st.sampled_from([1e-12, 1e-3]))
def test_extract_matches_reference_on_signed_zeros(c, eps_pivot):
    # each step scales the float view by 1/cos, after one sign step; numpy's
    # complex quotient, which the reference uses, clears signed zeros as it goes
    coeffs = CoefficientMatrix(len(c), c)
    try:
        reference_extract(coeffs, eps_pivot)
    except DegenerateBranch:
        with pytest.raises(DegenerateBranch):
            extract_parameters(coeffs, ToleranceConfig(eps_pivot=eps_pivot))
        return
    assert_extract_matches_reference(coeffs, eps_pivot)


class TestSimulateCircuit:
    def test_all_zero_parameters(self):
        params = make_params(3, [0.0, 0.0], [([0.0] * 2, [0.0] * 2), ([0.0], [0.0]), ([], [])])
        for mode in ("product", "gates"):
            state = simulate_circuit(params, mode=mode)
            assert state.amplitudes[0] == 1.0
            assert np.count_nonzero(state.amplitudes) == 1

    def test_qubit_product_formula(self):
        alpha, theta, phi = 0.33, 0.71, 2.2
        params = make_params(2, [alpha], [([theta], [phi]), ([], [])])
        state = simulate_circuit(params)
        expected = np.array(
            [
                math.cos(alpha) * math.cos(theta) * cmath.exp(1j * phi),
                math.cos(alpha) * math.sin(theta),
                math.sin(alpha),
                0.0,
            ]
        )
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    def test_qutrit_coefficient_map(self):
        a1, a2 = 0.41, 0.93
        t1, t2, t3 = 0.55, 1.2, 0.77
        p1, p2, p3 = 0.3, 4.0, 5.5
        params = make_params(3, [a1, a2], [([t1, t2], [p1, p2]), ([t3], [p3]), ([], [])])
        state = simulate_circuit(params)
        ca1, sa1 = math.cos(a1), math.sin(a1)
        ca2, sa2 = math.cos(a2), math.sin(a2)
        expected = {
            (0, 0): ca1 * ca2 * math.cos(t1) * math.cos(t2) * cmath.exp(1j * p1),
            (0, 1): ca1 * ca2 * math.cos(t1) * math.sin(t2) * cmath.exp(1j * p2),
            (0, 2): ca1 * ca2 * math.sin(t1),
            (1, 0): ca1 * sa2 * math.cos(t3) * cmath.exp(1j * p3),
            (1, 1): ca1 * sa2 * math.sin(t3),
            (1, 2): 0.0,
            (2, 0): sa1,
            (2, 1): 0.0,
            (2, 2): 0.0,
        }
        for (k, i), value in expected.items():
            assert abs(amplitude(state, k, i) - value) < 1e-14, (k, i)

    def test_modes_agree(self):
        for n, seed in [(2, 1), (3, 2), (4, 3), (8, 4)]:
            params = random_params(n, seed)
            product = simulate_circuit(params, mode="product")
            gates = simulate_circuit(params, mode="gates")
            assert np.max(np.abs(product.amplitudes - gates.amplitudes)) <= 1e-12

    def test_unknown_mode(self):
        with pytest.raises(BadRange):
            simulate_circuit(random_params(2, 9), mode="exact")


class TestGatesAndApply:
    def test_qubit_gate_sequence(self):
        alpha, theta, phi = 0.4, 0.9, 1.1
        params = make_params(2, [alpha], [([theta], [phi]), ([], [])])
        schedule = schedule_from_parameters(params)
        # rows: (phase, control, a, b, value); control -1 is the ancilla register
        assert schedule.gates.dtype == GATE
        assert schedule.gates.tolist() == [
            (False, -1, 0, 1, alpha),
            (False, 0, 0, 1, theta),
            (True, 0, 0, 0, -phi),
        ]

    def test_apply_matches_reference_bit_for_bit(self):
        cases = [random_params(n, seed=60 + n) for n in (2, 3, 5, 8)]
        # zero angles and phases exercise the signed zeros the state files print
        cases.append(make_params(3, [0.0, HALF_PI], [([0.0, 0.7], [0.0, 2.0]), ([HALF_PI], [0.0]), ([], [])]))
        # many rotation levels, each a step over many branches
        cases += [random_params(n, seed=60 + n) for n in (16, 64)]
        for params in cases:
            schedule = schedule_from_parameters(params)
            got = apply_schedule(schedule).amplitudes
            assert np.array_equal(got.view(np.uint64), reference_apply(schedule).view(np.uint64))

    def test_peak_memory_is_at_most_four_and_a_half_arrays(self):
        # the complex cos and sin columns, the state and the phase step's
        # gather of its lines: 3.6 arrays at N = 256. Keeping the float value
        # column, with index tables and gathers of cos and sin in table
        # order, would add 1.5 more.
        peak = peak_arrays(apply_schedule, lambda rho: extract_parameters(cholesky_purify(rho)))
        assert peak <= 4.5, peak

    def test_schedule_is_its_parameters(self):
        params = random_params(5, seed=45)
        schedule = schedule_from_parameters(params)
        assert schedule is params  # not wrapped, copied or rebuilt
        assert not schedule.gates.flags.writeable
        with pytest.raises(AttributeError):
            schedule.gates = schedule.gates

    def test_one_gate_per_parameter(self):
        for n in (2, 3, 4, 6):
            params = random_params(n, seed=40 + n)
            assert len(schedule_from_parameters(params).gates) == n * n - 1

    def test_all_zero_schedule(self):
        params = make_params(2, [0.0], [([0.0], [0.0]), ([], [])])
        state = apply_schedule(schedule_from_parameters(params))
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_two_qubit_zero_pattern_and_agreement(self):
        params = random_params(4, seed=77)
        state = apply_schedule(schedule_from_parameters(params))
        product = simulate_circuit(params)
        assert np.max(np.abs(state.amplitudes - product.amplitudes)) <= 1e-10
        # gauge zeros: row 1 col 3, row 2 cols 2-3, row 3 cols 1-3
        for alpha in range(4):
            for i in range(4 - alpha, 4):
                assert amplitude(state, alpha, i) == 0.0


#: Weight and branch angles: exact 0 and pi/2 often, else anything in range.
ANGLES = st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI))
#: Phases: exact 0 often, else anything in [0, 2 pi).
PHASES = st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi, exclude_max=True))


@st.composite
def drawn_parameters(draw):
    n = draw(st.integers(2, 12))
    cells = _branch_cells(n)
    count = int(cells.sum())
    angles, phases = np.zeros((2, n, n - 1))
    angles[cells] = draw(st.lists(ANGLES, min_size=count, max_size=count))
    phases[cells] = draw(st.lists(PHASES, min_size=count, max_size=count))
    weights = draw(st.lists(ANGLES, min_size=n - 1, max_size=n - 1))
    return CircuitParameters(n, weights, angles, phases)


def underflowing_phase():
    """N = 11 with weight angle 7 the least subnormal and phase (3, 0) = 4.5:
    line (3, 0) holds 5e-324 when its phase multiplies it, and the real part
    of the product underflows to a zero whose sign depends on the rounding."""
    weights, (angles, phases) = np.zeros(10), np.zeros((2, 11, 10))
    weights[7], phases[3, 0] = 5e-324, 4.5
    return CircuitParameters(11, weights, angles, phases)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(drawn_parameters())
@hypothesis.example(underflowing_phase())
def test_apply_matches_reference_on_drawn_parameters(params):
    # the fixed step order reorders only commuting gates: the bits of the
    # gate-by-gate walk in table order, signed zeros included
    schedule = schedule_from_parameters(params)
    assert same_bits(apply_schedule(schedule).amplitudes, reference_apply(schedule))


class TestInvertQubit:
    def test_maximally_mixed(self):
        params = make_params(2, [math.pi / 4], [([HALF_PI], [0.0]), ([], [])])
        c = invert_qubit(params).C
        sq = math.sqrt(0.5)
        assert abs(c[0, 1] - sq) < 1e-12 and abs(c[1, 0] - sq) < 1e-12
        assert abs(c[0, 0]) < 1e-15

    def test_origin(self):
        params = make_params(2, [0.0], [([0.0], [0.0]), ([], [])])
        c = invert_qubit(params).C
        assert c[0, 0] == 1.0 and c[0, 1] == 0.0 and c[1, 0] == 0.0

    def test_ancilla_excited(self):
        params = make_params(2, [HALF_PI], [([0.0], [0.0]), ([], [])])
        c = invert_qubit(params).C
        assert abs(c[1, 0] - 1.0) < 1e-15
        assert abs(c[0, 0]) < 1e-15

    def test_matches_simulation(self):
        params = make_params(2, [0.37], [([1.02], [3.3]), ([], [])])
        state = simulate_circuit(params)
        assert np.max(np.abs(invert_qubit(params).C.reshape(-1) - state.amplitudes)) < 1e-15

    def test_rejects_other_sizes(self):
        with pytest.raises(ShapeMismatch):
            invert_qubit(random_params(3, seed=2))


class TestRoundTrips:
    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (4, 2)])
    def test_round_trip_a_partial_trace(self, d, n):
        for seed in range(10):
            rho = random_density(d, n, seed=seed)
            state = simulate_circuit(extract_parameters(cholesky_purify(rho)))
            err = np.max(np.abs(partial_trace_ancilla(state) - rho.entries))
            assert err <= 1e-10, (d, n, seed, err)

    def test_round_trip_b_amplitudes(self):
        for d, n, seed in [(2, 1, 0), (3, 1, 1), (2, 2, 2), (4, 1, 3), (2, 3, 4)]:
            rho = random_density(d, n, seed=seed)
            dim = rho.shape.N
            mixed = 0.9 * rho.entries + 0.1 * np.eye(dim) / dim
            from qpurify import validate_density

            coeffs = cholesky_purify(validate_density(mixed, rho.shape))
            assert np.min(coeffs.row_weights()) > 1e-8
            state = simulate_circuit(extract_parameters(coeffs))
            target = coefficients_to_state(coeffs)
            assert np.max(np.abs(state.amplitudes - target.amplitudes)) <= 1e-10

    #: Full-rank diagonal rho with a small real coherence at [0, N-1]: the
    #: last peel takes asin|v| with 1 - |v| ~ eps^2/2 at or below the unit
    #: roundoff and divides by its cosine, so the coherence is lost (the
    #: 5.25e-9 case raises DegenerateBranch)
    NEARLY_DIAGONAL = [
        (3, 1, [0.3, 0.2, 0.5], 5e-10),
        (3, 1, [0.3, 0.2, 0.5], 5.25e-9),
        (3, 1, [0.3, 0.2, 0.5], 1e-8),
        (2, 2, [0.1, 0.2, 0.3, 0.4], 4e-9),
    ]

    @pytest.mark.xfail(strict=True, reason="angles from a running division (ROADMAP item 3)")
    @pytest.mark.parametrize("d,n,diagonal,corner", NEARLY_DIAGONAL)
    def test_circuit_keeps_a_small_coherence(self, d, n, diagonal, corner):
        matrix = np.diag(np.array(diagonal, dtype=complex))
        matrix[0, -1] = matrix[-1, 0] = corner
        coeffs = cholesky_purify(validate_density(matrix, QuditShape(d, n)))
        state = apply_schedule(extract_parameters(coeffs))
        deviation = np.max(np.abs(state.amplitudes - coefficients_to_state(coeffs).amplitudes))
        assert deviation <= ToleranceConfig().eps_recon

    def test_params_to_coeffs_to_params(self):
        # a circuit state reinterpreted as coefficients extracts back to
        # the same parameters when every weight is substantial
        from qpurify import CoefficientMatrix

        params = random_params(4, seed=11)
        state = simulate_circuit(params)
        coeffs = CoefficientMatrix(4, state.amplitudes.reshape(4, 4))
        again = extract_parameters(coeffs)
        assert np.max(np.abs(again.weight_angles - params.weight_angles)) < 1e-10
        assert np.max(np.abs(again.angles - params.angles)) < 1e-10
        assert np.max(np.abs(again.phases - params.phases)) < 1e-8
