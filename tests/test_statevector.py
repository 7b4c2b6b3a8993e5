"""Dense statevector engine tests."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bellsim import dsl
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import (
    DimensionError,
    InputError,
    NormalizationError,
    ObservableError,
    ProjectionError,
    QubitIndexError,
    SizeError,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return sv.StateVector(num_qubits, raw / np.linalg.norm(raw))


def test_zero_state_amplitudes():
    state = sv.zero_state(3)
    assert state.num_qubits == 3
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected)


def test_bell_state_amplitudes():
    np.testing.assert_allclose(sv.bell_psi_plus().amplitudes, [0, SQRT1_2, SQRT1_2, 0])
    np.testing.assert_allclose(sv.bell_phi_plus().amplitudes, [SQRT1_2, 0, 0, SQRT1_2])


def test_product_state_kron_order():
    # qubit 0 is the leftmost tensor factor: (a|0>+b|1>) (x) |1>
    state = sv.product_state([(0.6, 0.8), (0.0, 1.0)])
    np.testing.assert_allclose(state.amplitudes, [0.0, 0.6, 0.0, 0.8])


def test_product_state_rejects_unnormalized_factor():
    with pytest.raises(NormalizationError):
        sv.product_state([(1.0, 1.0)])


def test_product_state_factor_whose_norm_overflows_warns_nothing():
    # Finite amplitudes whose squares overflow: the norm reads inf, with no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormalizationError, match="factor 0 has norm inf, expected 1"):
            sv.product_state([(1e308, 0), (1, 0)])


def test_product_state_checks_the_size_before_building_the_product(monkeypatch):
    def no_kron(*args):
        raise AssertionError("the product was built before the size was checked")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(SizeError):
        sv.product_state([(1, 0)] * 13)


def test_prepare_named_dispatch():
    assert sv.prepare_named("zero_n", num_qubits=2).num_qubits == 2
    np.testing.assert_allclose(
        sv.prepare_named("psi_plus").amplitudes, sv.bell_psi_plus().amplitudes
    )
    np.testing.assert_allclose(
        sv.prepare_named("phi_plus").amplitudes, sv.bell_phi_plus().amplitudes
    )
    prod = sv.prepare_named("product", factors=[(1.0, 0.0), (0.0, 1.0)])
    np.testing.assert_allclose(prod.amplitudes, [0, 1, 0, 0])
    with pytest.raises(InputError):
        sv.prepare_named("product")
    with pytest.raises(InputError):
        sv.prepare_named("w_state")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(InputError):
        sv.StateVector(2, np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(InputError):
        sv.StateVector(1, np.array([1.0, bad]))


def test_state_validation_errors():
    with pytest.raises(NormalizationError):
        sv.StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        sv.StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(SizeError):
        sv.zero_state(sv.MAX_QUBITS + 1)
    with pytest.raises(SizeError):
        sv.zero_state(0)


def test_amplitudes_are_read_only():
    state = sv.zero_state(1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_gateop_validation():
    with pytest.raises(InputError):
        sv.gate("Q", 0)
    with pytest.raises(InputError):
        sv.gate("H", 0, angle=1.0)
    with pytest.raises(InputError):
        sv.gate("RZ", 0)
    with pytest.raises(QubitIndexError):
        sv.gate("CNOT", 1, 1)
    with pytest.raises(QubitIndexError):
        sv.gate("H", -1)
    with pytest.raises(QubitIndexError):
        sv.gate("H", 0, 1)
    with pytest.raises(QubitIndexError):
        sv.gate("CNOT", 0)


def test_hadamard_and_pauli_matrices():
    plus = sv.apply(sv.zero_state(1), "H", 0)
    np.testing.assert_allclose(plus.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)
    one = sv.apply(sv.zero_state(1), "X", 0)
    np.testing.assert_allclose(one.amplitudes, [0, 1], atol=1e-15)
    s_plus = sv.apply(plus, "S", 0)
    np.testing.assert_allclose(s_plus.amplitudes, [SQRT1_2, 1j * SQRT1_2], atol=1e-15)
    t_plus = sv.apply(plus, "T", 0)
    np.testing.assert_allclose(
        t_plus.amplitudes, [SQRT1_2, np.exp(1j * math.pi / 4) * SQRT1_2], atol=1e-15
    )


def test_sdg_tdg_are_inverses():
    state = random_state(1, 11)
    for kind, inv in (("S", "SDG"), ("T", "TDG")):
        back = sv.apply(sv.apply(state, kind, 0), inv, 0)
        assert abs(sv.fidelity(back, state) - 1.0) < 1e-12


def test_rotation_matrix_special_angles():
    # rz(pi/2) equals S up to the global phase exp(-i pi/4)
    rz = sv.rotation_matrix("RZ", math.pi / 2)
    np.testing.assert_allclose(
        rz * np.exp(1j * math.pi / 4), sv.FIXED_GATES["S"], atol=1e-12
    )
    rx = sv.rotation_matrix("RX", math.pi)
    np.testing.assert_allclose(rx, -1j * sv.FIXED_GATES["X"], atol=1e-12)
    ry = sv.rotation_matrix("RY", 2 * math.pi)
    np.testing.assert_allclose(ry, -np.eye(2), atol=1e-12)


def test_cnot_and_cz_truth_tables():
    # CNOT(0, 1) on |10> flips the target to |11>
    one_zero = sv.product_state([(0, 1), (1, 0)])
    flipped = sv.apply(one_zero, "CNOT", 0, 1)
    np.testing.assert_allclose(flipped.amplitudes, [0, 0, 0, 1], atol=1e-15)
    # CZ is symmetric and phases only |11>
    plus_plus = sv.product_state([(SQRT1_2, SQRT1_2), (SQRT1_2, SQRT1_2)])
    cz_ab = sv.apply(plus_plus, "CZ", 0, 1)
    cz_ba = sv.apply(plus_plus, "CZ", 1, 0)
    np.testing.assert_allclose(cz_ab.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(cz_ab.amplitudes, cz_ba.amplitudes, atol=1e-15)


def test_bell_circuit():
    state = sv.apply(sv.apply(sv.zero_state(2), "H", 0), "CNOT", 0, 1)
    np.testing.assert_allclose(state.amplitudes, sv.bell_phi_plus().amplitudes, atol=1e-15)


def test_norm_preserved_under_random_circuits():
    rng = np.random.default_rng(7)
    kinds_1q = ["H", "X", "Y", "Z", "S", "SDG", "T", "TDG"]
    for trial in range(50):
        n = int(rng.integers(1, 5))
        state = random_state(n, 100 + trial)
        for _ in range(int(rng.integers(1, 30))):
            roll = rng.random()
            if n >= 2 and roll < 0.3:
                q1, q2 = map(int, rng.choice(n, size=2, replace=False))
                state = sv.apply(state, "CNOT" if roll < 0.15 else "CZ", q1, q2)
            elif roll < 0.7:
                state = sv.apply(state, kinds_1q[int(rng.integers(0, 8))], int(rng.integers(0, n)))
            else:
                kind = sv.ROTATION_GATES[int(rng.integers(0, 3))]
                state = sv.apply(
                    state, kind, int(rng.integers(0, n)), angle=float(rng.uniform(-7, 7))
                )
        assert abs(state.norm() - 1.0) < 1e-10


def test_project_qubit_probabilities():
    state = sv.apply(sv.zero_state(2), "H", 0)
    p0, collapsed0 = sv.project_qubit(state, 0, 0)
    assert abs(p0 - 0.5) < 1e-12
    np.testing.assert_allclose(collapsed0.amplitudes, [1, 0, 0, 0], atol=1e-15)
    p1, collapsed1 = sv.project_qubit(state, 0, 1)
    assert abs(p1 - 0.5) < 1e-12
    np.testing.assert_allclose(collapsed1.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_project_impossible_outcome():
    with pytest.raises(ProjectionError):
        sv.project_qubit(sv.zero_state(1), 0, 1)
    with pytest.raises(ProjectionError):
        sv.project_qubit(sv.zero_state(1), 0, 2)


def test_measure_qubit_deterministic_cases():
    rng = np.random.default_rng(0)
    outcome, prob, collapsed = sv.measure_qubit(sv.zero_state(1), 0, rng)
    assert outcome == 0 and abs(prob - 1.0) < 1e-12
    one = sv.apply(sv.zero_state(1), "X", 0)
    outcome, prob, _ = sv.measure_qubit(one, 0, rng)
    assert outcome == 1 and abs(prob - 1.0) < 1e-12


def test_measure_qubit_is_seeded_and_unbiased():
    state = sv.apply(sv.zero_state(1), "H", 0)
    first = [sv.measure_qubit(state, 0, np.random.default_rng(s))[0] for s in range(200)]
    again = [sv.measure_qubit(state, 0, np.random.default_rng(s))[0] for s in range(200)]
    assert first == again
    assert 60 < sum(first) < 140


def test_expectation_requires_hermitian():
    state = sv.bell_psi_plus()
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ObservableError):
        sv.expectation(state, bad, np.eye(2))
    with pytest.raises(ObservableError):
        sv.expectation(state, np.eye(3), np.eye(2))


def test_expectation_of_pauli_pairs():
    x = sv.FIXED_GATES["X"]
    z = sv.FIXED_GATES["Z"]
    assert abs(sv.expectation(sv.bell_phi_plus(), x, x) - 1.0) < 1e-12
    assert abs(sv.expectation(sv.bell_phi_plus(), z, z) - 1.0) < 1e-12
    assert abs(sv.expectation(sv.bell_psi_plus(), z, z) + 1.0) < 1e-12


def test_reduced_density_of_bell_state():
    rho = sv.reduced_density(sv.bell_psi_plus(), 0)
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
    pure = sv.reduced_density(sv.product_state([(0.6, 0.8), (1, 0)]), 0)
    np.testing.assert_allclose(pure, np.array([[0.36, 0.48], [0.48, 0.64]]), atol=1e-12)


def test_fidelity_pure_pure():
    a = sv.zero_state(1)
    b = sv.apply(a, "H", 0)
    assert abs(sv.fidelity(a, a) - 1.0) < 1e-12
    assert abs(sv.fidelity(a, b) - 0.5) < 1e-12
    assert sv.fidelity(a, sv.apply(a, "X", 0)) < 1e-12


def test_fidelity_pure_vs_density():
    state = sv.product_state([(0.6, 0.8), (1, 0)])
    rho = sv.reduced_density(state, 0)
    single = sv.StateVector(1, np.array([0.6, 0.8]))
    assert abs(sv.fidelity(single, rho) - 1.0) < 1e-12
    assert abs(sv.fidelity(rho, single) - 1.0) < 1e-12
    maximally_mixed = sv.reduced_density(sv.bell_psi_plus(), 1)
    assert abs(sv.fidelity(single, maximally_mixed) - 0.5) < 1e-12


@pytest.mark.parametrize(
    "rho",
    [
        np.diag([5.0, -3.0]),  # unit trace, negative eigenvalue
        np.eye(2),  # trace 2
        np.array([[0.5, 0.5], [0.0, 0.5]]),  # not Hermitian
        np.array([[1.0, math.nan], [math.nan, 0.0]]),
        np.diag([1.0 + 1e-9, -1e-9]),
    ],
)
def test_fidelity_rejects_non_physical_density(rho):
    with pytest.raises(InputError):
        sv.fidelity(rho, sv.reduced_density(sv.bell_psi_plus(), 0))
    with pytest.raises(InputError):
        sv.fidelity(sv.zero_state(1), rho)


def test_fidelity_density_density():
    mixed = sv.reduced_density(sv.bell_psi_plus(), 0)
    assert abs(sv.fidelity(mixed, mixed) - 1.0) < 1e-12
    zero = sv.reduced_density(sv.zero_state(2), 0)
    one = sv.reduced_density(sv.apply(sv.zero_state(2), "X", 0), 0)
    assert sv.fidelity(zero, one) < 1e-12
    assert abs(sv.fidelity(zero, mixed) - 0.5) < 1e-12


def test_tensor_view_shape():
    assert sv.zero_state(3).tensor().shape == (2, 2, 2)


@pytest.mark.parametrize(
    "kind, qubits, angle, error",
    [
        ("FOO", (0,), None, InputError),
        ("RZ", (0,), None, InputError),
        ("H", (0,), 1.0, InputError),
        ("H", (0, 1), None, QubitIndexError),
        ("CNOT", (0,), None, QubitIndexError),
        ("CZ", (0, 1, 2), None, QubitIndexError),
        ("CNOT", (1, 1), None, QubitIndexError),
        ("H", (2,), None, QubitIndexError),
        ("RX", (2,), 0.5, QubitIndexError),
        ("H", (-1,), None, QubitIndexError),
        ("CZ", (0, 2), None, QubitIndexError),
        ("CNOT", (-1, 0), None, QubitIndexError),
        ("H", (0.5,), None, QubitIndexError),
        ("H", (1.0,), None, QubitIndexError),
        ("X", (True,), None, QubitIndexError),
        ("CNOT", (0, True), None, QubitIndexError),
        ("CZ", (0.0, 1), None, QubitIndexError),
        ("H", ("0",), None, QubitIndexError),
        ("RZ", (0,), math.nan, InputError),
        ("RX", (0,), math.inf, InputError),
        (1, (0,), None, InputError),
        (["H"], (0,), None, InputError),
        ("RZ", (0,), "0.3", InputError),
        ("RZ", (0,), 1j, InputError),
    ],
)
def test_apply_error_classes(kind, qubits, angle, error):
    state = sv.zero_state(2)
    with pytest.raises(error):
        sv.apply(state, kind, *qubits, angle=angle)
    circuit = dsl.Circuit(2, (dsl.Instruction(kind, qubits, angle),))
    with pytest.raises(error):
        dsl._execute(circuit, state, None)


@pytest.mark.parametrize("q", [2, -1, 0.5, 1.0, True, "0", None])
def test_measure_error_classes(q):
    state = sv.zero_state(2)
    rng = np.random.default_rng(0)
    with pytest.raises(QubitIndexError):
        sv.measure_qubit(state, q, rng)
    with pytest.raises(QubitIndexError):
        sv.project_qubit(state, q, 0)
    tableau = st.init_zero(2)
    with pytest.raises(QubitIndexError):
        st.measure_z(tableau, q, rng)
    with pytest.raises(QubitIndexError):
        st.measure_z_forced(tableau, q, 0)
    circuit = dsl.Circuit(2, (dsl.Instruction("MEASURE", (q,)),))
    for start in (state, tableau):
        with pytest.raises(QubitIndexError):
            dsl._execute(circuit, start, rng)
        with pytest.raises(QubitIndexError):
            dsl._execute(circuit, start, None, [0])


@pytest.mark.parametrize(
    "qubits, angle, error",
    [((0, 1), None, QubitIndexError), ((), None, QubitIndexError), ((0,), 1.0, InputError)],
)
def test_measure_instruction_error_classes(qubits, angle, error):
    circuit = dsl.Circuit(2, (dsl.Instruction("MEASURE", qubits, angle),))
    for start in (sv.zero_state(2), st.init_zero(2)):
        with pytest.raises(error):
            dsl._execute(circuit, start, np.random.default_rng(0))
        with pytest.raises(error):
            dsl._execute(circuit, start, None, [0])


def test_numpy_integer_qubits_are_accepted():
    state = sv.apply(sv.zero_state(2), "H", np.int64(1))
    assert sv.gate("CNOT", np.int32(1), np.int64(0)).qubits == (1, 0)
    np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2, 0, 0], atol=1e-15)


# -- kernel oracle ---------------------------------------------------------------
#
# The kernels update reshape views of the amplitude array in place.  The
# reference below builds every gate as a full 2**n x 2**n matrix from Kronecker
# products of 2x2 factors written out here, independent of the engine's tables.

R2 = 1.0 / math.sqrt(2.0)
REF_FIXED = {
    "H": [[R2, R2], [R2, -R2]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "SDG": [[1, 0], [0, -1j]],
    "T": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    "TDG": [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
}
KET = {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}
ONE_QUBIT_KINDS = (*REF_FIXED, "RX", "RY", "RZ")
ALL_KINDS = (*ONE_QUBIT_KINDS, "CNOT", "CZ")


def ref_two_by_two(kind, angle):
    if kind in REF_FIXED:
        return np.array(REF_FIXED[kind], dtype=complex)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)])


def ref_embed(n, factors):
    """Kronecker product over qubits 0..n-1 (qubit 0 leftmost) of ``factors[q]``, else I."""
    full = np.eye(1)
    for q in range(n):
        full = np.kron(full, factors.get(q, np.eye(2)))
    return full


def ref_gate(n, kind, qubits, angle=None):
    if kind == "CNOT":
        c, t = qubits
        return ref_embed(n, {c: KET[0]}) + ref_embed(n, {c: KET[1], t: ref_two_by_two("X", None)})
    if kind == "CZ":
        a, b = qubits
        return np.eye(2**n) - 2 * ref_embed(n, {a: KET[1], b: KET[1]})
    return ref_embed(n, {qubits[0]: ref_two_by_two(kind, angle)})


def placements(n, kind):
    """Every qubit, or every ordered pair of distinct qubits (control above and below)."""
    if kind in ("CNOT", "CZ"):
        return [(a, b) for a in range(n) for b in range(n) if a != b]
    return [(q,) for q in range(n)]


states = hs.tuples(hs.integers(1, 6), hs.integers(0, 2**32 - 1)).map(
    lambda case: random_state(*case)
)
angles = hs.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(states, hs.sampled_from(ALL_KINDS), angles)
def test_gate_kernels_match_kronecker_reference(state, kind, angle):
    n = state.num_qubits
    before = state.amplitudes.copy()
    angle = angle if kind in sv.ROTATION_GATES else None
    for qubits in placements(n, kind):
        got = sv.apply(state, kind, *qubits, angle=angle).amplitudes
        want = ref_gate(n, kind, qubits, angle) @ before
        assert np.abs(got - want).max() < 1e-12, (kind, qubits)
    assert np.array_equal(state.amplitudes, before)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(states, hs.integers(0, 2**32 - 1))
def test_measure_kernels_match_projector_reference(state, seed):
    n = state.num_qubits
    before = state.amplitudes.copy()
    for q in range(n):
        probs = {}
        for outcome in (0, 1):
            projected = ref_embed(n, {q: KET[outcome]}) @ before
            probs[outcome] = float(np.vdot(projected, projected).real)
            if probs[outcome] < sv.PROJECTION_EPS:
                with pytest.raises(ProjectionError):
                    sv.project_qubit(state, q, outcome)
                continue
            prob, collapsed = sv.project_qubit(state, q, outcome)
            assert abs(prob - probs[outcome]) < 1e-12
            want = projected / math.sqrt(probs[outcome])
            assert np.abs(collapsed.amplitudes - want).max() < 1e-12
        want_outcome = 1 if np.random.default_rng(seed).random() < probs[1] else 0
        outcome, prob, _ = sv.measure_qubit(state, q, np.random.default_rng(seed))
        assert outcome == want_outcome
        assert abs(prob - probs[outcome]) < 1e-12
    assert np.array_equal(state.amplitudes, before)


steps = hs.lists(
    hs.tuples(
        hs.sampled_from((*ALL_KINDS, "MEASURE", "MEASURE")),
        hs.integers(0, 5),
        hs.integers(1, 5),
        angles,
        hs.integers(0, 1),
    ),
    max_size=30,
)


def public_chain(circuit, state, rng, forced):
    """The circuit through the public pure functions, one call per instruction."""
    outcomes, probs = [], []
    for ins in circuit.instructions:
        if ins.opcode != "MEASURE":
            state = sv.apply_gate(state, sv.GateOp(ins.opcode, ins.qubit_args, ins.angle))
        elif forced is None:
            outcome, prob, state = sv.measure_qubit(state, ins.qubit_args[0], rng)
            outcomes.append(outcome)
            probs.append(prob)
        else:
            prob, state = sv.project_qubit(state, ins.qubit_args[0], forced[len(outcomes)])
            outcomes.append(forced[len(outcomes)])
            probs.append(prob)
    return outcomes, probs, state


@settings(derandomize=True, max_examples=150, deadline=None)
@given(states, steps, hs.integers(0, 2**32 - 1))
def test_execute_matches_public_functions_draw_for_draw(state, steps, seed):
    n = state.num_qubits
    instructions = []
    for kind, q, shift, angle, _ in steps:
        q %= n
        if kind in ("CNOT", "CZ"):
            if n > 1:
                instructions.append(dsl.Instruction(kind, (q, (q + 1 + shift % (n - 1)) % n)))
        else:
            angle = angle if kind in sv.ROTATION_GATES else None
            instructions.append(dsl.Instruction(kind, (q,), angle))
    circuit = dsl.Circuit(n, tuple(instructions))
    before = state.amplitudes.copy()
    got = dsl._execute(circuit, state, np.random.default_rng(seed))
    want = public_chain(circuit, state, np.random.default_rng(seed), None)
    # The runner fuses one-qubit gates, so it rounds differently from one call per
    # gate: outcomes agree draw for draw, numbers within 1e-12.
    assert got[0] == want[0]
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    assert np.abs(got[2].amplitudes - want[2].amplitudes).max() < 1e-12
    # Replaying the drawn outcomes as forced ones gives the same run without draws.
    forced = dsl._execute(circuit, state, None, got[0])
    assert forced[0] == got[0] and forced[1] == got[1]
    assert np.array_equal(forced[2].amplitudes, got[2].amplitudes)
    np.testing.assert_allclose(public_chain(circuit, state, None, got[0])[1], got[1],
                               rtol=0, atol=1e-12)
    assert np.array_equal(state.amplitudes, before)
    assert not state.amplitudes.flags.writeable


# -- fusing one-qubit gates in the runner ----------------------------------------

DIAGONAL_KINDS = ("Z", "S", "SDG", "T", "TDG", "RZ")
MIXING_KINDS = ("H", "X", "Y", "RX", "RY")

# Diagonals weighted up, so runs that pass a CZ or a CNOT and then meet a gate are common.
fusion_steps = hs.lists(
    hs.tuples(
        hs.sampled_from((*DIAGONAL_KINDS, *DIAGONAL_KINDS, *MIXING_KINDS,
                         "CNOT", "CNOT", "CZ", "MEASURE", "MEASURE")),
        hs.integers(0, 4),
        hs.integers(0, 4),
        angles,
        hs.integers(0, 1),
    ),
    min_size=4,
    max_size=40,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hs.tuples(hs.integers(1, 5), hs.integers(0, 2**32 - 1)).map(lambda c: random_state(*c)),
       fusion_steps)
def test_fused_run_matches_gate_by_gate_application(state, steps):
    # A pending diagonal passes a CZ on either qubit and a CNOT on its control; anything
    # else on its qubit flushes it.  Each outcome is forced to one of probability >= 0.1.
    n = state.num_qubits
    instructions, forced, probs, chain = [], [], [], state
    for kind, a, b, angle, bit in steps:
        a, b = a % n, b % n
        if kind == "MEASURE":
            if sv.reduced_density(chain, a)[bit, bit].real < 0.1:
                bit = 1 - bit
            prob, chain = sv.project_qubit(chain, a, bit)
            forced.append(bit)
            probs.append(prob)
            instructions.append(dsl.Instruction(kind, (a,)))
            continue
        qubits = (a, b) if kind in ("CNOT", "CZ") else (a,)
        if len(set(qubits)) < len(qubits):
            continue
        angle = angle if kind in sv.ROTATION_GATES else None
        chain = sv.apply_gate(chain, sv.GateOp(kind, qubits, angle))
        instructions.append(dsl.Instruction(kind, qubits, angle))
    outcomes, got_probs, final = dsl._execute(dsl.Circuit(n, tuple(instructions)), state, None,
                                              forced)
    assert outcomes == forced
    np.testing.assert_allclose(got_probs, probs, rtol=0, atol=1e-12)
    assert np.abs(final.amplitudes - chain.amplitudes).max() < 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hs.integers(1, 5), fusion_steps)
def test_fusion_misses_no_merge(n, steps):
    # Each run is one _unitary entry, flushed only when it must be: between two entries
    # on a qubit lies a measurement of it, or a two-qubit gate on it that the first
    # entry's matrix cannot pass.  A pass that flushed too eagerly would keep every
    # amplitude within 1e-12 and show only as extra kernel passes.
    program = []
    for kind, a, b, angle, _ in steps:
        a, b = a % n, b % n
        if kind == "MEASURE":
            program.append((None, a))
        elif kind in ("CNOT", "CZ"):
            if a != b:
                program.append((sv._gate, (n, kind, (a, b), None)))
        else:
            program.append((sv._gate, (n, kind, (a,), angle if kind in sv.ROTATION_GATES else None)))
    pending = {}  # qubit -> the matrix of its last _unitary entry, while nothing has flushed it
    for kernel, args in sv._fuse(program, n):
        if kernel is None:
            pending.pop(args, None)
        elif kernel is sv._unitary:
            _, q, m = args
            assert q not in pending, "a run left unmerged"
            pending[q] = m
        else:
            _, kind, qubits, _ = args
            assert len(qubits) == 2, "a one-qubit gate outside _unitary"
            for q in qubits:
                m = pending.get(q)
                if m and (m[1] or m[2] or kind == "CNOT" and q == qubits[1]):
                    del pending[q]


# -- _unitary: the one kernel of every one-qubit gate ------------------------------


def times(m, e):
    """The row-major product ``m @ e`` of two 2x2 tuples, in scalar Python as _fuse takes it."""
    (a, b, c, d), (p, q, r, s) = m, e
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


RZ03 = sv._rotation("RZ", 0.3)
MATRIX = sv._MATRICES
UNITARY_CASES = {
    **{kind: MATRIX[kind] for kind in MATRIX},
    **{f"{kind}({angle:g})": sv._rotation(kind, angle)
       for kind in sv.ROTATION_GATES for angle in (0.0, 0.3, math.pi / 2, math.pi, -2.5)},
    "S.T": times(MATRIX["S"], MATRIX["T"]),
    "RZ.Z": times(RZ03, MATRIX["Z"]),
    "X.Z": times(MATRIX["X"], MATRIX["Z"]),
    "Y.S": times(MATRIX["Y"], MATRIX["S"]),
    "X.RZ": times(MATRIX["X"], RZ03),
    "H.T": times(MATRIX["H"], MATRIX["T"]),
}
EXACT = ("X", "Y", "Z", "S", "SDG")
SHAPES = {
    "H": "general", "X": "antidiagonal", "Y": "antidiagonal", "Z": "diagonal", "S": "diagonal",
    "SDG": "diagonal", "T": "diagonal", "TDG": "diagonal", "S.T": "diagonal",
    "RZ.Z": "diagonal", "X.Z": "antidiagonal", "Y.S": "antidiagonal", "X.RZ": "antidiagonal",
    "H.T": "general",
}


def shape(m):
    a, b, c, d = m
    return "diagonal" if not (b or c) else "antidiagonal" if not (a or d) else "general"


@pytest.mark.parametrize("name", sorted(UNITARY_CASES))
def test_unitary_matches_the_matmul_on_every_qubit(monkeypatch, name):
    # A diagonal scales the halves and an antidiagonal swaps them first, with no
    # matmul; any other matrix is one _one_qubit matmul.
    m = UNITARY_CASES[name]
    assert shape(m) == SHAPES.get(name, shape(m))
    matmul = sv._one_qubit
    calls = []
    monkeypatch.setattr(sv, "_one_qubit", lambda *args: calls.append(matmul(*args)))
    for n in range(1, 5):
        for q in range(n):
            want = random_state(n, 10 * n + q).amplitudes.copy()
            got = want.copy()
            matmul(want, n, q, sv._array(m))
            sv._unitary(got, n, q, m)
            assert np.abs(got - want).max() < 1e-15, (n, q)
            if name in EXACT:
                assert np.array_equal(got, want), (n, q)
    assert len(calls) == (10 if shape(m) == "general" else 0)
