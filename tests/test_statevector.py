"""Dense statevector engine tests."""

import math

import numpy as np
import pytest

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
