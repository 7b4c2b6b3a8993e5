"""Malformed sizes and tuple arguments raise BellSimError subclasses at every entry point."""

import numpy as np
import pytest

import math

from bellsim import chsh, dsl, gates, lhv, protocols
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import (
    ConfigError, DimensionError, InputError, ModelError, NonCliffordGate, NormalizationError,
    ObservableError, ProjectionError, QubitIndexError, SizeError,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
NP_COMPLEX = np.complex128(0.3 + 1j)
BELL = dsl.parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\n")


def rng():
    return np.random.default_rng(0)


def one_rotation(opcode, angle):
    return dsl.Circuit(1, (dsl.Instruction(opcode, (0,), angle),))


BAD_CALLS = {
    "StateVector float size": (lambda: sv.StateVector(1.0, np.array([1.0, 0.0])), SizeError),
    "StateVector bool size": (lambda: sv.StateVector(True, np.array([1.0, 0.0])), SizeError),
    "zero_state float size": (lambda: sv.zero_state(2.5), SizeError),
    "zero_state bool size": (lambda: sv.zero_state(True), SizeError),
    "init_zero float size": (lambda: st.init_zero(2.5), SizeError),
    "init_zero bool size": (lambda: st.init_zero(True), SizeError),
    "bb84 float rounds": (lambda: protocols.bb84_simulate(10.5, False, rng()), ConfigError),
    "bb84 bool rounds": (lambda: protocols.bb84_simulate(True, False, rng()), ConfigError),
    "scan float resolution": (
        lambda: chsh.scan_s(sv.bell_psi_plus(), 0.0, 0.0, resolution=3.5), ConfigError
    ),
    "sample_lhv short pair": (
        lambda: lhv.sample_lhv(lhv.fit_lhv((0.5, 0.5, 0.5, 0.5)), (1,), rng()), InputError
    ),
    "sample_lhv scalar": (
        lambda: lhv.sample_lhv(lhv.fit_lhv((0.5, 0.5, 0.5, 0.5)), 1, rng()), InputError
    ),
    "superdense three bits": (lambda: protocols.superdense_code((0, 1, 1), rng()), InputError),
    "superdense scalar": (lambda: protocols.superdense_code(1, rng()), InputError),
    "expectation one qubit": (
        lambda: sv.expectation(sv.bell_psi_plus(), X, X, (0,)), QubitIndexError
    ),
    "expectation equal qubits": (
        lambda: sv.expectation(sv.bell_psi_plus(), X, X, (1, 1)), QubitIndexError
    ),
    "fidelity 1 vs 2 qubits": (
        lambda: sv.fidelity(sv.zero_state(1), sv.bell_psi_plus()), DimensionError
    ),
    "fidelity 2 qubits vs density": (
        lambda: sv.fidelity(sv.bell_psi_plus(), np.eye(2) / 2), DimensionError
    ),
    "product_state empty": (lambda: sv.product_state([]), DimensionError),
    "product_state triple": (lambda: sv.product_state([(1, 0, 0)]), InputError),
    "product_state scalar": (lambda: sv.product_state([1]), InputError),
    "stabilizer input not a string": (lambda: protocols.resolve_stabilizer_input(1), InputError),
    "gate numpy complex angle": (lambda: sv.gate("RZ", 0, angle=NP_COMPLEX), InputError),
    "wrap_angle numpy complex": (lambda: chsh.wrap_angle(NP_COMPLEX), InputError),
    "MeasurementSettings numpy complex": (
        lambda: chsh.MeasurementSettings(NP_COMPLEX, 0, 0, 0), InputError
    ),
    "correlation_matrix numpy complex": (
        lambda: chsh.correlation_matrix(sv.bell_psi_plus(), [NP_COMPLEX], [0.0]), InputError
    ),
    "expectation text observable": (
        lambda: sv.expectation(sv.bell_psi_plus(), "ab", X), ObservableError
    ),
    "expectation nan observable": (
        lambda: sv.expectation(sv.bell_psi_plus(), X * math.nan, X), ObservableError
    ),
    "fidelity text density": (lambda: sv.fidelity(sv.zero_state(1), "x"), InputError),
    "from_arrays ragged": (
        lambda: st.StabilizerTableau.from_arrays([[1, 0], [0]], [[0, 0], [1, 1]], [0, 0]),
        InputError,
    ),
    "fit_lhv text targets": (lambda: lhv.fit_lhv("abcd"), InputError),
    "fit_lhv complex target": (lambda: lhv.fit_lhv((1j, 0, 0, 0)), InputError),
    "fit_lhv numpy complex target": (lambda: lhv.fit_lhv((NP_COMPLEX, 0, 0, 0)), InputError),
    "LhvModel text weights": (lambda: lhv.LhvModel("x"), ModelError),
    "LhvModel complex weights": (lambda: lhv.LhvModel(np.full(16, 1 / 16) + 1j), ModelError),
    "chsh_variants two targets": (lambda: lhv.chsh_variants((1, 2)), InputError),
    "chsh_variants nan target": (lambda: lhv.chsh_variants((math.nan, 0, 0, 0)), InputError),
    "teleport scalar force_outcomes": (
        lambda: protocols.teleport_statevector(sv.zero_state(1), rng(), force_outcomes=5),
        InputError,
    ),
    # a set or a mapping is not a sequence of qubits: GateOp("H", {0: 1}) once meant qubit 0
    "GateOp set": (lambda: gates.GateOp("H", {0}), QubitIndexError),
    "GateOp pair set": (lambda: gates.GateOp("CNOT", {0, 1}), QubitIndexError),
    "GateOp dict keys": (lambda: gates.GateOp("CNOT", {0: 1, 1: 0}.keys()), QubitIndexError),
    "GateOp dict": (lambda: gates.GateOp("H", {0: 1}), QubitIndexError),
    "check_gate set": (lambda: gates.check_gate("H", {0}, None, 2), QubitIndexError),
    "check_gate dict": (lambda: gates.check_gate("H", {0: 1}, None), QubitIndexError),
    "check_gate dict keys": (
        lambda: gates.check_gate("CNOT", {0: 1, 1: 0}.keys(), None, 2), QubitIndexError
    ),
    "apply_gate set": (
        lambda: sv.apply_gate(sv.zero_state(2), gates.GateOp("CNOT", {0, 1})), QubitIndexError
    ),
    "apply_clifford dict": (
        lambda: st.apply_clifford(st.init_zero(2), gates.GateOp("H", {0: 1})), QubitIndexError
    ),
    "run negative seed": (lambda: dsl.run(BELL, seed=-1), ConfigError),
    "run float seed": (lambda: dsl.run(BELL, seed=1.5), ConfigError),
    "run bool seed": (lambda: dsl.run(BELL, seed=True), ConfigError),
    "parse bytes": (lambda: dsl.parse(b"qubits 1\nh 0\n"), InputError),
    "parse None": (lambda: dsl.parse(None), InputError),
    # classify's witnesses refuse a hand-built rotation outside the Clifford rule
    "stabilizer run text angle": (
        lambda: dsl.run(one_rotation("RZ", "0.3"), engine="stabilizer"), NonCliffordGate
    ),
    "stabilizer run list opcode": (
        lambda: dsl.run(one_rotation(["RZ"], 0.0), engine="stabilizer"), NonCliffordGate
    ),
    "pauli_expectation list pauli": (
        lambda: st.pauli_expectation(st.init_zero(1), 0, ["X"]), InputError
    ),
    "superdense bool bit": (lambda: protocols.superdense_code((True, 0), rng()), InputError),
    "superdense float bit": (lambda: protocols.superdense_code((1.0, 0), rng()), InputError),
    "project_qubit bool outcome": (
        lambda: sv.project_qubit(sv.bell_phi_plus(), 0, True), ProjectionError
    ),
    "project_qubit float outcome": (
        lambda: sv.project_qubit(sv.bell_phi_plus(), 0, 0.0), ProjectionError
    ),
    "measure_z_forced bool outcome": (
        lambda: st.measure_z_forced(st.init_zero(1), 0, False), ProjectionError
    ),
    "teleport float forced outcome": (
        lambda: protocols.teleport_statevector(sv.zero_state(1), rng(), force_outcomes=(1.0, 0)),
        ProjectionError,
    ),
    "sample_lhv float setting": (
        lambda: lhv.sample_lhv(lhv.fit_lhv((0.5, 0.5, 0.5, 0.5)), (1.0, 2), rng()), InputError
    ),
    "strategy bool outcome": (lambda: lhv.DeterministicStrategy(True, 1, 1, 1), ModelError),
    "strategy float outcome": (lambda: lhv.DeterministicStrategy(1, 1, -1.0, 1), ModelError),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_malformed_argument_raises_its_error_class(name):
    call, error = BAD_CALLS[name]
    with pytest.raises(error):
        call()


# Calls whose message must name what is wrong, not only carry the right class.
BAD_MESSAGES = {
    "product_state ragged factors": (
        lambda: sv.product_state([(1, 0, 0), (1, 0)]), InputError,
        "factors must be a rectangular array, got ragged",
    ),
    "product_state short factor": (
        lambda: sv.product_state([[1, 0], [1]]), InputError,
        "factors must be a rectangular array, got ragged",
    ),
    "StateVector ragged amplitudes": (
        lambda: sv.StateVector(1, [[1], [0, 1]]), InputError,
        "state amplitudes must be a rectangular array, got ragged",
    ),
    "fit_lhv ragged targets": (
        lambda: lhv.fit_lhv([[1, 0], [0]]), InputError,
        "target correlations must be 4 finite real numbers, got",
    ),
    "StateVector nan amplitude": (
        lambda: sv.StateVector(1, [math.nan, 1]), InputError,
        "state amplitudes must be finite numbers of type complex",
    ),
    "StateVector nan in a complex array": (
        lambda: sv.StateVector(1, np.array([math.nan, 0], dtype=complex)), InputError,
        "state amplitudes must be finite numbers of type complex",
    ),
    "StateVector inf in a complex array": (
        lambda: sv.StateVector(1, np.array([math.inf, 0], dtype=complex)), InputError,
        "state amplitudes must be finite numbers of type complex",
    ),
    "StateVector finite amplitudes whose norm overflows": (
        lambda: sv.StateVector(1, [1e308, 0]), NormalizationError, "state norm inf differs from 1",
    ),
    "product_state text factor": (
        lambda: sv.product_state([("a", 0), (1, 0)]), InputError,
        "factors must be finite numbers of type complex",
    ),
}


@pytest.mark.parametrize("name", BAD_MESSAGES)
def test_malformed_argument_message_names_the_problem(name):
    call, error, message = BAD_MESSAGES[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


def test_numpy_integer_sizes_are_accepted():
    assert sv.zero_state(np.int64(2)).num_qubits == 2
    assert st.stabilizer_strings(st.init_zero(np.int32(2))) == ["+ZI", "+IZ"]
    assert protocols.bb84_simulate(np.int64(16), False, rng()).metrics["rounds"] == 16.0
    grid = chsh.scan_s(sv.bell_psi_plus(), 0.0, 0.0, resolution=np.int64(3))
    assert grid.s_values.shape == (3, 3)
