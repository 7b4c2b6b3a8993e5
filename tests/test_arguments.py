"""Malformed sizes and tuple arguments raise BellSimError subclasses at every entry point."""

import numpy as np
import pytest

from bellsim import chsh, lhv, protocols
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import ConfigError, InputError, QubitIndexError, SizeError

X = sv.FIXED_GATES["X"]


def rng():
    return np.random.default_rng(0)


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
    "product_state triple": (lambda: sv.product_state([(1, 0, 0)]), InputError),
    "product_state scalar": (lambda: sv.product_state([1]), InputError),
    "stabilizer input not a string": (lambda: protocols.resolve_stabilizer_input(1), InputError),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_malformed_argument_raises_its_error_class(name):
    call, error = BAD_CALLS[name]
    with pytest.raises(error):
        call()


def test_numpy_integer_sizes_are_accepted():
    assert sv.zero_state(np.int64(2)).num_qubits == 2
    assert st.stabilizer_strings(st.init_zero(np.int32(2))) == ["+ZI", "+IZ"]
    assert protocols.bb84_simulate(np.int64(16), False, rng()).metrics["rounds"] == 16.0
    grid = chsh.scan_s(sv.bell_psi_plus(), 0.0, 0.0, resolution=np.int64(3))
    assert grid.s_values.shape == (3, 3)
