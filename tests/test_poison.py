"""Every public callable rejects poisoned arguments with a BellSimError subclass.

The suite finds the public callables of the seven library modules by name
(exception classes excluded) and holds one valid call for each.  It then
replaces one parameter at a time with each poison value and asserts that
the call either raises a :class:`BellSimError` subclass or returns a
result with no NaN or inf anywhere in it.  The array poisons (a wrong
shape, a non-Hermitian matrix) go to the parameters whose valid value is
a list, tuple or array; every other poison goes to every parameter.

Exemptions, each with its reason:

* a parameter whose valid value is a bellsim object or a random
  generator is always passed a valid one: checking those types would add
  code to every function for what is a programming error;
* a boolean flag (``intercept_resend``) takes any truthy value by design;
* ``Instruction``, ``Circuit``, ``RunRecord``, ``SFactorResult``,
  ``CorrelationGrid`` and ``ProtocolReport`` are records that validate
  nothing by design;
* ``parse_angle`` raises ``ValueError`` for the CLI's argument parser,
  pinned by ``test_parse_angle_rejects_garbage``.

A generator is checked where it is used, not up front: one without the
``random()`` a draw needs raises :class:`InputError` at that draw, as does
a draw that is not a real number in [0, 1) (``BAD_DRAWS``), and a call
that draws nothing accepts anything (``NO_GENERATOR`` and
``DRAWS_NOTHING`` below).
"""

import dataclasses
import inspect
import math
import numbers
import random

import numpy as np
import pytest

from bellsim import chsh, dsl, gates, lhv, protocols
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import BellSimError, InputError

MODULES = (gates, sv, st, chsh, lhv, protocols, dsl)
PUBLIC_CALLABLES = 61

EXEMPT = {
    "dsl.Instruction", "dsl.Circuit", "dsl.RunRecord", "chsh.SFactorResult",
    "chsh.CorrelationGrid", "protocols.ProtocolReport", "dsl.parse_angle",
}

SCALAR_POISONS = {
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "-1": -1,
    "1.5": 1.5,
    "1e308": 1e308,
    "10**400": 10**400,
    "True": True,
    "None": None,
    "bytes": b"x",
    "str": "x",
    "complex": 0.3 + 1j,
    "np.complex128": np.complex128(0.3 + 1j),
    "ragged": [[1, 2], [3]],
}
ARRAY_POISONS = {
    "wrong shape": np.zeros((3, 3)),
    "non-Hermitian": np.array([[0.0, 1.0], [0.0, 0.0]]),
}

HALF = np.full((2, 2), 0.5)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def tableau():
    return st.apply(st.init_zero(2), "H", 0)


def model():
    return lhv.LhvModel(np.full(16, 1 / 16))


def rng():
    return np.random.default_rng(0)


# name -> (function to call, valid keyword arguments built afresh per call)
VALID = {
    "gates.GateOp": (gates.GateOp, lambda: dict(kind="RZ", qubits=(0,), angle=0.3)),
    "gates.check_gate": (
        gates.check_gate, lambda: dict(kind="RZ", qubits=(1,), angle=0.3, n=2)
    ),
    "gates.gate": (gates.gate, lambda: dict(kind="CNOT", qubits=(0, 1), angle=None)),
    "statevector.StateVector": (
        sv.StateVector, lambda: dict(num_qubits=1, amplitudes=[0.6, 0.8])
    ),
    "statevector.zero_state": (sv.zero_state, lambda: dict(num_qubits=2)),
    "statevector.bell_psi_plus": (sv.bell_psi_plus, dict),
    "statevector.bell_phi_plus": (sv.bell_phi_plus, dict),
    "statevector.product_state": (sv.product_state, lambda: dict(factors=[(1, 0), (0.6, 0.8)])),
    "statevector.apply_gate": (
        sv.apply_gate, lambda: dict(state=sv.zero_state(2), op=sv.gate("H", 0))
    ),
    "statevector.apply": (
        sv.apply, lambda: dict(state=sv.zero_state(2), kind="RY", qubits=(1,), angle=0.3)
    ),
    "statevector.project_qubit": (
        sv.project_qubit, lambda: dict(state=sv.bell_phi_plus(), q=1, outcome=1)
    ),
    "statevector.measure_qubit": (
        sv.measure_qubit, lambda: dict(state=sv.bell_phi_plus(), q=0, rng=rng())
    ),
    "statevector.expectation": (
        sv.expectation,
        lambda: dict(state=sv.bell_psi_plus(), obs_a=X, obs_b=X, qubits=(1, 0)),
    ),
    "statevector.reduced_density": (
        sv.reduced_density, lambda: dict(state=sv.bell_psi_plus(), q=1)
    ),
    "statevector.fidelity": (sv.fidelity, lambda: dict(a=HALF, b=np.diag([1.0, 0.0]))),
    "stabilizer.StabilizerTableau": (
        st.StabilizerTableau.from_arrays,
        lambda: dict(x=tableau().x, z=tableau().z, phase=tableau().phase),
    ),
    "stabilizer.init_zero": (st.init_zero, lambda: dict(num_qubits=3)),
    "stabilizer.apply_clifford": (
        st.apply_clifford, lambda: dict(t=tableau(), op=sv.gate("CNOT", 0, 1))
    ),
    "stabilizer.apply": (st.apply, lambda: dict(t=tableau(), kind="CZ", qubits=(1, 0))),
    "stabilizer.measure_z": (st.measure_z, lambda: dict(t=tableau(), q=0, rng=rng())),
    "stabilizer.measure_z_forced": (
        st.measure_z_forced, lambda: dict(t=tableau(), q=0, outcome=1)
    ),
    "stabilizer.outcome_probability": (st.outcome_probability, lambda: dict(t=tableau(), q=1)),
    "stabilizer.pauli_expectation": (
        st.pauli_expectation, lambda: dict(t=tableau(), q=0, pauli="X")
    ),
    "stabilizer.to_statevector": (st.to_statevector, lambda: dict(t=tableau())),
    "stabilizer.stabilizer_strings": (st.stabilizer_strings, lambda: dict(t=tableau())),
    "stabilizer.validate": (st.validate, lambda: dict(t=tableau())),
    "chsh.wrap_angle": (chsh.wrap_angle, lambda: dict(theta=4.0)),
    "chsh.MeasurementSettings": (
        chsh.MeasurementSettings, lambda: dict(alpha1=0.1, alpha2=0.2, chi1=0.3, chi2=0.4)
    ),
    "chsh.correlation": (
        chsh.correlation, lambda: dict(state=sv.bell_psi_plus(), alpha=0.3, chi=0.2)
    ),
    "chsh.correlation_matrix": (
        chsh.correlation_matrix,
        lambda: dict(state=sv.bell_psi_plus(), alphas=[0.0, 0.5], chis=(0.3,)),
    ),
    "chsh.s_factor": (
        chsh.s_factor,
        lambda: dict(state=sv.bell_psi_plus(), settings=chsh.MeasurementSettings(0, 1, 2, 3)),
    ),
    "chsh.scan_s": (
        chsh.scan_s, lambda: dict(state=sv.bell_psi_plus(), alpha1=0.3, chi1=0.2, resolution=5)
    ),
    "chsh.maximize_s": (
        chsh.maximize_s, lambda: dict(state=sv.bell_psi_plus(), fixed=(0.3, 0.2))
    ),
    "lhv.DeterministicStrategy": (
        lhv.DeterministicStrategy, lambda: dict(a1=1, a2=-1, b1=1, b2=-1)
    ),
    "lhv.enumerate_strategies": (lhv.enumerate_strategies, dict),
    "lhv.strategy_s": (lhv.strategy_s, lambda: dict(strategy=lhv.STRATEGIES[3])),
    "lhv.classical_max_s": (lhv.classical_max_s, dict),
    "lhv.LhvModel": (lhv.LhvModel, lambda: dict(weights=np.full(16, 1 / 16))),
    "lhv.model_correlations": (lhv.model_correlations, lambda: dict(model=model())),
    "lhv.model_s": (lhv.model_s, lambda: dict(model=model())),
    "lhv.chsh_variants": (lhv.chsh_variants, lambda: dict(targets=(0.5, 0.2, -0.1, 0.4))),
    "lhv.fit_lhv": (lhv.fit_lhv, lambda: dict(targets=[0.5, 0.2, -0.1, 0.4])),
    "lhv.sample_lhv": (
        lhv.sample_lhv, lambda: dict(model=model(), setting_pair=(2, 1), rng=rng())
    ),
    "protocols.resolve_stabilizer_input": (
        protocols.resolve_stabilizer_input, lambda: dict(name="-i")
    ),
    "protocols.stabilizer_input_state": (
        protocols.stabilizer_input_state, lambda: dict(name="+")
    ),
    "protocols.teleport_statevector": (
        protocols.teleport_statevector,
        lambda: dict(
            input_state=sv.StateVector(1, [0.6, 0.8]), rng=rng(), force_outcomes=(1, 0)
        ),
    ),
    "protocols.teleport_stabilizer": (
        protocols.teleport_stabilizer, lambda: dict(input_name="+i", rng=rng())
    ),
    "protocols.superdense_code": (
        protocols.superdense_code, lambda: dict(bits=(1, 0), rng=rng())
    ),
    "protocols.bb84_simulate": (
        protocols.bb84_simulate, lambda: dict(num_rounds=50, intercept_resend=True, rng=rng())
    ),
    "dsl.parse": (dsl.parse, lambda: dict(text="qubits 2\nh 0\ncnot 0 1\nmeasure 1\n")),
    "dsl.format_circuit": (
        dsl.format_circuit, lambda: dict(circuit=dsl.parse("qubits 1\nrz 0 pi/2\n"))
    ),
    "dsl.SimulabilityClass": (
        dsl.SimulabilityClass, lambda: dict(witnesses=((2, 1),))
    ),
    "dsl.classify": (dsl.classify, lambda: dict(circuit=dsl.parse("qubits 1\nt 0\n"))),
    "dsl.run": (
        dsl.run,
        lambda: dict(circuit=dsl.parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\n"), engine="auto",
                     seed=3),
    ),
}


# Calls that must draw, as functions of the generator they are given.
NO_GENERATOR = {
    "stabilizer.measure_z": lambda rng: st.measure_z(tableau(), 0, rng),
    "statevector.measure_qubit": lambda rng: sv.measure_qubit(sv.bell_phi_plus(), 0, rng),
    "lhv.sample_lhv": lambda rng: lhv.sample_lhv(model(), (1, 1), rng),
    "protocols.teleport_statevector": lambda rng: protocols.teleport_statevector(
        sv.StateVector(1, [0.6, 0.8]), rng
    ),
    "protocols.teleport_stabilizer": lambda rng: protocols.teleport_stabilizer("0", rng),
    "protocols.bb84_simulate": lambda rng: protocols.bb84_simulate(10, False, rng),
    "dsl._execute": lambda rng: dsl._execute(dsl.parse("qubits 1\nh 0\nmeasure 0\n"),
                                             sv.zero_state(1), rng),
}
NOT_GENERATORS = {
    "None": None, "object": object(), "str": "x", "random=1": type("R", (), {"random": 1})(),
}

# Calls whose outcomes are all determined: they draw nothing, so take any ``rng``.
DRAWS_NOTHING = {
    "stabilizer.measure_z": lambda rng: st.measure_z(st.init_zero(1), 0, rng),
    "statevector.measure_qubit": lambda rng: sv.measure_qubit(sv.zero_state(1), 0, rng),
    "protocols.teleport_statevector": lambda rng: protocols.teleport_statevector(
        sv.StateVector(1, [0.6, 0.8]), rng, force_outcomes=(1, 0)
    ),
    "protocols.superdense_code": lambda rng: protocols.superdense_code((1, 1), rng),
}


# Callables whose ``*qubits`` take a poison as their one qubit.
STAR_QUBITS = {"gates.gate", "statevector.apply", "stabilizer.apply"}


def public_callables():
    names = []
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            names.append(f"{short}.{name}")
    return names


def call(func, kwargs):
    """Call with keyword arguments; a ``*qubits`` parameter takes its tuple positionally."""
    params = inspect.signature(func).parameters
    star = next((p for p in params.values() if p.kind is p.VAR_POSITIONAL), None)
    if star is None:
        return func(**kwargs)
    positional = []
    for name, p in params.items():
        if p.kind is p.VAR_POSITIONAL:
            positional.extend(kwargs.pop(name))
            break
        positional.append(kwargs.pop(name))
    return func(*positional, **kwargs)


def assert_finite(value, where="result"):
    if value is None or isinstance(value, (str, bytes, bool)):
        return
    if isinstance(value, numbers.Number):
        assert np.isfinite(complex(value)), f"{where} = {value!r}"
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            assert np.isfinite(value).all(), f"{where} has NaN or inf"
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            assert_finite(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, f"{where}[{key!r}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            assert_finite(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, st.StabilizerTableau):
        assert_finite(value.num_qubits, f"{where}.num_qubits")
    else:
        raise AssertionError(f"{where}: unexpected result type {type(value).__name__}")


def is_exempt_value(value):
    """A bellsim object, a generator or a boolean flag: always passed valid."""
    module = type(value).__module__ or ""
    return module.startswith("bellsim") or isinstance(value, (np.random.Generator, bool))


def poisoned_calls():
    for name, (func, valid) in VALID.items():
        for param, value in valid().items():
            if is_exempt_value(value):
                continue
            poisons = dict(SCALAR_POISONS)
            if isinstance(value, (list, tuple, np.ndarray)):
                poisons.update(ARRAY_POISONS)
            for label, poison in poisons.items():
                yield name, func, valid, param, label, poison


def test_every_public_callable_is_covered():
    names = public_callables()
    assert len(names) == PUBLIC_CALLABLES
    assert sorted(set(names) - EXEMPT) == sorted(VALID)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_succeeds(name):
    func, valid = VALID[name]
    assert_finite(call(func, valid()))


def frozen_records(result):
    """The frozen dataclass instances that ``result`` is or holds at the top of a tuple."""
    return [x for x in (result if isinstance(result, tuple) else (result,))
            if dataclasses.is_dataclass(x) and type(x).__dataclass_params__.frozen]


RECORDS = sorted(name for name, (func, valid) in VALID.items()
                 if frozen_records(call(func, valid())))


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_records_compare_and_hash(name):
    # == and hash on a record that holds an array must not raise numpy's ValueError
    func, valid = VALID[name]
    first, second = frozen_records(call(func, valid())), frozen_records(call(func, valid()))
    for record, other in zip(first, second):
        assert (record == record) is True
        assert isinstance(record == other, bool)
        hash(record)


def test_dense_run_records_compare_by_their_states_identity():
    circuit = dsl.parse("qubits 1\nh 0\nt 0\n")
    first, second = dsl.run(circuit), dsl.run(circuit)
    assert first.final_statevector is not None
    assert (first == first) is True
    assert (first == second) is False  # equal amplitudes, two states: sv.fidelity compares them


def test_poisoned_arguments_raise_bellsim_errors():
    escapes = []
    for name, func, valid, param, label, poison in poisoned_calls():
        kwargs = valid()
        kwargs[param] = (poison,) if param == "qubits" and name in STAR_QUBITS else poison
        try:
            result = call(func, kwargs)
        except BellSimError:
            continue
        except Exception as exc:  # noqa: BLE001 - every other exception is an escape
            escapes.append(f"{name}({param}={label}): {type(exc).__name__}: {exc}")
            continue
        try:
            assert_finite(result)
        except AssertionError as exc:
            escapes.append(f"{name}({param}={label}) returned {exc}")
    assert not escapes, "\n".join(escapes)


@pytest.mark.parametrize("bad", sorted(NOT_GENERATORS))
@pytest.mark.parametrize("name", sorted(NO_GENERATOR))
def test_a_generator_without_random_raises_input_error(name, bad):
    with pytest.raises(InputError, match=r"^rng must be a random generator with random\("):
        NO_GENERATOR[name](NOT_GENERATORS[bad])


def test_bb84_takes_random_random():
    # one random() draw seeds the coins, so a generator needs nothing more
    assert_finite(protocols.bb84_simulate(10, True, random.Random(0)))


class Gives:
    """A generator whose ``random()`` returns ``make()``."""

    def __init__(self, make):
        self.make = make

    def random(self):
        return self.make()


# A draw is a real number in [0, 1); anything else raises InputError at the draw.
BAD_DRAWS = {
    "nan": math.nan, "1.5": 1.5, "1.0": 1.0, "-0.1": -0.1, "inf": math.inf, "str": "0.5",
    "complex": 0.5j, "np.complex128": np.complex128(0.5), "True": True,
    "np.float64 nan": np.float64("nan"), "None": None,
}
SCALAR_DRAWS = sorted(NO_GENERATOR)


@pytest.mark.parametrize("bad", sorted(BAD_DRAWS))
@pytest.mark.parametrize("name", SCALAR_DRAWS)
def test_a_draw_outside_the_unit_interval_raises_input_error(name, bad):
    value = BAD_DRAWS[bad]
    with pytest.raises(InputError, match=r"^rng\.random(\(\) must be| gave)"):
        NO_GENERATOR[name](Gives(lambda: value))


@pytest.mark.parametrize("good", [0.0, 0.5, np.float64(0.25), 1 - 2**-53, 0])
def test_a_draw_at_the_edges_of_the_unit_interval_is_taken(good):
    assert st.measure_z(tableau(), 0, Gives(lambda: good))[0] == int(good < 0.5)
    report = protocols.bb84_simulate(10, False, Gives(lambda: good))
    assert_finite(report)


@pytest.mark.parametrize("bad", sorted(NOT_GENERATORS))
@pytest.mark.parametrize("name", sorted(DRAWS_NOTHING))
def test_a_call_that_draws_nothing_takes_any_generator(name, bad):
    assert_finite(DRAWS_NOTHING[name](NOT_GENERATORS[bad]))
