"""Stabilizer tableau engine tests, cross-checked against the dense engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bellsim import dsl
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import (
    BellSimError,
    DimensionError,
    InputError,
    NonCliffordGate,
    ProjectionError,
    QubitIndexError,
    SizeError,
)

ONE_QUBIT_CLIFFORDS = ["H", "S", "SDG", "X", "Y", "Z"]


def random_clifford_pair(num_qubits, depth, seed):
    """The same random Clifford circuit applied to both engines."""
    rng = np.random.default_rng(seed)
    tableau = st.init_zero(num_qubits)
    dense = sv.zero_state(num_qubits)
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < 0.35:
            q1, q2 = map(int, rng.choice(num_qubits, size=2, replace=False))
            op = sv.gate("CNOT" if rng.random() < 0.5 else "CZ", q1, q2)
        else:
            kind = ONE_QUBIT_CLIFFORDS[int(rng.integers(0, 6))]
            op = sv.gate(kind, int(rng.integers(0, num_qubits)))
        tableau = st.apply_clifford(tableau, op)
        dense = sv.apply_gate(dense, op)
    return tableau, dense


def test_init_zero_strings():
    assert st.stabilizer_strings(st.init_zero(1)) == ["+Z"]
    assert st.stabilizer_strings(st.init_zero(2)) == ["+ZI", "+IZ"]


def test_init_zero_bounds():
    with pytest.raises(SizeError):
        st.init_zero(0)
    with pytest.raises(SizeError):
        st.init_zero(st.MAX_QUBITS + 1)


def test_bell_pair_stabilizers():
    t = st.apply(st.apply(st.init_zero(2), "H", 0), "CNOT", 0, 1)
    assert st.stabilizer_strings(t) == ["+XX", "+ZZ"]
    st.validate(t)


def test_pauli_gates_flip_signs():
    t = st.apply(st.init_zero(1), "X", 0)
    assert st.stabilizer_strings(t) == ["-Z"]
    t = st.apply(st.apply(st.init_zero(1), "H", 0), "Z", 0)
    assert st.stabilizer_strings(t) == ["-X"]


def test_non_clifford_gate_rejected():
    t = st.init_zero(1)
    with pytest.raises(NonCliffordGate):
        st.apply_clifford(t, sv.gate("T", 0))
    with pytest.raises(NonCliffordGate):
        st.apply_clifford(t, sv.gate("RZ", 0, angle=0.3))
    # quarter-turn rotations are Clifford, here as in the circuit runner
    for kind, angle, stabilizers in [("RZ", np.pi / 2, ["+Z"]), ("RX", np.pi / 2, ["-Y"]),
                                     ("RX", -np.pi / 2, ["+Y"]), ("RY", np.pi / 2, ["+X"]),
                                     ("RY", 3 * np.pi, ["-Z"]), ("RZ", -8 * np.pi, ["+Z"])]:
        after = st.apply_clifford(t, sv.gate(kind, 0, angle=angle))
        assert st.stabilizer_strings(after) == stabilizers, (kind, angle)
    run = dsl.run(dsl.parse("qubits 1\nrz 0 pi/2\n"), engine="stabilizer")
    assert run.final_stabilizers == st.stabilizer_strings(
        st.apply_clifford(t, sv.gate("RZ", 0, angle=np.pi / 2))
    )


def test_qubit_bounds_checked():
    with pytest.raises(QubitIndexError):
        st.apply(st.init_zero(2), "H", 2)
    with pytest.raises(QubitIndexError):
        st.measure_z(st.init_zero(2), 5, np.random.default_rng(0))


def test_apply_does_not_mutate_input():
    t = st.init_zero(1)
    before = st.stabilizer_strings(t)
    st.apply(t, "X", 0)
    assert st.stabilizer_strings(t) == before
    # Nor does a measurement, random or determined: the in-place step runs on a copy.
    bell = st.apply(st.apply(st.init_zero(2), "H", 0), "CNOT", 0, 1)
    collapsed = st.measure_z_forced(bell, 0, 1)[1]
    assert st.outcome_probability(collapsed, 1) == 1.0
    for t, measure in (
        (bell, lambda t: st.measure_z(t, 0, np.random.default_rng(3))),
        (collapsed, lambda t: st.measure_z(t, 1, np.random.default_rng(3))),
        (bell, lambda t: st.measure_z_forced(t, 0, 0)),
        (collapsed, lambda t: st.measure_z_forced(t, 1, 1)),
    ):
        before = t.x.tolist(), t.z.tolist(), t.phase.tolist()
        measure(t)
        assert (t.x.tolist(), t.z.tolist(), t.phase.tolist()) == before


def test_deterministic_measurement_consumes_no_randomness():
    class Exploding:
        def random(self):
            raise AssertionError("rng touched on a deterministic branch")

    outcome, deterministic, after = st.measure_z(st.init_zero(1), 0, Exploding())
    assert outcome == 0 and deterministic
    assert after is not None
    one = st.apply(st.init_zero(1), "X", 0)
    outcome, deterministic, _ = st.measure_z(one, 0, Exploding())
    assert outcome == 1 and deterministic


def test_random_measurement_collapses():
    plus = st.apply(st.init_zero(1), "H", 0)
    assert st.outcome_probability(plus, 0) == 0.5
    outcome, deterministic, after = st.measure_z(plus, 0, np.random.default_rng(5))
    assert not deterministic and outcome in (0, 1)
    assert st.outcome_probability(after, 0) == float(outcome)
    st.validate(after)


def test_outcome_probability_is_exact():
    for seed in range(30):
        t, _ = random_clifford_pair(3, 20, seed)
        for q in range(3):
            assert st.outcome_probability(t, q) in (0.0, 0.5, 1.0)


def test_measure_z_forced():
    plus = st.apply(st.init_zero(1), "H", 0)
    for want in (0, 1):
        deterministic, after = st.measure_z_forced(plus, 0, want)
        assert not deterministic
        assert st.outcome_probability(after, 0) == float(want)
    with pytest.raises(ProjectionError):
        st.measure_z_forced(st.init_zero(1), 0, 1)
    with pytest.raises(ProjectionError):
        st.measure_z_forced(st.init_zero(1), 0, 2)


def test_entangled_measurement_correlates():
    bell = st.apply(st.apply(st.init_zero(2), "H", 0), "CNOT", 0, 1)
    for seed in range(10):
        m0, det0, after = st.measure_z(bell, 0, np.random.default_rng(seed))
        assert not det0
        m1, det1, _ = st.measure_z(after, 1, np.random.default_rng(seed + 1))
        assert det1 and m1 == m0


def test_pauli_expectation_named_states():
    plus = st.apply(st.init_zero(1), "H", 0)
    plus_i = st.apply(plus, "S", 0)
    assert st.pauli_expectation(st.init_zero(1), 0, "Z") == 1.0
    assert st.pauli_expectation(plus, 0, "X") == 1.0
    assert st.pauli_expectation(plus, 0, "Z") == 0.0
    assert st.pauli_expectation(plus_i, 0, "Y") == 1.0
    assert st.pauli_expectation(plus_i, 0, "X") == 0.0
    assert st.pauli_expectation(plus, 0, "x") == 1.0
    assert st.pauli_expectation(plus_i, 0, "y") == 1.0
    assert st.pauli_expectation(plus, 0, "z") == 0.0
    for bad in ("W", "Q", "w", ["X"]):
        with pytest.raises(InputError):
            st.pauli_expectation(plus, 0, bad)


def test_to_statevector_bell():
    bell = st.apply(st.apply(st.init_zero(2), "H", 0), "CNOT", 0, 1)
    converted = st.to_statevector(bell)
    assert abs(sv.fidelity(converted, sv.bell_phi_plus()) - 1.0) < 1e-12


def test_to_statevector_caps_at_dense_limit():
    with pytest.raises(SizeError):
        st.to_statevector(st.init_zero(sv.MAX_QUBITS + 1))


def test_cross_engine_states_agree():
    for seed in range(60):
        n = 1 + seed % 4
        tableau, dense = random_clifford_pair(n, 25, 1000 + seed)
        st.validate(tableau)
        assert abs(sv.fidelity(st.to_statevector(tableau), dense) - 1.0) < 1e-10


def test_cross_engine_collapse_agrees():
    for seed in range(30):
        n = 2 + seed % 3
        tableau, dense = random_clifford_pair(n, 20, 2000 + seed)
        q = seed % n
        p1 = st.outcome_probability(tableau, q)
        probs = dense.probabilities()
        idx = np.arange(2**n)
        dense_p1 = float(probs[((idx >> (n - 1 - q)) & 1) == 1].sum())
        assert abs(dense_p1 - p1) < 1e-10
        outcome = 0 if p1 < 0.25 else 1 if p1 > 0.75 else seed % 2
        _, collapsed_tab = st.measure_z_forced(tableau, q, outcome)
        _, collapsed_dense = sv.project_qubit(dense, q, outcome)
        st.validate(collapsed_tab)
        assert abs(sv.fidelity(st.to_statevector(collapsed_tab), collapsed_dense) - 1.0) < 1e-10


def test_deterministic_outcome_counts_factors_of_i():
    # Stabilizers +XX, -ZZ, -YYZ: Z_2 = (+XX)(-ZZ)(-YYZ) only because XX.ZZ = -YY,
    # so the outcome depends on the factors of i in the product, not only on signs.
    t = st.init_zero(3)
    for kind, *qubits in [
        ("Y", 2), ("CNOT", 0, 2), ("CNOT", 1, 2), ("H", 0), ("CNOT", 0, 1), ("X", 0), ("SDG", 2)
    ]:
        t = st.apply(t, kind, *qubits)
    assert st.stabilizer_strings(t) == ["+XXI", "-ZZI", "-YYZ"]
    outcome, deterministic, _ = st.measure_z(t, 2, np.random.default_rng(0))
    assert (outcome, deterministic) == (1, True)
    assert st.to_statevector(t).probabilities()[1::2].sum() > 1 - 1e-12


# Programs on logical qubits 0..k-1 after which measuring ``target`` is
# deterministic and its outcome depends on which factors of i are -i.  The
# first leaves stabilizers -XZI, -YYZ, +ZXI: XZ.ZX = (-iY)(+iY) = +YY.
MINUS_I_PROGRAMS = {
    "three": (
        [("SDG", 1), ("CNOT", 0, 1), ("Y", 2), ("H", 0), ("CNOT", 1, 2), ("H", 1), ("X", 2),
         ("Y", 0), ("CZ", 0, 1), ("CNOT", 2, 0)],
        2,
        0,
    ),
    "five": (
        [("Z", 2), ("CNOT", 1, 2), ("SDG", 4), ("S", 2), ("CNOT", 4, 2), ("H", 4), ("Y", 1),
         ("CNOT", 4, 1), ("H", 3), ("Y", 4), ("SDG", 1), ("SDG", 3), ("H", 4), ("X", 2),
         ("SDG", 0), ("Z", 2), ("CNOT", 0, 1), ("H", 0), ("S", 0)],
        2,
        1,
    ),
}


@pytest.mark.parametrize(
    "name, num_qubits, placement",
    [
        ("three", 3, (0, 1, 2)),
        ("three", 64, (0, 40, 63)),
        ("five", 5, (0, 1, 2, 3, 4)),
        # Rows up to 63 apart: the XOR prefix must reach across the whole column.
        ("five", 64, (0, 20, 40, 60, 63)),
    ],
)
def test_deterministic_outcome_counts_minus_i_factors(name, num_qubits, placement):
    program, target, expected = MINUS_I_PROGRAMS[name]
    t = st.init_zero(num_qubits)
    dense = sv.zero_state(len(placement))
    for kind, *qubits in program:
        t = st.apply(t, kind, *(placement[q] for q in qubits))
        dense = sv.apply_gate(dense, sv.gate(kind, *qubits))
    q = placement[target]
    outcome, deterministic, _ = st.measure_z(t, q, np.random.default_rng(0))
    assert (outcome, deterministic) == (ref_deterministic_outcome(t, q), True) == (expected, True)
    bits = (np.arange(2 ** len(placement)) >> (len(placement) - 1 - target)) & 1
    assert dense.probabilities()[bits == expected].sum() > 1 - 1e-12


def test_validate_catches_corruption():
    t = st.apply(st.apply(st.init_zero(2), "H", 0), "CNOT", 0, 1)
    x = t.x.copy()
    x[2] ^= 1  # scramble a stabilizer row
    broken = st.StabilizerTableau.from_arrays(x, t.z, t.phase)
    with pytest.raises(BellSimError):
        st.validate(broken)


def test_from_arrays_rejects_malformed_arrays():
    t = st.apply(st.init_zero(2), "H", 0)
    x, z, phase = t.x, t.z, t.phase
    with pytest.raises(DimensionError):
        st.StabilizerTableau.from_arrays(x[:3], z, phase)
    with pytest.raises(DimensionError):
        st.StabilizerTableau.from_arrays(x, z, phase[:3])
    with pytest.raises(DimensionError):
        st.StabilizerTableau.from_arrays(x, z.T, phase)
    with pytest.raises(InputError):
        st.StabilizerTableau.from_arrays(x * 2, z, phase)
    with pytest.raises(InputError):
        st.StabilizerTableau.from_arrays(x, z, phase - 1)
    with pytest.raises(SizeError):
        st.StabilizerTableau.from_arrays(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))
    big = np.zeros((130, 65), dtype=np.uint8)
    with pytest.raises(SizeError):
        st.StabilizerTableau.from_arrays(big, big, np.zeros(130, dtype=np.uint8))


def test_tableau_arrays_are_read_only():
    t = st.apply(st.init_zero(3), "H", 1)
    before = (t.x.copy(), t.z.copy(), t.phase.copy())
    for name in ("x", "z", "phase"):
        with pytest.raises(ValueError):
            getattr(t, name)[0] ^= 1
        with pytest.raises(AttributeError):
            setattr(t, name, np.zeros_like(getattr(t, name)))
    assert_same_tableau(t, st.StabilizerTableau.from_arrays(*before))
    assert t.x.shape == (6, 3) and t.z.shape == (6, 3) and t.phase.shape == (6,)
    assert t.x.dtype == t.z.dtype == t.phase.dtype == np.uint8


@pytest.mark.parametrize(
    "kind, qubits, error",
    [
        ("FOO", (0,), InputError),
        ("RZ", (0,), InputError),
        ("T", (0,), NonCliffordGate),
        ("TDG", (5,), NonCliffordGate),
        ("H", (0, 1), QubitIndexError),
        ("CNOT", (0,), QubitIndexError),
        ("CZ", (0, 1, 2), QubitIndexError),
        ("CNOT", (1, 1), QubitIndexError),
        ("H", (2,), QubitIndexError),
        ("H", (-1,), QubitIndexError),
        ("CZ", (0, 2), QubitIndexError),
        ("CNOT", (-1, 0), QubitIndexError),
        ("H", (0.5,), QubitIndexError),
        ("H", (1.0,), QubitIndexError),
        ("X", (True,), QubitIndexError),
        ("CNOT", (0, True), QubitIndexError),
        ("CZ", (0.0, 1), QubitIndexError),
        ("H", ("0",), QubitIndexError),
        ("T", (0.5,), QubitIndexError),
        ("H", (), QubitIndexError),
        ("RX", (0, 1), QubitIndexError),
    ],
)
def test_apply_error_classes(kind, qubits, error):
    t = st.init_zero(2)
    with pytest.raises(error):
        st.apply(t, kind, *qubits)
    with pytest.raises(error):
        st.apply_clifford(t, sv.gate(kind, *qubits))
    # _execute runs gates in place; a rejected one must raise the same error
    angle = 0.5 * np.pi if kind == "RX" else None
    circuit = dsl.Circuit(2, (dsl.Instruction(kind, qubits, angle),))
    with pytest.raises(error):
        dsl._execute(circuit, t, None)
    assert_same_tableau(t, st.init_zero(2))


@pytest.mark.parametrize(
    "kind, qubits, angle, error",
    [
        ("RZ", (5,), 0.0, QubitIndexError),
        ("RX", (0, 1), 0.0, QubitIndexError),
        ("H", (0,), 1.0, InputError),
        ("RY", (5,), 0.3, NonCliffordGate),
        ("RY", (0.5,), 0.3, QubitIndexError),
        ("RZ", (0,), np.nan, InputError),
    ],
)
def test_execute_error_classes_with_angles(kind, qubits, angle, error):
    # the rows of test_apply_error_classes with an angle, which st.apply cannot take
    circuit = dsl.Circuit(2, (dsl.Instruction(kind, qubits, angle),))
    t = st.init_zero(2)
    with pytest.raises(error):
        dsl._execute(circuit, t, None)
    assert_same_tableau(t, st.init_zero(2))


@pytest.mark.parametrize(
    "kind, angle, message",
    [
        ("T", None, "T is not a Clifford gate"),
        ("TDG", None, "TDG is not a Clifford gate"),
        ("RZ", 0.3, "RZ angle 0.3 is not a multiple of pi/2"),
        ("RX", 1e16, "RX angle 1e+16 is not a multiple of pi/2"),
    ],
)
def test_every_route_refuses_a_non_clifford_gate_with_one_message(kind, angle, message):
    t = st.init_zero(1)
    circuit = dsl.Circuit(1, (dsl.Instruction(kind, (0,), angle),))
    routes = (
        lambda: st.apply_clifford(t, sv.gate(kind, 0, angle=angle)),
        lambda: dsl._execute(circuit, t, None),
    )
    for refuse in routes:
        with pytest.raises(NonCliffordGate) as info:
            refuse()
        assert str(info.value) == message


@hs.composite
def clifford_rule_gates(draw):
    """1-4 qubits and gates the Clifford rule accepts: the fixed Clifford kinds,
    and RX/RY/RZ at k quarter turns, k in -8..8, as a float or a parsed pi-token."""
    n = draw(hs.integers(1, 4))
    kinds = ONE_QUBIT_CLIFFORDS + ["RX", "RY", "RZ"] + (["CNOT", "CZ"] if n > 1 else [])
    steps = []
    for _ in range(draw(hs.integers(0, 16))):
        kind = draw(hs.sampled_from(kinds))
        arity = 2 if kind in ("CNOT", "CZ") else 1
        qubits = tuple(draw(hs.permutations(range(n)))[:arity])
        angle = None
        if kind.startswith("R"):
            k = draw(hs.integers(-8, 8))
            angle = draw(hs.sampled_from((k * np.pi / 2, dsl.parse_angle(f"{k}pi/2"))))
        steps.append((kind, qubits, angle))
    return n, steps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(clifford_rule_gates())
def test_apply_clifford_the_runner_and_the_dense_engine_agree(case):
    # the Clifford rule gate by gate, the runner's tableau loop, and the dense oracle
    n, steps = case
    tableau, dense = st.init_zero(n), sv.zero_state(n)
    for kind, qubits, angle in steps:
        op = sv.gate(kind, *qubits, angle=angle)
        tableau = st.apply_clifford(tableau, op)
        dense = sv.apply_gate(dense, op)
    circuit = dsl.Circuit(n, tuple(dsl.Instruction(k, q, a) for k, q, a in steps))
    ran = dsl._execute(circuit, st.init_zero(n), None)[2]
    assert st.stabilizer_strings(ran) == st.stabilizer_strings(tableau)
    assert_same_tableau(ran, tableau)
    assert abs(sv.fidelity(st.to_statevector(tableau), dense) - 1.0) <= 1e-10


QUBIT_VALUES = (-1, 0, 1, 5, np.int64(1), True, 0.5, "0")
ANGLES = (None, 0.0, -0.0, np.pi / 2, 0.3, 1e300, np.nan, np.inf, "0.3", 1j)


def _final_state_or_error(circuit, start):
    try:
        return dsl._execute(circuit, start, np.random.default_rng(0))[2]
    except BellSimError as exc:
        return exc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    hs.sampled_from((*sv.GATES, "MEASURE", "FOO", "rz", 1, ["H"])),
    hs.lists(hs.sampled_from(QUBIT_VALUES), max_size=3).map(tuple),
    hs.sampled_from(ANGLES),
)
def test_engines_accept_and_reject_the_same_instructions(opcode, qubits, angle):
    # each engine is the other's oracle for one hand-built instruction
    circuit = dsl.Circuit(2, (dsl.Instruction(opcode, qubits, angle),))
    dense = _final_state_or_error(circuit, sv.zero_state(2))
    tableau = _final_state_or_error(circuit, st.init_zero(2))
    clifford = dsl.classify(circuit).simulable
    if isinstance(dense, BellSimError):
        assert type(tableau) in ((type(dense),) if clifford else (type(dense), NonCliffordGate))
    elif clifford:
        assert not isinstance(tableau, BellSimError), tableau
        assert abs(sv.fidelity(st.to_statevector(tableau), dense) - 1.0) <= 1e-12


def test_numpy_integer_qubits_run_on_the_tableau():
    steps = [("H", (0,), None), ("CNOT", (0, 1), None), ("RX", (2,), -0.5 * np.pi),
             ("CZ", (2, 1), None), ("MEASURE", (1,), None), ("MEASURE", (2,), None)]
    plain = dsl.Circuit(3, tuple(dsl.Instruction(k, q, a) for k, q, a in steps))
    numpy = dsl.Circuit(3, tuple(
        dsl.Instruction(k, tuple(np.int64(i) if i % 2 else np.int32(i) for i in q), a)
        for k, q, a in steps
    ))
    for seed in range(8):
        want = dsl._execute(plain, st.init_zero(3), np.random.default_rng(seed))
        got = dsl._execute(numpy, st.init_zero(3), np.random.default_rng(seed))
        assert got[:2] == want[:2]
        assert st.stabilizer_strings(got[2]) == st.stabilizer_strings(want[2])


def test_apply_accepts_lowercase_kinds():
    t = st.apply(st.apply(st.init_zero(2), "h", 0), "cnot", 0, 1)
    assert st.stabilizer_strings(t) == ["+XX", "+ZZ"]


def test_sixty_four_qubit_register():
    t = st.init_zero(64)
    t = st.apply(t, "H", 0)
    for q in range(63):
        t = st.apply(t, "CNOT", q, q + 1)
    assert st.outcome_probability(t, 63) == 0.5
    m, _, after = st.measure_z(t, 0, np.random.default_rng(9))
    assert st.outcome_probability(after, 63) == float(m)


# -- row-by-row reference -----------------------------------------------------
#
# The engine's measurement kernels update every row at once, one packed column
# per qubit.  The functions below are the row-at-a-time Aaronson-Gottesman
# procedures on the (2n, n) bit arrays; the property tests require
# bit-identical results from both.


def ref_product_phase(x1, z1, r1, x2, z2, r2):
    """Sign bit of (row1 * row2); odd exponents of i are dropped as 3 -> 1, 1 -> 0."""
    a, b, c, d = (v.astype(np.int64) for v in (x1, z1, x2, z2))
    g = a * b * (d - c) + a * (1 - b) * d * (2 * c - 1) + (1 - a) * b * c * (1 - 2 * d)
    return (2 * int(r1) + 2 * int(r2) + int(g.sum())) % 4 // 2


def ref_deterministic_outcome(t, q):
    n = t.num_qubits
    x, z, phase = t.x, t.z, t.phase
    sx = np.zeros(n, dtype=np.uint8)
    sz = np.zeros(n, dtype=np.uint8)
    sr = 0
    for i in range(n):
        if x[i, q]:
            sr = ref_product_phase(x[n + i], z[n + i], phase[n + i], sx, sz, sr)
            sx ^= x[n + i]
            sz ^= z[n + i]
    return sr


def ref_collapse(t, q, outcome):
    n = t.num_qubits
    x, z, phase = t.x.copy(), t.z.copy(), t.phase.copy()
    p = n + int(np.nonzero(x[n:, q])[0][0])
    for h in range(2 * n):
        if h != p and x[h, q]:
            phase[h] = ref_product_phase(x[p], z[p], phase[p], x[h], z[h], phase[h])
            x[h] ^= x[p]
            z[h] ^= z[p]
    x[p - n], z[p - n], phase[p - n] = x[p], z[p], phase[p]
    x[p], z[p] = 0, 0
    z[p, q] = 1
    phase[p] = outcome
    return st.StabilizerTableau.from_arrays(x, z, phase)


def ref_is_random(t, q):
    return bool(t.x[t.num_qubits :, q].any())


def ref_validate(t):
    """Pairwise invariant check with the engine's messages, first offending pair first."""
    n = t.num_qubits
    x, z = t.x, t.z

    def sym(i, j):
        return int((x[i] & z[j]).sum() + (x[j] & z[i]).sum()) % 2

    for i in range(n, 2 * n):
        for j in range(i + 1, 2 * n):
            if sym(i, j):
                raise BellSimError(f"stabilizer rows {i - n} and {j - n} anticommute")
    for i in range(n):
        for j in range(n, 2 * n):
            if sym(i, j) != (1 if j - n == i else 0):
                raise BellSimError(
                    f"destabilizer {i} has wrong commutation with stabilizer {j - n}"
                )
    if ref_gf2_rank(np.concatenate([x, z], axis=1)) != 2 * n:
        raise BellSimError("tableau rows are linearly dependent over GF(2)")


def ref_gf2_rank(mat):
    m = mat.copy() % 2
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in np.nonzero(m[:, col])[0]:
            if r != rank:
                m[r] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def assert_same_tableau(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.phase, b.phase)


# Opcodes 0-5 index ONE_QUBIT_CLIFFORDS; then CNOT, CZ, measure_z, measure_z_forced.
STEP_KINDS = ONE_QUBIT_CLIFFORDS + ["CNOT", "CZ", "MEASURE", "FORCE"]
STEP_WEIGHTS = [0.08] * 6 + [0.16, 0.16, 0.12, 0.08]


def programs(num_qubits, max_len):
    """Step lists ``(opcode, qubit, other_qubit, bit)`` built from a drawn seed and length.

    Drawing the seed rather than each step keeps the programs long enough to
    entangle the register, so collapses multiply many rows at once.
    """

    def build(seed_and_length):
        seed, length = seed_and_length
        rng = np.random.default_rng(seed)
        codes = rng.choice(len(STEP_KINDS), size=length, p=STEP_WEIGHTS)
        qubits = rng.integers(0, num_qubits, size=length)
        others = (qubits + 1 + rng.integers(0, max(num_qubits - 1, 1), size=length)) % num_qubits
        bits = rng.integers(0, 2, size=length)
        return [tuple(map(int, step)) for step in zip(codes, qubits, others, bits)]

    return hs.tuples(hs.integers(0, 2**32 - 1), hs.integers(0, max_len)).map(build)


class FixedBit:
    """Generator stand-in whose one random bit is chosen by the test: a draw of
    0.25 reads as 1, 0.75 as 0."""

    def __init__(self, bit):
        self.bit = bit

    def random(self):
        return 0.25 if self.bit else 0.75


def run_against_reference(num_qubits, program):
    """Run ``program`` on the engine and the reference side by side, checking every step."""
    t = st.init_zero(num_qubits)
    ref = t.copy()
    for code, q, other, bit in program:
        kind = STEP_KINDS[code]
        if kind in ("MEASURE", "FORCE"):
            random = ref_is_random(ref, q)
            want = bit if random else ref_deterministic_outcome(ref, q)
            assert st.outcome_probability(t, q) == (0.5 if random else float(want))
            if kind == "MEASURE":
                outcome, deterministic, t = st.measure_z(t, q, FixedBit(bit))
            else:
                deterministic, t = st.measure_z_forced(t, q, want)
                outcome = want
                if not random:
                    with pytest.raises(ProjectionError):
                        st.measure_z_forced(t, q, 1 - want)
            assert (outcome, deterministic) == (want, not random)
            if random:
                ref = ref_collapse(ref, q, want)
        else:
            if kind in ("CNOT", "CZ"):
                if q == other:
                    continue
                op = sv.gate(kind, q, other)
            else:
                op = sv.gate(kind, q)
            t = st.apply_clifford(t, op)
            ref = st.apply_clifford(ref, op)
        assert_same_tableau(t, ref)
        st.validate(t)
    return t


@settings(derandomize=True, max_examples=150, deadline=None)
@given(hs.integers(1, 8).flatmap(lambda n: hs.tuples(hs.just(n), programs(n, 80))))
def test_measurement_matches_row_by_row_reference(case):
    num_qubits, program = case
    measure_all = [(STEP_KINDS.index("MEASURE"), q, q, q % 2) for q in range(num_qubits)]
    run_against_reference(num_qubits, program + measure_all)


@settings(derandomize=True, max_examples=5, deadline=None)
@given(programs(64, 400), hs.lists(hs.integers(0, 1), min_size=64, max_size=64))
def test_measurement_matches_reference_at_64_qubits(program, bits):
    measure_all = [(STEP_KINDS.index("MEASURE"), q, q, bit) for q, bit in enumerate(bits)]
    run_against_reference(64, program + measure_all)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    hs.integers(1, 8).flatmap(
        lambda n: hs.tuples(
            hs.just(n),
            programs(n, 40),
            hs.sampled_from(["x", "z", "phase"]),
            hs.integers(0, 2 * n - 1),
            hs.integers(0, n - 1),
        )
    )
)
def test_validate_agrees_with_pairwise_reference_on_bit_flips(case):
    num_qubits, program, array, row, col = case
    t = run_against_reference(num_qubits, program)
    arrays = {"x": t.x.copy(), "z": t.z.copy(), "phase": t.phase.copy()}
    if array == "phase":
        arrays["phase"][row] ^= 1
    else:
        arrays[array][row, col] ^= 1
    broken = st.StabilizerTableau.from_arrays(**arrays)
    try:
        ref_validate(broken)
        expected = None
    except BellSimError as exc:
        expected = str(exc)
    if expected is None:
        st.validate(broken)
    else:
        with pytest.raises(BellSimError) as caught:
            st.validate(broken)
        assert str(caught.value) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.integers(1, 64).flatmap(lambda n: hs.tuples(hs.just(n), programs(n, 120))))
def test_from_arrays_round_trips(case):
    num_qubits, program = case
    t = st.init_zero(num_qubits)
    for code, q, other, bit in program:
        kind = STEP_KINDS[code]
        if kind in ("MEASURE", "FORCE"):
            _, _, t = st.measure_z(t, q, FixedBit(bit))
        elif kind in ("CNOT", "CZ"):
            if q != other:
                t = st.apply(t, kind, q, other)
        else:
            t = st.apply(t, kind, q)
    copy = st.StabilizerTableau.from_arrays(t.x, t.z, t.phase)
    assert copy.num_qubits == num_qubits
    assert_same_tableau(copy, t)
    assert st.stabilizer_strings(copy) == st.stabilizer_strings(t)
    for q in range(num_qubits):
        bit = q % 2
        outcome, deterministic, t = st.measure_z(t, q, FixedBit(bit))
        assert st.measure_z(copy, q, FixedBit(bit))[:2] == (outcome, deterministic)
        copy = st.StabilizerTableau.from_arrays(t.x, t.z, t.phase)


def ref_pauli_expectation(t, q, pauli):
    """<P> by rotating P onto Z (H for X, SDG then H for Y) and reading P(1)."""
    for kind in {"X": ("H",), "Y": ("SDG", "H"), "Z": ()}[pauli]:
        t = st.apply(t, kind, q)
    return 1.0 - 2.0 * st.outcome_probability(t, q)


def random_tableau(num_qubits, seed):
    """A random Clifford state with a random half of its qubits measured in random Pauli bases.

    Each measured qubit ends in an X, Y or Z eigenstate whose stabilizer is a
    product of many tableau rows, so <X>, <Y> and <Z> all take -1, 0 and +1.
    """
    rng = np.random.default_rng(seed)
    t = st.init_zero(num_qubits)
    for _ in range(4 * num_qubits):
        q, other = map(int, rng.integers(0, num_qubits, size=2))
        if q != other and rng.random() < 0.5:
            t = st.apply(t, ("CNOT", "CZ")[int(rng.integers(0, 2))], q, other)
        else:
            t = st.apply(t, ONE_QUBIT_CLIFFORDS[int(rng.integers(0, 6))], q)
    for q in map(int, rng.permutation(num_qubits)[: (num_qubits + 1) // 2]):
        to_z = ((), ("H",), ("SDG", "H"))[int(rng.integers(0, 3))]
        for kind in to_z:
            t = st.apply(t, kind, q)
        _, _, t = st.measure_z(t, q, rng)
        for kind in reversed(to_z):
            t = st.apply(t, {"H": "H", "SDG": "S"}[kind], q)
    return t


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hs.integers(1, 64), hs.integers(0, 2**32 - 1))
@example(sv.MAX_QUBITS, 0)
@example(st.MAX_QUBITS, 0)
def test_pauli_expectation_matches_basis_change_and_dense(num_qubits, seed):
    t = random_tableau(num_qubits, seed)
    dense = st.to_statevector(t) if num_qubits <= sv.MAX_QUBITS else None
    for q in range(num_qubits):
        for pauli in "XYZ":
            value = st.pauli_expectation(t, q, pauli)
            assert value == ref_pauli_expectation(t, q, pauli), (q, pauli)
            if dense is not None:
                flipped = sv.apply_gate(dense, sv.gate(pauli, q)).amplitudes
                assert abs(np.vdot(dense.amplitudes, flipped) - value) < 1e-10, (q, pauli)


def ref_stabilizer_strings(t):
    """The stabilizer rows read off the bit arrays in one numpy expression."""
    n = t.num_qubits
    lines = np.full((n, n + 2), ord("\n"), dtype=np.uint8)
    lines[:, 0] = np.frombuffer(b"+-", dtype=np.uint8)[t.phase[n:]]
    lines[:, 1:-1] = np.frombuffer(b"IXZY", dtype=np.uint8)[t.x[n:] | (t.z[n:] << 1)]
    return lines.tobytes().decode("ascii").split("\n")[:-1]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hs.integers(1, 64), hs.integers(0, 2**32 - 1))
@example(1, 0)
@example(st.MAX_QUBITS, 0)
def test_stabilizer_strings_match_the_array_reference(num_qubits, seed):
    t = random_tableau(num_qubits, seed)
    assert st.stabilizer_strings(t) == ref_stabilizer_strings(t)


@pytest.mark.parametrize("pauli", ["X", "Y", "Z"])
@pytest.mark.parametrize("qubit", [2, -1, True, 0.5, None])
def test_pauli_expectation_checks_the_qubit_like_measure_z(pauli, qubit):
    t = st.apply(st.init_zero(2), "H", 0)
    with pytest.raises(QubitIndexError, match="out of range for 2-qubit tableau"):
        st.pauli_expectation(t, qubit, pauli)
    with pytest.raises(InputError):  # the Pauli name is checked before the qubit
        st.pauli_expectation(t, qubit, "W")
    assert st.pauli_expectation(t, np.int64(0), pauli) == st.pauli_expectation(t, 0, pauli)


@pytest.mark.parametrize("qubit", [2, -1, True, 0.5, "0"])
def test_both_engines_check_a_measured_qubit_alike(qubit):
    # one guard; only the engine's noun differs
    with pytest.raises(QubitIndexError) as tableau:
        st.measure_z(st.init_zero(2), qubit, np.random.default_rng(0))
    with pytest.raises(QubitIndexError) as dense:
        sv.measure_qubit(sv.zero_state(2), qubit, np.random.default_rng(0))
    assert str(tableau.value) == f"qubit {qubit!r} out of range for 2-qubit tableau"
    assert str(dense.value) == f"qubit {qubit!r} out of range for 2-qubit state"
