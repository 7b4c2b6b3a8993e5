"""Circuit language tests: parsing, formatting, classification, execution."""

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bellsim import dsl
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import ConfigError, InputError, NonCliffordGate

CORPUS = pathlib.Path(__file__).parent / "corpus"

INVALID_KINDS = {
    "arity_high": dsl.ArityError,
    "arity_low": dsl.ArityError,
    "bad_angle": dsl.AngleError,
    "bad_header_count": dsl.HeaderError,
    "comment_only": dsl.HeaderError,
    "duplicate_qubits": dsl.QubitRangeError,
    "header_extra_operand": dsl.HeaderError,
    "header_no_count": dsl.HeaderError,
    "malformed_index": dsl.QubitRangeError,
    "missing_angle": dsl.ArityError,
    "missing_header": dsl.HeaderError,
    "nan_angle": dsl.AngleError,
    "negative_qubit": dsl.QubitRangeError,
    "qubit_out_of_range": dsl.QubitRangeError,
    "unknown_opcode": dsl.UnknownOpcodeError,
    "zero_qubits": dsl.HeaderError,
}


def test_parse_angle_tokens():
    assert dsl.parse_angle("pi") == math.pi
    assert dsl.parse_angle("-pi/2") == -math.pi / 2
    assert dsl.parse_angle("+pi/4") == math.pi / 4
    assert dsl.parse_angle("3pi/4") == 3 * math.pi / 4
    assert dsl.parse_angle("-3pi/4") == -3 * math.pi / 4
    assert dsl.parse_angle("2pi") == 2 * math.pi
    assert dsl.parse_angle("PI/2") == math.pi / 2
    assert dsl.parse_angle("0.5") == 0.5
    assert dsl.parse_angle("-1e-3") == -1e-3


def test_parse_angle_rejects_garbage():
    huge = "9" * 400  # pi-tokens beyond the float range
    for token in ("banana", "nan", "inf", "-inf", "pi/0", "pi/", "2pi/", "pipi",
                  f"{huge}pi", f"-{huge}pi/2", f"pi/{huge}"):
        with pytest.raises(ValueError):
            dsl.parse_angle(token)


def test_parse_basic_circuit():
    circuit = dsl.parse("qubits 2\nh 0\ncnot 0 1\nmeasure 1\n")
    assert circuit.num_qubits == 2
    assert [i.opcode for i in circuit.instructions] == ["H", "CNOT", "MEASURE"]
    assert circuit.instructions[1].qubit_args == (0, 1)
    assert circuit.instructions[1].angle is None


def test_parse_is_case_insensitive_and_skips_comments():
    text = "# leading comment\nQUBITS 2  # two wires\n\nH 0 # hadamard\n  CNOT 0 1\n"
    circuit = dsl.parse(text)
    assert circuit.num_qubits == 2
    assert [i.opcode for i in circuit.instructions] == ["H", "CNOT"]


def test_parse_records_one_based_locations():
    circuit = dsl.parse("qubits 2\nh 0\n  cnot 0 1\n")
    assert (circuit.instructions[0].line, circuit.instructions[0].column) == (2, 1)
    assert (circuit.instructions[1].line, circuit.instructions[1].column) == (3, 3)
    assert circuit.source_map() == {0: (2, 1), 1: (3, 3)}


def test_instruction_equality_ignores_location():
    a = dsl.Instruction("H", (0,), None, line=5, column=3)
    b = dsl.Instruction("H", (0,), None, line=9, column=1)
    assert a == b
    assert a != dsl.Instruction("X", (0,), None, line=5, column=3)


def test_parsed_instructions_are_frozen_dataclasses():
    ins = dsl.parse("qubits 2\n  cnot 1 0\n").instructions[0]
    built = dsl.Instruction("CNOT", (1, 0), None, line=9, column=9)
    assert ins == built and hash(ins) == hash(built)
    assert repr(ins) == "Instruction(opcode='CNOT', qubit_args=(1, 0), angle=None, line=2, column=3)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        ins.opcode = "CZ"
    assert dataclasses.astuple(ins) == ("CNOT", (1, 0), None, 2, 3)


def test_parse_error_locations_and_kinds():
    cases = [
        ("h 0\n", dsl.HeaderError, 1, 1),
        ("qubits 0\n", dsl.HeaderError, 1, 8),
        ("qubits 2\nfoo 0\n", dsl.UnknownOpcodeError, 2, 1),
        ("qubits 2\nh 0 1\n", dsl.ArityError, 2, 1),
        ("qubits 2\nh 2\n", dsl.QubitRangeError, 2, 3),
        ("qubits 2\ncnot 1 1\n", dsl.QubitRangeError, 2, 8),
        ("qubits 1\nrz 0 bad\n", dsl.AngleError, 2, 6),
    ]
    for text, kind, line, column in cases:
        with pytest.raises(kind) as excinfo:
            dsl.parse(text)
        err = excinfo.value
        assert (err.line, err.column) == (line, column)
        assert str(err).startswith(f"line {line}, column {column}:")


def test_invalid_corpus_raises_expected_kinds():
    files = sorted((CORPUS / "invalid").glob("*.qc"))
    assert {f.stem for f in files} == set(INVALID_KINDS)
    for path in files:
        with pytest.raises(dsl.ParseError) as excinfo:
            dsl.parse(path.read_text())
        err = excinfo.value
        assert type(err) is INVALID_KINDS[path.stem], path.name
        assert err.line >= 1 and err.column >= 1


def test_valid_corpus_parses_and_round_trips():
    files = sorted((CORPUS / "valid").glob("*.qc"))
    assert len(files) >= 20
    for path in files:
        circuit = dsl.parse(path.read_text())
        assert dsl.parse(dsl.format_circuit(circuit)) == circuit, path.name


# -- parser location suite -------------------------------------------------------
#
# Circuits are generated as token lists and rendered with assorted whitespace,
# case and comments.  The reference locates tokens with an \S+ regex on the text
# before '#', independent of how the parser splits lines.

BLANKS = " \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"
SPACING = hs.text(alphabet=BLANKS, max_size=3)
GAP = hs.text(alphabet=BLANKS, min_size=1, max_size=3)
COMMENT = hs.text(alphabet=hs.characters(blacklist_characters="\n"), max_size=12)
BAD_OPCODES = ("warp", "hh", "Measur", "qubits", "cnot2", "rz0", "\xe9", "h0")
BAD_INDICES = ("1x", "q0", "1.0", "--1", "0x1", "\u0663", "1_0", "+")
BAD_ANGLES = ("banana", "nan", "-inf", "1e999", "pi/0", "2pi/", "pipi", "0x1p3", "1..0")
FAULTS = ("opcode", "arity", "malformed", "range", "duplicate", "angle")
ROTATIONS = ("RX", "RY", "RZ")


def reference_tokens(line):
    """``(token, 1-based column)`` of every \\S+ run before a '#'."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line.split("#", 1)[0])]


def mixed_case(draw, word):
    return "".join(c.upper() if draw(hs.booleans()) else c for c in word)


def index_token(draw, q):
    return draw(hs.sampled_from((str(q), f"+{q}", f"0{q}")))


def angle_token(draw):
    return draw(hs.one_of(
        hs.sampled_from(("pi", "-pi/2", "+pi/4", "3PI/4", "Pi", "1E-3", "-0.0")),
        hs.floats(allow_nan=False, allow_infinity=False).map(repr),
    ))


def comment_tail(draw):
    return draw(hs.sampled_from(("", "#"))) and "#" + draw(COMMENT)


def inject_fault(draw, fault, n, tokens, name, qubits):
    """Break one statement's tokens; return ``(class, token index, message)``."""
    arity = len(qubits)
    if fault == "duplicate" and arity < 2:
        fault = "range"
    if fault == "angle" and name not in ROTATIONS:
        fault = "arity"
    if fault == "opcode":
        tokens[0] = draw(hs.sampled_from(BAD_OPCODES))
        return dsl.UnknownOpcodeError, 0, f"unknown opcode {tokens[0]!r}"
    if fault == "arity":
        if draw(hs.booleans()):
            tokens.append(index_token(draw, 0))
        else:
            tokens.pop(draw(hs.integers(1, len(tokens) - 1)))
        operands = arity + (name in ROTATIONS)
        message = f"{name.lower()} expects {operands} operand(s), got {len(tokens) - 1}"
        return dsl.ArityError, 0, message
    if fault == "angle":
        tokens[-1] = draw(hs.sampled_from(BAD_ANGLES))
        return dsl.AngleError, arity + 1, f"malformed angle {tokens[-1]!r}"
    if fault == "duplicate":
        tokens[2] = index_token(draw, qubits[0])
        return dsl.QubitRangeError, 2, f"duplicate qubit index {qubits[0]}"
    j = draw(hs.integers(1, arity))
    if fault == "malformed":
        tokens[j] = draw(hs.sampled_from(BAD_INDICES))
        return dsl.QubitRangeError, j, f"malformed qubit index {tokens[j]!r}"
    q = draw(hs.sampled_from((n, n + 1, 10**6, -1)))
    tokens[j] = str(q)
    return dsl.QubitRangeError, j, f"qubit {q} out of range for {n} qubit(s)"


@hs.composite
def located_circuits(draw, fault=None):
    """``(text, [((opcode, qubits, angle token), line), ...], error)``: the
    error is None without a fault, else ``(class, line, column, message)``."""
    n = draw(hs.integers(1, 70))
    statements = [[mixed_case(draw, "qubits"), index_token(draw, n)]]
    expected = []
    opcodes = sorted(op for op, (arity, _) in dsl.OPCODES.items() if arity <= n)
    for _ in range(draw(hs.integers(0 if fault is None else 1, 10))):
        name = draw(hs.sampled_from(opcodes))
        arity, takes_angle = dsl.OPCODES[name]
        qubits = draw(hs.lists(hs.integers(0, n - 1), min_size=arity, max_size=arity,
                               unique=True))
        tokens = [mixed_case(draw, name)] + [index_token(draw, q) for q in qubits]
        if takes_angle:
            tokens.append(angle_token(draw))
        statements.append(tokens)
        expected.append((name.upper(), tuple(qubits), tokens[-1] if takes_angle else None))
    error = k = None
    if fault is not None:
        fits = {"duplicate": lambda e: len(e[1]) == 2, "angle": lambda e: e[2] is not None}
        spots = [i for i, e in enumerate(expected, 1) if fits.get(fault, bool)(e)]
        k = draw(hs.sampled_from(spots or range(1, len(expected) + 1)))
        error = inject_fault(draw, fault, n, statements[k], *expected[k - 1][:2])
    lines = ["#" + draw(COMMENT) for _ in range(draw(hs.integers(0, 2)))]
    located = []
    for tokens in statements:
        for _ in range(draw(hs.integers(0, 2))):  # blank and comment-only lines
            lines.append(draw(SPACING) + comment_tail(draw))
        seps = [draw(SPACING)] + [draw(GAP) for _ in tokens[1:]]
        line = "".join(sep + tok for sep, tok in zip(seps, tokens))
        lines.append(line + draw(SPACING) + comment_tail(draw))
        located.append(len(lines))
    if error is not None:
        kind, token, message = error
        lineno = located[k]
        error = (kind, lineno, reference_tokens(lines[lineno - 1])[token][1], message)
    text = "\n".join(lines) + draw(hs.sampled_from(("", "\n", "\r\n")))
    return text, list(zip(expected, located[1:])), error


@settings(derandomize=True, max_examples=300, deadline=None)
@given(located_circuits())
def test_parse_locations_match_the_regex_reference(case):
    text, expected, _ = case
    circuit = dsl.parse(text)
    lines = text.split("\n")
    assert len(circuit.instructions) == len(expected)
    for ins, ((opcode, qubits, angle), lineno) in zip(circuit.instructions, expected):
        assert (ins.opcode, ins.qubit_args) == (opcode, qubits)
        assert repr(ins.angle) == repr(None if angle is None else dsl.parse_angle(angle))
        assert (ins.line, ins.column) == (lineno, reference_tokens(lines[lineno - 1])[0][1])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hs.sampled_from(FAULTS).flatmap(lambda fault: located_circuits(fault)))
def test_parse_errors_match_the_regex_reference(case):
    text, _, (kind, line, column, message) = case
    with pytest.raises(dsl.ParseError) as excinfo:
        dsl.parse(text)
    err = excinfo.value
    assert (type(err), err.line, err.column) == (kind, line, column)
    assert str(err) == f"line {line}, column {column}: {message}"


# Angles whose text form is easy to get wrong: signed zero, subnormals, the
# extremes of the float range, and huge multiples of pi/2.
EDGE_ANGLES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
    1.7976931348623157e308, math.pi / 2, 1e16 * (math.pi / 2), -(2**60) * (math.pi / 2),
)

ANGLES = hs.one_of(
    hs.sampled_from(EDGE_ANGLES),
    hs.floats(allow_nan=False, allow_infinity=False),
    hs.integers(-(10**18), 10**18).map(lambda k: k * (math.pi / 2)),
)


@hs.composite
def circuits(draw):
    num_qubits = draw(hs.integers(1, 70))
    opcodes = sorted(op for op, (arity, _) in dsl.OPCODES.items() if arity <= num_qubits)
    instructions = []
    for _ in range(draw(hs.integers(0, 12))):
        opcode = draw(hs.sampled_from(opcodes))
        arity, takes_angle = dsl.OPCODES[opcode]
        qubits = draw(
            hs.lists(hs.integers(0, num_qubits - 1), min_size=arity, max_size=arity, unique=True)
        )
        angle = draw(ANGLES) if takes_angle else None
        instructions.append(dsl.Instruction(opcode.upper(), tuple(qubits), angle))
    return dsl.Circuit(num_qubits, tuple(instructions))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(circuits())
def test_parse_inverts_format_circuit(circuit):
    back = dsl.parse(dsl.format_circuit(circuit))
    assert back == circuit
    # == treats -0.0 and 0.0 as equal; the text form must keep the sign too.
    assert [repr(ins.angle) for ins in back.instructions] == [
        repr(ins.angle) for ins in circuit.instructions
    ]


def test_valid_corpus_classification_matches_markers():
    # Non-Clifford lines in the corpus carry a trailing "# non-clifford"
    # marker; the classifier's witness lines must match them exactly.
    for path in sorted((CORPUS / "valid").glob("*.qc")):
        text = path.read_text()
        marked = {
            lineno
            for lineno, line in enumerate(text.split("\n"), start=1)
            if "# non-clifford" in line
        }
        result = dsl.classify(dsl.parse(text))
        assert {line for line, _ in result.witnesses} == marked, path.name
        assert result.simulable == (not marked), path.name


def test_format_circuit_golden():
    circuit = dsl.parse("QUBITS 2 # c\n H 0\nRZ 1 pi/2 # rot\ncnot 0 1\nmeasure 0\n")
    assert dsl.format_circuit(circuit) == (
        "qubits 2\nh 0\nrz 1 1.5707963267948966\ncnot 0 1\nmeasure 0\n"
    )


def test_classify_reports_witness_columns():
    result = dsl.classify(dsl.parse("qubits 1\n  t 0\nh 0\nrx 0 pi/4\n"))
    assert result.value == dsl.REQUIRES_STATEVECTOR
    assert result.simulable is False
    assert result.witnesses == ((2, 3), (4, 1))


def test_classify_accepts_quarter_turn_rotations():
    text = "qubits 1\nrx 0 pi/2\nry 0 -pi\nrz 0 2pi\nrz 0 0\n"
    result = dsl.classify(dsl.parse(text))
    assert result.value == dsl.STABILIZER_SIMULABLE
    assert result.simulable is True
    assert result.witnesses == ()


def test_simulability_class_validates_consistency():
    with pytest.raises(ConfigError):
        dsl.SimulabilityClass(value="Sometimes", witnesses=())
    with pytest.raises(ConfigError):
        dsl.SimulabilityClass(value=dsl.STABILIZER_SIMULABLE, witnesses=((1, 1),))
    with pytest.raises(ConfigError):
        dsl.SimulabilityClass(value=dsl.REQUIRES_STATEVECTOR, witnesses=())


def test_rotation_to_cliffords_matches_unitaries():
    for opcode in ("RX", "RY", "RZ"):
        for quarter_turns in range(-4, 8):
            angle = quarter_turns * math.pi / 2.0
            sequence = dsl.rotation_to_cliffords(opcode, angle)
            mat = np.eye(2, dtype=complex)
            for kind in sequence:
                mat = sv.FIXED_GATES[kind] @ mat
            target = sv.rotation_matrix(opcode, angle)
            # compare up to global phase via the largest entry
            idx = np.unravel_index(np.abs(target).argmax(), target.shape)
            phase = mat[idx] / target[idx]
            assert abs(abs(phase) - 1.0) < 1e-12
            np.testing.assert_allclose(mat, phase * target, atol=1e-12)


def test_rotation_to_cliffords_rejects_other_angles():
    with pytest.raises(NonCliffordGate):
        dsl.rotation_to_cliffords("RZ", math.pi / 4)
    with pytest.raises(NonCliffordGate):
        dsl.rotation_to_cliffords("RX", 1.0)


HUGE_ANGLES = ("1e308", "-1e308", "1e16", "99999999999999999999pi", "12345678pi/2")


def test_quarter_turn_rule_rejects_huge_angles():
    for token in HUGE_ANGLES:
        for opcode in ("rx", "ry", "rz"):
            circuit = dsl.parse(f"qubits 1\n{opcode} 0 {token}\n")
            assert not dsl.classify(circuit).simulable, token
            with pytest.raises(NonCliffordGate):
                dsl.rotation_to_cliffords(opcode.upper(), circuit.instructions[0].angle)


def test_quarter_turn_rule_accepts_small_multiples():
    for k in range(-12, 13):
        for token in (f"{k}pi/2", repr(k * math.pi / 2.0)):
            circuit = dsl.parse(f"qubits 1\nry 0 {token}\n")
            assert dsl.classify(circuit).simulable, token


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, None])
def test_non_finite_and_missing_rotation_angles_are_rejected(angle):
    circuit = dsl.Circuit(1, (dsl.Instruction("RY", (0,), angle, line=2, column=1),))
    assert dsl.classify(circuit).witnesses == ((2, 1),)
    with pytest.raises(InputError):
        dsl.run(circuit)
    for start in (sv.zero_state(1), st.init_zero(1)):
        with pytest.raises(InputError):
            dsl._execute(circuit, start, None)


PAULIS = {name: sv.FIXED_GATES[name] for name in ("X", "Y", "Z")}
ANGLE_TOKENS = hs.one_of(
    hs.sampled_from(HUGE_ANGLES),
    hs.integers(-40, 40).map(lambda k: f"{k}pi/2"),
    hs.integers(-40, 40).map(lambda k: repr(k * math.pi / 2.0)),
    hs.integers(-(10**6), 10**6).map(lambda k: f"{k}pi/2"),
    hs.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    hs.sampled_from(["", "h 0", "h 0\ns 0", "x 0\nh 0"]),
    hs.sampled_from(["rx", "ry", "rz"]),
    ANGLE_TOKENS,
)
def test_clifford_rotations_agree_with_the_dense_engine(prep, opcode, token):
    circuit = dsl.parse(f"qubits 1\n{prep}\n{opcode} 0 {token}\n")
    if not dsl.classify(circuit).simulable:
        return
    _, _, tableau = dsl._execute(circuit, st.init_zero(1), None)
    _, _, state = dsl._execute(circuit, sv.zero_state(1), None)
    # P(1) of a measurement in the eigenbasis of a Pauli P is (1 - <P>) / 2.
    for name, pauli in PAULIS.items():
        dense = float(np.vdot(state.amplitudes, pauli @ state.amplitudes).real)
        assert abs(st.pauli_expectation(tableau, 0, name) - dense) / 2 < 1e-10, name


CLIFFORD_KINDS = ("H", "X", "Y", "Z", "S", "SDG", "RX", "RY", "RZ", "CNOT", "CZ", "MEASURE")


def clifford_circuit(n, steps):
    """Instructions from ``(kind, qubit, shift, quarter_turns)`` steps on ``n`` qubits."""
    instructions = []
    for kind, q, shift, k in steps:
        if kind in ("CNOT", "CZ"):
            if n > 1:
                instructions.append(dsl.Instruction(kind, (q, (q + shift) % n)))
        elif kind in ("RX", "RY", "RZ"):
            instructions.append(dsl.Instruction(kind, (q,), k * math.pi / 2.0))
        else:
            instructions.append(dsl.Instruction(kind, (q,)))
    return dsl.Circuit(n, tuple(instructions))


def possible_outcomes(circuit, bits):
    """Forced outcomes that the tableau's outcome_probability allows: the
    drawn bit where a measurement is random, the only outcome elsewhere."""
    t = st.init_zero(circuit.num_qubits)
    forced = []
    for ins in circuit.instructions:
        step = dsl.Circuit(circuit.num_qubits, (ins,))
        if ins.opcode == "MEASURE":
            p = st.outcome_probability(t, ins.qubit_args[0])
            forced.append(bits[len(forced)] if p == 0.5 else int(p))
            t = dsl._execute(step, t, None, [forced[-1]])[2]
        else:
            t = dsl._execute(step, t, None)[2]
    return forced


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    hs.integers(1, 5).flatmap(
        lambda n: hs.tuples(
            hs.just(n),
            hs.lists(
                hs.tuples(
                    hs.sampled_from(CLIFFORD_KINDS),
                    hs.integers(0, n - 1),
                    hs.integers(1, max(n - 1, 1)),
                    hs.integers(-4, 7),
                ),
                max_size=40,
            ),
        )
    ),
    hs.lists(hs.integers(0, 1), min_size=40, max_size=40),
)
def test_engines_agree_through_execute_with_forced_outcomes(case, bits):
    n, steps = case
    circuit = clifford_circuit(n, steps)
    forced = possible_outcomes(circuit, bits)
    outcomes, deterministic, tableau = dsl._execute(circuit, st.init_zero(n), None, forced)
    dense_outcomes, probabilities, state = dsl._execute(circuit, sv.zero_state(n), None, forced)
    assert outcomes == dense_outcomes == forced
    for det, prob in zip(deterministic, probabilities):
        assert det == (abs(prob - 1.0) < 1e-10)
        assert det or abs(prob - 0.5) < 1e-10
    overlap = abs(np.vdot(st.to_statevector(tableau).amplitudes, state.amplitudes))
    assert abs(overlap - 1.0) < 1e-10


def public_chain(circuit, t, rng, forced=None):
    """The tableau loop as a chain of public calls, each returning a new tableau."""
    outcomes, deterministic = [], []
    for ins in circuit.instructions:
        q = ins.qubit_args[0]
        if ins.opcode == "MEASURE":
            if forced is None:
                outcome, det, t = st.measure_z(t, q, rng)
            else:
                outcome = forced[len(outcomes)]
                det, t = st.measure_z_forced(t, q, outcome)
            outcomes.append(outcome)
            deterministic.append(det)
        elif ins.opcode in ("RX", "RY", "RZ"):
            for kind in dsl.rotation_to_cliffords(ins.opcode, ins.angle):
                t = st.apply(t, kind, q)
        else:
            t = st.apply(t, ins.opcode, *ins.qubit_args)
    return outcomes, deterministic, t


def tableau_bits(t):
    return t.x.tolist(), t.z.tolist(), t.phase.tolist()


def seeded_steps(n, seed, length):
    """``clifford_circuit`` steps drawn from a seed: drawing the seed rather
    than each step keeps the circuits long enough to entangle the register."""
    rng = np.random.default_rng(seed)
    return [
        (CLIFFORD_KINDS[int(rng.integers(len(CLIFFORD_KINDS)))], int(rng.integers(n)),
         int(rng.integers(1, max(n, 2))), int(rng.integers(-4, 8)))
        for _ in range(length)
    ]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(hs.integers(1, 64), hs.integers(0, 2**32 - 1), hs.integers(0, 400))
def test_tableau_execute_matches_public_calls_draw_for_draw(n, seed, length):
    steps = seeded_steps(n, seed, length)
    # Start from an entangled tableau, so an in-place update of it would show.
    half = len(steps) // 2
    _, _, start = public_chain(clifford_circuit(n, steps[:half]), st.init_zero(n),
                               np.random.default_rng(seed))
    before = tableau_bits(start)
    circuit = clifford_circuit(n, steps[half:])
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcomes, deterministic, tableau = dsl._execute(circuit, start, rng)
    want = public_chain(circuit, start, ref_rng)
    assert (outcomes, deterministic) == want[:2]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert st.stabilizer_strings(tableau) == st.stabilizer_strings(want[2])
    assert tableau_bits(tableau) == tableau_bits(want[2])
    forced = dsl._execute(circuit, start, None, outcomes)
    want = public_chain(circuit, start, None, outcomes)
    assert forced[0] == outcomes and forced[1] == deterministic == want[1]
    assert tableau_bits(forced[2]) == tableau_bits(want[2])
    assert tableau_bits(start) == before


def test_tableau_measurements_go_through_the_public_calls(monkeypatch):
    # Tracing tools count tableau measurements by wrapping these two names.
    calls = {"measure_z": 0, "measure_z_forced": 0}

    def counting(name):
        inner = getattr(st, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(st, name, counting(name))
    # Two random measurements and three deterministic ones.
    circuit = dsl.parse("qubits 3\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\nh 2\n"
                        "measure 2\nx 2\nmeasure 2\nmeasure 1\n")
    outcomes, deterministic, _ = dsl._execute(circuit, st.init_zero(3), np.random.default_rng(5))
    assert deterministic == [False, True, False, True, True]
    assert calls == {"measure_z": 5, "measure_z_forced": 0}
    dsl._execute(circuit, st.init_zero(3), None, outcomes)
    assert calls == {"measure_z": 5, "measure_z_forced": 5}
    dsl.run(circuit, engine="stabilizer", seed=5)
    dsl.run(circuit, engine="statevector", seed=5)
    assert calls == {"measure_z": 10, "measure_z_forced": 5}


def test_run_measures_flipped_qubit_on_both_engines():
    circuit = dsl.parse("qubits 1\nx 0\nmeasure 0\n")
    for engine in ("statevector", "stabilizer"):
        record = dsl.run(circuit, engine=engine)
        assert record.engine == engine
        assert record.outcomes == [1]


def test_run_auto_selects_engine_by_classification():
    clifford = dsl.parse("qubits 2\nh 0\ncnot 0 1\n")
    assert dsl.run(clifford).engine == "stabilizer"
    magic = dsl.parse("qubits 1\nt 0\n")
    assert dsl.run(magic).engine == "statevector"


def test_run_bell_outcomes_are_correlated_and_seeded():
    circuit = dsl.parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
    for engine in ("statevector", "stabilizer"):
        seen = set()
        for seed in range(24):
            record = dsl.run(circuit, engine=engine, seed=seed)
            assert record.outcomes[0] == record.outcomes[1]
            seen.add(tuple(record.outcomes))
            again = dsl.run(circuit, engine=engine, seed=seed)
            assert again.outcomes == record.outcomes
        assert seen == {(0, 0), (1, 1)}


def test_run_final_state_fields_match_engine():
    circuit = dsl.parse("qubits 1\nh 0\nrz 0 pi/2\n")
    dense = dsl.run(circuit, engine="statevector")
    assert dense.final_stabilizers is None
    expected = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    overlap = abs(np.vdot(expected, dense.final_statevector.amplitudes))
    assert abs(overlap - 1.0) < 1e-12

    tableau = dsl.run(circuit, engine="stabilizer")
    assert tableau.final_statevector is None
    assert tableau.final_stabilizers == ["+Y"]


def test_run_stabilizer_rejects_nonclifford_with_witnesses():
    circuit = dsl.parse("qubits 1\nh 0\nt 0\n")
    with pytest.raises(NonCliffordGate) as excinfo:
        dsl.run(circuit, engine="stabilizer")
    assert "line 3 column 1" in str(excinfo.value)


def test_run_rejects_unknown_engine():
    with pytest.raises(ConfigError):
        dsl.run(dsl.parse("qubits 1\nh 0\n"), engine="qasm")
