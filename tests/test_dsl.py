"""Circuit language tests: parsing, formatting, classification, execution."""

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bellsim import dsl, protocols
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import (
    BellSimError, ConfigError, InputError, NonCliffordGate, ProjectionError, QubitIndexError,
)
from bellsim.gates import GATES

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


# -- the parser's integer check and angle cache ----------------------------------------

INT_REFERENCE = re.compile(r"[+-]?[0-9]+")  # the language of qubit and count tokens
INT_EDGES = ("+", "-", "+-1", "1_0", "0x1", "3.", "1e3")
# Token characters: no whitespace (str.split would split there) and no '#'.
TOKEN_CHARS = hs.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc"),
                            blacklist_characters="#")
INT_TOKENS = hs.one_of(
    hs.sampled_from(INT_EDGES),
    hs.from_regex(INT_REFERENCE, fullmatch=True),
    hs.text(alphabet=hs.one_of(hs.sampled_from("+-0123456789"), TOKEN_CHARS), min_size=1,
            max_size=5),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(INT_TOKENS)
@example("+3")
@example("-0")
@example("007")
@example("\u0663")  # ARABIC-INDIC DIGIT THREE: int() reads it, the language does not
@example("\xb2")  # SUPERSCRIPT TWO: a digit to str.isdigit, not to int()
@example("\uff13")  # FULLWIDTH DIGIT THREE
def test_count_and_qubit_tokens_are_exactly_the_reference_language(tok):
    valid = INT_REFERENCE.fullmatch(tok) is not None
    try:
        circuit = dsl.parse(f"qubits {tok}\n")
    except dsl.HeaderError as err:
        assert str(err) == f"line 1, column 8: qubit count must be a positive integer, got {tok!r}"
        assert not valid or int(tok) < 1
    else:
        assert valid and circuit.num_qubits == int(tok) >= 1
    try:
        circuit = dsl.parse(f"qubits 1\nmeasure {tok}\n")
    except dsl.QubitRangeError as err:
        if valid:
            assert str(err) == f"line 2, column 9: qubit {int(tok)} out of range for 1 qubit(s)"
        else:
            assert str(err) == f"line 2, column 9: malformed qubit index {tok!r}"
    else:
        assert valid and circuit.instructions[0].qubit_args == (0,)


VALID_ANGLE_TOKENS = ("pi", "-pi/2", "3PI/4", "0.5", "0", "0.0", "-0.0", "-0", "1e-3", "1E-3")
MALFORMED_ANGLE_TOKENS = ("banana", "nan", "-inf", "1e999", "pi/0", "2pi/")
MALFORMED_INDEX_TOKENS = ("q0", "1.0", "\u0663", "+")


@hs.composite
def repeated_token_statements(draw):
    """Statements drawn from a few templates and a small token pool, so tokens
    repeat: ``[(line text, column of its variable token, message or None), ...]``."""
    out = []
    for _ in range(draw(hs.integers(1, 12))):
        if draw(hs.integers(0, 3)):
            tok = draw(hs.sampled_from(VALID_ANGLE_TOKENS + MALFORMED_ANGLE_TOKENS))
            opcode = draw(hs.sampled_from(("rx", "RY", "rz")))
            bad = tok in MALFORMED_ANGLE_TOKENS
            out.append((f"{opcode} 0 {tok}", 6, f"malformed angle {tok!r}" if bad else None))
        else:
            tok = draw(hs.sampled_from(("0", "+0", "00") + MALFORMED_INDEX_TOKENS))
            bad = tok in MALFORMED_INDEX_TOKENS
            out.append((f"h {tok}", 3, f"malformed qubit index {tok!r}" if bad else None))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(repeated_token_statements())
def test_repeated_tokens_parse_as_each_line_alone(statements):
    # The angle cache may not change a result: each statement parses as it does
    # alone, and the first malformed token raises at its own line and column.
    text = "qubits 1\n" + "".join(f"{line}\n" for line, _, _ in statements)
    first_bad = next((k for k, (_, _, msg) in enumerate(statements) if msg), None)
    if first_bad is not None:
        _, column, message = statements[first_bad]
        line = first_bad + 2
        with pytest.raises(dsl.ParseError) as excinfo:
            dsl.parse(text)
        err = excinfo.value
        assert (err.line, err.column) == (line, column)
        assert str(err) == f"line {line}, column {column}: {message}"
        return
    alone = [dsl.parse(f"qubits 1\n{line}\n").instructions[0] for line, _, _ in statements]
    circuit = dsl.parse(text)
    assert circuit == dsl.Circuit(1, tuple(alone))
    assert [repr(ins.angle) for ins in circuit.instructions] == [repr(ins.angle) for ins in alone]


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
            assert len(sequence) <= 3, (opcode, quarter_turns, sequence)
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.integers(1, 10), hs.integers(0, 2**64 - 1), hs.integers(0, 160))
def test_run_draws_what_an_explicit_generator_draws(n, seed, length):
    circuit = clifford_circuit(n, seeded_steps(n, seed % 2**32, length))
    for engine, start in (("stabilizer", st.init_zero(n)), ("statevector", sv.zero_state(n))):
        want, _, _ = dsl._execute(circuit, start, np.random.default_rng(seed))
        assert dsl.run(circuit, engine=engine, seed=seed).outcomes == want, engine


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    hs.integers(1, 6).flatmap(
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
    hs.integers(0, 2**32 - 1),
)
def test_the_engines_agree_seed_for_seed_on_clifford_circuits(case, seed):
    # Both engines draw one random() per random outcome and none per determined one.
    n, steps = case
    measure_all = [("MEASURE", q, 1, 0) for q in range(n)]
    circuit = clifford_circuit(n, steps + measure_all + measure_all)  # the second pass repeats
    tableau_run = dsl.run(circuit, "stabilizer", seed)
    dense_run = dsl.run(circuit, "statevector", seed)
    assert tableau_run.outcomes == dense_run.outcomes
    outcomes, _, tableau = dsl._execute(circuit, st.init_zero(n), np.random.default_rng(seed))
    assert outcomes == tableau_run.outcomes
    assert st.stabilizer_strings(tableau) == tableau_run.final_stabilizers
    fid = sv.fidelity(st.to_statevector(tableau), dense_run.final_statevector)
    assert abs(fid - 1.0) < 1e-10


def test_a_run_that_draws_nothing_builds_no_generator(monkeypatch):
    def no_generator(seed):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    reversible = dsl.parse("qubits 3\nx 0\ncnot 0 1\nh 2\nh 2\nmeasure 0\nmeasure 1\nmeasure 2\n")
    assert dsl.run(reversible, seed=3).outcomes == [1, 1, 0]
    with pytest.raises(AssertionError, match="a generator was built"):
        dsl.run(dsl.parse("qubits 1\nh 0\nmeasure 0\n"), seed=3)


def test_the_generator_is_built_once_at_the_first_draw(monkeypatch):
    # Later draws find the generator's bound methods in the slots.
    lookups = []
    build = dsl._LazyRng.__getattr__

    def counting(self, name):
        lookups.append(name)
        return build(self, name)

    monkeypatch.setattr(dsl._LazyRng, "__getattr__", counting)
    circuit = dsl.parse("qubits 3\nh 0\nh 1\nh 2\nmeasure 0\nmeasure 1\nmeasure 2\n")
    for engine in ("stabilizer", "statevector"):
        lookups.clear()
        dsl.run(circuit, engine=engine, seed=1)
        assert lookups == ["random"]


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


def test_run_decides_and_checks_each_gate_once(monkeypatch):
    # One lowering pass: the Clifford rule once per gate on the tableau routes and
    # never on the dense one, and one check_gate per gate, however many kernels it has.
    calls = {"rule": 0, "check": 0}

    def counting(key, inner):
        def wrapper(*args):
            calls[key] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(st, "_clifford_kinds", counting("rule", st._clifford_kinds))
    check = counting("check", st.check_gate)
    monkeypatch.setattr(st, "check_gate", check)  # the tableau's _lower
    monkeypatch.setattr(dsl, "check_gate", check)  # dense lowering
    clifford = dsl.parse("qubits 2\nh 0\nrx 1 pi/2\ncnot 0 1\nmeasure 1\nrz 0 pi\nmeasure 0\n")
    magic = dsl.parse("qubits 2\nh 0\nt 1\ncnot 0 1\nmeasure 1\n")
    cases = [
        (clifford, "auto", 4), (clifford, "stabilizer", 4), (clifford, "statevector", 4),
        (magic, "auto", 3), (magic, "statevector", 3),
    ]
    for circuit, engine, gates in cases:
        calls.update(rule=0, check=0)
        dsl.run(circuit, engine=engine, seed=2)
        want = {"rule": gates if engine != "statevector" else 0, "check": gates}
        assert calls == want, engine
    for start, rule in ((st.init_zero(2), 4), (sv.zero_state(2), 0)):
        calls.update(rule=0, check=0)
        dsl._execute(clifford, start, np.random.default_rng(2))
        assert calls == {"rule": rule, "check": 4}
    calls.update(rule=0, check=0)
    assert dsl.classify(clifford).simulable and calls == {"rule": 4, "check": 0}


def test_classify_calls_no_public_dsl_function_per_instruction(monkeypatch):
    # classify takes its witnesses from the pass that run uses; a public helper per
    # instruction would put a traced span around every instruction.
    circuit = dsl.parse("qubits 2\nh 0\nt 1\nrz 0 0.3\nrx 1 pi/2\ncnot 0 1\nmeasure 0\n")
    agrees = [dsl.is_clifford_instruction(ins) for ins in circuit.instructions]

    def no_call(ins):
        raise AssertionError("classify called is_clifford_instruction")

    monkeypatch.setattr(dsl, "is_clifford_instruction", no_call)
    result = dsl.classify(circuit)
    disagreeing = tuple((ins.line, ins.column)
                        for ins, ok in zip(circuit.instructions, agrees) if not ok)
    assert result.witnesses == disagreeing == ((3, 1), (4, 1)) and not result.simulable


def fused_programs(monkeypatch):
    """Every (lowered, fused) program pair the runner passes through sv._fuse."""
    seen, fuse = [], sv._fuse

    def spy(program, n):
        seen.append((list(program), fuse(program, n)))
        return seen[-1][1]

    monkeypatch.setattr(sv, "_fuse", spy)
    return seen


def fused_label(entry):
    kernel, args = entry
    if kernel is None:
        return f"measure {args}"
    if kernel is sv._unitary:
        return f"fused {args[1]}"
    return " ".join([args[1].lower(), *map(str, args[2])])


def test_fusion_counts_kernel_passes_by_hand(monkeypatch):
    seen = fused_programs(monkeypatch)
    circuit = dsl.parse(
        "qubits 3\n"
        "h 0\nt 0\n"           # one run on qubit 0: H then T
        "rz 1 0.3\ns 1\n"      # a diagonal run on qubit 1
        "cz 0 1\n"             # flushes H T; the diagonal on qubit 1 passes
        "t 1\n"                # joins the qubit 1 run
        "cnot 1 2\n"           # qubit 1 is the control: the diagonal passes
        "rx 2 0.5\n"           # a run of one on qubit 2
        "cnot 2 1\n"           # flushes RX (control) and RZ S T (target), in that order
        "measure 0\n"          # nothing pending on qubit 0
        "x 0\nx 0\n"           # one run ...
        "measure 0\n"          # ... flushed by the measurement
        "y 2\n"                # a run of one flushed at the end
    )
    record = dsl.run(circuit, engine="statevector", seed=3)
    assert len(record.outcomes) == 2 and len(seen) == 1
    lowered, fused = seen[0]
    assert sum(kernel is not None for kernel, _ in lowered) == 12
    assert [fused_label(entry) for entry in fused] == [
        "fused 0", "cz 0 1", "cnot 1 2", "fused 2", "fused 1", "cnot 2 1",
        "measure 0", "fused 0", "measure 0", "fused 2",
    ]
    assert sum(kernel is not None for kernel, _ in fused) == 8
    # A run of one is its gate's own tuple, computed once, at its flush point.
    assert fused[3][1] == (3, 2, sv._rotation("RX", 0.5))
    assert fused[9][1] == (3, 2, sv._MATRICES["Y"])
    # A merged diagonal run stays diagonal: one broadcast multiply, no matmul.
    a, b, c, d = fused[4][1][2]
    assert b == c == 0 and abs(abs(a) - 1) < 1e-15 and abs(abs(d) - 1) < 1e-15
    # The tableau never fuses.
    dsl.run(dsl.parse("qubits 1\nh 0\ns 0\n"), seed=3)
    assert len(seen) == 1


def entry_by_entry(program, state, bits):
    """Run a lowered dense program one entry at a time, unfused, on a copy of ``state``."""
    n, amps, bits, outcomes = state.num_qubits, state.amplitudes.copy(), iter(bits), []
    for kernel, args in program:
        if kernel is None:
            outcomes.append(sv._collapse(amps, n, args, next(bits), None)[0])
        else:
            kernel(amps, *args)
    return outcomes, amps


# Teleportation merges nothing: only CNOTs and CZs lie between its runs of one gate
# (H 1, H 0) and their flush points, and those move no amplitude's rounding.
# Superdense (1, 0) and (1, 1) merge one gate each: Z passes the CNOT on its control
# and meets the closing H, and X Z is one run; their matrices' entries are 0, +-1 and
# +-1/sqrt(2), so the products round as the gate-by-gate chain does.  Superdense
# coding runs on the tableau, so its reports do not change.
@pytest.mark.parametrize("name, merged", [
    ("teleport", 0), ((0, 0), 0), ((0, 1), 0), ((1, 0), 1), ((1, 1), 1),
])
def test_fusion_runs_protocol_programs_bit_for_bit(monkeypatch, name, merged):
    circuit = protocols._TELEPORT if name == "teleport" else protocols._SUPERDENSE[name]
    seen = fused_programs(monkeypatch)
    rng = np.random.default_rng(7)
    if name == "teleport":
        starts = []
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps = np.zeros(8, dtype=complex)
            amps[::4] = psi / np.linalg.norm(psi)
            starts += [(sv.StateVector(3, amps), [m0, m1]) for m0 in (0, 1) for m1 in (0, 1)]
    else:
        starts = [(sv.zero_state(2), list(name))]
    for state, bits in starts:
        outcomes, _, final = dsl._execute(circuit, state, None, bits)
        lowered, fused = seen[-1]
        assert outcomes == bits
        want_outcomes, want = entry_by_entry(lowered, state, bits)
        assert want_outcomes == bits and np.array_equal(final.amplitudes, want)
    passes = [sum(kernel is not None for kernel, _ in program) for program in seen[-1]]
    assert passes[1] == passes[0] - merged


@pytest.mark.parametrize("kind", sorted(GATES))
def test_fusion_passes_a_single_gate_through(kind):
    arity, takes_angle = GATES[kind]
    qubits = (1, 0) if arity == 2 else (1,)
    angle = 0.3 if takes_angle else None
    program = [(sv._gate, (2, kind, qubits, angle))]
    fused = sv._fuse(program, 2)
    if arity == 2:
        assert len(fused) == 1 and fused[0] is program[0]
    else:
        # A lone one-qubit gate is one _unitary entry, bit for bit the gate.
        m = sv._MATRICES[kind] if angle is None else sv._rotation(kind, angle)
        assert fused == [(sv._unitary, (2, 1, m))]
        rng = np.random.default_rng(sorted(GATES).index(kind))
        want = rng.normal(size=4) + 1j * rng.normal(size=4)
        want /= np.linalg.norm(want)
        got = want.copy()
        sv._gate(want, *program[0][1])
        sv._unitary(got, 2, 1, m)
        assert np.array_equal(got, want)
    measure = [(None, 0)]
    fused = sv._fuse(measure, 2)
    assert len(fused) == 1 and fused[0] is measure[0]


# -- the first bad instruction in program order raises, before anything is drawn --

GOOD_PREFIX = (dsl.Instruction("H", (0,)), dsl.Instruction("MEASURE", (0,)))  # a random outcome

# name -> (instruction, class, message with {} for the engine's word: state or tableau);
# the gates are in the Clifford rule, so run(engine="stabilizer") reaches their checks.
BAD_INSTRUCTIONS = {
    "measure-range": (dsl.Instruction("MEASURE", (5,)), QubitIndexError,
                      "qubit 5 out of range for 2-qubit {}"),
    "measure-angle": (dsl.Instruction("MEASURE", (0,), 0.5), InputError,
                      "MEASURE does not take an angle"),
    "measure-two": (dsl.Instruction("MEASURE", (0, 1)), QubitIndexError,
                    "MEASURE takes 1 qubit, got 2"),
    "gate-range": (dsl.Instruction("H", (5,)), QubitIndexError,
                   "qubits (5,) out of range for 2 qubit(s)"),
    "gate-repeat": (dsl.Instruction("CNOT", (1, 1)), QubitIndexError,
                    "CNOT requires distinct qubits, got (1, 1)"),
    "gate-angle": (dsl.Instruction("X", (0,), 0.5), InputError, "X does not take an angle"),
}
BAD_MEASURES = [name for name in BAD_INSTRUCTIONS if name.startswith("measure")]
BAD_GATES = [name for name in BAD_INSTRUCTIONS if name.startswith("gate")]
ORDERS = [(m, g) for m in BAD_MEASURES for g in BAD_GATES] + \
         [(g, m) for g in BAD_GATES for m in BAD_MEASURES]


class NoDraw:
    def random(self, *size):
        raise AssertionError("drew before the bad instruction raised")


@pytest.mark.parametrize("first, second", ORDERS, ids=[f"{a}-then-{b}" for a, b in ORDERS])
def test_the_first_bad_instruction_raises_on_every_route(monkeypatch, first, second):
    ins, kind, message = BAD_INSTRUCTIONS[first]
    program = GOOD_PREFIX + (ins, dsl.Instruction("X", (1,)), BAD_INSTRUCTIONS[second][0])
    circuit = dsl.Circuit(2, program)

    def no_generator(seed):
        raise AssertionError("built a generator before the bad instruction raised")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    routes = [
        ("run-auto", lambda: dsl.run(circuit), False),
        ("run-stabilizer", lambda: dsl.run(circuit, engine="stabilizer"), False),
        ("run-statevector", lambda: dsl.run(circuit, engine="statevector"), True),
        ("execute-tableau", lambda: dsl._execute(circuit, st.init_zero(2), NoDraw()), False),
        ("execute-dense", lambda: dsl._execute(circuit, sv.zero_state(2), NoDraw()), True),
    ]
    for route, call, dense in routes:
        with pytest.raises(BellSimError) as excinfo:
            call()
        want = message.format("state" if dense else "tableau")
        assert (type(excinfo.value), str(excinfo.value)) == (kind, want), route


@pytest.mark.parametrize("start", [st.init_zero(2), sv.zero_state(2)], ids=["tableau", "dense"])
def test_a_bad_instruction_wins_over_an_earlier_impossible_forced_outcome(start):
    # Every instruction is checked before the first runs, so the forced outcome 1
    # of |0>, which would raise ProjectionError when run, never runs.
    impossible = (dsl.Instruction("MEASURE", (0,)),)
    with pytest.raises(ProjectionError):
        dsl._execute(dsl.Circuit(2, impossible), start, None, [1])
    bad, kind, message = BAD_INSTRUCTIONS["gate-repeat"]
    with pytest.raises(kind, match=re.escape(message)):
        dsl._execute(dsl.Circuit(2, impossible + (bad,)), start, None, [1])


def test_run_rejects_unknown_engine():
    with pytest.raises(ConfigError):
        dsl.run(dsl.parse("qubits 1\nh 0\n"), engine="qasm")
