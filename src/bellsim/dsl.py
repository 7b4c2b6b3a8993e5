"""A small line-oriented circuit language, its classifier, and runner.

Grammar (one statement per line):

    qubits N                  header, required first statement
    <opcode> <operands...>    instruction

* ``#`` starts a comment that runs to end of line; blank lines are skipped.
* Opcodes (case-insensitive): h x y z s sdg t tdg rx ry rz cnot cz measure.
* Single-qubit opcodes take one qubit index; cnot/cz take two distinct
  indices; rx/ry/rz additionally take one angle operand.
* Angles are decimal float literals (as accepted by ``float``) or a
  pi-token: ``pi``, ``-pi``, ``pi/2``, ``+pi/4`` and so on.

Parse failures raise a :class:`ParseError` subclass identifying the kind
(header, opcode, arity, qubit index, angle) with 1-based line and column.

:func:`format_circuit` emits the canonical form: lowercase opcodes,
single spaces, angles rendered with ``repr`` so they round-trip exactly,
LF line endings.  ``parse(format_circuit(c)) == c`` for every circuit
(source locations are excluded from equality).

:func:`classify` marks a circuit stabilizer-simulable when every
instruction is Clifford: the discrete set {h,x,y,z,s,sdg,cnot,cz,measure}
plus any rotation by a multiple of pi/2, read from the angle's own cos
and sin (|cos * sin| <= 1e-12).  t/tdg and all other rotation angles,
huge floats such as 1e16 among them, are non-Clifford witnesses, and so
is a hand-built rotation whose angle is NaN, inf or missing.

:func:`run` executes a circuit on either engine with one loop that copies
the starting amplitudes or tableau once and updates that copy in place;
a random tableau measurement returns a fresh copy, updated from then on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import stabilizer as st
from . import statevector as sv
from .errors import BellSimError, ConfigError, InputError, NonCliffordGate, QubitIndexError
from .errors import finite_real, is_int

CLIFFORD_ANGLE_ATOL = 1e-12

# opcode -> (number of qubit operands, takes an angle operand)
OPCODES: dict[str, tuple[int, bool]] = {
    **{kind.lower(): spec for kind, spec in sv.GATES.items()}, "measure": (1, False),
}
_OPCODE_TABLE = {name: (name.upper(), *spec) for name, spec in OPCODES.items()}

_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_PI_RE = re.compile(r"^([+-]?)([0-9]+)?pi(?:/([1-9][0-9]*))?$", re.IGNORECASE)
_TOKEN_RE = re.compile(r"\S+")


class ParseError(BellSimError):
    """Base for circuit-text errors; carries a 1-based source location."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class HeaderError(ParseError):
    """Missing or malformed ``qubits N`` header."""


class UnknownOpcodeError(ParseError):
    """Opcode not in the instruction set."""


class ArityError(ParseError):
    """Wrong number of operands for the opcode."""


class QubitRangeError(ParseError):
    """Qubit operand malformed, out of range, or duplicated."""


class AngleError(ParseError):
    """Angle operand is neither a float literal nor a pi-token."""


@dataclass(frozen=True)
class Instruction:
    """One parsed statement; source location does not affect equality."""

    opcode: str
    qubit_args: tuple[int, ...]
    angle: float | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    instructions: tuple[Instruction, ...]

    def source_map(self) -> dict[int, tuple[int, int]]:
        """Instruction index -> (line, column) in the source text."""
        return {i: (ins.line, ins.column) for i, ins in enumerate(self.instructions)}


def parse_angle(token: str) -> float:
    """Parse an angle operand: float literal or pi-token.

    Pi-tokens carry an optional sign, integer numerator and integer
    divisor: ``pi``, ``-pi/2``, ``3pi/4``, ``-3pi/4``, ``2pi``.
    Raises ValueError for anything else, including nan and inf.
    """
    m = _PI_RE.match(token)
    if m:
        try:
            value = math.pi * int(m.group(2) or 1)
            if m.group(3):
                value /= int(m.group(3))
        except OverflowError:
            raise ValueError(f"angle {token!r} is outside the float range") from None
        return -value if m.group(1) == "-" else value
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {token!r}")
    return value


def _column(body: str, k: int) -> int:
    """1-based column of whitespace-separated token ``k``; only errors need it."""
    return list(_TOKEN_RE.finditer(body))[k].start() + 1


def parse(text: str) -> Circuit:
    """Parse circuit text (a ``str``) into a :class:`Circuit`; raise located errors."""
    if not isinstance(text, str):
        raise InputError(f"circuit text must be a string, got {type(text).__name__}")
    num_qubits: int | None = None
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        word = tokens[0]
        col = len(body) - len(body.lstrip()) + 1
        if num_qubits is None:
            if word.lower() != "qubits":
                raise HeaderError(lineno, col, "first statement must be a 'qubits N' header")
            if len(tokens) != 2:
                raise HeaderError(lineno, col, "'qubits' header takes exactly one count")
            count_tok = tokens[1]
            if not _INT_RE.match(count_tok) or int(count_tok) < 1:
                raise HeaderError(lineno, _column(body, 1),
                                  f"qubit count must be a positive integer, got {count_tok!r}")
            num_qubits = int(count_tok)
            continue
        entry = _OPCODE_TABLE.get(word.lower())
        if entry is None:
            raise UnknownOpcodeError(lineno, col, f"unknown opcode {word!r}")
        opcode, arity, takes_angle = entry
        expected = arity + takes_angle
        if len(tokens) != expected + 1:
            raise ArityError(
                lineno, col, f"{word.lower()} expects {expected} operand(s), got {len(tokens) - 1}"
            )
        qubits: list[int] = []
        for k, tok in enumerate(tokens[1:arity + 1], start=1):
            if not _INT_RE.match(tok):
                raise QubitRangeError(lineno, _column(body, k), f"malformed qubit index {tok!r}")
            q = int(tok)
            if not 0 <= q < num_qubits:
                raise QubitRangeError(
                    lineno, _column(body, k), f"qubit {q} out of range for {num_qubits} qubit(s)"
                )
            if q in qubits:
                raise QubitRangeError(lineno, _column(body, k), f"duplicate qubit index {q}")
            qubits.append(q)
        angle: float | None = None
        if takes_angle:
            tok = tokens[-1]
            try:
                angle = parse_angle(tok)
            except ValueError:
                raise AngleError(lineno, _column(body, expected),
                                 f"malformed angle {tok!r}") from None
        ins = object.__new__(Instruction)  # the frozen __init__ would cost 2x this
        ins.__dict__.update(opcode=opcode, qubit_args=tuple(qubits), angle=angle,
                            line=lineno, column=col)
        instructions.append(ins)
    if num_qubits is None:
        raise HeaderError(1, 1, "missing 'qubits N' header")
    return Circuit(num_qubits, tuple(instructions))


def format_circuit(circuit: Circuit) -> str:
    """Canonical text form; parsing it back yields an equal circuit."""
    lines = [f"qubits {circuit.num_qubits}"]
    for ins in circuit.instructions:
        parts = [ins.opcode.lower()]
        parts.extend(str(q) for q in ins.qubit_args)
        if ins.angle is not None:
            parts.append(repr(ins.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _quarter_turns(angle: float) -> int | None:
    """k mod 4 when the finite ``angle`` is k quarter turns, else None.

    Judged by the angle's own cos and sin, exact for any float, not by
    angle / (pi/2), whose fraction is lost for huge angles.
    """
    c, s = math.cos(angle), math.sin(angle)
    if abs(c * s) > CLIFFORD_ANGLE_ATOL:
        return None
    if abs(c) >= abs(s):
        return 0 if c > 0 else 2
    return 1 if s > 0 else 3


def is_clifford_instruction(ins: Instruction) -> bool:
    return ins.opcode == "MEASURE" or _clifford_kinds(ins.opcode, ins.angle) is not None


STABILIZER_SIMULABLE = "StabilizerSimulable"
REQUIRES_STATEVECTOR = "RequiresStatevector"


@dataclass(frozen=True)
class SimulabilityClass:
    """Whether the stabilizer engine can run the circuit, with witnesses.

    ``witnesses`` holds (line, column) of every non-Clifford instruction;
    it is empty exactly when ``value`` is ``StabilizerSimulable``.
    """

    value: str
    witnesses: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value not in (STABILIZER_SIMULABLE, REQUIRES_STATEVECTOR):
            raise ConfigError(f"unknown simulability class {self.value!r}")
        if not isinstance(self.witnesses, tuple) or self.simulable == bool(self.witnesses):
            raise ConfigError("witnesses must be a tuple consistent with the simulability class")

    @property
    def simulable(self) -> bool:
        return self.value == STABILIZER_SIMULABLE


def classify(circuit: Circuit) -> SimulabilityClass:
    """Decide stabilizer simulability instruction by instruction."""
    witnesses = tuple(
        (ins.line, ins.column)
        for ins in circuit.instructions  # not is_clifford_instruction(ins), one call less
        if ins.opcode != "MEASURE" and _clifford_kinds(ins.opcode, ins.angle) is None
    )
    value = STABILIZER_SIMULABLE if not witnesses else REQUIRES_STATEVECTOR
    return SimulabilityClass(value=value, witnesses=witnesses)


# Clifford sequences for 0, 1, 2 and 3 quarter turns of each rotation.
_ROTATION_SEQUENCES: dict[str, tuple[tuple[str, ...], ...]] = {
    "RZ": ((), ("S",), ("Z",), ("SDG",)),
    "RX": ((), ("H", "S", "H"), ("X",), ("H", "SDG", "H")),
    "RY": ((), ("SDG", "H", "S", "H", "S"), ("Y",), ("SDG", "H", "SDG", "H", "S")),
}


_AS_ITSELF = {kind: (kind,) for kind in st.CLIFFORD_GATE_KINDS}  # a Clifford gate's own sequence


def _clifford_kinds(opcode: str, angle: float | None) -> tuple[str, ...] | None:
    """The Clifford gates (in time order) equal to a gate; None if none or if malformed."""
    try:
        kinds = _AS_ITSELF.get(opcode)
        if kinds is not None or opcode not in _ROTATION_SEQUENCES:
            return kinds
        k = _quarter_turns(finite_real(angle, "angle"))
    except (TypeError, InputError):  # an unhashable opcode; a missing, non-real or non-finite angle
        return None
    return None if k is None else _ROTATION_SEQUENCES[opcode][k]


def rotation_to_cliffords(opcode: str, angle: float) -> tuple[str, ...]:
    """Clifford gate sequence (time order) equal to the rotation up to phase.

    Only valid for a Clifford kind (its own sequence) or an angle that is an integer
    multiple of pi/2 (the classifier's test); else raises :class:`NonCliffordGate`.
    """
    kinds = _clifford_kinds(opcode, angle)
    if kinds is None:
        raise NonCliffordGate(f"{opcode} angle {angle!r} is not a multiple of pi/2")
    return kinds


@dataclass
class RunRecord:
    """Result of executing a circuit: outcomes plus a final-state readout.

    ``outcomes`` has one entry per measure instruction, in program order.
    Exactly one of ``final_statevector`` / ``final_stabilizers`` is set,
    matching the engine that ran.
    """

    engine: str
    outcomes: list[int]
    final_statevector: sv.StateVector | None = None
    final_stabilizers: list[str] | None = None


def _execute(circuit: Circuit, state, rng, forced=None) -> tuple[list[int], list, object]:
    """The one gate-and-measure loop: ``(outcomes, infos, final_state)``.

    A :class:`~bellsim.statevector.StateVector` runs on the dense engine, a
    tableau on the stabilizer engine with quarter-turn rotations expanded
    into Clifford gates.  :func:`~bellsim.statevector.check_gate` checks each
    gate once, then the engine's unchecked kernels update one copy of the
    input in place; a dense state is validated once, at the end.  Tableau
    measurements call the public ``st.measure_z`` and ``measure_z_forced``.
    ``infos`` holds each measurement's second return value: its probability
    (dense) or whether it was deterministic (tableau).  ``forced`` gives the
    outcomes in order and nothing is drawn; otherwise each engine draws from
    ``rng`` under its own contract.
    """
    dense = isinstance(state, sv.StateVector)
    n = state.num_qubits
    if dense:
        amps = state.amplitudes.copy()
    else:
        state, kernels = state.copy(), st._KERNELS
    outcomes: list[int] = []
    infos: list = []
    for ins in circuit.instructions:
        op, qubits, angle = ins.opcode, ins.qubit_args, ins.angle
        if op == "MEASURE":
            if len(qubits) != 1:
                raise QubitIndexError(f"MEASURE takes 1 qubit, got {len(qubits)}")
            if angle is not None:
                raise InputError("MEASURE does not take an angle")
            q = qubits[0]
            outcome = None if forced is None else forced[len(outcomes)]
            if dense:
                outcome, info = sv._collapse(amps, n, q, outcome, rng)
            elif forced is None:
                outcome, info, state = st.measure_z(state, q, rng)
            else:
                info, state = st.measure_z_forced(state, q, outcome)
            outcomes.append(outcome)
            infos.append(info)
        elif dense:
            sv._apply(amps, n, op, sv.check_gate(op, qubits, angle, n), angle)
        else:
            kinds = _clifford_kinds(op, angle)
            if kinds is None:  # a malformed gate raises its check's error first
                sv.check_gate(op, qubits, angle)
                if angle is None:
                    raise NonCliffordGate(f"{op} is not a Clifford gate")
                raise NonCliffordGate(f"{op} angle {angle!r} is not a multiple of pi/2")
            qubits = sv.check_gate(op, qubits, angle, n)
            for kind in kinds:
                kernels[kind](state, *qubits)
    if dense:
        state = sv.StateVector(n, amps)
    return outcomes, infos, state


def run(circuit: Circuit, engine: str = "auto", seed: int = 0) -> RunRecord:
    """Execute a circuit on the chosen engine.

    ``engine`` is "auto" (stabilizer when the circuit is Clifford, dense
    otherwise), "statevector", or "stabilizer".  Requesting the
    stabilizer engine for a non-Clifford circuit raises
    :class:`NonCliffordGate` naming the witness locations.  Measurement
    randomness is seeded; the two engines draw from their generators
    differently, so individual outcomes are engine-specific even though
    the outcome distributions agree.
    """
    if engine not in ("auto", "statevector", "stabilizer"):
        raise ConfigError(f"engine must be auto, statevector or stabilizer, got {engine!r}")
    if not is_int(seed, 0, math.inf):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    report = classify(circuit)
    if engine == "stabilizer" and not report.simulable:
        spots = ", ".join(f"line {ln} column {col}" for ln, col in report.witnesses)
        raise NonCliffordGate(f"circuit has non-Clifford instructions at {spots}")
    chosen = engine if engine != "auto" else ("stabilizer" if report.simulable else "statevector")
    n = circuit.num_qubits
    start = sv.zero_state(n) if chosen == "statevector" else st.init_zero(n)
    outcomes, _, state = _execute(circuit, start, np.random.default_rng(seed))
    if chosen == "statevector":
        return RunRecord(engine=chosen, outcomes=outcomes, final_statevector=state)
    return RunRecord(
        engine=chosen, outcomes=outcomes, final_stabilizers=st.stabilizer_strings(state)
    )
