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
instruction is a measurement or passes the tableau's own Clifford rule
(:mod:`bellsim.stabilizer`): h, x, y, z, s, sdg, cnot, cz, and rotations
by a multiple of pi/2, read from the angle's cos and sin (|cos * sin| <=
1e-12).  t/tdg, other angles (1e16 among them) and a hand-built
rotation whose angle is NaN, inf or missing are non-Clifford witnesses.
A :class:`SimulabilityClass` derives its verdict from its witnesses, and a
:class:`RunRecord` its ``engine`` from which final state it carries.

:func:`run` decides each instruction once: the pass that gives
:func:`classify` its witnesses picks the engine; one loop in ``_execute``
then checks every instruction in program order into a flat program of
unchecked kernel calls, so the first bad one raises before anything runs,
and one loop runs it on a copy of the starting state, in place: a gate
through its kernel, a measurement through the engine's one ``_measure`` step.
Parsing, classifying and every tableau run load no numpy: :func:`run` seeds
numpy's ``default_rng(seed)`` stream, computed in pure Python by
:class:`bellsim._pcg64.PCG64`, as it starts, and only the dense engine imports numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import stabilizer as st
from .errors import BellSimError, ConfigError, InputError, NonCliffordGate, QubitIndexError
from .gates import GATES, _check_qubit, _sequence, check_gate

if TYPE_CHECKING:
    from .statevector import StateVector

# opcode -> (number of qubit operands, takes an angle operand)
OPCODES: dict[str, tuple[int, bool]] = {
    **{kind.lower(): spec for kind, spec in GATES.items()}, "measure": (1, False),
}
_OPCODE_TABLE = {name: (name.upper(), *spec) for name, spec in OPCODES.items()}

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


def parse_angle(token: str) -> float:
    """Parse an angle operand: float literal or pi-token.

    Pi-tokens carry an optional sign, integer numerator and integer
    divisor: ``pi``, ``-pi/2``, ``3pi/4``, ``-3pi/4``, ``2pi``; the value is
    π·n / d, or π·(n / d) where π·n overflows.  Raises ValueError for
    anything else, including nan, inf and a value outside the float range.
    """
    m = _PI_RE.match(token)
    try:
        if m is None:
            value = float(token)
        else:
            n, d = int(m.group(2) or 1), int(m.group(3) or 1)
            try:
                value = math.pi * n / d
            except OverflowError:  # an integer too large for a float
                value = math.inf
            if value == math.inf:  # divide the integers first: int / int is correctly rounded
                value = math.pi * (n / d) or math.inf  # 0: a quotient below the float range
    except OverflowError:  # a quotient too large for a float
        value = math.inf
    if not math.isfinite(value):  # nan or inf named, or a number outside the float range
        raise ValueError(f"angle must be finite, got {token!r}" if m is None
                         else f"angle {token!r} is outside the float range")
    return -value if m is not None and m.group(1) == "-" else value


def _column(body: str, k: int) -> int:
    """1-based column of whitespace-separated token ``k``; only errors need it."""
    return list(_TOKEN_RE.finditer(body))[k].start() + 1


def parse(text: str) -> Circuit:
    """Parse circuit text (a ``str``) into a :class:`Circuit`; raise located errors."""
    if not isinstance(text, str):
        raise InputError(f"circuit text must be a string, got {type(text).__name__}")
    num_qubits: int | None = None
    instructions: list[Instruction] = []
    angles: dict[str, float] = {}  # each distinct angle token is parsed once
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0] if "#" in raw else raw
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
            digits = count_tok[1:] if count_tok[0] in "+-" else count_tok  # [+-]?[0-9]+
            if not (count_tok.isascii() and digits.isdigit()) or int(count_tok) < 1:
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
            if not (tok.isascii() and (tok[1:] if tok[0] in "+-" else tok).isdigit()):
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
            angle = angles.get(tok)
            if angle is None:
                try:
                    angle = angles[tok] = parse_angle(tok)
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


STABILIZER_SIMULABLE = "StabilizerSimulable"
REQUIRES_STATEVECTOR = "RequiresStatevector"


@dataclass(frozen=True)
class SimulabilityClass:
    """Whether the stabilizer engine can run a circuit: ``simulable`` exactly when
    ``witnesses``, the (line, column) of each non-Clifford instruction, is empty."""

    witnesses: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.witnesses, tuple):
            raise ConfigError(f"witnesses must be a tuple, got {type(self.witnesses).__name__}")

    @property
    def simulable(self) -> bool:
        return not self.witnesses

    @property
    def value(self) -> str:
        return STABILIZER_SIMULABLE if self.simulable else REQUIRES_STATEVECTOR


def _clifford_pass(circuit: Circuit) -> tuple[list, tuple[tuple[int, int], ...]]:
    """The Clifford rule, once per instruction: each one's kernel kinds (``()`` for a
    measurement, None outside the rule) and the (line, column) of every None."""
    kinds = [() if ins.opcode == "MEASURE" else st._clifford_kinds(ins.opcode, ins.angle)
             for ins in circuit.instructions]
    return kinds, tuple((ins.line, ins.column)
                        for ins, k in zip(circuit.instructions, kinds) if k is None)


def classify(circuit: Circuit) -> SimulabilityClass:
    """Decide stabilizer simulability instruction by instruction."""
    return SimulabilityClass(_clifford_pass(circuit)[1])


@dataclass
class RunRecord:
    """Result of executing a circuit: outcomes plus a final-state readout.

    ``outcomes`` has one entry per measure instruction, in program order.
    Exactly one of ``final_statevector`` / ``final_stabilizers`` is set,
    and ``engine`` is derived from which: "statevector" or "stabilizer".
    """

    outcomes: list[int]
    final_statevector: StateVector | None = None
    final_stabilizers: list[str] | None = None

    @property
    def engine(self) -> str:
        return "stabilizer" if self.final_statevector is None else "statevector"


def _execute(circuit: Circuit, state, rng, forced=None,
             kinds=None) -> tuple[list[int], list, object]:
    """Run ``circuit`` from ``state``: ``(outcomes, infos, final_state)``.

    A :class:`~bellsim.statevector.StateVector` runs on the dense engine, a
    tableau on the stabilizer engine (``kinds``: its gates' Clifford kinds,
    from :func:`_clifford_pass` if not given).  One loop first checks every
    instruction in program order: each gate once, by ``check_gate`` or
    ``st._lower``, into unchecked ``(kernel, operands)`` entries, and each
    measurement into ``(None, qubit)``.  ``sv._fuse`` merges a dense
    program's runs of one-qubit gates (outcomes as one ``apply_gate`` per
    gate draw for draw, amplitudes within 1e-12).  A second loop runs the
    program on one copy of ``state``, in place: each gate entry's kernel, and
    for each measurement the engine's one unchecked step, ``sv._measure`` or
    ``st._measure``; a dense state is validated once, at the end.  ``infos``
    holds each measurement's second return value: its probability (dense) or
    whether it was deterministic (tableau).  ``forced`` gives the outcomes in
    order and nothing is drawn; otherwise both engines draw one
    ``rng.random()`` per random outcome and none per determined one.
    """
    dense = not isinstance(state, st.StabilizerTableau)
    n = state.num_qubits
    if dense:
        from . import statevector as sv
        engine, work, measure = "state", state.amplitudes.copy(), sv._measure
    else:
        engine, work, measure = "tableau", state.copy(), st._measure
        kinds = _clifford_pass(circuit)[0] if kinds is None else kinds
    program: list = []
    for i, ins in enumerate(circuit.instructions):
        op, qubits, angle = ins.opcode, ins.qubit_args, ins.angle
        if op == "MEASURE":
            if type(qubits) is not tuple:
                qubits = _sequence(qubits)
            if len(qubits) != 1:
                raise QubitIndexError(f"MEASURE takes 1 qubit, got {len(qubits)}")
            if angle is not None:
                raise InputError("MEASURE does not take an angle")
            _check_qubit(qubits[0], n, engine)
            program.append((None, qubits[0]))
        elif dense:
            program.append((sv._gate, (n, op, check_gate(op, qubits, angle, n), angle)))
        else:
            st._lower(program, n, op, qubits, angle, kinds[i])
    if dense:
        program = sv._fuse(program, n)
    outcomes: list[int] = []
    infos: list = []
    for kernel, args in program:
        if kernel is not None:
            kernel(work, *args)
            continue
        outcome = None if forced is None else forced[len(outcomes)]
        outcome, info = measure(work, n, args, outcome, rng)
        outcomes.append(outcome)
        infos.append(info)
    return outcomes, infos, sv.StateVector(n, work) if dense else work


def run(circuit: Circuit, engine: str = "auto", seed: int = 0) -> RunRecord:
    """Execute a circuit on the chosen engine.

    ``engine`` is "auto" (stabilizer when the circuit is Clifford, dense
    otherwise), "statevector", or "stabilizer".  Requesting the
    stabilizer engine for a non-Clifford circuit raises
    :class:`NonCliffordGate` naming the witness locations.  Measurement
    randomness is seeded, and both engines draw one ``random()`` per
    random outcome and none per determined one, so a Clifford circuit gets
    the same outcomes from either engine for the same seed.  The draws are
    ``numpy.random.default_rng(seed).random()``'s, computed in pure Python by
    :class:`bellsim._pcg64.PCG64`, which checks the seed: a tableau run imports no numpy.
    """
    if engine not in ("auto", "statevector", "stabilizer"):
        raise ConfigError(f"engine must be auto, statevector or stabilizer, got {engine!r}")
    from ._pcg64 import PCG64
    rng = PCG64(seed)
    kinds, witnesses = _clifford_pass(circuit) if engine != "statevector" else (None, ())
    if engine == "stabilizer" and witnesses:
        spots = ", ".join(f"line {ln} column {col}" for ln, col in witnesses)
        raise NonCliffordGate(f"circuit has non-Clifford instructions at {spots}")
    if engine == "statevector" or witnesses:
        from . import statevector as sv
        outcomes, _, state = _execute(circuit, sv.zero_state(circuit.num_qubits), rng)
        return RunRecord(outcomes, final_statevector=state)
    start = st.init_zero(circuit.num_qubits)
    outcomes, _, state = _execute(circuit, start, rng, kinds=kinds)
    return RunRecord(outcomes, final_stabilizers=st.stabilizer_strings(state))
