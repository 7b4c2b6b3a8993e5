"""The gate set shared by the circuit language and both engines, and its one check.

:data:`GATES` names every gate kind with its number of qubits and whether
it takes an angle; :func:`check_gate` is the only gate check, used by
:class:`GateOp`, by :func:`bellsim.dsl.run` (through ``stabilizer._lower``
on the tableau) and by the public apply functions; it and the runner's
MEASURE check take qubit collections through ``_sequence``.  The module
needs only the standard library, so the parser and the tableau engine
load no numpy through it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import dataclass

from .errors import InputError, QubitIndexError, finite_real, is_int

# kind -> (number of qubits, takes an angle)
GATES: dict[str, tuple[int, bool]] = {
    **dict.fromkeys(("H", "X", "Y", "Z", "S", "SDG", "T", "TDG"), (1, False)),
    "RX": (1, True), "RY": (1, True), "RZ": (1, True),
    "CNOT": (2, False), "CZ": (2, False),
}


@dataclass(frozen=True)
class GateOp:
    """A single gate application: kind, target qubits, optional angle.

    Checked on construction by :func:`check_gate`, without a qubit count.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", check_gate(self.kind, self.qubits, self.angle))


def _sequence(qubits) -> tuple:
    """``qubits``, not a tuple, as one; :class:`QubitIndexError` for a set, a
    mapping or an object without a length, none of which is a sequence."""
    if not isinstance(qubits, (Set, Mapping)):
        try:
            len(qubits)
            return tuple(qubits)
        except TypeError:
            pass
    raise QubitIndexError(f"qubits must be a sequence of integers, got {qubits!r}")


def check_gate(kind: str, qubits, angle: float | None, n: int | None = None) -> tuple:
    """Check one gate against :data:`GATES`; return its qubits as a tuple of ints.

    In this order: :class:`InputError` for an unknown kind;
    :class:`QubitIndexError` for qubits that are not a sequence, the wrong
    count, an index that is not a non-negative integer (``bool`` and floats
    are not) or a repeated one; :class:`InputError` for an angle missing,
    not real, not finite or not taken; last, when ``n`` is given,
    :class:`QubitIndexError` for an index >= n or an ``n`` that is not a positive integer.
    """
    try:
        arity, takes_angle = GATES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise InputError(f"unknown gate kind {kind!r}") from None
    if type(qubits) is not tuple:  # parsed instructions carry tuples
        qubits = _sequence(qubits)
    if len(qubits) != arity:
        raise QubitIndexError(f"{kind} takes {arity} qubit(s), got {len(qubits)}")
    for q in qubits:
        if type(q) is not int or q < 0:
            if not all(is_int(q, 0, math.inf) for q in qubits):
                raise QubitIndexError(f"qubits must be non-negative integers, got {qubits}")
            qubits = tuple(map(int, qubits))
            break
    if arity == 2 and qubits[0] == qubits[1]:
        raise QubitIndexError(f"{kind} requires distinct qubits, got {qubits}")
    if takes_angle:
        finite_real(angle, "gate angle")
    elif angle is not None:
        raise InputError(f"{kind} does not take an angle")
    if n is not None and ((type(n) is not int and not is_int(n, 1, math.inf))
                          or qubits[0] >= n or qubits[-1] >= n):
        raise QubitIndexError(f"qubits {qubits} out of range for {n!r} qubit(s)")
    return qubits


def _check_qubit(q, n: int, engine: str) -> None:
    """The one qubit-index check of both engines' measurements and queries."""
    if not is_int(q, 0, n - 1):
        raise QubitIndexError(f"qubit {q!r} out of range for {n}-qubit {engine}")


def gate(kind: str, *qubits: int, angle: float | None = None) -> GateOp:
    """Shorthand constructor: ``gate("CNOT", 0, 1)``, ``gate("RZ", 0, angle=x)``."""
    return GateOp(kind.upper() if isinstance(kind, str) else kind, tuple(qubits), angle)
