"""Protocol drivers: teleportation, superdense coding, and BB84.

Each driver returns a :class:`ProtocolReport` with the engine used, the
classical bits produced, and numeric quality metrics (fidelity, error
rates).  The report derives its verdict from its engine: classically
simulable unless the engine is the dense statevector.  Teleportation and
superdense coding are circuits run through ``dsl.run``'s gate-and-measure
loop; BB84 is a sampler.

Wire layout conventions:

* teleportation: qubit 0 carries the input state, qubits 1 and 2 hold a
  (|00> + |11>)/sqrt(2) resource pair; qubit 2 receives the state.  The
  corrections are coherent (deferred measurement): CNOT(1, 2) and then
  CZ(0, 2) act before qubits 0 and 1 are measured, in place of X on
  qubit 2 when the qubit-1 outcome is 1 and then Z when the qubit-0
  outcome is 1.  The outcomes and their probabilities are unchanged.
* superdense coding: sender holds qubit 0 of the resource pair, encodes
  two classical bits (b1, b2) as X^b2 then Z^b1 on it; decoding is
  CNOT(0,1), H(0) followed by measuring both qubits, which returns
  (b1, b2) deterministically.
* BB84: bases are 0 = Z, 1 = X (preparation applies X^bit then H^basis).
  No state is simulated: a qubit measured in the basis it was prepared in
  returns the prepared bit, and in the other basis a fair coin, so the
  report says ``engine=sampler``.  All rounds are drawn at once, at most
  1,000,000 per call, as ints with one bit per round.

Randomness is drawn only from the caller-supplied generator, in a fixed
documented order, so seeded runs are exactly reproducible.  A random
outcome is one ``rng.random()`` draw, as in both engines, and a determined
one draws nothing; BB84 takes one draw per run and seeds its coins with it.
Only the dense teleport imports numpy, when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING

from . import dsl
from . import stabilizer as st
from .errors import ConfigError, InputError, NonCliffordGate, draw, is_int, pair

if TYPE_CHECKING:
    import numpy as np
    from .statevector import StateVector

TELEPORT_FORCE_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Resource pair on qubits 1 and 2, Bell measurement of qubits 0 and 1 with
# the corrections applied coherently before it.
_TELEPORT = dsl.parse(
    "qubits 3\nh 1\ncnot 1 2\ncnot 0 1\nh 0\ncnot 1 2\ncz 0 2\nmeasure 0\nmeasure 1\n"
)

# One superdense-coding circuit per bit pair (b1, b2), encoded as X^b2 then Z^b1.
_SUPERDENSE = {
    bits: dsl.parse("qubits 2\nh 0\ncnot 0 1\n" + encode + "cnot 0 1\nh 0\nmeasure 0\nmeasure 1\n")
    for bits, encode in (((0, 0), ""), ((0, 1), "x 0\n"), ((1, 0), "z 0\n"), ((1, 1), "x 0\nz 0\n"))
}

_BB84_MAX_ROUNDS = 1_000_000
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary string's digits as byte values

# Gate sequences preparing the six single-qubit stabilizer states from |0>.
STABILIZER_INPUTS: dict[str, tuple[str, ...]] = {
    "0": (),
    "1": ("X",),
    "+": ("H",),
    "-": ("X", "H"),
    "+i": ("H", "S"),
    "-i": ("H", "SDG"),
}

_INPUT_ALIASES = {
    "zero": "0",
    "one": "1",
    "plus": "+",
    "minus": "-",
    "plus-i": "+i",
    "i": "+i",
    "minus-i": "-i",
}


@dataclass
class ProtocolReport:
    """Outcome record for one protocol run; the verdict is derived from ``engine``."""

    protocol: str
    engine: str
    classical_bits: list[int] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def classically_simulable(self) -> bool:
        return self.engine != "statevector"

    def to_key_value_lines(self) -> list[str]:
        """Line-oriented key=value serialization (metrics at 10 decimals)."""
        lines = [
            f"protocol={self.protocol}",
            f"engine={self.engine}",
            f"simulable={'true' if self.classically_simulable else 'false'}",
            f"classical_bits={''.join(str(b) for b in self.classical_bits)}",
        ]
        lines.extend(f"{k}={v:.10f}" for k, v in self.metrics.items())
        return lines


def resolve_stabilizer_input(name: str) -> tuple[str, ...]:
    """Preparation gates for a named single-qubit stabilizer state.

    Accepts 0, 1, +, -, +i, -i (and word aliases like plus, minus-i or minus_i).
    Any other state name raises :class:`NonCliffordGate`: it has no
    stabilizer-engine preparation; a name that is not a string raises
    :class:`InputError`.
    """
    if not isinstance(name, str):
        raise InputError(f"input name must be a string, got {name!r}")
    key = name.strip().lower()
    key = _INPUT_ALIASES.get(key.replace("_", "-"), key)
    if key not in STABILIZER_INPUTS:
        raise NonCliffordGate(
            f"input {name!r} is not one of the six single-qubit stabilizer states "
            f"({', '.join(STABILIZER_INPUTS)}) and cannot be prepared on the stabilizer engine"
        )
    return STABILIZER_INPUTS[key]


def _preparation(name: str, num_qubits: int) -> dsl.Circuit:
    """Circuit preparing a named stabilizer input on qubit 0 of ``num_qubits``."""
    gates = resolve_stabilizer_input(name)
    return dsl.Circuit(num_qubits, tuple(dsl.Instruction(kind, (0,)) for kind in gates))


def stabilizer_input_state(name: str) -> StateVector:
    """Dense single-qubit state for a named stabilizer input."""
    from . import statevector as sv
    return dsl._execute(_preparation(name, 1), sv.zero_state(1), None)[2]


def teleport_statevector(
    input_state: StateVector,
    rng,
    force_outcomes: tuple[int, int] | None = None,
) -> tuple[ProtocolReport, np.ndarray]:
    """Teleport a single-qubit state, exactly, on the statevector engine.

    Returns the report together with the receiver qubit's 2x2 reduced
    density matrix.  ``force_outcomes`` optionally pins the two
    mid-protocol measurement outcomes (m0, m1) instead of sampling them;
    every pair occurs with probability 1/4, so forcing is always legal.
    The fidelity metric is <psi|rho|psi> of the input psi and the receiver's
    rho, as :func:`~bellsim.statevector.fidelity` computes it, rho unchecked.
    """
    import numpy as np
    from . import statevector as sv
    if input_state.num_qubits != 1:
        raise InputError(f"teleportation input must be 1 qubit, got {input_state.num_qubits}")
    forced = None if force_outcomes is None else pair(force_outcomes, InputError, "force_outcomes")
    psi = input_state.amplitudes
    amps = np.zeros(8, dtype=complex)
    amps[::4] = psi  # psi (x) |00>
    bits, _, state = dsl._execute(_TELEPORT, sv.StateVector(3, amps), rng, forced)
    rho = sv.reduced_density(state, 2)
    report = ProtocolReport(
        protocol="teleport",
        engine="statevector",
        classical_bits=bits,
        metrics={"fidelity": float(np.vdot(psi, rho @ psi).real)},
    )
    return report, rho


def teleport_stabilizer(input_name: str, rng) -> ProtocolReport:
    """Teleport a named stabilizer state on the tableau engine.

    Only the six single-qubit stabilizer states are preparable here;
    anything else raises :class:`NonCliffordGate`.  Metrics are the
    receiver qubit's Bloch components and the exact fidelity against the
    ideal input, (1 + r_in . r_out) / 2 from the two Bloch vectors, all
    read off the tableau.
    """
    t = dsl._execute(_preparation(input_name, 3), st.init_zero(3), None)[2]
    r_in = [st.pauli_expectation(t, 0, pauli) for pauli in "XYZ"]
    bits, _, t = dsl._execute(_TELEPORT, t, rng)
    r_out = [st.pauli_expectation(t, 2, pauli) for pauli in "XYZ"]
    fidelity = (1.0 + sum(a * b for a, b in zip(r_in, r_out))) / 2.0
    return ProtocolReport(
        protocol="teleport",
        engine="stabilizer",
        classical_bits=bits,
        metrics={"fidelity": fidelity, **dict(zip(("output_x", "output_y", "output_z"), r_out))},
    )


def superdense_code(bits: tuple[int, int], rng) -> ProtocolReport:
    """Send two classical bits through one qubit of a shared pair.

    Decoding is deterministic: the measured bits always equal the input
    ``bits``, and no randomness is drawn.  Runs on the stabilizer engine.
    """
    b1, b2 = pair(bits, InputError, "bits")
    if not (is_int(b1, 0, 1) and is_int(b2, 0, 1)):
        raise InputError(f"bits must be 0 or 1, got {bits!r}")
    outcomes, deterministic, _ = dsl._execute(_SUPERDENSE[b1, b2], st.init_zero(2), rng)
    return ProtocolReport(
        protocol="superdense",
        engine="stabilizer",
        classical_bits=outcomes,
        metrics={
            "success": float(outcomes == [b1, b2]),
            "deterministic": float(all(deterministic)),
        },
    )


def _bb84_measure(bits: int, sent_bases: int, bases: int, coins: int) -> int:
    """Outcomes of measuring qubits prepared as ``bits`` in ``sent_bases`` in ``bases``,
    one round per bit: a matching basis returns the prepared bit, a mismatched one its coin."""
    return bits ^ (bits ^ coins) & (sent_bases ^ bases)


def _round_bits(mask: int, num_rounds: int) -> bytes:
    """One byte, 0 or 1, per round of ``mask``, round 0 (the lowest bit) first."""
    return format(mask, f"0{num_rounds}b").encode().translate(_BIT_BYTES)[::-1]


def bb84_simulate(num_rounds: int, intercept_resend: bool, rng) -> ProtocolReport:
    """BB84 key distribution, optionally with an intercept-resend attacker.

    A sampler bit-sliced over rounds (see the module docstring): each coin
    array is one ``num_rounds``-bit int, round i its bit i.  The caller's
    generator gives exactly one ``rng.random()`` draw x, and
    ``random.Random(int(x * 2**53))`` gives the arrays by ``getrandbits``, in
    this order: sender bits; sender bases; with an attacker, the attacker's
    bases and coins; receiver bases; receiver coins.  A coin array covers
    every round, and a measurement reads it only where the bases differ.  Any
    generator with ``random()`` serves, :class:`random.Random` included.
    Rounds where sender and receiver bases match are sifted; qber is the
    error fraction among them (0.0 when none), and the report's classical
    bits are the receiver's sifted key.  ``num_rounds`` that is not an
    integer in 1..1,000,000 raises :class:`ConfigError`.
    """
    if not is_int(num_rounds, 1, _BB84_MAX_ROUNDS):
        raise ConfigError(f"num_rounds must lie in 1..{_BB84_MAX_ROUNDS}, got {num_rounds}")
    import random
    n = int(num_rounds)
    coins = random.Random(int(draw(rng) * 2**53)).getrandbits
    bits, bases = coins(n), coins(n)
    sent, sent_bases = bits, bases
    if intercept_resend:
        sent_bases = coins(n)
        sent = _bb84_measure(bits, bases, sent_bases, coins(n))
    bob_bases = coins(n)
    received = _bb84_measure(sent, sent_bases, bob_bases, coins(n))
    sifted_rounds = ~(bob_bases ^ bases) & ((1 << n) - 1)
    key = list(compress(_round_bits(received, n), _round_bits(sifted_rounds, n)))
    sifted = len(key)
    errors = ((received ^ bits) & sifted_rounds).bit_count()
    qber = errors / sifted if sifted else 0.0
    return ProtocolReport(
        protocol="bb84",
        engine="sampler",
        classical_bits=key,
        metrics={
            "rounds": float(n),
            "sifted_count": float(sifted),
            "sift_rate": sifted / n,
            "error_count": float(errors),
            "qber": qber,
        },
    )
