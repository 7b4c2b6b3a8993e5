"""Protocol drivers: teleportation, superdense coding, and BB84.

Each driver returns a :class:`ProtocolReport` with the engine used, the
classical bits produced, and numeric quality metrics (fidelity, error
rates).  Teleportation and superdense coding are circuits run through
``dsl.run``'s gate-and-measure loop; BB84 is a sampler.

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
  1,000,000 per call.

Randomness is drawn only from the caller-supplied generator, in a fixed
documented order, so seeded runs are exactly reproducible.  Measurements
with deterministic outcomes consume no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsl
from . import stabilizer as st
from . import statevector as sv
from .errors import ConfigError, InputError, NonCliffordGate, is_int, pair

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
    """Outcome record for one protocol run."""

    protocol: str
    engine: str
    classically_simulable: bool
    classical_bits: list[int] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

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
            f"(0, 1, +, -, +i, -i) and cannot be prepared on the stabilizer engine"
        )
    return STABILIZER_INPUTS[key]


def _preparation(name: str, num_qubits: int) -> dsl.Circuit:
    """Circuit preparing a named stabilizer input on qubit 0 of ``num_qubits``."""
    gates = resolve_stabilizer_input(name)
    return dsl.Circuit(num_qubits, tuple(dsl.Instruction(kind, (0,)) for kind in gates))


def stabilizer_input_state(name: str) -> sv.StateVector:
    """Dense single-qubit state for a named stabilizer input."""
    return dsl._execute(_preparation(name, 1), sv.zero_state(1), None)[2]


def teleport_statevector(
    input_state: sv.StateVector,
    rng: np.random.Generator,
    force_outcomes: tuple[int, int] | None = None,
) -> tuple[ProtocolReport, np.ndarray]:
    """Teleport a single-qubit state, exactly, on the statevector engine.

    Returns the report together with the receiver qubit's 2x2 reduced
    density matrix.  ``force_outcomes`` optionally pins the two
    mid-protocol measurement outcomes (m0, m1) instead of sampling them;
    every pair occurs with probability 1/4, so forcing is always legal.
    The fidelity metric compares the receiver qubit against the input.
    """
    if input_state.num_qubits != 1:
        raise InputError(f"teleportation input must be 1 qubit, got {input_state.num_qubits}")
    forced = None if force_outcomes is None else pair(force_outcomes, InputError, "force_outcomes")
    amps = np.kron(input_state.amplitudes, sv.zero_state(2).amplitudes)
    bits, _, state = dsl._execute(_TELEPORT, sv.StateVector(3, amps), rng, forced)
    rho = sv.reduced_density(state, 2)
    report = ProtocolReport(
        protocol="teleport",
        engine="statevector",
        classically_simulable=False,
        classical_bits=bits,
        metrics={"fidelity": sv.fidelity(input_state, rho)},
    )
    return report, rho


def teleport_stabilizer(input_name: str, rng: np.random.Generator) -> ProtocolReport:
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
        classically_simulable=True,
        classical_bits=bits,
        metrics={"fidelity": fidelity, **dict(zip(("output_x", "output_y", "output_z"), r_out))},
    )


def superdense_code(bits: tuple[int, int], rng: np.random.Generator) -> ProtocolReport:
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
        classically_simulable=True,
        classical_bits=outcomes,
        metrics={
            "success": float(outcomes == [b1, b2]),
            "deterministic": float(all(deterministic)),
        },
    )


def _bb84_measure(
    bits: np.ndarray, sent_bases: np.ndarray, bases: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Outcomes of measuring qubits prepared as ``bits`` in ``sent_bases`` in ``bases``.

    A matching basis returns the prepared bit; a mismatched one returns a
    fair coin, drawn only for those rounds, in round order.
    """
    out = bits.copy()
    mismatched = sent_bases != bases
    out[mismatched] = rng.integers(0, 2, size=int(np.count_nonzero(mismatched)), dtype=np.uint8)
    return out


def bb84_simulate(
    num_rounds: int, intercept_resend: bool, rng: np.random.Generator
) -> ProtocolReport:
    """BB84 key distribution, optionally with an intercept-resend attacker.

    A sampler vectorised over rounds (see the module docstring).  The
    generator is consumed array by array, each in round order: sender
    bits; sender bases; with an attacker, the attacker's bases and then
    coins for the rounds where they differ from the sender's; receiver
    bases; receiver coins for the rounds where the receiver's basis
    differs from the one the qubit was last prepared in.  Rounds where
    sender and receiver bases match are sifted; qber is the error
    fraction among them (0.0 when none), and the report's classical bits
    are the receiver's sifted key.  ``num_rounds`` that is not an integer
    in 1..1,000,000 raises :class:`ConfigError`.
    """
    if not is_int(num_rounds, 1, _BB84_MAX_ROUNDS):
        raise ConfigError(f"num_rounds must lie in 1..{_BB84_MAX_ROUNDS}, got {num_rounds}")
    bits = rng.integers(0, 2, size=num_rounds, dtype=np.uint8)
    bases = rng.integers(0, 2, size=num_rounds, dtype=np.uint8)
    sent, sent_bases = bits, bases
    if intercept_resend:
        sent_bases = rng.integers(0, 2, size=num_rounds, dtype=np.uint8)
        sent = _bb84_measure(bits, bases, sent_bases, rng)
    bob_bases = rng.integers(0, 2, size=num_rounds, dtype=np.uint8)
    received = _bb84_measure(sent, sent_bases, bob_bases, rng)
    sifted_rounds = bob_bases == bases
    key = received[sifted_rounds]
    sifted = len(key)
    errors = int(np.count_nonzero(key != bits[sifted_rounds]))
    qber = errors / sifted if sifted else 0.0
    return ProtocolReport(
        protocol="bb84",
        engine="sampler",
        classically_simulable=True,
        classical_bits=key.tolist(),
        metrics={
            "rounds": float(num_rounds),
            "sifted_count": float(sifted),
            "sift_rate": sifted / num_rounds,
            "error_count": float(errors),
            "qber": qber,
        },
    )
