"""Stabilizer tableau simulation of Clifford circuits.

Tracks an n-qubit stabilizer state as a binary tableau in the
destabilizer/stabilizer form: rows 0..n-1 hold destabilizer generators,
rows n..2n-1 hold stabilizer generators.  Each row is a Pauli string
encoded as x-bits, z-bits and a sign bit (``phase``), with bit pair
(x, z) meaning I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).

Row invariants (checked by :func:`validate`):

* stabilizer rows commute pairwise,
* destabilizer row i anticommutes with stabilizer row i and commutes
  with every other stabilizer row.

Together they make the 2n rows linearly independent over GF(2).

Supported gates: H, S, SDG, X, Y, Z, CNOT, CZ.  Anything else raises
:class:`NonCliffordGate`.  Public operations return a new tableau and
never mutate their input.  Measurement randomness comes from a
caller-supplied :class:`numpy.random.Generator`; a measurement with a
deterministic outcome consumes no randomness.

Supports up to 64 qubits; conversion to a dense statevector is capped at
12 qubits to match the statevector engine.  A measurement is one
vectorised update over all rows, never a loop over them, so up to 64
qubits its cost is numpy call overhead rather than bytes moved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevector as sv
from .errors import (
    BellSimError, InputError, NonCliffordGate, ProjectionError, QubitIndexError, SizeError
)

MAX_QUBITS = 64

CLIFFORD_GATE_KINDS = frozenset({"H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ"})


@dataclass(eq=False)
class StabilizerTableau:
    """Binary tableau for an n-qubit stabilizer state."""

    num_qubits: int
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(self.num_qubits, self.x.copy(), self.z.copy(), self.phase.copy())


def _anticommuting(x1, z1, x2, z2) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit factors of i in the Pauli product P1 * P2, over broadcast bit arrays.

    ``anti`` marks the anticommuting qubits, each adding +i or -i = i**3;
    ``neg`` marks the -i ones.  The product's exponent of i is ``anti.sum()
    + 2 * neg.sum()`` plus 2 per minus sign, mod 4 (Aaronson-Gottesman's g).
    """
    x1z2 = x1 & z2
    anti = (x2 & z1) ^ x1z2
    return anti, anti & (x1 ^ x2 ^ z1 ^ z2 ^ x1z2)


def init_zero(num_qubits: int) -> StabilizerTableau:
    """Tableau stabilizing |00...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise SizeError(f"stabilizer engine supports 1..{MAX_QUBITS} qubits, got {num_qubits}")
    n = num_qubits
    x = np.zeros((2 * n, n), dtype=np.uint8)
    z = np.zeros((2 * n, n), dtype=np.uint8)
    x[np.arange(n), np.arange(n)] = 1
    z[np.arange(n, 2 * n), np.arange(n)] = 1
    return StabilizerTableau(n, x, z, np.zeros(2 * n, dtype=np.uint8))


def _check_qubit(t: StabilizerTableau, q: int) -> None:
    if not 0 <= q < t.num_qubits:
        raise QubitIndexError(f"qubit {q} out of range for {t.num_qubits}-qubit tableau")


def _h(t: StabilizerTableau, q: int) -> None:
    t.phase ^= t.x[:, q] & t.z[:, q]
    t.x[:, q], t.z[:, q] = t.z[:, q].copy(), t.x[:, q].copy()


def _s(t: StabilizerTableau, q: int) -> None:
    t.phase ^= t.x[:, q] & t.z[:, q]
    t.z[:, q] ^= t.x[:, q]


def _sdg(t: StabilizerTableau, q: int) -> None:
    t.phase ^= t.x[:, q] & (t.z[:, q] ^ 1)
    t.z[:, q] ^= t.x[:, q]


def _cnot(t: StabilizerTableau, c: int, tq: int) -> None:
    t.phase ^= t.x[:, c] & t.z[:, tq] & (t.x[:, tq] ^ t.z[:, c] ^ 1)
    t.x[:, tq] ^= t.x[:, c]
    t.z[:, c] ^= t.z[:, tq]


def _apply_inplace(t: StabilizerTableau, kind: str, qubits: tuple[int, ...]) -> None:
    if kind == "H":
        _h(t, qubits[0])
    elif kind == "S":
        _s(t, qubits[0])
    elif kind == "SDG":
        _sdg(t, qubits[0])
    elif kind == "X":
        t.phase ^= t.z[:, qubits[0]]
    elif kind == "Y":
        t.phase ^= t.x[:, qubits[0]] ^ t.z[:, qubits[0]]
    elif kind == "Z":
        t.phase ^= t.x[:, qubits[0]]
    elif kind == "CNOT":
        _cnot(t, qubits[0], qubits[1])
    elif kind == "CZ":
        _h(t, qubits[1])
        _cnot(t, qubits[0], qubits[1])
        _h(t, qubits[1])
    else:  # pragma: no cover - guarded by apply_clifford
        raise NonCliffordGate(f"gate kind {kind!r} is not in the Clifford set")


def apply_clifford(t: StabilizerTableau, op: sv.GateOp) -> StabilizerTableau:
    """Apply one Clifford gate and return the updated tableau.

    Raises :class:`NonCliffordGate` for any gate kind outside
    H/S/SDG/X/Y/Z/CNOT/CZ (including T and the continuous rotations).
    """
    if op.kind not in CLIFFORD_GATE_KINDS:
        raise NonCliffordGate(
            f"gate {op.kind} cannot be applied to a stabilizer tableau; "
            f"supported kinds: {sorted(CLIFFORD_GATE_KINDS)}"
        )
    for q in op.qubits:
        _check_qubit(t, q)
    out = t.copy()
    _apply_inplace(out, op.kind, op.qubits)
    return out


def apply(t: StabilizerTableau, kind: str, *qubits: int) -> StabilizerTableau:
    """Convenience wrapper: ``apply(t, "CNOT", 0, 1)``."""
    return apply_clifford(t, sv.gate(kind, *qubits))


def _deterministic_outcome(t: StabilizerTableau, q: int) -> int:
    """Outcome of a z-measurement when no stabilizer anticommutes with Z_q.

    The outcome is the sign of the product of the stabilizer rows whose
    matching destabilizer anticommutes with Z_q.  The rows commute, so
    each is multiplied onto the XOR prefix of the rows before it, and the
    exponents of i of all these products are summed at once.
    """
    n = t.num_qubits
    rows = t.x[:n, q].astype(bool)
    x1 = t.x[n:][rows]
    z1 = t.z[n:][rows]
    anti, neg = _anticommuting(
        x1, z1, np.bitwise_xor.accumulate(x1) ^ x1, np.bitwise_xor.accumulate(z1) ^ z1
    )
    total = np.count_nonzero(anti) + 2 * np.count_nonzero(neg)
    return ((total >> 1) + np.count_nonzero(t.phase[n:][rows])) & 1


def _collapse_random(t: StabilizerTableau, q: int, outcome: int) -> StabilizerTableau:
    """Collapse a random z-measurement of ``q`` onto ``outcome``.

    Every row with an x bit on ``q`` except the first such stabilizer row
    p is multiplied by row p in one whole-array update (p is masked to
    the identity on the other rows).  A sign bit becomes bit 1 of the
    product's exponent of i: destabilizer products can land on an odd
    exponent, whose imaginary part is dropped, as destabilizer signs
    carry no observable meaning.
    """
    n = t.num_qubits
    p = n + int(t.x[n:, q].argmax())
    out = t.copy()
    rows = out.x[:, q].copy()
    rows[p] = 0
    if np.count_nonzero(rows):
        x1 = out.x[p] & rows[:, None]
        z1 = out.z[p] & rows[:, None]
        anti, neg = _anticommuting(x1, z1, out.x, out.z)
        exponents = (anti + 2 * neg).sum(axis=1, dtype=np.uint8)
        out.phase ^= ((exponents >> 1) & 1) ^ (rows & out.phase[p])
        out.x ^= x1
        out.z ^= z1
    out.x[p - n] = out.x[p]
    out.z[p - n] = out.z[p]
    out.phase[p - n] = out.phase[p]
    out.x[p] = 0
    out.z[p] = 0
    out.z[p, q] = 1
    out.phase[p] = outcome
    return out


def measure_z(
    t: StabilizerTableau, q: int, rng: np.random.Generator
) -> tuple[int, bool, StabilizerTableau]:
    """Measure qubit ``q`` in the computational basis.

    Returns ``(outcome, was_deterministic, tableau_after)``.  A random
    outcome consumes exactly one bit from ``rng``; a deterministic one
    consumes none and returns the input tableau unchanged.
    """
    _check_qubit(t, q)
    if np.count_nonzero(t.x[t.num_qubits:, q]):
        outcome = int(rng.integers(0, 2))
        return outcome, False, _collapse_random(t, q, outcome)
    return _deterministic_outcome(t, q), True, t


def measure_z_forced(t: StabilizerTableau, q: int, outcome: int) -> tuple[bool, StabilizerTableau]:
    """Collapse qubit ``q`` to a chosen outcome.

    Returns ``(was_deterministic, tableau_after)``.  Forcing an outcome
    of probability zero raises :class:`ProjectionError`.
    """
    _check_qubit(t, q)
    if outcome not in (0, 1):
        raise ProjectionError(f"outcome must be 0 or 1, got {outcome!r}")
    if np.count_nonzero(t.x[t.num_qubits:, q]):
        return False, _collapse_random(t, q, outcome)
    if _deterministic_outcome(t, q) != outcome:
        raise ProjectionError(f"outcome {outcome} on qubit {q} has probability 0")
    return True, t


def outcome_probability(t: StabilizerTableau, q: int) -> float:
    """Probability that a z-measurement of qubit ``q`` returns 1.

    Always exactly 0.0, 0.5 or 1.0 for a stabilizer state.
    """
    _check_qubit(t, q)
    if np.count_nonzero(t.x[t.num_qubits:, q]):
        return 0.5
    return float(_deterministic_outcome(t, q))


_BASIS_CHANGE = {"Z": (), "X": ("H",), "Y": ("SDG", "H")}


def pauli_expectation(t: StabilizerTableau, q: int, pauli: str) -> float:
    """Expectation value of X, Y or Z on qubit ``q``: exactly -1, 0 or +1."""
    if pauli not in _BASIS_CHANGE:
        raise InputError(f"pauli must be X, Y or Z, got {pauli!r}")
    rotated = t
    for kind in _BASIS_CHANGE[pauli]:
        rotated = apply(rotated, kind, q)
    return 1.0 - 2.0 * outcome_probability(rotated, q)


def _apply_pauli_row(t: StabilizerTableau, row: int, amps: np.ndarray) -> np.ndarray:
    n = t.num_qubits
    out = amps
    for j in range(n):
        xb, zb = int(t.x[row, j]), int(t.z[row, j])
        if xb == 0 and zb == 0:
            continue
        name = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(xb, zb)]
        out = sv._apply_matrix(out, sv.FIXED_GATES[name], (j,), n)
    if t.phase[row]:
        out = -out
    return out


def to_statevector(t: StabilizerTableau) -> sv.StateVector:
    """Exact dense statevector of the stabilized state (n <= 12).

    Deterministic: finds one computational basis state in the support by
    collapsing a scratch copy (always picking outcome 0 on random
    branches), then projects it with (I + S_k)/2 for every stabilizer
    generator S_k and normalizes.
    """
    n = t.num_qubits
    if n > sv.MAX_QUBITS:
        raise SizeError(f"dense conversion supports up to {sv.MAX_QUBITS} qubits, got {n}")
    probe = t
    bits = []
    for q in range(n):
        if np.count_nonzero(probe.x[n:, q]):
            probe = _collapse_random(probe, q, 0)
            bits.append(0)
        else:
            bits.append(_deterministic_outcome(probe, q))
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    for row in range(n, 2 * n):
        amps = (amps + _apply_pauli_row(t, row, amps)) / 2.0
    nrm = float(np.linalg.norm(amps))
    if nrm <= 0.0:  # pragma: no cover - impossible for a valid tableau
        raise BellSimError("support search produced a state outside the stabilized subspace")
    return sv.StateVector(n, amps / nrm)


_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)  # indexed by x + 2z


def stabilizer_strings(t: StabilizerTableau) -> list[str]:
    """Human-readable stabilizer generators, e.g. ['+XX', '-ZZ']."""
    n = t.num_qubits
    letters = _LETTERS[t.x[n:] | (t.z[n:] << 1)]
    signs = ["-" if sign else "+" for sign in t.phase[n:].tolist()]
    return [sign + row.tobytes().decode("ascii") for sign, row in zip(signs, letters)]


def validate(t: StabilizerTableau) -> None:
    """Check the tableau group-theoretic invariants; raise on violation.

    Row commutation is one GF(2) product, X Z^T + Z X^T (mod 2), taken in
    float64: exact for these counts (at most 2n), and run through BLAS.
    Once both checks pass, the rows' symplectic Gram matrix is [[D, I],
    [I, 0]], invertible over GF(2), so the rows are independent as well.
    """
    n = t.num_qubits
    if t.x.shape != (2 * n, n) or t.z.shape != (2 * n, n) or t.phase.shape != (2 * n,):
        raise BellSimError("tableau arrays have inconsistent shapes")
    for arr in (t.x, t.z, t.phase):
        if not np.isin(arr, (0, 1)).all():
            raise BellSimError("tableau arrays must be binary")
    x = t.x.astype(np.float64)
    z = t.z.astype(np.float64)
    anti = (x @ z.T + z @ x.T) % 2
    bad = np.argwhere(np.triu(anti[n:, n:], 1))
    if bad.size:
        i, j = bad[0]
        raise BellSimError(f"stabilizer rows {i} and {j} anticommute")
    bad = np.argwhere(anti[:n, n:] != np.eye(n))
    if bad.size:
        i, j = bad[0]
        raise BellSimError(f"destabilizer {i} has wrong commutation with stabilizer {j}")
