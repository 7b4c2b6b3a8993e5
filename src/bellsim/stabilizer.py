"""Stabilizer tableau simulation of Clifford circuits.

Tracks an n-qubit stabilizer state as a binary tableau in the
destabilizer/stabilizer form: rows 0..n-1 hold destabilizer generators,
rows n..2n-1 hold stabilizer generators.  Each row is a Pauli string
encoded as x-bits, z-bits and a sign bit, with bit pair (x, z) meaning
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).

The tableau is stored by column: for each qubit j one Python int holds
the x bits of all 2n rows (bit r is row r's x bit on qubit j), another
the z bits, and one more int holds the 2n sign bits.  Up to 64 qubits a
column is at most 128 bits, so a gate is a few int operations on the
columns it touches, and a measurement's row multiplication is one pass
over the qubits that updates every row at once.  ``x``, ``z`` and
``phase`` give the same bits as read-only uint8 arrays of shapes
(2n, n), (2n, n) and (2n,), built on access;
:meth:`StabilizerTableau.from_arrays` packs such arrays back.

Row invariants (checked by :func:`validate`):

* stabilizer rows commute pairwise,
* destabilizer row i anticommutes with stabilizer row i and commutes
  with every other stabilizer row.

Together they make the 2n rows linearly independent over GF(2).

One sign kernel answers every one-qubit Pauli question.  It returns None
when a stabilizer anticommutes with the Pauli P (a random z outcome,
<P> = 0); else P is, up to sign, the product of the stabilizers whose
destabilizers anticommute with it, and that sign gives the deterministic
z outcome, or <P>, without a change of basis.

The one Clifford rule, which the classifier uses too: H, S, SDG, X, Y,
Z, CNOT, CZ, and RX, RY, RZ by a multiple of pi/2 (Clifford sequences);
anything else raises :class:`NonCliffordGate`.  One gate check, ``_lower``,
checks a gate against the rule, given its kinds, and appends its kernels to
a flat program: :func:`bellsim.dsl.run` lowers a whole circuit that way
before it runs any of it, and :func:`apply_clifford` lowers one gate and
runs it on a copy; like every public operation, it returns a new tableau
and never mutates its input.  ``_measure``, the one measurement step, works
in place on a checked qubit; :func:`measure_z` and :func:`measure_z_forced`
check the qubit and run it on a copy.  A random outcome is one
:func:`~bellsim.errors.draw`, 1 below 0.5, and a determined one draws
nothing, as on the dense engine.

Supports up to 64 qubits; conversion to a dense statevector is capped at
12 qubits to match the statevector engine.  The kernels need
``int.bit_count`` (Python 3.10+).

Gates, measurements, Pauli expectations and :func:`stabilizer_strings`
are int arithmetic and load no numpy; only the array views (``x``, ``z``,
``phase``, :meth:`StabilizerTableau.from_arrays`), :func:`validate` and
:func:`to_statevector` import it, when called.  The gate set and its
check come from :mod:`bellsim.gates`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (
    BellSimError, DimensionError, InputError, NonCliffordGate, ProjectionError, SizeError,
    draw, finite_array, finite_real, is_int,
)
from .gates import GateOp, _check_qubit, check_gate, gate

if TYPE_CHECKING:
    import numpy as np
    from .statevector import StateVector

MAX_QUBITS = 64


def _unpack(words: list[int], num_bits: int) -> np.ndarray:
    """uint8 bit matrix of shape (len(words), num_bits); entry [i, r] is bit r of words[i]."""
    import numpy as np
    width = (num_bits + 7) // 8
    raw = np.frombuffer(b"".join(w.to_bytes(width, "little") for w in words), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(words), width), axis=1, count=num_bits, bitorder="little")


def _pack(bits: np.ndarray) -> list[int]:
    """Inverse of :func:`_unpack`: one int per row of a binary matrix."""
    import numpy as np
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class StabilizerTableau:
    """Binary tableau for an n-qubit stabilizer state, stored by column.

    Build one with :func:`init_zero` or :meth:`from_arrays`.  ``x``, ``z``
    and ``phase`` are read-only arrays computed on each access.
    """

    __slots__ = ("num_qubits", "_x", "_z", "_r")

    def __init__(self, num_qubits: int, x_cols: list[int], z_cols: list[int], signs: int):
        self.num_qubits = num_qubits
        self._x = x_cols
        self._z = z_cols
        self._r = signs

    @classmethod
    def from_arrays(cls, x, z, phase) -> "StabilizerTableau":
        """Tableau with the given (2n, n) x and z bits and (2n,) sign bits.

        Raises :class:`DimensionError` for inconsistent shapes,
        :class:`SizeError` outside 1..64 qubits and :class:`InputError`
        for entries other than 0 and 1.  The invariants are not checked;
        :func:`validate` does that.
        """
        import numpy as np
        x, z, phase = (finite_array(a, float, InputError, "tableau arrays") for a in (x, z, phase))
        n = x.shape[1] if x.ndim == 2 else -1
        if x.shape != (2 * n, n) or z.shape != x.shape or phase.shape != (2 * n,):
            raise DimensionError("tableau arrays have inconsistent shapes")
        if not 1 <= n <= MAX_QUBITS:
            raise SizeError(f"stabilizer engine supports 1..{MAX_QUBITS} qubits, got {n}")
        for arr in (x, z, phase):
            if not np.isin(arr, (0, 1)).all():
                raise InputError("tableau arrays must be binary")
        return cls(n, _pack(x.T), _pack(z.T), _pack(phase[None, :])[0])

    @property
    def x(self) -> np.ndarray:
        return _read_only(_unpack(self._x, 2 * self.num_qubits).T)

    @property
    def z(self) -> np.ndarray:
        return _read_only(_unpack(self._z, 2 * self.num_qubits).T)

    @property
    def phase(self) -> np.ndarray:
        return _read_only(_unpack([self._r], 2 * self.num_qubits)[0])

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(self.num_qubits, self._x.copy(), self._z.copy(), self._r)


def init_zero(num_qubits: int) -> StabilizerTableau:
    """Tableau stabilizing |00...0>."""
    if not is_int(num_qubits, 1, MAX_QUBITS):
        raise SizeError(f"stabilizer engine supports 1..{MAX_QUBITS} qubits, got {num_qubits}")
    n = int(num_qubits)
    return StabilizerTableau(n, [1 << j for j in range(n)], [1 << (n + j) for j in range(n)], 0)


# -- gate kernels: update one tableau in place, unchecked (_lower checks the gate) --

def _h(t: StabilizerTableau, q: int) -> None:
    x, z = t._x, t._z
    t._r ^= x[q] & z[q]
    x[q], z[q] = z[q], x[q]


def _s(t: StabilizerTableau, q: int) -> None:
    x, z = t._x, t._z
    t._r ^= x[q] & z[q]
    z[q] ^= x[q]


def _sdg(t: StabilizerTableau, q: int) -> None:
    x, z = t._x, t._z
    t._r ^= x[q] & ~z[q]
    z[q] ^= x[q]


def _pauli_x(t: StabilizerTableau, q: int) -> None:
    t._r ^= t._z[q]


def _pauli_y(t: StabilizerTableau, q: int) -> None:
    t._r ^= t._x[q] ^ t._z[q]


def _pauli_z(t: StabilizerTableau, q: int) -> None:
    t._r ^= t._x[q]


def _cnot(t: StabilizerTableau, c: int, tq: int) -> None:
    x, z = t._x, t._z
    t._r ^= x[c] & z[tq] & ~(x[tq] ^ z[c])
    x[tq] ^= x[c]
    z[c] ^= z[tq]


def _cz(t: StabilizerTableau, a: int, b: int) -> None:
    x, z = t._x, t._z
    t._r ^= x[a] & x[b] & (z[a] ^ z[b])
    z[a] ^= x[b]
    z[b] ^= x[a]


_KERNELS = {
    "H": _h, "S": _s, "SDG": _sdg, "X": _pauli_x, "Y": _pauli_y, "Z": _pauli_z,
    "CNOT": _cnot, "CZ": _cz,
}

# -- the Clifford rule: a kernel's own kind, or a rotation by k quarter turns --

CLIFFORD_ANGLE_ATOL = 1e-12

# Clifford sequences (time order, equal up to phase) for 0, 1, 2 and 3 quarter turns.
_ROTATION_SEQUENCES: dict[str, tuple[tuple[str, ...], ...]] = {
    "RZ": ((), ("S",), ("Z",), ("SDG",)),
    "RX": ((), ("H", "S", "H"), ("X",), ("H", "SDG", "H")),
    "RY": ((), ("H", "X"), ("Y",), ("X", "H")),
}


def _quarter_turns(angle: float) -> int | None:
    """k mod 4 when the finite ``angle`` is k quarter turns, else None; judged by its own
    cos and sin, exact for any float, not by angle / (pi/2), which loses huge angles' fraction."""
    c, s = math.cos(angle), math.sin(angle)
    if abs(c * s) > CLIFFORD_ANGLE_ATOL:
        return None
    if abs(c) >= abs(s):
        return 0 if c > 0 else 2
    return 1 if s > 0 else 3


def _clifford_kinds(kind: str, angle: float | None) -> tuple[str, ...] | None:
    """The kernel kinds (in time order) equal to a gate; None if none or if malformed."""
    try:
        if kind in _KERNELS:
            return (kind,)
        k = _quarter_turns(finite_real(angle, "angle")) if kind in _ROTATION_SEQUENCES else None
    except (TypeError, InputError):  # an unhashable kind; a missing, non-real or non-finite angle
        return None
    return None if k is None else _ROTATION_SEQUENCES[kind][k]


def _lower(program: list, n: int, kind: str, qubits, angle: float | None, kinds) -> None:
    """The one gate check: append a ``(kernel, qubits)`` entry per :func:`_clifford_kinds`
    ``kinds`` of a gate on an ``n``-qubit tableau.  A malformed gate raises its
    :func:`~bellsim.gates.check_gate` error first, then one outside the rule
    :class:`NonCliffordGate`, and only then are the qubits checked against ``n``."""
    if kinds is None:
        check_gate(kind, qubits, angle)
        if angle is None:
            raise NonCliffordGate(f"{kind} is not a Clifford gate")
        raise NonCliffordGate(f"{kind} angle {angle!r} is not a multiple of pi/2")
    qubits = check_gate(kind, qubits, angle, n)
    for k in kinds:
        program.append((_KERNELS[k], qubits))


def apply_clifford(t: StabilizerTableau, op: GateOp) -> StabilizerTableau:
    """Apply one gate of the Clifford rule and return the updated tableau.

    RX, RY and RZ by a multiple of pi/2 run as their Clifford sequence.  T,
    TDG and other rotation angles raise :class:`NonCliffordGate`; a qubit
    outside the tableau raises :class:`QubitIndexError`."""
    program: list = []
    _lower(program, t.num_qubits, op.kind, op.qubits, op.angle, _clifford_kinds(op.kind, op.angle))
    out = t.copy()
    for kernel, qubits in program:
        kernel(out, *qubits)
    return out


def apply(t: StabilizerTableau, kind: str, *qubits: int) -> StabilizerTableau:
    """Apply one gate by name, ``apply(t, "CNOT", 0, 1)``, and return the new tableau.

    Raises what :func:`~bellsim.gates.gate` and :func:`apply_clifford`
    raise for the same gate.
    """
    return apply_clifford(t, gate(kind, *qubits))


# -- measurement kernels -----------------------------------------------------------

def _prefix_xor(v: int) -> int:
    """Bit i is the XOR of bits 0..i-1 of ``v`` (at most 64 bits)."""
    p = v << 1
    for shift in (1, 2, 4, 8, 16, 32):
        p ^= p << shift
    return p


def _product_sign(t: StabilizerTableau, anti: int) -> int | None:
    """Sign bit of +/-P, a one-qubit Pauli; None if a stabilizer anticommutes with P.

    ``anti`` marks the rows that anticommute with P: ``x[q]`` for Z_q,
    ``z[q]`` for X_q, ``x[q] ^ z[q]`` for Y_q.  +/-P is the product of
    the stabilizer rows n+i whose destabilizer i is marked.  Each
    selected row is multiplied onto the product of the selected rows
    before it, an XOR prefix over the column's bits, and the factors of i
    of all these products are counted per qubit with ``int.bit_count``.
    """
    n = t.num_qubits
    if anti >> n:
        return None
    total = 0
    for xc, zc in zip(t._x, t._z):
        x1 = (xc >> n) & anti
        z1 = (zc >> n) & anti
        if not (x1 | z1):
            continue
        x2 = _prefix_xor(x1)
        z2 = _prefix_xor(z1)
        x1z2 = x1 & z2
        odd = (x2 & z1) ^ x1z2
        total += odd.bit_count() + 2 * (odd & (x1 ^ x2 ^ z1 ^ z2 ^ x1z2)).bit_count()
    return ((total >> 1) + ((t._r >> n) & anti).bit_count()) & 1


def _collapse(t: StabilizerTableau, n: int, q: int, outcome: int) -> None:
    """Collapse a random z-measurement of ``q`` onto ``outcome``, in place.

    Every row with an x bit on ``q`` except the first such stabilizer row
    p is multiplied by row p.  One pass over the qubits XORs the row mask
    into each column where p is not the identity, adds that qubit's
    factors of i (+i or -i per anticommuting row) into a two-bit
    carry-save counter per row, and moves row p to row p-n.  A sign bit
    becomes bit 1 of the product's exponent of i: destabilizer products
    can land on an odd exponent, whose imaginary part is dropped, as
    destabilizer signs carry no observable meaning.
    """
    xs, zs = t._x, t._z
    stab = xs[q] >> n
    p = n + (stab & -stab).bit_length() - 1
    bp = 1 << p
    bd = 1 << (p - n)
    rows = xs[q] ^ bp
    keep = ~(bp | bd)
    c0 = c1 = 0
    for j in range(n):
        xj, zj = xs[j], zs[j]
        if xj & bp:
            if zj & bp:  # pivot Y: anticommutes with X and Z, -i against X
                anti = (xj ^ zj) & rows
                neg = anti & xj
                zs[j] = ((zj ^ rows) & keep) | bd
            else:  # pivot X: anticommutes with Z and Y, -i against Z
                anti = zj & rows
                neg = anti & ~xj
                zs[j] = zj & keep
            xs[j] = ((xj ^ rows) & keep) | bd
        elif zj & bp:  # pivot Z: anticommutes with X and Y, -i against Y
            anti = xj & rows
            neg = anti & zj
            xs[j] = xj & keep
            zs[j] = ((zj ^ rows) & keep) | bd
        else:
            xs[j] = xj & keep
            zs[j] = zj & keep
            continue
        c1 ^= (c0 & anti) ^ neg
        c0 ^= anti
    zs[q] |= bp
    r = t._r
    sign = (r >> p) & 1
    r ^= c1 ^ (rows if sign else 0)
    t._r = (r & keep) | (bd if sign else 0) | (bp if outcome else 0)


def _measure(t: StabilizerTableau, n: int, q: int, outcome, rng) -> tuple[int, bool]:
    """Measure qubit ``q`` of ``t``, already checked, in place: a random outcome is
    drawn from ``rng`` if ``outcome`` is None, else forced.  Returns it and
    whether it was determined; the dense engine's ``_measure`` has this shape."""
    if outcome is not None and not is_int(outcome, 0, 1):
        raise ProjectionError(f"outcome must be 0 or 1, got {outcome!r}")
    sign = _product_sign(t, t._x[q])
    if sign is not None:
        if outcome is not None and outcome != sign:
            raise ProjectionError(f"outcome {outcome} on qubit {q} has probability 0")
        return sign, True
    outcome = int(draw(rng) < 0.5) if outcome is None else int(outcome)
    _collapse(t, n, q, outcome)
    return outcome, False


def measure_z(t: StabilizerTableau, q: int, rng) -> tuple[int, bool, StabilizerTableau]:
    """Measure qubit ``q`` in the computational basis.

    Returns ``(outcome, was_deterministic, tableau_after)``, the input left
    as it was.  A random outcome is one ``rng.random()`` draw, 1 below 0.5;
    a deterministic one draws nothing and returns an equal tableau.
    """
    _check_qubit(q, t.num_qubits, "tableau")
    out = t.copy()
    return (*_measure(out, t.num_qubits, q, None, rng), out)


def measure_z_forced(t: StabilizerTableau, q: int, outcome: int) -> tuple[bool, StabilizerTableau]:
    """Collapse qubit ``q`` to a chosen outcome.

    Returns ``(was_deterministic, tableau_after)``.  Forcing an outcome
    of probability zero raises :class:`ProjectionError`.
    """
    _check_qubit(q, t.num_qubits, "tableau")
    out = t.copy()
    return _measure(out, t.num_qubits, q, outcome, None)[1], out


def outcome_probability(t: StabilizerTableau, q: int) -> float:
    """Probability that a z-measurement of qubit ``q`` returns 1.

    Always exactly 0.0, 0.5 or 1.0 for a stabilizer state.
    """
    return (1.0 - pauli_expectation(t, q, "Z")) / 2.0


def pauli_expectation(t: StabilizerTableau, q: int, pauli: str) -> float:
    """Expectation value of X, Y or Z (any case) on qubit ``q``: exactly -1, 0 or +1."""
    name = pauli.upper() if isinstance(pauli, str) else None
    if name not in ("X", "Y", "Z"):
        raise InputError(f"pauli must be X, Y or Z, got {pauli!r}")
    _check_qubit(q, t.num_qubits, "tableau")
    x, z = t._x[q], t._z[q]
    sign = _product_sign(t, x if name == "Z" else z if name == "X" else x ^ z)
    return 0.0 if sign is None else 1.0 - 2.0 * sign


def to_statevector(t: StabilizerTableau) -> StateVector:
    """Exact dense statevector of the stabilized state (n <= 12).

    Deterministic: finds one computational basis state in the support by
    collapsing a scratch copy (always picking outcome 0 on random
    branches), then projects it with (I + S_k)/2 for every stabilizer
    generator S_k and normalizes.
    """
    import numpy as np
    from . import statevector as sv
    n = t.num_qubits
    if n > sv.MAX_QUBITS:
        raise SizeError(f"dense conversion supports up to {sv.MAX_QUBITS} qubits, got {n}")
    probe = t.copy()
    index = 0
    for q in range(n):
        bit = _product_sign(probe, probe._x[q])
        if bit is None:
            _collapse(probe, n, q, 0)
            bit = 0
        index = (index << 1) | bit
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    for row in range(n, 2 * n):
        out = -amps if t._r >> row & 1 else amps.copy()
        for j in range(n):
            letter = "IXZY"[(t._x[j] >> row & 1) | (t._z[j] >> row & 1) << 1]
            if letter != "I":
                sv._gate(out, n, letter, (j,), None)
        amps = (amps + out) / 2.0
    nrm = float(np.linalg.norm(amps))
    if nrm <= 0.0:  # pragma: no cover - impossible for a valid tableau
        raise BellSimError("support search produced a state outside the stabilized subspace")
    return sv.StateVector(n, amps / nrm)


_LETTERS = str.maketrans("0123", "IXZY")  # a cell's hex digit x + 2z
_SIGNS = str.maketrans("01", "+-")


def stabilizer_strings(t: StabilizerTableau) -> list[str]:
    """Human-readable stabilizer generators, e.g. ['+XX', '-ZZ'].

    The stabilizer bits of the columns (the top n of each) are joined,
    qubit 0 first, into one int for x and one for z.  Written in binary and
    read back as hex, every bit becomes a hex digit, so x + 2z holds one
    digit per cell; digit k of each qubit's block is stabilizer row n-1-k.
    """
    n = t.num_qubits
    xs = zs = 0
    for xc, zc in zip(t._x, t._z):
        xs = (xs << n) | (xc >> n)
        zs = (zs << n) | (zc >> n)
    bits = f"0{n * n}b"
    cells = int(format(xs, bits), 16) + 2 * int(format(zs, bits), 16)
    grid = format(cells, f"0{n * n}x").translate(_LETTERS)
    signs = format(t._r >> n, f"0{n}b").translate(_SIGNS)
    return [signs[k] + grid[k::n] for k in range(n - 1, -1, -1)]


def validate(t: StabilizerTableau) -> None:
    """Check the tableau group-theoretic invariants; raise on violation.

    The bits are binary and the shapes consistent by construction
    (:meth:`StabilizerTableau.from_arrays` checks both).  Row commutation
    is one GF(2) product, X Z^T + Z X^T (mod 2), taken in float64: exact
    for these counts (at most 2n), and run through BLAS.
    Once both checks pass, the rows' symplectic Gram matrix is [[D, I],
    [I, 0]], invertible over GF(2), so the rows are independent as well.
    """
    import numpy as np
    n = t.num_qubits
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
