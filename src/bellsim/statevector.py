"""Dense statevector simulation for small qubit registers.

Exact complex-amplitude simulation, capped at 12 qubits.  This engine is
deliberately simple and serves as the reference implementation that the
stabilizer engine and the protocol drivers are checked against.

Conventions
-----------
* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  the computational basis index: ``|q0 q1 ... q_{n-1}>``.
* Operations are pure: they return a new :class:`StateVector` and never
  mutate their input.
* A random outcome is one :func:`~bellsim.errors.draw`, 1 below P(1),
  and a determined one draws nothing, as on the stabilizer engine.
* One set of kernels updates a flat amplitude array in place through
  reshape views: ``(2**q, 2, 2**(n-q-1))`` for a gate or measurement on
  qubit ``q``, ``(2**lo, 2, 2**(hi-lo-1), 2, 2**(n-hi-1))`` for CNOT and
  CZ.  ``_unitary`` runs every one-qubit gate from its 2x2 tuple: a
  diagonal scales each half whose factor is not 1, an antidiagonal swaps
  the halves first, any other is one matmul.  ``_gate`` runs a gate that
  :func:`check_gate` has passed, for :func:`apply_gate` on a copy and for
  :func:`bellsim.dsl.run` on one copy of a whole circuit; each validates
  the state once, at the end.
* ``_fuse`` makes each run of one-qubit gates on a qubit one ``_unitary``
  pass, a 2x2 product in scalar Python placed where a measurement or a
  two-qubit gate on the qubit flushes it (a diagonal passes a CZ and a
  CNOT's control), or at the end.  Outcomes match one gate at a time draw
  for draw, amplitudes within 1e-12, and bit for bit where only CNOTs and
  CZs lie between a run of one gate and its flush point, as in teleportation.
* The gate set (``GATES``), its check (``check_gate``), ``GateOp`` and
  ``gate`` live in the numpy-free :mod:`bellsim.gates`, so the parser and
  the tableau engine need no numpy; they are re-exported here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InputError,
    NormalizationError,
    ObservableError,
    ProjectionError,
    QubitIndexError,
    SizeError,
)
from .errors import draw, finite_array, finite_real, is_int, pair
from .gates import GATES, GateOp, check_gate, gate  # noqa: F401 - re-exported
from .gates import _check_qubit

MAX_QUBITS = 12
NORM_ATOL = 1e-10
PROJECTION_EPS = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Each one-qubit matrix as a row-major tuple (m00, m01, m10, m11): _unitary applies
# these, the fusion pass multiplies them in scalar Python, and the arrays are built from them.
_MATRICES = {
    "H": (_SQRT1_2, _SQRT1_2, _SQRT1_2, -_SQRT1_2),
    "X": (0, 1, 1, 0),
    "Y": (0, -1j, 1j, 0),
    "Z": (1, 0, 0, -1),
    "S": (1, 0, 0, 1j),
    "SDG": (1, 0, 0, -1j),
    "T": (1, 0, 0, cmath.exp(1j * math.pi / 4)),
    "TDG": (1, 0, 0, cmath.exp(-1j * math.pi / 4)),
}


def _array(m: tuple) -> np.ndarray:
    return np.array(m, dtype=complex).reshape(2, 2)


FIXED_GATES: dict[str, np.ndarray] = {kind: _array(m) for kind, m in _MATRICES.items()}

ROTATION_GATES = tuple(kind for kind, (_, takes_angle) in GATES.items() if takes_angle)


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """The 2x2 unitary for RX, RY or RZ at a finite real angle; else :class:`InputError`."""
    return _array(_rotation(kind, finite_real(angle, f"{kind} angle")))


def _rotation(kind: str, angle: float) -> tuple:
    """RX, RY or RZ at ``angle`` as a row-major tuple, the one source of each rotation."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    if kind == "RX":
        return (c, -1j * s, -1j * s, c)
    if kind == "RY":
        return (c, -s, s, c)
    if kind == "RZ":
        return (complex(c, -s), 0, 0, complex(c, s))
    raise InputError(f"unknown rotation kind {kind!r}")


def _check_size(num_qubits) -> None:
    if not is_int(num_qubits, 1, MAX_QUBITS):
        raise SizeError(f"statevector engine supports 1..{MAX_QUBITS} qubits, got {num_qubits}")


@dataclass(frozen=True)
class StateVector:
    """An n-qubit pure state with unit norm.

    The amplitude array is copied on construction and frozen read-only.
    ``num_qubits`` must be an integer in 1..12 (:class:`SizeError`).
    Length must be exactly ``2**num_qubits`` and the norm must be 1 within
    1e-10; violations raise :class:`DimensionError` / :class:`NormalizationError`.
    Non-finite amplitudes (NaN, inf) raise :class:`InputError`.
    """

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_size(self.num_qubits)
        amps = finite_array(self.amplitudes, complex, InputError, "state amplitudes")
        amps = amps.reshape(-1).copy()
        if amps.shape[0] != 2**self.num_qubits:
            raise DimensionError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got {amps.shape[0]}"
            )
        with np.errstate(over="ignore"):  # finite amplitudes whose squares overflow: norm inf
            nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise NormalizationError(f"state norm {nrm!r} differs from 1 by more than {NORM_ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Born probabilities over the computational basis."""
        return np.abs(self.amplitudes) ** 2

    def tensor(self) -> np.ndarray:
        """The amplitudes reshaped to one axis per qubit (read-only view)."""
        return self.amplitudes.reshape([2] * self.num_qubits)


def zero_state(num_qubits: int) -> StateVector:
    """The all-zeros computational basis state on ``num_qubits`` qubits."""
    _check_size(num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def bell_psi_plus() -> StateVector:
    """(|01> + |10>)/sqrt(2)."""
    return StateVector(2, np.array([0, _SQRT1_2, _SQRT1_2, 0], dtype=complex))


def bell_phi_plus() -> StateVector:
    """(|00> + |11>)/sqrt(2)."""
    return StateVector(2, np.array([_SQRT1_2, 0, 0, _SQRT1_2], dtype=complex))


def product_state(factors: "list[tuple[complex, complex]]") -> StateVector:
    """Tensor product of single-qubit states given as (amp0, amp1) pairs.

    Each factor must be normalized within 1e-10 on its own; factors that
    are not pairs of finite complex numbers raise :class:`InputError`.
    """
    pairs = finite_array(factors, complex, InputError, "factors")
    if not pairs.size:
        raise DimensionError("product_state needs at least one factor")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError(f"factors must be pairs of complex numbers, got {factors!r}")
    _check_size(len(pairs))  # before the product is built
    amps = np.array([1.0], dtype=complex)
    for i, f in enumerate(pairs):
        with np.errstate(over="ignore"):  # as in StateVector: an overflowing norm reads inf
            nrm = float(np.linalg.norm(f))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise NormalizationError(f"factor {i} has norm {nrm!r}, expected 1")
        amps = np.kron(amps, f)
    return StateVector(len(pairs), amps)


def prepare_named(
    name: str,
    num_qubits: int = 1,
    factors: "list[tuple[complex, complex]] | None" = None,
) -> StateVector:
    """Dispatch to the named constructors: zero_n, psi_plus, phi_plus, product.

    ``num_qubits`` applies to zero_n; ``factors`` applies to product.
    """
    if name == "zero_n":
        return zero_state(num_qubits)
    if name == "psi_plus":
        return bell_psi_plus()
    if name == "phi_plus":
        return bell_phi_plus()
    if name == "product":
        return product_state(factors)
    raise InputError(f"unknown state name {name!r}")


# -- kernels: update a flat, writable amplitude array in place -----------------

def _one_qubit(amps: np.ndarray, n: int, q: int, m: np.ndarray) -> None:
    """Apply the 2x2 matrix ``m`` to qubit ``q`` with one matmul on its two
    halves laid out as rows: a matmul batched over the 2**q blocks of the
    view pays per block, which costs more than the copy once blocks are short."""
    v = amps.reshape(1 << q, 2, 1 << (n - q - 1))
    halves = v.transpose(1, 0, 2).reshape(2, -1)
    v[...] = (m @ halves).reshape(2, 1 << q, -1).transpose(1, 0, 2)


def _gate(amps: np.ndarray, n: int, kind: str, qubits: tuple, angle: float | None) -> None:
    """Apply a checked gate to ``amps`` in place."""
    if len(qubits) == 2:
        c, t = qubits
        lo, hi = (c, t) if c < t else (t, c)
        v = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
        if kind == "CZ":
            v[:, 1, :, 1] *= -1.0
        elif c < t:
            v[:, 1] = v[:, 1, :, ::-1]
        else:
            v[:, :, :, 1] = v[:, ::-1, :, 1]
        return
    _unitary(amps, n, qubits[0], _MATRICES[kind] if angle is None else _rotation(kind, angle))


def _unitary(amps: np.ndarray, n: int, q: int, m: tuple) -> None:
    """Apply the row-major 2x2 tuple ``m`` to qubit ``q`` by the module docstring's rule."""
    a, b, c, d = m
    if (a or d) and (b or c):
        _one_qubit(amps, n, q, _array(m))
        return
    v = amps.reshape(1 << q, 2, 1 << (n - q - 1))
    if b or c:  # antidiagonal
        v[...] = v[:, ::-1]
        a, d = b, c
    if a != 1:
        v[:, 0] *= a
    if d != 1:
        v[:, 1] *= d


def _fuse(program: list, n: int) -> list:
    """Fuse a lowered dense program of ``(_gate, (n, kind, qubits, angle))`` and
    ``(None, qubit)`` entries by the rule in the module docstring: each run of
    one-qubit gates is one :func:`_unitary` entry, placed where it is flushed."""
    out: list = []
    runs: dict = {}  # qubit -> the row-major product of its pending run
    for entry in program:
        kernel, args = entry
        if kernel is None:
            if args in runs:
                out.append((_unitary, (n, args, runs.pop(args))))
        elif len(args[2]) == 2:
            for q in args[2]:
                m = runs.get(q)  # a diagonal passes a CZ and a CNOT's control
                if m and (m[1] or m[2] or args[1] != "CZ" and q != args[2][0]):
                    out.append((_unitary, (n, q, runs.pop(q))))
        else:
            _, kind, (q,), angle = args
            m = _MATRICES[kind] if angle is None else _rotation(kind, angle)
            if q in runs:
                (a, b, c, d), (e, f, g, h) = m, runs[q]
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            runs[q] = m
            continue
        out.append(entry)
    out.extend((_unitary, (n, q, m)) for q, m in runs.items())
    return out


def _collapse(amps: np.ndarray, n: int, q: int, outcome, rng) -> tuple[int, float]:
    """Measure qubit ``q`` (``outcome`` None: an outcome of probability below
    PROJECTION_EPS either way draws nothing, else one ``rng.random()`` draw
    is 1 below P(1)) or project it onto ``outcome``, ``q`` already checked; returns it
    and its probability."""
    v = amps.reshape(1 << q, 2, 1 << (n - q - 1))
    p0, p1 = (float(np.vdot(half, half).real) for half in (v[:, 0], v[:, 1]))
    if outcome is None:
        outcome = int(p1 > p0) if min(p0, p1) < PROJECTION_EPS else int(draw(rng) < p1)
    elif not is_int(outcome, 0, 1):
        raise ProjectionError(f"outcome must be 0 or 1, got {outcome!r}")
    outcome = int(outcome)
    prob = p1 if outcome else p0
    if prob < PROJECTION_EPS:
        raise ProjectionError(
            f"outcome {outcome} on qubit {q} has probability {prob:.3e}, below {PROJECTION_EPS}"
        )
    v[:, 1 - outcome] = 0.0
    v[:, outcome] /= math.sqrt(prob)
    return outcome, prob


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate and return the resulting state."""
    n, amps = state.num_qubits, state.amplitudes.copy()
    _gate(amps, n, op.kind, check_gate(op.kind, op.qubits, op.angle, n), op.angle)
    return StateVector(n, amps)


def apply(state: StateVector, kind: str, *qubits: int, angle: float | None = None) -> StateVector:
    """Convenience wrapper: ``apply(state, "H", 0)``."""
    return apply_gate(state, gate(kind, *qubits, angle=angle))


def project_qubit(state: StateVector, q: int, outcome: int) -> tuple[float, StateVector]:
    """Project qubit ``q`` onto ``outcome`` and renormalize.

    Returns ``(probability, collapsed_state)``.  Raises
    :class:`ProjectionError` when the outcome probability is below 1e-12.
    """
    _check_qubit(q, state.num_qubits, "state")
    amps = state.amplitudes.copy()
    _, prob = _collapse(amps, state.num_qubits, q, outcome, None)
    return prob, StateVector(state.num_qubits, amps)


def measure_qubit(state: StateVector, q: int, rng) -> tuple[int, float, StateVector]:
    """Measure qubit ``q`` in the computational basis.

    Returns ``(outcome, probability_of_that_outcome, collapsed_state)``.
    A random outcome is one ``rng.random()`` draw, 1 below P(1); one of
    probability below 1e-12 either way draws nothing.
    """
    _check_qubit(q, state.num_qubits, "state")
    amps = state.amplitudes.copy()
    outcome, prob = _collapse(amps, state.num_qubits, q, None, rng)
    return outcome, prob, StateVector(state.num_qubits, amps)


def _check_observable(obs: np.ndarray) -> np.ndarray:
    obs = finite_array(obs, complex, ObservableError, "observable")
    if obs.shape != (2, 2):
        raise ObservableError(f"observable must be 2x2, got shape {obs.shape}")
    if float(np.max(np.abs(obs - obs.conj().T))) > 1e-10:
        raise ObservableError("observable is not Hermitian within 1e-10")
    return obs


def expectation(
    state: StateVector,
    obs_a: np.ndarray,
    obs_b: np.ndarray,
    qubits: tuple[int, int] = (0, 1),
) -> float:
    """Exact expectation value <psi| A_i (x) B_j |psi> for 2x2 Hermitian A, B."""
    obs_a = _check_observable(obs_a)
    obs_b = _check_observable(obs_b)
    i, j = pair(qubits, QubitIndexError, "expectation qubits")
    _check_qubit(i, state.num_qubits, "state")
    _check_qubit(j, state.num_qubits, "state")
    if i == j:
        raise QubitIndexError("expectation requires two distinct qubits")
    amps = state.amplitudes.copy()
    _one_qubit(amps, state.num_qubits, i, obs_a)
    _one_qubit(amps, state.num_qubits, j, obs_b)
    return float(np.vdot(state.amplitudes, amps).real)


def reduced_density(state: StateVector, q: int) -> np.ndarray:
    """Partial trace down to qubit ``q``: a 2x2 density matrix."""
    _check_qubit(q, state.num_qubits, "state")
    mat = np.moveaxis(state.tensor(), q, 0).reshape(2, -1)
    return mat @ mat.conj().T


def fidelity(a: "StateVector | np.ndarray", b: "StateVector | np.ndarray") -> float:
    """Fidelity between pure states and/or single-qubit density matrices.

    * pure vs pure: squared overlap ``|<a|b>|**2``
    * pure vs 2x2 density matrix: ``<psi|rho|psi>``
    * 2x2 density matrix vs 2x2 density matrix: Uhlmann fidelity, computed
      with the qubit closed form ``tr(rho sigma) + 2 sqrt(det rho det sigma)``, unclamped
    """
    a_pure = isinstance(a, StateVector)
    b_pure = isinstance(b, StateVector)
    if a_pure and b_pure:
        if a.num_qubits != b.num_qubits:
            raise DimensionError(
                f"cannot compare {a.num_qubits}-qubit and {b.num_qubits}-qubit states"
            )
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if not a_pure and not b_pure:
        rho = _check_density(a)
        sigma = _check_density(b)
        return float((np.trace(rho @ sigma) + 2.0 * np.sqrt(
            complex(np.linalg.det(rho)) * complex(np.linalg.det(sigma)))).real)
    psi = a if a_pure else b
    rho = _check_density(b if a_pure else a)
    if psi.num_qubits != 1:
        raise DimensionError("state vs density-matrix fidelity needs a 1-qubit state")
    return float(np.vdot(psi.amplitudes, rho @ psi.amplitudes).real)


def _check_density(rho: np.ndarray) -> np.ndarray:
    """A 2x2 density matrix: finite, Hermitian, unit trace and positive
    semidefinite, each within 1e-10; anything else raises InputError."""
    rho = finite_array(rho, complex, InputError, "density matrix")
    if rho.shape != (2, 2):
        raise DimensionError(f"density matrix must be 2x2, got shape {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > NORM_ATOL:
        raise InputError("density matrix is not Hermitian within 1e-10")
    if abs(np.trace(rho) - 1.0) > NORM_ATOL:
        raise InputError(f"density matrix trace is {np.trace(rho)!r}, expected 1")
    if float(np.linalg.eigvalsh(rho)[0]) < -NORM_ATOL:
        raise InputError("density matrix has a negative eigenvalue")
    return rho
