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
* Measurement randomness comes from a caller-supplied
  :class:`numpy.random.Generator`; identical seeds give identical runs.
* One set of kernels updates a flat amplitude array in place through
  reshape views: ``(2**q, 2, 2**(n-q-1))`` for a gate or measurement on
  qubit ``q``, ``(2**lo, 2, 2**(hi-lo-1), 2, 2**(n-hi-1))`` for CNOT and
  CZ.  The public functions copy, run a kernel and validate the result;
  :func:`bellsim.dsl.run` runs a whole circuit on one copy and validates
  once, at the end.
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
from .errors import finite_array, finite_real, is_int, pair

MAX_QUBITS = 12
NORM_ATOL = 1e-10
PROJECTION_EPS = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

FIXED_GATES: dict[str, np.ndarray] = {
    "H": np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
}

# kind -> (number of qubits, takes an angle): the gate set of the circuit
# language and of both engines, checked by :func:`check_gate`.
GATES: dict[str, tuple[int, bool]] = {
    **{kind: (1, False) for kind in FIXED_GATES},
    "RX": (1, True), "RY": (1, True), "RZ": (1, True),
    "CNOT": (2, False), "CZ": (2, False),
}

ROTATION_GATES = tuple(kind for kind, (_, takes_angle) in GATES.items() if takes_angle)

# Diagonal one-qubit gates: the phase they put on the qubit's 1-half.
_PHASES = {kind: complex(FIXED_GATES[kind][1, 1]) for kind in ("Z", "S", "SDG", "T", "TDG")}


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """The 2x2 unitary for RX, RY or RZ at a finite real angle; else :class:`InputError`."""
    return _rotation(kind, finite_real(angle, f"{kind} angle"))


def _rotation(kind: str, angle: float) -> np.ndarray:
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[cmath.exp(-0.5j * angle), 0], [0, cmath.exp(0.5j * angle)]], dtype=complex)
    raise InputError(f"unknown rotation kind {kind!r}")


@dataclass(frozen=True)
class GateOp:
    """A single gate application: kind, target qubits, optional angle.

    Checked on construction by :func:`check_gate`, without a qubit count.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(check_gate(self.kind, self.qubits, self.angle)))


def check_gate(kind: str, qubits, angle: float | None, n: int | None = None):
    """Check one gate against :data:`GATES`; return its qubits as ints.

    In this order: :class:`InputError` for an unknown kind;
    :class:`QubitIndexError` for the wrong qubit count, an index that is
    not a non-negative integer (``bool`` and floats are not) or a repeated
    one; :class:`InputError` for an angle missing, not a real number, not
    finite or not taken; last, when ``n`` is given, :class:`QubitIndexError`
    for an index >= n or an ``n`` that is not a positive integer.
    """
    try:
        arity, takes_angle = GATES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise InputError(f"unknown gate kind {kind!r}") from None
    try:
        count = len(qubits)
    except TypeError:
        raise QubitIndexError(f"qubits must be a sequence of integers, got {qubits!r}") from None
    if count != arity:
        raise QubitIndexError(f"{kind} takes {arity} qubit(s), got {count}")
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


def gate(kind: str, *qubits: int, angle: float | None = None) -> GateOp:
    """Shorthand constructor: ``gate("CNOT", 0, 1)``, ``gate("RZ", 0, angle=x)``."""
    return GateOp(kind.upper() if isinstance(kind, str) else kind, tuple(qubits), angle)


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


def _check_qubit(n: int, q) -> None:
    if not is_int(q, 0, n - 1):
        raise QubitIndexError(f"qubit {q!r} out of range for {n}-qubit state")


# -- kernels: update a flat, writable amplitude array in place -----------------

def _one_qubit(amps: np.ndarray, n: int, q: int, m: np.ndarray) -> None:
    """Apply the 2x2 matrix ``m`` to qubit ``q`` with one matmul on its two
    halves laid out as rows: a matmul batched over the 2**q blocks of the
    view pays per block, which costs more than the copy once blocks are short."""
    v = amps.reshape(1 << q, 2, 1 << (n - q - 1))
    halves = v.transpose(1, 0, 2).reshape(2, -1)
    v[...] = (m @ halves).reshape(2, 1 << q, -1).transpose(1, 0, 2)


def _apply(amps: np.ndarray, n: int, kind: str, qubits: tuple, angle: float | None = None) -> None:
    """Apply one gate that :func:`check_gate` accepts for ``n`` qubits; nothing is checked here."""
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
    q = qubits[0]
    v = amps.reshape(1 << q, 2, 1 << (n - q - 1))
    if kind in _PHASES:
        v[:, 1] *= _PHASES[kind]
    elif kind == "X":
        v[...] = v[:, ::-1]
    elif kind == "RZ":
        v *= _rotation(kind, angle).diagonal()[:, None]
    else:
        _one_qubit(amps, n, q, FIXED_GATES[kind] if angle is None else _rotation(kind, angle))


def _collapse(amps: np.ndarray, n: int, q: int, outcome, rng) -> tuple[int, float]:
    """Measure qubit ``q`` (``outcome`` None and an ``rng``: one ``rng.random()``
    draw, outcome 1 when it is below P(1)) or project it onto ``outcome``;
    returns the outcome and its probability."""
    _check_qubit(n, q)
    v = amps.reshape(1 << q, 2, 1 << (n - q - 1))
    if outcome is None and rng is not None:
        outcome = 1 if rng.random() < np.vdot(v[:, 1], v[:, 1]).real else 0
    elif not is_int(outcome, 0, 1):
        raise ProjectionError(f"outcome must be 0 or 1, got {outcome!r}")
    outcome = int(outcome)
    kept = v[:, outcome]
    prob = float(np.vdot(kept, kept).real)
    if prob < PROJECTION_EPS:
        raise ProjectionError(
            f"outcome {outcome} on qubit {q} has probability {prob:.3e}, below {PROJECTION_EPS}"
        )
    v[:, 1 - outcome] = 0.0
    kept /= math.sqrt(prob)
    return outcome, prob


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate and return the resulting state."""
    qubits = check_gate(op.kind, op.qubits, op.angle, state.num_qubits)
    amps = state.amplitudes.copy()
    _apply(amps, state.num_qubits, op.kind, qubits, op.angle)
    return StateVector(state.num_qubits, amps)


def apply(state: StateVector, kind: str, *qubits: int, angle: float | None = None) -> StateVector:
    """Convenience wrapper: ``apply(state, "H", 0)``."""
    return apply_gate(state, gate(kind, *qubits, angle=angle))


def project_qubit(state: StateVector, q: int, outcome: int) -> tuple[float, StateVector]:
    """Project qubit ``q`` onto ``outcome`` and renormalize.

    Returns ``(probability, collapsed_state)``.  Raises
    :class:`ProjectionError` when the outcome probability is below 1e-12.
    """
    amps = state.amplitudes.copy()
    _, prob = _collapse(amps, state.num_qubits, q, outcome, None)
    return prob, StateVector(state.num_qubits, amps)


def measure_qubit(
    state: StateVector, q: int, rng: np.random.Generator
) -> tuple[int, float, StateVector]:
    """Measure qubit ``q`` in the computational basis.

    Returns ``(outcome, probability_of_that_outcome, collapsed_state)``.
    Consumes exactly one uniform draw from ``rng``.
    """
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
    _check_qubit(state.num_qubits, i)
    _check_qubit(state.num_qubits, j)
    if i == j:
        raise QubitIndexError("expectation requires two distinct qubits")
    amps = state.amplitudes.copy()
    _one_qubit(amps, state.num_qubits, i, obs_a)
    _one_qubit(amps, state.num_qubits, j, obs_b)
    return float(np.vdot(state.amplitudes, amps).real)


def reduced_density(state: StateVector, q: int) -> np.ndarray:
    """Partial trace down to qubit ``q``: a 2x2 density matrix."""
    _check_qubit(state.num_qubits, q)
    mat = np.moveaxis(state.tensor(), q, 0).reshape(2, -1)
    return mat @ mat.conj().T


def fidelity(a: "StateVector | np.ndarray", b: "StateVector | np.ndarray") -> float:
    """Fidelity between pure states and/or single-qubit density matrices.

    * pure vs pure: squared overlap ``|<a|b>|**2``
    * pure vs 2x2 density matrix: ``<psi|rho|psi>``
    * 2x2 density matrix vs 2x2 density matrix: Uhlmann fidelity, computed
      with the qubit closed form ``tr(rho sigma) + 2 sqrt(det rho det sigma)``
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
        val = float((np.trace(rho @ sigma) + 2.0 * np.sqrt(
            complex(np.linalg.det(rho)) * complex(np.linalg.det(sigma)))).real)
        return min(max(val, 0.0), 1.0)
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
