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

ROTATION_GATES = ("RX", "RY", "RZ")

TWO_QUBIT_GATES: dict[str, np.ndarray] = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}

GATE_KINDS = frozenset(FIXED_GATES) | frozenset(ROTATION_GATES) | frozenset(TWO_QUBIT_GATES)


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """Return the 2x2 unitary for RX, RY or RZ at the given angle."""
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

    ``angle`` must be present exactly for the rotation kinds RX/RY/RZ.
    Two-qubit kinds require two distinct qubit indices.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise InputError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind in TWO_QUBIT_GATES else 1
        if len(self.qubits) != arity:
            raise QubitIndexError(
                f"{self.kind} takes {arity} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise QubitIndexError(f"{self.kind} requires distinct qubits, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise QubitIndexError(f"negative qubit index in {self.qubits}")
        takes_angle = self.kind in ROTATION_GATES
        if takes_angle and self.angle is None:
            raise InputError(f"{self.kind} requires an angle")
        if not takes_angle and self.angle is not None:
            raise InputError(f"{self.kind} does not take an angle")

    def matrix(self) -> np.ndarray:
        if self.kind in FIXED_GATES:
            return FIXED_GATES[self.kind]
        if self.kind in TWO_QUBIT_GATES:
            return TWO_QUBIT_GATES[self.kind]
        assert self.angle is not None
        return rotation_matrix(self.kind, self.angle)


def gate(kind: str, *qubits: int, angle: float | None = None) -> GateOp:
    """Shorthand constructor: ``gate("CNOT", 0, 1)``, ``gate("RZ", 0, angle=x)``."""
    return GateOp(kind.upper(), tuple(qubits), angle)


@dataclass(frozen=True)
class StateVector:
    """An n-qubit pure state with unit norm.

    The amplitude array is copied on construction and frozen read-only.
    Length must be exactly ``2**num_qubits`` and the norm must be 1 within
    1e-10; violations raise :class:`DimensionError` / :class:`NormalizationError`.
    Non-finite amplitudes (NaN, inf) raise :class:`InputError`.
    """

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise SizeError(
                f"statevector engine supports 1..{MAX_QUBITS} qubits, got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.shape[0] != 2**self.num_qubits:
            raise DimensionError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got {amps.shape[0]}"
            )
        nrm = float(np.linalg.norm(amps))
        if not math.isfinite(nrm):
            raise InputError(f"state amplitudes must be finite, got norm {nrm!r}")
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
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise SizeError(f"statevector engine supports 1..{MAX_QUBITS} qubits, got {num_qubits}")
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

    Each factor must be normalized within 1e-10 on its own.
    """
    if not factors:
        raise DimensionError("product_state needs at least one factor")
    amps = np.array([1.0], dtype=complex)
    for i, (a0, a1) in enumerate(factors):
        f = np.array([a0, a1], dtype=complex)
        nrm = float(np.linalg.norm(f))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise NormalizationError(f"factor {i} has norm {nrm!r}, expected 1")
        amps = np.kron(amps, f)
    return StateVector(len(factors), amps)


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
        if factors is None:
            raise InputError("product preparation needs factors")
        return product_state(factors)
    raise InputError(f"unknown state name {name!r}")


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise QubitIndexError(f"qubit {q} out of range for {state.num_qubits}-qubit state")


def _apply_matrix(amps: np.ndarray, mat: np.ndarray, axes: tuple[int, ...], n: int) -> np.ndarray:
    k = len(axes)
    tensor = amps.reshape([2] * n)
    mat_t = mat.reshape([2] * (2 * k))
    out = np.tensordot(mat_t, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    out = np.moveaxis(out, range(k), axes)
    return np.ascontiguousarray(out).reshape(-1)


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate and return the resulting state."""
    for q in op.qubits:
        _check_qubit(state, q)
    amps = _apply_matrix(state.amplitudes, op.matrix(), op.qubits, state.num_qubits)
    return StateVector(state.num_qubits, amps)


def apply(state: StateVector, kind: str, *qubits: int, angle: float | None = None) -> StateVector:
    """Convenience wrapper: ``apply(state, "H", 0)``."""
    return apply_gate(state, gate(kind, *qubits, angle=angle))


def project_qubit(state: StateVector, q: int, outcome: int) -> tuple[float, StateVector]:
    """Project qubit ``q`` onto ``outcome`` and renormalize.

    Returns ``(probability, collapsed_state)``.  Raises
    :class:`ProjectionError` when the outcome probability is below 1e-12.
    """
    _check_qubit(state, q)
    if outcome not in (0, 1):
        raise ProjectionError(f"outcome must be 0 or 1, got {outcome!r}")
    tensor = state.tensor().copy()
    sel = np.moveaxis(tensor, q, 0)
    prob = float(np.sum(np.abs(sel[outcome]) ** 2))
    if prob < PROJECTION_EPS:
        raise ProjectionError(
            f"outcome {outcome} on qubit {q} has probability {prob:.3e}, below {PROJECTION_EPS}"
        )
    sel[1 - outcome] = 0.0
    amps = tensor.reshape(-1) / math.sqrt(prob)
    return prob, StateVector(state.num_qubits, amps)


def measure_qubit(
    state: StateVector, q: int, rng: np.random.Generator
) -> tuple[int, float, StateVector]:
    """Measure qubit ``q`` in the computational basis.

    Returns ``(outcome, probability_of_that_outcome, collapsed_state)``.
    Consumes exactly one uniform draw from ``rng``.
    """
    _check_qubit(state, q)
    sel = np.moveaxis(state.tensor(), q, 0)
    p1 = float(np.sum(np.abs(sel[1]) ** 2))
    outcome = 1 if rng.random() < p1 else 0
    prob, collapsed = project_qubit(state, q, outcome)
    return outcome, prob, collapsed


def _check_observable(obs: np.ndarray) -> np.ndarray:
    obs = np.asarray(obs, dtype=complex)
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
    i, j = qubits
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise QubitIndexError("expectation requires two distinct qubits")
    amps = _apply_matrix(state.amplitudes, obs_a, (i,), state.num_qubits)
    amps = _apply_matrix(amps, obs_b, (j,), state.num_qubits)
    return float(np.vdot(state.amplitudes, amps).real)


def reduced_density(state: StateVector, q: int) -> np.ndarray:
    """Partial trace down to qubit ``q``: a 2x2 density matrix."""
    _check_qubit(state, q)
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
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InputError("density matrix must be finite")
    if float(np.max(np.abs(rho - rho.conj().T))) > NORM_ATOL:
        raise InputError("density matrix is not Hermitian within 1e-10")
    if abs(np.trace(rho) - 1.0) > NORM_ATOL:
        raise InputError(f"density matrix trace is {np.trace(rho)!r}, expected 1")
    if float(np.linalg.eigvalsh(rho)[0]) < -NORM_ATOL:
        raise InputError("density matrix has a negative eigenvalue")
    return rho
