"""Independent reference computations the benchmark checks outputs against.

Each oracle reaches the answer by a different method from the code under
test: closed forms instead of search, the cross-polytope instead of the
CHSH facets and a linear program, a replay through the public tableau API
with its own rotation decomposition, a forced-outcome dense simulation with
its own gate matrices, exact binomial tails for BB84.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from metrics import binom_cdf, binom_sf

_PAULI_XY = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
)

# Sylvester Hadamard rows are the correlation vectors (E11, E12, E21, E22)
# of the deterministic strategies, up to sign.
HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)

# (a1, a2, b1, b2) in the order documented by lhv.enumerate_strategies:
# a1 slowest, then a2, b1, b2, with +1 before -1.
STRATEGIES = tuple(itertools.product((1, -1), repeat=4))
STRATEGY_CORRELATIONS = np.array(
    [(a1 * b1, a1 * b2, a2 * b1, a2 * b2) for a1, a2, b1, b2 in STRATEGIES], dtype=float
)

BLOCH = {
    "0": (0.0, 0.0, 1.0),
    "1": (0.0, 0.0, -1.0),
    "+": (1.0, 0.0, 0.0),
    "-": (-1.0, 0.0, 0.0),
    "+i": (0.0, 1.0, 0.0),
    "-i": (0.0, -1.0, 0.0),
}


# -- CHSH -------------------------------------------------------------------

def xy_block(amplitudes) -> np.ndarray:
    """T[a, b] = <psi| sigma_a (x) sigma_b |psi> for a, b in {X, Y}."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(2, 2)
    return np.array(
        [[np.einsum("ab,ac,bd,cd->", psi.conj(), sa, sb, psi).real for sb in _PAULI_XY] for sa in _PAULI_XY]
    )


def _a_vec(alpha):
    return np.array([np.cos(alpha), np.sin(alpha)])


def _b_vec(chi):
    return np.array([np.cos(chi), -np.sin(chi)])


def correlation(block, alpha, chi) -> float:
    """E(alpha, chi): A(alpha) = cos a X + sin a Y, B(chi) = cos c X - sin c Y."""
    return float(_a_vec(alpha) @ block @ _b_vec(chi))


def chsh_s(block, alpha1, alpha2, chi1, chi2) -> float:
    e = lambda a, c: correlation(block, a, c)  # noqa: E731
    return e(alpha1, chi1) - e(alpha1, chi2) + e(alpha2, chi1) + e(alpha2, chi2)


def smax_free(block) -> float:
    """Largest S over all four angles: 2 sqrt(m1^2 + m2^2), m the singular values."""
    m = np.linalg.svd(block, compute_uv=False)
    return 2.0 * math.sqrt(float(m[0] ** 2 + m[1] ** 2))


def smax_fixed(block, alpha1, chi1, points=2048) -> float:
    """Largest S with (alpha1, chi1) pinned.

    For fixed chi2 the best alpha2 aligns a2 with T (b1 + b2), so
    S(chi2) = E(alpha1, chi1) - a1.T.b2 + |T (b1 + b2)|, a smooth periodic
    1-D function.  Every local maximum of a coarse periodic grid is
    polished by golden-section search, all at once, and the best is kept;
    near-equal peaks therefore cannot hide the global one.  The arrays stay
    a few tens of kilobytes, so the check barely touches the worker's peak
    RSS.
    """
    a1 = _a_vec(alpha1)
    b1 = _b_vec(chi1)
    e11 = float(a1 @ block @ b1)

    def s_of(chi2):
        b2 = np.stack([np.cos(chi2), -np.sin(chi2)])
        inner = block @ (b1[:, None] + b2)
        return e11 - a1 @ block @ b2 + np.sqrt((inner**2).sum(axis=0))

    grid = np.linspace(-math.pi, math.pi, points, endpoint=False)
    vals = s_of(grid)
    peaks = grid[(vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))]
    step = 2 * math.pi / points
    lo, hi = peaks - step, peaks + step
    g = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        left = s_of(m1) < s_of(m2)
        lo = np.where(left, m1, lo)
        hi = np.where(left, hi, m2)
    return max(float(vals.max()), float(s_of(0.5 * (lo + hi)).max()))


def grid_max_s(block, pinned=None, points=101) -> float:
    """Best S on maximize_s's starting grid: ``points`` angles from -pi to
    pi inclusive on each free axis; ``pinned`` fixes (alpha1, chi1).

    E[i, k] = E(axis_i, axis_k) is a points x points table.  With all four
    angles free, S splits as [E(a1,c1) + E(a2,c1)] + [E(a2,c2) - E(a1,c2)],
    whose two terms take independent chi, so one row of alpha1 at a time
    keeps the temporaries at points^2.
    """
    axis = np.linspace(-math.pi, math.pi, points)
    a = np.stack([np.cos(axis), np.sin(axis)], axis=1)
    b = np.stack([np.cos(axis), -np.sin(axis)])
    e = a @ block @ b
    if pinned is not None:
        a1, c1 = _a_vec(pinned[0]), _b_vec(pinned[1])
        e_a1 = a1 @ block @ b
        e_c1 = a @ block @ c1
        return float(a1 @ block @ c1 + (e - e_a1[None, :] + e_c1[:, None]).max())
    return max(
        float(((e[i] + e).max(axis=1) + (e - e[i]).max(axis=1)).max()) for i in range(points)
    )


# -- LHV --------------------------------------------------------------------

def cross_polytope_norm(targets) -> float:
    """sum |c_k| with c = H E / 4; the local polytope is exactly norm <= 1."""
    return float(np.abs(HADAMARD @ np.asarray(targets, dtype=float) / 4.0).sum())


def witness_residual(weights, targets) -> float:
    """max |sum_s w_s E(s) - E| using the documented strategy order."""
    e = np.asarray(weights, dtype=float) @ STRATEGY_CORRELATIONS
    return float(np.abs(e - np.asarray(targets, dtype=float)).max())


def lhv_sample(weights, u, setting_pair) -> tuple[int, int]:
    """Outcome pair for one uniform draw ``u``: the first strategy whose
    running weight sum exceeds ``u``."""
    acc = 0.0
    index = len(weights) - 1
    for s, w in enumerate(weights):
        acc += float(w)
        if u < acc:
            index = s
            break
    a1, a2, b1, b2 = STRATEGIES[index]
    i, j = setting_pair
    return (a1 if i == 1 else a2), (b1 if j == 1 else b2)


# -- stabilizer replay --------------------------------------------------------

# Rotations by k quarter turns, as Clifford sequences in time order (global
# phase dropped).  RZ(k pi/2) ~ S^k, RX = H RZ H, RY = S RX S^dagger.
def rotation_sequence(opcode: str, angle: float) -> list[str]:
    k = round(angle / (math.pi / 2.0)) % 4
    if opcode == "RZ":
        return ["S"] * k
    if opcode == "RX":
        return ["H"] + ["S"] * k + ["H"]
    return ["SDG", "H"] + ["S"] * k + ["H", "S"]


def replay_clifford(st, circuit, seed):
    """Re-run a Clifford circuit through the public stabilizer API.

    Returns ``(outcomes, tableau, failures)``.  The generator is seeded as
    ``dsl.run`` seeds its own, so outcomes must agree draw for draw.  After
    every measurement ``outcome_probability`` must equal the outcome just
    measured.
    """
    rng = np.random.default_rng(seed)
    t = st.init_zero(circuit.num_qubits)
    outcomes = []
    failures = []
    for ins in circuit.instructions:
        q = ins.qubit_args[0]
        if ins.opcode == "MEASURE":
            m, _, t = st.measure_z(t, q, rng)
            outcomes.append(m)
            if st.outcome_probability(t, q) != float(m):
                failures.append("outcome_probability")
        elif ins.angle is not None:
            for kind in rotation_sequence(ins.opcode, ins.angle):
                t = st.apply(t, kind, q)
        else:
            t = st.apply(t, ins.opcode, *ins.qubit_args)
    return outcomes, t, failures


# -- dense replay -------------------------------------------------------------

_S2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "H": [[_S2, _S2], [_S2, -_S2]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "SDG": [[1, 0], [0, -1j]],
    "T": [[1, 0], [0, complex(_S2, _S2)]],
    "TDG": [[1, 0], [0, complex(_S2, -_S2)]],
}


def _one_qubit_matrix(opcode: str, angle) -> np.ndarray:
    if angle is None:
        return np.array(_FIXED[opcode], dtype=complex)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if opcode == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if opcode == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[complex(c, -s), 0], [0, complex(c, s)]])


def dense_replay(circuit, outcomes):
    """Amplitudes after the circuit with every measurement forced to the
    reported outcome, or None if a reported outcome had probability 0.

    Qubit 0 is the most significant index bit, one tensor axis per qubit.
    """
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    k = 0
    for ins in circuit.instructions:
        q = ins.qubit_args
        if ins.opcode == "MEASURE":
            view = np.moveaxis(psi, q[0], 0)
            view[1 - outcomes[k]] = 0.0
            k += 1
            p = float(np.vdot(psi, psi).real)
            if p < 1e-12:
                return None
            psi /= math.sqrt(p)
        elif ins.opcode in ("CNOT", "CZ"):
            view = np.moveaxis(psi, q, (0, 1))
            if ins.opcode == "CNOT":
                view[1] = view[1, ::-1].copy()
            else:
                view[1, 1] *= -1.0
        else:
            moved = np.tensordot(_one_qubit_matrix(ins.opcode, ins.angle), np.moveaxis(psi, q[0], 0), axes=(1, 0))
            psi = np.ascontiguousarray(np.moveaxis(moved, 0, q[0]))
    return psi.reshape(-1)


# -- BB84 -------------------------------------------------------------------

QBER_EVE = 0.25
QBER_BAND_TAIL = 1e-9


def qber_in_band(errors: int, sifted: int) -> bool:
    """Intercept-resend errors are Binomial(sifted, 1/4): reject a count
    only when either tail beyond it has probability below 1e-9."""
    if sifted == 0:
        return True
    return (
        binom_cdf(errors, sifted, QBER_EVE) >= QBER_BAND_TAIL
        and binom_sf(errors, sifted, QBER_EVE) >= QBER_BAND_TAIL
    )
