"""CHSH S-factor analysis for two-qubit states.

The measurement model uses one phase-parametrized observable family per
side.  Side A measures, at analyzer angle ``alpha``,

    A(alpha) = [[0, exp(-i alpha)], [exp(+i alpha), 0]] = cos(alpha) X + sin(alpha) Y

and side B measures, at angle ``chi``,

    B(chi) = [[0, exp(+i chi)], [exp(-i chi), 0]] = cos(chi) X - sin(chi) Y

Both are Hermitian with eigenvalues +/-1; A(0) = B(0) = X, A(pi/2) = Y,
B(pi/2) = -Y.  The correlation E(alpha, chi) is the expectation of
``A(alpha) (x) B(chi)``, and the S-factor for settings
(alpha1, alpha2, chi1, chi2) is

    S = E(alpha1, chi1) - E(alpha1, chi2) + E(alpha2, chi1) + E(alpha2, chi2)

Both families lie in the XY plane, so E(alpha, chi) = a.M.b with
a = (cos alpha, sin alpha), b = (cos chi, -sin chi) and M[j, k] =
<sigma_j (x) sigma_k> the 2x2 XY block of the correlation tensor, computed
once per call in closed form: M = 2 [[Re(u + w), Im(u - w)], [Im(u + w),
Re(w - u)]] with u = conj(psi00) psi11 and w = conj(psi01) psi10.  The
largest S is 2*sqrt(m1**2 + m2**2) = 2*|M|_F, m1, m2 = 2(|u| + |w|),
2||u| - |w|| the singular values of M (Horodecki, Phys. Lett. A 200, 340 (1995)).

For the Bell state (|01> + |10>)/sqrt(2) the correlation has the closed
form cos(alpha + chi); for (|00> + |11>)/sqrt(2) it is cos(alpha - chi).
Quantum states keep |S| <= 2*sqrt(2); local hidden variable models keep
|S| <= 2.

Angles must be finite and are canonicalized to [-pi, pi].  Everything is
exact linear algebra; no sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevector as sv
from .errors import SCAN_MAX_RESOLUTION as _SCAN_MAX_RESOLUTION
from .errors import ConfigError, DimensionError, InputError, finite_array, finite_real, is_int, pair

SETTING_NAMES = ("alpha1", "alpha2", "chi1", "chi2")


def wrap_angle(theta: float) -> float:
    """Map a finite angle to the canonical interval [-pi, pi].

    NaN, +/-inf and a value that is not a real number raise :class:`InputError`.
    """
    return math.remainder(finite_real(theta, "angle"), math.tau)


def observable_a(alpha: float) -> np.ndarray:
    """Side-A observable at analyzer angle ``alpha`` (Hermitian, eigenvalues +/-1)."""
    alpha = finite_real(alpha, "alpha")
    return np.array(
        [[0.0, np.exp(-1j * alpha)], [np.exp(1j * alpha), 0.0]], dtype=complex
    )


def observable_b(chi: float) -> np.ndarray:
    """Side-B observable at analyzer angle ``chi`` (Hermitian, eigenvalues +/-1)."""
    chi = finite_real(chi, "chi")
    return np.array(
        [[0.0, np.exp(1j * chi)], [np.exp(-1j * chi), 0.0]], dtype=complex
    )


def psi_plus_correlation(alpha: float, chi: float) -> float:
    """Closed-form correlation for (|01> + |10>)/sqrt(2): cos(alpha + chi)."""
    return math.cos(wrap_angle(alpha) + wrap_angle(chi))


def phi_plus_correlation(alpha: float, chi: float) -> float:
    """Closed-form correlation for (|00> + |11>)/sqrt(2): cos(alpha - chi)."""
    return math.cos(wrap_angle(alpha) - wrap_angle(chi))


@dataclass(frozen=True)
class MeasurementSettings:
    """Analyzer angles (alpha1, alpha2) for side A and (chi1, chi2) for side B.

    Angles are wrapped to [-pi, pi] on construction; a non-finite angle
    raises :class:`InputError`.
    """

    alpha1: float
    alpha2: float
    chi1: float
    chi2: float

    def __post_init__(self) -> None:
        for name in SETTING_NAMES:
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.chi1, self.chi2)


@dataclass(frozen=True)
class SFactorResult:
    """The four correlations and the combined S value for one settings tuple."""

    settings: MeasurementSettings
    correlations: tuple[float, float, float, float]
    """(E(a1,c1), E(a1,c2), E(a2,c1), E(a2,c2))"""
    s_value: float


def _xy_block(state: sv.StateVector) -> np.ndarray:
    """M[j, k] = <psi| sigma_j (x) sigma_k |psi> for sigma in (X, Y), in the closed form above."""
    if state.num_qubits != 2:
        raise DimensionError(
            f"CHSH analysis needs a 2-qubit state, got {state.num_qubits} qubits"
        )
    psi00, psi01, psi10, psi11 = state.amplitudes.tolist()
    u = psi00.conjugate() * psi11
    w = psi01.conjugate() * psi10
    plus, minus = 2.0 * (u + w), 2.0 * (u - w)
    return np.array([[plus.real, minus.imag], [plus.imag, -minus.real]])


def _directions(angles, sign: float) -> np.ndarray:
    """Rows (cos t, sign * sin t) for checked angles: a-vectors for sign +1, b-vectors for -1."""
    t = np.asarray(angles, dtype=float).reshape(-1, 1)
    return np.concatenate((np.cos(t), sign * np.sin(t)), axis=1)


def _angle(v: np.ndarray, sign: float) -> float:
    """Inverse of :func:`_directions` for one vector; -pi for a zero vector,
    where every angle ties and the smallest is kept."""
    if not v.any():
        return -math.pi
    return math.atan2(sign * v[1], v[0])


def correlation(state: sv.StateVector, alpha: float, chi: float) -> float:
    """E(alpha, chi) = <psi| A(alpha) (x) B(chi) |psi> on a two-qubit state."""
    return float(correlation_matrix(state, alpha, chi)[0, 0])


def correlation_matrix(
    state: sv.StateVector, alphas: np.ndarray, chis: np.ndarray
) -> np.ndarray:
    """Correlations for every (alpha, chi) pair: shape (number of alphas, number of chis)."""
    m = _xy_block(state)
    a = _directions(finite_array(alphas, float, InputError, "angles"), 1.0)
    return a @ m @ _directions(finite_array(chis, float, InputError, "angles"), -1.0).T


def s_factor(state: sv.StateVector, settings: MeasurementSettings) -> SFactorResult:
    """Evaluate the CHSH combination at the given settings, E as in :func:`correlation_matrix`."""
    a = _directions([settings.alpha1, settings.alpha2], 1.0)
    e = a @ _xy_block(state) @ _directions([settings.chi1, settings.chi2], -1.0).T
    e11, e12, e21, e22 = e.ravel().tolist()
    return SFactorResult(
        settings=settings,
        correlations=(e11, e12, e21, e22),
        s_value=e11 - e12 + e21 + e22,
    )


@dataclass(eq=False)
class CorrelationGrid:
    """S values over a (alpha2, chi2) grid at fixed alpha1, chi1.

    ``s_values[i, j]`` is S at alpha2 = ``alpha2_axis[i]``,
    chi2 = ``chi2_axis[j]``.
    """

    alpha1: float
    chi1: float
    alpha2_axis: np.ndarray
    chi2_axis: np.ndarray
    s_values: np.ndarray


def scan_s(
    state: sv.StateVector, alpha1: float, chi1: float, resolution: int = 201
) -> CorrelationGrid:
    """Sweep alpha2 and chi2 over [-pi, pi] at the given resolution.

    Both axes are inclusive linspaces with ``resolution`` points;
    ``resolution`` must be an integer in 2..1001, which keeps the grid's
    few float arrays near 8 MB each.
    """
    if not is_int(resolution, 2, _SCAN_MAX_RESOLUTION):
        raise ConfigError(
            f"scan resolution must lie in 2..{_SCAN_MAX_RESOLUTION}, got {resolution}"
        )
    alpha1 = wrap_angle(alpha1)
    chi1 = wrap_angle(chi1)
    axis = np.linspace(-math.pi, math.pi, resolution)
    e = correlation_matrix(
        state, np.concatenate(([alpha1], axis)), np.concatenate(([chi1], axis))
    )
    s = e[0, 0] - e[0, 1:][None, :] + e[1:, 0][:, None] + e[1:, 1:]
    return CorrelationGrid(
        alpha1=alpha1, chi1=chi1, alpha2_axis=axis, chi2_axis=axis, s_values=s
    )


def maximize_s(
    state: sv.StateVector, fixed: "tuple[float, float] | None" = None
) -> tuple[MeasurementSettings, float]:
    """Maximize S over the analyzer angles; returns ``(best_settings, best_s)``.

    Write S = a1.M(b1 - b2) + a2.M(b1 + b2).  With all four angles free
    the maximum is 2*sqrt(m1**2 + m2**2), m1 >= m2 the singular values of
    M = U diag(m1, m2) V^T, that is 2*|M|_F; it is reached at a2 = U[:, 0],
    a1 = U[:, 1], b1, b2 = cos(t) V[:, 0] +/- sin(t) V[:, 1] with tan(t) = m2 / m1.
    In closed form M = R(phi) diag((q + r)/2, (q - r)/2) R(theta), R(x) the
    rotation by x, q exp(i (phi + theta)) = M00 + M11 + i (M10 - M01) and
    r exp(i (phi - theta)) = M00 - M11 + i (M10 + M01); so alpha2 = phi,
    alpha1 = phi + pi/2 and chi1, chi2 = theta -/+ atan2(q - r, q + r).

    ``fixed``, when given, is the pair (alpha1, chi1) to pin.  With
    v = M^T a1 and w = M(b1 + b2), the best a2 is w / |w|, leaving
    S(chi2) = a1.M b1 - v.b2 + |w|.  Squared, S' = 0 reads
    (w.w')**2 = (v.b2')**2 |w|**2; as b1 + b2 = 2 cos((chi2 - chi1)/2) u,
    u = b((chi1 + chi2)/2), dividing out the cos**2 (a double root at the
    kink b2 = -b1, never a peak) leaves Q = ((Mu).(M b2'))**2 -
    (v.b2')**2 |Mu|**2, a trigonometric polynomial of degree 3.  Its 7
    coefficients follow from 8 samples, and the 6 roots of z**3 Q, z =
    exp(i chi2), are companion-matrix eigenvalues (Boyd, J. Eng. Math. 56,
    203 (2006)).  Their angles, the angle of -v (the peak where Q vanishes
    identically) and -pi are scored exactly, and the first best is kept.

    Where every angle ties (M = 0, or M(b1 + b2) = 0 for alpha2), the
    angle returned is -pi.
    """
    m = _xy_block(state)
    if fixed is None:
        (m00, m01), (m10, m11) = m.tolist()
        radius = math.hypot(m00, m01, m10, m11)
        if radius == 0.0:
            return MeasurementSettings(-math.pi, -math.pi, -math.pi, -math.pi), 0.0
        q, r = math.hypot(m00 + m11, m10 - m01), math.hypot(m00 - m11, m10 + m01)
        q_angle, r_angle = math.atan2(m10 - m01, m00 + m11), math.atan2(m10 + m01, m00 - m11)
        phi, theta, t = (q_angle + r_angle) / 2, (q_angle - r_angle) / 2, math.atan2(q - r, q + r)
        return MeasurementSettings(phi + math.pi / 2, phi, theta - t, theta + t), 2.0 * radius

    alpha1, chi1 = map(wrap_angle, pair(fixed, InputError, "fixed (alpha1, chi1)"))
    a1 = _directions(alpha1, 1.0)[0]
    b1 = _directions(chi1, -1.0)[0]
    v = a1 @ m

    def curve(chis: np.ndarray) -> np.ndarray:
        """S at each chi2, with alpha2 at its best."""
        b2 = _directions(chis, -1.0).T
        return a1 @ m @ (b1[:, None] - b2) + np.linalg.norm(m @ (b1[:, None] + b2), axis=0)

    t = np.arange(8) * (math.tau / 8)
    mu = m @ _directions((t + chi1) / 2, -1.0).T
    b2_prime = _directions(t + math.pi / 2, -1.0).T  # d b2 / d chi2
    q = (mu * (m @ b2_prime)).sum(0) ** 2 - (v @ b2_prime) ** 2 * (mu * mu).sum(0)
    coeffs = np.exp(-1j * np.outer(np.arange(3, -4, -1), t)) @ q / 8
    chis = np.concatenate(([-math.pi, _angle(-v, -1.0)], np.angle(np.roots(coeffs))))
    scores = curve(chis)
    chi2 = float(chis[scores.argmax()])
    a2 = m @ (b1 + _directions(chi2, -1.0)[0])
    return MeasurementSettings(alpha1, _angle(a2, 1.0), chi1, chi2), float(scores.max())
