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

Both observables are antidiagonal, so a correlation reads only two
amplitude products, u = conj(psi00) psi11 and w = conj(psi01) psi10:

    E(alpha, chi) = 2 Re(exp(-i alpha) g(chi)),   g(chi) = u exp(i chi) + w exp(-i chi)

The largest S is 4 sqrt(2) hypot(|u|, |w|), that is 2*sqrt(m1**2 + m2**2)
with m1, m2 = 2(|u| + |w|), 2||u| - |w|| the singular values of the 2x2 XY
block of the correlation tensor (Horodecki, Phys. Lett. A 200, 340 (1995)).

For the Bell state (|01> + |10>)/sqrt(2) the correlation has the closed
form cos(alpha + chi); for (|00> + |11>)/sqrt(2) it is cos(alpha - chi).
Quantum states keep |S| <= 2*sqrt(2); local hidden variable models keep
|S| <= 2.

Angles must be finite and are canonicalized to [-pi, pi].  Everything is
computed from u and w; nothing is drawn at random.  :func:`correlation`
(:func:`s_factor`'s E11), :func:`s_factor` and the free :func:`maximize_s`
are plain Python; numpy loads only for the arrays of
:func:`correlation_matrix`, :func:`scan_s` and the fixed-pair maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SCAN_MAX_RESOLUTION as _SCAN_MAX_RESOLUTION
from .errors import ConfigError, DimensionError, InputError, finite_array, finite_real, is_int, pair

if TYPE_CHECKING:
    import numpy as np
    from . import statevector as sv

SETTING_NAMES = ("alpha1", "alpha2", "chi1", "chi2")


@functools.cache
def _dft() -> tuple[np.ndarray, np.ndarray]:
    """maximize_s's 8 sample angles and the matrix that maps samples to the coefficients
    of exp(3i chi) .. exp(-3i chi), built once, at the first fixed-pair call."""
    import numpy as np
    samples = np.arange(8) * (math.tau / 8)
    dft = np.exp(-1j * np.outer(np.arange(3, -4, -1), samples)) / 8
    samples.flags.writeable = dft.flags.writeable = False  # every call shares them
    return samples, dft


def wrap_angle(theta: float) -> float:
    """Map a finite angle to the canonical interval [-pi, pi].

    NaN, +/-inf and a value that is not a real number raise :class:`InputError`.
    """
    return math.remainder(finite_real(theta, "angle"), math.tau)


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


def _products(state: sv.StateVector) -> tuple[complex, complex]:
    """(u, w) of a two-qubit state, the two numbers every correlation reads."""
    if state.num_qubits != 2:
        raise DimensionError(f"CHSH analysis needs a 2-qubit state, got {state.num_qubits} qubits")
    return _uw(*state.amplitudes.tolist())


def _uw(psi00: complex, psi01: complex, psi10: complex, psi11: complex) -> tuple[complex, complex]:
    """(u, w) = (conj(psi00) psi11, conj(psi01) psi10) from the four amplitudes."""
    return psi00.conjugate() * psi11, psi01.conjugate() * psi10


def _g(u: complex, w: complex, chis) -> np.ndarray:
    """g(chi) = u exp(i chi) + w exp(-i chi) at each checked angle; g(chi + pi/2) = g'(chi)."""
    import numpy as np
    chis = np.asarray(chis, dtype=float).reshape(-1)
    return (u + w) * np.cos(chis) + 1j * (u - w) * np.sin(chis)


def correlation(state: sv.StateVector, alpha: float, chi: float) -> float:
    """E(alpha, chi) = <psi| A(alpha) (x) B(chi) |psi> on a two-qubit state, in plain Python:
    :func:`s_factor`'s E11, bit for bit, its angles checked as the settings' are."""
    return _s_factor(*_products(state), MeasurementSettings(alpha, alpha, chi, chi)).correlations[0]


def correlation_matrix(state: sv.StateVector, alphas: np.ndarray, chis: np.ndarray) -> np.ndarray:
    """Correlations for every (alpha, chi) pair: shape (number of alphas, number of chis).

    E[i, j] = 2 Re(exp(-i alpha_i) g(chi_j)).
    """
    import numpy as np
    u, w = _products(state)
    alphas, chis = (finite_array(x, float, InputError, "angles") for x in (alphas, chis))
    alphas, g = alphas.reshape(-1, 1), _g(u, w, chis)
    return 2.0 * (np.cos(alphas) * g.real + np.sin(alphas) * g.imag)


def s_factor(state: sv.StateVector, settings: MeasurementSettings) -> SFactorResult:
    """Evaluate the CHSH combination at the given settings, E as in :func:`correlation_matrix`."""
    return _s_factor(*_products(state), settings)


def _s_factor(u: complex, w: complex, settings: MeasurementSettings) -> SFactorResult:
    """:func:`s_factor` from u and w in plain Python: per angle the operations of
    :func:`correlation_matrix`, so the two agree bit for bit."""
    cos, sin, plus, minus = math.cos, math.sin, u + w, 1j * (u - w)
    g1, g2 = [plus * cos(chi) + minus * sin(chi) for chi in (settings.chi1, settings.chi2)]
    e11, e12, e21, e22 = [2.0 * (cos(alpha) * g.real + sin(alpha) * g.imag)
                          for alpha in (settings.alpha1, settings.alpha2) for g in (g1, g2)]
    return SFactorResult(settings, (e11, e12, e21, e22), e11 - e12 + e21 + e22)


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
    import numpy as np
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

    With all four angles free, write u = |u| exp(i a), w = |w| exp(i b),
    phi = (b + a)/2 and theta = (b - a)/2.  Then g(theta + s) =
    exp(i phi) (|u| exp(i s) + |w| exp(-i s)), so E(phi, theta + s) =
    2(|u| + |w|) cos s and E(phi + pi/2, theta + s) = 2(|u| - |w|) sin s.
    At alpha1, alpha2 = phi + pi/2, phi and chi1, chi2 = theta -/+ t,
    S = 4(|w| + |u|) cos t + 4(|w| - |u|) sin t, and t = atan2(|w| - |u|,
    |w| + |u|) makes it the maximum, 4 sqrt(2) hypot(|u|, |w|).

    ``fixed``, when given, is the pair (alpha1, chi1) to pin.  With
    e1 = exp(-i alpha1) and g1, g2 = g(chi1), g(chi2), S = 2 Re(e1 (g1 - g2))
    + 2 Re(exp(-i alpha2) (g1 + g2)); the best alpha2 is arg(g1 + g2),
    leaving S(chi2) = 2 Re(e1 (g1 - g2)) + 2 |g1 + g2|.  Squared, S' = 0
    reads Re(conj(g1 + g2) g2')**2 = Re(e1 g2')**2 |g1 + g2|**2, g' = dg/dchi;
    as g1 + g2 = 2 cos((chi2 - chi1)/2) g(sigma), sigma = (chi1 + chi2)/2,
    dividing out the cos**2 (a double root at the kink chi2 = chi1 + pi,
    never a peak) leaves Q = Re(conj(g(sigma)) g2')**2 -
    Re(e1 g2')**2 |g(sigma)|**2, a trigonometric polynomial of degree 3.
    Its 7 coefficients follow from 8 samples, and the 6 roots of z**3 Q,
    z = exp(i chi2), are companion-matrix eigenvalues (Boyd, J. Eng. Math.
    56, 203 (2006)).  Their angles, the peak of the linear term
    -2 Re(e1 g2) (the peak where Q vanishes identically) and -pi are scored
    exactly, and the first best is kept.

    Where every angle ties (u = w = 0, or g1 + g2 = 0 for alpha2), the
    angle returned is -pi.
    """
    u, w = _products(state)
    if fixed is None:
        ru, rw = abs(u), abs(w)
        if ru == rw == 0.0:
            return MeasurementSettings(-math.pi, -math.pi, -math.pi, -math.pi), 0.0
        au, aw = math.atan2(u.imag, u.real), math.atan2(w.imag, w.real)
        phi, theta, t = (aw + au) / 2, (aw - au) / 2, math.atan2(rw - ru, rw + ru)
        best = MeasurementSettings(phi + math.pi / 2, phi, theta - t, theta + t)
        return best, 4.0 * math.sqrt(2.0) * math.hypot(ru, rw)

    import numpy as np
    alpha1, chi1 = map(wrap_angle, pair(fixed, InputError, "fixed (alpha1, chi1)"))
    samples, dft = _dft()
    e1 = complex(math.cos(alpha1), -math.sin(alpha1))
    g = _g(u, w, np.concatenate(((samples + chi1) / 2, samples + math.pi / 2)))
    mid, slope = g[:8], g[8:]  # g(sigma) and g'(chi2) at the samples chi2
    q = (mid.conjugate() * slope).real ** 2 - (e1 * slope).real ** 2 * (mid.real ** 2 + mid.imag ** 2)
    h = e1 * u + (e1 * w).conjugate()  # Re(e1 g(chi)) = Re(h exp(i chi))
    peak = math.atan2(h.imag, -h.real) if h else -math.pi
    chis = np.concatenate(([chi1, -math.pi, peak], np.angle(np.roots(dft @ q))))
    g = _g(u, w, chis)
    scores = 2.0 * (e1 * (g[0] - g[1:])).real + 2.0 * abs(g[0] + g[1:])
    best = int(scores.argmax())
    total = complex(g[0] + g[1 + best])
    alpha2 = math.atan2(total.imag, total.real) if total else -math.pi
    return MeasurementSettings(alpha1, alpha2, chi1, float(chis[1 + best])), float(scores[best])
