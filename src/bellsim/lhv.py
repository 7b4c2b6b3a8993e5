"""Local hidden variable models for the two-setting, two-outcome scenario.

A deterministic strategy fixes outcomes (a1, a2, b1, b2), each +/-1, for
both measurement settings on both sides.  A local hidden variable model
is a probability mixture over the 16 deterministic strategies.  The set
of correlation tuples (E11, E12, E21, E22) such models can produce is a
polytope whose facets are exactly the eight CHSH sign variants

    | E11 + E12 + E21 + E22 - 2 * Eij | <= 2   for each ij,

so membership can be decided in closed form.  Each strategy's correlation
tuple is +/-h_k for one of the four Hadamard rows h_k, so the polytope is
the cross-polytope conv{+/-h_k}: with c = H E / 4 (H the Hadamard matrix,
so E = sum_k c_k h_k), E is local exactly when sum |c_k| <= 1, and the
weights |c_k| on the strategies for sign(c_k) h_k form an explicit witness
mixture (Fine, PRL 48, 291 (1982)).  :func:`fit_lhv` gates on the facet
test and builds that witness.  Every deterministic strategy gives the CHSH
combination E11 - E12 + E21 + E22 a value of exactly +/-2, hence the
classical bound |S| <= 2 for every model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError, finite_array, is_int, pair

CLASSICAL_BOUND = 2.0

_WEIGHT_SUM_ATOL = 1e-10
_WEIGHT_NEG_ATOL = 1e-12
# How far fit_lhv's targets may stray outside [-1, 1] and the CHSH facets.
_FIT_TOL = 1e-9


@dataclass(frozen=True)
class DeterministicStrategy:
    """Pre-assigned +/-1 outcomes for settings (a1, a2) and (b1, b2)."""

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self) -> None:
        for value in (self.a1, self.a2, self.b1, self.b2):
            if not is_int(value, -1, 1) or value == 0:
                raise ModelError(f"strategy outcomes must be +1 or -1, got {value!r}")

    def correlations(self) -> tuple[int, int, int, int]:
        """(E11, E12, E21, E22) produced by this strategy alone."""
        return (self.a1 * self.b1, self.a1 * self.b2, self.a2 * self.b1, self.a2 * self.b2)


STRATEGIES: tuple[DeterministicStrategy, ...] = tuple(
    DeterministicStrategy(a1, a2, b1, b2)
    for a1, a2, b1, b2 in itertools.product((1, -1), repeat=4)
)

# Row s = correlations of STRATEGIES[s]; columns are (E11, E12, E21, E22).
_VERTEX_MATRIX = np.array([s.correlations() for s in STRATEGIES], dtype=float)

_HADAMARD = np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)
# The first strategy whose correlations are +h_k, and the first giving -h_k.
_PLUS_H = np.argmax(_VERTEX_MATRIX @ _HADAMARD == 4.0, axis=0)
_MINUS_H = np.argmax(_VERTEX_MATRIX @ _HADAMARD == -4.0, axis=0)


def enumerate_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 16 deterministic strategies in canonical order.

    a1 varies slowest, then a2, b1, b2; +1 precedes -1.  The first entry
    is (+1, +1, +1, +1).
    """
    return STRATEGIES


def strategy_s(strategy: DeterministicStrategy) -> float:
    """CHSH combination for a single strategy: always exactly +2 or -2."""
    e11, e12, e21, e22 = strategy.correlations()
    return float(e11 - e12 + e21 + e22)


def classical_max_s() -> float:
    """Largest S any local hidden variable model can reach: exactly 2.0."""
    return max(strategy_s(s) for s in STRATEGIES)


@dataclass(frozen=True)
class LhvModel:
    """A probability mixture over the 16 deterministic strategies.

    Weights must be finite, nonnegative (values above -1e-12 are clamped
    to 0) and sum to 1 within 1e-10; anything else raises
    :class:`ModelError`.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = finite_array(self.weights, float, ModelError, "model weights").reshape(-1).copy()
        if w.shape[0] != len(STRATEGIES):
            raise ModelError(f"expected {len(STRATEGIES)} weights, got {w.shape[0]}")
        if float(w.min()) < -_WEIGHT_NEG_ATOL:
            raise ModelError(f"negative weight {float(w.min())!r} in model")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise ModelError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_SUM_ATOL}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def model_correlations(model: LhvModel) -> tuple[float, float, float, float]:
    """(E11, E12, E21, E22) of the mixture."""
    e = model.weights @ _VERTEX_MATRIX
    return (float(e[0]), float(e[1]), float(e[2]), float(e[3]))


def model_s(model: LhvModel) -> float:
    """CHSH combination E11 - E12 + E21 + E22 of the mixture."""
    e11, e12, e21, e22 = model_correlations(model)
    return e11 - e12 + e21 + e22


def chsh_variants(targets: "tuple[float, float, float, float]") -> tuple[float, ...]:
    """The eight signed CHSH variants +/-(E11+E12+E21+E22 - 2*Eij).

    Local realizability of a correlation tuple is equivalent to all eight
    being at most 2 (the facet description of the local polytope).
    ``targets`` that are not 4 finite real numbers raise :class:`InputError`.
    """
    e = finite_array(targets, float, InputError, "target correlations").reshape(-1)
    if e.shape[0] != 4:
        raise InputError(f"expected 4 target correlations, got {e.shape[0]}")
    base = float(e.sum())
    out = []
    for term in e:
        v = base - 2.0 * float(term)
        out.extend((v, -v))
    return tuple(out)


def fit_lhv(targets: "tuple[float, float, float, float]") -> LhvModel | None:
    """Find a mixture reproducing the target correlations, if one exists.

    ``targets`` is (E11, E12, E21, E22) with every entry in [-1, 1]
    (within 1e-9); anything else raises :class:`InputError`.

    Feasibility is decided by the eight-variant facet test (None when it
    fails).  The witness puts weight |c_k|, c = H E / 4, on the first
    strategy for sign(c_k) h_k and splits what is left evenly between the
    first strategies for +h_0 and -h_0, which cancel.  It reproduces the
    targets up to rounding, or within 1e-9 for targets up to 1e-9
    outside the polytope, which are first scaled onto its boundary.
    """
    variants = chsh_variants(targets)  # checks for 4 finite real numbers
    e = np.asarray(targets, dtype=float).reshape(-1)
    if float(np.abs(e).max()) > 1.0 + _FIT_TOL:
        raise InputError(
            f"correlations must lie in [-1, 1], got max magnitude {float(np.abs(e).max())!r}"
        )
    if max(variants) > 2.0 + _FIT_TOL:
        return None

    c = _HADAMARD @ e / 4.0
    norm = float(np.abs(c).sum())
    if norm > 1.0:
        c /= norm
        norm = 1.0
    w = np.zeros(len(STRATEGIES))
    w[np.where(c < 0.0, _MINUS_H, _PLUS_H)] = np.abs(c)
    w[[_PLUS_H[0], _MINUS_H[0]]] += (1.0 - norm) / 2.0
    return LhvModel(w)


def sample_lhv(
    model: LhvModel, setting_pair: tuple[int, int], rng: np.random.Generator
) -> tuple[int, int]:
    """Draw one strategy from the mixture and read off outcomes (a, b).

    ``setting_pair`` is (i, j) with i, j in {1, 2}: side A uses setting
    alpha_i, side B uses chi_j.  Consumes one uniform draw from ``rng``.
    """
    i, j = pair(setting_pair, InputError, "setting_pair")
    if not (is_int(i, 1, 2) and is_int(j, 1, 2)):
        raise InputError(f"setting_pair entries must be 1 or 2, got {setting_pair!r}")
    cumulative = np.cumsum(model.weights)
    idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
    # A draw at or above a weight sum just under 1 takes the last weighted strategy.
    strategy = STRATEGIES[min(idx, int(np.flatnonzero(model.weights)[-1]))]
    a = strategy.a1 if i == 1 else strategy.a2
    b = strategy.b1 if j == 1 else strategy.b2
    return a, b
