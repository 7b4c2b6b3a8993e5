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

This module is plain Python: four targets and 16 weights need no numpy.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import InputError, ModelError, draw, finite_real, is_int, pair

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

_ROWS = tuple(s.correlations() for s in STRATEGIES)
_COLUMNS = tuple(zip(*_ROWS))  # column j: E_j of every strategy
_HADAMARD = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
# The first strategy whose correlations are +h_k, and the first giving -h_k.
_PLUS_H = tuple(_ROWS.index(h) for h in _HADAMARD)
_MINUS_H = tuple(_ROWS.index(tuple(-x for x in h)) for h in _HADAMARD)


def _finite_reals(value, count: int, error: type, what: str) -> tuple[float, ...]:
    """``value`` as ``count`` floats, each through :func:`finite_real`; else ``error``."""
    try:
        items = () if isinstance(value, (str, bytes)) else tuple(value)
        if len(items) == count:
            return tuple(finite_real(x, what) for x in items)
    except (TypeError, InputError):  # not iterable; an item that is not a finite real
        pass
    raise error(f"{what} must be {count} finite real numbers, got {value!r}")


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

    ``weights``, stored as a tuple of 16 floats, must be finite reals,
    nonnegative (values above -1e-12 are clamped to 0) and sum to 1
    within 1e-10; anything else raises :class:`ModelError`.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = _finite_reals(self.weights, len(STRATEGIES), ModelError, "model weights")
        if min(w) < -_WEIGHT_NEG_ATOL:
            raise ModelError(f"negative weight {min(w)!r} in model")
        w = tuple(x if x > 0.0 else 0.0 for x in w)
        total = sum(w)
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise ModelError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_SUM_ATOL}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_sums", tuple(itertools.accumulate(w)))  # sample_lhv bisects these


def model_correlations(model: LhvModel) -> tuple[float, float, float, float]:
    """(E11, E12, E21, E22) of the mixture, summed left to right in each block of
    four strategies sharing (a1, a2), then over blocks: the numpy product's order."""
    out = []
    for column in _COLUMNS:
        t = [w * v for w, v in zip(model.weights, column)]
        blocks = [t[i] + t[i + 1] + t[i + 2] + t[i + 3] for i in (0, 4, 8, 12)]
        out.append(blocks[0] + blocks[1] + blocks[2] + blocks[3])
    return tuple(out)


def model_s(model: LhvModel) -> float:
    """CHSH combination E11 - E12 + E21 + E22 of the mixture."""
    e11, e12, e21, e22 = model_correlations(model)
    return e11 - e12 + e21 + e22


def _variants(e: tuple[float, ...]) -> tuple[float, ...]:
    base = e[0] + e[1] + e[2] + e[3]
    return tuple(sign * (base - 2.0 * term) for term in e for sign in (1.0, -1.0))


def chsh_variants(targets: "tuple[float, float, float, float]") -> tuple[float, ...]:
    """The eight signed CHSH variants +/-(E11+E12+E21+E22 - 2*Eij).

    Local realizability of a correlation tuple is equivalent to all eight
    being at most 2 (the facet description of the local polytope).
    ``targets`` that are not 4 finite real numbers raise :class:`InputError`.
    """
    return _variants(_finite_reals(targets, 4, InputError, "target correlations"))


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
    e = _finite_reals(targets, 4, InputError, "target correlations")
    largest = max(abs(x) for x in e)
    if largest > 1.0 + _FIT_TOL:
        raise InputError(f"correlations must lie in [-1, 1], got max magnitude {largest!r}")
    if max(_variants(e)) > 2.0 + _FIT_TOL:
        return None

    # c = H E / 4 as one Walsh-Hadamard butterfly.
    e11, e12, e21, e22 = e
    s1, s2, d1, d2 = e11 + e21, e12 + e22, e11 - e21, e12 - e22
    c = [(s1 + s2) / 4.0, (s1 - s2) / 4.0, (d1 + d2) / 4.0, (d1 - d2) / 4.0]
    norm = abs(c[0]) + abs(c[1]) + abs(c[2]) + abs(c[3])
    if norm > 1.0:
        c = [x / norm for x in c]
        norm = 1.0
    w = [0.0] * len(STRATEGIES)
    for k, x in enumerate(c):
        w[_MINUS_H[k] if x < 0.0 else _PLUS_H[k]] = abs(x)
    w[_PLUS_H[0]] += (1.0 - norm) / 2.0
    w[_MINUS_H[0]] += (1.0 - norm) / 2.0
    return LhvModel(w)


def sample_lhv(model: LhvModel, setting_pair: tuple[int, int], rng) -> tuple[int, int]:
    """Draw one strategy from the mixture and read off outcomes (a, b).

    ``setting_pair`` is (i, j) with i, j in {1, 2}: side A uses setting
    alpha_i, side B uses chi_j.  Consumes one uniform draw,
    ``rng.random()``, e.g. from :class:`random.Random` or numpy's generator.
    """
    i, j = pair(setting_pair, InputError, "setting_pair")
    if not (is_int(i, 1, 2) and is_int(j, 1, 2)):
        raise InputError(f"setting_pair entries must be 1 or 2, got {setting_pair!r}")
    sums = model._sums
    idx = bisect_right(sums, draw(rng))  # below the sum it lands on a weighted strategy
    # At or above a weight sum just under 1 the draw takes the last weighted strategy.
    strategy = STRATEGIES[idx if idx < len(sums) else bisect_left(sums, sums[-1])]
    a = strategy.a1 if i == 1 else strategy.a2
    b = strategy.b1 if j == 1 else strategy.b2
    return a, b
