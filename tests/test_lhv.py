"""Local-hidden-variable model tests: strategies, mixtures, fitting, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import lhv
from bellsim.errors import InputError, ModelError

C = math.cos(math.pi / 4)


def random_model(seed):
    rng = np.random.default_rng(seed)
    w = rng.random(16)
    return lhv.LhvModel(w / w.sum())


def test_sixteen_distinct_strategies():
    strategies = lhv.enumerate_strategies()
    assert len(strategies) == 16
    assert len(set(strategies)) == 16
    assert strategies[0] == lhv.DeterministicStrategy(1, 1, 1, 1)
    assert strategies[-1] == lhv.DeterministicStrategy(-1, -1, -1, -1)


def test_strategy_outcomes_validated():
    with pytest.raises(ModelError):
        lhv.DeterministicStrategy(0, 1, 1, 1)
    with pytest.raises(ModelError):
        lhv.DeterministicStrategy(1, 1, 1, 2)


def test_strategy_s_is_plus_or_minus_two():
    values = [lhv.strategy_s(s) for s in lhv.STRATEGIES]
    assert set(values) == {-2.0, 2.0}
    assert values.count(2.0) == 8
    assert values.count(-2.0) == 8


def test_classical_max_s_exactly_two():
    assert lhv.classical_max_s() == 2.0


def test_model_weight_validation():
    with pytest.raises(ModelError):
        lhv.LhvModel(np.full(8, 0.125))
    with pytest.raises(ModelError):
        lhv.LhvModel(np.array([-1e-3] + [0.0] * 14 + [1.001]))
    with pytest.raises(ModelError):
        lhv.LhvModel(np.full(16, 0.9 / 16))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_weights(bad):
    with pytest.raises(ModelError):
        lhv.LhvModel(np.full(16, bad))
    w = np.full(16, 1.0 / 16)
    w[7] = bad
    with pytest.raises(ModelError):
        lhv.LhvModel(w)


def test_model_clamps_tiny_negative_weights():
    w = np.full(16, 1.0 / 16)
    w[3] += 1e-13  # keep the sum at 1 within tolerance
    w[5] = -1e-13
    w[4] += 1.0 / 16
    model = lhv.LhvModel(w)
    assert model.weights[5] == 0.0
    assert model.weights.min() >= 0.0


def test_model_weights_read_only():
    model = random_model(0)
    with pytest.raises(ValueError):
        model.weights[0] = 0.5


def test_uniform_model_is_uncorrelated():
    uniform = lhv.LhvModel(np.full(16, 1.0 / 16))
    assert lhv.model_correlations(uniform) == (0.0, 0.0, 0.0, 0.0)
    assert lhv.model_s(uniform) == 0.0


def test_point_mass_reproduces_strategy_correlations():
    for idx in (0, 5, 10, 15):
        w = np.zeros(16)
        w[idx] = 1.0
        model = lhv.LhvModel(w)
        assert lhv.model_correlations(model) == lhv.STRATEGIES[idx].correlations()
        assert lhv.model_s(model) == lhv.strategy_s(lhv.STRATEGIES[idx])


def test_random_models_respect_classical_bound():
    for seed in range(1000):
        assert abs(lhv.model_s(random_model(seed))) <= 2.0 + 1e-12


def test_model_s_is_linear_in_weights():
    s_vector = np.array([lhv.strategy_s(s) for s in lhv.STRATEGIES])
    for seed in range(20):
        model = random_model(seed)
        assert abs(lhv.model_s(model) - float(model.weights @ s_vector)) < 1e-12


def test_chsh_variants_structure():
    variants = lhv.chsh_variants((1.0, 1.0, 1.0, 1.0))
    assert len(variants) == 8
    assert variants == (2.0, -2.0, 2.0, -2.0, 2.0, -2.0, 2.0, -2.0)


def test_chsh_variants_flag_zero_s_nonlocality():
    # S itself vanishes for these correlations, yet the variant dropping
    # E22 equals 4*cos(pi/4) = 2*sqrt(2), outside the local polytope.
    variants = lhv.chsh_variants((C, C, C, -C))
    assert abs(max(variants) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_fit_point_mass_targets():
    model = lhv.fit_lhv((1.0, 1.0, 1.0, 1.0))
    assert model is not None
    assert model.weights[0] == 1.0
    assert lhv.model_correlations(model) == (1.0, 1.0, 1.0, 1.0)


def test_fit_rejects_tsirelson_targets():
    assert lhv.fit_lhv((C, -C, C, C)) is None


def test_zero_s_settings_are_still_nonlocal():
    # A vanishing CHSH combination does not imply local realizability:
    # these correlations violate a different facet of the polytope.
    assert lhv.fit_lhv((C, C, C, -C)) is None


def test_fit_scaled_targets_round_trip():
    targets = (C / 2, C / 2, C / 2, -C / 2)
    model = lhv.fit_lhv(targets)
    assert model is not None
    fitted = lhv.model_correlations(model)
    np.testing.assert_allclose(fitted, targets, atol=1e-12)


def test_fit_scales_targets_just_outside_the_polytope_onto_its_boundary():
    # The largest CHSH variant, 2 (1 + 5e-10), rounds to the facet test's
    # limit 2 + 1e-9, so the targets are accepted; sum |H E / 4| is
    # 1 + 5e-10 > 1, so the witness is built from them scaled onto the boundary.
    targets = tuple((1 + 5e-10) * t for t in (1.0, 0.0, 0.0, -1.0))
    model = lhv.fit_lhv(targets)
    assert model is not None
    np.testing.assert_allclose(lhv.model_correlations(model), targets, rtol=0, atol=1e-9)


def test_fit_round_trips_random_models():
    for seed in range(200):
        model = random_model(seed)
        targets = lhv.model_correlations(model)
        refit = lhv.fit_lhv(targets)
        assert refit is not None
        np.testing.assert_allclose(lhv.model_correlations(refit), targets, atol=1e-12)


def test_fit_agrees_with_facet_test():
    rng = np.random.default_rng(42)
    for _ in range(300):
        targets = tuple(rng.uniform(-1.0, 1.0, size=4))
        model = lhv.fit_lhv(targets)
        worst = max(lhv.chsh_variants(targets))
        if model is None:
            assert worst > 2.0
        else:
            assert worst <= 2.0 + 1e-9
            np.testing.assert_allclose(lhv.model_correlations(model), targets, atol=1e-12)


HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4))
def test_witness_exists_iff_cross_polytope_norm_at_most_one(targets):
    # The local polytope is conv{+/-h_k} for the Hadamard rows h_k, so the
    # facet test must agree with sum |c_k| <= 1 where c = H E / 4.
    norm = float(np.abs(HADAMARD @ np.array(targets) / 4.0).sum())
    model = lhv.fit_lhv(tuple(targets))
    if abs(norm - 1.0) > 1e-9:
        assert (model is None) == (norm > 1.0)
    if model is not None:
        assert model.weights.min() >= 0.0
        np.testing.assert_allclose(lhv.model_correlations(model), targets, atol=1e-12)


def test_fit_input_validation():
    with pytest.raises(InputError):
        lhv.fit_lhv((0.1, 0.2, 0.3))
    with pytest.raises(InputError):
        lhv.fit_lhv((0.1, float("nan"), 0.3, 0.4))
    with pytest.raises(InputError):
        lhv.fit_lhv((1.5, 0.0, 0.0, 0.0))


def test_sample_point_mass_is_deterministic():
    w = np.zeros(16)
    w[5] = 1.0  # strategy (a1, a2, b1, b2) = (+1, -1, +1, -1)
    model = lhv.LhvModel(w)
    rng = np.random.default_rng(7)
    assert lhv.sample_lhv(model, (1, 1), rng) == (1, 1)
    assert lhv.sample_lhv(model, (1, 2), rng) == (1, -1)
    assert lhv.sample_lhv(model, (2, 1), rng) == (-1, 1)
    assert lhv.sample_lhv(model, (2, 2), rng) == (-1, -1)


class _TopOfRangeRng:
    """A generator stub whose uniform draw lands just under 1."""

    def random(self):
        return 1.0 - 2e-11


def test_sample_past_a_short_weight_sum_takes_a_weighted_strategy():
    w = np.zeros(16)
    w[0] = 0.5  # (+1, +1, +1, +1)
    w[5] = 0.5 - 5e-11  # (+1, -1, +1, -1); the sum is 1 - 5e-11, within tolerance
    model = lhv.LhvModel(w)
    # The draw lies above the weight sum; strategy 15 (all -1) has weight 0.
    assert lhv.sample_lhv(model, (1, 1), _TopOfRangeRng()) == (1, 1)
    assert lhv.sample_lhv(model, (1, 2), _TopOfRangeRng()) == (1, -1)  # the last one, 5


def test_sample_rejects_bad_setting_pair():
    model = lhv.LhvModel(np.full(16, 1.0 / 16))
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        lhv.sample_lhv(model, (0, 1), rng)
    with pytest.raises(InputError):
        lhv.sample_lhv(model, (1, 3), rng)


def test_sample_is_seed_reproducible():
    model = random_model(3)
    draws_a = [lhv.sample_lhv(model, (1, 2), np.random.default_rng(11)) for _ in range(1)]
    draws_b = [lhv.sample_lhv(model, (1, 2), np.random.default_rng(11)) for _ in range(1)]
    assert draws_a == draws_b
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    seq1 = [lhv.sample_lhv(model, (2, 1), rng1) for _ in range(50)]
    seq2 = [lhv.sample_lhv(model, (2, 1), rng2) for _ in range(50)]
    assert seq1 == seq2


def test_sample_matches_model_correlations_empirically():
    targets = (C / 2, C / 2, C / 2, -C / 2)
    model = lhv.fit_lhv(targets)
    rng = np.random.default_rng(123)
    pairs = ((1, 1), (1, 2), (2, 1), (2, 2))
    n = 50000
    for target, pair in zip(targets, pairs):
        total = 0
        for _ in range(n):
            a, b = lhv.sample_lhv(model, pair, rng)
            total += a * b
        assert abs(total / n - target) < 0.02
