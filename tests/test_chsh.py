"""CHSH analyzer tests: observables, correlations, S-factor, scan, maximizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import chsh
from bellsim import statevector as sv
from bellsim.errors import ConfigError, DimensionError, InputError

TSIRELSON = 2.0 * math.sqrt(2.0)


def random_two_qubit_state(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return sv.StateVector(2, raw / np.linalg.norm(raw))


def random_product_state(seed):
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(2):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        f /= np.linalg.norm(f)
        factors.append((f[0], f[1]))
    return sv.product_state(factors)


# The matrix oracle: the module docstring's observables, measured on the dense
# engine, and the two Bell states' closed forms.

def observable_a(alpha):
    """Side-A observable at analyzer angle ``alpha`` (Hermitian, eigenvalues +/-1)."""
    return np.array([[0.0, np.exp(-1j * alpha)], [np.exp(1j * alpha), 0.0]], dtype=complex)


def observable_b(chi):
    """Side-B observable at analyzer angle ``chi`` (Hermitian, eigenvalues +/-1)."""
    return np.array([[0.0, np.exp(1j * chi)], [np.exp(-1j * chi), 0.0]], dtype=complex)


def psi_plus_correlation(alpha, chi):
    """Closed-form correlation for (|01> + |10>)/sqrt(2): cos(alpha + chi)."""
    return math.cos(alpha + chi)


def phi_plus_correlation(alpha, chi):
    """Closed-form correlation for (|00> + |11>)/sqrt(2): cos(alpha - chi)."""
    return math.cos(alpha - chi)


def matrix_correlation(state, alpha, chi):
    return sv.expectation(state, observable_a(alpha), observable_b(chi))


def test_observables_at_special_angles():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    np.testing.assert_allclose(observable_a(0.0), x, atol=1e-15)
    np.testing.assert_allclose(observable_b(0.0), x, atol=1e-15)
    np.testing.assert_allclose(observable_a(math.pi / 2), y, atol=1e-15)
    np.testing.assert_allclose(observable_b(math.pi / 2), -y, atol=1e-15)


def test_observables_are_hermitian_involutions():
    rng = np.random.default_rng(3)
    for _ in range(50):
        angle = float(rng.uniform(-math.pi, math.pi))
        for obs in (observable_a(angle), observable_b(angle)):
            np.testing.assert_allclose(obs, obs.conj().T, atol=1e-12)
            np.testing.assert_allclose(obs @ obs, np.eye(2), atol=1e-12)


def test_s_factor_matches_the_matrix_oracle_on_haar_states():
    # a normalized complex Gaussian vector is Haar-distributed
    rng = np.random.default_rng(11)
    for seed in range(300):
        state = random_two_qubit_state(20_000 + seed)
        settings = chsh.MeasurementSettings(*rng.uniform(-4, 4, size=4))
        a1, a2, c1, c2 = settings.as_tuple()
        oracle = [matrix_correlation(state, a, c) for a in (a1, a2) for c in (c1, c2)]
        result = chsh.s_factor(state, settings)
        assert max(abs(e - o) for e, o in zip(result.correlations, oracle)) <= 1e-14, seed
        assert abs(result.s_value - (oracle[0] - oracle[1] + oracle[2] + oracle[3])) <= 1e-14, seed


def test_wrap_angle_canonical_interval():
    rng = np.random.default_rng(4)
    for _ in range(200):
        theta = float(rng.uniform(-50, 50))
        wrapped = chsh.wrap_angle(theta)
        assert -math.pi <= wrapped <= math.pi
        assert abs(math.remainder(wrapped - theta, math.tau)) < 1e-9
    assert chsh.wrap_angle(0.0) == 0.0
    assert abs(chsh.wrap_angle(2 * math.pi)) < 1e-15


def test_correlation_matches_closed_forms():
    rng = np.random.default_rng(5)
    psi = sv.bell_psi_plus()
    phi = sv.bell_phi_plus()
    for _ in range(200):
        alpha = float(rng.uniform(-math.pi, math.pi))
        chi = float(rng.uniform(-math.pi, math.pi))
        assert abs(chsh.correlation(psi, alpha, chi) - math.cos(alpha + chi)) < 1e-10
        assert abs(chsh.correlation(phi, alpha, chi) - math.cos(alpha - chi)) < 1e-10
        result = chsh.s_factor(psi, chsh.MeasurementSettings(alpha, alpha, chi, chi))
        assert abs(result.correlations[0] - psi_plus_correlation(alpha, chi)) < 1e-15
        result = chsh.s_factor(phi, chsh.MeasurementSettings(alpha, alpha, chi, chi))
        assert abs(result.correlations[0] - phi_plus_correlation(alpha, chi)) < 1e-15
    assert abs(psi_plus_correlation(math.pi / 2, -math.pi / 4) - math.cos(math.pi / 4)) < 1e-15
    assert abs(phi_plus_correlation(0.3, 0.3) - 1.0) < 1e-15


def test_correlation_requires_two_qubits():
    with pytest.raises(DimensionError):
        chsh.correlation(sv.zero_state(1), 0.0, 0.0)
    with pytest.raises(DimensionError):
        chsh.s_factor(sv.zero_state(3), chsh.MeasurementSettings(0, 0, 0, 0))


@pytest.mark.parametrize("bad", [[0.1, 0.2], np.array([0.1]), [[0.1]]],
                         ids=["list", "array", "nested-list"])
def test_correlation_rejects_an_angle_that_is_not_a_scalar(bad):
    for alpha, chi in ((bad, 0.3), (0.3, bad)):
        with pytest.raises(InputError):
            chsh.correlation(sv.bell_psi_plus(), alpha, chi)


def test_correlation_matrix_agrees_with_scalar():
    state = random_two_qubit_state(6)
    alphas = np.linspace(-3, 3, 7)
    chis = np.linspace(-2, 2, 5)
    matrix = chsh.correlation_matrix(state, alphas, chis)
    assert matrix.shape == (7, 5)
    for i, a in enumerate(alphas):
        for j, c in enumerate(chis):
            assert abs(matrix[i, j] - chsh.correlation(state, float(a), float(c))) < 1e-12


def test_measurement_settings_wrap():
    settings = chsh.MeasurementSettings(
        alpha1=2 * math.pi, alpha2=math.pi / 2 + 4 * math.pi, chi1=-3 * math.pi, chi2=0.25
    )
    assert abs(settings.alpha1) < 1e-12
    assert abs(settings.alpha2 - math.pi / 2) < 1e-12
    assert abs(abs(settings.chi1) - math.pi) < 1e-12
    assert settings.as_tuple()[3] == 0.25


def test_s_factor_reference_settings():
    psi = sv.bell_psi_plus()
    top = chsh.s_factor(
        psi, chsh.MeasurementSettings(alpha1=math.pi / 2, chi1=-math.pi / 4, alpha2=0.0, chi2=math.pi / 4)
    )
    assert abs(top.s_value - TSIRELSON) < 1e-10
    zero = chsh.s_factor(
        psi,
        chsh.MeasurementSettings(
            alpha1=math.pi / 2, chi1=-math.pi / 4, alpha2=0.0, chi2=-3 * math.pi / 4
        ),
    )
    assert abs(zero.s_value) < 1e-10
    c = math.cos(math.pi / 4)
    np.testing.assert_allclose(zero.correlations, (c, c, c, -c), atol=1e-12)


def test_s_factor_result_internal_consistency():
    rng = np.random.default_rng(8)
    for seed in range(50):
        state = random_two_qubit_state(300 + seed)
        settings = chsh.MeasurementSettings(*rng.uniform(-math.pi, math.pi, size=4))
        result = chsh.s_factor(state, settings)
        e11, e12, e21, e22 = result.correlations
        assert abs(result.s_value - (e11 - e12 + e21 + e22)) < 1e-12
        assert max(abs(e) for e in result.correlations) <= 1 + 1e-10


def test_s_is_periodic_in_every_angle():
    rng = np.random.default_rng(9)
    psi = sv.bell_psi_plus()
    for _ in range(100):
        raw = rng.uniform(-math.pi, math.pi, size=4)
        base = chsh.s_factor(psi, chsh.MeasurementSettings(*raw)).s_value
        shifted = raw + 2 * math.pi * rng.integers(-2, 3, size=4)
        again = chsh.s_factor(psi, chsh.MeasurementSettings(*shifted)).s_value
        assert abs(base - again) < 1e-10


def test_quantum_bound_over_random_states():
    rng = np.random.default_rng(10)
    for seed in range(500):
        state = random_two_qubit_state(10_000 + seed)
        settings = chsh.MeasurementSettings(*rng.uniform(-math.pi, math.pi, size=4))
        assert abs(chsh.s_factor(state, settings).s_value) <= TSIRELSON + 1e-9


def test_scan_resolution_two_has_exact_corners():
    grid = chsh.scan_s(sv.bell_psi_plus(), math.pi / 2, -math.pi / 4, resolution=2)
    np.testing.assert_array_equal(grid.alpha2_axis, [-math.pi, math.pi])
    np.testing.assert_array_equal(grid.chi2_axis, [-math.pi, math.pi])
    assert grid.s_values.shape == (2, 2)


def test_scan_rejects_bad_resolution(monkeypatch):
    cap = chsh._SCAN_MAX_RESOLUTION
    assert chsh.scan_s(sv.bell_psi_plus(), 0.0, 0.0, resolution=cap).s_values.shape == (cap, cap)

    def no_grid(*args):
        raise AssertionError("the grid was built before the resolution was checked")

    monkeypatch.setattr(chsh, "correlation_matrix", no_grid)
    for bad in (1, 0, -5, cap + 1, 200000):
        with pytest.raises(ConfigError):
            chsh.scan_s(sv.bell_psi_plus(), 0.0, 0.0, resolution=bad)


def test_scan_cells_match_s_factor():
    grid = chsh.scan_s(sv.bell_psi_plus(), math.pi / 2, -math.pi / 4, resolution=9)
    for i, alpha2 in enumerate(grid.alpha2_axis):
        for j, chi2 in enumerate(grid.chi2_axis):
            direct = chsh.s_factor(
                sv.bell_psi_plus(),
                chsh.MeasurementSettings(
                    alpha1=math.pi / 2, chi1=-math.pi / 4, alpha2=float(alpha2), chi2=float(chi2)
                ),
            ).s_value
            assert abs(grid.s_values[i, j] - direct) < 1e-12


def test_full_surface_range_is_symmetric():
    # Shifting alpha1 and alpha2 by pi negates S, so over all four angles
    # the attainable range is exactly [-max, +max] = [-2*sqrt(2), 2*sqrt(2)].
    psi = sv.bell_psi_plus()
    best, s_max = chsh.maximize_s(psi)
    assert abs(s_max - TSIRELSON) < 1e-6
    a1, a2, c1, c2 = best.as_tuple()
    mirrored = chsh.MeasurementSettings(alpha1=a1 + math.pi, alpha2=a2 + math.pi, chi1=c1, chi2=c2)
    assert abs(chsh.s_factor(psi, mirrored).s_value + TSIRELSON) < 1e-6


def test_scan_slice_level_coverage():
    # On the fixed (pi/2, -pi/4) slice every level in [2**-1.5, 2**1.5]
    # is attainable: the grid straddles that whole interval.
    grid = chsh.scan_s(sv.bell_psi_plus(), math.pi / 2, -math.pi / 4, resolution=201)
    assert abs(float(grid.s_values.max()) - TSIRELSON) < 2e-3
    assert float(grid.s_values.min()) <= 2.0**-1.5
    assert float(np.abs(grid.s_values).max()) <= TSIRELSON + 1e-9


def test_maximize_fixed_pair_recovers_optimum():
    settings, s_star = chsh.maximize_s(sv.bell_psi_plus(), fixed=(math.pi / 2, -math.pi / 4))
    assert abs(s_star - TSIRELSON) < 1e-6
    assert abs(settings.alpha1 - math.pi / 2) < 1e-12
    assert abs(settings.chi1 + math.pi / 4) < 1e-12
    assert abs(settings.alpha2 - 0.0) < 1e-4
    assert abs(settings.chi2 - math.pi / 4) < 1e-4


def test_maximize_free_reaches_tsirelson():
    _, s_star = chsh.maximize_s(sv.bell_psi_plus())
    assert abs(s_star - TSIRELSON) < 1e-6
    _, phi_star = chsh.maximize_s(sv.bell_phi_plus())
    assert abs(phi_star - TSIRELSON) < 1e-6


def test_maximize_zero_state_is_flat_zero():
    # Both observables are purely anti-diagonal, so every correlation of
    # |00> factorizes to 0 * 0; the whole surface is identically zero.
    settings, s_star = chsh.maximize_s(sv.zero_state(2))
    assert abs(s_star) < 1e-9
    assert settings.as_tuple() == (-math.pi, -math.pi, -math.pi, -math.pi)


def test_maximize_plus_plus_reaches_classical_bound():
    s = 1.0 / math.sqrt(2.0)
    plus_plus = sv.product_state([(s, s), (s, s)])
    _, s_star = chsh.maximize_s(plus_plus)
    assert abs(s_star - 2.0) < 1e-6


def test_maximize_is_deterministic():
    first = chsh.maximize_s(sv.bell_psi_plus(), fixed=(math.pi / 2, -math.pi / 4))
    second = chsh.maximize_s(sv.bell_psi_plus(), fixed=(math.pi / 2, -math.pi / 4))
    assert first[0].as_tuple() == second[0].as_tuple()
    assert first[1] == second[1]


def test_maximize_validates_inputs():
    with pytest.raises(DimensionError):
        chsh.maximize_s(sv.zero_state(1))
    for fixed in ((0.0, 1.0, 2.0), (0.0,), 0.5, ("a", "b")):
        with pytest.raises(InputError):
            chsh.maximize_s(sv.bell_psi_plus(), fixed=fixed)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", 1j, None])
def test_non_finite_angles_are_rejected(bad):
    with pytest.raises(InputError):
        chsh.wrap_angle(bad)
    with pytest.raises(InputError):
        chsh.MeasurementSettings(bad, 0.0, 0.0, 0.0)
    with pytest.raises(InputError):
        chsh.correlation(sv.bell_psi_plus(), 0.0, bad)
    with pytest.raises(InputError):
        chsh.scan_s(sv.bell_psi_plus(), bad, 0.0, resolution=3)
    with pytest.raises(InputError):
        chsh.maximize_s(sv.bell_psi_plus(), fixed=(0.0, bad))


# Property tests: the closed forms against an independent computation.
# M[j, k] = <sigma_j (x) sigma_k> is built here from sv.expectation, and
# E(alpha, chi) = a.M.b with a = (cos alpha, sin alpha), b = (cos chi, -sin chi).

PAULI_XY = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]))

two_qubit_states = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=8, max_size=8
).map(lambda v: np.array(v[:4]) + 1j * np.array(v[4:])).filter(
    lambda amps: np.linalg.norm(amps) > 1e-3
).map(lambda amps: sv.StateVector(2, amps / np.linalg.norm(amps)))

angles = st.floats(-math.pi, math.pi, allow_nan=False)


def xy_block(state):
    return np.array([[sv.expectation(state, p, q) for q in PAULI_XY] for p in PAULI_XY])


# Oracle pairs for the closed forms: the Pauli-tensor contraction that the
# u, w formula replaced, and a numerical SVD for the free maximum and its settings.

PAULI_XY_STACK = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]]], dtype=complex)


def einsum_block(state):
    psi = state.amplitudes.reshape(2, 2)
    return np.einsum("ij,aik,bjl,kl->ab", psi.conj(), PAULI_XY_STACK, PAULI_XY_STACK, psi).real


unit_pairs = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4
).map(lambda v: np.array(v[:2]) + 1j * np.array(v[2:])).filter(
    lambda amps: np.linalg.norm(amps) > 1e-3
).map(lambda amps: amps / np.linalg.norm(amps))


def on_basis_states(indices):
    """States with a unit pair on the two given basis states, zero elsewhere."""
    def build(pair):
        amps = np.zeros(4, dtype=complex)
        amps[list(indices)] = pair
        return sv.StateVector(2, amps)
    return unit_pairs.map(build)


# u = conj(psi00) psi11 and w = conj(psi01) psi10: one of them zero gives
# m1 = m2 (the Bell states among them), both zero gives M = 0.
equal_singular_states = st.one_of(on_basis_states((0, 3)), on_basis_states((1, 2)))
flat_states = st.one_of(*(on_basis_states(pair) for pair in ((0, 1), (0, 2), (3, 1), (3, 2))))
product_states = st.tuples(unit_pairs, unit_pairs).map(
    lambda f: sv.product_state([tuple(f[0]), tuple(f[1])])  # m2 = 0
)
any_states = st.one_of(two_qubit_states, equal_singular_states, product_states, flat_states)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(any_states)
def test_closed_form_block_matches_the_pauli_tensor_contraction(state):
    # a = (1, 0), (0, 1) and b = (1, 0), (0, 1) pick out the entries of M
    block = chsh.correlation_matrix(state, [0.0, math.pi / 2], [0.0, -math.pi / 2])
    assert np.abs(block - einsum_block(state)).max() <= 1e-15


@settings(derandomize=True, max_examples=300, deadline=None)
@given(any_states)
def test_free_maximum_is_horodecki_closed_form(state):
    # 2|M|_F against a numerical SVD, and the closed-form SVD's settings reaching it
    m1, m2 = np.linalg.svd(einsum_block(state), compute_uv=False)
    best, s_star = chsh.maximize_s(state)
    assert abs(s_star - 2.0 * math.hypot(m1, m2)) <= 1e-14
    assert abs(chsh.s_factor(state, best).s_value - s_star) <= 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(flat_states)
def test_free_maximum_of_a_flat_block_ties_at_minus_pi(state):
    best, s_star = chsh.maximize_s(state)
    assert s_star == 0.0
    assert best.as_tuple() == (-math.pi, -math.pi, -math.pi, -math.pi)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(any_states, angles, angles, angles, angles)
def test_s_factor_is_correlation_matrix_bit_for_bit(state, alpha1, alpha2, chi1, chi2):
    wrapped = chsh.MeasurementSettings(alpha1, alpha2, chi1, chi2)
    e = chsh.correlation_matrix(
        state, [wrapped.alpha1, wrapped.alpha2], [wrapped.chi1, wrapped.chi2]
    )
    assert chsh.s_factor(state, wrapped).correlations == tuple(e.ravel().tolist())


wide_angles = st.floats(-20.0, 20.0, allow_nan=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), wide_angles, wide_angles, wide_angles, wide_angles)
def test_correlation_is_s_factors_e11_bit_for_bit(seed, alpha1, alpha2, chi1, chi2):
    state = random_two_qubit_state(seed)  # Haar: normalized complex Gaussians
    chosen = chsh.MeasurementSettings(alpha1, alpha2, chi1, chi2)
    assert chsh.correlation(state, alpha1, chi1) == chsh.s_factor(state, chosen).correlations[0]


def chi2_grid_maximum(state, alpha1, chi1):
    # For each chi2 the best alpha2 gives a2.v its largest value |v|
    # (Cauchy-Schwarz), so a chi2 grid alone bounds the maximum from below.
    m = xy_block(state)
    a1 = np.array([math.cos(alpha1), math.sin(alpha1)])
    b1 = np.array([math.cos(chi1), -math.sin(chi1)])
    chi2 = np.linspace(-math.pi, math.pi, 20001)
    b2 = np.stack([np.cos(chi2), -np.sin(chi2)])
    grid = a1 @ m @ (b1[:, None] - b2) + np.linalg.norm(m @ (b1[:, None] + b2), axis=0)
    return float(grid.max())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(two_qubit_states, angles, angles)
def test_fixed_pair_maximum_beats_dense_grid(state, alpha1, chi1):
    best, s_fixed = chsh.maximize_s(state, fixed=(alpha1, chi1))
    assert (best.alpha1, best.chi1) == (alpha1, chi1)
    assert s_fixed >= chi2_grid_maximum(state, alpha1, chi1) - 1e-12
    assert s_fixed <= chsh.maximize_s(state)[1] + 1e-12
    assert abs(chsh.s_factor(state, best).s_value - s_fixed) <= 1e-12


R = 1.0 / math.sqrt(2.0)
STABILIZER_FACTORS = {
    "0": (1.0, 0.0), "1": (0.0, 1.0), "+": (R, R), "-": (R, -R),
    "+i": (R, 1j * R), "-i": (R, -1j * R),
}
QUARTER_TURNS = (-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi)


@pytest.mark.parametrize("first", STABILIZER_FACTORS)
@pytest.mark.parametrize("second", STABILIZER_FACTORS)
def test_fixed_pair_maximum_on_stabilizer_products(first, second):
    # Degenerate inputs: M has rank 0 or 1 and its singular vectors lie on
    # the axes, so S(chi2) can be flat or piecewise a pure cosine in chi2.
    # Perturbed copies split the roots that coincide there into clusters.
    product = np.kron(STABILIZER_FACTORS[first], STABILIZER_FACTORS[second])
    rng = np.random.default_rng(7)
    for eps in (0.0, 1e-3, 1e-4):
        amps = product + eps * (rng.normal(size=4) + 1j * rng.normal(size=4))
        state = sv.StateVector(2, amps / np.linalg.norm(amps))
        for alpha1 in QUARTER_TURNS:
            for chi1 in QUARTER_TURNS:
                best, s_fixed = chsh.maximize_s(state, fixed=(alpha1, chi1))
                grid = chi2_grid_maximum(state, alpha1, chi1)
                assert s_fixed >= grid - 1e-12, (eps, alpha1, chi1)
                assert abs(chsh.s_factor(state, best).s_value - s_fixed) <= 1e-12


def test_fixed_pair_pinned_cases():
    best, s_star = chsh.maximize_s(sv.bell_psi_plus(), fixed=(math.pi / 2, -math.pi / 4))
    assert abs(s_star - TSIRELSON) < 1e-12
    assert abs(best.alpha2) < 1e-8
    assert abs(best.chi2 - math.pi / 4) < 1e-8
    best, _ = chsh.maximize_s(sv.zero_state(2), fixed=(0.3, -1.2))
    assert (best.alpha2, best.chi2) == (-math.pi, -math.pi)
    plus_plus = sv.product_state([(R, R), (R, R)])
    assert abs(chsh.maximize_s(plus_plus, fixed=(math.pi, 0.0))[1] - 2.0) < 1e-12


def mirror_maximum(state, alpha1, chi1, points=4096):
    """The fixed-pair maximum with chi2 eliminated instead of alpha2: ``(S, settings)``.

    With e1, e2 = exp(-i alpha1), exp(-i alpha2), g1 = g(chi1) and c = e2 - e1,
    S = 2 Re((e1 + e2) g1) + 2 Re(c g(chi2)), linear in exp(+-i chi2), so the best chi2
    leaves S(alpha2) = 2 Re((e1 + e2) g1) + 2 |c u + conj(c w)|.  As c = -2i sin(d)
    exp(-i sigma), d = (alpha2 - alpha1)/2, sigma = alpha1 + d, the last term is
    4 |sin(d)| |k|, k = u exp(-i sigma) - conj(w exp(-i sigma)), free of cancellation.
    Its kinks, alpha2 = alpha1 and the minimum of |k| at alpha2 = arg(u w) - alpha1, join a
    periodic grid with points 1e-3 .. 1e-12 on each side; every + to - change of the
    exact S'(alpha2) between neighbours is bisected, and the best point is kept.  This
    shares no step with maximize_s, whose kink lies at chi2 = chi1 + pi instead.
    """
    u, w = chsh._products(state)
    alpha1, chi1 = chsh.wrap_angle(alpha1), chsh.wrap_angle(chi1)
    e1 = complex(math.cos(alpha1), -math.sin(alpha1))
    g1 = u * complex(math.cos(chi1), math.sin(chi1)) + w * complex(math.cos(chi1), -math.sin(chi1))

    def parts(alpha2):  # (S, S', the best chi2's exp(-i chi2) direction) at each alpha2
        d = (alpha2 - alpha1) / 2
        e2, turn = np.exp(-1j * alpha2), np.exp(-1j * (alpha1 + d))
        k, dk = u * turn - np.conj(w * turn), -1j * (u * turn + np.conj(w * turn))  # dk/dsigma
        size = np.abs(k)
        with np.errstate(invalid="ignore", divide="ignore"):
            bend = np.where(size > 0, (np.conj(k) * dk).real / size, 0.0)
        s = 2 * ((e1 + e2) * g1).real + 4 * np.abs(np.sin(d)) * size
        slope = 2 * (e2 * g1).imag + 2 * np.sign(np.sin(d)) * np.cos(d) * size \
            + 2 * np.abs(np.sin(d)) * bend
        return s, slope, -2j * np.sin(d) * k

    kinks = [alpha1, math.atan2((u * w).imag, (u * w).real) - alpha1]
    offsets = 10.0 ** -np.arange(3, 13)
    near = np.concatenate([[x, *(x + offsets), *(x - offsets)] for x in kinks])
    grid = np.sort(np.concatenate((np.linspace(-math.pi, math.pi, points + 1),
                                   np.remainder(near + math.pi, math.tau) - math.pi)))
    slope = parts(grid)[1]
    peaks = (slope[:-1] > 0) & (slope[1:] <= 0)
    lo, hi = grid[:-1][peaks], grid[1:][peaks]
    for _ in range(60):
        mid = (lo + hi) / 2
        up = parts(mid)[1] > 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    candidates = np.concatenate((grid, lo, hi))
    s, _, h = parts(candidates)
    best = int(s.argmax())
    chi2 = -math.atan2(h[best].imag, h[best].real)  # Re(h exp(i chi2)) = |h|
    return float(s[best]), chsh.MeasurementSettings(alpha1, float(candidates[best]), chi1, chi2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), angles, angles)
def test_fixed_pair_maximum_matches_the_mirror_reference(seed, alpha1, chi1):
    state = random_two_qubit_state(seed)  # Haar: normalized complex Gaussians
    reference, reached = mirror_maximum(state, alpha1, chi1)  # settings that reach it
    assert abs(chsh.s_factor(state, reached).s_value - reference) <= 1e-14
    assert abs(chsh.maximize_s(state, fixed=(alpha1, chi1))[1] - reference) <= 1e-12


# A |+>|-i> product perturbed by 1e-4 of complex Gaussian noise, pinned at (pi, -pi/2): the
# peak lies 2e-4 rad from the kink chi2 = chi1 + pi of maximize_s's own elimination.
NEAR_KINK = (
    [0.4999880079319422 + 5.611672392325975e-05j, -0.00024351678056188324 - 0.5000303546271295j,
     0.49993773255094515 - 0.00013278981514165165j, 1.6289912011299515e-05 - 0.5000438176795403j],
    math.pi, -math.pi / 2,
)


def test_the_mirror_reference_is_reached_beside_the_kink():
    amps, alpha1, chi1 = NEAR_KINK
    state = sv.StateVector(2, np.array(amps))
    reference, reached = mirror_maximum(state, alpha1, chi1)
    assert abs(chsh.s_factor(state, reached).s_value - reference) <= 1e-14
    assert reference <= chsh.maximize_s(state)[1]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the fixed-pair maximum falls 5.2e-10 short beside "
                          "the kink chi2 = chi1 + pi")
def test_fixed_pair_maximum_reaches_the_mirror_reference_beside_the_kink():
    amps, alpha1, chi1 = NEAR_KINK
    state = sv.StateVector(2, np.array(amps))
    reference, _ = mirror_maximum(state, alpha1, chi1)
    assert chsh.maximize_s(state, fixed=(alpha1, chi1))[1] >= reference - 1e-12
