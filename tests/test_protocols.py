"""Protocol driver tests: teleportation, superdense coding, BB84."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bellsim import dsl
from bellsim import protocols as pr
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import ConfigError, InputError, NonCliffordGate

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class ExplodingRng:
    """Stand-in generator that fails the test if any randomness is drawn."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} consumed on a deterministic path")


def random_qubit(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return sv.StateVector(1, raw / np.linalg.norm(raw))


def bloch(state):
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return tuple(float(np.trace(rho @ p).real) for p in (X, Y, Z))


def test_resolve_input_accepts_aliases():
    assert pr.resolve_stabilizer_input("zero") == ()
    assert pr.resolve_stabilizer_input(" PLUS ") == ("H",)
    assert pr.resolve_stabilizer_input("minus-i") == ("H", "SDG")
    assert pr.resolve_stabilizer_input("+i") == ("H", "S")
    assert pr.resolve_stabilizer_input("1") == ("X",)


def test_resolve_input_aliases_take_underscore_for_dash():
    assert pr.resolve_stabilizer_input("plus_i") == ("H", "S")
    assert pr.resolve_stabilizer_input("MINUS_I") == ("H", "SDG")
    for name in ("_", "_i", "+_i"):  # "_" stands for "-" only inside a word alias
        with pytest.raises(NonCliffordGate):
            pr.resolve_stabilizer_input(name)


def test_resolve_input_rejects_unpreparable_states():
    with pytest.raises(NonCliffordGate):
        pr.resolve_stabilizer_input("T|+>")
    with pytest.raises(NonCliffordGate):
        pr.resolve_stabilizer_input("banana")


def test_stabilizer_input_states_have_expected_amplitudes():
    r = 1.0 / math.sqrt(2.0)
    expected = {
        "0": (1.0, 0.0),
        "1": (0.0, 1.0),
        "+": (r, r),
        "-": (r, -r),
        "+i": (r, r * 1j),
        "-i": (r, -r * 1j),
    }
    for name, amps in expected.items():
        state = pr.stabilizer_input_state(name)
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-15)


def test_teleport_statevector_reproduces_input():
    for seed in range(10):
        psi = random_qubit(seed)
        report, rho = pr.teleport_statevector(psi, np.random.default_rng(seed))
        assert report.protocol == "teleport"
        assert report.engine == "statevector"
        assert report.classically_simulable is False
        assert abs(report.metrics["fidelity"] - 1.0) < 1e-10
        target = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(rho, target, atol=1e-10)


def test_teleport_rho_is_a_density_matrix():
    _, rho = pr.teleport_statevector(random_qubit(42), np.random.default_rng(0))
    assert rho.shape == (2, 2)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


def test_teleport_all_forced_branches():
    psi = random_qubit(7)
    for pair in pr.TELEPORT_FORCE_PAIRS:
        report, rho = pr.teleport_statevector(psi, ExplodingRng(), force_outcomes=pair)
        assert report.classical_bits == list(pair)
        assert abs(report.metrics["fidelity"] - 1.0) < 1e-10
        target = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(rho, target, atol=1e-10)


one_qubit_states = hst.lists(
    hst.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4
).map(lambda v: np.array(v[:2]) + 1j * np.array(v[2:])).filter(
    lambda amps: np.linalg.norm(amps) > 1e-3
).map(lambda amps: sv.StateVector(1, amps / np.linalg.norm(amps)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(one_qubit_states)
def test_dense_teleport_fidelity_is_the_statevector_fidelity(psi):
    # the driver scores the rho it built without checking it; sv.fidelity checks it first
    for pair in pr.TELEPORT_FORCE_PAIRS:
        report, rho = pr.teleport_statevector(psi, ExplodingRng(), force_outcomes=pair)
        assert report.metrics["fidelity"] == sv.fidelity(psi, rho)


def test_teleport_rejects_multiqubit_input():
    with pytest.raises(InputError):
        pr.teleport_statevector(sv.zero_state(2), np.random.default_rng(0))


def test_teleport_rejects_forced_outcomes_that_are_not_a_pair():
    for forced in ((0,), (0, 1, 1)):
        with pytest.raises(InputError):
            pr.teleport_statevector(random_qubit(3), ExplodingRng(), force_outcomes=forced)


def test_teleport_stabilizer_six_inputs():
    signs = {
        "0": ("output_z", 1.0),
        "1": ("output_z", -1.0),
        "+": ("output_x", 1.0),
        "-": ("output_x", -1.0),
        "+i": ("output_y", 1.0),
        "-i": ("output_y", -1.0),
    }
    for name, (axis, value) in signs.items():
        report = pr.teleport_stabilizer(name, np.random.default_rng(5))
        assert report.engine == "stabilizer"
        assert report.classically_simulable is True
        assert abs(report.metrics["fidelity"] - 1.0) < 1e-12
        assert report.metrics[axis] == value
        for other in ("output_x", "output_y", "output_z"):
            if other != axis:
                assert report.metrics[other] == 0.0


def test_teleport_stabilizer_matches_ideal_bloch_vector():
    for name in pr.STABILIZER_INPUTS:
        report = pr.teleport_stabilizer(name, np.random.default_rng(9))
        bx, by, bz = bloch(pr.stabilizer_input_state(name))
        assert abs(report.metrics["output_x"] - bx) < 1e-12
        assert abs(report.metrics["output_y"] - by) < 1e-12
        assert abs(report.metrics["output_z"] - bz) < 1e-12


# The Bloch vector of each named input, which the receiver qubit must hold exactly.
IDEAL_BLOCH = {
    "0": (0.0, 0.0, 1.0),
    "1": (0.0, 0.0, -1.0),
    "+": (1.0, 0.0, 0.0),
    "-": (-1.0, 0.0, 0.0),
    "+i": (0.0, 1.0, 0.0),
    "-i": (0.0, -1.0, 0.0),
}


def test_teleport_stabilizer_stays_on_the_tableau(monkeypatch):
    def dense_detour(*args, **kwargs):
        raise AssertionError("teleport_stabilizer left the tableau")

    for module, name in (
        (st, "to_statevector"), (sv, "reduced_density"), (sv, "fidelity"),
        (pr, "stabilizer_input_state"),
    ):
        monkeypatch.setattr(module, name, dense_detour)
    for name, (bx, by, bz) in IDEAL_BLOCH.items():
        for seed in range(5):
            metrics = pr.teleport_stabilizer(name, np.random.default_rng(seed)).metrics
            assert list(metrics.items()) == [
                ("fidelity", 1.0), ("output_x", bx), ("output_y", by), ("output_z", bz)
            ], name


def test_teleport_stabilizer_rejects_nonclifford_input():
    with pytest.raises(NonCliffordGate):
        pr.teleport_stabilizer("T|+>", np.random.default_rng(0))


def test_teleport_engines_agree_on_stabilizer_inputs():
    for name in pr.STABILIZER_INPUTS:
        dense_report, rho = pr.teleport_statevector(
            pr.stabilizer_input_state(name), np.random.default_rng(3)
        )
        tab_report = pr.teleport_stabilizer(name, np.random.default_rng(3))
        assert abs(dense_report.metrics["fidelity"] - 1.0) < 1e-10
        assert abs(tab_report.metrics["fidelity"] - 1.0) < 1e-10
        for pauli, key in ((X, "output_x"), (Y, "output_y"), (Z, "output_z")):
            dense_component = float(np.trace(rho @ pauli).real)
            assert abs(dense_component - tab_report.metrics[key]) < 1e-10


def test_superdense_decodes_every_bit_pair():
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        report = pr.superdense_code(bits, ExplodingRng())
        assert report.classical_bits == list(bits)
        assert report.metrics["success"] == 1.0
        assert report.metrics["deterministic"] == 1.0
        assert report.classically_simulable is True


def test_superdense_rejects_non_bits():
    with pytest.raises(InputError):
        pr.superdense_code((2, 0), np.random.default_rng(0))
    with pytest.raises(InputError):
        pr.superdense_code((0, -1), np.random.default_rng(0))


def test_bb84_clean_channel_has_zero_qber():
    report = pr.bb84_simulate(10000, False, np.random.default_rng(0))
    assert report.metrics["qber"] == 0.0
    assert report.metrics["error_count"] == 0.0
    assert report.metrics["rounds"] == 10000.0
    assert 0.45 <= report.metrics["sift_rate"] <= 0.55
    assert len(report.classical_bits) == int(report.metrics["sifted_count"])


def test_bb84_intercept_resend_raises_qber():
    report = pr.bb84_simulate(10000, True, np.random.default_rng(1))
    assert 0.22 <= report.metrics["qber"] <= 0.28
    assert 0.45 <= report.metrics["sift_rate"] <= 0.55


def test_bb84_is_seed_reproducible():
    a = pr.bb84_simulate(500, True, np.random.default_rng(77))
    b = pr.bb84_simulate(500, True, np.random.default_rng(77))
    assert a.classical_bits == b.classical_bits
    assert a.metrics == b.metrics
    c = pr.bb84_simulate(500, True, np.random.default_rng(78))
    assert c.classical_bits != a.classical_bits


def test_bb84_single_round():
    for seed in range(20):
        report = pr.bb84_simulate(1, False, np.random.default_rng(seed))
        assert report.metrics["sift_rate"] in (0.0, 1.0)
        assert report.metrics["qber"] == 0.0


def test_bb84_rejects_nonpositive_rounds():
    with pytest.raises(ConfigError):
        pr.bb84_simulate(0, False, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        pr.bb84_simulate(-5, True, np.random.default_rng(0))


def test_bb84_rejects_rounds_above_the_cap():
    largest = pr.bb84_simulate(pr._BB84_MAX_ROUNDS, False, np.random.default_rng(0))
    assert largest.metrics["rounds"] == float(pr._BB84_MAX_ROUNDS)
    for rounds in (pr._BB84_MAX_ROUNDS + 1, 10**10):
        with pytest.raises(ConfigError):
            pr.bb84_simulate(rounds, True, ExplodingRng())


def assert_sampler_rule(probability, bit, sent_basis, basis):
    """The sampler's outcome over both coins has P(1) = ``probability``: it reads
    the coin exactly when the outcome is random."""
    outcomes = [pr._bb84_measure(bit, sent_basis, basis, coin) for coin in (0, 1)]
    assert sum(outcomes) / 2 == probability


def bb84_round(text, forced=None):
    return dsl._execute(dsl.parse("qubits 1\n" + text), st.init_zero(1), None, forced)[2]


@pytest.mark.parametrize("bit,basis,eve_basis,bob_basis", itertools.product((0, 1), repeat=4))
def test_bb84_sampler_matches_tableau(bit, basis, eve_basis, bob_basis):
    prep = ("x 0\n" if bit else "") + ("h 0\n" if basis else "")
    eve = "h 0\n" if eve_basis else ""
    bob = "h 0\n" if bob_basis else ""
    # No attacker: the receiver measures the sender's qubit.
    assert_sampler_rule(st.outcome_probability(bb84_round(prep + bob), 0), bit, basis, bob_basis)
    # Attacker: measures in her basis, then resends her outcome in that basis.
    p_eve = st.outcome_probability(bb84_round(prep + eve), 0)
    assert_sampler_rule(p_eve, bit, basis, eve_basis)
    for seen in {0, 1} if p_eve == 0.5 else {int(p_eve)}:
        t = bb84_round(prep + eve + "measure 0\n" + eve + bob, forced=[seen])
        assert_sampler_rule(st.outcome_probability(t, 0), seen, eve_basis, bob_basis)


class ScriptedCoins:
    """``random.Random`` stand-in that records its seed and answers each
    ``getrandbits`` with the next prepared coin array, round i as bit i."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)
        self.seeds, self.sizes = [], []

    def __call__(self, seed):
        self.seeds.append(seed)
        return self

    def getrandbits(self, k):
        self.sizes.append(k)
        return sum(coin << i for i, coin in enumerate(self.arrays.pop(0)))


class Quarter:
    """A generator whose one draw is 0.25."""

    def random(self):
        return 0.25


def test_bb84_draw_order(monkeypatch):
    coins = ScriptedCoins(
        [0, 1, 1, 0],  # sender bits
        [0, 0, 1, 1],  # sender bases
        [0, 1, 1, 0],  # attacker bases
        [1, 1, 0, 0],  # attacker coins, read in rounds 1 and 3 only
        [0, 1, 1, 1],  # receiver bases
        [1, 0, 0, 1],  # receiver coins, read in round 3 only (attacker basis 0, receiver 1)
    )
    monkeypatch.setattr(random, "Random", coins)
    report = pr.bb84_simulate(4, True, Quarter())
    assert coins.seeds == [2**51] and coins.sizes == [4] * 6
    assert report.classical_bits == [0, 1, 1]  # rounds 0, 2 and 3 are sifted
    assert report.metrics["error_count"] == 1.0  # round 3: sent 0, received 1
    assert report.engine == "sampler"


def replay_bb84(x, num_rounds, eve):
    """The sifted key and error count of ``bb84_simulate`` whose one draw is ``x``,
    replayed one round at a time from the documented coin arrays."""
    stream = random.Random(int(x * 2**53))
    arrays = [stream.getrandbits(num_rounds) for _ in range(6 if eve else 4)]
    key, errors = [], 0
    for i in range(num_rounds):
        coins = iter([array >> i & 1 for array in arrays])
        bit, basis = next(coins), next(coins)
        sent, sent_basis = bit, basis
        if eve:
            sent_basis, coin = next(coins), next(coins)
            sent = bit if sent_basis == basis else coin
        bob_basis, coin = next(coins), next(coins)
        received = sent if bob_basis == sent_basis else coin
        if bob_basis == basis:
            key.append(received)
            errors += received != bit
    return key, errors


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("num_rounds", [1, 7, 64, 65, 300])
def test_bb84_bit_slicing_matches_a_round_by_round_replay(num_rounds, eve, seed):
    report = pr.bb84_simulate(num_rounds, eve, np.random.default_rng(seed))
    key, errors = replay_bb84(np.random.default_rng(seed).random(), num_rounds, eve)
    assert report.classical_bits == key
    assert report.metrics["error_count"] == errors
    assert report.metrics["sifted_count"] == len(key)


def test_report_key_value_lines():
    report = pr.ProtocolReport(
        protocol="teleport",
        engine="stabilizer",
        classical_bits=[0, 1],
        metrics={"fidelity": 1.0},
    )
    assert report.to_key_value_lines() == [
        "protocol=teleport",
        "engine=stabilizer",
        "simulable=true",
        "classical_bits=01",
        "fidelity=1.0000000000",
    ]
    empty = pr.ProtocolReport("teleport", "statevector")
    lines = empty.to_key_value_lines()
    assert lines[2] == "simulable=false"
    assert lines[3] == "classical_bits="


def test_simulable_flag_tracks_engine():
    dense, _ = pr.teleport_statevector(random_qubit(0), np.random.default_rng(0))
    assert dense.classically_simulable is False
    assert pr.teleport_stabilizer("0", np.random.default_rng(0)).classically_simulable
    assert pr.superdense_code((1, 1), np.random.default_rng(0)).classically_simulable
    assert pr.bb84_simulate(5, False, np.random.default_rng(0)).classically_simulable
    assert pr.bb84_simulate(5, False, np.random.default_rng(0)).engine == "sampler"
