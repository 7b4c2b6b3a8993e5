"""Protocol driver tests: teleportation, superdense coding, BB84."""

import itertools
import math

import numpy as np
import pytest

from bellsim import dsl
from bellsim import protocols as pr
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import ConfigError, InputError, NonCliffordGate

X = sv.FIXED_GATES["X"]
Y = sv.FIXED_GATES["Y"]
Z = sv.FIXED_GATES["Z"]


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


class Coins:
    """Generator stand-in that answers every draw with one fixed coin, counting the draws."""

    def __init__(self, coin):
        self.coin = coin
        self.drawn = 0

    def integers(self, low, high, size, dtype):
        assert (low, high) == (0, 2)
        self.drawn += size
        return np.full(size, self.coin, dtype=dtype)


def assert_sampler_rule(probability, bit, sent_basis, basis):
    """The sampler's outcome over both coins has P(1) = ``probability``, and
    it draws a coin exactly when the outcome is random."""
    outcomes = []
    for coin in (0, 1):
        rng = Coins(coin)
        bits, sent, bases = (np.array([v], np.uint8) for v in (bit, sent_basis, basis))
        outcomes.append(int(pr._bb84_measure(bits, sent, bases, rng)[0]))
        assert rng.drawn == (probability == 0.5)
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


class Scripted:
    """Generator stand-in that returns prepared arrays in order, recording the sizes asked."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        out = np.array(self.arrays.pop(0), dtype=dtype)
        assert out.shape == (size,)
        return out


def test_bb84_draw_order():
    rng = Scripted(
        [0, 1, 1, 0],  # sender bits
        [0, 0, 1, 1],  # sender bases
        [0, 1, 1, 0],  # attacker bases
        [1, 0],  # attacker coins, rounds 1 and 3
        [0, 1, 1, 1],  # receiver bases
        [1],  # receiver coin, round 3 (attacker basis 0, receiver basis 1)
    )
    report = pr.bb84_simulate(4, True, rng)
    assert rng.sizes == [4, 4, 4, 2, 4, 1]
    assert report.classical_bits == [0, 1, 1]  # rounds 0, 2 and 3 are sifted
    assert report.metrics["error_count"] == 1.0  # round 3: sent 0, received 1
    assert report.engine == "sampler"


def test_report_key_value_lines():
    report = pr.ProtocolReport(
        protocol="teleport",
        engine="stabilizer",
        classically_simulable=True,
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
    empty = pr.ProtocolReport("bb84", "stabilizer", False)
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
