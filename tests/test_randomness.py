"""The one randomness contract: a random outcome is one ``rng.random()`` draw.

Both engines, the LHV sampler and the protocol drivers draw one
``random()`` per random outcome and none per determined one.  So any
generator with that method serves, :class:`random.Random` included, and
on a Clifford circuit the two engines read one stream the same way.
BB84 takes exactly one ``random()`` per run and seeds its coins with it.
A seeded run and the CLI's draws read ``bellsim._pcg64``, numpy's
``default_rng(seed)`` stream computed in pure Python, so no tableau run and
no ``bb84`` needs numpy for its draws.  ``PCG64`` holds the one seed rule:
``dsl.run`` builds it right after its engine check, so a bad seed raises its error.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bellsim import _pcg64, cli, dsl, lhv
from bellsim import protocols as pr
from bellsim import stabilizer as st
from bellsim import statevector as sv
from bellsim.errors import ConfigError


class Recording:
    """Generator stand-in that answers ``random`` from a seeded numpy generator and
    records each call's arguments; asking it for anything else fails the test."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, *size):
        self.calls.append(size)
        return self._rng.random(*size)

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was asked for; every draw is random()")


CIRCUITS = (
    "qubits 3\nh 0\nmeasure 0\ncnot 0 1\nmeasure 1\nh 2\nmeasure 2\nmeasure 2\nh 1\nmeasure 1\n",
    "qubits 3\nh 0\ncnot 0 1\ncnot 1 2\nmeasure 2\nmeasure 0\nmeasure 1\n",
    "qubits 2\nry 0 pi/2\ncz 0 1\nh 1\nmeasure 1\nmeasure 0\nx 0\nmeasure 0\nrx 1 -pi/2\nmeasure 1\n",
    "qubits 2\nx 1\nsdg 0\nmeasure 0\nmeasure 1\n",
)


def bell_tableau():
    return st.apply(st.apply(st.init_zero(2), "H", 0), "CNOT", 0, 1)


def test_a_tableau_measurement_draws_once_when_random():
    rng = Recording()
    outcome, deterministic, _ = st.measure_z(st.init_zero(2), 0, rng)
    assert (outcome, deterministic, rng.calls) == (0, True, [])
    _, deterministic, t = st.measure_z(bell_tableau(), 0, rng)
    assert not deterministic and rng.calls == [()]
    _, deterministic, _ = st.measure_z(t, 1, rng)
    assert deterministic and rng.calls == [()]


def test_a_dense_measurement_draws_once_when_random():
    rng = Recording()
    assert sv.measure_qubit(sv.zero_state(1), 0, rng)[:2] == (0, 1.0)
    # P(1) = 1e-13 is below PROJECTION_EPS: determined, and no draw either way.
    for amps, want in (([math.sqrt(1 - 1e-13), math.sqrt(1e-13)], 0),
                       ([math.sqrt(1e-13), math.sqrt(1 - 1e-13)], 1)):
        assert sv.measure_qubit(sv.StateVector(1, amps), 0, rng)[0] == want
    assert rng.calls == []
    _, _, after = sv.measure_qubit(sv.apply(sv.zero_state(1), "RY", 0, angle=0.3), 0, rng)
    assert rng.calls == [()]
    sv.measure_qubit(after, 0, rng)
    assert rng.calls == [()]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("text", CIRCUITS)
def test_both_engines_draw_once_per_random_outcome(text, seed):
    circuit = dsl.parse(text)
    n = circuit.num_qubits
    tableau_rng, dense_rng = Recording(seed), Recording(seed)
    outcomes, deterministic, _ = dsl._execute(circuit, st.init_zero(n), tableau_rng)
    dense_outcomes, probabilities, _ = dsl._execute(circuit, sv.zero_state(n), dense_rng)
    assert dense_outcomes == outcomes
    assert tableau_rng.calls == dense_rng.calls == [()] * deterministic.count(False)
    assert [p > 1 - 1e-12 for p in probabilities] == deterministic


def test_a_non_clifford_dense_run_draws_once_per_random_outcome():
    circuit = dsl.parse("qubits 2\nry 0 0.3\nt 0\nmeasure 0\nmeasure 0\ncnot 0 1\nmeasure 1\n")
    rng = Recording(3)
    dsl._execute(circuit, sv.zero_state(2), rng)
    assert rng.calls == [()]


def test_an_lhv_sample_is_one_draw():
    rng = Recording()
    for model in (lhv.LhvModel([1 / 16] * 16), lhv.LhvModel([1.0] + [0.0] * 15)):
        for pair in ((1, 1), (1, 2), (2, 1)):
            lhv.sample_lhv(model, pair, rng)
    assert rng.calls == [()] * 6


def test_the_protocols_draw_once_per_random_outcome():
    rng = Recording()
    pr.teleport_statevector(sv.StateVector(1, [0.6, 0.8]), rng, force_outcomes=(1, 0))
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        pr.superdense_code(bits, rng)
    assert rng.calls == []
    pr.teleport_statevector(sv.StateVector(1, [0.6, 0.8]), rng)  # both Bell outcomes random
    pr.teleport_stabilizer("+i", rng)
    assert rng.calls == [()] * 4


@pytest.mark.parametrize("rounds", [1, 40, 1000])
@pytest.mark.parametrize("eve", [False, True])
def test_bb84_draws_once(rounds, eve):
    rng = Recording(5)
    report = pr.bb84_simulate(rounds, eve, rng)
    assert rng.calls == [()]
    assert all(b in (0, 1) and type(b) is int for b in report.classical_bits)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("eve", [False, True])
def test_the_cli_bb84_key_is_the_library_key_with_numpys_generator(seed, eve, capsys):
    # --seed s draws _pcg64's stream, which is numpy's default_rng(s), bit for bit
    argv = ["bb84", "--rounds", "300", "--seed", str(seed), *(["--eavesdrop"] if eve else [])]
    assert cli.main(argv) == 0
    report = pr.bb84_simulate(300, eve, np.random.default_rng(seed))
    assert capsys.readouterr().out.splitlines() == report.to_key_value_lines()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("text", CIRCUITS)
def test_random_random_drives_both_engines_alike(text, seed):
    circuit = dsl.parse(text)
    n = circuit.num_qubits
    outcomes, _, _ = dsl._execute(circuit, st.init_zero(n), random.Random(seed))
    assert dsl._execute(circuit, sv.zero_state(n), random.Random(seed))[0] == outcomes


def test_random_random_serves_every_scalar_draw():
    plus = st.apply(st.init_zero(1), "H", 0)
    dense_plus = sv.apply(sv.zero_state(1), "H", 0)
    calls = {
        "measure_z": lambda rng: st.measure_z(plus, 0, rng)[0],
        "measure_qubit": lambda rng: sv.measure_qubit(dense_plus, 0, rng)[0],
        "sample_lhv": lambda rng: lhv.sample_lhv(lhv.LhvModel([1 / 16] * 16), (2, 1), rng),
        "teleport_statevector": lambda rng: pr.teleport_statevector(
            sv.StateVector(1, [0.6, 0.8]), rng)[0].to_key_value_lines(),
        "teleport_stabilizer": lambda rng: pr.teleport_stabilizer("-", rng).to_key_value_lines(),
        "bb84_simulate": lambda rng: pr.bb84_simulate(8, True, rng).to_key_value_lines(),
    }
    for name, call in calls.items():
        results = [repr(call(random.Random(seed))) for seed in range(16)]
        assert [repr(call(random.Random(seed))) for seed in range(16)] == results, name
        assert len(set(results)) > 1, name  # the seed reaches the outcome
    # a random outcome is 1 exactly when its draw is below 0.5
    u = random.Random(4).random()
    assert st.measure_z(plus, 0, random.Random(4))[0] == int(u < 0.5)


NUMPY_SEEDS = hs.tuples(hs.sampled_from([np.int8, np.uint8, np.int64, np.uint64]),
                        hs.integers(0, 127)).map(lambda pair: pair[0](pair[1]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hs.one_of(hs.integers(0, 2**400), NUMPY_SEEDS), hs.integers(1, 64))
def test_the_stdlib_stream_is_numpys_draw_for_draw(seed, k):
    stream = _pcg64.PCG64(seed)
    assert [stream.random() for _ in range(k)] == np.random.default_rng(seed).random(k).tolist()


def test_the_stdlib_stream_pins_seed_zero_and_rejects_negative_seeds():
    assert _pcg64.PCG64(0).random() == 0.6369616873214543
    with pytest.raises(ConfigError, match="non-negative"):
        _pcg64.PCG64(-1)


# Each bad seed and its message, written out: the text dsl.run has always raised.
BAD_SEEDS = {
    -1: "seed must be a non-negative integer, got -1",
    True: "seed must be a non-negative integer, got True",
    False: "seed must be a non-negative integer, got False",
    1.5: "seed must be a non-negative integer, got 1.5",
    "3": "seed must be a non-negative integer, got '3'",
    None: "seed must be a non-negative integer, got None",
}


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_run_and_the_stream_share_one_seed_rule(seed):
    circuit = dsl.parse("qubits 1\nh 0\nmeasure 0\n")
    for build in (lambda: dsl.run(circuit, seed=seed), lambda: _pcg64.PCG64(seed)):
        with pytest.raises(ConfigError) as excinfo:
            build()
        assert (type(excinfo.value), str(excinfo.value)) == (ConfigError, BAD_SEEDS[seed])


def test_a_numpy_integer_seeds_a_run_as_its_value():
    circuit = dsl.parse("qubits 3\nh 0\nh 1\nh 2\nmeasure 0\nmeasure 1\nmeasure 2\n")
    for seed in range(8):
        for engine in ("stabilizer", "statevector"):
            want = dsl.run(circuit, engine, seed).outcomes
            assert dsl.run(circuit, engine, np.int64(seed)).outcomes == want, (seed, engine)
