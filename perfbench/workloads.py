"""The four workloads: seeded input generators, the timed op, output checks.

Each workload generates op ``i``'s input from ``(seed, i)`` alone, so a
seed fixes the whole input sequence.  ``execute`` is the timed op; it
hands bellsim only generated inputs (circuit text, amplitudes, targets,
argv) and calls every function through its module attribute, so the span
recorder sees it.  ``check`` runs outside the timed window and returns the
names of the checks the output failed; when given an ``obs`` dict it also
records what the checks saw, for the traced run's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import hostspeed
import oracles
from cli_shim import CAL_MARKER, SPANS_MARKER

CLI_TIMEOUT_S = 60.0
# fit_lhv's witness may miss its targets by this much: the tolerance the
# repository's own tests allow it on random targets
# (tests/test_lhv.py::test_fit_agrees_with_facet_test).
WITNESS_TOL = 1e-7


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _angle_token(rng, k_quarter: int) -> str:
    """k quarter turns as a pi-token or as the float literal, at random."""
    if rng.random() < 0.5:
        return f"{k_quarter}pi/2"
    return repr(k_quarter * math.pi / 2.0)


def _set_max(obs, key, value):
    obs[key] = max(obs.get(key, value), value)


def _set_min(obs, key, value):
    obs[key] = min(obs.get(key, value), value)


def _add_pair(obs, key, num, den):
    a, b = obs.get(key, (0, 0))
    obs[key] = (a + num, b + den)


def _add(obs, key, n=1):
    obs[key] = obs.get(key, 0) + n


class Workload:
    """Shared shape.

    ``session`` ops form one unit the run never cuts.  ``window`` is the
    prefix of traced ops behind the computed per-layer counts.  ``checked``
    is the prefix of untraced ops behind ``fail_ratio``: an untraced run
    does at least that many, so the ratio's sample size does not depend on
    speed.  It is set below a run's op count at ``run_seconds`` on a 2-vCPU
    x86 host.
    """

    session = 1
    window = 1
    checked = 1

    def __init__(self, seed: int, bellsim, tmpdir: str, env: dict):
        self.seed = seed
        self.b = bellsim
        self.tmpdir = tmpdir
        self.env = env
        # Shortfalls of the program that its own documentation allows,
        # counted by ``check`` instead of failed; see BellSmallN.
        self.known: dict[str, int] = {}

    def cpu_s(self) -> float:
        """CPU seconds of the process that runs the ops."""
        return time.process_time()

    def calibrate(self):
        """Host-speed calibration right before an op (``hostspeed.py``)."""
        return hostspeed.calibration_s()

    def scaled(self, seconds: float, before, out) -> tuple[float, float]:
        """The op's time and the factor scaling it to reference host speed,
        from the calibrations right before and right after it."""
        return seconds, hostspeed.factor(before, hostspeed.calibration_s())


# -- circuits ----------------------------------------------------------------

@dataclass
class CircuitInput:
    text: str
    run_seed: int
    witnesses: tuple[tuple[int, int], ...]
    measures: int


class _CircuitWorkload(Workload):
    """parse -> classify -> run(auto), checked by round trip and classification."""

    engine = ""

    def execute(self, inp: CircuitInput, rec=None):
        dsl = self.b.dsl
        circuit = dsl.parse(inp.text)
        report = dsl.classify(circuit)
        record = dsl.run(circuit, "auto", seed=inp.run_seed)
        return circuit, report, record

    def check(self, inp, out, rec=None, obs=None) -> list[str]:
        dsl = self.b.dsl
        circuit, report, record = out
        failed = []
        with rec.root("bench.roundtrip", rec.op_id, True) if rec else contextlib.nullcontext():
            same = dsl.parse(dsl.format_circuit(circuit)) == circuit
        if not same:
            failed.append("parse(format_circuit(c)) == c")
        if report.witnesses != inp.witnesses:
            failed.append("classify witnesses")
        if record.engine != self.engine:
            failed.append("auto engine choice")
        if len(record.outcomes) != inp.measures or set(record.outcomes) - {0, 1}:
            failed.append("outcome count")
        return failed + self.check_engine(circuit, inp, record)


class Clifford64(_CircuitWorkload):
    """Random 64-qubit Clifford circuits, measured in full.

    Twelve layers of a random one-qubit Clifford (rotations at quarter
    turns included) on every qubit and CNOT/CZ on a random pairing scramble
    the state, so most of the final 64 measurements are random and each
    one multiplies dozens of tableau rows.  One circuit in three also
    measures a few qubits mid-circuit.
    """

    engine = "stabilizer"
    window = 4
    checked = 48
    qubits = 64
    layers = 12

    def generate(self, i: int) -> CircuitInput:
        rng = op_rng(self.seed, i)
        n = self.qubits
        lines = [f"# clifford64 op {i}", f"qubits {n}"]
        mid = rng.random() < 1 / 3
        measures = 0
        singles = ("h", "s", "sdg", "x", "y", "z", "rx", "ry", "rz")
        for layer in range(self.layers):
            for q in range(n):
                op = singles[int(rng.integers(len(singles)))]
                if op.startswith("r"):
                    lines.append(f"{op} {q} {_angle_token(rng, int(rng.integers(-4, 5)))}")
                else:
                    lines.append(f"{op} {q}")
            perm = rng.permutation(n)
            for k in range(0, n, 2):
                gate = "cnot" if rng.random() < 0.5 else "cz"
                lines.append(f"{gate} {perm[k]} {perm[k + 1]}")
            if mid and layer % 4 == 3:
                lines.append(f"measure {int(rng.integers(n))}")
                measures += 1
        lines.extend(f"measure {q}" for q in range(n))
        measures += n
        return CircuitInput("\n".join(lines) + "\n", int(rng.integers(2**31)), (), measures)

    def check_engine(self, circuit, inp, record) -> list[str]:
        st = self.b.stabilizer
        outcomes, tableau, failed = oracles.replay_clifford(st, circuit, inp.run_seed)
        failed = sorted(set(failed))
        if outcomes != record.outcomes:
            failed.append("replay outcomes")
        if st.stabilizer_strings(tableau) != record.final_stabilizers:
            failed.append("replay stabilizers")
        try:
            st.validate(tableau)
        except self.b.BellSimError:
            failed.append("validate")
        return failed


class Dense12(_CircuitWorkload):
    """Random 12-qubit non-Clifford circuits on the statevector engine.

    Generic-angle rotations, t/tdg, cnot/cz and a few mid-circuit
    measurements; every non-Clifford instruction is a classifier witness
    the generator knows in advance.
    """

    engine = "statevector"
    window = 16
    checked = 400
    qubits = 12
    gates = 150

    def generate(self, i: int) -> CircuitInput:
        rng = op_rng(self.seed, i)
        n = self.qubits
        lines = [f"qubits {n}"]
        witnesses = []
        measures = 0
        for _ in range(self.gates):
            indent = " " * int(rng.integers(0, 3))
            r = rng.random()
            witness = True
            if r < 0.35:
                angle = float(rng.uniform(-math.pi, math.pi))
                quarter = angle / (math.pi / 2)
                if abs(quarter - round(quarter)) < 1e-6:
                    angle += 0.1
                op = ("rx", "ry", "rz")[int(rng.integers(3))]
                text = f"{op} {int(rng.integers(n))} {angle!r}"
            elif r < 0.55:
                text = f"{('t', 'tdg')[int(rng.integers(2))]} {int(rng.integers(n))}"
            elif r < 0.65:
                text = f"{('h', 's', 'x')[int(rng.integers(3))]} {int(rng.integers(n))}"
                witness = False
            elif r < 0.98:
                a, b = (int(v) for v in rng.choice(n, 2, replace=False))
                text = f"{('cnot', 'cz')[int(rng.integers(2))]} {a} {b}"
                witness = False
            else:
                text = f"measure {int(rng.integers(n))}"
                measures += 1
                witness = False
            lines.append(indent + text)
            if witness:
                witnesses.append((len(lines), len(indent) + 1))
        return CircuitInput("\n".join(lines) + "\n", int(rng.integers(2**31)), tuple(witnesses), measures)

    def check_engine(self, circuit, inp, record) -> list[str]:
        if record.final_statevector is None:
            return ["final state"]
        amps = record.final_statevector.amplitudes
        failed = []
        if abs(float(np.linalg.norm(amps)) - 1.0) > 1e-9:
            failed.append("unit norm")
        expected = oracles.dense_replay(circuit, record.outcomes)
        if expected is None or np.abs(expected - amps).max() > 1e-9:
            failed.append("forced-outcome replay")
        return failed


# -- Bell-test session ---------------------------------------------------------

@dataclass
class BellInput:
    amplitudes: np.ndarray
    fixed: tuple[float, float]
    settings: tuple[float, float, float, float]
    targets: list[tuple[float, float, float, float]]
    sample_pairs: list[tuple[int, int]]
    teleport_amplitudes: np.ndarray
    teleport_name: str
    bb84_rounds: int
    eavesdrop: bool
    protocol_seed: int


def _boundary_target(rng, norm: float) -> tuple[float, float, float, float]:
    """Correlations with cross-polytope norm ``norm`` and every |E| <= 1."""
    while True:
        c = rng.normal(size=4)
        c *= norm / np.abs(c).sum()
        e = oracles.HADAMARD @ c
        if np.abs(e).max() <= 1.0:
            return tuple(float(v) for v in e)


class BellSmallN(Workload):
    """One Bell-test session per op on a Haar-random two-qubit state."""

    window = 8
    checked = 150
    bb84_rounds = 64
    sample_draws = 32

    def generate(self, i: int) -> BellInput:
        rng = op_rng(self.seed, i)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        tele = rng.normal(size=2) + 1j * rng.normal(size=2)
        tele /= np.linalg.norm(tele)
        angles = rng.uniform(-math.pi, math.pi, size=6)
        targets = [
            _boundary_target(rng, float(rng.uniform(0.2, 0.9))),
            _boundary_target(rng, 1.0 - 1e-6),
            _boundary_target(rng, 1.0 + 1e-6),
        ]
        return BellInput(
            amplitudes=amps,
            fixed=(float(angles[0]), float(angles[1])),
            settings=tuple(float(a) for a in angles[2:]),
            targets=targets,
            sample_pairs=[(int(a), int(b)) for a, b in rng.integers(1, 3, size=(self.sample_draws, 2))],
            teleport_amplitudes=tele,
            teleport_name=list(oracles.BLOCH)[int(rng.integers(len(oracles.BLOCH)))],
            bb84_rounds=self.bb84_rounds,
            eavesdrop=bool(i % 2),
            protocol_seed=int(rng.integers(2**31)),
        )

    def execute(self, inp: BellInput, rec=None):
        chsh, lhv, protocols, sv = self.b.chsh, self.b.lhv, self.b.protocols, self.b.statevector
        state = sv.StateVector(2, inp.amplitudes)
        free = chsh.maximize_s(state)
        fixed = chsh.maximize_s(state, fixed=inp.fixed)
        at_opt = chsh.s_factor(state, free[0])
        random_settings = chsh.s_factor(state, chsh.MeasurementSettings(*inp.settings))
        targets = [random_settings.correlations] + inp.targets
        fits = [lhv.fit_lhv(t) for t in targets]
        rng = np.random.default_rng(inp.protocol_seed)
        model = next((m for m in fits if m is not None), None)
        draw_state = rng.bit_generator.state
        samples = [lhv.sample_lhv(model, pair, rng) for pair in inp.sample_pairs] if model else []
        tele_sv = protocols.teleport_statevector(sv.StateVector(1, inp.teleport_amplitudes), rng)
        tele_st = protocols.teleport_stabilizer(inp.teleport_name, rng)
        dense = [protocols.superdense_code(bits, rng) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
        bb84 = protocols.bb84_simulate(inp.bb84_rounds, inp.eavesdrop, rng)
        return dict(
            free=free, fixed=fixed, at_opt=at_opt, targets=targets, fits=fits, model=model,
            draw_state=draw_state, samples=samples, tele_sv=tele_sv, tele_st=tele_st,
            dense=dense, bb84=bb84,
        )

    def check(self, inp: BellInput, out, rec=None, obs=None) -> list[str]:
        obs = {} if obs is None else obs
        failed = []
        block = oracles.xy_block(inp.amplitudes)

        settings, s_free = out["free"]
        best = oracles.smax_free(block)
        _set_max(obs, "smax_abs_err", abs(best - s_free))
        grid = oracles.grid_max_s(block)
        if not self._check_maximum(block, settings.as_tuple(), s_free, best, grid, 1e-8, (0, 1, 2, 3)):
            failed.append("maximize_s free: a refined maximum, at most 2 sqrt(m1^2 + m2^2)")
        fixed_settings, s_fixed = out["fixed"]
        a1, c1 = (math.remainder(v, math.tau) for v in inp.fixed)
        best = oracles.smax_fixed(block, a1, c1)
        _set_max(obs, "smax_abs_err", abs(best - s_fixed))
        grid = oracles.grid_max_s(block, (a1, c1))
        if (
            abs(fixed_settings.alpha1 - a1) > 1e-12
            or abs(fixed_settings.chi1 - c1) > 1e-12
            or not self._check_maximum(block, fixed_settings.as_tuple(), s_fixed, best, grid, 1e-7, (1, 3))
        ):
            failed.append("maximize_s fixed pair: a refined maximum, at most the 1-D optimum")
        if abs(out["at_opt"].s_value - s_free) > 1e-9:
            failed.append("s_factor at optimum")

        for target, model in zip(out["targets"], out["fits"]):
            norm = oracles.cross_polytope_norm(target)
            _add(obs, "fit_checked")
            agree = (model is None) == (norm > 1.0) or abs(norm - 1.0) <= 1e-9
            if agree:
                _add(obs, "facet_agree")
            else:
                failed.append("fit_lhv None iff cross-polytope norm > 1")
            if model is not None:
                _add(obs, "fit_feasible")
                residual = oracles.witness_residual(model.weights, target)
                _set_max(obs, "witness_residual_max", residual)
                if residual > WITNESS_TOL:
                    failed.append("fit_lhv witness reproduces targets")

        if out["model"] is not None:
            replay = np.random.default_rng(0)
            replay.bit_generator.state = out["draw_state"]
            expected = [oracles.lhv_sample(out["model"].weights, replay.random(), p) for p in inp.sample_pairs]
            if expected != out["samples"]:
                failed.append("sample_lhv replay")

        report, rho = out["tele_sv"]
        psi = inp.teleport_amplitudes
        fid = report.metrics["fidelity"]
        if abs(fid - 1.0) > 1e-9 or np.abs(rho - np.outer(psi, psi.conj())).max() > 1e-9:
            failed.append("teleport statevector fidelity")
        rep = out["tele_st"]
        bloch = tuple(rep.metrics[k] for k in ("output_x", "output_y", "output_z"))
        if abs(rep.metrics["fidelity"] - 1.0) > 1e-9 or bloch != oracles.BLOCH[inp.teleport_name]:
            failed.append("teleport stabilizer output")
        _set_min(obs, "teleport_fidelity_min", min(fid, rep.metrics["fidelity"]))

        for bits, rep in zip(((0, 0), (0, 1), (1, 0), (1, 1)), out["dense"]):
            if tuple(rep.classical_bits) != bits or rep.metrics["success"] != 1.0:
                failed.append("superdense decodes the bits")

        m = out["bb84"].metrics
        errors, sifted = int(m["error_count"]), int(m["sifted_count"])
        if len(out["bb84"].classical_bits) != sifted or m["rounds"] != inp.bb84_rounds:
            failed.append("bb84 report")
        if inp.eavesdrop:
            _add_pair(obs, "qber_eve", errors, sifted)
            if not oracles.qber_in_band(errors, sifted):
                failed.append("bb84 eavesdropped qber in band")
        else:
            _add_pair(obs, "qber_clean", errors, sifted)
            if errors:
                failed.append("bb84 clean qber = 0")
        return failed

    def _check_maximum(self, block, angles, s, best, grid, tol, free) -> bool:
        """What maximize_s documents, checked against closed forms.

        Its docstring promises a search, not the global maximum: the best
        point of a 101-point grid per free angle, refined by line searches
        bounded to [-pi, pi], one angle at a time.  So ``s`` must be S at
        ``angles``, no more than the true maximum ``best``, no less than
        the best grid point ``grid``, and refined: no step of one free
        angle that stays inside the bounds may raise S by more than 1e-6.
        A result that meets all this but falls more than ``tol`` short of
        ``best`` (a refinement that stopped on the bound while the optimum
        lies just across it, or in a lower basin than the optimum's) is
        counted in ``self.known``, not failed.
        """
        if abs(oracles.chsh_s(block, *angles) - s) > 1e-9 or not grid - 1e-9 <= s <= best + 1e-9:
            return False
        for k in free:
            for step in (1e-4, 1e-2, math.tau / 100):
                for moved in (angles[k] - step, angles[k] + step):
                    trial = list(angles)
                    trial[k] = min(math.pi, max(-math.pi, moved))
                    if oracles.chsh_s(block, *trial) > s + 1e-6:
                        return False
        if best - s > tol:
            _add(self.known, "maximize_s short of the maximum: a local maximum of its bounded search")
        return True


# -- CLI session ----------------------------------------------------------------

@dataclass
class CliInput:
    kind: str
    argv: list[str]
    stdin: str
    exit_code: int
    expect: object


def _fmt(v: float) -> str:
    return repr(float(v))


def _complex_token(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}j"


def _key_values(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


class CliSession(Workload):
    """Every subcommand in a fresh CLI process, run through ``cli_shim.py``.

    One session is the twelve ops below, run in order; a run always ends
    on a session boundary so each run samples the same mix.
    """

    KINDS = (
        "chsh-eval", "chsh-scan", "lhv-bound", "lhv-fit", "lhv-fit-infeasible",
        "teleport-statevector", "teleport-stabilizer", "superdense", "bb84",
        "classify-clifford", "classify-nonclifford", "run",
    )
    session = len(KINDS)
    window = len(KINDS)
    checked = 2 * len(KINDS)
    scan_resolution = 21
    bb84_rounds = 200

    def __init__(self, seed, bellsim, tmpdir, env):
        super().__init__(seed, bellsim, tmpdir, env)
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")

    def generate(self, i: int) -> CliInput:
        session, k = divmod(i, self.session)
        kind = self.KINDS[k]
        rng = op_rng(self.seed, i)
        angles = [float(a) for a in rng.uniform(-math.pi, math.pi, size=4)]
        if kind == "chsh-eval":
            a1, c1, a2, c2 = angles
            argv = ["chsh-eval", "--alpha1", _fmt(a1), "--chi1", _fmt(c1), "--alpha2", _fmt(a2), "--chi2", _fmt(c2)]
            e = [math.cos(a + c) for a, c in ((a1, c1), (a1, c2), (a2, c1), (a2, c2))]
            return CliInput(kind, argv, "", 0, e + [e[0] - e[1] + e[2] + e[3]])
        if kind == "chsh-scan":
            a1, c1 = angles[:2]
            path = os.path.join(self.tmpdir, f"scan-{i}.csv")
            argv = ["chsh-scan", "--alpha1", _fmt(a1), "--chi1", _fmt(c1),
                    "--resolution", str(self.scan_resolution), "--out", path]
            return CliInput(kind, argv, "", 0, (a1, c1, path))
        if kind == "lhv-bound":
            return CliInput(kind, ["lhv-bound"], "", 0, "2.0\n")
        if kind in ("lhv-fit", "lhv-fit-infeasible"):
            norm = float(rng.uniform(0.1, 0.9)) if kind == "lhv-fit" else float(rng.uniform(1.1, 1.4))
            target = _boundary_target(rng, norm)
            argv = ["lhv-fit"]
            for name, v in zip(("--e11", "--e12", "--e21", "--e22"), target):
                argv += [name, _fmt(v)]
            return CliInput(kind, argv, "", 0, target)
        if kind == "teleport-statevector":
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            # "--input=" keeps a leading minus sign (as in -i) from reading as an option.
            argv = ["teleport", "--input=" + ",".join(_complex_token(a) for a in amps),
                    "--seed", str(int(rng.integers(1000)))]
            return CliInput(kind, argv, "", 0, None)
        if kind == "teleport-stabilizer":
            name = list(oracles.BLOCH)[int(rng.integers(len(oracles.BLOCH)))]
            argv = ["teleport", "--input=" + name, "--engine", "stabilizer", "--seed", str(int(rng.integers(1000)))]
            return CliInput(kind, argv, "", 0, name)
        if kind == "superdense":
            bits = (int(rng.integers(2)), int(rng.integers(2)))
            return CliInput(kind, ["superdense", "--bits", f"{bits[0]}{bits[1]}"], "", 0, bits)
        if kind == "bb84":
            eve = bool(session % 2)
            argv = ["bb84", "--rounds", str(self.bb84_rounds), "--seed", str(int(rng.integers(1000)))]
            return CliInput(kind, argv + (["--eavesdrop"] if eve else []), "", 0, eve)
        if kind == "classify-clifford":
            lines = ["qubits 4"]
            for _ in range(12):
                q = int(rng.integers(4))
                op = ("h", "s", "sdg", "cnot", "rz", "rx")[int(rng.integers(6))]
                if op == "cnot":
                    lines.append(f"cnot {q} {(q + 1) % 4}")
                elif op.startswith("r"):
                    lines.append(f"{op} {q} {_angle_token(rng, int(rng.integers(-4, 5)))}")
                else:
                    lines.append(f"{op} {q}")
            return CliInput(kind, ["classify", "-"], "\n".join(lines) + "\n", 0, "StabilizerSimulable\n")
        if kind == "classify-nonclifford":
            lines = ["qubits 3", "h 0", f"rz 1 {_fmt(float(rng.uniform(0.1, 1.4)))}", "cnot 0 1", "t 2", "measure 0"]
            expect = "RequiresStatevector\nwitness=line 3 column 1\nwitness=line 5 column 1\n"
            return CliInput(kind, ["classify", "-"], "\n".join(lines) + "\n", 3, expect)
        # run: a reversible classical circuit on basis states, so the outcomes
        # follow from XOR arithmetic alone; phase gates leave them unchanged.
        n = 5
        bits = [0] * n
        lines = [f"qubits {n}"]
        for _ in range(16):
            r = rng.random()
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            if r < 0.3:
                lines.append(f"x {a}")
                bits[a] ^= 1
            elif r < 0.45:
                lines.append(f"{('rx', 'ry')[int(rng.integers(2))]} {a} pi")
                bits[a] ^= 1
            elif r < 0.8:
                lines.append(f"cnot {a} {b}")
                bits[b] ^= bits[a]
            else:
                op = ("z", "s", "cz")[int(rng.integers(3))]
                lines.append(f"cz {a} {b}" if op == "cz" else f"{op} {a}")
        lines.extend(f"measure {q}" for q in range(n))
        return CliInput(kind, ["run", "-", "--seed", str(int(rng.integers(1000)))], "\n".join(lines) + "\n", 0, bits)

    def execute(self, inp: CliInput, rec=None):
        cmd = [sys.executable, self.shim, *(["--trace"] if rec else []), *inp.argv]
        proc = subprocess.run(
            cmd, input=inp.stdin, capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S
        )
        head, _, cal = proc.stderr.rpartition(CAL_MARKER)
        proc.stderr = head
        proc.host_factor, proc.calibration_s = json.loads(cal)
        if rec is not None:
            head, _, spans = proc.stderr.rpartition(SPANS_MARKER)
            proc.stderr = head
            if spans:
                rec.merge(json.loads(spans), rec.current())
            rec.count("cli.stdout_bytes", len(proc.stdout.encode()))
        return proc

    def cpu_s(self):
        """CPU seconds of the finished CLI processes, exec to exit."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def calibrate(self):
        return None  # the CLI process calibrates itself, in cli_shim.py

    def scaled(self, seconds, before, out):
        """CPU time less the shim's calibrations, and the factor the CLI
        process measured."""
        return seconds - out.calibration_s, out.host_factor

    # Keys, in order, of the subcommands that print key=value lines.
    KEYS = {
        "chsh-eval": ["E11", "E12", "E21", "E22", "S"],
        "lhv-fit": [f"w{s}" for s in range(16)] + ["E11", "E12", "E21", "E22"],
        "teleport-statevector": ["protocol", "engine", "simulable", "classical_bits", "fidelity"],
        "teleport-stabilizer": ["protocol", "engine", "simulable", "classical_bits", "fidelity",
                                "output_x", "output_y", "output_z"],
        "superdense": ["protocol", "engine", "simulable", "classical_bits", "success", "deterministic"],
        "bb84": ["protocol", "engine", "simulable", "classical_bits", "rounds", "sifted_count",
                 "sift_rate", "error_count", "qber"],
    }

    def check(self, inp: CliInput, proc, rec=None, obs=None) -> list[str]:
        obs = {} if obs is None else obs
        if proc.returncode != inp.exit_code:
            return [f"{inp.kind} exit code"]
        out = proc.stdout
        kv = _key_values(out)
        keys = self.KEYS.get(inp.kind)
        if keys is not None and [line.split("=", 1)[0] for line in out.splitlines()] != keys:
            return [f"{inp.kind} stdout"]
        try:
            ok = getattr(self, "_check_" + inp.kind.replace("-", "_"))(inp, out, kv, obs)
        except (KeyError, ValueError, IndexError, OSError):
            ok = False
        return [] if ok else [f"{inp.kind} stdout"]

    def _check_chsh_eval(self, inp, out, kv, obs):
        got = [float(kv[k]) for k in ("E11", "E12", "E21", "E22", "S")]
        return max(abs(g - e) for g, e in zip(got, inp.expect)) <= 1e-9

    def _check_chsh_scan(self, inp, out, kv, obs):
        a1, c1, path = inp.expect
        try:
            with open(path, encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        finally:
            if os.path.exists(path):
                os.remove(path)
        axis = np.linspace(-math.pi, math.pi, self.scan_resolution)
        expected = [
            math.cos(a1 + c1) - math.cos(a1 + c2) + math.cos(a2 + c1) + math.cos(a2 + c2)
            for a2 in axis for c2 in axis
        ]
        if out or rows[0] != ["alpha2", "chi2", "S"] or len(rows) != 1 + len(expected):
            return False
        return max(abs(float(r[2]) - e) for r, e in zip(rows[1:], expected)) <= 1e-8

    def _check_lhv_bound(self, inp, out, kv, obs):
        return out == inp.expect

    def _check_lhv_fit(self, inp, out, kv, obs):
        weights = [float(kv[f"w{s}"]) for s in range(16)]
        e = [float(kv[k]) for k in ("E11", "E12", "E21", "E22")]
        residual = oracles.witness_residual(weights, inp.expect)
        _set_max(obs, "witness_residual_max", residual)
        _add(obs, "fit_checked")
        _add(obs, "fit_feasible")
        _add(obs, "facet_agree")
        return (
            min(weights) >= 0.0
            and abs(sum(weights) - 1.0) <= 1e-8
            and residual <= WITNESS_TOL
            and max(abs(a - b) for a, b in zip(e, inp.expect)) <= WITNESS_TOL
        )

    def _check_lhv_fit_infeasible(self, inp, out, kv, obs):
        _add(obs, "fit_checked")
        ok = out == "INFEASIBLE\n"
        _add(obs, "facet_agree", int(ok))
        return ok

    def _check_teleport_statevector(self, inp, out, kv, obs):
        fid = float(kv["fidelity"])
        _set_min(obs, "teleport_fidelity_min", fid)
        return kv["engine"] == "statevector" and abs(fid - 1.0) <= 1e-9 and len(kv["classical_bits"]) == 2

    def _check_teleport_stabilizer(self, inp, out, kv, obs):
        fid = float(kv["fidelity"])
        _set_min(obs, "teleport_fidelity_min", fid)
        bloch = tuple(float(kv[k]) for k in ("output_x", "output_y", "output_z"))
        return kv["engine"] == "stabilizer" and abs(fid - 1.0) <= 1e-9 and bloch == oracles.BLOCH[inp.expect]

    def _check_superdense(self, inp, out, kv, obs):
        return kv["classical_bits"] == "".join(map(str, inp.expect)) and float(kv["success"]) == 1.0

    def _check_bb84(self, inp, out, kv, obs):
        errors, sifted = int(float(kv["error_count"])), int(float(kv["sifted_count"]))
        if int(float(kv["rounds"])) != self.bb84_rounds or len(kv["classical_bits"]) != sifted:
            return False
        if inp.expect:
            _add_pair(obs, "qber_eve", errors, sifted)
            return oracles.qber_in_band(errors, sifted)
        _add_pair(obs, "qber_clean", errors, sifted)
        return errors == 0 and float(kv["qber"]) == 0.0

    def _check_classify_clifford(self, inp, out, kv, obs):
        return out == inp.expect

    _check_classify_nonclifford = _check_classify_clifford

    def _check_run(self, inp, out, kv, obs):
        lines = out.splitlines()
        if lines[0] != "engine=stabilizer" or lines[1] != "outcomes=" + "".join(map(str, inp.expect)):
            return False
        stabilizers = [line.split("=", 1)[1] for line in lines[2:]]
        if len(stabilizers) != len(inp.expect):
            return False
        # A basis state is stabilized by Z-strings whose sign is the parity
        # of the measured bits under them.
        for row in stabilizers:
            body = row[1:]
            if set(body) - {"I", "Z"}:
                return False
            parity = sum(b for b, p in zip(inp.expect, body) if p == "Z") % 2
            if (row[0] == "-") != bool(parity):
                return False
        return True


WORKLOAD_CLASSES = {
    "cli-session": CliSession,
    "clifford64": Clifford64,
    "dense12": Dense12,
    "bell-smalln": BellSmallN,
}
