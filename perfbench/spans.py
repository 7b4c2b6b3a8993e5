"""Span recorder that wraps bellsim's public functions from outside.

:class:`Recorder` replaces each public function of the traced modules
with a wrapper that records a span (name, start, end, parent, op id) and,
through per-function hooks, exact counts such as tableau bytes copied.
Nothing under ``src/`` changes: the wrappers are module attributes, so
calls that go through the module namespace (``st.measure_z`` from
``dsl.run``, ``apply_clifford`` from ``stabilizer.apply``) are traced, and
restoring the attributes removes every trace of the recorder.

Spans live in memory in flat typed arrays.  A span's self time is its
duration minus the wall time of the wrapped calls made inside it,
including their bookkeeping, so tracing cost does not inflate the self
time of the caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

from metrics import PER_LAYER, median

LAYERS = ("dsl", "stabilizer", "statevector", "chsh", "lhv", "protocols")

_DRAW_METHODS = frozenset(
    {"integers", "random", "uniform", "normal", "standard_normal", "choice", "permutation"}
)


class CountingRng:
    """Forwards to a numpy Generator and counts every value drawn."""

    def __init__(self, gen, recorder):
        self._gen = gen
        self._recorder = recorder

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _DRAW_METHODS:
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._recorder.count("rng.draws", int(np.size(out)))
            return out

        return draw


class Recorder:
    """In-memory spans and counts, keyed by op id and by op-or-check phase."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.inner = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.check = array("b")
        self.tag = array("b")
        self.counts: dict[tuple[int, int, str], float] = {}
        self.op_id = -1
        self.in_check = 0
        self._stack: list[int] = []
        self._layers: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.check.append(self.in_check)
        self.tag.append(0)
        self.inner.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def count(self, key: str, n: float) -> None:
        k = (self.op_id, self.in_check, key)
        self.counts[k] = self.counts.get(k, 0) + n

    @contextlib.contextmanager
    def root(self, name: str, op_id: int, check: bool):
        """A benchmark-level span (an op or a check); sets the op id."""
        self.op_id = op_id
        self.in_check = int(check)
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------
    def install(self, modules: dict[str, object]) -> None:
        """Wrap every public function defined in each ``{layer: module}``."""
        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(layer, fname, fn))

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._saved):
            setattr(mod, fname, fn)
        self._saved.clear()

    def _counting(self, arg):
        return CountingRng(arg, self) if isinstance(arg, np.random.Generator) else arg

    def _wrap(self, layer: str, fname: str, fn):
        rec = self
        sid = self.name_id(f"{layer}.{fname}")
        hooks = [h for h in (_LAYER_HOOKS.get(layer), _HOOKS.get(f"{layer}.{fname}")) if h]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            args = tuple(rec._counting(a) for a in args)
            kwargs = {k: rec._counting(v) for k, v in kwargs.items()}
            if rec._layers and rec._layers[-1][0] == layer:
                rec._layers[-1][1] = True
            frame = [layer, False]
            rec._layers.append(frame)
            parent = rec._stack[-1] if rec._stack else -1
            idx = rec.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
                rec._layers.pop()
            for hook in hooks:
                hook(rec, idx, args, result, not frame[1])
            if parent >= 0:
                rec.inner[parent] += time.perf_counter() - t0
            return result

        return wrapper

    # -- child processes ---------------------------------------------------
    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.inner[i], self.parent[i], self.tag[i]]
                for i in range(len(self.name))
            ],
            "counts": {k: v for (_, check, k), v in self.counts.items() if not check},
        }

    def merge(self, data: dict, parent: int) -> None:
        """Append a child process's spans under ``parent`` in the current op."""
        ids = [self.name_id(n) for n in data["names"]]
        base = len(self.name)
        for nid, start, end, inner, par, tag in data["spans"]:
            self.name.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.inner.append(inner)
            self.parent.append(base + par if par >= 0 else parent)
            self.op.append(self.op_id)
            self.check.append(self.in_check)
            self.tag.append(tag)
        for key, n in data["counts"].items():
            self.count(key, n)


# -- hooks: exact counts computed from public values ------------------------

RANDOM, DETERMINISTIC = 1, 2


def _tableaux(obj):
    items = obj if isinstance(obj, tuple) else (obj,)
    return [o for o in items if hasattr(o, "x") and hasattr(o, "phase")]


def _statevectors(obj):
    items = obj if isinstance(obj, tuple) else (obj,)
    return [o for o in items if hasattr(o, "amplitudes") and hasattr(o, "num_qubits")]


def _is_arg(obj, args):
    return any(obj is a for a in args)


def _stabilizer_bytes(rec, idx, args, result, leaf):
    """Tableau bytes copied: each new tableau returned by a leaf stabilizer call."""
    if leaf:
        for t in _tableaux(result):
            if not _is_arg(t, args):
                rec.count("stabilizer.copy_bytes", t.x.nbytes + t.z.nbytes + t.phase.nbytes)


def _statevector_bytes(rec, idx, args, result, leaf):
    """Amplitude bytes read from argument states and written to new result states."""
    if leaf:
        moved = sum(s.amplitudes.nbytes for s in _statevectors(args))
        moved += sum(s.amplitudes.nbytes for s in _statevectors(result) if not _is_arg(s, args))
        if moved:
            rec.count("statevector.bytes_moved", moved)


def _measure(rec, idx, args, result, leaf):
    t, q = args[0], args[1]
    deterministic = result[1] if len(result) == 3 else result[0]
    rec.tag[idx] = DETERMINISTIC if deterministic else RANDOM
    if not deterministic:
        # Rows the collapse multiplies by the pivot: every row with an x bit
        # on q, read from the public x column, less the pivot itself.
        rec.count("stabilizer.rowsum_rows", int(np.count_nonzero(t.x[:, q])) - 1)


def _parse(rec, idx, args, result, leaf):
    rec.count("dsl.instructions", len(result.instructions))
    rec.count("dsl.lines", len(args[0].splitlines()))


def _bb84(rec, idx, args, result, leaf):
    rec.count("protocols.bb84_rounds", args[0])


_LAYER_HOOKS = {"stabilizer": _stabilizer_bytes, "statevector": _statevector_bytes}
_HOOKS = {
    "stabilizer.measure_z": _measure,
    "stabilizer.measure_z_forced": _measure,
    "dsl.parse": _parse,
    "protocols.bb84_simulate": _bb84,
}


# -- per-layer metrics -------------------------------------------------------

def derive(rec: Recorder, window: int, observed: dict) -> tuple[dict, dict]:
    """Per-layer metrics, and the sample count behind each median, from the
    spans and counts of a traced phase.

    Timings use every op of the phase.  Counts and oracle-derived values
    use ops ``0 .. window-1`` only, a prefix fixed per workload, so they
    repeat exactly for a fixed seed.  ``observed`` carries what the
    benchmark's own checks saw and what was measured outside the recorder.
    """
    names = rec.names
    n = len(rec.name)
    durs: dict[str, list[float]] = {}
    per_op: dict[str, dict[int, float]] = {}
    calls: dict[str, int] = {}
    self_times: dict[str, list[float]] = {}

    def name_of(i):
        return names[rec.name[i]]

    def add_per_op(key, op, dur):
        bucket = per_op.setdefault(key, {})
        bucket[op] = bucket.get(op, 0.0) + dur

    stab_gates = {"stabilizer.apply", "stabilizer.apply_clifford"}
    sv_gates = {"statevector.apply", "statevector.apply_gate"}
    sv_meas = {"statevector.measure_qubit", "statevector.project_qubit"}
    stab_meas = {"stabilizer.measure_z", "stabilizer.measure_z_forced"}
    maximize = rec.name_id("chsh.maximize_s")
    corr_in_max = 0
    maximize_calls = 0

    for i in range(n):
        name = name_of(i)
        dur = rec.end[i] - rec.start[i]
        parent = rec.parent[i]
        pname = name_of(parent) if parent >= 0 else ""
        op = rec.op[i]
        in_window = 0 <= op < window
        if rec.check[i]:
            if name in ("stabilizer.validate", "bench.roundtrip"):
                durs.setdefault(name, []).append(dur)
            continue
        key = name
        if name in stab_gates:
            if pname in stab_gates:
                continue
            key = "stab.gate"
            add_per_op(key, op, dur)
        elif name in sv_gates:
            if pname in sv_gates:
                continue
            key = "sv.gate"
            add_per_op(key, op, dur)
        elif name in sv_meas:
            if pname in sv_meas:
                continue
            key = "sv.measure"
        elif name in stab_meas:
            add_per_op("stab.measure", op, dur)
            key = "stab.measure.random" if rec.tag[i] == RANDOM else "stab.measure.det"
        elif name == "stabilizer.init_zero":
            add_per_op(key, op, dur)
        elif name == "dsl.run":
            self_times.setdefault(key, []).append(dur - rec.inner[i])
        elif name == "chsh.correlation_matrix" and in_window:
            j = parent
            while j >= 0 and rec.name[j] != maximize:
                j = rec.parent[j]
            corr_in_max += j >= 0
        elif name == "chsh.maximize_s" and in_window:
            maximize_calls += 1
        durs.setdefault(key, []).append(dur)
        if in_window:
            calls[key] = calls.get(key, 0) + 1

    counts: dict[str, float] = {}
    totals: dict[str, float] = {}
    for (op, check, key), value in rec.counts.items():
        if not check:
            totals[key] = totals.get(key, 0) + value
            if 0 <= op < window:
                counts[key] = counts.get(key, 0) + value

    def per_op_totals(key):
        return list(per_op.get(key, {}).values())

    # metric -> the per-call (or, for totals, per-op) times behind its median
    samples = {
        "cli.main_s": durs.get("cli.main", []),
        "dsl.parse_s": durs.get("dsl.parse", []),
        "dsl.classify_s": durs.get("dsl.classify", []),
        "dsl.format_roundtrip_s": durs.get("bench.roundtrip", []),
        "dsl.run_self_s": self_times.get("dsl.run", []),
        "stabilizer.measure_random_s_p50": durs.get("stab.measure.random", []),
        "stabilizer.measure_det_s_p50": durs.get("stab.measure.det", []),
        "stabilizer.measure_total_s": per_op_totals("stab.measure"),
        "stabilizer.gate_s_p50": durs.get("stab.gate", []),
        "stabilizer.gate_total_s": per_op_totals("stab.gate"),
        "stabilizer.init_total_s": per_op_totals("stabilizer.init_zero"),
        "stabilizer.validate_s": durs.get("stabilizer.validate", []),
        "statevector.gate_s_p50": durs.get("sv.gate", []),
        "statevector.gate_total_s": per_op_totals("sv.gate"),
        "statevector.measure_s_p50": durs.get("sv.measure", []),
        "statevector.expectation_s_p50": durs.get("statevector.expectation", []),
        "chsh.maximize_s_s": durs.get("chsh.maximize_s", []),
        "chsh.s_factor_s": durs.get("chsh.s_factor", []),
        "lhv.fit_s_p50": durs.get("lhv.fit_lhv", []),
        "protocols.teleport_s_p50": durs.get("protocols.teleport_statevector", [])
        + durs.get("protocols.teleport_stabilizer", []),
        "protocols.superdense_s_p50": durs.get("protocols.superdense_code", []),
    }
    out = {name: median(values) for name, values in samples.items()}

    parse_time = sum(durs.get("dsl.parse", []))
    lines = totals.get("dsl.lines", 0)
    bb84_time = sum(durs.get("protocols.bb84_simulate", []))
    bb84_rounds_all = totals.get("protocols.bb84_rounds", 0)
    out.update({
        "cli.stdout_bytes": counts.get("cli.stdout_bytes", 0),
        "dsl.parse_lines_per_s": lines / parse_time if parse_time else 0.0,
        "dsl.instructions": counts.get("dsl.instructions", 0),
        "stabilizer.measure_random_calls": calls.get("stab.measure.random", 0),
        "stabilizer.measure_det_calls": calls.get("stab.measure.det", 0),
        "stabilizer.rowsum_rows": counts.get("stabilizer.rowsum_rows", 0),
        "stabilizer.copy_bytes": counts.get("stabilizer.copy_bytes", 0),
        "stabilizer.gate_calls": calls.get("stab.gate", 0),
        "statevector.gate_calls": calls.get("sv.gate", 0),
        "statevector.measure_calls": calls.get("sv.measure", 0),
        "statevector.bytes_moved": counts.get("statevector.bytes_moved", 0),
        "statevector.expectation_calls": calls.get("statevector.expectation", 0),
        "chsh.corr_matrix_calls": corr_in_max / maximize_calls if maximize_calls else 0.0,
        "chsh.smax_abs_err": observed.get("smax_abs_err", 0.0),
        "lhv.fit_calls": calls.get("lhv.fit_lhv", 0),
        "lhv.feasible_ratio": _ratio(observed.get("fit_feasible", 0), observed.get("fit_checked", 0)),
        "lhv.witness_residual_max": observed.get("witness_residual_max", 0.0),
        "lhv.facet_agree_ratio": _ratio(observed.get("facet_agree", 0), observed.get("fit_checked", 0)),
        "protocols.bb84_round_s": bb84_time / bb84_rounds_all if bb84_rounds_all else 0.0,
        "protocols.bb84_rounds": counts.get("protocols.bb84_rounds", 0),
        "protocols.qber_clean": _ratio(*observed.get("qber_clean", (0, 0))),
        "protocols.qber_eve": _ratio(*observed.get("qber_eve", (0, 0))),
        "protocols.teleport_fidelity_min": observed.get("teleport_fidelity_min", 0.0),
        "rng.draws": counts.get("rng.draws", 0),
    })
    missing = set(out) - set(PER_LAYER)
    assert not missing, missing
    return out, {name: len(values) for name, values in samples.items()}


def _ratio(num, den):
    return num / den if den else 0.0
