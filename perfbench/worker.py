"""Closed-loop load generator: one client, one thread, one workload.

Started by ``run.py`` with BLAS threads pinned to 1.  It generates op
``i``'s input from the seed, times the op, then checks the output outside
the timed window, and only then generates the next input.  A run ends at
the first session boundary at or after ``--seconds`` once it has done the
workload's minimum number of ops (``checked`` untraced, ``window`` traced).

An op's latency is its CPU time, scaled by host-speed calibrations taken
right before and after it, outside its timed window (``hostspeed.py``);
its wall time is kept for context.  Untraced (``--trace 0``) it reports
every op latency with its host-speed factor.  Traced it runs the same op
sequence twice for half the time each: first untraced, as the reference
for the tracing overhead, then with the span recorder installed, and
reports the per-layer metrics.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np


def run_loop(wl, seconds, rec=None, obs=None, min_ops=0):
    latencies = []
    factors = []
    wall = []
    failures: dict[str, int] = {}
    failed_ops = []
    i = 0
    start = time.perf_counter()
    while True:
        inp = wl.generate(i)
        before = wl.calibrate()
        with rec.root("bench.op", i, False) if rec else contextlib.nullcontext():
            w0, c0 = time.perf_counter(), wl.cpu_s()
            try:
                out, err = wl.execute(inp, rec), None
            except Exception as exc:  # an op that raises is a failed op; keep the loop running
                out, err = None, exc
            w1, c1 = time.perf_counter(), wl.cpu_s()
        if err is None:
            latency, factor = wl.scaled(c1 - c0, before, out)
        else:  # the op failed; keep its time unscaled
            latency, factor = c1 - c0, 1.0
        latencies.append(latency)
        factors.append(factor)
        wall.append(w1 - w0)
        if err is not None:
            traceback.print_exception(err, file=sys.stderr)
            failed = [f"op raised {type(err).__name__}"]
        else:
            try:
                with rec.root("bench.check", i, True) if rec else contextlib.nullcontext():
                    failed = wl.check(inp, out, rec, obs if i < wl.window else None)
            except Exception as exc:
                traceback.print_exception(exc, file=sys.stderr)
                failed = [f"check raised {type(exc).__name__}"]
        for name in failed:
            failures[name] = failures.get(name, 0) + 1
        if failed:
            failed_ops.append(i)
        i += 1
        if i % wl.session == 0 and i >= min_ops and time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "factors": factors, "wall": wall, "failures": failures,
            "failed_ops": failed_ops}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import bellsim

    if not os.path.abspath(bellsim.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bellsim imported from {bellsim.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    env = dict(os.environ, PYTHONPATH=src)
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=args.root)
    try:
        wl = workloads.WORKLOAD_CLASSES[args.workload](args.seed, bellsim, tmpdir, env)
        if not args.trace:
            result = run_loop(wl, args.seconds, min_ops=wl.checked)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        else:
            ref = run_loop(wl, args.seconds / 2)
            rec = spans.Recorder()
            obs: dict = {}
            rec.install({layer: getattr(bellsim, layer) for layer in spans.LAYERS})
            try:
                traced = run_loop(wl, args.seconds / 2, rec, obs, min_ops=wl.window)
            finally:
                rec.uninstall()
            per_layer, per_layer_samples = spans.derive(rec, wl.window, obs)
            m = min(len(ref["latencies"]), len(traced["latencies"]))
            ref_scaled = [t * f for t, f in zip(ref["latencies"], ref["factors"])]
            traced_scaled = [t * f for t, f in zip(traced["latencies"], traced["factors"])]
            result = {
                "latencies": ref["latencies"] + traced["latencies"],
                "factors": ref["factors"] + traced["factors"],
                "wall": ref["wall"] + traced["wall"],
                "failed_ops": ref["failed_ops"] + [len(ref["latencies"]) + i for i in traced["failed_ops"]],
                "failures": {
                    k: ref["failures"].get(k, 0) + traced["failures"].get(k, 0)
                    for k in set(ref["failures"]) | set(traced["failures"])
                },
                "per_layer": per_layer,
                "per_layer_samples": per_layer_samples,
                "overhead_ratio": sum(traced_scaled[:m]) / sum(ref_scaled[:m]),
                "overhead_ops": m,
                "traced_ops": len(traced["latencies"]),
                "spans": len(rec.name),
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result["checked"] = wl.checked
    result["known"] = wl.known
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
