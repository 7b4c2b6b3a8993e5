"""bellsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory,
and bellsim is imported from its ``src/``.  The run

1. times ``import bellsim`` (``import bellsim.cli`` for cli-session) in
   several fresh interpreters and takes the median (``setup_s``);
2. starts ``worker.py`` with BLAS threads pinned to 1, which drives the
   workload in a closed loop for ``--seconds`` and checks every output;
   ops and imports are timed in CPU seconds and scaled to reference host
   speed (``hostspeed.py``);
3. prints a line with the environment and sample counts, then, as the
   last line, ``{"correct", "attempted", "failed", "metrics"}``: the
   end-to-end metrics untraced, or the per-layer metrics traced.

Exits 2 without a result when the tree holds no bellsim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from importlib import metadata

import hostspeed
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_INTERPRETERS = 5
WORKER_TIMEOUT_S = 140.0
PROBE_TIMEOUT_S = 30.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Calibrates the host's speed in the fresh interpreter itself, on either
# side of the import (after one warm-up pass).
_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, {here!r})
import hostspeed
hostspeed.calibration_s()
cal_before = hostspeed.calibration_s({passes})
before = len(sys.modules)
t0 = time.process_time()
__import__({module!r})
dt = time.process_time() - t0
added = len(sys.modules) - before
factor = hostspeed.factor(cal_before, hostspeed.calibration_s({passes}), {passes})
print(dt, added, int("scipy" in sys.modules), factor)
"""
PROBE_CALIBRATION_PASSES = 20


def pinned_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def import_probe(module: str, env: dict) -> list[tuple[float, int, int, float]]:
    """(seconds, modules added, scipy loaded, host-speed factor) per fresh
    interpreter; the seconds are as measured, unscaled."""
    code = _IMPORT_PROBE.format(here=HERE, module=module, passes=PROBE_CALIBRATION_PASSES)
    out = []
    for _ in range(SETUP_INTERPRETERS):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed:\n{proc.stderr}")
        s, mods, scipy, factor = proc.stdout.split()
        out.append((float(s), int(mods), int(scipy), float(factor)))
    return out


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def interpreter_floor(env: dict) -> list[float]:
    """CPU time of a fresh interpreter that does nothing, exec to exit,
    at reference host speed."""
    out = []
    for _ in range(SETUP_INTERPRETERS):
        before = hostspeed.calibration_s()
        t0 = children_cpu_s()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=PROBE_TIMEOUT_S)
        dt = children_cpu_s() - t0
        out.append(dt * hostspeed.factor(before, hostspeed.calibration_s()))
    return out


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable: not a git checkout"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unavailable"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(name: str, value: float, catalog: dict) -> dict:
    return {"value": value, "unit": catalog[name]["unit"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "bellsim", "__init__.py")):
        print(f"no bellsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = pinned_env()
    info = {"env": environment(args)}
    if args.trace:
        probes = import_probe("bellsim", env)
        numpy_probes = import_probe("numpy", env)
        floor = interpreter_floor(env)
    else:
        probes = import_probe("bellsim.cli" if args.workload == "cli-session" else "bellsim", env)
    setup_times = [p[0] * p[3] for p in probes]

    # The worker leads its own process group, so a timeout also stops the
    # CLI process it may be waiting on.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--root", ROOT],
        env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    data = json.loads(stdout.strip().splitlines()[-1])
    raw = data["latencies"]
    lat = [t * f for t, f in zip(raw, data["factors"])]
    attempted, failed = len(lat), len(data["failed_ops"])
    # fail_ratio always covers the same number of ops, so that its value
    # moves only with failures, never with speed.
    checked = data["checked"]
    failed_checked = sum(i < checked for i in data["failed_ops"])
    tail_value, tail_pct = metrics.tail(lat)
    info["samples"] = {
        "ops": attempted,
        "latency_p50_s": attempted,
        "latency_tail_s": attempted,
        "tail_percentile": tail_pct,
        "setup_interpreters": len(setup_times),
        "fail_ratio_ops": checked,
        "fail_ratio_failed": failed_checked,
    }
    # The same figures before scaling to reference host speed, for context.
    info["unscaled"] = {
        "setup_s": metrics.median(p[0] for p in probes),
        "latency_p50_s": metrics.median(raw),
        "latency_tail_s": metrics.tail(raw)[0],
        "throughput_ops_per_s": attempted / sum(raw),
        "host_speed_factor_p50": metrics.median(data["factors"]),
    }
    # And the wall time of each op, exec to exit for cli-session.
    info["wall"] = {
        "latency_p50_s": metrics.median(data["wall"]),
        "latency_tail_s": metrics.tail(data["wall"])[0],
    }
    info["failures"] = data["failures"]
    info["known_defects"] = data["known"]
    info["observed_fail_ratio"] = failed / attempted

    if args.trace:
        layer = dict(data["per_layer"])
        layer.update({
            "import.bellsim_s": metrics.median(setup_times),
            "import.modules": probes[0][1],
            "import.scipy_loaded": probes[0][2],
            "import.floor_python_s": metrics.median(floor),
            "import.floor_numpy_s": metrics.median(p[0] * p[3] for p in numpy_probes),
            "trace.overhead_ratio": data["overhead_ratio"],
        })
        info["samples"].update(
            traced_ops=data["traced_ops"], overhead_ops=data["overhead_ops"], spans=data["spans"],
            per_layer_medians=data["per_layer_samples"],
        )
        info["kinds"] = {name: metrics.ROLE[name][0] for name in metrics.PER_LAYER}
        values = {name: metric(name, layer[name], metrics.PER_LAYER) for name in metrics.PER_LAYER}
    else:
        values = {
            "setup_s": metrics.median(setup_times),
            "latency_p50_s": metrics.median(lat),
            "latency_tail_s": tail_value,
            "throughput_ops_per_s": attempted / sum(lat),
            "fail_ratio": metrics.fail_ratio_upper(failed_checked, checked),
            "peak_rss_mb": data["peak_rss_mb"],
        }
        values = {name: metric(name, values[name], metrics.END_TO_END) for name in metrics.END_TO_END}

    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
