"""Print every metric by name, with its unit, for each workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

Runs each workload once untraced (end-to-end metrics) and once traced
(per-layer metrics), one run at a time, and prints one line per metric:
workload, name, value, unit, and whether the value is measured or
computed.  Run length defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (info line, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            info, result = invoke(workload, args.seed, args.seconds, trace)
            print(f"# {workload} trace={trace} seed={args.seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"samples={info['samples']} failures={info['failures']}")
            for name, m in result["metrics"].items():
                kind = metrics.ROLE[name][0] if trace else metrics.MEASURED
                print(f"{workload:12s} {name:34s} {m['value']:>18.9g} {m['unit']:6s} {kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
