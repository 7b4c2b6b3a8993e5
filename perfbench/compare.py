"""Check that two sets of runs of one commit agree within the bounds.

    python3 perfbench/compare.py [--runs 10] [--seed-base 1000]
                                 [--workloads a,b] [--seconds S] [--json PATH]

Runs two sets of ``--runs`` untraced runs per workload, one run at a
time, each with its own seed (set k uses seeds ``seed-base + k*runs ...``,
so every set sees fresh inputs; pick a base not used while building).  For
every workload and end-to-end metric it prints each set's median and
spread (quartile distance over median, as ``statistics.quantiles(n=4)``
gives the quartiles), then:

* ``steady``  both spreads are within the metric's bound;
* ``agree``   the two medians differ by at most the bound, as a share of
  the first set's median, in either direction.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import metrics
from report import invoke

SETS = 2


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def differ_by(first: float, later: float) -> float:
    """|later - first| as a share of ``first``."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    return abs(later - first) / first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set, at least 2")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=metrics.BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    parser.add_argument("--json", help="write every run's metrics and failures here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + k * args.runs + r
                info, result = invoke(workload, seed, args.seconds, 0)
                runs.append({"seed": seed, "result": result, "failures": info["failures"],
                             "samples": info["samples"], "loadavg": info["env"]["loadavg_start"]})
                print(f"  {workload} set {k} seed {seed}: attempted={result['attempted']} "
                      f"failed={result['failed']} {info['failures'] or ''}", flush=True)
            sets.append(runs)
        raw[workload] = sets
        for name, spec in metrics.END_TO_END.items():
            bound = spec["bound"]
            values = [[run["result"]["metrics"][name]["value"] for run in runs] for runs in sets]
            meds = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            steady = max(spreads) <= bound
            agree = differ_by(meds[0], meds[1]) <= bound
            ok &= steady and agree
            cols = "  ".join(f"med={m:.6g} spread={s:.3f}" for m, s in zip(meds, spreads))
            print(f"{workload:12s} {name:22s} bound={bound:<5} {cols}  "
                  f"{'steady' if steady else 'UNSTEADY'} {'agree' if agree else 'DISAGREE'}"
                  f"{'' if max(spreads) < bound / 3 else '  (spread above bound/3)'}",
                  flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    print("ALL AGREE" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
