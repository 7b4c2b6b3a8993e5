"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

1. Computed metrics repeat exactly: for every workload, two traced runs
   with the same seed must report identical values for every per-layer
   metric labelled "computed" (counts, bytes, oracle-derived values).
2. The checks catch wrong outputs: for each workload, a correct output is
   corrupted in a few ways and ``check`` must name a failure every time.
   Among them are maxima of S that a step of one angle would raise: the
   known maximize_s shortfall, a refined local maximum, must not excuse
   them.

Exits 1 if either part finds a problem.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import math
import os
import shutil
import sys
import tempfile
from types import SimpleNamespace

import metrics
import oracles
from report import ROOT, invoke


def repeat_counts(seed: int, seconds: float) -> list[str]:
    problems = []
    for workload in metrics.WORKLOADS:
        before = len(problems)
        runs = [invoke(workload, seed, seconds, 1)[1]["metrics"] for _ in range(2)]
        for name, (kind, _) in metrics.ROLE.items():
            if kind == metrics.COMPUTED and runs[0][name]["value"] != runs[1][name]["value"]:
                problems.append(f"{workload} {name}: {runs[0][name]['value']} != {runs[1][name]['value']}")
        print(f"counts repeat: {workload} {'ok' if len(problems) == before else 'MISMATCH'}", flush=True)
    return problems


def _mutants(workload, inp, out):
    """Corrupted copies of a correct output, one per check exercised."""
    if workload in ("clifford64", "dense12"):
        circuit, report, record = out
        flipped = copy.copy(record)
        flipped.outcomes = [1 - record.outcomes[0]] + record.outcomes[1:]
        yield "outcome flipped", (circuit, report, flipped)
        yield "wrong witnesses", (circuit, SimpleNamespace(witnesses=((1, 1),)), record)
        if workload == "dense12":
            state = SimpleNamespace(amplitudes=record.final_statevector.amplitudes * 1.01)
            yield "non-unit norm", (circuit, report, dataclasses.replace(record, final_statevector=state))
        else:
            rows = list(record.final_stabilizers)
            rows[0] = ("-" if rows[0][0] == "+" else "+") + rows[0][1:]
            yield "stabilizer sign", (circuit, report, dataclasses.replace(record, final_stabilizers=rows))
    elif workload == "bell-smalln":
        settings, s = out["free"]
        yield "S off by 1e-6", dict(out, free=(settings, s - 1e-6))
        block = oracles.xy_block(inp.amplitudes)
        a1, a2, c1, c2 = settings.as_tuple()

        def with_alpha1(a):
            return type(settings)(a, a2, c1, c2), oracles.chsh_s(block, a, a2, c1, c2)

        yield "S short of the maximum, not refined", dict(out, free=with_alpha1(math.remainder(a1 + 0.05, math.tau)))
        # -pi and pi are one point; S rises into the box from one of them.
        rising = oracles.chsh_s(block, 1e-3 - math.pi, a2, c1, c2) > oracles.chsh_s(block, -math.pi, a2, c1, c2)
        yield "S short of the maximum, on the bound, uphill inside it", dict(
            out, free=with_alpha1(-math.pi if rising else math.pi)
        )
        fits = list(out["fits"])
        fits[2] = fits[1]
        yield "infeasible target fitted", dict(out, fits=fits)
        yield "sample flipped", dict(out, samples=[(-a, b) for a, b in out["samples"]])
        bb = copy.deepcopy(out["bb84"])
        bb.metrics["error_count"] = bb.metrics["sifted_count"]
        yield "bb84 all errors", dict(out, bb84=bb)
    else:
        yield "stdout changed", SimpleNamespace(returncode=out.returncode, stdout=out.stdout + "x=1\n", stderr="")
        yield "exit code changed", SimpleNamespace(returncode=out.returncode + 1, stdout=out.stdout, stderr="")


def checks_catch(seed: int) -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bellsim

    import workloads

    problems = []
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name, cls in workloads.WORKLOAD_CLASSES.items():
            before = len(problems)
            wl = cls(seed, bellsim, tmpdir, env)
            for i in range(wl.session):
                inp = wl.generate(i)
                out = wl.execute(inp)
                if wl.check(inp, out):
                    problems.append(f"{name} op {i}: correct output flagged")
                    continue
                if getattr(inp, "kind", "") == "chsh-scan":
                    continue  # its check consumed the output file
                for label, bad in _mutants(name, inp, out):
                    if not wl.check(inp, bad):
                        problems.append(f"{name} op {i}: '{label}' not caught")
            print(f"checks catch faults: {name} {'ok' if len(problems) == before else 'MISSED'}", flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    problems = checks_catch(args.seed) + repeat_counts(args.seed, args.seconds)
    for p in problems:
        print("FAIL:", p)
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
