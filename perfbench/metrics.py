"""Metric catalog and the statistics the benchmark reports.

Workload and metric names, units, directions and bounds come from
``BENCHMARK.json`` at the repo root, the one place they are declared.
This module adds what that file does not carry: whether each per-layer
metric is *measured* (a wall-clock time, varies run to run) or *computed*
(an exact count or a value derived from exact arithmetic, repeats exactly
for a fixed seed), and which end-to-end metric it should move on which
workload.
"""

from __future__ import annotations

import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# name -> {"name", "unit", "better", "bound"} for end-to-end metrics,
# {"name", "unit", "better"} for per-layer ones.
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

MEASURED, COMPUTED = "measured", "computed"

# What BENCHMARK.json does not say about a per-layer metric:
# name -> (kind, the end-to-end metric it should move and where)
ROLE = {
    "import.bellsim_s": (MEASURED, "setup_s everywhere; latency_p50_s on cli-session"),
    "import.modules": (COMPUTED, "setup_s everywhere; latency_p50_s on cli-session"),
    "import.scipy_loaded": (COMPUTED, "setup_s everywhere; latency_p50_s on cli-session"),
    "import.floor_python_s": (MEASURED, "context floor, not expected to move"),
    "import.floor_numpy_s": (MEASURED, "context floor, not expected to move"),
    "cli.main_s": (MEASURED, "latency_p50_s on cli-session"),
    "cli.stdout_bytes": (COMPUTED, "output formatting on cli-session"),
    "dsl.parse_s": (MEASURED, "latency_p50_s on clifford64 and dense12"),
    "dsl.parse_lines_per_s": (MEASURED, "latency_p50_s on clifford64 and dense12"),
    "dsl.classify_s": (MEASURED, "latency_p50_s on clifford64 and dense12"),
    "dsl.format_roundtrip_s": (MEASURED, "benchmark check, outside the timed window"),
    "dsl.instructions": (COMPUTED, "latency_p50_s on clifford64 and dense12"),
    "dsl.run_self_s": (MEASURED, "latency_p50_s on clifford64 and dense12"),
    "stabilizer.measure_random_calls": (COMPUTED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.measure_det_calls": (COMPUTED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.measure_random_s_p50": (MEASURED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.measure_det_s_p50": (MEASURED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.measure_total_s": (MEASURED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.rowsum_rows": (COMPUTED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.copy_bytes": (COMPUTED, "latency_p50_s, throughput on clifford64"),
    "stabilizer.gate_calls": (COMPUTED, "latency_p50_s on clifford64 and bell-smalln"),
    "stabilizer.gate_s_p50": (MEASURED, "latency_p50_s on clifford64 and bell-smalln"),
    "stabilizer.gate_total_s": (MEASURED, "latency_p50_s on clifford64 and bell-smalln"),
    "stabilizer.init_total_s": (MEASURED, "latency_p50_s on bell-smalln (BB84 at n=1)"),
    "stabilizer.validate_s": (MEASURED, "benchmark check, outside the timed window"),
    "statevector.gate_calls": (COMPUTED, "latency_p50_s on dense12"),
    "statevector.gate_s_p50": (MEASURED, "latency_p50_s on dense12"),
    "statevector.gate_total_s": (MEASURED, "latency_p50_s on dense12"),
    "statevector.measure_calls": (COMPUTED, "latency_p50_s on dense12"),
    "statevector.measure_s_p50": (MEASURED, "latency_p50_s on dense12"),
    "statevector.bytes_moved": (COMPUTED, "latency_p50_s on dense12"),
    "statevector.expectation_calls": (COMPUTED, "latency_p50_s on bell-smalln"),
    "statevector.expectation_s_p50": (MEASURED, "latency_p50_s on bell-smalln"),
    "chsh.maximize_s_s": (MEASURED, "latency_p50_s on bell-smalln"),
    "chsh.corr_matrix_calls": (COMPUTED, "latency_p50_s on bell-smalln"),
    "chsh.s_factor_s": (MEASURED, "latency_p50_s on bell-smalln"),
    "chsh.smax_abs_err": (COMPUTED, "accuracy of maximize_s (free and fixed pair) on bell-smalln"),
    "lhv.fit_s_p50": (MEASURED, "latency_p50_s on bell-smalln"),
    "lhv.fit_calls": (COMPUTED, "latency_p50_s on bell-smalln"),
    "lhv.feasible_ratio": (COMPUTED, "fixed by the inputs; a change means changed answers"),
    "lhv.witness_residual_max": (COMPUTED, "correctness of fit_lhv witnesses"),
    "lhv.facet_agree_ratio": (COMPUTED, "correctness of fit_lhv feasibility"),
    "protocols.bb84_round_s": (MEASURED, "latency_p50_s on bell-smalln"),
    "protocols.bb84_rounds": (COMPUTED, "fixed by the inputs"),
    "protocols.qber_clean": (COMPUTED, "correctness of BB84 without an attacker"),
    "protocols.qber_eve": (COMPUTED, "detectability of the attacker (about 0.25)"),
    "protocols.teleport_s_p50": (MEASURED, "latency_p50_s on bell-smalln"),
    "protocols.teleport_fidelity_min": (COMPUTED, "correctness of teleportation"),
    "protocols.superdense_s_p50": (MEASURED, "latency_p50_s on bell-smalln"),
    "rng.draws": (COMPUTED, "draw order and count of every engine"),
    "trace.overhead_ratio": (MEASURED, "cost of the span recorder itself"),
}


def median(values):
    """Median of a non-empty sequence; 0.0 for an empty one (layer unused)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values, beyond=10):
    """The highest order statistic with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``.  With fewer than ``beyond + 1``
    samples the maximum is returned and the percentile is reported as 100.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= beyond:
        return vals[-1], 100.0
    return vals[n - 1 - beyond], 100.0 * (n - beyond) / n


def _binom_logpmf(k, n, p):
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binom_cdf(k, n, p):
    """P(X <= k) for X ~ Binomial(n, p)."""
    return min(1.0, sum(math.exp(_binom_logpmf(i, n, p)) for i in range(0, k + 1)))


def binom_sf(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    return min(1.0, sum(math.exp(_binom_logpmf(i, n, p)) for i in range(k, n + 1)))


def fail_ratio_upper(failed, attempted, confidence=0.95):
    """One-sided Clopper-Pearson upper bound on the per-op failure probability.

    With no failures in n ops it is 1 - (1 - confidence)**(1/n), about 3/n
    (the rule of three), so it is never 0 and a single failure raises it by
    far more than the metric's bound.
    """
    if failed >= attempted:
        return 1.0
    alpha = 1.0 - confidence
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if binom_cdf(failed, attempted, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi
