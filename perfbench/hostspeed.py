"""Measure an op's CPU time and scale it to a fixed host speed.

The shared 2-vCPU host this benchmark was built on disturbs timings in two
ways.  Its speed drifts by up to 2x from one few-second stretch to the
next: the same clifford64 op takes 65 ms, then 130 ms, of CPU time.  And
it takes the CPU away from the benchmark for tens of milliseconds at a
time: a 20 ms dense12 op then reads 60 ms of wall time while its process
ran for 23 ms of it.  Raw wall times spread far wider than the bounds.

So ops are timed in CPU seconds of the process that does the work (the
worker, or the CLI process for cli-session), which leaves out the time
the host kept it off the CPU; every op here is single-threaded compute
with BLAS pinned to one thread, so the two agree whenever the host does
not interfere.  And every op, and every fresh interpreter behind
``setup_s``, is bracketed by a calibration loop: fixed pure-Python work
that touches no bellsim code and imports nothing, so a fresh interpreter
can run it before ``import bellsim`` without changing what that import
loads.  Its CPU time, taken right before and right after, says how fast
the host runs at that moment.  The measured time is reported as it would
read on a host where one pass of the loop takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(pass time before, pass time after)

Both commits of a comparison run the same loop, so a change to bellsim
moves the scaled times exactly as it moves the raw ones.  The unscaled
CPU times and the wall times are printed on the line before the result.
"""

from __future__ import annotations

import time

REFERENCE_S = 1e-3


def calibration_s(passes: int = 1) -> float:
    """CPU seconds ``passes`` passes of the calibration loop take now
    (about 1 ms a pass)."""
    t0 = time.process_time()
    acc: dict[int, int] = {}
    for i in range(3000 * passes):
        acc[i & 63] = acc.get(i & 63, 0) + i
        if i % 50 == 0:
            sorted(acc.values())
    return time.process_time() - t0


def factor(before: float, after: float, passes: int = 1) -> float:
    """Multiplier taking a time measured between two calibrations of
    ``passes`` passes each to reference speed."""
    return 2.0 * REFERENCE_S * passes / (before + after)
