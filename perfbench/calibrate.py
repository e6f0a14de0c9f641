"""Host-speed calibration for the limla benchmark.

On a shared host the speed of one core drifts by tens of percent over
tens of seconds, longer than a run, so medians over passes alone do not
make two runs comparable.  Before every pass (and after the last one)
the benchmark times a fixed pure-Python loop, `host_ns()`: integer
arithmetic and scattered reads from a 2 MB table, the interpreter work
and memory traffic the engines' table lookups make.  Among the loops
tried (set/dict churn, nested-function walks over short-lived lists, and
this one) it tracked pass times best.  Each pass's times are scaled by
NOMINAL_NS / (the mean of the calibrations around it): reported times
are seconds on a host where the loop takes NOMINAL_NS.  A change to the
library moves the scaled times; a change in host speed moves the loop
and the pass together and largely cancels.  The output prints unscaled
medians too.
"""
from __future__ import annotations

import time

NOMINAL_NS = 2_000_000   # the loop's time on the quiet 2-core host the workloads were sized on
REPS = 3

_TABLE = [i & 255 for i in range(1 << 18)]


def _loop() -> int:
    table = _TABLE
    mask = len(table) - 1
    x = 1
    total = 0
    for _ in range(15000):
        x = (x * 1103515245 + 12345) & mask
        total += table[x]
    return total


def host_ns() -> int:
    """Best of REPS timings of the calibration loop, in ns."""
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter_ns()
        _loop()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that turns a time measured between two calibrations into nominal-host time."""
    return 2 * NOMINAL_NS / (before_ns + after_ns)
