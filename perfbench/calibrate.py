"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-core machine this benchmark was built on, the speed of a core
changes all the time: the same pure-Python loop runs up to about 1.7x slower
in bursts of tens of milliseconds and for stretches of seconds, in CPU time
as well as in wall time, and the kernel reports no steal time, so the
slowdown comes from outside the guest. Raw times of one CLI invocation
varied by 10-20% (coefficient of variation) between repetitions, and the
sum over a 20-second block by up to 25%.

`SpeedClock` runs a short fixed loop (a slice) on each core the workload
uses, while nothing else of the benchmark runs on it: between operations,
and every `PERIOD_S` during a long operation while the benchmark holds that
operation's processes stopped (the stopped time is not counted). An
operation's time is scaled by (`REFERENCE_SLICE_S` over the mean slice time
from just before it to just after it) to the power `SENSITIVITY`, so it reads
in seconds on a machine whose slice takes `REFERENCE_SLICE_S`.

The exponent comes from measurement: the slope of log call time on log mean
slice time, over 60 repetitions each of four CLI invocations on that host,
was 0.56-0.75 (0.4 for a 0.18 s call that is mostly process start-up), so
the slice reacts more strongly to the interference than isopencil does.
Summed over 10-20 s blocks of calls, the spread between blocks was about
0.12-0.21 raw, 0.04-0.09 with exponent 1 and 0.014-0.03 with 0.7-0.85. The
slice does the same kind of work as isopencil (tuples, small-integer
arithmetic, dict lookups, calls) and does not use isopencil, so a change to
the program cannot move it.
"""

from __future__ import annotations

import os
import statistics
import time

REFERENCE_SLICE_S = 0.004
SENSITIVITY = 0.75
PERIOD_S = 0.25
_ROUNDS = 13000
_SLICES = 3


def _step(i: int, table: dict) -> int:
    key = (i % 97, i % 13)
    value = table.get(key, 0) + (i * i) % 7
    table[key] = value
    return value


def slice_cpu_s() -> float:
    """CPU time of one calibration slice on the calling thread."""
    table: dict = {}
    start = time.thread_time()
    total = 0
    for i in range(_ROUNDS):
        total += _step(i, table)
    return time.thread_time() - start


def scale(samples) -> float:
    """Time scale factor for an operation during which `samples` were taken."""
    return (REFERENCE_SLICE_S / statistics.fmean(samples)) ** SENSITIVITY


def speed_sample(cpus) -> float:
    """Median slice time on each core in `cpus`, averaged over the cores.

    The calling thread visits each core in turn and gets its own affinity
    back afterwards, so processes it starts later are placed as before.
    """
    before = os.sched_getaffinity(0)
    per_core = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_core.append(statistics.median(slice_cpu_s() for _ in range(_SLICES)))
    finally:
        os.sched_setaffinity(0, before)
    return statistics.fmean(per_core)


class SpeedClock:
    """Speed factors for a sequence of operations run one after another."""

    def __init__(self, cpus):
        self._cpus = set(cpus)
        self.samples: list[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        value = speed_sample(self._cpus)
        self.samples.append(value)
        return value

    def factor(self, during=()) -> float:
        """Call right after an operation ends, with the samples taken while it
        was held stopped: the factor its times are scaled by."""
        now = self.sample()
        factor = scale([self._last, *during, now])
        self._last = now
        return factor
