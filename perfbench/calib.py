"""The host's speed during a pass, to scale its CPU times by.

The benchmark runs on a shared host.  There, the same work runs in two
speeds, about 40% apart, and switches between them several times a
second; the share of time spent in the slow one drifts over minutes,
with what the host's other tenants do.  CPU times of identical runs
drift with it, by up to a quarter, and the load average inside the
machine does not show it.

So each worker process runs a fixed kernel of pure-Python work every
INTERVAL_NS through its pass, and scales each operation's CPU time by
NOMINAL_NS over the kernel's mean CPU time in the samples taken during
the operation, or within INTERVAL_NS / 2 of it.  The result is in
reference seconds: the CPU time on a host where one kernel takes
NOMINAL_NS.  A long operation is scaled by the samples taken inside
it, which see the two speeds in the shares that it sees them; a short
one by the samples next to it, which most likely ran at its speed.
Either way the drift cancels out.  A change to the program moves
reference seconds as it moves CPU seconds: the kernel does not call
the package.

A library operation is interrupted by an interval timer, and the
kernel runs in the signal handler; its CPU and wall time are then
taken off the operation's.  (A profiling timer would count CPU time
instead, but on Linux arming one coarsens the process CPU clock to
scheduler ticks.)  A CLI operation is a child process, and a sample
during it would compete with it, so there the kernel runs between
operations, once INTERVAL_NS has gone by since the last sample.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

# About one kernel's CPU time on a 2 GHz Xeon vCPU with Python 3.11,
# in the slower of the host's two speeds.
NOMINAL_NS = 5_000_000
INTERVAL_NS = 100_000_000
# Samples before the first operation and after the last.
BURST = 5
_BIG = (1 << 100_000) | 12345


def kernel() -> int:
    """A fixed amount of work of the kinds the package does: an
    interpreted loop over small integers and a list, shifts and adds
    of large integers, and float transcendentals."""
    table = [0] * 64
    s = 0
    for i in range(11_000):
        s += i * i % 7
        table[i & 63] += s & 1023
    acc = 0
    for j in range(110):
        acc += _BIG << (j * 64)
    x = 0.0
    for i in range(1, 4_500):
        x += math.sinh(1e-4 * i) * math.sqrt(i) / math.exp(1e-5 * i)
    return s + sum(table) + acc.bit_length() + int(x)


class Calibrator:
    """The kernel's samples in one pass, as (monotonic time at the
    middle, CPU time), and the CPU and wall time all samples have
    taken, to be taken off the operations'."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []
        self.spent_cpu_ns = 0
        self.spent_wall_ns = 0
        self._last = 0
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer signal during a sample
            return
        self._busy = True
        t0, c0 = time.monotonic_ns(), time.process_time_ns()
        kernel()
        c1, t1 = time.process_time_ns(), time.monotonic_ns()
        self.samples.append(((t0 + t1) // 2, c1 - c0))
        self.spent_cpu_ns += c1 - c0
        self.spent_wall_ns += t1 - t0
        self._last = t1
        self._busy = False

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def due(self) -> None:
        """Sample if INTERVAL_NS has gone by since the last sample."""
        if time.monotonic_ns() - self._last >= INTERVAL_NS:
            self.sample()

    @contextmanager
    def interrupting(self):
        """Sample every INTERVAL_NS, in the middle of an operation if
        need be."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_NS / 1e9, INTERVAL_NS / 1e9)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_ns(self) -> float:
        return statistics.fmean(c for _, c in self.samples)

    def factors(self, spans: list[tuple[int, int]]) -> list[float]:
        """From CPU time to reference time, for operations that ran over
        the given (start, end) monotonic spans."""
        times = [t for t, _ in self.samples]
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(times, start - INTERVAL_NS // 2)
            hi = bisect.bisect_right(times, end + INTERVAL_NS // 2)
            if lo == hi:  # none close enough: the nearest one
                lo = min(range(len(times)), key=lambda i: abs(times[i] - (start + end) // 2))
                hi = lo + 1
            out.append(NOMINAL_NS / statistics.fmean(c for _, c in self.samples[lo:hi]))
        return out
