"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
over seconds to minutes, and CPU time drifts with wall-clock time.  So a
pass times ``kernel`` every ``INTERVAL_S`` of wall-clock while it works,
from a ``SIGALRM`` handler, and leaves the time that takes out of every
interval it times.  ``run.py`` divides the pass's times by the host's
*slowdown*, the mean kernel time over ``REFERENCE_S``: samples spread
evenly in time slow down as much, on average, as the work around them.  A
change to the program moves the program's times and leaves the kernel
alone; a busier host slows both.

The kernel is pure-Python interpreter work of the kind the program does
(dict updates, integer arithmetic, a loop) and touches nothing of the
program.  Pool workers inherit the handler but not the timer, so only the
benchmark process samples.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: about the kernel's mean seconds on the quietest host seen (CPython
#: 3.11, x86-64, 2 shared vCPUs), so that times scaled to it read close to
#: raw times on a quiet host; the scale of every reported time
REFERENCE_S = 320e-6
#: kernel samples per burst
BURST = 8
#: seconds between samples while a pass works; a sample costs about 3% of
#: that
INTERVAL_S = 0.01


def kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        key = i & 31
        table[key] = table.get(key, 0) + i
        total += len(table)
    return total


class HostSpeed:
    """Kernel samples of one pass (or one set-up)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: wall and CPU seconds spent in the kernel, for callers to subtract
        self.spent = 0.0
        self.spent_cpu = 0.0

    def sample(self, *_signal) -> None:
        cpu, start = time.process_time(), time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self.spent_cpu += time.process_time() - cpu

    def burst(self, count: int = BURST) -> None:
        for _ in range(count):
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_S`` of wall-clock in the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """Mean kernel seconds over ``REFERENCE_S`` of ``samples[start:stop]``:
        2.0 on a host that runs Python at half the reference speed."""
        return statistics.fmean(self.samples[start:stop]) / REFERENCE_S
