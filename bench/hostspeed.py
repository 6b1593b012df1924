"""Host-speed reference for the linkset benchmark.

On a shared machine the same job can take half again as long from one
minute to the next (measured with a fixed rg.mul loop: 10-second means
moved between 0.19 s and 0.30 s per 50 products within three minutes, with
no steal time reported), which no amount of repetition inside one run
averages away.  So while a timed pass runs, a SIGALRM handler runs a fixed
reference kernel every ``INTERVAL_S`` seconds of wall time, between the
job's bytecodes, and records how long it took.  A job's time is then also
given in *reference seconds*: its wall time, less the reference runs inside
it, times ``NOMINAL_S`` over the mean reference duration around the job.
The kernel mixes what the library spends its time on (interpreter loops,
Python function calls, small numpy gathers and adds, a float64 matmul) and
uses no library code, so a change to the library cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.2
PAD_S = 0.5
# Reference kernel duration that defines one reference second: the kernel's
# time on an unloaded 2-vCPU x86-64 VM at 2.0 GHz (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31 on one thread), where loaded minutes read 1.5x that.
NOMINAL_S = 0.005


def _store(table: dict, key: int, value: int) -> int:
    table[key] = value
    return len(table)


class HostSpeed:
    """Context manager sampling the reference kernel; only one may be active."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = np.arange(1024, dtype=np.int64)
        self._idx = rng.permutation(1024)
        self._acc = np.zeros(1024, dtype=np.int64)
        self._m1 = rng.random((36, 36))
        self._m2 = rng.random((36, 1024))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def reference(self) -> None:
        total = 0
        for i in range(30000):
            total += i * i
        table: dict[int, int] = {}
        for i in range(5000):
            _store(table, i & 255, i)
        for _ in range(600):
            self._acc += self._a[self._idx]
        for _ in range(10):
            self._m1 @ self._m2

    def measure(self, times: int) -> float:
        """Mean reference duration over ``times`` calls made now."""
        start = time.perf_counter()
        for _ in range(times):
            self.reference()
        return (time.perf_counter() - start) / times

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.reference()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self.reference()  # the first call pays for allocation and is not kept
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall seconds [start, end] less the samples inside, in reference
        seconds.  The host speed is the mean over the samples from PAD_S
        before to PAD_S after the interval (else the last one before it), so
        that a short job is not scaled by one or two samples alone."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        spent = sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, start - PAD_S):
                              bisect.bisect_left(self.starts, end + PAD_S)]
        if not near:
            near = [self.durations[max(lo - 1, 0)]]
        return (end - start - spent) * NOMINAL_S / (sum(near) / len(near))
