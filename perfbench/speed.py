"""Machine-speed probe for a shared, noisy host.

On a host whose cores are shared with other tenants, the same pure-Python
work can take 1.6 times longer from one second to the next, in phases that
last from under a second to minutes.  Timings are therefore scaled to a
reference speed.  A fixed kernel (bit iteration over big ints, list and dict
updates, the kind of work the library does) is timed after each measured
piece of work and, while sampling is on, every SAMPLE_INTERVAL_S on a timer
signal in the middle of the work; the time spent in those probes is taken
out of the work's elapsed time.  The work's time is then divided by the
slowdown its probes saw: those inside it and right after it, widened to the
nearest neighbours until they hold WINDOW_REPS kernel calls, because one
call alone is too noisy for work of a few milliseconds.

The kernel is benchmark code, so a change to the library moves the scaled
time exactly as it moves the raw one.  No thread or process is started: the
timer signal runs the probe in the main thread between bytecodes.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# Seconds one kernel call takes at the reference speed (the kernel's fast
# state on a 2-vCPU x86-64 host running CPython 3.11).
REFERENCE_S = 0.0005
SAMPLE_INTERVAL_S = 0.1
SAMPLE_REPS = 2
WARMUP_REPS = 50
WINDOW_REPS = 20

_ROWS = tuple((i * 0x9E3779B97F4A7C15) ** 5 & ((1 << 320) - 1)
              for i in range(1, 17))


def kernel() -> int:
    cols = [0] * 64
    seen = {}
    for r, row in enumerate(_ROWS):
        m = row
        while m:
            low = m & -m
            x = low.bit_length() - 1
            cols[x & 63] |= 1 << r
            m ^= low
        seen[row & 0xFFFF] = r
    return sum(c.bit_count() for c in cols) + len(seen)


class SpeedProbe:
    """Slowdown relative to the reference speed around pieces of work.

    `start` and `stop` bracket a piece of work; `stop` returns its elapsed
    time without the probes taken inside it, and a token for `scaled`.
    """

    def __init__(self):
        self._reps: list[int] = []
        self._secs: list[float] = []
        self._probe_s = 0.0
        for _ in range(WARMUP_REPS):  # let the interpreter specialise it
            kernel()
        self._probe(1)

    def _probe(self, reps: int) -> None:
        start = perf_counter()
        for _ in range(reps):
            kernel()
        elapsed = perf_counter() - start
        self._secs.append(elapsed)
        self._reps.append(reps)
        self._probe_s += elapsed

    @contextmanager
    def sampling(self):
        """Also probe every SAMPLE_INTERVAL_S, on SIGALRM, inside work."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self._probe(SAMPLE_REPS))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> tuple[int, float, float]:
        return len(self._reps) - 1, self._probe_s, perf_counter()

    def stop(self, started) -> tuple[float, tuple[int, int]]:
        end = perf_counter()
        first, probe_s, start = started
        elapsed = end - start - (self._probe_s - probe_s)
        self._probe(1)
        return elapsed, (first, len(self._reps) - 1)

    def slowdown(self, token: tuple[int, int]) -> float:
        lo, hi = token
        last = len(self._reps) - 1
        while (sum(self._reps[lo:hi + 1]) < WINDOW_REPS
               and (lo > 0 or hi < last)):
            lo, hi = max(0, lo - 1), min(last, hi + 1)
        return (sum(self._secs[lo:hi + 1]) / sum(self._reps[lo:hi + 1])
                / REFERENCE_S)

    def scaled(self, elapsed: float, token: tuple[int, int]) -> float:
        """`elapsed` seconds of the work with `token`, at reference speed."""
        return elapsed / self.slowdown(token)

    def median_slowdown(self) -> float:
        return statistics.median(s / r / REFERENCE_S
                                 for s, r in zip(self._secs, self._reps))
