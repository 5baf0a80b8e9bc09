"""The host's current interpreter speed, sampled while the workload runs.

On a shared host, pure-Python code runs in a fast and a slow state about 30%
apart, and a state can outlast a whole run, so no number of passes averages
it out.  A fixed pure-Python loop (the probe) slows down with it.  The
``Prober`` times the probe from a SIGALRM handler every ``EVERY_S`` seconds.
The handler runs in the main thread between bytecodes, so it pauses the
workload rather than competing with it, and the time it takes is taken back
out of the instance that it interrupted.  An instance's time multiplied by
``REF_S`` over the median probe time around it is its time at the reference
speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOPS = 10_000          # about 1 ms on the 2-core VM the README describes
EVERY_S = 0.025         # probe period: about 4% of the run goes to probing
WINDOW_S = 0.25         # probes this far either side of an instance count
REF_S = 0.0009          # probe seconds at the reference speed


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s = (s * 31 + i) % 1000003
    return s


def probe_now(repeats: int = 15) -> float:
    """Median probe time over `repeats` back-to-back probes."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _spin(LOOPS)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Prober:
    """Probe timings taken every EVERY_S seconds while the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.secs: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _spin(LOOPS)
        self.starts.append(t0)
        self.secs.append(time.perf_counter() - t0)

    def __enter__(self) -> "Prober":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_left(self.starts, t1))

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the probe took out of the interval [t0, t1)."""
        return sum(self.secs[self._between(t0, t1)])

    def probe_s(self, t0: float, t1: float) -> float:
        """Median probe time within WINDOW_S of the interval [t0, t1)."""
        near = self.secs[self._between(t0 - WINDOW_S, t1 + WINDOW_S)]
        if not near:  # a long C call held the ticks back: take the last before
            near = self.secs[bisect.bisect_left(self.starts, t1) - 1:][:1]
        return statistics.median(near)
