"""The host's speed, sampled while hyptor runs, and times scaled by it.

The benchmark's host runs each of its virtual cores at speeds that
switch between states up to 1.7x apart, each state lasting seconds, and
the two cores switch independently of each other.  CPU time follows
wall time, so neither removes it, and a census lasts long enough to
cross several states.

A timer signal interrupts the benchmark's one thread every PERIOD
seconds and runs a fixed kernel of exact rational matrix arithmetic,
the operations that dominate hyptor's own profile; the kernel's time is
a sample of the current speed.  An operation's time at reference speed
is its wall time, less the kernel runs inside it, times the mean of
REFERENCE / kernel time over the samples taken during the operation and
WINDOW seconds on either side.  The process is pinned to one core, so
the interpreters it starts run on the core being sampled.  The kernel is
part of the benchmark, not of hyptor, so a change to hyptor moves the
scaled times and leaves the reference alone.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
WINDOW = 0.25
TRAILING = 6
# about the kernel's time, in seconds, when the timer runs it on a core
# in its fast state: a 2-core Intel Xeon (KVM guest), Python 3.11.7
REFERENCE = 1.5e-3

_A = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(6)] for i in range(6)]
_B = [[Fraction((2 * i + j) % 5 - 2, 1 + (i * j) % 3) for j in range(6)] for i in range(6)]


def kernel() -> Fraction:
    """A fixed amount of hyptor-like work: products of 6x6 rational
    matrices, entries summed from generator expressions."""
    m = _A
    for _ in range(2):
        m = [[sum(m[i][k] * _B[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    return m[0][0]


def pin_to_one_core() -> int:
    """Pin this process, and the interpreters it starts, to one core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class SpeedSampler:
    """Kernel samples (start, seconds), taken on a timer while running
    and on demand."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False
        self._previous = None

    def sample(self, n: int = 1) -> None:
        if self._busy:
            return
        self._busy = True
        for _ in range(n):
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.seconds.append(time.perf_counter() - start)
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end) would have taken at reference speed."""
        inside = slice(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end))
        near = slice(bisect.bisect_left(self.starts, start - WINDOW), bisect.bisect_left(self.starts, end + WINDOW))
        if near.start == near.stop:
            raise RuntimeError(f"no speed sample within {WINDOW} s of [{start}, {end})")
        busy = end - start - sum(self.seconds[inside])
        return busy * statistics.fmean(REFERENCE / s for s in self.seconds[near])
