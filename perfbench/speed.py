"""Calibrated time: task times converted to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same Python loop runs at one of a few speeds, up to twice apart, and
switches between them within a second.  The operadkit tasks slow down
with it, so raw times spread too widely between runs to bound a
regression.

`Clock` samples the machine's speed while a pass runs: an interval timer
raises SIGALRM every SAMPLE_EVERY_S, and the handler times a fixed
pure-Python kernel, independent of operadkit, on the same thread.  A
task's time is cut at the samples that interrupted it; each piece is
scaled by KERNEL_REF_S over the mean kernel time of the samples on its
two sides, and the samples' own time is left out.  A calibrated second
is thus the time the task would take on a machine on which the kernel
takes KERNEL_REF_S.  A change to operadkit leaves the kernel alone, so it
moves calibrated times as it moves raw ones.

The kernel runs with the garbage collector off, so a collection of the
program's heap never lands in a sample, and each sample is the least of
KERNEL_REPS runs, so an interrupt rarely does.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

KERNEL_REF_S = 0.0005
KERNEL_REPS = 2
SAMPLE_EVERY_S = 0.04


def _kernel() -> int:
    """Dict, tuple, sort and set work: the kind of Python operadkit does."""
    counts = {}
    for i in range(400):
        key = (i % 37, i % 11, i >> 3)
        counts[key] = counts.get(key, 0) + 1
    acc = 0
    for (a, b, c), v in sorted(counts.items()):
        acc += a * b - c + v
    shapes = [tuple(range(j % 5)) for j in range(200)]
    return acc + len(set(shapes))


def kernel_seconds() -> float:
    """One speed sample: the least time of KERNEL_REPS kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times the tasks of one pass, run inside `with clock:`.

    With `calibrate` off it only records raw times and starts no timer
    (the traced pass, whose spans must not contain the samples).
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.tasks: list[tuple[float, float]] = []  # (start, end) per task
        self._starts: list[float] = []  # per sample: start, end, kernel seconds
        self._ends: list[float] = []
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        if self.calibrate:
            self._sample()
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()
        return False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # a late alarm never nests a sample in another
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        start = time.perf_counter()
        kernel = kernel_seconds()
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self.samples.append(kernel)
        self._busy = False

    def add(self, start: float, end: float) -> None:
        """Record one task's perf_counter readings."""
        self.tasks.append((start, end))

    def raw(self) -> list[float]:
        """Seconds per task, less the samples taken inside it."""
        return [sum(length for length, _ in self._pieces(s, e)) for s, e in self.tasks]

    def calibrated(self) -> list[float]:
        """Seconds per task at the reference speed."""
        return [sum(length * KERNEL_REF_S / kernel for length, kernel in self._pieces(s, e))
                for s, e in self.tasks]

    def _pieces(self, start: float, end: float):
        """(length, mean kernel seconds of the samples on its sides) of each
        piece of [start, end] between the samples inside it."""
        if not self.calibrate:
            return [(end - start, KERNEL_REF_S)]
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._starts, end)
        pieces, at = [], start
        for j in range(first, last):
            pieces.append((self._starts[j] - at, (self.samples[j - 1] + self.samples[j]) / 2))
            at = self._ends[j]
        pieces.append((end - at, (self.samples[last - 1] + self.samples[last]) / 2))
        return pieces
