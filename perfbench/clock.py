"""Reference clock: the host's speed, sampled inside the measured process.

The measuring host's speed swings by up to 2x within tens of seconds, with no
steal time, so CPU time moves exactly as wall time does (README.md gives the
measurements).  To keep that out of the metrics, each child samples the speed
of its own core while it runs: a timer signal every ``SAMPLE_EVERY_S``
interrupts it and times one fixed unit of pure-Python work, the benchmark's
own generator code.

``ReferenceClock`` then converts an interval of wall time into reference
seconds: the interval less the sampling inside it, at the speed sampled
around it, where one unit takes ``REFERENCE_UNIT_S``.  A change to
``extremal`` never moves the unit, so it moves reference seconds in full.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import signal
import statistics
import time

import gen

# The unit's graphs are made once; the unit itself only runs the clique search,
# which allocates next to no objects that the garbage collector tracks, so
# sampling does not shift when the program's collections fall.
UNIT_GRAPHS = [gen.random_clique_free(random.Random(s), 24, 4, 0.0, 0.8)[1:] for s in range(4)]
UNIT_ROUNDS = 8
# One unit's duration at the reference speed: roughly its median on a two-vCPU
# Intel Xeon virtual machine, so reference seconds read close to seconds there.
REFERENCE_UNIT_S = 0.003
SAMPLE_EVERY_S = 0.1
WARM_UP = 3  # units run untimed first, so the interpreter has specialized them
BURST = 10  # units timed back to back when sampling starts, right after set-up


def unit() -> None:
    """A fixed piece of pure-Python work: exact clique numbers of K4-free
    graphs by branch and bound."""
    for _ in range(UNIT_ROUNDS):
        for n, edges in UNIT_GRAPHS:
            gen.clique_number(n, edges)


class Sampler:
    """Times ``unit`` on every ``SIGALRM`` of an interval timer; ``samples``
    holds (start on the monotonic clock, duration) pairs.  ``burst`` holds
    the units timed back to back at the start, right after set-up: they tell
    the speed during set-up, but the speed they show differs from the speed
    while the jobs run, so only set-up is converted with them."""

    def __init__(self) -> None:
        self.burst: list[tuple[float, float]] = []
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that lands inside a sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap, not the host
        try:
            start = time.monotonic()
            unit()
            self.samples.append((start, time.monotonic() - start))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self) -> "Sampler":
        for _ in range(WARM_UP):
            unit()
        for _ in range(BURST):
            self.sample()
        self.burst, self.samples = self.samples, []
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


class ReferenceClock:
    """One child's speed over time, from its samples.

    The speed over an interval is the mean speed of the samples within
    ``WINDOW_S`` of it.  Samples fall at even steps of time, so over a long
    interval that mean is the work done per second, however the speed moved.
    """

    WINDOW_S = 0.5

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("the child took no speed sample")
        samples = sorted(samples)
        self.starts = [s for s, _ in samples]
        self.durations = [d for _, d in samples]
        self._sampled = [0.0, *itertools.accumulate(self.durations)]

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per second over the wall interval [start, end];
        outside the samples the nearest ones count."""
        lo = bisect.bisect_left(self.starts, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + self.WINDOW_S)
        if lo == hi:  # no sample near the interval: the nearest one
            lo = min(lo, len(self.starts) - 1)
            if lo > 0 and start - self.starts[lo - 1] < self.starts[lo] - end:
                lo -= 1
            hi = lo + 1
        return statistics.fmean(REFERENCE_UNIT_S / d for d in self.durations[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """The wall interval [start, end], less the sampling inside it, in
        reference seconds.  A sample runs on the measured thread, so one that
        starts inside the interval also ends inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = (end - start) - (self._sampled[hi] - self._sampled[lo])
        return busy * self.speed(start, end)
