"""A clock that runs at the machine's speed, for steady timings on a shared host.

On a small shared virtual machine the CPU's speed is not fixed: it flips
between a fast and a slow state (≈1.8x apart) every few seconds, and the mix
drifts over minutes, so raw wall times of the same work spread by half
between runs. `MachineClock` measures how fast the machine is running while
the benchmark works, and reads the time in *yardstick seconds*: wall time
scaled to a machine on which `yardstick()` takes exactly YARDSTICK_S.

It times `yardstick()` -- a small fixed piece of work that never touches the
program -- whenever `sample()` is called (the benchmark calls it just before
every timed step it measures) and, from a SIGALRM interval timer, every
TICK_S while the program runs, so that a job of many seconds is measured at
the speeds it ran at. Between two samples the clock advances at
YARDSTICK_S / (latest yardstick time) per wall second; the yardstick's own
time is left out. The timer only runs between `start()` and `stop()`, in the
one thread of the process; it changes when the program runs, never what it
computes.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List, Tuple

import numpy as np

YARDSTICK_S = 0.0025  # the yardstick's time on a 2-vCPU Xeon VM in its fast state
TICK_S = 0.2
_MASK = (1 << 64) - 1
_M = np.uint64(0x94D049BB133111EB)
_K = np.uint64(27)


def yardstick() -> float:
    """Time a fixed piece of work -- splitmix64 on Python ints with a dict
    tally, then numpy uint64 scalar and small-array ops, the kinds of work
    the sketches do -- and return its wall seconds."""
    t0 = time.perf_counter()
    tally: Dict[int, int] = {}
    z = 0
    for i in range(3000):
        z = (z + 0x9E3779B97F4A7C15 + i) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        tally[z & 255] = tally.get(z & 255, 0) + 1
    a = np.arange(64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(300):
            a = (a ^ (a >> _K)) * _M
            x = np.uint64(i) * _M
            a[i & 63] ^= x ^ (x >> _K)
    dt = time.perf_counter() - t0
    if len(tally) != 256:
        raise AssertionError("the yardstick's work changed")
    return dt


class MachineClock:
    """Reads yardstick seconds; see the module docstring."""

    def __init__(self) -> None:
        # (wall time of the last sample's end, clock reading then, rate):
        # replaced whole by each sample, so that `now()` can read it safely
        # while the timer may fire.
        self._state: Tuple[float, float, float] = (time.perf_counter(), 0.0, 1.0)
        self._busy = False
        self.samples: List[float] = []

    def sample(self, *_signal_args) -> None:
        """Time the yardstick once and advance at the speed it shows."""
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        try:
            a = time.perf_counter()
            y = yardstick()
            b = time.perf_counter()
            wall, now, rate = self._state
            self._state = (b, now + (a - wall) * rate, YARDSTICK_S / y)
            self.samples.append(y)
        finally:
            self._busy = False

    def now(self) -> float:
        while True:
            state = self._state
            t = time.perf_counter()
            if self._state is state:
                wall, now, rate = state
                return now + (t - wall) * rate

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_speed(self) -> float:
        """Yardstick seconds per wall second, averaged over the samples."""
        return YARDSTICK_S * len(self.samples) / sum(self.samples)
