"""Machine-speed calibration for the benchmark's time metrics.

On a shared host the speed of one core changes by up to about 2x within
seconds, and those changes move every timing of a run together. The
benchmark therefore times a fixed pure-Python loop, the kind of work voacalc
does (small `Fraction` products summed into a dict with tuple keys, then a
chain of `Fraction` operations whose numbers grow to a few hundred bits),
around each thing it times, and scales the timing by REFERENCE_S / loop
time: the result is the time the work takes when the loop takes
REFERENCE_S, that is at one fixed speed of the machine. voacalc's code never
runs inside the loop, so a change to the program moves the scaled times and
not the scale.

This module uses the standard library only and does not import voacalc.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

DICT_ITERATIONS = 800
CHAIN_ITERATIONS = 300
# seconds the loop takes at the reference speed (about its median on the
# machine the benchmark was built on, an Intel Xeon vCPU under Python 3.11)
REFERENCE_S = 0.0060
# while an item runs, the loop is also timed this often: in a worker, and in
# a process that makes one CLI call or one set-up probe (about 0.1 s long)
SAMPLE_INTERVAL_S = 0.2
CHILD_INTERVAL_S = 0.03
# the first sample comes early, so that a short item is also sampled inside
FIRST_SAMPLE_S = 0.004


def _loop() -> int:
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(DICT_ITERATIONS):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + step * (i % 5 + 1)
    x = Fraction(3, 7)
    for i in range(CHAIN_ITERATIONS):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    return len(acc) + x.denominator.bit_length()


def calibrate() -> float:
    """Seconds the fixed loop takes now. The collector is paused, so the
    size of the caller's heap does not change the loop's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, loop_times: list) -> float:
    """`seconds` at the reference speed, from the loop times taken around
    and during it."""
    return seconds * REFERENCE_S * len(loop_times) / sum(loop_times)


class Sampler:
    """Times the loop every `interval` seconds while it is running,
    from a SIGALRM handler in the main thread, so that an item lasting
    seconds is scaled by the speed during it and not only at its ends.
    `stop()` returns the loop times and the seconds the handler took, which
    the caller subtracts from the item's time."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S, self.interval)

    def stop(self) -> tuple[list, float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return self.samples, self.paused
