"""A fixed pure-Python and NumPy reference loop, timed as host context.

The host this benchmark runs on changes speed by a fifth or more within
minutes.  A figures run therefore times the reference loop around each
set-up and before every app row of a pass, and divides each wall-clock
time by the host's speed over that span of work: the mean of the
reference times taken in it, over ``NOMINAL_MS``.  On a 24-pass figures
probe of one seed this narrowed the pass-time spread (quartile distance
over median) from 0.20 to 0.09.  Serve runs time the loop between phase
chunks as context only: dividing by it did not narrow their spreads.
"""

from __future__ import annotations

import time

import numpy as np

#: the reference loop's time on an unloaded 2-CPU host; a metric divided
#: by the host factor reads as if measured at this speed
NOMINAL_MS = 15.0


def _python_loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return acc + len(table)


def _numpy_loop() -> int:
    # small arrays: the loop also runs inside the measured service, whose
    # peak memory must not grow by it
    rng = np.random.default_rng(7)
    acc = 0
    for _ in range(10):
        data = rng.integers(0, 1 << 30, size=20_000, dtype=np.int64)
        data.sort()
        acc ^= int(np.bitwise_xor.reduce(data[::7]))
    return acc


class HostClock:
    """Reference-loop samples taken through one run."""

    def __init__(self):
        self.samples_ms: list[float] = []

    def sample(self) -> float:
        """Time the reference loop once; returns milliseconds."""
        start = time.perf_counter()
        _python_loop()
        _numpy_loop()
        elapsed = (time.perf_counter() - start) * 1e3
        self.samples_ms.append(elapsed)
        return elapsed

    def mean_ms(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms)

    def factor(self) -> float:
        """How much slower than nominal the host ran (>1 is slower)."""
        return factor(*self.samples_ms)


def factor(*samples_ms: float) -> float:
    """Host factor of some reference-loop samples (>1 is slower)."""
    return sum(samples_ms) / len(samples_ms) / NOMINAL_MS
