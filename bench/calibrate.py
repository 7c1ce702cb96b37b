"""Machine-speed reference for a shared, noisy host.

The effective speed of a small shared machine drifts by tens of percent from
one run to the next.  To keep runs comparable, the benchmark interleaves a
fixed pure-Python kernel with the work it times and scales every time it
reports to a reference speed:

    scaled time = raw time * (measured kernel rate / REFERENCE_RATE)

A run on a machine (or in a moment) where the kernel runs at
``REFERENCE_RATE`` reports raw times unchanged; a run slowed by contention
reports what the same work would have taken at the reference speed.  The raw
values and the measured rate go into each run's details.
"""

import math
import time

REFERENCE_RATE = 700.0   # kernel runs per second; a typical rate on a 2-vCPU Xeon VM
SHARE = 0.1              # calibration time per second of timed work


def kernel() -> int:
    """Fixed work resembling the program's interpreter-bound paths:
    float math, 15-digit formatting, list and dict traffic."""
    acc = 0.0
    parts = []
    table = {}
    for i in range(1500):
        x = i * 0.001
        acc += math.sin(x) * x
        parts.append(f"{acc:.15g}")
        table[i & 63] = acc
    return len(",".join(parts)) + len(table)


class Meter:
    """Runs the kernel in proportion to the timed work and reports its rate."""

    def __init__(self):
        self.runs = 0
        self.seconds = 0.0
        self._owed = 0.0

    def sample(self, runs: int = 1):
        start = time.perf_counter()
        for _ in range(runs):
            kernel()
        self.seconds += time.perf_counter() - start
        self.runs += runs

    def after(self, timed_seconds: float):
        """Call after each timed interval: keeps calibration at SHARE of it."""
        self._owed += SHARE * timed_seconds
        while self._owed > 0.0:
            start = time.perf_counter()
            self.sample()
            self._owed -= time.perf_counter() - start

    def rate(self) -> float:
        return self.runs / self.seconds

    def scale(self) -> float:
        """Factor that converts a raw time into a reference-speed time."""
        return self.rate() / REFERENCE_RATE
