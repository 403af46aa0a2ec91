"""Machine-speed calibration for the benchmark's timings.

The shared 2-core VM this benchmark was built on runs in slow and fast
phases that last from seconds to minutes; in a slow phase every piece of
code, numpy and plain Python alike, takes up to twice as long. Wall time
alone therefore measures the neighbours as much as the program. The
benchmark runs a fixed calibration kernel between operations and scales
each operation's wall time by how long the kernel took around it, so a
reported time is the time the operation would have taken at the reference
speed.

The kernel mixes the two kinds of work the program does, in about equal
parts: small dense matrix products and solves (the shape of one Riccati
step) and a plain Python loop. It never touches the program under test, so
no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel wall time, in seconds, that defines the reference speed: the
# kernel's time in the fast phase of the 2-core VM the benchmark was tuned
# on (see README.md). A scaled time reads as wall time at that speed.
REFERENCE_KERNEL_S = 0.015

_A = np.array(
    [
        [0.9, 0.1, 0.0, 0.0],
        [0.0, 0.8, 0.2, 0.0],
        [0.0, 0.0, 0.7, 0.1],
        [0.1, 0.0, 0.0, 0.6],
    ]
)
_EYE = np.eye(4)
_ONES = np.ones(4)


def kernel() -> float:
    """The calibration work; returns a value so nothing is optimised away."""
    P = _EYE.copy()
    for _ in range(500):
        P = _A.T @ P @ _A + _EYE
        P = 0.5 * (P + P.T)
        np.linalg.solve(P, _ONES)
    acc = 0
    for k in range(120000):
        acc += k * k
    return float(P[0, 0]) + acc


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of a few kernel runs; the median drops interrupts."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Tracks the machine's speed between consecutive timed sections.

    ``mark()`` runs the kernel and returns the slowdown factor for the
    section since the previous mark: the mean of the kernel times at both
    ends, divided by the reference kernel time. Dividing a section's wall
    time by its factor gives its time at the reference speed.
    """

    def __init__(self):
        self._last = kernel_seconds()

    def mark(self) -> float:
        now = kernel_seconds()
        factor = 0.5 * (self._last + now) / REFERENCE_KERNEL_S
        self._last = now
        return factor
