"""The machine's speed, followed with a fixed piece of exact arithmetic.

The machine the benchmark was written on is a share of a host whose
other tenants come and go: for stretches of a minute or more, the same
code runs up to 45% faster or slower.  A run of a few dozen seconds
usually sits inside one such stretch, so repeating cases inside a run
does not help.  `SpeedProbe` times a reference kernel between cases,
and `scale` turns a time measured next to a sample into seconds at the
reference speed: the speed at which the kernel takes REFERENCE_S.

The kernel is the benchmark's own code, not the package's, and mixes
the kinds of work the package does: Gaussian elimination over the
rationals on two fixed matrices, arithmetic on 3000-bit integers, and
building a dict of tuples and lists.  Over seven minutes of alternating
candidate kernels with a trigonal g = 7 case, this mix followed the
case's time more closely than any one part (the spread of log(case /
kernel) was 0.069, against 0.079 to 0.150 for single parts and 0.120
uncorrected).  It runs with the garbage collector off, so how much the
package keeps in memory does not change its speed.
"""

from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.020     # the kernel's time at the reference speed
SAMPLE_REPEATS = 3      # kernel runs per sample; the sample is their median
SAMPLE_EVERY_S = 1.0    # before a case, sample again when the last is older

_RNG = random.Random(12345)
_SMALL = [[Fraction(_RNG.randint(-2**40, 2**40)) for _ in range(11)] for _ in range(11)]
_LARGE = [[Fraction(_RNG.randint(-2**20, 2**20)) for _ in range(24)] for _ in range(24)]
_A = _RNG.getrandbits(3000) | 1
_B = _RNG.getrandbits(3000) | 1


def _eliminate(matrix: list, columns: int) -> list:
    rows = [list(row) for row in matrix]
    for col in range(columns):
        pivot = rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / pivot
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return rows


def reference_kernel() -> int:
    _eliminate(_SMALL, len(_SMALL))
    _eliminate(_LARGE, 2)
    x = _A
    for _ in range(135):
        x = (x * _B) % (_A + 12345)
    table = {}
    for i in range(13000):
        table[i, i + 1, i % 7] = [i, str(i)]
    return len(table) + x % 2


class SpeedProbe:
    """Samples of the kernel's time, taken between cases."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the kernel now; the index of the new sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(SAMPLE_REPEATS):
                start = perf_counter()
                reference_kernel()
                times.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        self._last = perf_counter()
        return len(self.samples) - 1

    def before_case(self) -> int:
        """The index of the sample a case about to start follows,
        sampling first when the last sample is older than SAMPLE_EVERY_S."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor from seconds measured between samples `index` and
        `index + 1` to seconds at the reference speed.

        The kernel's speed is read as the median of the two samples
        before and the two after the call: a single sample sometimes
        catches a slowdown that the package did not see, or misses one
        it did.
        """
        around = self.samples[max(0, index - 1):index + 3]
        return REFERENCE_S / statistics.median(around)
