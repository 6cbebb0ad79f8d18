"""Host speed index: a fixed calibration loop timed in the same run.

The shared 2-core host runs for seconds to minutes at a time in a slower
regime (up to 1.8x slower), which moves every timing of a run together.
A fixed piece of work -- the same mix of interpreted heap and dictionary
work and NumPy sorting that the scheduler's own code does, and no code of
the program -- is timed right before and after every measured operation
(or round of concurrent operations, or set-up step), and each timing is
divided by the mean of its two neighbours.
Rates and latencies are reported at the reference speed, i.e. as they
would read on this host in its usual fast regime; the raw figures are
printed beside them.  Measured over two minutes of 8-second windows on
the reference host, the median of a 2k-task ``schedule_graph`` call's
time divided by its neighbouring calibration time stayed within
1.98-2.19 while the median raw time ranged over 15.2-21.0 ms.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional

import numpy as np

#: The calibration loop's time on the reference host in its usual fast regime.
REFERENCE_MS = 5.5
_RNG = np.random.default_rng(12345)
_KEYS = _RNG.integers(0, 1 << 30, size=40_000)
_ORDER = _KEYS.tolist()[:6000]


def calibration_ms() -> float:
    """One timed run of the calibration loop, in milliseconds."""
    t0 = time.perf_counter()
    heap: List[int] = []
    last = {}  # dictionary stores, like the scheduler's bookkeeping
    for i, k in enumerate(_ORDER):
        heapq.heappush(heap, k)
        last[k & 1023] = i
    while heap:
        heapq.heappop(heap)
    np.lexsort((_KEYS, _KEYS >> 7))
    np.maximum.reduceat(_KEYS, np.arange(0, _KEYS.size, 8))
    return (time.perf_counter() - t0) * 1e3


class SpeedIndex:
    """Calibration samples paired with the timings they normalise.

    Each measured time is divided by the calibration time sampled around
    it (the mean of the samples just before and just after, both outside
    the timed region), and multiplied by
    :data:`REFERENCE_MS`: the result reads as the time the same work
    takes on the reference host in its fast regime.  Pairing each timing
    with its own neighbour follows the host's regime from moment to moment.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last: Optional[float] = None

    def pair(self, count: int = 1) -> float:
        """Time the calibration loop ``count`` times now, in ms.

        Returns the mean of this median and the previous call's, i.e. the
        host speed on both sides of the operation timed in between.
        """
        vals = sorted(calibration_ms() for _ in range(count))
        self.samples.extend(vals)
        now = vals[len(vals) // 2]
        value = now if self._last is None else (now + self._last) / 2
        self._last = now
        return value

    @staticmethod
    def at_reference(seconds: float, calibration: float) -> float:
        """``seconds`` measured next to a ``calibration`` ms sample, at reference speed."""
        return seconds * REFERENCE_MS / calibration
