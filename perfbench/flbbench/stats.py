"""Summary statistics and process measurements for the benchmark."""

from __future__ import annotations

import math
import resource
import statistics
import threading
from typing import Any, Iterable, List, Optional, Sequence

#: A reported tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-quantile that leaves ``min_beyond`` samples above it.

    Raises :class:`ValueError` when the sample is too small for ``q`` to
    be a tail with at least ``min_beyond`` samples beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {min_beyond} (>= {tail_samples_needed(q, min_beyond)} samples)"
        )
    return sorted(values)[rank - 1]


def tail_samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which ``percentile(q)`` is defined."""
    n = 1
    while n - max(1, math.ceil(q * n)) < min_beyond:
        n += 1
    return n


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_status_mb(pid: int, field: str = "VmHWM") -> Optional[float]:
    """A memory field (peak ``VmHWM`` by default) of a live process from
    ``/proc``, in MB; ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def private_mb(pid: int) -> Optional[float]:
    """Private resident memory of a live process (pages no other process
    maps: ``Private_Clean`` + ``Private_Dirty`` of ``smaps_rollup``), in
    MB; ``None`` once the process is gone."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        return None
    return total / 1024.0


def child_pids(tid: int) -> List[int]:
    """Live child processes forked by thread ``tid`` of this process."""
    try:
        with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


class ChildMemory:
    """Peak private memory of the children forked by the calling thread.

    A forked child's RSS also holds every page it shares with its parent,
    so it would count the parent again; its private memory is what the
    child adds.  While the ``with`` block runs, a background thread sums
    the private memory of the live children every ``interval`` seconds
    and keeps the largest sum (``peak_mb``) and the number of samples that
    saw a child (``samples``).
    """

    def __init__(self, interval: float = 0.01) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self.samples = 0
        self._tid = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="child-memory", daemon=True)

    def __enter__(self) -> "ChildMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            sizes = [private_mb(pid) for pid in child_pids(self._tid)]
            sizes = [mb for mb in sizes if mb is not None]
            if sizes:
                self.samples += 1
                self.peak_mb = max(self.peak_mb, sum(sizes))
