"""Independent schedule oracle.

Checks a schedule against the benchmark's own copy of the input (the
:class:`~flbbench.inputs.GraphInput` arrays), using only NumPy: it shares
no code with ``repro.core`` or ``repro.verify``.  The schedule is read
through its public per-task accessors only.

The machine is the paper's: ``P`` identical processors, a message between
tasks on different processors costs the edge's communication weight, and
one on the same processor costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from flbbench.inputs import TABLE1, TABLE1_MAKESPAN, GraphInput

#: Relative tolerance for float comparisons of times.
EPS = 1e-9


@dataclass(frozen=True)
class Placements:
    """Placement vectors (one entry per placed task) and the reported makespan.

    ``records`` is how many placements the schedule says it holds; a
    task placed twice shows as more records than placed tasks.
    """

    task: np.ndarray  # int64 task ids, any order
    proc: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    makespan: float
    records: int


def placements_of(schedule: Any) -> Placements:
    """Read a ``repro`` schedule through its public per-task accessors."""
    n = schedule.graph.num_tasks
    placed = [t for t in range(n) if schedule.is_scheduled(t)]
    return Placements(
        task=np.asarray(placed, dtype=np.int64),
        proc=np.asarray([schedule.proc_of(t) for t in placed], dtype=np.int64),
        start=np.asarray([schedule.start_of(t) for t in placed], dtype=np.float64),
        finish=np.asarray([schedule.finish_of(t) for t in placed], dtype=np.float64),
        makespan=float(schedule.makespan),
        records=len(schedule),
    )


def critical_path(graph: GraphInput) -> float:
    """Longest computation-only path (ids are topologically ordered)."""
    n = graph.num_tasks
    order = np.argsort(graph.dst, kind="stable")
    src, dst = graph.src[order].tolist(), graph.dst[order].tolist()
    comps = graph.comps.tolist()
    finish = list(comps)
    # Edges sorted by destination: every predecessor's finish is final
    # before any edge into a higher id is relaxed.
    k = 0
    for t in range(n):
        best = 0.0
        while k < len(dst) and dst[k] == t:
            f = finish[src[k]]
            if f > best:
                best = f
            k += 1
        finish[t] = comps[t] + best
    return max(finish)


def check(
    graph: GraphInput,
    procs: int,
    pl: Placements,
    cp: Optional[float] = None,
) -> List[str]:
    """Every violated property, as readable strings (empty when correct)."""
    n = graph.num_tasks
    errors: List[str] = []
    counts = np.bincount(pl.task, minlength=n) if pl.task.size else np.zeros(n, int)
    if pl.task.size and (pl.task.min() < 0 or pl.task.max() >= n):
        return [f"placement names a task outside 0..{n - 1}"]
    if counts.size != n or np.any(counts != 1):
        bad = np.flatnonzero(counts != 1)[:5].tolist()
        return [f"tasks not placed exactly once: {bad}"]
    if pl.records != n:
        return [f"schedule holds {pl.records} placement records for {n} tasks"]
    if np.any((pl.proc < 0) | (pl.proc >= procs)):
        errors.append(f"processor outside 0..{procs - 1}")
    proc = np.empty(n, np.int64)
    start = np.empty(n)
    finish = np.empty(n)
    proc[pl.task], start[pl.task], finish[pl.task] = pl.proc, pl.start, pl.finish
    scale = max(1.0, float(np.abs(finish).max(initial=0.0)))
    tol = EPS * scale
    if np.any(start < -tol):
        errors.append("negative start time")
    if np.any(np.abs(finish - (start + graph.comps)) > tol):
        bad = np.flatnonzero(np.abs(finish - (start + graph.comps)) > tol)[:5]
        errors.append(f"finish != start + comp for tasks {bad.tolist()}")
    by = np.lexsort((start, proc))
    same = proc[by][1:] == proc[by][:-1]
    overlap = start[by][1:] < finish[by][:-1] - tol
    if np.any(same & overlap):
        i = int(np.flatnonzero(same & overlap)[0])
        errors.append(f"tasks {int(by[i])} and {int(by[i + 1])} overlap on "
                      f"processor {int(proc[by][i])}")
    delay = np.where(proc[graph.src] != proc[graph.dst], graph.comm, 0.0)
    early = start[graph.dst] < finish[graph.src] + delay - tol
    if np.any(early):
        i = int(np.flatnonzero(early)[0])
        errors.append(f"task {int(graph.dst[i])} starts before its message from "
                      f"task {int(graph.src[i])} arrives")
    latest = float(finish.max())
    if abs(pl.makespan - latest) > tol:
        errors.append(f"makespan {pl.makespan!r} != latest finish {latest!r}")
    if cp is None:
        cp = critical_path(graph)
    if pl.makespan < cp - tol:
        errors.append(f"makespan {pl.makespan} below the critical path {cp}")
    if pl.makespan < float(graph.comps.sum()) / procs - tol:
        errors.append(f"makespan {pl.makespan} below total work / P")
    return errors


def table1_errors(pl: Placements) -> List[str]:
    """Differences from Table 1 of the paper (Fig. 1 graph, P=2)."""
    errors: List[str] = []
    got: Dict[int, Tuple[int, float, float]] = {
        int(t): (int(p), float(s), float(f))
        for t, p, s, f in zip(pl.task, pl.proc, pl.start, pl.finish)
    }
    for task, want in sorted(TABLE1.items()):
        if got.get(task) != want:
            errors.append(f"t{task}: expected p{want[0]} [{want[1]:g}-{want[2]:g}], "
                          f"got {got.get(task)}")
    if pl.makespan != TABLE1_MAKESPAN:
        errors.append(f"makespan {pl.makespan} != {TABLE1_MAKESPAN}")
    return errors


def same_placements(a: Placements, b: Placements) -> bool:
    """Two runs of a deterministic scheduler must agree exactly."""
    ia, ib = np.argsort(a.task), np.argsort(b.task)
    return (
        a.makespan == b.makespan
        and np.array_equal(a.task[ia], b.task[ib])
        and np.array_equal(a.proc[ia], b.proc[ib])
        and np.array_equal(a.start[ia], b.start[ib])
    )
