"""Stop and wait for every process a benchmark run started.

Two kinds of process can outlive the code that started them:

* ``multiprocessing``'s resource tracker.  The first ``SharedMemory``
  segment a process creates (``repro.graphstore``) starts it as a child,
  and it only exits once every holder of its pipe has closed it, which
  for the benchmark's own tracker is at interpreter exit: it would still
  be running, cleaning up, after the benchmark has printed its result.
* the children of a child, such as the serving process's own resource
  tracker, which are re-parented and not waited for by anyone here.

``stop_resource_tracker`` closes the tracker's pipe and waits for it;
``wait_ended`` waits for a set of processes (by pid) to end, killing
any that are still running after a grace period.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Iterable, List, Set

#: Seconds a process is given to end on its own before it is killed.
GRACE = 30.0


def children(pid: int) -> List[int]:
    """The direct children of ``pid`` (every thread's), from ``/proc``."""
    found: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                found.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return found


def descendants(pid: int) -> Set[int]:
    """Every live descendant of ``pid``."""
    seen: Set[int] = set()
    todo = children(pid)
    while todo:
        child = todo.pop()
        if child not in seen:
            seen.add(child)
            todo.extend(children(child))
    return seen


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] not in ("Z", "X")


def _reap(pid: int) -> None:
    """Collect ``pid``'s exit status if it is our child (no-op otherwise)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def wait_ended(pids: Iterable[int], grace: float = GRACE) -> None:
    """Wait until each of ``pids`` has ended; kill those still running
    after ``grace`` seconds and wait for them too."""
    left = set(pids)
    deadline = time.monotonic() + grace
    killed = False
    while True:
        for pid in list(left):
            _reap(pid)
            if not running(pid):
                left.discard(pid)
        if not left:
            return
        if time.monotonic() >= deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(left)} did not end after SIGKILL")
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """Close this process's resource-tracker pipe and wait for the tracker."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None or pid is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
    wait_ended([pid])


def stop_all() -> None:
    """Stop this process's resource tracker, then wait for any other
    descendant of this process to end."""
    stop_resource_tracker()
    wait_ended(descendants(os.getpid()))
