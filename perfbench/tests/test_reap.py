"""Nothing a run starts outlives it."""

import os
import subprocess
import sys
from multiprocessing import shared_memory

from flbbench import reap


def test_resource_tracker_is_stopped_and_waited_for():
    shm = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    try:
        from multiprocessing import resource_tracker

        pid = resource_tracker._resource_tracker._pid
        assert pid is not None and reap.running(pid)
    finally:
        shm.close()
        shm.unlink()
    reap.stop_resource_tracker()
    assert not reap.running(pid)
    assert pid not in reap.children(os.getpid())


def test_wait_ended_kills_a_process_that_does_not_end():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        assert proc.pid in reap.descendants(os.getpid())
        reap.wait_ended([proc.pid], grace=0.2)
        assert not reap.running(proc.pid)
    finally:
        proc.kill()
        proc.wait()
