"""Measure the faults and waste the benchmark exposes, with numbers.

Usage (from the repository root)::

    python3 perfbench/findings.py [--seed 1]

Each finding prints one line; ``perfbench/README.md`` records the figures
measured on the reference host.  The inputs are the benchmark's own
seeded graphs (``flbbench.inputs``).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def best_ms(fn: Callable[[], Any], repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times)


def inline_double_parse(seed: int) -> str:
    """SchedulingService.register_graph re-serialises a parsed document."""
    from repro.graph.io import from_json

    from flbbench import inputs

    graph = inputs.pool_graphs(seed, 1, inputs.INLINE_STREAM)[0]
    text = graph.doc_text()
    doc = json.loads(text)
    dumps = best_ms(lambda: json.dumps(doc))
    parse = best_ms(lambda: json.loads(text))
    whole = best_ms(lambda: from_json(json.dumps(doc)))
    return (f"inline registration: json.dumps of the parsed document {dumps:.1f} ms plus a "
            f"second json.loads {parse:.1f} ms inside from_json, of {whole:.1f} ms for "
            f"dumps + from_json (V={graph.num_tasks})")


def attach_redecode(seed: int) -> str:
    """The 4-entry attach cache misses once requests rotate over 8 graphs."""
    import random

    from repro import graphstore

    from flbbench import inputs

    pool = inputs.pool_graphs(seed, inputs.POOL_WINDOW, inputs.MISS_STREAM)
    store = graphstore.GraphStore()
    try:
        keys = [store.register(g.build()) for g in pool]
        buf = graphstore.encode_graph(pool[0].build())
        decode = best_ms(lambda: graphstore.decode_graph(buf))
        graphstore.clear_worker_cache()
        rng = random.Random(seed)
        for _ in range(400):
            graphstore.attach(rng.choice(keys))
        info = graphstore.worker_cache_info()
        graphstore.clear_worker_cache()
    finally:
        store.close()
    ratio = info["hits"] / (info["hits"] + info["misses"])
    return (f"attach cache: {info['capacity']} entries, {len(pool)} graphs in rotation -> hit ratio "
            f"{ratio:.2f} over 400 attaches; each miss re-decodes for {decode:.1f} ms (V~2000)")


def hits_behind_misses(seed: int) -> str:
    """Cache hits wait behind misses at the single locked dispatcher."""
    from flbbench import inputs, workloads

    pool = inputs.pool_graphs(seed, inputs.POOL_WINDOW, inputs.MISS_STREAM)
    log = workloads.OUT / f"findings-serve-s{seed}.log"
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    _, server, fps = workloads.start_and_register(pool, log)
    try:
        conn = server.connect()
        warm = [(g, 2 + g) for g in range(len(pool))]
        for g, p in warm:
            workloads.post(conn, "/v1/schedule", workloads.schedule_body(fps[g], p))

        def hits(n: int) -> List[float]:
            lat = []
            for i in range(n):
                g, p = warm[i % len(warm)]
                t0 = time.perf_counter()
                workloads.post(conn, "/v1/schedule", workloads.schedule_body(fps[g], p))
                lat.append((time.perf_counter() - t0) * 1e3)
            return lat

        alone = hits(200)
        stop = threading.Event()

        def misses() -> None:
            other = server.connect()
            p = 100
            while not stop.is_set():
                workloads.post(other, "/v1/schedule", workloads.schedule_body(fps[p % len(pool)], p))
                p += 1
            other.close()

        t = threading.Thread(target=misses)
        t.start()
        try:
            behind = hits(200)
        finally:
            stop.set()
            t.join()
        conn.close()
    finally:
        server.stop()
    return (f"result-cache hits: p50 {statistics.median(alone):.2f} ms on one connection, "
            f"{statistics.median(behind):.2f} ms while a second connection sends misses")


def certify_ratio(seed: int) -> str:
    """The FLB replay certificate against the kernel on a 24k-task FFT."""
    import numpy as np

    from repro.api import SchedulingOptions, schedule_graph
    from repro.machine.model import MachineModel
    from repro.verify.certify import certify

    from flbbench import inputs

    graph = inputs.make_graph("fft-2048", "fft", (2048,), 1.0, np.random.default_rng([seed, 9]))
    built = graph.build()
    opts = SchedulingOptions(machine=MachineModel(8))
    kernel = best_ms(lambda: schedule_graph(built.copy(mutable=True).freeze(), opts), 3)
    schedule = schedule_graph(built, opts)
    cert = best_ms(lambda: certify(schedule, flavor="flb"), 1)
    return (f"certify(flavor='flb') on FFT V={graph.num_tasks} W=2048 P=8: {cert:.0f} ms "
            f"against {kernel:.0f} ms for schedule_graph ({cert / kernel:.0f}x)")


def drain_traceback(seed: int) -> str:
    """An idle keep-alive connection at drain logs a CancelledError traceback."""
    from flbbench import inputs, workloads

    pool = inputs.pool_graphs(seed, 1, inputs.MISS_STREAM)
    log = workloads.OUT / f"findings-drain-s{seed}.log"
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    log.write_bytes(b"")
    _, server, fps = workloads.start_and_register(pool, log)
    conn = server.connect()
    try:
        workloads.post(conn, "/v1/schedule", workloads.schedule_body(fps[0], 4))
        server.proc.send_signal(signal.SIGTERM)
        server.proc.wait(timeout=60)
    finally:
        conn.close()
        server.stop()
    text = log.read_text(errors="replace")
    found = "CancelledError" in text and "Traceback" in text
    return (f"drain with an idle keep-alive connection: exit code {server.proc.returncode}, "
            f"CancelledError traceback in the server log: {'yes' if found else 'no'}")


def rss_growth(seed: int) -> str:
    """The serving process's metrics registry keeps one event per request."""
    from flbbench import inputs, workloads
    from flbbench.stats import pid_status_mb

    pool = inputs.pool_graphs(seed, 1, inputs.MISS_STREAM)
    log = workloads.OUT / f"findings-rss-s{seed}.log"
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    _, server, fps = workloads.start_and_register(pool, log)
    try:
        conn = server.connect()
        body = workloads.schedule_body(fps[0], 4)
        sent = 0
        rss = {}
        for mark in (1000, 5000):
            while sent < mark:
                workloads.post(conn, "/v1/schedule", body)
                sent += 1
            rss[mark] = pid_status_mb(server.proc.pid, "VmRSS")
        conn.close()
        first, last = rss[1000], rss[5000]
    finally:
        server.stop()
    return (f"serving process RSS after 1000 identical cache-hit requests {first:.1f} MB, after "
            f"5000 {last:.1f} MB: {(last - first) * 1024 / 4000:.2f} KB per request retained")


FINDINGS = [inline_double_parse, attach_redecode, hits_behind_misses, certify_ratio, drain_traceback,
            rss_growth]


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description="measure the benchmark's findings")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for finding in FINDINGS:
        print(f"- {finding(args.seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
