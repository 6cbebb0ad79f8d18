"""Run one FLB benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 15 --trace 0

Workloads: ``paper-suite``, ``wide-certified``, ``serve-mix``,
``batch-pool`` (see ``perfbench/README.md``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (names and units as in ``BENCHMARK.json``).

``--raw PATH`` also appends the run's full record (every metric, notes,
host fingerprint) as one JSON line to ``PATH``; ``run_all.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Names and units of the metrics printed in the final JSON line.
E2E = ("setup_s", "peak_rss_mb", "tasks_per_s", "ops_per_s", "p50_ms", "p90_ms")
LAYERS = (
    "prep.bottom_levels_ms", "kernel.flb_ms", "kernel.us_per_task",
    "kernel.heap_ops_per_task", "kernel.heap_ops_per_bound", "api.overhead_ms",
    "certify.structural_ms", "certify.replay_ms", "certify.to_kernel_ratio",
    "io.from_json_ms", "graph.fingerprint_ms", "graphstore.encode_ms",
    "graphstore.decode_ms", "trace.overhead_pct",
)


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "numba": has_numba,
    }


def fmt(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw", default=None, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({ROOT / 'src' / 'repro'}) are missing", file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401

        import repro  # noqa: F401
        from flbbench import reap
        from flbbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        reap.stop_all()  # nothing the run started outlives it
    wall = time.perf_counter() - t0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall {wall:.1f} s")
    print(f"attempted {out.attempted}  failed {out.failed}  correct {str(out.correct).lower()}")
    for err in out.errors:
        print(f"  oracle: {err}")
    for name, (value, unit) in {**out.e2e, **out.named}.items():
        print(f"  {name:<28} {fmt(value):>14} {unit}")
    if args.trace:
        print("per layer:")
        for name, (value, unit) in out.layers.items():
            print(f"  {name:<28} {fmt(value):>14} {unit}")
        for name, value in out.layer_extra.items():
            if isinstance(value, tuple):
                print(f"  {name:<28} {fmt(value[0]):>14} {value[1]}")
            else:
                print(f"  {name:<28} {'n/a':>14} ({value})")
    for name, (value, unit) in out.raw.items():
        print(f"  raw {name:<24} {fmt(value):>14} {unit}")
    for note in out.notes:
        print(f"  note: {note}")

    wanted = LAYERS if args.trace else E2E
    source = out.layers if args.trace else out.e2e
    metrics = {name: {"value": source[name][0], "unit": source[name][1]} for name in wanted}
    if args.raw:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "wall_s": wall, "host": host_fingerprint(),
            "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in {**out.e2e, **out.named, **out.layers}.items()},
            "layer_extra": {k: ({"value": v[0], "unit": v[1]} if isinstance(v, tuple) else {"why": v})
                            for k, v in out.layer_extra.items()},
            "notes": out.notes, "errors": out.errors,
        }
        with open(args.raw, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
