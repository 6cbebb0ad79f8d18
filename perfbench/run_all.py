"""T1: run every workload over several seeds and write raw JSON records.

Usage (from the repository root)::

    python3 perfbench/run_all.py                      # all workloads, seeds 1-10
    python3 perfbench/run_all.py --workloads serve-mix --seeds 1 2 3 --trace

Each ``(workload, mode)`` pair gets ``perfbench/out/raw/<workload>-<mode>.json``
holding the commit, a host fingerprint, every run's full record and, per
metric, N, the median and the quartiles.  ``to_csv.py`` (T2) flattens the
records and ``report.py`` (T3) prints them.  Runs are sequential: the load
generator of each workload already uses the host's two cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vals in values.items():
        q1, q3 = (statistics.quantiles(vals, n=4)[0::2] if len(vals) > 1 else (vals[0], vals[0]))
        out[name] = {"unit": units[name], "n": len(vals), "median": statistics.median(vals),
                     "q1": q1, "q3": q3, "min": min(vals), "max": max(vals)}
    return out


def main(argv: Any = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="T1: run workloads, write raw JSON records")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]))
    parser.add_argument("--trace", action="store_true", help="also run the traced mode")
    parser.add_argument("--out", default=str(HERE / "out" / "raw"))
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rev = commit()
    for workload in args.workloads:
        for trace in ((0, 1) if args.trace else (0,)):
            runs: List[Dict[str, Any]] = []
            with tempfile.NamedTemporaryFile("r", suffix=".jsonl", dir=str(out_dir)) as tmp:
                for seed in args.seeds:
                    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds),
                           "--trace", str(trace), "--raw", tmp.name]
                    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
                    if proc.returncode != 0:
                        print(proc.stdout + proc.stderr, file=sys.stderr)
                        return proc.returncode
                    print(f"{workload} trace={trace} seed={seed}: {proc.stdout.splitlines()[-1][:160]}",
                          flush=True)
                runs = [json.loads(line) for line in Path(tmp.name).read_text().splitlines()]
            record = {
                "workload": workload, "mode": "traced" if trace else "untraced",
                "commit": rev, "host": runs[0]["host"], "seconds": args.seconds,
                "seeds": args.seeds, "metrics": summarise(runs), "runs": runs,
            }
            path = out_dir / f"{workload}-{record['mode']}.json"
            path.write_text(json.dumps(record, indent=1))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
