"""T3: print every metric of ``results.csv`` by name, with its unit.

Usage (from the repository root)::

    python3 perfbench/report.py            # reads perfbench/out/results.csv

One block per workload and mode; each line gives the metric, its median
with the quartile spread as a share of the median, N, and the unit.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description="T3: print the metrics in results.csv")
    parser.add_argument("--csv", default=str(HERE / "out" / "results.csv"))
    args = parser.parse_args(argv)
    path = Path(args.csv)
    if not path.is_file():
        print(f"no {path}; run perfbench/run_all.py and perfbench/to_csv.py first", file=sys.stderr)
        return 1
    blocks: Dict[tuple, List[Dict[str, str]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            blocks.setdefault((row["workload"], row["mode"]), []).append(row)
    for (workload, mode), rows in blocks.items():
        head = rows[0]
        print(f"== {workload} ({mode})  commit {head['commit'][:12]}  {head['cpu']}, "
              f"nproc {head['nproc']}, Python {head['python']}, NumPy {head['numpy']}, "
              f"numba {head['numba']}")
        for row in rows:
            med = float(row["median"])
            spread = (float(row["q3"]) - float(row["q1"])) / med if med else float("nan")
            print(f"  {row['metric']:<30} {med:>14.6g} {row['unit']:<8} "
                  f"IQR/median {spread:6.3f}  N={row['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
