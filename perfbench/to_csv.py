"""T2: flatten the raw JSON records of ``run_all.py`` into one CSV.

Usage (from the repository root)::

    python3 perfbench/to_csv.py            # perfbench/out/raw/*.json -> perfbench/out/results.csv
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

COLUMNS = ("workload", "mode", "metric", "unit", "n", "median", "q1", "q3", "min", "max",
           "commit", "cpu", "nproc", "python", "numpy", "numba")


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description="T2: raw JSON records -> CSV")
    parser.add_argument("--raw", default=str(HERE / "out" / "raw"))
    parser.add_argument("--out", default=str(HERE / "out" / "results.csv"))
    args = parser.parse_args(argv)
    paths = sorted(Path(args.raw).glob("*.json"))
    if not paths:
        print(f"no raw records in {args.raw}; run perfbench/run_all.py first", file=sys.stderr)
        return 1
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for path in paths:
            record = json.loads(path.read_text())
            host = record["host"]
            for metric, s in record["metrics"].items():
                writer.writerow([
                    record["workload"], record["mode"], metric, s["unit"], s["n"],
                    s["median"], s["q1"], s["q3"], s["min"], s["max"], record["commit"],
                    host["cpu"], host["nproc"], host["python"], host["numpy"], host["numba"],
                ])
    print(f"wrote {args.out} from {len(paths)} record(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
