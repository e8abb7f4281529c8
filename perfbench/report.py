"""Run every workload in its own process and print one table.

    python3 perfbench/report.py --seed 1 --seconds 25 [--trace 1]

Each row is one metric of one workload with its unit; for the end-to-end
run the sample count and the tail percentile follow.  Exits non-zero if a
workload fails or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every perfbench workload and print its metrics.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        details = record.get("end_to_end", {})
        fail = record["fail_ratio"]
        print(f"== {name}  seed {args.seed}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            extra = details.get(metric, {})
            notes = "  ".join(f"{k}={extra[k]}" for k in ("samples", "percentile") if k in extra)
            print(f"  {metric:42s} {entry['value']:>16.6g} {entry['unit']:<6s} {notes}")
        print(f"  {'fail_ratio':42s} {fail['value']:>16.6g} {fail['unit']:<6s} attempted={result['attempted']}")
        if not result["correct"]:
            print("  failures: " + "; ".join(record["failures"]))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
