#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

Usage (from the repository root):
  python3 perfbench/spread.py --workload local_churn --seeds 5 \
      [--seconds 15] [--first-seed 1]

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles(values, n=4)) as a share of their
median — the figure a metric's "bound" in BENCHMARK.json must cover.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        figures = " ".join(f"{name}={metric['value']:.4g}"
                           for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} {lines[-3] if len(lines) > 2 else ''}"
              f"\n  {figures}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"{name:40s} median={statistics.median(vals):.6g} "
              f"spread={spread:.4f} bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
