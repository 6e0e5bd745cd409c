#!/usr/bin/env python3
"""Self-test of the benchmark driver: every workload at toy size.

Usage (from the repository root):
  python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that:
  * an untraced run is correct, fails nothing, and prints every
    end-to-end metric with the declared unit (and nothing else);
  * a traced run does the same for every per-layer metric and writes
    its span file;
  * a run whose expected CRC is deliberately corrupted (--corrupt-crc)
    reports correct=false and exits non-zero.
Also checks that an unknown workload is refused. Exits non-zero on the
first failed expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace=0, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def expect(cond, message, proc=None):
    if cond:
        return
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    sys.exit(1)


def check_metrics(result, declared, label, proc):
    got = result["metrics"]
    expect(set(got) == set(declared),
           f"{label}: metrics {sorted(set(got) ^ set(declared))} differ "
           f"from BENCHMARK.json", proc)
    for name, unit in declared.items():
        expect(got[name]["unit"] == unit,
               f"{label}: {name} has unit {got[name]['unit']}, want {unit}", proc)
        expect(isinstance(got[name]["value"], (int, float)),
               f"{label}: {name} is not a number", proc)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        proc, result = run(workload)
        label = f"{workload} untraced"
        expect(proc.returncode == 0 and result is not None,
               f"{label}: exit {proc.returncode}", proc)
        expect(result["correct"] is True and result["failed"] == 0 and
               result["attempted"] >= 1, f"{label}: {result}", proc)
        check_metrics(result, end_to_end, label, proc)

        proc, result = run(workload, 1)
        label = f"{workload} traced"
        expect(proc.returncode == 0 and result is not None,
               f"{label}: exit {proc.returncode}", proc)
        expect(result["correct"] is True and result["failed"] == 0,
               f"{label}: {result}", proc)
        check_metrics(result, per_layer, label, proc)
        expect(result["metrics"]["trace.spans"]["value"] > 0,
               f"{label}: no spans recorded", proc)
        trace_lines = [l for l in proc.stdout.splitlines() if l.startswith("trace: ")]
        expect(trace_lines and (ROOT / trace_lines[0].split()[1]).is_file(),
               f"{label}: span file missing", proc)

        proc, result = run(workload, 0, "--corrupt-crc")
        label = f"{workload} corrupted CRC"
        expect(proc.returncode != 0, f"{label}: run did not fail", proc)
        expect(result is not None and result["correct"] is False,
               f"{label}: result not marked incorrect", proc)
        print(f"ok  {workload}")

    proc, result = run("no_such_workload")
    expect(proc.returncode != 0 and result is None,
           "unknown workload was not refused", proc)
    print("ok  unknown workload refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
