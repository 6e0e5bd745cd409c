#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against
this checkout.

Usage (from the repository root):
  python3 tools/bench_ab.py --base HEAD~1 [--pairs 10] [--seconds 20]
      [--workloads consume_mapped,local_churn] [--first-seed 101]

The base revision is checked out as a detached `git worktree` under
.bench_build/ab/<sha>/ (reused by later runs). Each side runs its own
perfbench/run.py, built into its own CARGO_TARGET_DIR under
.bench_build/ab/. The change side is this working tree, edits included.

Pair i uses seed first-seed + i for both sides and alternates which side
runs first, so a drift in host load lands on both sides alike. Each run
prints its end-to-end metrics as it ends. For every end-to-end metric in
BENCHMARK.json the final report gives each side's median
and quartiles, the pairs the change wins, the median change, whether the
gap between the medians exceeds the base's quartile distance (IQR), and
the bound check: the change's median may be worse than the base's by at
most the metric's relative bound.

Exits 1 if any run is not correct, if the change fails a larger share of
operations than the base on some workload, or if a metric breaks its
bound. Remove the worktree with
`git worktree remove .bench_build/ab/<sha>`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / ".bench_build" / "ab"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def base_tree(rev):
    """Returns (checkout, build dir) of the base side."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = AB / sha[:12]
    if not tree.exists():
        AB.mkdir(parents=True, exist_ok=True)
        git("worktree", "add", "--detach", str(tree), sha)
    if not (tree / "perfbench" / "run.py").is_file():
        sys.exit(f"bench_ab: {rev} has no perfbench/run.py")
    return tree, AB / (sha[:12] + "-target")


def run_once(tree, target, workload, seed, seconds):
    """One perfbench run; returns its JSON result, or None if it broke."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(workload, spec, runs):
    """Prints one workload's table; returns the problems it found."""
    problems = []
    for side in ("base", "change"):
        broken = [r for r in runs[side] if r is None or not r["correct"]]
        if broken:
            problems.append(f"{workload}: {len(broken)} {side} run(s) broken "
                            f"or not correct")
    if problems:
        return problems
    share = {side: sum(r["failed"] for r in runs[side]) /
             max(1, sum(r["attempted"] for r in runs[side]))
             for side in ("base", "change")}
    if share["change"] > share["base"]:
        problems.append(f"{workload}: failed share rose from "
                        f"{share['base']:.3g} to {share['change']:.3g}")
    print(f"\n{workload}  (pairs={len(runs['base'])}, failed share "
          f"base={share['base']:.3g} change={share['change']:.3g})")
    print(f"{'metric':12s} {'base median [q1, q3]':>28s} "
          f"{'change median [q1, q3]':>28s} {'wins':>6s} {'change':>8s} "
          f"{'>IQR':>5s}  bound")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, bmed, b3 = quartiles(base)
        c1, cmed, c3 = quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        rel = (cmed - bmed) / bmed if bmed else 0.0
        worse = rel if lower else -rel
        within = worse <= metric["bound"]
        if not within:
            problems.append(f"{workload}: {name} worse by {worse:+.1%}, bound "
                            f"{metric['bound']:.0%}")
        base_cell = f"{bmed:.4g} [{b1:.4g}, {b3:.4g}]"
        change_cell = f"{cmed:.4g} [{c1:.4g}, {c3:.4g}]"
        print(f"{name:12s} {base_cell:>28s} {change_cell:>28s} "
              f"{f'{wins}/{len(base)}':>6s} {rel:>+8.1%} "
              f"{'yes' if abs(cmed - bmed) > b3 - b1 else 'no':>5s}  "
              f"{'ok' if within else 'FAIL'} ({metric['bound']:.0%})")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD",
                        help="base revision (default HEAD: the working "
                             "tree's uncommitted change against its commit)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads",
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    sides = {"base": base_tree(args.base),
             "change": (ROOT, AB / "change-target")}

    results = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                result = run_once(*sides[side], workload, seed, seconds)
                results[workload][side].append(result)
                brief = "broken" if result is None else " ".join(
                    [f"correct={result['correct']}",
                     f"failed={result['failed']}"] +
                    [f"{name}={result['metrics'][name]['value']:.4g}"
                     for name in (m["name"] for m in spec["end_to_end"])])
                print(f"pair {i + 1}/{args.pairs} seed {seed} {workload} "
                      f"{side}: {brief}", flush=True)

    problems = []
    for workload in workloads:
        problems += report(workload, spec, results[workload])
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
