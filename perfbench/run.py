#!/usr/bin/env python3
"""Builds the mdos benchmark driver and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload consume_mapped --seed 1 \
      --seconds 15 --trace 0

The driver is compiled from this checkout's sources into the build
directory named by $CARGO_TARGET_DIR (default .bench_build); the first
run configures and builds, later runs rebuild incrementally. Build output
goes to stderr, so the last line of stdout is always the driver's JSON
result. Extra arguments (--toy, --corrupt-crc) pass through to the
driver; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Hard cap on one driver run; the driver itself ends well before this.
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def reject_instrumented_build(cache: Path):
    """Refuses a build tree configured with sanitizers, fuzzing or -O0."""
    if not cache.exists():
        return
    for line in cache.read_text().splitlines():
        key, _, value = line.partition("=")
        value = value.strip()
        if key.startswith("SANITIZE:") and value:
            sys.exit(f"perfbench: refusing sanitizer build ({line.strip()})")
        if key.startswith("MDOS_FUZZ:") and value.upper() in ("ON", "TRUE", "1"):
            sys.exit(f"perfbench: refusing fuzz build ({line.strip()})")
        if key.startswith("CMAKE_BUILD_TYPE:") and \
                value not in ("Release", "RelWithDebInfo"):
            sys.exit(f"perfbench: refusing CMAKE_BUILD_TYPE={value or '<empty>'}")


def build(build_dir: Path) -> Path:
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no mdos sources at {ROOT} (need src/ and "
                 f"CMakeLists.txt next to perfbench/)")
    cache = build_dir / "CMakeCache.txt"
    reject_instrumented_build(cache)
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
        reject_instrumented_build(cache)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "mdos_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "mdos_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    out = build_root()
    try:
        binary = build(out / "perfbench")
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Unix-socket paths are limited to 107 bytes; a path relative to the
    # checkout root (the driver's working directory) keeps them short.
    out_rel = os.path.relpath(out, ROOT)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out-dir", out_rel, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
