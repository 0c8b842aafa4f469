#!/usr/bin/env python3
"""Builds the syncpat benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 syncbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0

The syncbench binary is configured and built under .bench_build/ in the current
directory (an incremental no-op after the first run).  Build output goes to
stderr; the binary's standard output, whose last line is the JSON result, is
passed through unchanged.  The exit code is the binary's, or non-zero when the
build fails, in which case no result is printed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "syncbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return build_dir / "syncbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out_dir = Path.cwd() / ".bench_build"
    try:
        binary = build(out_dir / "syncbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"error: benchmark build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", str(BENCH_DIR / "digests.txt")]
    if args.trace:
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
