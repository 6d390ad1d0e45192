#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the simulator libraries and the benchmark binary from source into
.bench_build/lnicbench (an optimized CMake build of lnicbench/), then runs
one workload and relays the binary's output. The last stdout line is the
result JSON: {"correct", "attempted", "failed", "metrics"}.

    python3 lnicbench/run.py --workload web_open --seed 1 --seconds 30 --trace 0

Workloads: web_open, kv_txn (see lnicbench/README.md).
--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes the traced round's spans to .bench_build/spans/<workload>-seed<N>.json.
The default seed is 1; seed 2027 is held out for re-checking a claim.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "lnicbench"
WORKLOADS = ("web_open", "kv_txn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lnicbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; "
             "run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "lnicbench", "-j", jobs],
    ]
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr)
            except FileNotFoundError:
                fail("cmake not found")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return BUILD / "lnicbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
