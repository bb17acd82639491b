#!/usr/bin/env python3
"""Build and run the paper-scale benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: steady_paper, churn_storm. The first call in a
checkout configures and builds the library sources and the benchmark
binary (CMake, Release) under .bench_build/ (or $CARGO_TARGET_DIR);
later calls only rebuild what changed. The last line of stdout is the
run's JSON result; build output goes to stderr. Exits nonzero, printing
no result, when the build or any correctness check fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("steady_paper", "churn_storm")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources not found at "
                 f"{ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    sys.stdout.flush()
    done = subprocess.run([str(binary), "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
