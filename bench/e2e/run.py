#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout, then run one workload.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The build (the repository's libraries, litmus_cli and bench_e2e, from
bench/e2e/CMakeLists.txt) goes to .bench_build/e2e at the root of the
checkout and is incremental; its log is .bench_build/e2e/build.log. The
rest is bench_e2e's: its standard output ends with one JSON result line,
and its exit code is this script's.
"""
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"


def build() -> bool:
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = BUILD / "build.log"
    steps = (
        ["cmake", "-S", str(PACKAGE), "-B", str(BUILD)],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "litmus_cli", "bench_e2e"],
    )
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write(f"run.py: build failed: {' '.join(cmd)}\n")
                return False
    return True


def main() -> int:
    if not build():
        return 1
    return subprocess.run([str(BUILD / "bench_e2e"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
