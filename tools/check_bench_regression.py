#!/usr/bin/env python3
"""Check the bench floors: each one is the ratio of two rows of one run.

A floor compares a slow row with a fast row that the same benchmark
process measured, and requires

    slow_time / fast_time >= floor

Both rows see the same host, load and build, so the host's speed cancels
out and no committed baseline is needed. FLOORS below lists every floor
CI checks; each row names its results file, the two benchmark rows, the
floor, and the claim printed when the floor is missed.

Usage:
    check_bench_regression.py [DIR]

DIR (default: the current directory) holds the BENCH_*.json files the
benchmark programs write. One line is printed per floor.

Exit status: 0 every floor met, 1 a floor missed, 2 a file or row missing.
"""

import json
import os
import sys
from typing import NamedTuple


class Floor(NamedTuple):
    file: str
    slow: str
    fast: str
    floor: float
    claim: str


FLOORS = [
    Floor("BENCH_perf.json", "BM_AssessAdaptive/0/0", "BM_AssessAdaptive/0/1",
          1.5, "adaptive early stopping cuts a decisive single assessment "
               "at 100 iterations by 1.5x (DESIGN.md §16)"),
    Floor("BENCH_kernels.json", "BM_GramAccumulate/64/0",
          "BM_GramAccumulate/64/1",
          1.5, "the native SIMD tier beats the scalar Gram accumulation "
               "kernel by 1.5x (DESIGN.md §13)"),
    Floor("BENCH_kernels.json", "BM_Predict/336/0", "BM_Predict/336/1",
          1.5, "the native SIMD tier beats the scalar predict kernel at "
               "336 rows by 1.5x (DESIGN.md §13)"),
    Floor("BENCH_kernels.json", "BM_ForecastSort/25/0",
          "BM_ForecastSort/25/1",
          1.5, "the native SIMD tier beats the scalar lane sort of a "
               "25-row forecast store by 1.5x (DESIGN.md §13)"),
    Floor("BENCH_store.json", "BM_BatchAssessAdaptive/0",
          "BM_BatchAssessAdaptive/1",
          1.5, "adaptive sampling lifts batch records/s at 100 iterations "
               "by 1.5x (DESIGN.md §16)"),
    Floor("BENCH_ingest.json", "BM_SeedParse", "BM_IngestParse/1",
          4.0, "the one-chunk fast CSV parse is 4x the seed parser "
               "(DESIGN.md §11)"),
    Floor("BENCH_ingest.json", "BM_SeedParse", "BM_SnapshotWarmLoad",
          10.0, "a warm snapshot load is 10x the seed parse (DESIGN.md §11)"),
]


def debug_build_flags(doc):
    """The manifest's build_flags when they mark an unoptimized build, else
    None. They carry opt=on/off from __OPTIMIZE__ — the compiler's view of
    the code actually being timed."""
    flags = (doc.get("manifest") or {}).get("build_flags", "")
    return flags if "opt=off" in flags else None


def load_times(path):
    """Row name -> real time, or None when the file cannot be read."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return None
    if flags := debug_build_flags(doc):
        print(f"warning: {path} looks like a debug build (build_flags="
              f"{flags!r}); re-run a Release build before reading anything "
              "into these timings", file=sys.stderr)
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        name, t = b.get("name"), b.get("real_time")
        if name is not None and t is not None:
            times[name] = float(t)
    return times


def check(floor, times):
    """Prints the floor's line; returns its exit status."""
    where = f"{floor.file}: {floor.slow} / {floor.fast}"
    if times is None:
        print(f"MISSING {where}: cannot read the file")
        return 2
    for row in (floor.slow, floor.fast):
        if times.get(row, 0.0) <= 0.0:
            print(f"MISSING {where}: no positive time for {row}")
            return 2
    speedup = times[floor.slow] / times[floor.fast]
    line = f"{where} = {speedup:.2f}x, floor {floor.floor:g}x"
    if speedup < floor.floor:
        print(f"FAIL    {line}: {floor.claim}")
        return 1
    print(f"OK      {line}")
    return 0


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    directory = argv[1] if len(argv) == 2 else "."
    files = {}
    status = 0
    for floor in FLOORS:
        if floor.file not in files:
            files[floor.file] = load_times(os.path.join(directory, floor.file))
        status = max(status, check(floor, files[floor.file]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
