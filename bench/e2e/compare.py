#!/usr/bin/env python3
"""Summarise or compare bench_e2e result files.

    python3 bench/e2e/compare.py RESULTS.jsonl
        Per workload and end-to-end metric: the median, quartiles and number
        of runs, and the spread (q3 - q1) / median next to the metric's
        bound from BENCHMARK.json.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl
        One row per workload and metric, with a verdict:
          gain        at least 10 pairs, the change wins >= 90% of them (ties
                      count for neither) and the medians differ by more than
                      the parent's own q3 - q1;
          regression  the change's median is worse than the parent's by more
                      than the metric's bound;
          unresolved  the parent's spread is wider than the bound, unless
                      every change run reads better than every parent run;
          no change   none of the above.
        Exits 1 when any row is a regression.

A result file is the results.jsonl bench_e2e appends one line to per run
(it sits next to the binary, in .bench_build/e2e/). Only timed (--trace 0)
runs that passed their checks are read. Pairs are formed in file order per
workload, so run the parent and the change alternately, on the same seeds.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_metrics():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path):
    """{workload: {metric: [value per run, in file order]}} and the hosts."""
    runs = defaultdict(lambda: defaultdict(list))
    hosts = set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        if r["trace"] or not r["correct"]:
            continue
        hosts.add(json.dumps(r["host"], sort_keys=True))
        for name, m in r["metrics"].items():
            runs[r["workload"]][name].append(m["value"])
    return runs, hosts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(path, metrics):
    runs, hosts = load_runs(path)
    for h in hosts:
        print(f"host: {h}")
    print(f"{'workload':<16} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3} {'spread':>7} {'bound':>6}")
    for workload, by_metric in runs.items():
        for name, values in by_metric.items():
            q1, med, q3 = quartiles(values)
            bound = metrics.get(name, {}).get("bound", float("nan"))
            print(f"{workload:<16} {name:<14} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {len(values):>3} {(q3 - q1) / med:>7.3f} "
                  f"{bound:>6.3f}")
    return 0


def verdict(parent, change, better, bound):
    """The row's verdict and the number of pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * p_med:
        return "regression", wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p_q3 - p_q1):
        return "gain", wins, len(pairs)
    return "no change", wins, len(pairs)


def compare(parent_path, change_path, metrics):
    parent, parent_hosts = load_runs(parent_path)
    change, change_hosts = load_runs(change_path)
    if parent_hosts != change_hosts:
        print("warning: the two files were not measured on one host "
              "(or one build configuration)")
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'wins':>7}  verdict")
    regressions = 0
    for workload in parent:
        for name, spec in metrics.items():
            p, c = parent[workload].get(name), change.get(workload, {}).get(name)
            if not p or not c:
                print(f"{workload:<16} {name:<14} missing in one file")
                continue
            v, wins, pairs = verdict(p, c, spec["better"], spec["bound"])
            regressions += v == "regression"
            p_med, c_med = statistics.median(p), statistics.median(c)
            print(f"{workload:<16} {name:<14} {p_med:>12.6g} {c_med:>12.6g} "
                  f"{(c_med - p_med) / p_med:>+8.1%} {wins:>3}/{pairs:<3}  {v}")
    return 1 if regressions else 0


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    metrics = load_metrics()
    if len(argv) == 2:
        return summarise(argv[1], metrics)
    return compare(argv[1], argv[2], metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
