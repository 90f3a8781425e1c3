#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs: the parent commit and a change.

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds run outputs as written by `run.py --out DIR` (one file
per workload and seed; the header line names the workload, the last line is
the result object). Runs of the same workload and seed on the two sides form
a pair. Per workload and end-to-end metric (directions and regression bounds
from BENCHMARK.json) the verdict is:

  gain        at least 10 pairs, the change better in at least 9 of 10 pairs
              (ties count for neither), and the medians apart by more than the
              parent's interquartile range; no more failed operations;
  regression  the change's median worse than the parent's by more than the
              metric's bound (a share of the parent median);
  unresolved  the parent's own spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run;
  same        none of the above.

Prints one row per workload and exits 1 when any metric regressed.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HEADER = re.compile(r"bench_e2e workload=(\S+) seed=(\d+) .*trace=(\d)")


def parse_result(line):
    """The result object on `line`, or None."""
    if not line.startswith("{"):
        return None
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    return result if "metrics" in result else None


def load(directory):
    """{workload: {seed: result}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.txt")):
        lines = path.read_text().strip().splitlines()
        head = next((m for m in map(HEADER.search, lines) if m), None)
        if head is None or head.group(3) != "0":
            continue
        result = next((r for r in map(parse_result, reversed(lines)) if r),
                      None)
        if result is None:
            print(f"compare.py: no result in {path}", file=sys.stderr)
            continue
        runs.setdefault(head.group(1), {})[int(head.group(2))] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, pairs, parent_failed, change_failed):
    """Returns (verdict, detail) for one metric over (parent, change) pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    p_lo, p_med, p_hi = quartiles(par)
    _, c_med, _ = quartiles(chg)
    change = (c_med - p_med) / p_med if p_med else 0.0
    worse_by = sign * change
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    detail = (f"{p_med:.4g} -> {c_med:.4g} ({change:+.1%}), "
              f"wins {wins}/{len(pairs)}, parent IQR {p_hi - p_lo:.3g}")
    if worse_by > bound:
        return "regression", detail
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (p_med - c_med) > p_hi - p_lo
            and change_failed <= parent_failed):
        return "gain", detail
    all_better = all(sign * (c - p) < 0 for c in chg for p in par)
    if p_med and (p_hi - p_lo) / p_med > bound and not all_better:
        return "unresolved", detail
    return "same", detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", type=Path,
                    default=Path(__file__).resolve().parents[2] /
                    "BENCHMARK.json")
    args = ap.parse_args()
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    regressed = False
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {})) &
                       set(change.get(workload, {})))
        if not seeds:
            print(f"{workload}: no paired runs")
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        incorrect = sum(not r["correct"] for r in c_runs)
        print(f"{workload}: {len(seeds)} pairs, failed ops {p_failed} -> "
              f"{c_failed}, incorrect change runs {incorrect}")
        for m in metrics:
            pairs = [(p["metrics"][m["name"]]["value"],
                      c["metrics"][m["name"]]["value"])
                     for p, c in zip(p_runs, c_runs)
                     if m["name"] in p["metrics"] and
                     m["name"] in c["metrics"]]
            if not pairs:
                print(f"  {m['name']:<14} missing")
                continue
            v, detail = verdict(m, pairs, p_failed, c_failed)
            flag = " <-- unresolved" if v == "unresolved" else ""
            print(f"  {m['name']:<14} {v:<11} {detail}{flag}")
            regressed |= v == "regression"
        regressed |= c_failed > p_failed or incorrect > 0
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
