#!/usr/bin/env python3
"""CI guard for the Stage I/II point-kernel timings and the e2e quick run.

bench_micro_kernels appends one row per (kernel, mode) to
results/kernels.jsonl; this script compares the latest rows against the
committed baseline (tools/kernel_baseline.json) and fails when

  * any ns_per_eval regresses more than `max_regression` (default 25%)
    over its baseline value, or
  * a kernel's batch-row speedup — measured within the same run, so it is
    host-speed independent — drops below the baseline's `min_speedup`
    floor. For stage1_point the speedup is batch-vs-scalar; for
    stage2_surrogate it is surrogate-batch vs the Stage II exact series
    (the stage2_series row, which has no batch row and no floor).

stage2_surrogate also has three pair rows, guarded by the same regression
bound: "pair" (ns per pair-point on one victim's 493-point disc, a fresh
pitch every pair, so the pitch contraction is included), "contraction"
(ns per pair for the contraction alone) and "run" (ns per pair-point when
the same disc takes 9 fresh-pitch aggressors per call through the run
kernel, which folds them into one chip-frame series). The batch row times one fixed pitch, where
the contraction memo always hits. The run row carries a second
host-independent floor: its "speedup" (pair / run, same run) must stay at
or above the baseline's `min_run_speedup`.

stage1_window times Stage I on one 65 536-point tile of a seeded 10k
full-chip design, 1 thread: "point" is the point-major evaluation (a TSV
query per point), "window" the disc-major one on the tile as a grid window.
The window row's "speedup" (point / window, same run) must stay at or above
the baseline's `min_window_speedup`.

stage1_disc times RadialStressTable::accumulate on one gathered 25 um disc
(the 493 points of the stage2_surrogate pair rows), 1 thread, the call the
fused Stage I + II pass makes once per TSV: "scalar" is the per-point
reference loop, "dispatch" the SIMD variant selected for the host (bitwise
the same values). The dispatch row's "speedup" (scalar / dispatch, same
run) must stay at or above the baseline's `min_disc_speedup`.

With --e2e DIR, the guard also gates a quick run of the end-to-end
benchmark (`python3 bench/e2e/run.py --quick --out DIR`) against the
baseline's "e2e" section: one `max_growth` bound and, per workload, a
`peak_rss_mb` baseline and an optional `min_setup_op_ratio` floor. It reads
the result object on the last line of each DIR/<workload>-seed1.txt and
fails when the file is missing, the run was not --quick, the result is not
`correct`, any op `failed`, peak_rss_mb grew beyond
`peak_rss_mb * (1 + max_growth)`, or the same-run ratio
1e3 * setup_s / op_p50_ms fell below `min_setup_op_ratio`. For
variation_corners that ratio is cold characterization + build over one
sample on one corner. Both terms come from the same run, but they do not
scale alike with host load (the setup builds four corners in parallel), so
the ratio moves with the host; EXPERIMENTS.md records its spread.

Usage:
  tools/check_kernel_perf.py <kernels.jsonl> <baseline.json>
  tools/check_kernel_perf.py <kernels.jsonl> <baseline.json> --e2e results/e2e
  tools/check_kernel_perf.py <kernels.jsonl> <baseline.json> --write-baseline

--write-baseline refreshes the committed timings from the given run
(keeping the existing speedup floors and the e2e section) instead of
checking.
"""

import argparse
import json
import os
import sys

MODES = ("scalar", "batch", "pair", "contraction", "run", "point", "window",
         "dispatch")
# Same-run ratio floors: (baseline key, row mode whose "speedup" it bounds).
FLOORS = (("min_speedup", "batch"), ("min_run_speedup", "run"),
          ("min_window_speedup", "window"), ("min_disc_speedup", "dispatch"))
# Floors used for kernels absent from the baseline when writing a fresh one.
DEFAULT_MIN_SPEEDUP = {
    "stage1_point": 2.0,
    "stage2_surrogate": 6.0,
}


def latest_rows(path):
    """Last row per (kernel, mode) in file order."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("bench") != "kernels":
                continue
            rows[(row["kernel"], row["mode"])] = row
    return rows


def write_baseline(rows, baseline_path, old, max_regression):
    kernels = {}
    for (kernel, mode), row in sorted(rows.items()):
        spec = kernels.setdefault(kernel, {})
        spec[f"{mode}_ns_per_eval"] = row["ns_per_eval"]
    for kernel, spec in kernels.items():
        old_spec = old.get("kernels", {}).get(kernel, {})
        floor = old_spec.get("min_speedup", DEFAULT_MIN_SPEEDUP.get(kernel))
        if floor is not None and "batch_ns_per_eval" in spec:
            spec["min_speedup"] = floor
        for key, mode in FLOORS[1:]:
            if key in old_spec and f"{mode}_ns_per_eval" in spec:
                spec[key] = old_spec[key]
    data = {"max_regression": max_regression, "kernels": kernels}
    if "e2e" in old:
        data["e2e"] = old["e2e"]
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(f"wrote {baseline_path}")


def e2e_result(path):
    """(header, result) of one run.py output file: the first line names the
    run's settings, the last holds the result object."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError("empty file")
    return lines[0], json.loads(lines[-1])


def check_e2e(directory, baseline):
    section = baseline.get("e2e")
    if not section:
        return ["baseline has no 'e2e' section (add one or drop --e2e)"]
    max_growth = section["max_growth"]
    failures = []
    for workload, spec in section["workloads"].items():
        path = os.path.join(directory, f"{workload}-seed1.txt")
        try:
            header, result = e2e_result(path)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
        except (OSError, ValueError, KeyError, TypeError) as e:
            failures.append(f"{workload}: no result in {path} ({e})")
            continue
        if "quick=1" not in header.split():
            failures.append(f"{workload}: {path} is not a --quick run")
        if result.get("correct") is not True:
            failures.append(f"{workload}: correct is "
                            f"{json.dumps(result.get('correct'))}")
        failed = result.get("failed", 0)
        if failed > 0:
            failures.append(f"{workload}: {failed} of "
                            f"{result.get('attempted')} ops failed")

        rss = metrics.get("peak_rss_mb", float("inf"))
        allowed = spec["peak_rss_mb"] * (1.0 + max_growth)
        verdict = "ok" if rss <= allowed else "GREW"
        print(f"{workload}: peak RSS {rss:.1f} MB (baseline "
              f"{spec['peak_rss_mb']:.1f}, allowed <= {allowed:.1f}) "
              f"{verdict}")
        if rss > allowed:
            failures.append(
                f"{workload}: peak RSS {rss:.1f} MB exceeds the baseline "
                f"{spec['peak_rss_mb']:.1f} MB by more than "
                f"{100 * max_growth:.0f}%")

        floor = spec.get("min_setup_op_ratio")
        if floor is None:
            continue
        op_ms = metrics.get("op_p50_ms", 0.0)
        ratio = 1e3 * metrics.get("setup_s", 0.0) / op_ms if op_ms > 0 else 0
        verdict = "ok" if ratio >= floor else "BELOW FLOOR"
        print(f"{workload}: setup / op p50 {ratio:.1f}x "
              f"(floor {floor:.1f}x) {verdict}")
        if ratio < floor:
            failures.append(f"{workload}: setup / op p50 {ratio:.1f}x is "
                            f"below the floor {floor:.1f}x")
    return failures


def check(rows, baseline):
    failures = []
    max_regression = baseline.get("max_regression", 0.25)
    for kernel, spec in baseline["kernels"].items():
        for mode in MODES:
            key = f"{mode}_ns_per_eval"
            if key not in spec:
                continue
            row = rows.get((kernel, mode))
            if row is None:
                failures.append(f"{kernel}/{mode}: no row in kernels.jsonl")
                continue
            measured = row["ns_per_eval"]
            allowed = spec[key] * (1.0 + max_regression)
            verdict = "ok" if measured <= allowed else "REGRESSED"
            print(f"{kernel}/{mode}: {measured:.3f} ns/eval "
                  f"(baseline {spec[key]:.3f}, allowed <= {allowed:.3f}) "
                  f"{verdict}")
            if measured > allowed:
                failures.append(
                    f"{kernel}/{mode}: {measured:.3f} ns/eval exceeds "
                    f"baseline {spec[key]:.3f} by more than "
                    f"{100 * max_regression:.0f}%")
        for key, mode in FLOORS:
            floor = spec.get(key)
            row = rows.get((kernel, mode))
            if floor is None:
                continue
            if row is None:
                failures.append(f"{kernel}/{mode}: no row for the {key} "
                                f"floor in kernels.jsonl")
                continue
            speedup = row.get("speedup", 0.0)
            verdict = "ok" if speedup >= floor else "BELOW FLOOR"
            print(f"{kernel}: {mode} speedup {speedup:.3f}x "
                  f"(floor {floor:.3f}x) {verdict}")
            if speedup < floor:
                failures.append(
                    f"{kernel}: {mode} speedup {speedup:.3f}x is below the "
                    f"floor {floor:.3f}x")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jsonl", help="kernels.jsonl from bench_micro_kernels")
    parser.add_argument("baseline", help="committed baseline json")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh the baseline from this run's rows")
    parser.add_argument("--e2e", metavar="DIR", default=None,
                        help="also gate the run.py --quick results in DIR "
                             "('e2e' section)")
    parser.add_argument("--max-regression", type=float, default=None,
                        help="override the baseline's allowed fraction")
    args = parser.parse_args()

    rows = latest_rows(args.jsonl)
    if not rows:
        print(f"error: no kernel rows found in {args.jsonl}", file=sys.stderr)
        return 1

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        if not args.write_baseline:
            print(f"error: baseline {args.baseline} not found "
                  f"(create it with --write-baseline)", file=sys.stderr)
            return 1
        baseline = {}

    if args.max_regression is not None:
        baseline["max_regression"] = args.max_regression

    if args.write_baseline:
        write_baseline(rows, args.baseline, baseline,
                       baseline.get("max_regression", 0.25))
        return 0

    failures = check(rows, baseline)
    if args.e2e is not None:
        failures += check_e2e(args.e2e, baseline)
    if failures:
        print("\nkernel perf guard FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nkernel perf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
