#!/usr/bin/env python3
"""CI guard for the Stage I/II point-kernel timings.

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

With --variation, the guard additionally checks bench_variation's
results/variation.jsonl against the baseline's "variation" section: at the
baseline TSV count, a Monte Carlo variation sample streamed through the
resident incremental engine must stay at least `min_sample_speedup` times
cheaper than a cold full recompute (speedup_cold in the row — fresh
characterization + engine build per sample). Host-speed independent, like
the batch-speedup floors.

With --fullchip, the guard also compares bench_fullchip's peak_rss_mb
against the committed per-design peaks in the baseline's "rss" section
(a list of {tsvs, spacing_um, peak_rss_mb, max_growth} entries). This
check FAILS the job on growth beyond `max_growth` (an earlier warn-only
variant let a 2x regression linger).

Usage:
  tools/check_kernel_perf.py <kernels.jsonl> <baseline.json>
  tools/check_kernel_perf.py <kernels.jsonl> <baseline.json> \
      --variation results/variation.jsonl --fullchip results/fullchip.jsonl
  tools/check_kernel_perf.py <kernels.jsonl> <baseline.json> --write-baseline

--write-baseline refreshes the committed timings from the given run
(keeping the existing speedup floors and the variation/rss sections)
instead of checking.
"""

import argparse
import json
import sys

MODES = ("scalar", "batch")
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
    data = {"max_regression": max_regression, "kernels": kernels}
    if "variation" in old:
        data["variation"] = old["variation"]
    if "rss" in old:
        data["rss"] = old["rss"]
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(f"wrote {baseline_path}")


def latest_variation_row(path, min_tsvs):
    """Last bench_variation row at >= min_tsvs TSVs, or None."""
    latest = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("bench") != "variation":
                continue
            if row.get("tsvs", 0) >= min_tsvs:
                latest = row
    return latest


def check_variation(path, baseline):
    spec = baseline.get("variation")
    if spec is None:
        return ["baseline has no 'variation' section (add one or drop "
                "--variation)"]
    tsvs = spec.get("tsvs", 1000)
    floor = spec.get("min_sample_speedup", 50.0)
    row = latest_variation_row(path, tsvs)
    if row is None:
        return [f"variation: no row with tsvs >= {tsvs} in {path}"]
    speedup = row.get("speedup_cold", 0.0)
    verdict = "ok" if speedup >= floor else "BELOW FLOOR"
    print(f"variation @ {row['tsvs']} TSVs: per-sample speedup "
          f"{speedup:.1f}x vs cold full recompute "
          f"(floor {floor:.1f}x) {verdict}")
    if speedup < floor:
        return [f"variation: per-sample speedup {speedup:.1f}x at "
                f"{row['tsvs']} TSVs is below the floor {floor:.1f}x"]
    return []


def latest_fullchip_row(path, tsvs, spacing):
    """Last bench_fullchip row at the baseline design point, or None."""
    latest = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("bench") != "fullchip":
                continue
            if row.get("tsvs") != tsvs:
                continue
            if spacing is not None and row.get("spacing_um") != spacing:
                continue
            latest = row
    return latest


def check_rss(path, baseline):
    """Failing memory guard: each committed per-design peak in the
    baseline's "rss" list must not grow more than its `max_growth`
    fraction. Accepts the legacy single-dict form too.
    """
    specs = baseline.get("rss")
    if specs is None:
        print("rss: baseline has no 'rss' section; skipping")
        return []
    if isinstance(specs, dict):
        specs = [specs]
    failures = []
    for spec in specs:
        tsvs = spec.get("tsvs", 1000)
        spacing = spec.get("spacing_um")
        row = latest_fullchip_row(path, tsvs, spacing)
        if row is None:
            where = f"tsvs == {tsvs}"
            if spacing is not None:
                where += f", spacing_um == {spacing}"
            failures.append(f"rss: no fullchip row with {where} in {path}")
            continue
        measured = row.get("peak_rss_mb", 0.0)
        base = spec["peak_rss_mb"]
        max_growth = spec.get("max_growth", 0.25)
        allowed = base * (1.0 + max_growth)
        verdict = "ok" if measured <= allowed else "GREW"
        print(f"fullchip rss @ {tsvs} TSVs: peak {measured:.1f} MB "
              f"(baseline {base:.1f}, allowed <= {allowed:.1f}) {verdict}")
        if measured > allowed:
            failures.append(
                f"fullchip peak RSS {measured:.1f} MB at {tsvs} TSVs "
                f"exceeds the baseline {base:.1f} MB by more than "
                f"{100 * max_growth:.0f}%")
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
        floor = spec.get("min_speedup")
        batch = rows.get((kernel, "batch"))
        if floor is not None and batch is not None:
            speedup = batch.get("speedup", 0.0)
            verdict = "ok" if speedup >= floor else "BELOW FLOOR"
            print(f"{kernel}: batch speedup {speedup:.3f}x "
                  f"(floor {floor:.3f}x) {verdict}")
            if speedup < floor:
                failures.append(
                    f"{kernel}: batch speedup {speedup:.3f}x is below the "
                    f"floor {floor:.3f}x")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jsonl", help="kernels.jsonl from bench_micro_kernels")
    parser.add_argument("baseline", help="committed baseline json")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh the baseline from this run's rows")
    parser.add_argument("--variation", metavar="PATH", default=None,
                        help="also check bench_variation's variation.jsonl "
                             "against the baseline's per-sample floor")
    parser.add_argument("--fullchip", metavar="PATH", default=None,
                        help="also gate bench_fullchip's per-design peak "
                             "RSS ('rss' section)")
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
    if args.variation is not None:
        failures += check_variation(args.variation, baseline)
    if args.fullchip is not None:
        failures += check_rss(args.fullchip, baseline)
    if failures:
        print("\nkernel perf guard FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nkernel perf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
