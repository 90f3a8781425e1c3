#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of tsvstress.

  python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--quick] [--out DIR]

Run from the root of a source checkout. The first call configures and
builds bench_e2e and tsvstress_server into .bench_build (about a minute on
four cores); later calls rebuild only what changed. Each workload runs in its
own child process, so a crash is that workload's failure and peak memory is
per workload. The last line of standard output is the workload's result
object: {"correct", "attempted", "failed", "metrics"}; --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes the span log to
.bench_build/trace/. Without --workload every workload runs in turn. --out
DIR keeps each run's full output as DIR/<workload>-seed<N>.txt, the input of
compare.py.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fullchip_100k", "variation_corners", "service_mix")
ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
            ROOT / "CMakeLists.txt").is_file():
        die(f"no tsvstress sources under {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "bench_e2e"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail))


def stop_group(pgid):
    """Kills whatever is left of a child's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_one(workload, seed, seconds, trace, quick):
    """Runs one workload in a child process; returns (exit code, stdout)."""
    tag = f"{workload}-seed{seed}{'-trace' if trace else ''}"
    workdir = BUILD / "work" / f"{tag}-{os.getpid()}"
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "bench_e2e"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}",
           f"--workdir={workdir.relative_to(ROOT)}",
           f"--server={BUILD / 'tsvstress' / 'tools' / 'tsvstress_server'}"]
    if trace:
        cmd.append(f"--trace={trace_dir / (tag + '.json')}")
    if quick:
        cmd.append("--quick")
    # Own session: on timeout the child and the daemon it started die
    # together.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        code = child.returncode
    except subprocess.TimeoutExpired:
        stop_group(child.pid)
        out, _ = child.communicate()
        code = -1
        print(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
    stop_group(child.pid)
    shutil.rmtree(workdir, ignore_errors=True)
    return code, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: small designs, 2 s phases")
    ap.add_argument("--out", type=Path, help="keep each run's output here")
    args = ap.parse_args()
    seconds = args.seconds or (2 if args.quick else 20)

    build()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for w in workloads:
        code, out = run_one(w, args.seed, seconds, args.trace, args.quick)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            suffix = "-trace" if args.trace else ""
            (args.out / f"{w}-seed{args.seed}{suffix}.txt").write_text(out)
        lines = out.rstrip("\n").splitlines()
        if len(workloads) > 1:
            print("\n".join(lines[:-1]))
            print(f"{w}: {lines[-1] if lines else '(no result)'}")
        else:
            sys.stdout.write(out)
        if code != 0:
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
