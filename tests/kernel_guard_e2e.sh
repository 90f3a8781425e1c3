#!/usr/bin/env sh
# The kernel guard's --e2e gate (tools/check_kernel_perf.py) on the committed
# quick-run fixtures in tests/data/kernel_guard: it passes on the good set and
# fails with a non-zero exit, naming the cause, on each copy of it that one
# edit below makes bad.
#
# Usage: kernel_guard_e2e.sh <python3> <repo-root>
set -u

PY="$1"
ROOT="$2"
DATA="$ROOT/tests/data/kernel_guard"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fails=0

# expect <case> <exit code> <stderr substring> [<workload> <sed script>]
# Copies the good set to $WORK/<case>, applies the sed script to
# <workload>-seed1.txt (a script of "rm" deletes the file), and runs the guard.
expect() {
  name="$1"
  want="$2"
  needle="$3"
  dir="$WORK/$name"
  cp -R "$DATA/good" "$dir"
  if [ $# -ge 5 ]; then
    file="$dir/$4-seed1.txt"
    if [ "$5" = rm ]; then
      rm "$file"
    else
      sed "$5" "$file" >"$file.new" && mv "$file.new" "$file"
    fi
  fi
  "$PY" "$ROOT/tools/check_kernel_perf.py" "$DATA/kernels.jsonl" \
    "$DATA/baseline.json" --e2e "$dir" \
    >"$WORK/out.log" 2>"$WORK/err.log"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL [$name]: expected exit $want, got $got" >&2
    sed 's/^/  /' "$WORK/out.log" "$WORK/err.log" >&2
    fails=$((fails + 1))
  elif [ -n "$needle" ] && ! grep -qF -- "$needle" "$WORK/err.log"; then
    echo "FAIL [$name]: stderr lacks '$needle'" >&2
    sed 's/^/  stderr: /' "$WORK/err.log" >&2
    fails=$((fails + 1))
  else
    echo "ok [$name]: exit $got"
  fi
}

expect good 0 ""
expect rss_over 1 "service_mix: peak RSS 160.0 MB exceeds the baseline" \
  service_mix 's/"peak_rss_mb": {"value": [0-9.]*/"peak_rss_mb": {"value": 160.0/'
expect ratio_under 1 "variation_corners: setup / op p50 32.4x is below the floor" \
  variation_corners 's/"setup_s": {"value": [0-9.]*/"setup_s": {"value": 0.5/'
expect failed 1 "fullchip_100k: 2 of 54 ops failed" \
  fullchip_100k 's/"failed": 0/"failed": 2/'
expect incorrect 1 "variation_corners: correct is false" \
  variation_corners 's/"correct": true/"correct": false/'
expect missing 1 "service_mix: no result in" service_mix rm
expect full_run 1 "is not a --quick run" fullchip_100k 's/quick=1/quick=0/'

if [ "$fails" -ne 0 ]; then
  echo "$fails kernel guard case(s) failed" >&2
  exit 1
fi
