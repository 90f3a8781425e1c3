#!/usr/bin/env bash
# Machine-checks the race-freedom claim of the parallel evaluation engine:
# configures a sanitizer-instrumented build (-DTSV_SANITIZE=...) and runs
# the `tsan`-labeled parallel test suite under it.
#
# Usage:
#   tools/run_tsan.sh                 # ThreadSanitizer, build-tsan/
#   tools/run_tsan.sh build-asan address,undefined
#
# Any report (race, leak, UB) makes the instrumented tests — and hence this
# script — fail.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${2:-thread}"
BUILD_DIR="${1:-build-${SANITIZER//,/-}}"

cmake -B "$BUILD_DIR" -S . \
  -DTSV_SANITIZE="$SANITIZER" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

# Only the parallel suite needs instrumented binaries; building just these
# targets keeps the sanitizer build turnaround short.
cmake --build "$BUILD_DIR" -j --target \
  test_parallel test_superposition test_interactive_stage \
  test_framework_parallel test_tiled_evaluator test_koz \
  test_incremental_engine test_surrogate test_grid_window test_disc_pass \
  test_run_schedule test_variation test_server_concurrent

(cd "$BUILD_DIR" && ctest -L tsan --output-on-failure -j)
echo "sanitizer=${SANITIZER}: all labeled tests passed with zero reports"
