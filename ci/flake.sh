#!/usr/bin/env bash
# Flake gate: the tier-1 suite must pass on every run, not most runs.
#
# Builds the tier-1 tree (`cmake -B build -S .`) and runs the whole suite
# under full parallel contention (`ctest -j$(nproc)`) 20 times. Any failing
# run fails the gate; every run's failing tests are printed, so one pass
# of this script also measures the flake rate. One run takes about 24 s
# on a 4-core box.
#
# Usage: ci/flake.sh
set -euo pipefail

cd "$(dirname "$0")/.."

RUNS=20
JOBS="$(nproc)"

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

failed_runs=0
for run in $(seq 1 "$RUNS"); do
  log="$(mktemp)"
  if ctest --test-dir build -j "$JOBS" --output-on-failure >"$log" 2>&1; then
    printf 'run %2d/%d: ok\n' "$run" "$RUNS"
  else
    failed_runs=$((failed_runs + 1))
    printf 'run %2d/%d: FAILED\n' "$run" "$RUNS"
    grep -E '^\[  FAILED  \] [A-Za-z]|\*\*\*(Failed|Timeout|Exception)' \
      "$log" | sort -u | sed 's/^/  /' || true
  fi
  rm -f "$log"
done

if [ "$failed_runs" -ne 0 ]; then
  echo "flake gate: $failed_runs of $RUNS runs failed" >&2
  exit 1
fi
echo "flake gate: $RUNS/$RUNS runs passed"
