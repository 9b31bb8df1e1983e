#!/usr/bin/env bash
# The full local CI gate:
#
#   1. Debug build + full ctest       (lock-rank validator active)
#      + explicit `ctest -L net`       (rudp sliding-window/SACK suite)
#      + fixed-seed chaos_runner smoke (25 replayable fault schedules)
#      + pinned-seed crash-restart smoke (recovery on and off)
#      + loss-sweep bench smoke        (fast-mode JSON, parsed + shape-checked)
#      + Figure 10 bench smokes        (fig10a/fig10b in fast mode, exit 0:
#                                       the benches that hop an agent
#                                       in-process again and again)
#      + explicit `ctest -L shards`    (the sharded session table, wakeup
#                                       regressions)
#      + repository benchmark smoke    (perfbench/run.py builds and runs
#                                       churn, lifecycle and stream for 2 s)
#      + ci/flake.sh                   (tier-1 build, `ctest -j$(nproc)` 20
#                                       times, zero failing runs allowed)
#   2. Sanitize build + full ctest    (ASan + UBSan)
#      + explicit `ctest -L net`
#      + explicit `ctest -L wire`      (codec goldens + corruption sweep)
#      + explicit `ctest -L crypto`    (bignum/DH known answers: the
#                                       Montgomery kernel's limb arithmetic)
#      + explicit `ctest -L recovery`  (journal batch framing and replay:
#                                       hand-written byte code)
#   3. Tsan build + `ctest -L tsan`   (pinned light concurrency sweep,
#                                       including tsan_redirector: the
#                                       pooled handoff workers, and
#                                       tsan_sweep_rollback: a failed
#                                       migration sweep resuming what it
#                                       suspended, and tsan_bus: bus
#                                       handlers on the rudp receiver
#                                       thread, mail forwarded by the
#                                       PostOffice retrier)
#      + `ctest -L faults`            (fault-injection suite under TSan)
#      + `ctest -L recovery`          (crash-restart recovery under TSan)
#      + `ctest -L obs`              (observability suite under TSan)
#      + `ctest -L net`              (the rudp transport under TSan)
#      + `ctest -L shards`           (sharded session table under TSan)
#      + `ctest -L crypto`           (DH comb tables, built on first use
#                                       by whichever connect gets there)
#   4. naplet-analyze gate            (lock-order graph, annotation
#      coverage, invariant registries; dependency-free, always runs)
#   5. run-clang-tidy over src/, tools/, bench/
#                                     (bugprone / concurrency / performance)
#   6. clang-format --dry-run         (check-only; no reformatting)
#
# Steps 5–6 (and the Clang thread-safety analysis, which rides along with
# any Clang compile via -Wthread-safety) need LLVM tooling; when a tool is
# missing the step is skipped with a notice instead of failing, so the
# script is useful on GCC-only boxes too. Step 4 never skips: the analyzer
# is first-party code built by step 1.
#
# Usage: ci/check.sh [--skip-tsan] [--skip-sanitize]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SKIP_TSAN=0
SKIP_SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

note()  { printf '\n== %s ==\n' "$*"; }
skip()  { printf 'NOTICE: %s — skipping\n' "$*"; }

note "Debug build (lock-rank validator on)"
cmake --preset debug >/dev/null
cmake --build --preset debug -j "$JOBS"
ctest --test-dir build-debug --output-on-failure -j "$JOBS"

note "rudp transport suite (ctest -L net, Debug)"
ctest --test-dir build-debug -L net --output-on-failure -j "$JOBS"

note "chaos smoke (fixed-seed, replayable)"
NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner --seed 42 --runs 25 --light

note "crash-restart smoke (pinned seed, recovery on/off)"
for scenario in 3 4 5; do
  NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner \
    --seed 5 --scenario "$scenario" --light
  NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner \
    --seed 5 --scenario "$scenario" --light --no-recovery
done

note "sharded session table suite (ctest -L shards, Debug)"
ctest --test-dir build-debug -L shards --output-on-failure -j "$JOBS"

note "loss-sweep bench smoke (fast mode, JSON parsed)"
if command -v python3 >/dev/null 2>&1; then
  (cd build-debug/bench && NAPLET_BENCH_FAST=1 ./ext_failure_recovery --json \
    >/dev/null)
  python3 - build-debug/bench/BENCH_ext_failure_recovery.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
sweep = data["loss_sweep"]
assert sweep, "loss_sweep is empty"
for point in sweep:
    for mode in ("stop_and_wait", "pipelined"):
        for key in ("suspend_p95_us", "resume_p95_us"):
            assert point[mode][key] > 0, f"{mode}.{key} missing at {point['loss_pct']}%"
lossy = [p for p in sweep if p["loss_pct"] >= 10]
assert lossy, "no >=10% loss point in sweep"
for p in lossy:
    base = p["stop_and_wait"]["suspend_p95_us"] + p["stop_and_wait"]["resume_p95_us"]
    pipe = p["pipelined"]["suspend_p95_us"] + p["pipelined"]["resume_p95_us"]
    assert pipe <= base, (
        f"pipelined p95 worse than stop-and-wait at {p['loss_pct']}% "
        f"({pipe:.0f} vs {base:.0f} us)")
print("loss-sweep JSON ok:", ", ".join(
    f"{p['loss_pct']:.0f}%" for p in sweep))
EOF
else
  skip "python3 not installed (loss-sweep JSON parse)"
fi

note "Figure 10 bench smokes (fast mode, repeated in-process hops)"
for fig in fig10a_service_time fig10b_hops; do
  (cd build-debug/bench && NAPLET_BENCH_FAST=1 "./$fig" >/dev/null)
done

note "repository benchmark smoke (perfbench: build + 2 s per workload)"
# perfbench/ compiles against the library's public surface; without this
# step an API change could break the benchmark unnoticed.
if command -v python3 >/dev/null 2>&1; then
  for workload in churn lifecycle stream; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
      >/dev/null
  done
else
  skip "python3 not installed (perfbench/run.py)"
fi

note "flake gate (tier-1 suite, 20 parallel runs, zero failures)"
ci/flake.sh

if [ "$SKIP_SANITIZE" -eq 0 ]; then
  note "Sanitize build (ASan + UBSan)"
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j "$JOBS"
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"
  note "rudp transport suite (ctest -L net, ASan+UBSan)"
  ctest --test-dir build-sanitize -L net --output-on-failure -j "$JOBS"
  note "codec goldens and corruption sweep (ctest -L wire, ASan+UBSan)"
  ctest --test-dir build-sanitize -L wire --output-on-failure -j "$JOBS"
  note "crypto known answers (ctest -L crypto, ASan+UBSan)"
  ctest --test-dir build-sanitize -L crypto --output-on-failure -j "$JOBS"
  note "journal and crash recovery (ctest -L recovery, ASan+UBSan)"
  ctest --test-dir build-sanitize -L recovery --output-on-failure -j "$JOBS"
else
  skip "--skip-sanitize"
fi

if [ "$SKIP_TSAN" -eq 0 ]; then
  note "Tsan build (ctest -L tsan)"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --test-dir build-tsan -L tsan --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L faults --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L recovery --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L obs --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L shards --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L crypto --output-on-failure -j "$JOBS"
  # The `net` test has no per-test TSAN env property (it also runs in
  # non-TSan builds), so supply the suppressions here.
  NAPLET_TSAN_LIGHT=1 \
  TSAN_OPTIONS="suppressions=$(pwd)/ci/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir build-tsan -L net --output-on-failure -j "$JOBS"
else
  skip "--skip-tsan"
fi

note "static analysis gate (naplet-analyze: lock order, annotations, registries)"
# The dependency-free pass first: this one can never be skipped.
./build-debug/tools/analyze/registry_check --root . --compact
# The full three-pass gate over the Debug compile database. Exits 1 on any
# finding not listed in the baseline, which fails the script via set -e.
./build-debug/tools/analyze/naplet-analyze \
  --root . --compdb build-debug/compile_commands.json \
  --baseline tools/analyze/baseline.txt --compact

note "clang-tidy (bugprone, concurrency, performance; src+tools+bench)"
if command -v run-clang-tidy >/dev/null 2>&1; then
  # Reuse the Debug compile database; run-clang-tidy honours .clang-tidy.
  run-clang-tidy -p build-debug -quiet \
    "$(pwd)/src/.*" "$(pwd)/tools/.*" "$(pwd)/bench/.*" || exit 1
elif command -v clang-tidy >/dev/null 2>&1; then
  find src tools bench -name '*.cpp' -print0 |
    xargs -0 -n 1 -P "$JOBS" clang-tidy -p build-debug --quiet || exit 1
else
  skip "clang-tidy not installed"
fi

note "clang-format (check only)"
if command -v clang-format >/dev/null 2>&1; then
  # Analyzer fixtures carry planted defects with deliberate layout; keep
  # them out of the format gate.
  find src tests bench examples tools -name '*.hpp' -o -name '*.cpp' |
    grep -v '^tests/analyze/fixtures/' |
    xargs clang-format --dry-run --Werror
else
  skip "clang-format not installed"
fi

note "all checks passed"
