#!/usr/bin/env bash
# The full local CI gate:
#
#   1. Debug build + full ctest       (lock-rank validator active)
#      + explicit `ctest -L net`       (rudp sliding-window/SACK/FEC suite)
#      + explicit `ctest -L swarm`     (batch scheduler, drain sweeps,
#                                       caching location tier)
#      + fixed-seed chaos_runner smoke (25 replayable fault schedules)
#      + pinned-seed crash-restart smoke (recovery on and off)
#      + pinned-seed swarm smoke       (drain under partition, cascading
#                                       rebalance)
#      + explicit `ctest -L group`     (checkpoint-barrier unit tests, the
#                                       whole-agent sweep, pinned group
#                                       chaos scenarios 8/9)
#      + loss-sweep bench smoke        (fast-mode JSON, parsed + shape-checked)
#      + fleet-rebalance bench smoke   (fast-mode JSON: batching and caching
#                                       ratios shape-checked)
#      + group-suspend bench smoke     (fast-mode JSON: makespan + per-phase
#                                       percentiles for 1/8/64-member agents)
#      + explicit `ctest -L shards`    (the sharded session table, wakeup
#                                       regressions)
#      + fleet-churn bench smoke       (fast-mode JSON: the controller
#                                       under connect/migrate/close churn)
#      + ci/flake.sh                   (tier-1 build, `ctest -j$(nproc)` 20
#                                       times, zero failing runs allowed)
#   2. Sanitize build + full ctest    (ASan + UBSan)
#      + explicit `ctest -L net`
#   3. Tsan build + `ctest -L tsan`   (pinned light concurrency sweep)
#      + `ctest -L faults`            (fault-injection suite under TSan)
#      + `ctest -L recovery`          (crash-restart recovery under TSan)
#      + `ctest -L obs`              (observability suite under TSan)
#      + `ctest -L net`              (the rudp transport under TSan)
#      + `ctest -L swarm`            (swarm pipeline + smoke under TSan)
#      + `ctest -L group`            (group barrier + sweep under TSan)
#      + `ctest -L shards`           (sharded session table under TSan)
#   4. naplet-analyze gate            (lock-order graph, annotation
#      coverage, invariant registries; registry_check is dependency-free
#      and always runs, the optional libTooling cross-check only when the
#      Clang dev libraries were found at configure time)
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

note "swarm migration suite (ctest -L swarm, Debug)"
ctest --test-dir build-debug -L swarm --output-on-failure -j "$JOBS"

note "chaos smoke (fixed-seed, replayable)"
NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner --seed 42 --runs 25 --light

note "crash-restart smoke (pinned seed, recovery on/off)"
for scenario in 3 4 5; do
  NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner \
    --seed 5 --scenario "$scenario" --light
  NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner \
    --seed 5 --scenario "$scenario" --light --no-recovery
done

note "swarm smoke (pinned seed: drain under partition, cascading rebalance)"
for scenario in 6 7; do
  NAPLET_FAULTS_LIGHT=1 ./build-debug/tools/chaos_runner \
    --seed 5 --scenario "$scenario" --light
done

note "group-suspend suite (ctest -L group, Debug)"
ctest --test-dir build-debug -L group --output-on-failure -j "$JOBS"

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

note "fleet-rebalance bench smoke (fast mode, batching/caching ratios)"
# The binary shape-checks itself (all agents land, >=5x fewer redirector
# exchanges, >=10x fewer directory lookups, swarm makespan wins) and exits
# nonzero on any miss; the JSON parse confirms the report is well-formed.
(cd build-debug/bench && NAPLET_BENCH_FAST=1 ./fleet_rebalance --json)
if command -v python3 >/dev/null 2>&1; then
  python3 - build-debug/bench/BENCH_fleet_rebalance.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
for mode in ("solo", "swarm"):
    assert data[mode]["drain"]["makespan_ms"] > 0, f"{mode} drain missing"
    assert data[mode]["rebalance"]["migrated"] > 0, f"{mode} rebalance missing"
ratio = data["solo"]["rebalance"]["handoff_exchanges"] / \
    max(1, data["swarm"]["rebalance"]["handoff_exchanges"])
print(f"fleet-rebalance JSON ok: exchange ratio {ratio:.1f}x")
EOF
else
  skip "python3 not installed (fleet-rebalance JSON parse)"
fi

note "group-suspend bench smoke (fast mode, makespan + phase percentiles)"
# The binary shape-checks itself (no rollbacks, 64-member sweep beats the
# serial bound); the JSON parse confirms every agent size carries a
# makespan distribution and per-phase p50/p95/p99.
(cd build-debug/bench && NAPLET_BENCH_FAST=1 ./ops_group_suspend --json)
if command -v python3 >/dev/null 2>&1; then
  python3 - build-debug/bench/BENCH_ops_group_suspend.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
agents = data["agents"]
assert [a["connections"] for a in agents] == [1, 8, 64], "agent sizes wrong"
for a in agents:
    assert a["rollbacks"] == 0, f"{a['connections']}-conn sweep rolled back"
    for span in ("prepare_makespan", "resume_makespan"):
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert a[span][key] > 0, f"{a['connections']}-conn {span}.{key} missing"
    for phase in ("group_prepare", "group_commit", "group_suspend"):
        assert a[phase]["count"] > 0, f"{a['connections']}-conn {phase} never recorded"
        assert a[phase]["p99_us"] >= a[phase]["p50_us"] > 0, \
            f"{a['connections']}-conn {phase} percentiles malformed"
print("group-suspend JSON ok:", ", ".join(
    f"{a['connections']}c prepare p95 {a['prepare_makespan']['p95_ms']:.2f}ms"
    for a in agents))
EOF
else
  skip "python3 not installed (group-suspend JSON parse)"
fi

note "fleet-churn bench smoke (fast mode, controller at scale)"
# The binary shape-checks itself (ramp reaches the target concurrent
# session count, every churn op lands, suspend histogram populated, shard
# spread sane) and exits nonzero on any miss; the JSON parse confirms the
# reported keys the EXPERIMENTS.md recipe reads.
(cd build-debug/bench && NAPLET_BENCH_FAST=1 ./fleet_churn --json)
if command -v python3 >/dev/null 2>&1; then
  python3 - build-debug/bench/BENCH_fleet_churn.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
assert data["concurrent_sessions"] >= data["target_sessions"], "ramp fell short"
assert data["ramp_sessions_per_sec"] > 0, "ramp rate missing"
assert data["churn_ops_per_sec"] > 0, "churn rate missing"
assert data["suspend"]["p99_us"] >= data["suspend"]["p50_us"] > 0, \
    "suspend percentiles malformed"
assert data["memory_per_session_bytes"] > 0, "memory per session missing"
assert data["shards"]["count"] > 1, "session table not sharded"
print(f"fleet-churn JSON ok: {data['concurrent_sessions']} sessions, "
      f"suspend p99 {data['suspend']['p99_us']:.0f}us")
EOF
else
  skip "python3 not installed (fleet-churn JSON parse)"
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
  ctest --test-dir build-tsan -L swarm --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L group --output-on-failure -j "$JOBS"
  ctest --test-dir build-tsan -L shards --output-on-failure -j "$JOBS"
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
# The optional libTooling cross-check rides along when the Clang dev
# libraries were found at configure time (-DNAPLET_ANALYZE_WITH_CLANG=ON).
if [ -x build-debug/tools/analyze/naplet-analyze-clang ]; then
  ./build-debug/tools/analyze/naplet-analyze-clang \
    -p build-debug src/*/*.cpp >/dev/null || exit 1
else
  skip "naplet-analyze-clang not built (Clang dev libraries absent)"
fi

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
