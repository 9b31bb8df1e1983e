// The chaos harness: generates random (fault plan × migration scenario)
// combinations, executes them over a three-node sim realm with every
// oracle armed, and delta-debugs a failing schedule down to a minimal
// failing fault subset. Used by tools/chaos_runner and tests/fault.
//
// One harness runs every scenario: a shared setup (SimNet, three nodes,
// k connected chaos-cli/chaos-srv pairs), the pre-fault traffic, one
// Phase-B choreography per scenario family (migrate, crash, swarm, group)
// and a shared judgement (liveness, exactly-once ledger, FSM legality).
//
// Determinism contract: generate_case(seed) derives everything — scenario,
// message counts, every fault rule — from util::Rng(seed) alone, so
// `chaos_runner --seed S` regenerates the identical case bit-for-bit and a
// failure reported with its seed is a complete reproduction recipe.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "util/status.hpp"

namespace naplet::fault {

enum class Scenario : std::uint8_t {
  kSingleMigration = 0,   ///< client endpoint migrates once
  kDoubleSequential = 1,  ///< client migrates, then the server migrates
  kDoubleOverlapped = 2,  ///< both endpoints migrate concurrently (glare)

  // Crash-restart scenarios: the server-side controller is killed and
  // restarted from its durable journal mid-protocol. Selected explicitly
  // (chaos_runner --scenario, tests/recovery) — generate_case never draws
  // them, so existing seed -> case mappings are unchanged.
  kCrashSuspend = 3,  ///< controller dies mid-suspend (SUS_ACK killed)
  kCrashResume = 4,   ///< controller dies while the mover's RESUME retries
  kCrashDouble = 5,   ///< crash-resume, then a second migration on top

  // Swarm scenarios: a whole host's agents move through the swarm
  // subsystem (drain coordinator + batch scheduler) instead of one-by-one
  // migrate calls. Opt-in like the crash scenarios.
  kDrainPartition = 6,    ///< drain a host while the destination cannot
                          ///< reach the peer (partition heals mid-run)
  kCascadeRebalance = 7,  ///< destination refuses its first batch
                          ///< admission; half reroutes to the fallback

  // Group-suspend scenarios: one agent with several live connections is
  // swept through the atomic group barrier (ControllerConfig::
  // group_suspend). Opt-in like the crash scenarios.
  kGroupCrashCommit = 8,   ///< mover's host dies between the group
                           ///< prepare and commit journal records;
                           ///< recovery must be all-or-nothing
  kGroupPeerRefusal = 9,   ///< one peer refuses mid-prepare under send
                           ///< load; the ENTIRE group must roll back
};

inline constexpr int kScenarioCount = 10;
/// Scenarios generate_case(seed) draws from (the crash scenarios are
/// opt-in and carry their own staged fault plans).
inline constexpr int kGeneratedScenarioCount = 3;
/// First swarm scenario.
inline constexpr int kSwarmScenarioStart = 6;
/// First group-suspend scenario (the tail of the enum).
inline constexpr int kGroupScenarioStart = 8;

[[nodiscard]] constexpr bool is_crash_scenario(Scenario s) noexcept {
  return static_cast<int>(s) >= kGeneratedScenarioCount &&
         static_cast<int>(s) < kSwarmScenarioStart;
}

[[nodiscard]] constexpr bool is_swarm_scenario(Scenario s) noexcept {
  return static_cast<int>(s) >= kSwarmScenarioStart &&
         static_cast<int>(s) < kGroupScenarioStart;
}

[[nodiscard]] constexpr bool is_group_scenario(Scenario s) noexcept {
  return static_cast<int>(s) >= kGroupScenarioStart;
}

[[nodiscard]] std::string_view to_string(Scenario scenario) noexcept;

struct ChaosCase {
  std::uint64_t seed = 0;
  Scenario scenario = Scenario::kSingleMigration;
  Plan plan;
  int forward_msgs = 12;  ///< client -> server, delivered live pre-fault
  int reverse_msgs = 8;   ///< server -> client, left in flight across the
                          ///< migration so the resume replay path is hot

  /// Crash scenarios only: true runs with the full recovery stack (durable
  /// journal, resume retries, suspend rollback, leases) and the migration
  /// must complete exactly-once across the restart; false disables all of
  /// it and the same staging must fail CLEANLY — a bounded error, not a
  /// hang or an oracle violation.
  bool recovery = true;
};

struct ChaosResult {
  bool pass = false;
  std::string failure;  ///< empty on pass; the failing oracle's message

  // What the network actually did (informational; not part of the
  // deterministic report line).
  std::uint64_t net_datagrams_dropped = 0;
  std::uint64_t ctrl_retransmissions = 0;
  std::string stats;  ///< ControllerStats::to_string() of both endpoints

  /// On failure: flight-recorder dump of every live session at the moment
  /// the oracle tripped (obs::dump_all()), printed by chaos_runner next to
  /// the minimized plan. Empty on pass.
  std::string recorder_dump;

  /// Deterministic one-line report: seed, scenario, plan, verdict.
  [[nodiscard]] std::string line(const ChaosCase& chaos_case) const;
};

/// Derive a case purely from `seed`. The generated plans stay inside the
/// survivable fault envelope (drops below the reliability layer, bounded
/// delays, duplicated control messages, killed handoff workers) so a FAIL
/// from a generated case is always a protocol bug, never an impossible ask.
[[nodiscard]] ChaosCase generate_case(std::uint64_t seed, bool light);

/// Build the case for an explicitly chosen scenario. Generated scenarios
/// (0–2) are generate_case(seed, light) with the scenario overridden; the
/// opt-in ones carry their staged fault plan: killed SUS_ACKs or handoff
/// workers (crash), a failing drain suspend or refused batch admission
/// (swarm), a kill between the group prepare and commit records or a peer
/// refusing mid-prepare (group). `recovery` applies to crash scenarios
/// only.
[[nodiscard]] ChaosCase make_case(std::uint64_t seed, Scenario scenario,
                                  bool light, bool recovery);

/// Execute one case end to end: establish, pump traffic, arm the plan, run
/// the scenario's choreography, disarm, then judge with the liveness
/// watchdog, the delivery ledger and the FSM legality check. Uses the
/// process-global Injector; do not run cases concurrently.
[[nodiscard]] ChaosResult run_case(const ChaosCase& chaos_case);

/// Greedy delta-debugging: repeatedly drop single rules while the case
/// still fails, yielding a 1-minimal failing subset. `reruns`, when given,
/// counts how many re-executions the reduction needed.
[[nodiscard]] Plan minimize_plan(const ChaosCase& failing,
                                 int* reruns = nullptr);

/// Every injection site woven into the protocol (for --list-sites).
[[nodiscard]] std::vector<std::string> known_sites();

/// The planted exactly-once regression (duplicate replay on resume), as a
/// rule the caller can append to any plan: the delivery-ledger oracle must
/// catch it and minimize_plan must reduce a noisy schedule back to it.
[[nodiscard]] Rule planted_duplicate_replay_rule();

}  // namespace naplet::fault
