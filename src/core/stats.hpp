// Structured controller statistics for operators, examples, and benches:
// the session-table view plus a snapshot of the node's metrics registry,
// with a printable rendering.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/state.hpp"
#include "obs/metrics.hpp"

namespace naplet::nsock {

struct ControllerStats {
  std::size_t sessions = 0;
  std::array<std::size_t, kConnStateCount> by_state{};
  std::size_t listening_agents = 0;
  std::size_t migrating_agents = 0;
  /// Per-shard session-table occupancy (DESIGN.md §15): hash-spread
  /// sanity for operators and the fleet-churn bench.
  std::vector<std::size_t> shard_sessions{};

  // Full registry snapshot: every counter, gauge, and histogram of the
  // node (controller, control channel, redirector). Every protocol counter
  // lives only here; to_string() renders it generically, so a newly
  // registered metric shows up with no rendering change.
  obs::Snapshot metrics;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace naplet::nsock
