// SessionShardMap: the controller's N-way sharded session table
// (DESIGN.md §15). The monolithic sessions_ map under the controller
// mutex serialized every lookup on the control hot path; at 10k+
// concurrent sessions the single lock is the bottleneck. Sharding by
// conn_id spreads lookups over independent per-shard locks (rank
// kControllerShard, nested inside kController) so concurrent control
// messages for different connections never contend.
//
// Invariants:
//  * the shard of a connection is a pure function of its conn_id, so the
//    two endpoints of a same-node pair (which share a conn_id) always
//    land in the SAME shard — the "last endpoint gone" check on erase is
//    shard-local;
//  * at most one shard lock is held at a time (equal-rank shard-under-
//    shard is a static lock-order inversion by design — see §7.2);
//  * cross-shard aggregates (snapshot_all, of_agent, size) are per-shard
//    consistent, not globally atomic: each shard is observed at one
//    instant, but a session may move between observation of two shards.
//    Every caller tolerated exactly this already (the old code copied
//    the map and released the lock before acting).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/agent_id.hpp"
#include "core/session.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::nsock {

/// Shard count of the controller's session table. A power of two, so
/// shard selection is a mask, not a division.
inline constexpr int kSessionShards = 16;
static_assert((kSessionShards & (kSessionShards - 1)) == 0);

class SessionShardMap {
 public:
  /// `shards` is rounded up to a power of two (minimum 1).
  explicit SessionShardMap(int shards) {
    std::size_t n = 1;
    while (n < static_cast<std::size_t>(std::max(1, shards))) n <<= 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    mask_ = n - 1;
  }

  SessionShardMap(const SessionShardMap&) = delete;
  SessionShardMap& operator=(const SessionShardMap&) = delete;

  /// First session with this conn id (unique in practice except when both
  /// endpoints live on one node; then map order picks the smaller agent).
  [[nodiscard]] SessionPtr find(std::uint64_t conn_id) const {
    Shard& s = shard_of(conn_id);
    util::MutexLock lock(s.mu);
    auto it = s.sessions.lower_bound({conn_id, std::string()});
    if (it == s.sessions.end() || it->first.first != conn_id) return nullptr;
    return it->second;
  }

  /// The session with this conn id whose PEER is `sender`; falls back to
  /// the sole match when `sender` is empty.
  [[nodiscard]] SessionPtr find_from(std::uint64_t conn_id,
                                     const std::string& sender) const {
    Shard& s = shard_of(conn_id);
    util::MutexLock lock(s.mu);
    SessionPtr sole;
    int matches = 0;
    for (auto it = s.sessions.lower_bound({conn_id, std::string()});
         it != s.sessions.end() && it->first.first == conn_id; ++it) {
      if (!sender.empty() && it->second->peer_agent().name() == sender) {
        return it->second;
      }
      sole = it->second;
      ++matches;
    }
    return (sender.empty() && matches == 1) ? sole : nullptr;
  }

  [[nodiscard]] bool contains_conn(std::uint64_t conn_id) const {
    Shard& s = shard_of(conn_id);
    util::MutexLock lock(s.mu);
    auto it = s.sessions.lower_bound({conn_id, std::string()});
    return it != s.sessions.end() && it->first.first == conn_id;
  }

  void insert(const SessionPtr& session) {
    Shard& s = shard_of(session->conn_id());
    util::MutexLock lock(s.mu);
    s.sessions[{session->conn_id(), session->local_agent().name()}] = session;
  }

  /// Erase one endpoint. Returns true when no endpoint with this conn_id
  /// remains (the caller releases the redirector lease exactly once).
  bool erase(std::uint64_t conn_id, const std::string& local_agent) {
    Shard& s = shard_of(conn_id);
    util::MutexLock lock(s.mu);
    s.sessions.erase({conn_id, local_agent});
    auto it = s.sessions.lower_bound({conn_id, std::string()});
    return it == s.sessions.end() || it->first.first != conn_id;
  }

  [[nodiscard]] std::vector<SessionPtr> snapshot_all() const {
    std::vector<SessionPtr> out;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      for (const auto& [key, session] : shard->sessions) {
        out.push_back(session);
      }
    }
    return out;
  }

  /// Every session whose LOCAL endpoint is `id`, sorted by conn_id — the
  /// same deterministic sweep order the monolithic map gave for free.
  [[nodiscard]] std::vector<SessionPtr> of_agent(
      const agent::AgentId& id) const {
    std::vector<std::pair<Key, SessionPtr>> hits;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      for (const auto& [key, session] : shard->sessions) {
        if (session->local_agent() == id) hits.emplace_back(key, session);
      }
    }
    return sorted_values(std::move(hits));
  }

  /// Remove and return every session whose local endpoint is `id`
  /// (export path), sorted by conn_id.
  std::vector<SessionPtr> extract_agent(const agent::AgentId& id) {
    std::vector<std::pair<Key, SessionPtr>> hits;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      for (auto it = shard->sessions.begin(); it != shard->sessions.end();) {
        if (it->second->local_agent() == id) {
          hits.emplace_back(it->first, it->second);
          it = shard->sessions.erase(it);
        } else {
          ++it;
        }
      }
    }
    return sorted_values(std::move(hits));
  }

  /// Remove and return everything (controller stop).
  std::vector<SessionPtr> clear_all() {
    std::vector<SessionPtr> out;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      for (auto& [key, session] : shard->sessions) {
        out.push_back(std::move(session));
      }
      shard->sessions.clear();
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      n += shard->sessions.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Per-shard occupancy (stats / bench: hash spread sanity).
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const {
    std::vector<std::size_t> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      out.push_back(shard->sessions.size());
    }
    return out;
  }

 private:
  // Keyed by (conn_id, local agent): the two endpoints of one connection
  // may both be hosted by this controller (same-node agent pairs).
  using Key = std::pair<std::uint64_t, std::string>;

  struct Shard {
    mutable util::Mutex mu{util::LockRank::kControllerShard,
                           "controller.shard"};
    std::map<Key, SessionPtr> sessions NAPLET_GUARDED_BY(mu);
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t conn_id) const {
    // conn_ids are crypto-random (or dense small integers in tests): fold
    // the high bits in so both distributions spread.
    const std::uint64_t h = conn_id ^ (conn_id >> 17) ^ (conn_id >> 41);
    return *shards_[static_cast<std::size_t>(h) & mask_];
  }

  static std::vector<SessionPtr> sorted_values(
      std::vector<std::pair<Key, SessionPtr>> hits) {
    std::sort(hits.begin(), hits.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<SessionPtr> out;
    out.reserve(hits.size());
    for (auto& [key, session] : hits) out.push_back(std::move(session));
    return out;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_ = 0;
};

}  // namespace naplet::nsock
