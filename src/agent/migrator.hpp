// The seam between the agent docking system and the NapletSocket
// controller (core library, above this one), and the one hop path that
// drives it (the paper's §2 migrate: suspend, serialize, transfer,
// reactivate, resume):
//   depart (source)       begin_migration, prepare_migration,
//                         export_sessions, then ship(blob)
//   land (destination)    import_sessions, register_agent
//   complete_migration    the destination caller's own step (AgentServer
//                         runs it on the agent's thread)
// One failure contract: a failed hop leaves the agent at the source, its
// location settled there and every connection in service, as a failed
// prepare_migration does. What follows (AgentServer ends the agent) is
// the caller's policy.
#pragma once

#include <functional>

#include "agent/agent_id.hpp"
#include "agent/location.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::agent {

class ConnectionMigrator {
 public:
  virtual ~ConnectionMigrator() = default;

  /// Suspend all connections of `id`; blocks until every one is suspended
  /// (honoring the concurrent-migration protocol, which may serialize this
  /// behind a peer's migration). All or nothing: on failure every
  /// connection is back in service and the agent may stay where it is.
  virtual util::Status prepare_migration(const AgentId& id) = 0;

  /// Serialized state of `id`'s suspended connections (empty if none).
  virtual util::Bytes export_sessions(const AgentId& id) = 0;

  /// Rebuild sessions at the destination before the agent resumes running.
  virtual util::Status import_sessions(const AgentId& id,
                                       util::ByteSpan data) = 0;

  /// After landing: notify parked peers and resume data transfer.
  virtual util::Status complete_migration(const AgentId& id) = 0;

  /// The agent is terminating: close all of its connections.
  virtual void close_all(const AgentId& id) = 0;
};

/// The transfer step of a hop: carry the exported sessions (and whatever
/// else the caller ships) to the destination. OK means the agent landed.
using Ship = std::function<util::Status(util::ByteSpan sessions)>;

/// The source half of a hop of `id`; see the top of this file.
util::Status depart(LocationService& locations, ConnectionMigrator& source,
                    const AgentId& id, const Ship& ship);

/// The destination half. A failed import leaves nothing at `destination`.
util::Status land(LocationService& locations, ConnectionMigrator& destination,
                  const AgentId& id, util::ByteSpan sessions,
                  const NodeInfo& node);

/// No-op migrator for servers that host agents without NapletSocket.
class NullMigrator final : public ConnectionMigrator {
 public:
  util::Status prepare_migration(const AgentId&) override {
    return util::OkStatus();
  }
  util::Bytes export_sessions(const AgentId&) override { return {}; }
  util::Status import_sessions(const AgentId&, util::ByteSpan) override {
    return util::OkStatus();
  }
  util::Status complete_migration(const AgentId&) override {
    return util::OkStatus();
  }
  void close_all(const AgentId&) override {}
};

}  // namespace naplet::agent
