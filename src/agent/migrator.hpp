// Dependency-inversion seam between the agent docking system and the
// NapletSocket controller (which lives in the core library, above this one).
//
// The docking system drives connection migration around each hop:
//   prepare_migration  -> suspend every connection of the departing agent
//   export_sessions    -> serialize suspended session state to travel with it
//   import_sessions    -> rebuild session objects at the destination
//   complete_migration -> release parked peers / reconnect data sockets
#pragma once

#include "agent/agent_id.hpp"
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
