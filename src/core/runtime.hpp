// NapletRuntime: the composition root that wires one AgentServer together
// with its SocketController — the "Naplet node" a deployment runs per host.
// Also provides Realm, a convenience for tests/benches/examples that stands
// up several nodes sharing a location service and realm key.
#pragma once

#include <memory>
#include <vector>

#include "agent/agent_server.hpp"
#include "core/controller.hpp"

namespace naplet::nsock {

struct NodeConfig {
  agent::AgentServerConfig server;
  ControllerConfig controller;
};

/// One agent server + its NapletSocket controller, started together.
class NapletRuntime {
 public:
  NapletRuntime(net::NetworkPtr network, agent::LocationService& locations,
                NodeConfig config);
  ~NapletRuntime();

  NapletRuntime(const NapletRuntime&) = delete;
  NapletRuntime& operator=(const NapletRuntime&) = delete;

  util::Status start();
  void stop();

  [[nodiscard]] agent::AgentServer& server() { return *server_; }
  [[nodiscard]] SocketController& controller() { return *controller_; }
  [[nodiscard]] const std::string& name() const { return server_->name(); }

 private:
  std::unique_ptr<agent::AgentServer> server_;
  std::unique_ptr<SocketController> controller_;
  bool started_ = false;
};

/// A set of nodes sharing one directory and realm key — a whole testbed in
/// a few lines:
///
///   Realm realm;                                  // TCP loopback
///   realm.add_node("alpha");
///   realm.add_node("beta");
///   realm.start();
///   realm.node("alpha").server().launch(...);
class Realm {
 public:
  /// Uses TCP loopback when `network` is null.
  explicit Realm(net::NetworkPtr network = nullptr);
  ~Realm();

  /// Add a node before start(); returns it for config tweaks.
  NapletRuntime& add_node(const std::string& name, NodeConfig config = {});
  /// Add a node bound to a specific Network (e.g. a SimNet node).
  NapletRuntime& add_node(const std::string& name, net::NetworkPtr network,
                          NodeConfig config = {});
  /// Stop and destroy a node — the crash-restart model for recovery tests:
  /// remove_node then add_node with the same name (and a durable journal
  /// dir) is a controller restart. No-op for unknown names.
  void remove_node(const std::string& name);

  util::Status start();
  void stop();

  /// Hop `id` between two nodes of this process: the transfer step lands
  /// the sessions at `to` directly (agent/migrator.hpp). The caller runs
  /// complete_migration at `to`.
  util::Status hop(const agent::AgentId& id, const std::string& from,
                   const std::string& to);

  [[nodiscard]] NapletRuntime& node(const std::string& name);
  /// Names of all live nodes, in creation order (e.g. for collecting
  /// per-node diagnostics such as flight-recorder dumps).
  [[nodiscard]] std::vector<std::string> node_names() const;
  [[nodiscard]] agent::LocationService& locations() { return locations_; }
  [[nodiscard]] const util::Bytes& realm_key() const { return realm_key_; }

 private:
  net::NetworkPtr default_network_;
  agent::LocationService locations_;
  util::Bytes realm_key_;
  std::vector<std::unique_ptr<NapletRuntime>> nodes_;
};

}  // namespace naplet::nsock
