// Shared fixture helpers for core protocol tests: a two- or three-node
// realm over the in-process simulated network, with pseudo-agents
// registered directly in the location service so protocol-level tests can
// drive the SocketController API without standing up full agent threads.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/runtime.hpp"
#include "net/sim.hpp"

namespace naplet::nsock::testing {

using namespace std::chrono_literals;

inline util::ByteSpan span(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

inline std::string text(const util::Bytes& b) {
  return std::string(b.begin(), b.end());
}

/// Realm over SimNet with n nodes named "node0".."node{n-1}".
class SimRealm {
 public:
  explicit SimRealm(int nodes, bool security = true,
                    util::Duration link_latency = {},
                    std::function<void(NodeConfig&)> tweak = {}) {
    if (link_latency.count() > 0) {
      net_.set_default_link(net::LinkConfig{.latency = link_latency});
    }
    realm_ = std::make_unique<Realm>();
    for (int i = 0; i < nodes; ++i) {
      const std::string name = "node" + std::to_string(i);
      NodeConfig config;
      config.controller.security = security;
      config.controller.dh_group = crypto::DhGroup::kModp768;
      if (tweak) tweak(config);
      realm_->add_node(name, net_.add_node(name), config);
    }
    EXPECT_TRUE(realm_->start().ok());
  }

  ~SimRealm() { realm_->stop(); }

  NapletRuntime& node(int i) {
    return realm_->node("node" + std::to_string(i));
  }
  SocketController& ctrl(int i) { return node(i).controller(); }
  agent::AgentServer& server(int i) { return node(i).server(); }
  agent::LocationService& locations() { return realm_->locations(); }
  net::SimNet& net() { return net_; }
  Realm& realm() { return *realm_; }

  /// Register a pseudo-agent as resident on node i (no thread).
  agent::AgentId pseudo_agent(const std::string& name, int node_index) {
    agent::AgentId id(name);
    locations().register_agent(id, server(node_index).node_info());
    return id;
  }

  /// Hop a pseudo-agent's connections from one node to another, exactly
  /// as the docking system would (Realm::hop, then complete_migration).
  util::Status migrate_pseudo_agent(const agent::AgentId& id, int from,
                                    int to) {
    NAPLET_RETURN_IF_ERROR(realm_->hop(id, "node" + std::to_string(from),
                                       "node" + std::to_string(to)));
    return ctrl(to).complete_migration(id);
  }

 private:
  net::SimNet net_;
  std::unique_ptr<Realm> realm_;
};

/// Establish a connection between two pseudo-agents; returns both ends.
struct ConnPair {
  SessionPtr client;
  SessionPtr server;
};

inline ConnPair make_connection(SimRealm& realm, const agent::AgentId& client,
                                int client_node, const agent::AgentId& server,
                                int server_node) {
  EXPECT_TRUE(realm.ctrl(server_node).listen(server).ok());
  auto client_session = realm.ctrl(client_node).connect(client, server);
  EXPECT_TRUE(client_session.ok()) << client_session.status().to_string();
  auto server_session = realm.ctrl(server_node).accept(server, 5s);
  EXPECT_TRUE(server_session.ok()) << server_session.status().to_string();
  return ConnPair{client_session.ok() ? *client_session : nullptr,
                  server_session.ok() ? *server_session : nullptr};
}

}  // namespace naplet::nsock::testing
