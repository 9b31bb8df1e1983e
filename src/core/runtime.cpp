#include "core/runtime.hpp"

#include "crypto/random.hpp"
#include "net/tcp.hpp"

namespace naplet::nsock {

NapletRuntime::NapletRuntime(net::NetworkPtr network,
                             agent::LocationService& locations,
                             NodeConfig config)
    : server_(std::make_unique<agent::AgentServer>(
          std::move(network), locations, std::move(config.server))),
      controller_(
          std::make_unique<SocketController>(*server_, config.controller)) {}

NapletRuntime::~NapletRuntime() { stop(); }

util::Status NapletRuntime::start() {
  if (started_) return util::OkStatus();
  NAPLET_RETURN_IF_ERROR(server_->start());
  NAPLET_RETURN_IF_ERROR(controller_->start());
  started_ = true;
  return util::OkStatus();
}

void NapletRuntime::stop() {
  if (!started_) return;
  started_ = false;
  // Stop the controller first: closing sessions releases agent threads
  // blocked in send/recv immediately (they see ABORTED), so the server's
  // join of those threads cannot stall behind long I/O timeouts.
  controller_->stop();
  server_->stop();
}

Realm::Realm(net::NetworkPtr network)
    : default_network_(network != nullptr
                           ? std::move(network)
                           : std::make_shared<net::TcpNetwork>()),
      realm_key_(crypto::random_bytes(32)) {}

Realm::~Realm() { stop(); }

NapletRuntime& Realm::add_node(const std::string& name, NodeConfig config) {
  return add_node(name, default_network_, std::move(config));
}

NapletRuntime& Realm::add_node(const std::string& name,
                               net::NetworkPtr network, NodeConfig config) {
  config.server.name = name;
  if (config.server.realm_key.empty()) config.server.realm_key = realm_key_;
  nodes_.push_back(std::make_unique<NapletRuntime>(
      std::move(network), locations_, std::move(config)));
  return *nodes_.back();
}

void Realm::remove_node(const std::string& name) {
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    if ((*it)->name() == name) {
      (*it)->stop();
      nodes_.erase(it);
      return;
    }
  }
}

util::Status Realm::start() {
  for (auto& node : nodes_) {
    NAPLET_RETURN_IF_ERROR(node->start());
  }
  return util::OkStatus();
}

void Realm::stop() {
  for (auto& node : nodes_) node->stop();
}

util::Status Realm::hop(const agent::AgentId& id, const std::string& from,
                        const std::string& to) {
  NapletRuntime& dest = node(to);
  return agent::depart(locations_, node(from).controller(), id,
                       [&](util::ByteSpan sessions) {
                         return agent::land(locations_, dest.controller(), id,
                                            sessions,
                                            dest.server().node_info());
                       });
}

NapletRuntime& Realm::node(const std::string& name) {
  for (auto& node : nodes_) {
    if (node->name() == name) return *node;
  }
  // Realm is test/bench infrastructure; a bad name is a programming error.
  throw std::out_of_range("no such node: " + name);
}

std::vector<std::string> Realm::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& node : nodes_) names.push_back(node->name());
  return names;
}

}  // namespace naplet::nsock
