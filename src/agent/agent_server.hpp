// AgentServer: the Naplet docking station (paper §1, §2).
//
// Hosts agent threads, admits incoming migrations over a TCP listener,
// transfers departing agents (state + mailbox + suspended connection
// sessions), and wires together the middleware components: ServerBus
// (reliable UDP control), PostOffice, AccessController, and — via the
// ConnectionMigrator seam — the NapletSocket controller from the core
// library.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agent/access_control.hpp"
#include "agent/agent.hpp"
#include "agent/bus.hpp"
#include "agent/location.hpp"
#include "agent/migrator.hpp"
#include "agent/postoffice.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::agent {

struct AgentServerConfig {
  std::string name;
  std::uint16_t control_port = 0;    // 0 = auto
  std::uint16_t migration_port = 0;  // 0 = auto
  util::Bytes realm_key;             // shared across the deployment
  net::RudpConfig rudp_config{};
};

/// The one frame on a migration stream: everything an agent carries to its
/// next host. The destination answers with one byte (1 = admitted).
struct TransferFrame {
  std::string agent;      // the agent's id
  std::string type_name;  // AgentFactory key
  std::uint32_t hop = 0;
  util::Bytes state;      // the agent's own persist()
  util::Bytes sessions;   // ConnectionMigrator::export_sessions
  AuthToken token;
  std::vector<Mail> mailbox;

  void persist(util::Archive& ar) {
    ar.field(agent);
    ar.field(type_name);
    ar.field(hop);
    ar.field(state);
    ar.field(sessions);
    ar.nested(token);
    ar.nested(mailbox);
  }
};

class AgentServer {
 public:
  AgentServer(net::NetworkPtr network, LocationService& locations,
              AgentServerConfig config);
  ~AgentServer();

  AgentServer(const AgentServer&) = delete;
  AgentServer& operator=(const AgentServer&) = delete;

  /// Bind sockets, start threads, register the server in the directory.
  util::Status start();
  void stop();

  // ---- composition hooks (core library / application wiring) ----

  /// Install the NapletSocket controller (or leave the default NullMigrator).
  void set_migrator(ConnectionMigrator* migrator);
  /// Expose a named middleware service to agents via AgentContext::service.
  void register_service(const std::string& name, void* service);
  /// Core sets this once its redirector is listening.
  void set_redirector_endpoint(const net::Endpoint& endpoint);

  // ---- agent lifecycle ----

  /// Admit a brand-new agent. It starts running on its own thread.
  util::Status launch(std::unique_ptr<Agent> agent, AgentId id);

  // ---- accessors ----

  [[nodiscard]] NodeInfo node_info() const;
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] ServerBus& bus() { return *bus_; }
  [[nodiscard]] AccessController& access() { return access_; }
  [[nodiscard]] PostOffice& post() { return *post_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] LocationService& locations() { return locations_; }
  /// The node's one metrics registry: the control channel, the
  /// NapletSocket controller and its redirector all record into it.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }

  [[nodiscard]] std::size_t resident_count() const;
  [[nodiscard]] std::uint64_t migrations_in() const {
    return migrations_in_.load();
  }
  [[nodiscard]] std::uint64_t migrations_out() const {
    return migrations_out_.load();
  }

 private:
  class ContextImpl;
  struct Resident {
    std::unique_ptr<Agent> agent;
    std::shared_ptr<ContextImpl> context;
    std::thread thread;
  };

  void migration_accept_loop();
  void handle_incoming_migration(net::StreamPtr stream);
  /// Run one hop of `id` on the calling thread; afterwards transfer the
  /// agent, or terminate it (also when the transfer failed).
  void agent_thread_main(AgentId id);
  util::Status transfer_agent(const AgentId& id, const std::string& dest_name);
  void terminate_agent(const AgentId& id);
  void admit(std::unique_ptr<Agent> agent, AgentId id, std::uint32_t hop,
             std::vector<Mail> mailbox, util::ByteSpan sessions);
  void reap_finished_threads();

  net::NetworkPtr network_ NAPLET_NOT_GUARDED("set at construction; the "
                                              "Network is internally "
                                              "synchronized");
  LocationService& locations_;
  AgentServerConfig config_ NAPLET_NOT_GUARDED("set at construction, "
                                               "immutable");
  AccessController access_ NAPLET_NOT_GUARDED("internally synchronized "
                                              "(own mutex)");
  // Declared before every component that caches instrument references,
  // so it outlives them.
  obs::Registry metrics_ NAPLET_NOT_GUARDED("internally synchronized "
                                           "(own mutex)");

  std::unique_ptr<ServerBus> bus_ NAPLET_NOT_GUARDED(
      "created at construction before any worker thread; the bus is "
      "internally synchronized");
  std::unique_ptr<PostOffice> post_ NAPLET_NOT_GUARDED(
      "created at construction before any worker thread; internally "
      "synchronized");
  net::ListenerPtr migration_listener_ NAPLET_NOT_GUARDED(
      "created in start() before the acceptor thread");

  NullMigrator null_migrator_ NAPLET_NOT_GUARDED(
      "stateless null object, no mutable state to guard");
  ConnectionMigrator* migrator_ NAPLET_NOT_GUARDED(
      "wired via set_migrator() during single-threaded bring-up, "
      "immutable once agents run") = &null_migrator_;

  mutable util::Mutex mu_{util::LockRank::kAgentServer, "agent_server"};
  // Written by set_redirector_endpoint (core wiring thread) and read by
  // node_info from agent/admission threads; must stay under mu_.
  net::Endpoint redirector_endpoint_ NAPLET_GUARDED_BY(mu_);
  std::map<std::string, void*> services_ NAPLET_GUARDED_BY(mu_);
  std::map<AgentId, Resident> residents_ NAPLET_GUARDED_BY(mu_);
  std::vector<std::thread> finished_
      NAPLET_GUARDED_BY(mu_);  // agent threads awaiting join
  std::vector<std::thread> migration_handlers_ NAPLET_GUARDED_BY(mu_);

  std::thread migration_acceptor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> migrations_in_{0};
  std::atomic<std::uint64_t> migrations_out_{0};
};

/// Convenience for tests/examples: block until the agent has terminated
/// (deregistered everywhere). False on timeout.
bool wait_agent_gone(const LocationService& locations, const AgentId& id,
                     util::Duration timeout);

}  // namespace naplet::agent
