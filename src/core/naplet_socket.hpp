// Public NapletSocket API (paper §2.1): agent-oriented socket classes that
// resemble Socket/ServerSocket in semantics, plus the suspend()/resume()
// methods that make connection migration explicit when an agent wants
// manual control. Most agents never call suspend/resume themselves — the
// docking system drives them transparently around each hop.
//
//   // server agent
//   NapletServerSocket listener(ctx);           // LISTEN
//   auto conn = listener.accept(5s);            // ESTABLISHED
//   auto msg  = conn->recv(1s);
//
//   // client agent
//   auto conn = NapletSocket::open(ctx, AgentId("server-agent"));
//   conn->send("hello");
//
// Connections address *agents*, not (host, port) pairs: agents are not
// allowed to pick ports (access control assigns all socket resources), and
// the location service resolves the peer agent's current host at connect
// time. After setup, all traffic flows over the connection regardless of
// where either agent migrates.
#pragma once

#include <memory>
#include <string_view>

#include "agent/agent.hpp"
#include "core/controller.hpp"

namespace naplet::nsock {

/// An established agent-to-agent connection. Thread-compatible: one logical
/// owner (the agent) calls send/recv; the controller manages migration
/// concurrently under the hood.
class NapletSocket {
 public:
  /// Active open from the calling agent to `peer` (anywhere in the realm).
  static util::StatusOr<std::unique_ptr<NapletSocket>> open(
      agent::AgentContext& ctx, const agent::AgentId& peer,
      ConnectBreakdown* breakdown = nullptr);

  /// Re-acquire a connection handle after a migration hop. The connection
  /// itself migrated with the agent (the docking system suspended, shipped
  /// and resumed it); the agent persists the conn_id in its state and calls
  /// this from run() on the new host. Fails if the connection does not
  /// exist here or belongs to a different agent.
  static util::StatusOr<std::unique_ptr<NapletSocket>> reattach(
      agent::AgentContext& ctx, std::uint64_t conn_id);

  /// How long send() blocks through a suspension before giving up.
  static constexpr util::Duration kIoTimeout = std::chrono::seconds(30);

  /// Send one message. Blocks through suspensions (up to kIoTimeout) —
  /// from the application's view the connection never breaks.
  util::Status send(util::ByteSpan data);
  util::Status send(std::string_view text);

  /// Receive one message (buffer first, then socket; exactly-once).
  util::StatusOr<RecvResult> recv(util::Duration timeout);

  /// Explicit connection-migration control (paper §2.1).
  util::Status suspend();
  util::Status resume();

  /// Graceful close (CLS/CLS_ACK).
  util::Status close();

  [[nodiscard]] ConnState state() const { return session_->state(); }
  [[nodiscard]] const agent::AgentId& peer() const {
    return session_->peer_agent();
  }
  [[nodiscard]] std::uint64_t conn_id() const { return session_->conn_id(); }

  /// The underlying session (tests, benches, advanced use).
  [[nodiscard]] const SessionPtr& session() const { return session_; }

  NapletSocket(SocketController& controller, SessionPtr session)
      : controller_(&controller), session_(std::move(session)) {}

 private:
  SocketController* controller_;
  SessionPtr session_;
};

/// Passive endpoint: accepts NapletSocket connections addressed to the
/// owning agent. Closing (or destroying) it stops accepting; established
/// connections are unaffected.
class NapletServerSocket {
 public:
  /// Begin listening as the calling agent. Fails if already listening or
  /// the agent lacks the use-naplet-socket permission.
  static util::StatusOr<std::unique_ptr<NapletServerSocket>> open(
      agent::AgentContext& ctx);

  ~NapletServerSocket();
  NapletServerSocket(const NapletServerSocket&) = delete;
  NapletServerSocket& operator=(const NapletServerSocket&) = delete;

  /// Accept the next inbound connection.
  util::StatusOr<std::unique_ptr<NapletSocket>> accept(util::Duration timeout);

  void close();

  NapletServerSocket(SocketController& controller, agent::AgentId self)
      : controller_(&controller), self_(std::move(self)) {}

 private:
  SocketController* controller_;
  agent::AgentId self_;
  bool closed_ = false;
};

/// Fetch the controller middleware from an agent context; nullptr when the
/// hosting server has no NapletSocket support.
SocketController* controller_of(agent::AgentContext& ctx);

}  // namespace naplet::nsock
