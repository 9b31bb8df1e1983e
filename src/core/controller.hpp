// SocketController: the NapletSocket management component (paper §2.1).
//
// One controller per agent server, shared by all of that server's
// NapletSockets. It owns:
//  * connection setup — the CONNECT/ACK+ID/ID handshake, agent-oriented
//    access control, and Diffie–Hellman session-key establishment;
//  * the suspension protocol — SUS/SUS_ACK/ACK_WAIT/SUS_RES with the
//    overlapped and non-overlapped concurrent-migration rules and
//    hash-priority arbitration (§3.1) plus the multi-connection sweep
//    rules (§3.2);
//  * resume — data-socket re-binding through the peer's redirector,
//    including the RESUME_WAIT delays and location-service fallback when
//    the last-known peer address is stale;
//  * close — CLS/CLS_ACK;
//  * the ConnectionMigrator hooks the docking system calls around hops.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "agent/agent_server.hpp"
#include "core/redirector.hpp"
#include "core/session.hpp"
#include "core/session_shards.hpp"
#include "core/stats.hpp"
#include "core/wire.hpp"
#include "crypto/dh.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/journal.hpp"

namespace naplet::nsock {

/// Per-session bound on the sent-frame retransmission history that makes
/// uncoordinated stream loss recoverable without data loss (tolerance on).
inline constexpr std::size_t kHistoryBytes = 1 << 20;

/// Fault tolerance (the paper's §7 future work). Off is the paper's
/// protocol, which assumes coordinated suspensions only. On runs, as one
/// unit: the repair loop (broken-link repair and heartbeat death
/// detection), history replay on resume, suspend rollback and resume
/// retries (50 ms doubling to 400 ms, 25 attempts).
struct ToleranceConfig {
  bool enabled = false;
  /// Repair-loop cadence: scan for broken data sockets, probe idle peers.
  util::Duration probe_interval{std::chrono::milliseconds(200)};
  /// Liveness probes get their own short reliability deadline instead of
  /// inheriting ctrl_response_timeout: one dead peer must not stall the
  /// whole probe round for seconds.
  util::Duration probe_timeout{std::chrono::milliseconds(300)};
  /// Consecutive unacknowledged heartbeats before a peer is declared dead
  /// and its sessions aborted.
  int miss_threshold = 3;
};

/// Crash-recovery extension: fsync'd write-ahead journal of session state
/// at protocol commit points, replayed by SocketController::recover() after
/// a controller restart. Off by default.
struct DurabilityConfig {
  bool enabled = false;
  /// Directory holding journal.nplj + snapshot.npls for this controller.
  std::string dir;
  /// Compaction trigger: the snapshot is rewritten once the journal has
  /// grown by max(this many bytes, twice the last snapshot's size).
  std::uint64_t compact_floor_bytes = 1 << 20;
};

struct ControllerConfig {
  /// Security on: authenticate + authorize at connect, DH session keys,
  /// HMAC-verified control messages. Off: the Table-1 "w/o security" mode.
  bool security = true;
  crypto::DhGroup dh_group = crypto::DhGroup::kModp768;
  std::uint16_t redirector_port = 0;
  ToleranceConfig tolerance{};
  /// Crash-recovery extension: durable journal + restart recovery.
  DurabilityConfig durability{};

  util::Duration ctrl_response_timeout{std::chrono::seconds(5)};
  util::Duration connect_timeout{std::chrono::seconds(5)};
  util::Duration resume_timeout{std::chrono::seconds(10)};
  util::Duration drain_timeout{std::chrono::seconds(5)};
};

/// Client-observed phase breakdown of one connection setup (Figure 8).
struct ConnectBreakdown {
  double management_ms = 0;
  double security_check_ms = 0;  // authentication + authorization
  double key_exchange_ms = 0;    // DH generate + shared-secret derivation
  double handshake_ms = 0;       // control-channel and handoff round trips
  double open_socket_ms = 0;     // raw TCP connect to the redirector

  [[nodiscard]] double total_ms() const {
    return management_ms + security_check_ms + key_exchange_ms +
           handshake_ms + open_socket_ms;
  }
};

class SocketController final : public agent::ConnectionMigrator {
 public:
  SocketController(agent::AgentServer& server, ControllerConfig config = {});
  ~SocketController() override;

  SocketController(const SocketController&) = delete;
  SocketController& operator=(const SocketController&) = delete;

  /// Start the redirector, subscribe to the control bus, and register this
  /// controller as the server's migrator + the "napletsocket" service.
  util::Status start();
  void stop();

  [[nodiscard]] net::Endpoint redirector_endpoint() const {
    return redirector_ ? redirector_->endpoint() : net::Endpoint{};
  }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] agent::AgentServer& server() { return server_; }

  // ---- agent-facing operations (wrapped by NapletSocket classes) ----

  /// Active open from `self` to `peer` (paper Fig. 6 flow). On success the
  /// session is ESTABLISHED. `breakdown` (optional) receives phase timings.
  util::StatusOr<SessionPtr> connect(const agent::AgentId& self,
                                     const agent::AgentId& peer,
                                     ConnectBreakdown* breakdown = nullptr);

  /// Passive open: make `self` accept NapletSocket connections.
  util::Status listen(const agent::AgentId& self);
  util::Status unlisten(const agent::AgentId& self);
  [[nodiscard]] bool is_listening(const agent::AgentId& self) const;

  /// Accept the next established inbound connection for `self`.
  util::StatusOr<SessionPtr> accept(const agent::AgentId& self,
                                    util::Duration timeout);

  /// Suspend a connection (explicit application control, paper §2.1).
  util::Status suspend(const SessionPtr& session);
  /// Resume a suspended connection (reconnect through the peer redirector).
  util::Status resume(const SessionPtr& session);
  /// Close from ESTABLISHED or SUSPENDED.
  util::Status close(const SessionPtr& session);

  /// Crash-recovery extension: replay the durable journal after a restart.
  /// Every recorded session is reconstructed in SUSPENDED with its sealed
  /// input buffer and re-inserted in the session table so peer RESUME
  /// retries find it. Requires durability.enabled; call after
  /// start().
  util::Status recover();

  /// Abort a session locally without a close handshake: all blocked
  /// send()/recv()/resume() waiters wake with kAborted. Public so tests and
  /// tools can exercise the peer-declared-dead path directly.
  void abort(const SessionPtr& session) { abort_session(session); }

  // ---- ConnectionMigrator ----

  util::Status prepare_migration(const agent::AgentId& id) override;
  util::Bytes export_sessions(const agent::AgentId& id) override;
  util::Status import_sessions(const agent::AgentId& id,
                               util::ByteSpan data) override;
  util::Status complete_migration(const agent::AgentId& id) override;
  void close_all(const agent::AgentId& id) override;

  // ---- observability ----

  /// Look up a live session by connection id (tests, benches, tooling).
  [[nodiscard]] SessionPtr session_by_id(std::uint64_t conn_id) const {
    return find_session(conn_id);
  }

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::uint64_t mac_rejections() const {
    return mac_rejections_.value();
  }
  [[nodiscard]] std::uint64_t access_denials() const {
    return access_denials_.value();
  }
  /// The session-table view plus a snapshot of the node registry.
  [[nodiscard]] ControllerStats stats() const;

  /// The node's metric registry (owned by the AgentServer): this
  /// controller's counters/gauges/histograms for every protocol phase,
  /// plus the control channel's and the redirector's instruments.
  [[nodiscard]] obs::Registry& metrics() noexcept { return registry_; }

  /// Concatenated flight-recorder dumps of every live session (failure
  /// diagnostics: the chaos harness attaches this to failing cases).
  [[nodiscard]] std::string recorder_dumps() const;

  /// Fault-tolerance extension counters.
  [[nodiscard]] std::uint64_t links_repaired() const {
    return links_repaired_.value();
  }
  [[nodiscard]] std::uint64_t peers_declared_dead() const {
    return peers_declared_dead_.value();
  }

  /// Crash-recovery extension counters.
  [[nodiscard]] std::uint64_t epoch() const {
    return static_cast<std::uint64_t>(epoch_.value());
  }
  [[nodiscard]] std::uint64_t sessions_recovered() const {
    return sessions_recovered_.value();
  }
  [[nodiscard]] std::uint64_t resume_retries() const {
    return resume_retries_.value();
  }
  [[nodiscard]] std::uint64_t epoch_fenced() const {
    return epoch_fenced_.value();
  }
  [[nodiscard]] const recovery::DurableStore* durable_store() const {
    return store_.get();
  }
  [[nodiscard]] Redirector* redirector() { return redirector_.get(); }

  /// Service name under which the controller registers with the server.
  static constexpr const char* kServiceName = "napletsocket";

 private:
  struct PendingConnect {
    util::Event done;
    util::Status status = util::OkStatus();
    std::uint64_t conn_id = 0;
    util::Bytes server_dh_public;
    agent::NodeInfo server_node;
  };

  // Bus / handoff entry points.
  void on_ctrl(const net::Endpoint& from, util::ByteSpan payload);
  void on_handoff(std::shared_ptr<net::Stream> stream, HandoffMsg msg);

  // Control-message handlers. on_ctrl has already found the session,
  // checked the MAC and admitted the epoch for the session-bound ones.
  void handle_connect(const net::Endpoint& from, CtrlMsg msg);
  void handle_connect_reply(CtrlMsg msg);
  void handle_sus(const SessionPtr& session, const CtrlMsg& msg);
  void handle_sus_res(Session& session, const CtrlMsg& msg);
  void handle_cls(const SessionPtr& session, const CtrlMsg& msg);

  // Handoff handlers.
  void handle_attach(std::shared_ptr<net::Stream> stream, HandoffMsg msg);
  void handle_resume_request(std::shared_ptr<net::Stream> stream,
                             HandoffMsg msg);

  // Internals. kAwaitAck blocks until the peer's channel ACKs the message;
  // kPost returns once it is on the wire (rudp keeps retransmitting it).
  // Bus handlers run on the rudp receiver thread and must post: every
  // reply, CONNECT_ACK included, is posted. So are the initiator requests
  // whose reply proves delivery (CONNECT, CLS, the first SUS of an
  // exchange); SUS resends, SUS_RES and heartbeats wait.
  enum class Delivery : std::uint8_t { kAwaitAck, kPost };
  // `max_wait` (0 = unbounded) caps the reliability layer's retransmission
  // loop for kAwaitAck — used by liveness probes so a dead peer costs at
  // most probe_timeout per round. `on_failure` (kPost only) hears of a
  // posted message whose retransmits ran out.
  util::Status send_ctrl(const net::Endpoint& dest, CtrlMsg& msg,
                         util::ByteSpan session_key,
                         util::Duration max_wait = {},
                         Delivery delivery = Delivery::kAwaitAck,
                         net::ReliableChannel::OnFailure on_failure = {});
  /// Stamp the sender agent + MAC from `session` and send to `dest`.
  util::Status send_session_ctrl(const net::Endpoint& dest, CtrlMsg& msg,
                                 const Session& session,
                                 util::Duration max_wait = {},
                                 Delivery delivery = Delivery::kAwaitAck);
  /// A bus handler's reply: posted, outcome ignored (the initiator's
  /// response timeout covers a reply that never arrives).
  void post_reply(const net::Endpoint& dest, CtrlMsg& msg) {
    (void)send_ctrl(dest, msg, {}, {}, Delivery::kPost);
  }
  void post_reply(const net::Endpoint& dest, CtrlMsg& msg,
                  const Session& session) {
    (void)send_session_ctrl(dest, msg, session, {}, Delivery::kPost);
  }
  util::Status reply_handoff(net::Stream& stream, HandoffMsg msg,
                             util::ByteSpan session_key);
  /// First session with this conn id (tests/tools; unique in practice
  /// except when both endpoints live on one node).
  [[nodiscard]] SessionPtr find_session(std::uint64_t conn_id) const;
  /// The session with this conn id whose PEER is `sender` — the correct
  /// target for a message sent by `sender`. Falls back to the sole match
  /// when `sender` is empty.
  [[nodiscard]] SessionPtr find_session_from(std::uint64_t conn_id,
                                             const std::string& sender) const;
  void insert_session(const SessionPtr& session);
  void remove_session(const SessionPtr& session);
  [[nodiscard]] std::vector<SessionPtr> sessions_of(
      const agent::AgentId& id) const;
  [[nodiscard]] bool agent_is_migrating(const agent::AgentId& id) const;
  /// Re-read the peer's node from the location service (the peer may have
  /// moved); keeps the last known node when the peer is in transit.
  void refresh_peer_node(Session& session);
  /// Sessions whose commit point one caller journals together: the mover's
  /// sweep and completion collect their sessions here and journal them in
  /// one batch after the loop.
  using CommitBatch = std::vector<SessionPtr>;
  /// The §3.2 sweep step for one connection during prepare_migration. A
  /// suspension it commits is deferred to `swept` when given.
  util::Status suspend_for_migration(const SessionPtr& session,
                                     const agent::AgentId& id,
                                     CommitBatch* swept = nullptr);
  /// Active suspend from ESTABLISHED (shared by app suspend + migration).
  /// nullopt when the state left ESTABLISHED before the FSM step (a peer
  /// SUS handled on the bus thread): the caller re-runs its state dispatch.
  /// The suspend commit is journaled here, or deferred to `swept`.
  std::optional<util::Status> active_suspend(const SessionPtr& session,
                                             CommitBatch* swept = nullptr);
  /// Complete a passive suspension (drain + close) after agreeing to SUS.
  void finish_passive_suspend(const SessionPtr& session,
                              std::uint64_t peer_mark);
  /// Reconnect a suspended session through the peer's redirector; under
  /// tolerance a timed-out attempt is retried with capped backoff. The
  /// resume commit is journaled here, or deferred to `resumed`.
  util::Status do_resume(const SessionPtr& session,
                         CommitBatch* resumed = nullptr);
  /// One resume attempt (the paper's single-shot flow).
  util::Status do_resume_once(const SessionPtr& session,
                              CommitBatch* resumed);

  /// One SUS exchange for active_suspend: empty the reply slot for this
  /// round (the session's trace id), post `sus`, then wait for this
  /// round's SUS_ACK, ACK_WAIT or REJECT while pumping the receive side,
  /// resending with a peer-location refresh every max(250 ms,
  /// ctrl_response_timeout / 4). Returns nullopt at `deadline_us` or when
  /// the session leaves the live states. A zero `deadline_us` is set to
  /// one ctrl_response_timeout after the first send; a caller that repeats
  /// the exchange passes it back to keep one deadline.
  std::optional<Session::Reply> exchange_sus(Session& session, CtrlMsg& sus,
                                             std::int64_t& deadline_us);

  // Crash-recovery extension internals.
  /// Journal `sessions` at one protocol commit point as one batch: one
  /// journal write and one fsync for all of them. A removal point (close,
  /// export) records that the connection left this controller; any other
  /// point records the session's current state. Failures are logged and
  /// returned.
  util::Status journal_batch(recovery::CommitPoint point,
                             std::span<const SessionPtr> sessions);
  void journal_commit(recovery::CommitPoint point, const SessionPtr& session) {
    (void)journal_batch(point, std::span(&session, 1));
  }
  /// Journal `session` at `point` now, or leave it to the caller that
  /// journals `batch` (when given).
  void commit_or_defer(recovery::CommitPoint point, const SessionPtr& session,
                       CommitBatch* batch) {
    if (batch != nullptr) {
      batch->push_back(session);
    } else {
      journal_commit(point, session);
    }
  }
  /// Epoch fence: admit `msg` only if its incarnation epoch is not older
  /// than the highest this session has seen from the peer. Returns false
  /// (and counts) for stale pre-crash messages, which the caller drops.
  bool admit_epoch(Session& session, const CtrlMsg& msg);

  [[nodiscard]] agent::NodeInfo self_node() const;

  /// Record a migration span event into the process trace sink, attributed
  /// to `trace_id` (dropped when 0) with this controller's node as host.
  void span(std::uint64_t trace_id, obs::SpanKind kind, const Session& session,
            std::string detail = {}, std::uint64_t value = 0) const;

  // Fault-tolerance extension internals.
  void repair_loop();
  void repair_session(const SessionPtr& session);
  void probe_peers();
  /// Abort a session locally (peer declared dead): no handshake, waiters
  /// released, registry entry dropped.
  void abort_session(const SessionPtr& session);

  agent::AgentServer& server_;
  ControllerConfig config_ NAPLET_NOT_GUARDED("set at construction, "
                                              "immutable");
  std::unique_ptr<Redirector> redirector_ NAPLET_NOT_GUARDED(
      "created in start() before worker threads; the Redirector is "
      "internally synchronized");

  // Observability. The node registry owns every instrument; the references
  // below are cached registrations, so hot-path recording is lock-free.
  // Declared before the references (member initialization order).
  obs::Registry& registry_;

  // Outermost rank in the lock hierarchy (see DESIGN.md "Concurrency
  // invariants"): held while calling into session state cells and accept
  // queues, never the other way around.
  mutable util::Mutex mu_{util::LockRank::kController, "controller"};
  // Sharded session table (DESIGN.md §15): per-shard locks at rank
  // kControllerShard, legal to take with or without mu_ held.
  SessionShardMap sessions_ NAPLET_NOT_GUARDED(
      "internally synchronized per-shard (rank kControllerShard)");
  std::map<agent::AgentId,
           std::shared_ptr<util::BlockingQueue<SessionPtr>>>
      accept_queues_ NAPLET_GUARDED_BY(mu_);
  std::map<std::uint64_t, std::shared_ptr<PendingConnect>> pending_connects_
      NAPLET_GUARDED_BY(mu_);
  std::set<agent::AgentId> migrating_agents_ NAPLET_GUARDED_BY(mu_);

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  /// Set once by stop(): every retry/backoff pause in the operation paths
  /// waits on this instead of sleeping, so shutdown interrupts them
  /// immediately (a woken waiter returns kCancelled).
  util::Event stop_event_;
  obs::Counter& mac_rejections_;
  obs::Counter& access_denials_;

  // Fault-tolerance extension state.
  std::thread repair_thread_;
  std::map<std::uint64_t, int> heartbeat_misses_
      NAPLET_GUARDED_BY(mu_);  // conn_id -> misses
  obs::Counter& links_repaired_;
  obs::Counter& peers_declared_dead_;

  // Crash-recovery extension state. The store serializes its own writes;
  // journal_batch never runs under mu_.
  std::unique_ptr<recovery::DurableStore> store_ NAPLET_NOT_GUARDED(
      "created in start() before worker threads; the store is internally "
      "synchronized");
  /// This controller's incarnation epoch (gauge `epoch`), stamped into
  /// every outbound control/handoff message. 1 without durability; from
  /// the store (strictly above every pre-crash epoch) with it.
  obs::Gauge& epoch_;
  obs::Counter& sessions_recovered_;
  obs::Counter& resume_retries_;
  obs::Counter& epoch_fenced_;

  // Latency / size distributions (paper §4.2 phases + the extensions).
  obs::Histogram& hist_suspend_us_;
  obs::Histogram& hist_drain_us_;
  obs::Histogram& hist_handoff_us_;
  obs::Histogram& hist_resume_us_;
  obs::Histogram& hist_replay_bytes_;
  obs::Histogram& hist_connect_total_us_;
  obs::Histogram& hist_connect_management_us_;
  obs::Histogram& hist_connect_security_us_;
  obs::Histogram& hist_connect_key_exchange_us_;
  obs::Histogram& hist_connect_handshake_us_;
  obs::Histogram& hist_connect_open_us_;
};

}  // namespace naplet::nsock
