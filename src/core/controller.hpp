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

#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "agent/agent_server.hpp"
#include "core/redirector.hpp"
#include "core/session.hpp"
#include "core/session_shards.hpp"
#include "core/stats.hpp"
#include "core/wire.hpp"
#include "crypto/dh.hpp"
#include "group/coordinator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/journal.hpp"

namespace naplet::nsock {

/// Fault-tolerance extension (the paper's §7 future work): detection and
/// recovery from link/host failures. Off by default — the paper's protocol
/// assumes coordinated suspensions only.
struct FailureRecoveryConfig {
  bool enabled = false;
  /// Repair-loop cadence: scan for broken data sockets, probe idle peers.
  util::Duration probe_interval{std::chrono::milliseconds(200)};
  /// Consecutive unacknowledged heartbeats before a peer is declared dead
  /// and its sessions aborted.
  int miss_threshold = 3;
  /// Per-session bound on the sent-frame retransmission history that makes
  /// uncoordinated stream loss recoverable without data loss.
  std::size_t history_bytes = 1 << 20;
  /// Liveness probes get their own short reliability deadline instead of
  /// inheriting ctrl_response_timeout: one dead peer must not stall the
  /// whole probe round for seconds.
  util::Duration probe_timeout{std::chrono::milliseconds(300)};
};

/// Crash-recovery extension: fsync'd write-ahead journal of session state
/// at protocol commit points, replayed by SocketController::recover() after
/// a controller restart. Off by default.
struct DurabilityConfig {
  bool enabled = false;
  /// Directory holding journal.nplj + snapshot.npls for this controller.
  std::string dir;
  /// Journal appends between snapshot compactions.
  std::uint64_t compact_every = 64;
};

struct ControllerConfig {
  /// Security on: authenticate + authorize at connect, DH session keys,
  /// HMAC-verified control messages. Off: the Table-1 "w/o security" mode.
  bool security = true;
  crypto::DhGroup dh_group = crypto::DhGroup::kModp768;
  std::uint16_t redirector_port = 0;
  FailureRecoveryConfig failure_recovery{};
  /// Crash-recovery extension: durable journal + restart recovery.
  DurabilityConfig durability{};
  /// Crash-recovery extension: redirector entries become leases with this
  /// policy (refreshed by the repair loop, evicted on expiry).
  LeaseConfig redirector_leases{};
  /// Resume attempts before giving up. 1 = the paper's single-shot resume;
  /// higher values retry with capped exponential backoff, absorbing a peer
  /// controller that is restarting from its journal.
  int resume_max_attempts = 1;
  util::Duration resume_retry_backoff{std::chrono::milliseconds(100)};
  double resume_retry_multiplier = 2.0;
  util::Duration resume_retry_cap{std::chrono::seconds(2)};
  /// When a suspend handshake dies mid-flight (no SUS response) but the
  /// data stream is still healthy, roll back to ESTABLISHED instead of the
  /// fail-safe local suspension.
  bool suspend_rollback = false;
  /// Atomic whole-agent group suspend: prepare_migration sweeps ALL of an
  /// agent's established connections into SUSPENDED behind one barrier
  /// (consistent cross-connection cut) with a two-phase journal commit and
  /// full-group rollback on any member failure. Off = the paper's serial
  /// §3.2 sweep.
  bool group_suspend = false;
  /// Phase-1 bound: how long the group coordinator waits for every member
  /// to reach the barrier before failing the whole group.
  util::Duration group_prepare_timeout{std::chrono::seconds(8)};

  util::Duration ctrl_response_timeout{std::chrono::seconds(5)};
  util::Duration connect_timeout{std::chrono::seconds(5)};
  util::Duration resume_timeout{std::chrono::seconds(10)};
  util::Duration drain_timeout{std::chrono::seconds(5)};
  /// How long a parked suspend waits for the peer's migration to finish.
  util::Duration park_timeout{std::chrono::seconds(30)};
  /// Default application send/recv blocking bound.
  util::Duration io_timeout{std::chrono::seconds(30)};
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

  /// Atomic whole-agent group suspend (the group_suspend config path,
  /// also reachable directly): sweep every established connection of `id`
  /// into SUSPENDED as one barrier operation with a two-phase journal
  /// commit. On any member failure the ENTIRE group rolls back to
  /// ESTABLISHED with blocked senders/receivers woken. Public so tests
  /// and tools can drive the group path without a full migration.
  util::Status group_suspend(const agent::AgentId& id);

  /// In-flight group-suspend registry (tests: barrier/cancel visibility).
  [[nodiscard]] group::GroupSuspendCoordinator& group_coordinator() {
    return group_coordinator_;
  }
  [[nodiscard]] std::uint64_t group_rollbacks() const {
    return group_rollbacks_.value();
  }

  /// Crash-recovery extension: replay the durable journal after a restart.
  /// Every recorded session is reconstructed in SUSPENDED with its sealed
  /// input buffer and re-registered (sessions table + redirector lease) so
  /// peer RESUME retries find it. Requires durability.enabled; call after
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
  /// Consistent snapshot of the connection table and every counter.
  [[nodiscard]] ControllerStats stats() const;

  /// This controller's metric registry: counters/gauges/histograms for
  /// every protocol phase. Per-controller (not process-global) so multi-
  /// node testbeds in one process stay independent.
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
  [[nodiscard]] std::uint64_t epoch() const { return epoch_.load(); }
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

  // Control-message handlers.
  void handle_connect(const net::Endpoint& from, CtrlMsg msg);
  void handle_connect_reply(CtrlMsg msg);
  void handle_sus(CtrlMsg msg);
  void handle_sus_response(CtrlMsg msg);  // SUS_ACK / ACK_WAIT
  void handle_sus_res(CtrlMsg msg);
  void handle_cls(CtrlMsg msg);
  void handle_simple_ack(CtrlMsg msg);    // CLS_ACK / SUS_RES_ACK

  // Handoff handlers.
  void handle_attach(std::shared_ptr<net::Stream> stream, HandoffMsg msg);
  void handle_resume_request(std::shared_ptr<net::Stream> stream,
                             HandoffMsg msg);

  // Internals. `max_wait` (0 = unbounded) caps the reliability layer's
  // retransmission loop — used by liveness probes so a dead peer costs at
  // most probe_timeout per round.
  util::Status send_ctrl(const net::Endpoint& dest, CtrlMsg& msg,
                         util::ByteSpan session_key,
                         util::Duration max_wait = {});
  /// Stamp the sender agent + MAC from `session` and send to `dest`.
  util::Status send_session_ctrl(const net::Endpoint& dest, CtrlMsg& msg,
                                 const Session& session,
                                 util::Duration max_wait = {});
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
  /// The §3.2 sweep step for one connection during prepare_migration.
  util::Status suspend_for_migration(const SessionPtr& session,
                                     const agent::AgentId& id);
  /// Active suspend from ESTABLISHED (shared by app suspend + migration).
  util::Status active_suspend(const SessionPtr& session);
  /// Complete a passive suspension (drain + close) after agreeing to SUS.
  void finish_passive_suspend(const SessionPtr& session,
                              std::uint64_t peer_mark);
  /// Reconnect a suspended session through the peer's redirector, retrying
  /// up to resume_max_attempts with capped exponential backoff.
  util::Status do_resume(const SessionPtr& session);
  /// One resume attempt (the paper's single-shot flow).
  util::Status do_resume_once(const SessionPtr& session);

  // Group-suspend internals (controller_group.cpp).
  /// The whole sweep: freeze members, run phase 1 workers, then commit or
  /// roll back. Called with the agent already marked migrating.
  util::Status group_suspend_sweep(const agent::AgentId& id,
                                   const std::vector<SessionPtr>& members);
  /// Phase-1 worker body for one member: send SUS with the group id, wait
  /// for the ack, drain to the peer's mark, arrive at the barrier.
  util::Status group_prepare_member(const SessionPtr& session,
                                    const std::shared_ptr<group::GroupBarrier>&
                                        barrier);
  /// Roll the entire group back after a phase-1 failure or commit abort.
  void group_rollback(const std::vector<SessionPtr>& members,
                      std::uint64_t group_id, const std::string& reason);
  /// Peer side of the consistent cut: on the first SUS carrying a group
  /// id, pre-freeze every OTHER established session facing the migrating
  /// agent so nothing written after the first member's cut can slip into
  /// a later member's buffer. A watchdog reverts orphaned pre-freezes.
  void group_freeze_inbound(const SessionPtr& trigger, const CtrlMsg& msg);
  /// Watchdog body: revert still-pre-frozen sessions of `peer_agent` to
  /// ESTABLISHED if their own group SUS never arrives within the bound.
  void group_prefreeze_watchdog(std::string peer_agent,
                                std::vector<std::uint64_t> conn_ids);

  /// Wait on session.responses() for one of `want`, discarding stale
  /// response types. Shared by the suspend/close/resume waiters in
  /// controller_ops.cpp and the group prepare workers.
  static std::optional<Session::CtrlResponse> wait_response(
      Session& session, std::initializer_list<CtrlType> want,
      util::Duration timeout);

  // Crash-recovery extension internals.
  /// Journal the session's current state at a protocol commit point.
  void journal_commit(recovery::CommitPoint point, const SessionPtr& session);
  /// Journal that the connection left this controller (close / export).
  void journal_remove(recovery::CommitPoint point, std::uint64_t conn_id);
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

  // Observability. The registry owns every instrument; the references
  // below are cached registrations, so hot-path recording is lock-free.
  // Declared before the references (member initialization order).
  // mutable: stats() const mirrors externally-owned values (session table,
  // redirector leases) into gauges right before taking a snapshot.
  mutable obs::Registry registry_;

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

  // Group-suspend state. The coordinator registry is internally
  // synchronized (ranks 7/9, below mu_'s 10 — group code always releases
  // them before touching controller state). Watchdog threads revert
  // orphaned peer-side pre-freezes; finished entries are reaped on the
  // next spawn and all are joined in stop().
  group::GroupSuspendCoordinator group_coordinator_ NAPLET_NOT_GUARDED(
      "internally synchronized behind its own rank-7 registry mutex");
  struct PrefreezeWatchdog {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<PrefreezeWatchdog> prefreeze_watchdogs_ NAPLET_GUARDED_BY(mu_);
  /// Monotonic group-id source (combined with the epoch on the wire).
  std::atomic<std::uint64_t> next_group_id_{1};

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
  // journal_commit never runs under mu_.
  std::unique_ptr<recovery::DurableStore> store_ NAPLET_NOT_GUARDED(
      "created in start() before worker threads; the store is internally "
      "synchronized");
  /// This controller's incarnation epoch, stamped into every outbound
  /// control/handoff message. 1 without durability; from the store (strictly
  /// above every pre-crash epoch) with it.
  std::atomic<std::uint64_t> epoch_{1};
  obs::Counter& sessions_recovered_;
  obs::Counter& resume_retries_;
  obs::Counter& epoch_fenced_;
  obs::Counter& group_rollbacks_;

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
  // Group-suspend phase breakdown (prepare = SUS fan-out to barrier,
  // commit = journal pair, rollback = full-group revert, suspend = whole
  // group_suspend() makespan).
  obs::Histogram& hist_group_prepare_us_;
  obs::Histogram& hist_group_commit_us_;
  obs::Histogram& hist_group_rollback_us_;
  obs::Histogram& hist_group_suspend_us_;
};

}  // namespace naplet::nsock
