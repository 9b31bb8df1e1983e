// SocketController — fault-tolerance extension (paper §7 future work).
//
// The paper's mechanism assumes every data-socket teardown is coordinated
// by the suspension protocol; link or host failures are explicitly left to
// future work. This extension adds:
//
//  * broken-link detection: a read EOF / write error on the data socket
//    while ESTABLISHED marks the session broken;
//  * automatic repair: the repair loop force-suspends a broken session
//    locally (via the FSM's timeout arcs) and re-runs the resume handshake;
//    both sides exchange their receive high-water marks and replay missed
//    frames from the bounded retransmission history, preserving
//    exactly-once delivery even though no drain could run;
//  * host-failure detection: periodic HEARTBEAT control messages; the
//    reliability layer's ACK is the liveness signal. After `miss_threshold`
//    consecutive unacknowledged probes the peer is declared dead and the
//    session is aborted locally, releasing any blocked callers.
//
// Everything here is gated behind ControllerConfig::tolerance.
#include "core/controller.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

void SocketController::repair_loop() {
  while (!stopped_.load()) {
    // stop() sets the event: the loop wakes immediately instead of
    // finishing its probe-interval sleep.
    if (stop_event_.wait_for(config_.tolerance.probe_interval)) break;
    if (stopped_.load()) break;

    for (const SessionPtr& session : sessions_.snapshot_all()) {
      if (stopped_.load()) break;
      if (session->state() == ConnState::kEstablished &&
          session->is_broken() &&
          !agent_is_migrating(session->local_agent())) {
        repair_session(session);
      }
    }
    probe_peers();
  }
}

void SocketController::repair_session(const SessionPtr& session) {
  NAPLET_LOG(kWarn, "recovery")
      << "conn " << session->conn_id()
      << ": data socket lost outside the protocol; repairing";

  // Force a local suspension through the FSM's legal timeout arcs, then
  // re-run resume. Only proceed if the session is still established (the
  // peer's repair may already be re-attaching through our redirector).
  if (!session->advance(ConnEvent::kAppSuspend).ok()) return;
  session->close_stream();
  if (!session->advance(ConnEvent::kTimeout).ok()) return;  // -> SUSPENDED

  auto status = do_resume(session);
  if (status.ok()) {
    links_repaired_.add(1);
    NAPLET_LOG(kInfo, "recovery")
        << "conn " << session->conn_id() << ": link repaired";
  } else {
    NAPLET_LOG(kWarn, "recovery")
        << "conn " << session->conn_id()
        << ": repair failed: " << status.to_string();
  }
}

void SocketController::probe_peers() {
  const ToleranceConfig& tol = config_.tolerance;
  const std::vector<SessionPtr> sessions = sessions_.snapshot_all();

  std::vector<SessionPtr> dead;
  for (const SessionPtr& session : sessions) {
    if (stopped_.load()) return;
    if (session->state() != ConnState::kEstablished) continue;
    if (agent_is_migrating(session->local_agent())) continue;

    // The reliability layer's ACK doubles as the liveness signal: a send
    // that exhausts its retransmissions is a missed heartbeat. Probes get
    // their own short deadline — one dead peer must not stall the whole
    // round for the full ctrl_response_timeout.
    CtrlMsg probe;
    probe.type = CtrlType::kHeartbeat;
    probe.conn_id = session->conn_id();
    const auto status = send_session_ctrl(session->peer_node().control, probe,
                                          *session, tol.probe_timeout);

    util::MutexLock lock(mu_);
    if (status.ok()) {
      heartbeat_misses_.erase(session->conn_id());
      continue;
    }
    const int misses = ++heartbeat_misses_[session->conn_id()];
    if (misses >= tol.miss_threshold) {
      heartbeat_misses_.erase(session->conn_id());
      NAPLET_LOG(kError, "recovery")
          << "conn " << session->conn_id() << ": peer "
          << session->peer_agent().name() << " unresponsive after " << misses
          << " probes; declaring dead";
      dead.push_back(session);
    }
  }

  for (const SessionPtr& session : dead) {
    peers_declared_dead_.add(1);
    abort_session(session);
  }
}

void SocketController::abort_session(const SessionPtr& session) {
  // An in-flight SUS exchange on this connection wakes on the CLOSED state
  // and gives up.
  //
  // Deregister first so that by the time waiters observe CLOSED the
  // controller's books are already consistent.
  remove_session(session);
  journal_commit(recovery::CommitPoint::kClosed, session);
  // abort_local forces CLOSED from ANY state (the old advance(kAppClose)
  // path only worked from ESTABLISHED/SUSPENDED, leaving resume waiters in
  // RES_SENT/RESUME_WAIT to hang until their deadlines) and wakes every
  // waiter on the session: senders, receivers, resume waiters, parked
  // suspends and reply waiters.
  session->abort_local();
  // Ship the session's recent history with the abort. This runs with NO
  // controller or session locks held (dump() iterates lock-free slots), so
  // a slow stderr cannot delay the waiters woken above.
  NAPLET_LOG(kError, "recovery")
      << "conn " << session->conn_id()
      << ": aborted; flight recorder follows\n"
      << session->recorder().dump();
}

util::Status SocketController::recover() {
  if (!store_) {
    return util::FailedPrecondition(
        "recover() requires durability.enabled and a started controller");
  }
  if (store_->degraded()) {
    NAPLET_LOG(kWarn, "recovery")
        << "recovering from degraded store: " << store_->degraded_note();
  }
  std::size_t restored = 0;
  std::size_t failed = 0;
  const std::map<std::uint64_t, util::Bytes> recovered = store_->recovered();
  for (const auto& [conn_id, blob] : recovered) {
    auto session =
        Session::import_state(util::ByteSpan(blob.data(), blob.size()));
    if (!session.ok()) {
      ++failed;
      NAPLET_LOG(kError, "recovery")
          << "conn " << conn_id
          << ": journal blob unusable: " << session.status().to_string();
      continue;
    }
    // The session lands SUSPENDED with its sealed input buffer; the peer's
    // resume retry finds it in the session table.
    insert_session(*session);
    sessions_recovered_.add(1);
    ++restored;
  }
  NAPLET_LOG(kInfo, "recovery")
      << "recovered " << restored << " session(s) at epoch " << epoch()
      << (failed != 0 ? " (" + std::to_string(failed) + " unusable)" : "");
  if (failed != 0 && restored == 0) {
    return util::ProtocolError("no journaled session could be restored");
  }
  return util::OkStatus();
}

}  // namespace naplet::nsock
