// SocketController — suspension, resume, close, and the ConnectionMigrator
// hooks (paper §2.2 suspend/resume/close, §3.1 concurrent migration,
// §3.2 multiple connections). Split from controller.cpp for readability.
#include <algorithm>

#include "core/controller.hpp"
#include "crypto/random.hpp"
#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

namespace {

constexpr util::Duration kRetrySleep = std::chrono::milliseconds(20);
constexpr util::Duration kExchangeSlice = std::chrono::milliseconds(20);
/// How long a parked suspend waits for the peer's migration to finish.
constexpr util::Duration kParkTimeout = std::chrono::seconds(30);
constexpr util::Duration kStatePollSlice = std::chrono::milliseconds(50);

std::int64_t now_us() { return util::RealClock::instance().now_us(); }

/// Wait out a parked suspend. SUSPEND_WAIT is left only by the peer's
/// SUS_RES or RESUME (-> SUSPENDED, with the flags that go with it; one
/// that landed before the park was applied by Session::park) or by the
/// session ending (forced CLOSED: a peer CLS, abort, export, stop).
util::Status await_park_release(Session& session) {
  const auto released = [](ConnState s) {
    return s != ConnState::kSuspendWait;
  };
  if (session.wait_state(released, kParkTimeout)) return util::OkStatus();
  return util::Timeout("parked suspend not released for conn " +
                       std::to_string(session.conn_id()));
}

/// Resume glare: while the peer's own RESUME is being accepted on this
/// session (RES_ACKED), wait for that to finish — it ends in ESTABLISHED on
/// success. Returns the state reached (still RES_ACKED on timeout).
ConnState settle_peer_resume(Session& session, util::Duration timeout) {
  const ConnState st = session.state();
  if (st != ConnState::kResAcked) return st;
  return session
      .wait_state([](ConnState s) { return s != ConnState::kResAcked; },
                  timeout)
      .value_or(ConnState::kResAcked);
}

}  // namespace

// ===========================================================================
// Suspension — active side

std::optional<Session::Reply> SocketController::exchange_sus(
    Session& session, CtrlMsg& sus, std::int64_t& deadline_us) {
  // Only this round's reply counts: the peer echoes the SUS's trace id,
  // and a reply to an earlier round (a duplicated SUS answered twice) is
  // dropped at the slot.
  session.expect_reply({CtrlType::kSusAck, CtrlType::kAckWait,
                        CtrlType::kReject},
                       session.trace_id());
  // Posted: the peer's reply proves delivery, and the resends below cover
  // a SUS that never lands (a peer controller that restarted at a new
  // control endpoint: each resend refreshes the location first). So a
  // send failure here must not end the exchange.
  if (auto st = send_session_ctrl(session.peer_node().control, sus, session,
                                  {}, Delivery::kPost);
      !st.ok()) {
    NAPLET_LOG(kDebug, "controller")
        << "conn " << session.conn_id() << ": SUS send failed ("
        << st.to_string() << "); retrying via location refresh";
  }
  span(session.trace_id(), obs::SpanKind::kSuspendSent, session, "SUS",
       sus.sent_seq);
  if (deadline_us == 0) {
    deadline_us = now_us() + config_.ctrl_response_timeout.count();
  }

  // Wait for the peer's reply while KEEPING OUR RECEIVE SIDE DRAINING:
  // the peer can only reply after freezing its writers, and one of those
  // writers may be blocked on TCP backpressure that only our reads can
  // relieve (the application reader is already parked on the state cell).
  // Unprompted resends cover a peer controller that crashed and restarted
  // at a new control endpoint, where no REJECT ever arrives (the peer's
  // duplicate-SUS path re-acks harmlessly if both land).
  const std::int64_t resend_every = std::max<std::int64_t>(
      std::chrono::microseconds(std::chrono::milliseconds(250)).count(),
      config_.ctrl_response_timeout.count() / 4);
  std::int64_t next_resend = now_us() + resend_every;
  while (now_us() < deadline_us) {
    if (!is_live(session.state())) return std::nullopt;
    if (auto reply = session.wait_reply(kExchangeSlice)) {
      return reply;
    }
    if (now_us() >= next_resend) {
      next_resend = now_us() + resend_every;
      refresh_peer_node(session);
      // Bounded so a still-dead endpoint cannot eat the whole deadline.
      (void)send_session_ctrl(session.peer_node().control, sus, session,
                              util::us(resend_every));
    }
    session.pump_available(kExchangeSlice);
  }
  return std::nullopt;
}

util::Status SocketController::suspend(const SessionPtr& session) {
  if (session == nullptr) return util::InvalidArgument("null session");
  const ConnState st = session->state();
  if (st == ConnState::kEstablished) {
    if (auto done = active_suspend(session)) return *done;
    return suspend(session);  // the peer's SUS won the race; re-dispatch
  }
  if (st == ConnState::kSuspended || st == ConnState::kSuspendWait) {
    return suspend_for_migration(session, session->local_agent());
  }
  if (st == ConnState::kSusAcked) {
    // A passive suspension is mid-drain; wait for it to settle, then the
    // connection is suspended (remotely) and §3.2 rules apply.
    session->wait_state(
        [](ConnState s) { return s != ConnState::kSusAcked; },
        config_.ctrl_response_timeout);
    return suspend(session);
  }
  return util::FailedPrecondition(
      "cannot suspend from state " + std::string(to_string(st)));
}

std::optional<util::Status> SocketController::active_suspend(
    const SessionPtr& session, CommitBatch* swept) {
  // This is OUR suspension round: bookkeeping from any previous round is
  // obsolete, and goes in the same step. (That also closes a scheduling
  // window where the resume handler's own clear lands after this suspend
  // has begun.)
  if (!session
           ->advance(ConnEvent::kAppSuspend, ConnState::kEstablished,
                     [](Session::Flags& f) {
                       f.remote_suspended = false;
                       f.peer_waiting_resume = false;
                       f.early_release.reset();
                     })
           .ok()) {
    return std::nullopt;
  }
  // Mint this migration's trace id (| 1 so it can never be the "untraced"
  // zero); every span and protocol message of this round carries it, and
  // the peer's replies echo it.
  session->set_trace_id(crypto::random_u64() | 1);
  util::Stopwatch suspend_sw(util::RealClock::instance());
  const std::uint64_t mark = session->freeze_writes_and_mark();

  CtrlMsg sus;
  sus.type = CtrlType::kSus;
  sus.conn_id = session->conn_id();
  sus.sent_seq = mark;
  // A REJECT means the peer's session is mid-transit (exported, not yet
  // imported at its destination): pause, refresh the peer's location and
  // run the exchange again within the same deadline.
  std::int64_t deadline = 0;  // set by the first exchange
  std::optional<Session::Reply> resp;
  for (;;) {
    resp = exchange_sus(*session, sus, deadline);
    if (!resp || resp->type != CtrlType::kReject) break;
    resp.reset();
    // Interruptible pause: stop() sets the event and this suspension
    // unwinds immediately instead of finishing its retry budget.
    if (stop_event_.wait_for(kRetrySleep)) {
      return util::Cancelled("controller stopping");
    }
    if (now_us() >= deadline) break;
    refresh_peer_node(*session);
  }
  if (!resp) {
    if (config_.tolerance.enabled && session->has_stream() &&
        !session->is_broken()) {
      // The handshake died (peer controller crashed or SUS lost above the
      // reliability layer) but the data stream is healthy: roll back to
      // ESTABLISHED so the application keeps running; the caller retries
      // the migration once the peer recovers.
      (void)session->advance(ConnEvent::kSuspendAbort);
      return util::Timeout("no SUS response for conn " +
                           std::to_string(session->conn_id()) +
                           "; rolled back to ESTABLISHED");
    }
    // Peer unreachable: fail-safe local suspension (the FSM's timeout arc).
    (void)session->advance(ConnEvent::kTimeout);
    session->close_stream();
    return util::Timeout("no SUS response for conn " +
                         std::to_string(session->conn_id()));
  }

  // Both replies carry the peer's declared high-water mark: pull every
  // in-flight frame into the input buffer before closing the socket.
  util::Stopwatch drain_sw(util::RealClock::instance());
  auto drained = session->drain_to_mark(resp->mark, config_.drain_timeout);
  session->close_stream();
  hist_drain_us_.record(obs::ms_to_us(drain_sw.elapsed_ms()));
  if (drained.ok()) {
    const std::uint64_t buffered = session->buffered_bytes();
    hist_replay_bytes_.record(buffered);
    span(session->trace_id(), obs::SpanKind::kDrainComplete, *session,
         "active", buffered);
  }

  if (resp->type == CtrlType::kSusAck) {
    NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kRecvSusAck));
    if (drained.ok()) {
      commit_or_defer(recovery::CommitPoint::kSuspendCommitted, session,
                      swept);
      hist_suspend_us_.record(obs::ms_to_us(suspend_sw.elapsed_ms()));
    }
    return drained;
  }

  // ACK_WAIT: overlapped concurrent migration and the peer outranks us
  // (paper Fig. 4(a), low-priority side). Park until its SUS_RES.
  NAPLET_RETURN_IF_ERROR(session->park(ConnEvent::kRecvAckWait));
  const util::Status released = await_park_release(*session);
  if (!drained.ok()) return drained;
  NAPLET_RETURN_IF_ERROR(released);
  commit_or_defer(recovery::CommitPoint::kSuspendCommitted, session, swept);
  hist_suspend_us_.record(obs::ms_to_us(suspend_sw.elapsed_ms()));
  return util::OkStatus();
}

// ===========================================================================
// Suspension — passive side (bus handlers: the rudp receiver thread)

void SocketController::handle_sus(const SessionPtr& session,
                                  const CtrlMsg& msg) {
  CtrlMsg reply;
  reply.conn_id = msg.conn_id;
  // Replies belong to the PEER's migration trace, not our own; the echo
  // also tells the initiator which round a reply answers.
  reply.trace_id = msg.trace_id;
  if (msg.trace_id != 0) session->set_peer_trace_id(msg.trace_id);
  session->set_peer_node(msg.node);

  // A SUS may land while a resume is one step from completion (RES_ACKED
  // or RES_SENT about to see its RESUME_OK); wait briefly for that to
  // settle rather than rejecting a legitimate request. The wait is capped
  // tightly: this runs on the bus channel's receiver thread, and a long
  // block would head-of-line-delay every other connection's control
  // traffic and this node's ACK processing. If it does not settle, the
  // sender's retry loop covers it.
  if (session->state() == ConnState::kResAcked ||
      session->state() == ConnState::kResSent) {
    session->wait_state(
        [](ConnState s) {
          return s != ConnState::kResAcked && s != ConnState::kResSent;
        },
        std::chrono::milliseconds(250));
  }

  const ConnState st = session->state();
  switch (st) {
    case ConnState::kEstablished: {
      // Normal passive suspension (paper §2.2).
      (void)session->advance(ConnEvent::kRecvSus, std::nullopt,
                             [&](Session::Flags& f) {
                               f.remote_suspended = true;
                               f.peer_declared_seq = msg.sent_seq;
                               f.early_release.reset();
                             });  // -> SUS_ACKED
      const std::uint64_t mark = session->freeze_writes_and_mark();
      reply.type = CtrlType::kSusAck;
      reply.sent_seq = mark;
      post_reply(msg.node.control, reply, *session);
      finish_passive_suspend(session, msg.sent_seq);
      return;
    }

    case ConnState::kSusSent: {
      // Overlapped concurrent migration (paper Fig. 4(a)): our SUS and the
      // peer's crossed. Priority (agent-ID hash) breaks the tie.
      const std::uint64_t mark = session->sent_seq();  // frozen already
      if (session->local_has_priority()) {
        // We win: delay the peer with ACK_WAIT and note that we owe it a
        // SUS_RES once our migration completes.
        session->update_flags([&](Session::Flags& f) {
          f.peer_parked = true;
          f.peer_declared_seq = msg.sent_seq;
        });
        reply.type = CtrlType::kAckWait;
        reply.sent_seq = mark;
        post_reply(msg.node.control, reply, *session);
      } else {
        // Low priority always acknowledges (paper: "side A always
        // acknowledges a SUSPEND request since it has a low priority").
        session->update_flags([&](Session::Flags& f) {
          f.remote_suspended = true;
          f.peer_declared_seq = msg.sent_seq;
        });
        reply.type = CtrlType::kSusAck;
        reply.sent_seq = mark;
        post_reply(msg.node.control, reply, *session);
        // Our own active_suspend drains and closes once ACK_WAIT arrives.
      }
      return;
    }

    case ConnState::kSusAcked:
    case ConnState::kSuspended:
    case ConnState::kSuspendWait: {
      // Duplicate SUS (a lost ACK was retransmitted around): re-acknowledge.
      reply.type = CtrlType::kSusAck;
      reply.sent_seq = session->sent_seq();
      post_reply(msg.node.control, reply, *session);
      return;
    }

    case ConnState::kResumeWait: {
      // Our resume was parked awaiting the peer's reconnect, but the peer
      // is suspending again instead (another migration round began). Its
      // suspension supersedes the parked resume: accept it — we are
      // already quiesced (no data socket) — and wake the parked waiter,
      // whose resume completes as a passive suspension.
      (void)fault::hit("ctrl.sus.resume_wait");
      (void)session->advance(ConnEvent::kRecvSus, std::nullopt,
                             [&](Session::Flags& f) {
                               f.remote_suspended = true;
                               f.peer_declared_seq = msg.sent_seq;
                               f.early_release.reset();
                             });  // -> SUSPENDED
      reply.type = CtrlType::kSusAck;
      reply.sent_seq = session->sent_seq();
      post_reply(msg.node.control, reply, *session);
      return;
    }

    default: {
      reply.type = CtrlType::kReject;
      reply.reason = "SUS in state " + std::string(to_string(st));
      post_reply(msg.node.control, reply, *session);
      return;
    }
  }
}

void SocketController::finish_passive_suspend(const SessionPtr& session,
                                              std::uint64_t peer_mark) {
  util::Stopwatch drain_sw(util::RealClock::instance());
  auto drained = session->drain_to_mark(peer_mark, config_.drain_timeout);
  if (!drained.ok()) {
    NAPLET_LOG(kError, "controller")
        << "conn " << session->conn_id()
        << ": passive drain failed: " << drained.to_string();
  }
  session->close_stream();
  hist_drain_us_.record(obs::ms_to_us(drain_sw.elapsed_ms()));
  (void)session->advance(ConnEvent::kExecSuspended);  // -> SUSPENDED
  if (drained.ok()) {
    const std::uint64_t buffered = session->buffered_bytes();
    hist_replay_bytes_.record(buffered);
    span(session->peer_trace_id(), obs::SpanKind::kDrainComplete, *session,
         "passive", buffered);
    journal_commit(recovery::CommitPoint::kDrainComplete, session);
  }
}

void SocketController::handle_sus_res(Session& session, const CtrlMsg& msg) {
  // The peer has landed; record its new endpoints and release our parked
  // suspend (paper Fig. 4(a): SUS_RES -> SUS_RES_ACK). The flag clears in
  // the release step itself: the woken suspend exports it.
  session.set_peer_node(msg.node);
  session.release_park(ConnEvent::kRecvSusRes, [](Session::Flags& f) {
    f.remote_suspended = false;
  });

  CtrlMsg ack;
  ack.type = CtrlType::kSusResAck;
  ack.conn_id = msg.conn_id;
  post_reply(msg.node.control, ack, session);
}

// ===========================================================================
// Resume

util::Status SocketController::resume(const SessionPtr& session) {
  if (session == nullptr) return util::InvalidArgument("null session");
  return do_resume(session);
}

util::Status SocketController::do_resume(const SessionPtr& session,
                                         CommitBatch* resumed) {
  // Fault tolerance: a resume that times out because the peer controller is
  // mid-restart (replaying its journal) or partitioned away is retried with
  // capped exponential backoff. Off is the paper's single-shot resume.
  constexpr int kMaxAttempts = 25;
  constexpr util::Duration kBackoffCap{std::chrono::milliseconds(400)};
  util::Duration backoff{std::chrono::milliseconds(50)};
  util::Stopwatch resume_sw(util::RealClock::instance());
  for (int attempt = 1;; ++attempt) {
    util::Status status = do_resume_once(session, resumed);
    if (status.ok()) {
      hist_resume_us_.record(obs::ms_to_us(resume_sw.elapsed_ms()));
      return status;
    }
    if (!config_.tolerance.enabled || attempt >= kMaxAttempts) return status;
    if (status.code() != util::StatusCode::kTimeout ||
        session->state() != ConnState::kSuspended) {
      return status;  // only a timed-out, still-resumable session retries
    }
    resume_retries_.add(1);
    NAPLET_LOG(kInfo, "recovery")
        << "conn " << session->conn_id() << ": resume attempt " << attempt
        << " timed out; retrying in " << backoff.count() / 1000 << "ms";
    if (stop_event_.wait_for(backoff)) {
      return util::Cancelled("controller stopping");
    }
    backoff = std::min(kBackoffCap, 2 * backoff);
  }
}

util::Status SocketController::do_resume_once(const SessionPtr& session,
                                              CommitBatch* resumed) {
  const ConnState st = settle_peer_resume(*session, config_.resume_timeout);
  if (st == ConnState::kEstablished) return util::OkStatus();
  if (st == ConnState::kResumeWait) {
    // Parked resume: the peer owes us the reconnect (paper Fig. 4(b)) —
    // unless it begins another suspension first, which supersedes the
    // parked resume and leaves us passively SUSPENDED (also success: the
    // peer reconnects after its own migration).
    auto final_state = session->wait_state(
        [](ConnState s) {
          return s == ConnState::kEstablished || !is_live(s) ||
                 s == ConnState::kSuspended;
        },
        config_.resume_timeout);
    if (final_state && (*final_state == ConnState::kEstablished ||
                        (*final_state == ConnState::kSuspended &&
                         session->flags().remote_suspended))) {
      return util::OkStatus();
    }
    return util::Timeout("parked resume not completed for conn " +
                         std::to_string(session->conn_id()));
  }
  if (st != ConnState::kSuspended) {
    return util::FailedPrecondition(
        "cannot resume from state " + std::string(to_string(st)));
  }

  if (auto adv = session->advance(ConnEvent::kAppResume); !adv.ok()) {
    // The peer's RESUME got in between the state check above and here.
    if (settle_peer_resume(*session, config_.resume_timeout) ==
        ConnState::kEstablished) {
      return util::OkStatus();
    }
    return adv;
  }
  const std::int64_t deadline = now_us() + config_.resume_timeout.count();

  // Escalating retry pacing: the common first failure is the peer still
  // settling (its passive suspend draining, or a location entry one step
  // stale), which resolves within a few ms. Start small and escalate to
  // the old fixed 20ms only if the peer stays unreachable.
  // Pauses wait on stop_event_ so a controller shutdown interrupts the
  // retry loop instead of letting it run out its deadline.
  util::Duration retry_pause = std::chrono::milliseconds(2);
  const auto pause_and_escalate = [&retry_pause, this] {
    const bool stopping = stop_event_.wait_for(retry_pause);
    retry_pause = std::min(kRetrySleep, retry_pause * 2);
    return stopping;
  };

  while (now_us() < deadline) {
    // A glare resume from the peer may have established us already, or be
    // establishing us now: then it wins and we send nothing more.
    const ConnState current = settle_peer_resume(
        *session, util::us(std::max<std::int64_t>(1, deadline - now_us())));
    if (current == ConnState::kEstablished) return util::OkStatus();
    if (current == ConnState::kResumeWait) {
      auto final_state = session->wait_state(
          [](ConnState s) {
            return s == ConnState::kEstablished || !is_live(s);
          },
          util::us(std::max<std::int64_t>(1, deadline - now_us())));
      if (final_state && *final_state == ConnState::kEstablished) {
        return util::OkStatus();
      }
      break;
    }
    if (!is_live(current)) return util::Aborted("connection closed");

    const agent::NodeInfo peer_node = session->peer_node();
    util::Stopwatch handoff_sw(util::RealClock::instance());
    auto stream = server_.network().connect(peer_node.redirector,
                                            std::chrono::seconds(1));
    if (!stream.ok()) {
      // Stale address (the peer may itself be migrating): refresh via the
      // location service and retry.
      refresh_peer_node(*session);
      if (pause_and_escalate()) return util::Cancelled("controller stopping");
      continue;
    }
    std::shared_ptr<net::Stream> data_socket(std::move(*stream));

    HandoffMsg req;
    req.type = HandoffType::kResume;
    req.conn_id = session->conn_id();
    req.trace_id = session->trace_id();
    req.verifier = session->verifier();
    req.sent_seq = session->sent_seq();
    req.recv_seq = session->highest_rx_seq();
    req.agent = session->local_agent().name();
    req.node = self_node();
    session->recorder().record(obs::FlightRecorder::Kind::kCtrlSend,
                               static_cast<std::uint8_t>(req.type), 1, 0);
    if (auto st2 = reply_handoff(*data_socket, req,
                                 util::ByteSpan(session->session_key().data(),
                                                session->session_key().size()));
        !st2.ok()) {
      data_socket->close();
      if (pause_and_escalate()) return util::Cancelled("controller stopping");
      continue;
    }
    auto reply_frame = net::read_frame(*data_socket);
    if (!reply_frame.ok()) {
      data_socket->close();
      if (pause_and_escalate()) return util::Cancelled("controller stopping");
      continue;
    }
    auto reply = HandoffMsg::decode(
        util::ByteSpan(reply_frame->data(), reply_frame->size()));
    if (!reply.ok()) {
      data_socket->close();
      return reply.status();
    }
    hist_handoff_us_.record(obs::ms_to_us(handoff_sw.elapsed_ms()));

    switch (reply->type) {
      case HandoffType::kResumeOk: {
        // Reliability invariant: every frame the peer sent before its
        // suspension must already be in our buffer — unless the
        // fault-tolerance extension can replay it from the peer's history
        // (the peer replays frames > our declared recv_seq itself).
        if (!config_.tolerance.enabled &&
            session->highest_rx_seq() < reply->sent_seq) {
          data_socket->close();
          return util::ProtocolError(
              "resume would lose data: have " +
              std::to_string(session->highest_rx_seq()) + ", peer sent " +
              std::to_string(reply->sent_seq));
        }
        session->set_peer_node(reply->node);
        session->close_stream();  // a glare may have installed the peer's
                                  // (now superseded) socket
        session->attach_stream(std::move(data_socket));
        // Fault-tolerance extension: replay anything the peer missed
        // (uncoordinated loss) before unblocking writers.
        if (config_.tolerance.enabled) {
          if (auto rp = session->retransmit_after(reply->recv_seq); !rp.ok()) {
            NAPLET_LOG(kWarn, "recovery")
                << "conn " << session->conn_id()
                << ": replay failed: " << rp.to_string();
          }
        }
        span(session->trace_id(), obs::SpanKind::kReplayDone, *session,
             "mover");
        if (auto adv = session->advance(
                ConnEvent::kRecvResumeOk, std::nullopt,
                [](Session::Flags& f) { f.remote_suspended = false; });
            !adv.ok()) {
          // Glare tail: the peer's own attempt already established us (or
          // is doing so); its OK to our attempt means both sides now hold
          // THIS stream (and its resume handler cleared the flags).
          if (settle_peer_resume(*session, config_.resume_timeout) !=
              ConnState::kEstablished) {
            return adv;
          }
        }
        commit_or_defer(recovery::CommitPoint::kResumeCommitted, session,
                        resumed);
        span(session->trace_id(), obs::SpanKind::kResumeCommitted, *session,
             "mover");
        return util::OkStatus();
      }
      case HandoffType::kResumeWait: {
        // Peer has a parked suspend (paper Fig. 4(b)); it will reconnect
        // to us after its own migration.
        data_socket->close();
        if (auto adv = session->advance(ConnEvent::kRecvResumeWait);
            !adv.ok()) {
          // Crossing resumes: the peer's own RESUME re-established us
          // (ESTABLISHED) or is doing so (RES_ACKED) while this stale
          // reply was in flight. That is success once it settles below.
          const ConnState now = session->state();
          if (now != ConnState::kEstablished && now != ConnState::kResAcked) {
            return adv;
          }
        }
        auto final_state = session->wait_state(
            [](ConnState s) {
              return s == ConnState::kEstablished || !is_live(s) ||
                     s == ConnState::kSuspended;
            },
            util::us(std::max<std::int64_t>(1, deadline - now_us())));
        if (final_state && (*final_state == ConnState::kEstablished ||
                            (*final_state == ConnState::kSuspended &&
                             session->flags().remote_suspended))) {
          // Established, or superseded by the peer's new suspension (it
          // reconnects to us after its migration).
          return util::OkStatus();
        }
        return util::Timeout("RESUME_WAIT not released for conn " +
                             std::to_string(session->conn_id()));
      }
      case HandoffType::kError:
      default: {
        // Peer in transit or glare rejection: refresh location and retry.
        data_socket->close();
        refresh_peer_node(*session);
        if (pause_and_escalate()) {
          return util::Cancelled("controller stopping");
        }
        continue;
      }
    }
  }

  (void)session->advance(ConnEvent::kTimeout);  // RES_SENT -> SUSPENDED
  return util::Timeout("resume timed out for conn " +
                       std::to_string(session->conn_id()));
}

void SocketController::handle_resume_request(
    std::shared_ptr<net::Stream> stream, HandoffMsg msg) {
  auto fail = [&](const std::string& reason) {
    HandoffMsg err;
    err.type = HandoffType::kError;
    err.conn_id = msg.conn_id;
    err.reason = reason;
    (void)reply_handoff(*stream, err, {});
    stream->close();
  };

  SessionPtr session = find_session_from(msg.conn_id, msg.agent);
  if (session == nullptr) {
    fail("unknown connection");
    return;
  }
  if (msg.verifier != session->verifier()) {
    fail("verifier mismatch");
    return;
  }
  const util::Bytes payload = msg.mac_payload();
  if (!verify_mac(util::ByteSpan(session->session_key().data(),
                                 session->session_key().size()),
                  util::ByteSpan(payload.data(), payload.size()),
                  util::ByteSpan(msg.mac.data(), msg.mac.size()))) {
    mac_rejections_.add(1);
    fail("MAC verification failed");
    return;
  }
  // A RESUME rides a freshly established stream, so it cannot itself be a
  // pre-crash leftover; record the (possibly bumped) sender epoch so stale
  // control datagrams from its previous incarnation are fenced from now on.
  (void)session->admit_peer_epoch(msg.epoch);
  if (msg.trace_id != 0) session->set_peer_trace_id(msg.trace_id);
  session->set_peer_node(msg.node);
  const util::ByteSpan key(session->session_key().data(),
                           session->session_key().size());

  // If this agent is itself migrating (or has a parked suspend), delay the
  // peer's resume and let our suspension finish (paper Fig. 4(b), Fig. 5).
  // A parked suspend is released by the step out of SUSPEND_WAIT, which
  // carries the flags the woken suspend exports.
  if (session->state() == ConnState::kSuspendWait ||
      agent_is_migrating(session->local_agent())) {
    HandoffMsg wait;
    wait.type = HandoffType::kResumeWait;
    wait.conn_id = msg.conn_id;
    (void)reply_handoff(*stream, wait, key);
    stream->close();
    session->release_park(ConnEvent::kRecvResume, [](Session::Flags& f) {
      f.peer_waiting_resume = true;
      f.remote_suspended = false;  // the peer has finished its migration
    });
    return;
  }

  ConnState st = session->state();
  if (st == ConnState::kSusAcked) {
    // The passive suspension that produced our SUS_ACK is still draining
    // (finish_passive_suspend runs after the ACK is on the wire), and the
    // mover's RESUME routinely beats it here. Settling the drain before
    // the state check below turns a fail-reply-and-client-retry round
    // trip into a sub-millisecond wait -- the dominant term in zero-loss
    // resume latency.
    if (auto settled = session->wait_state(
            [](ConnState s) { return s != ConnState::kSusAcked; },
            std::chrono::milliseconds(250))) {
      st = *settled;
    }
  }
  if (st == ConnState::kEstablished) {
    // Either the peer lost our previous RESUME_OK and is retrying, or it
    // detected a link failure we have not noticed yet (our end may look
    // healthy until we next touch the socket). A MAC-verified RESUME from
    // the legitimate peer is itself evidence the old stream is dead:
    // accept the re-attach. (Simultaneous-resume glare is confined to the
    // RES_SENT state, which keeps its priority guard below — if we were
    // resuming ourselves we would not be in ESTABLISHED.)
    NAPLET_LOG(kDebug, "controller")
        << "conn " << msg.conn_id << ": re-attach on established connection";
    // Without history replay, frames the peer wrote into the old stream
    // before it gave up on it (a SUS that timed out, then the undo of the
    // failed sweep) exist only in that stream: pull them in up to the
    // peer's declared mark before dropping it.
    if (!config_.tolerance.enabled) {
      (void)session->drain_to_mark(msg.sent_seq, config_.drain_timeout);
    }
    session->close_stream();
  } else if (st == ConnState::kResSent) {
    // Resume glare: the higher-priority side's attempt wins.
    if (session->local_has_priority()) {
      fail("resume glare: retry");
      return;
    }
    (void)session->advance(ConnEvent::kRecvResume);  // -> RES_ACKED
  } else if (st == ConnState::kSuspended || st == ConnState::kResumeWait) {
    (void)session->advance(ConnEvent::kRecvResume);  // -> RES_ACKED
  } else {
    fail("RESUME in state " + std::string(to_string(st)));
    return;
  }

  if (!config_.tolerance.enabled &&
      session->highest_rx_seq() < msg.sent_seq) {
    fail("resume would lose data");
    return;
  }

  session->attach_stream(stream);
  HandoffMsg ok;
  ok.type = HandoffType::kResumeOk;
  ok.conn_id = msg.conn_id;
  ok.trace_id = msg.trace_id;  // the mover's migration trace
  ok.sent_seq = session->sent_seq();
  ok.recv_seq = session->highest_rx_seq();
  session->recorder().record(obs::FlightRecorder::Kind::kCtrlSend,
                             static_cast<std::uint8_t>(ok.type), 1, 0);
  // Reply BEFORE advancing: advancing wakes writers blocked on the state
  // cell, and their data frames must not interleave ahead of the
  // RESUME_OK handshake frame on this same stream.
  if (auto st2 = reply_handoff(*stream, ok, key); !st2.ok()) {
    session->close_stream();
    return;
  }
  // Fault-tolerance extension: replay frames the mover missed, before
  // advancing (writers stay blocked until the state change, so replayed
  // frames keep their position ahead of new traffic).
  if (config_.tolerance.enabled) {
    if (auto rp = session->retransmit_after(msg.recv_seq); !rp.ok()) {
      NAPLET_LOG(kWarn, "recovery")
          << "conn " << session->conn_id()
          << ": replay failed: " << rp.to_string();
    }
  }
  span(msg.trace_id, obs::SpanKind::kReplayDone, *session, "receiver");
  // The connection is live again: any prior suspension bookkeeping is
  // obsolete (otherwise a later migration of this side would wrongly
  // conclude the peer still owes a reconnect).
  const auto live = [](Session::Flags& f) { f.remote_suspended = false; };
  if (!session->advance(ConnEvent::kExecResumed, ConnState::kResAcked, live)
           .ok()) {  // -> ESTABLISHED
    session->update_flags(live);
  }
  journal_commit(recovery::CommitPoint::kResumeCommitted, session);
  span(msg.trace_id, obs::SpanKind::kResumeCommitted, *session, "receiver");
}

// ===========================================================================
// Close

util::Status SocketController::close(const SessionPtr& session) {
  if (session == nullptr) return util::InvalidArgument("null session");
  const ConnState st = session->state();
  if (!is_live(st)) return util::OkStatus();  // idempotent
  if (st != ConnState::kEstablished && st != ConnState::kSuspended) {
    return util::FailedPrecondition(
        "cannot close from state " + std::string(to_string(st)));
  }

  NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kAppClose));
  CtrlMsg cls;
  cls.type = CtrlType::kCls;
  cls.conn_id = session->conn_id();
  // Like suspend, close declares the sender's data high-water mark so the
  // peer can flush everything in transmission before tearing down.
  cls.sent_seq = session->freeze_writes_and_mark();
  session->expect_reply({CtrlType::kClsAck});
  // Posted: CLOSE_ACK proves delivery, and the wait below bounds its loss.
  (void)send_session_ctrl(session->peer_node().control, cls, *session, {},
                          Delivery::kPost);

  // Same draining discipline as suspension while waiting for the ACK (the
  // peer's freeze may be stuck behind a backpressured writer).
  std::optional<Session::Reply> resp;
  const std::int64_t deadline =
      now_us() + config_.ctrl_response_timeout.count();
  while (now_us() < deadline && session->state() != ConnState::kClosed) {
    resp = session->wait_reply(kExchangeSlice);
    if (resp) break;
    session->pump_available(kExchangeSlice);
  }
  if (resp) {
    // Pull the peer's final frames into the buffer; they remain readable
    // by the application even after the state reaches CLOSED.
    (void)session->drain_to_mark(resp->mark, config_.drain_timeout);
  }
  session->close_stream();
  (void)session->advance(resp ? ConnEvent::kRecvClsAck : ConnEvent::kTimeout);
  remove_session(session);
  journal_commit(recovery::CommitPoint::kClosed, session);
  return util::OkStatus();
}

void SocketController::handle_cls(const SessionPtr& session,
                                  const CtrlMsg& msg) {
  ConnState st = session->state();
  if (st == ConnState::kResAcked) {
    // The peer's RESUME was answered but our handler has not advanced to
    // ESTABLISHED yet (it replies first), and the peer, already
    // ESTABLISHED, closed at once. Let the resume settle; closing under it
    // would leave it to advance a session this CLS already removed.
    if (auto settled = session->wait_state(
            [](ConnState s) { return s != ConnState::kResAcked; },
            std::chrono::milliseconds(250))) {
      st = *settled;
    }
  }
  if (st == ConnState::kEstablished || st == ConnState::kSuspended) {
    (void)session->advance(ConnEvent::kRecvCls);  // -> CLOSE_ACKED
  }
  CtrlMsg ack;
  ack.conn_id = msg.conn_id;
  ack.type = CtrlType::kClsAck;
  ack.sent_seq = session->freeze_writes_and_mark();
  post_reply(msg.node.control, ack, *session);
  // Flush the closer's in-flight frames into the buffer before teardown;
  // the application can still read them after CLOSED.
  (void)session->drain_to_mark(msg.sent_seq, config_.drain_timeout);
  session->close_stream();
  if (session->state() == ConnState::kCloseAcked) {
    (void)session->advance(ConnEvent::kExecClosed);  // -> CLOSED
  } else if (is_live(session->state())) {
    // A live state the CLS could not step (a parked suspend, a suspend or
    // a resume in flight): the connection is gone all the same. Ending the
    // session releases whatever waits on it.
    session->abort_local();
  }
  remove_session(session);
  journal_commit(recovery::CommitPoint::kClosed, session);
}

// ===========================================================================
// ConnectionMigrator (docking-system hooks)

util::Status SocketController::prepare_migration(const agent::AgentId& id) {
  {
    util::MutexLock lock(mu_);
    migrating_agents_.insert(id);
  }
  // The sweep stays serial on the wire (§3.2); only its durability point
  // moves to the end: every suspension it committed is journaled in one
  // batch, also when a later connection failed the sweep. A journal
  // failure fails the sweep, so the hop is not taken on state that never
  // reached the disk.
  CommitBatch swept;
  util::Status status = util::OkStatus();
  for (const SessionPtr& session : sessions_of(id)) {
    status = suspend_for_migration(session, id, &swept);
    if (!status.ok()) break;
  }
  const util::Status journaled =
      journal_batch(recovery::CommitPoint::kSuspendCommitted, swept);
  if (status.ok()) status = journaled;
  // All or nothing: a failed sweep resumes every connection it suspended
  // (complete_migration also clears the migrating mark), so the agent
  // keeps a fully usable set of connections where it is.
  if (!status.ok()) (void)complete_migration(id);
  return status;
}

util::Status SocketController::suspend_for_migration(
    const SessionPtr& session, const agent::AgentId& id,
    CommitBatch* swept) {
  const std::int64_t deadline = now_us() + kParkTimeout.count();
  for (;;) {
    const ConnState st = session->state();
    switch (st) {
      case ConnState::kEstablished:
        if (auto done = active_suspend(session, swept)) return *done;
        continue;  // the peer's SUS won the race; re-dispatch

      case ConnState::kSuspended:
      case ConnState::kSuspendWait: {
        const Session::Flags f = session->flags();
        if (!f.remote_suspended) return util::OkStatus();  // ours already

        // Remotely suspended: the peer agent is migrating. Decide by
        // priority (paper §3.2): the high-priority side may proceed when it
        // also holds a local suspension against the same peer on another
        // connection (which guarantees the peer's own sweep will park);
        // otherwise it must wait its turn.
        if (session->local_has_priority()) {
          bool holds_local = false;
          for (const SessionPtr& other : sessions_of(id)) {
            if (other == session) continue;
            if (other->peer_agent() != session->peer_agent()) continue;
            const ConnState ost = other->state();
            if ((ost == ConnState::kSuspended ||
                 ost == ConnState::kSusSent) &&
                !other->flags().remote_suspended) {
              holds_local = true;
              break;
            }
          }
          if (holds_local) return util::OkStatus();
        }

        // Park (SUSPEND_WAIT) until the peer finishes migrating. A state
        // that moved on since the read above is dispatched again.
        if (st == ConnState::kSuspended &&
            !session->park(ConnEvent::kAppSuspend, st).ok()) {
          continue;
        }
        return await_park_release(*session);
      }

      case ConnState::kSusAcked:
      case ConnState::kSusSent:
      case ConnState::kResSent:
      case ConnState::kResAcked:
      case ConnState::kResumeWait:
        // A transition is in flight on another thread; let it settle.
        if (now_us() >= deadline) {
          return util::Timeout("connection stuck in " +
                               std::string(to_string(st)));
        }
        session->wait_state(
            [st](ConnState s) { return s != st; }, kStatePollSlice);
        continue;

      case ConnState::kClosed:
      case ConnState::kCloseSent:
      case ConnState::kCloseAcked:
        return util::OkStatus();  // nothing to migrate

      case ConnState::kListen:
      case ConnState::kConnectSent:
      case ConnState::kConnectAcked:
        // Connection setup mid-flight during migration: treat as settled
        // enough — wait briefly, then give up gracefully.
        if (now_us() >= deadline) {
          return util::Timeout("connection stuck in " +
                               std::string(to_string(st)));
        }
        session->wait_state(
            [st](ConnState s) { return s != st; }, kStatePollSlice);
        continue;
    }
  }
}

util::Bytes SocketController::export_sessions(const agent::AgentId& id) {
  const std::vector<SessionPtr> sessions = sessions_.extract_agent(id);
  {
    util::MutexLock lock(mu_);
    migrating_agents_.erase(id);
  }

  std::vector<util::Bytes> blobs;
  blobs.reserve(sessions.size());
  for (const SessionPtr& session : sessions) {
    // Seal first: a recv() racing this export must not pop a frame that
    // the snapshot below also captures (the clone would replay it — a
    // duplicate delivery). After the seal every pop fails; pops that won
    // the race are already absent from the buffer we serialize.
    session->seal_buffer_for_export();
    blobs.push_back(session->export_state());
    // The live state now travels in the blob; kill the original so stale
    // handles cannot double-deliver its buffered frames.
    session->mark_moved();
  }
  // Departed, in one batch: this controller is no longer responsible for
  // the agent's connections. (If the migration later fails the
  // destination's own journal has them from kImported on.)
  (void)journal_batch(recovery::CommitPoint::kDeparted, sessions);
  return util::Archive::encode(blobs);
}

util::Status SocketController::import_sessions(const agent::AgentId& id,
                                               util::ByteSpan data) {
  if (data.empty()) return util::OkStatus();
  auto blobs = util::Archive::decode<std::vector<util::Bytes>>(data);
  if (!blobs.ok()) return blobs.status();
  // Every session inserted is journaled in one batch, also when a later
  // blob fails the import.
  CommitBatch imported;
  util::Status status = util::OkStatus();
  for (const util::Bytes& blob : *blobs) {
    auto session =
        Session::import_state(util::ByteSpan(blob.data(), blob.size()));
    if (!session.ok()) {
      status = session.status();
      break;
    }
    if ((*session)->local_agent() != id) {
      status = util::ProtocolError("imported session belongs to '" +
                                   (*session)->local_agent().name() + "'");
      break;
    }
    insert_session(*session);
    imported.push_back(std::move(*session));
  }
  (void)journal_batch(recovery::CommitPoint::kImported, imported);
  return status;
}

util::Status SocketController::complete_migration(const agent::AgentId& id) {
  {
    util::MutexLock lock(mu_);
    migrating_agents_.erase(id);
  }
  util::Status first_error = util::OkStatus();
  // The mover's resumes are journaled in one batch after the loop.
  CommitBatch resumed;
  for (const SessionPtr& session : sessions_of(id)) {
    const Session::Flags f = session->flags();

    if (f.peer_parked) {
      // Overlapped winner (paper Fig. 4(a)): tell the parked peer we are
      // done; stay SUSPENDED — the peer migrates next and reconnects to us.
      CtrlMsg sus_res;
      sus_res.type = CtrlType::kSusRes;
      sus_res.conn_id = session->conn_id();
      session->expect_reply({CtrlType::kSusResAck});
      (void)send_session_ctrl(session->peer_node().control, sus_res,
                              *session);
      if (!session->wait_reply(config_.ctrl_response_timeout)) {
        NAPLET_LOG(kWarn, "controller")
            << "conn " << session->conn_id() << ": no SUS_RES_ACK";
      }
      session->update_flags([](Session::Flags& f2) {
        f2.peer_parked = false;
      });
      continue;
    }

    if (f.peer_waiting_resume) {
      // Non-overlapped tail (paper Fig. 4(b)/Fig. 5): the peer's resume was
      // delayed by our RESUME_WAIT; we owe the reconnect.
      session->update_flags([](Session::Flags& f2) {
        f2.peer_waiting_resume = false;
      });
      auto status = do_resume(session, &resumed);
      if (!status.ok() && first_error.ok()) first_error = status;
      continue;
    }

    if (f.remote_suspended) {
      // The peer is mid-migration; it reconnects to us when it lands.
      continue;
    }

    auto status = do_resume(session, &resumed);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  (void)journal_batch(recovery::CommitPoint::kResumeCommitted, resumed);
  return first_error;
}

void SocketController::close_all(const agent::AgentId& id) {
  for (const SessionPtr& session : sessions_of(id)) {
    if (session->state() == ConnState::kEstablished ||
        session->state() == ConnState::kSuspended) {
      (void)close(session);
    } else {
      session->close_stream();
      remove_session(session);
    }
  }
  if (is_listening(id)) (void)unlisten(id);
}

}  // namespace naplet::nsock
