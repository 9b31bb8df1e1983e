// SocketController — atomic whole-agent group suspend.
//
// The paper's §3.2 sweep suspends an agent's connections one at a time,
// so an agent with N live connections migrates through a window where
// some connections are frozen and others still deliver. The group sweep
// closes that window in two phases:
//
//  * phase 1 (*prepare*): every ESTABLISHED member is frozen locally in
//    one pass (the local half of the consistent cut — no SUS leaves
//    until every member's write mark is pinned), then one worker per
//    member runs the SUS exchange carrying the group id, waits for the
//    SUS_ACK and drains to the peer's declared mark. The first worker
//    that fails sets the group's veto, which stops the others. Phase 1
//    ends when the workers have joined and every member is still
//    SUS_SENT. The peer side mirrors the cut: on the FIRST group SUS it
//    pre-freezes every other session facing the migrating agent
//    (group_freeze_inbound), so no member's exported buffer can contain
//    data the application produced after another member's cut point.
//  * phase 2 (*commit*): the sweep closes each member's stream,
//    completes the FSM arc to SUSPENDED, and journals a group-prepare
//    (manifest of every member's blob) / group-commit pair through the
//    DurableStore. A crash between the two records leaves a dangling
//    prepare that replay rolls FORWARD (the prepare is only written once
//    every peer has sealed) — the whole group recovers suspended, never
//    half of it. A live rollback journals an explicit group-abort instead.
//
// If ANY member's peer refuses, times out, or the member is aborted
// mid-prepare, the ENTIRE group rolls back: un-acknowledged members
// return to ESTABLISHED over their healthy stream (the single-connection
// kSuspendAbort arc), acknowledged members complete the suspension and
// immediately resume through the redirector — blocked senders and
// receivers wake, and exactly-once delivery is preserved by the resume
// path's replay + duplicate suppression.
#include <thread>

#include "core/controller.hpp"
#include "crypto/random.hpp"
#include "fault/fault.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

namespace {

constexpr util::Duration kWatchdogSlice = std::chrono::milliseconds(50);
constexpr util::Duration kAckHarvest = std::chrono::milliseconds(100);

std::int64_t now_us() { return util::RealClock::instance().now_us(); }

}  // namespace

util::Status SocketController::group_suspend(const agent::AgentId& id) {
  util::Stopwatch sweep_sw(util::RealClock::instance());
  {
    util::MutexLock lock(mu_);
    if (!group_sweeps_.insert(id.name()).second) {
      return util::FailedPrecondition("group suspend already in flight for " +
                                      id.name());
    }
    migrating_agents_.insert(id);
  }
  // ESTABLISHED connections form the group; everything else (already
  // suspended, parked, mid-close) is not part of the cut and settles
  // through the serial §3.2 walk afterwards.
  std::vector<SessionPtr> members;
  std::vector<SessionPtr> rest;
  for (const SessionPtr& session : sessions_of(id)) {
    if (session->state() == ConnState::kEstablished) {
      members.push_back(session);
    } else {
      rest.push_back(session);
    }
  }
  util::Status status = util::OkStatus();
  if (!members.empty()) status = group_suspend_sweep(members);
  if (status.ok()) {
    for (const SessionPtr& session : rest) {
      status = suspend_for_migration(session, id);
      if (!status.ok()) break;
    }
  }
  {
    util::MutexLock lock(mu_);
    group_sweeps_.erase(id.name());
    if (!status.ok()) migrating_agents_.erase(id);
  }
  if (status.ok()) {
    hist_group_suspend_us_.record(obs::ms_to_us(sweep_sw.elapsed_ms()));
  }
  return status;
}

util::Status SocketController::group_suspend_sweep(
    const std::vector<SessionPtr>& members) {
  // Group id: epoch in the high bits so ids from different incarnations
  // of this controller never collide in the journal.
  const std::uint64_t group_id =
      (epoch() << 24) | next_group_id_.fetch_add(1);
  util::Stopwatch prepare_sw(util::RealClock::instance());

  // Local half of the consistent cut: pin EVERY member's write mark
  // before the first SUS leaves. From here no application send on any
  // member can slip past another member's cut point.
  std::vector<SessionPtr> frozen;
  for (const SessionPtr& session : members) {
    if (auto st = session->advance(ConnEvent::kAppSuspend); !st.ok()) {
      // Raced a close/peer suspend; veto the group.
      group_rollback(frozen, group_id,
                     "member freeze failed: " + st.to_string());
      return st;
    }
    session->set_trace_id(crypto::random_u64() | 1);
    // This round's bookkeeping; peer_declared_seq doubles as the
    // "SUS_ACK received" marker for the rollback classifier below.
    session->update_flags([](Session::Flags& f) {
      f.remote_suspended = false;
      f.peer_waiting_resume = false;
      f.peer_declared_seq = 0;
    });
    (void)session->freeze_writes_and_mark();
    frozen.push_back(session);
  }

  // Phase 1: one prepare worker per member, all concurrent. Each writes
  // only its own slot; the first failure vetoes the rest.
  std::atomic<bool> veto{false};
  std::vector<util::Status> results(members.size(), util::OkStatus());
  std::vector<std::jthread> workers;  // joined on every path
  workers.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    workers.emplace_back([this, &members, &results, &veto, group_id, i] {
      results[i] = group_prepare_member(members[i], group_id, veto);
      if (!results[i].ok()) veto.store(true);
    });
  }
  for (std::jthread& worker : workers) worker.join();
  hist_group_prepare_us_.record(obs::ms_to_us(prepare_sw.elapsed_ms()));

  // The cut holds only if every member is still SUS_SENT: an abort that
  // lands after its worker finished shows up here, not in the slots.
  // First failure in member order names the rollback.
  for (std::size_t i = 0; i < members.size(); ++i) {
    util::Status failure = results[i];
    if (failure.ok() && members[i]->state() != ConnState::kSusSent) {
      failure = util::Aborted(
          "left the sweep in " + std::string(to_string(members[i]->state())));
    }
    if (failure.ok()) continue;
    const std::string reason = "conn " +
                               std::to_string(members[i]->conn_id()) + ": " +
                               failure.to_string();
    group_rollback(members, group_id, reason);
    return util::Aborted("group " + std::to_string(group_id) +
                         " rolled back: " + reason);
  }

  // Phase 2: commit. The cut is taken — close the streams, complete the
  // FSM, and make the group durable as an atomic prepare/commit pair.
  util::Stopwatch commit_sw(util::RealClock::instance());
  for (const SessionPtr& session : members) {
    session->close_stream();
    (void)session->advance(ConnEvent::kRecvSusAck);  // -> SUSPENDED
  }
  if (store_) {
    recovery::GroupManifest manifest;
    manifest.members.reserve(members.size());
    for (const SessionPtr& session : members) {
      manifest.members.push_back({session->conn_id(),
                                  session->export_state()});
    }
    const util::Bytes blob = manifest.encode();
    if (auto st = store_->record(recovery::CommitPoint::kGroupPrepare,
                                 group_id,
                                 util::ByteSpan(blob.data(), blob.size()));
        !st.ok()) {
      NAPLET_LOG(kError, "recovery")
          << "group " << group_id
          << ": prepare journal failed: " << st.to_string();
      group_rollback(members, group_id, st.to_string());
      return st;
    }
  }

  // The crash window between prepare and commit (chaos scenario 6): a
  // kill here leaves the dangling prepare that recovery rolls FORWARD —
  // every peer has already sealed, so the manifest folds in and the
  // whole group recovers SUSPENDED, never a mix. An error aborts the
  // group in-process instead (journaled group-abort + full rollback).
  const fault::Decision d = fault::hit("ctrl.group.commit");
  if (d.action == fault::Action::kKill) {
    return util::Unavailable("fault: killed between group prepare and "
                             "commit");
  }
  if (d.action == fault::Action::kError) {
    group_rollback(members, group_id, "fault: group commit errored");
    return util::Unavailable("fault: group commit errored");
  }

  if (store_) {
    if (auto st = store_->record(recovery::CommitPoint::kGroupCommit,
                                 group_id, {});
        !st.ok()) {
      NAPLET_LOG(kError, "recovery")
          << "group " << group_id
          << ": commit journal failed: " << st.to_string();
    }
  }
  for (const SessionPtr& session : members) {
    span(session->trace_id(), obs::SpanKind::kJournalCommit, *session,
         "group-commit", group_id);
  }
  hist_group_commit_us_.record(obs::ms_to_us(commit_sw.elapsed_ms()));
  return util::OkStatus();
}

util::Status SocketController::group_prepare_member(
    const SessionPtr& session, std::uint64_t group_id,
    const std::atomic<bool>& veto) {
  // The member is already frozen (kSusSent, write mark pinned); this
  // worker only runs the wire exchange up to the cut.
  CtrlMsg sus;
  sus.type = CtrlType::kSus;
  sus.conn_id = session->conn_id();
  sus.sent_seq = session->sent_seq();
  sus.group_id = group_id;
  std::int64_t deadline = 0;
  const auto resp = exchange_sus(*session, sus, deadline, &veto);
  if (!resp) {
    if (!is_live(session->state())) {
      return util::Aborted("session aborted mid-prepare");
    }
    // Another member's failure stopped this one; that member's own status
    // carries the cause.
    if (veto.load()) return util::OkStatus();
    return util::Timeout("no SUS response for group member " +
                         std::to_string(session->conn_id()));
  }
  if (resp->type == static_cast<std::uint8_t>(CtrlType::kReject)) {
    // Unlike the solo path (where REJECT means mid-transit, retry), a
    // refusal during a group prepare vetoes the whole group.
    return util::PermissionDenied("peer refused group prepare for conn " +
                                  std::to_string(session->conn_id()));
  }
  if (resp->type == static_cast<std::uint8_t>(CtrlType::kAckWait)) {
    // Overlapped concurrent migration and the peer outranks us. Parking
    // one member would park the whole group behind a foreign migration;
    // veto instead and let the caller retry the sweep afterwards.
    return util::FailedPrecondition(
        "peer outranks group prepare (ACK_WAIT) for conn " +
        std::to_string(session->conn_id()));
  }

  // SUS_ACK. Record the ack (the rollback classifier keys on a non-zero
  // peer_declared_seq) and drain every in-flight frame to the peer's
  // mark. The stream stays open until the commit phase.
  session->update_flags([&](Session::Flags& f) {
    f.peer_declared_seq = resp->sent_seq;
  });
  util::Stopwatch drain_sw(util::RealClock::instance());
  auto drained = session->drain_to_mark(resp->sent_seq, config_.drain_timeout);
  hist_drain_us_.record(obs::ms_to_us(drain_sw.elapsed_ms()));
  if (!drained.ok()) return drained;
  span(session->trace_id(), obs::SpanKind::kDrainComplete, *session, "group",
       session->buffered_bytes());

  // This member has reached its cut.
  const fault::Decision d = fault::hit("group.barrier");
  if (d.action == fault::Action::kError || d.action == fault::Action::kKill) {
    return util::Aborted("fault: member failed at its cut");
  }
  return util::OkStatus();
}

void SocketController::group_rollback(const std::vector<SessionPtr>& members,
                                      std::uint64_t group_id,
                                      const std::string& reason) {
  util::Stopwatch rollback_sw(util::RealClock::instance());
  if (store_) store_->abort_group(group_id);
  NAPLET_LOG(kWarn, "controller")
      << "group " << group_id << ": rolling back " << members.size()
      << " connection(s): " << reason;
  // Harvest acknowledgements that raced the failure: a worker stopped by
  // the veto may have left its SUS_ACK unread in the response queue —
  // but that ack means the peer HAS sealed its stream, and classifying
  // the member "un-acked" below would revert this side over a stream the
  // peer already closed. A short bounded poll closes the race (the ack,
  // if it exists, is normally queued already).
  for (const SessionPtr& session : members) {
    if (session->state() != ConnState::kSusSent) continue;
    if (session->flags().peer_declared_seq != 0) continue;
    if (auto resp = wait_response(*session, {CtrlType::kSusAck},
                                  kAckHarvest)) {
      session->update_flags([&](Session::Flags& f) {
        f.peer_declared_seq = resp->sent_seq;
      });
    }
  }
  for (const SessionPtr& session : members) {
    switch (session->state()) {
      case ConnState::kSusSent: {
        const bool acked = session->flags().peer_declared_seq != 0;
        if (!acked && session->has_stream() && !session->is_broken()) {
          // Never acknowledged: the peer took no action and the stream
          // is healthy — the single-connection rollback arc returns the
          // member to service; blocked senders wake on the state change.
          (void)session->advance(ConnEvent::kSuspendAbort);
          break;
        }
        // The peer already acknowledged (it is SUSPENDED with a closed
        // stream) or the stream died: complete the suspension locally,
        // then reconnect through the redirector. The resume replay plus
        // receiver duplicate suppression keeps delivery exactly-once.
        //
        // A harvested member never ran the worker's drain: the peer
        // flushed everything up to its declared mark before sealing, and
        // those frames must land in our buffer before the stream closes —
        // without failure recovery, resume refuses rather than lose them.
        const std::uint64_t mark = session->flags().peer_declared_seq;
        if (acked && session->has_stream()) {
          if (auto st = session->drain_to_mark(mark, config_.drain_timeout);
              !st.ok()) {
            NAPLET_LOG(kWarn, "controller")
                << "group " << group_id
                << ": rollback drain incomplete for conn "
                << session->conn_id() << ": " << st.to_string();
          }
        }
        session->close_stream();
        (void)session->advance(ConnEvent::kRecvSusAck);  // -> SUSPENDED
        if (auto st = do_resume(session); !st.ok()) {
          NAPLET_LOG(kError, "controller")
              << "group " << group_id << ": rollback resume failed for conn "
              << session->conn_id() << ": " << st.to_string();
        }
        break;
      }
      case ConnState::kSuspended: {
        // Commit-phase abort: the member completed its suspension;
        // resume it back into service.
        if (auto st = do_resume(session); !st.ok()) {
          NAPLET_LOG(kError, "controller")
              << "group " << group_id << ": rollback resume failed for conn "
              << session->conn_id() << ": " << st.to_string();
        }
        break;
      }
      default:
        // Aborted/closed mid-prepare (the member that vetoed the group):
        // nothing to restore.
        break;
    }
    // Belt and braces for parked waiters: rollback must leave no one
    // blocked on a group that no longer exists.
    session->park_event().set();
  }
  group_rollbacks_.add(1);
  hist_group_rollback_us_.record(obs::ms_to_us(rollback_sw.elapsed_ms()));
}

void SocketController::group_freeze_inbound(const SessionPtr& trigger,
                                            const CtrlMsg& msg) {
  // Peer half of the consistent cut: the FIRST group SUS from a migrating
  // agent freezes every OTHER established session we hold facing that
  // agent, so nothing the application writes after this instant can land
  // in a buffer a later member exports. Each pre-frozen session completes
  // its suspension when its own SUS arrives (handle_sus, kSusAcked +
  // group_prefrozen); a watchdog reverts orphans if the group dies first.
  const std::string mover = msg.client_agent;
  std::vector<SessionPtr> candidates;
  for (const SessionPtr& session : sessions_.snapshot_all()) {
    if (session == trigger) continue;
    if (session->peer_agent().name() != mover) continue;
    candidates.push_back(session);
  }
  std::vector<std::uint64_t> frozen_ids;
  for (const SessionPtr& session : candidates) {
    if (session->state() != ConnState::kEstablished) continue;
    if (!session->advance(ConnEvent::kRecvSus).ok()) continue;  // raced
    (void)session->freeze_writes_and_mark();
    session->update_flags([](Session::Flags& f) {
      f.remote_suspended = true;
      f.group_prefrozen = true;
    });
    if (msg.trace_id != 0) session->set_peer_trace_id(msg.trace_id);
    frozen_ids.push_back(session->conn_id());
  }
  if (frozen_ids.empty() || stopped_.load()) return;

  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread watchdog([this, mover, frozen_ids, done] {
    group_prefreeze_watchdog(mover, frozen_ids);
    done->store(true);
  });
  {
    util::MutexLock lock(mu_);
    // Reap watchdogs that already finished (join is immediate for them).
    for (auto it = prefreeze_watchdogs_.begin();
         it != prefreeze_watchdogs_.end();) {
      if (it->done->load()) {
        if (it->thread.joinable()) it->thread.join();
        it = prefreeze_watchdogs_.erase(it);
      } else {
        ++it;
      }
    }
    prefreeze_watchdogs_.push_back({std::move(watchdog), done});
  }
}

void SocketController::group_prefreeze_watchdog(
    std::string peer_agent, std::vector<std::uint64_t> conn_ids) {
  // Each pre-frozen session either receives its own SUS (the flag clears
  // and the passive suspension completes) or the group died — revert the
  // orphans to ESTABLISHED through the kSusAcked -> kSuspendAbort arc so
  // their blocked writers return to service bounded.
  // Outlasts the mover's phase 1 (each worker: one ctrl_response_timeout
  // for the exchange, one drain_timeout for the drain) by one more
  // response timeout.
  const std::int64_t deadline =
      now_us() + 2 * config_.ctrl_response_timeout.count() +
      config_.drain_timeout.count();
  while (now_us() < deadline && !stopped_.load()) {
    bool pending = false;
    for (std::uint64_t conn_id : conn_ids) {
      const SessionPtr session = find_session_from(conn_id, peer_agent);
      if (session == nullptr) continue;
      if (session->state() == ConnState::kSusAcked &&
          session->flags().group_prefrozen) {
        pending = true;
        break;
      }
    }
    if (!pending) return;  // every pre-freeze resolved
    if (stop_event_.wait_for(kWatchdogSlice)) break;  // controller stopping
  }
  for (std::uint64_t conn_id : conn_ids) {
    const SessionPtr session = find_session_from(conn_id, peer_agent);
    if (session == nullptr) continue;
    if (session->state() != ConnState::kSusAcked ||
        !session->flags().group_prefrozen) {
      continue;
    }
    session->update_flags([](Session::Flags& f) {
      f.group_prefrozen = false;
      f.remote_suspended = false;
    });
    (void)session->advance(ConnEvent::kSuspendAbort);  // -> ESTABLISHED
    NAPLET_LOG(kWarn, "controller")
        << "conn " << conn_id << ": reverted orphaned group pre-freeze for "
        << peer_agent;
  }
}

}  // namespace naplet::nsock
