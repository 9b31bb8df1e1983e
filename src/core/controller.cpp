#include "core/controller.hpp"

#include <algorithm>

#include "crypto/random.hpp"
#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

namespace {

// Stable lowercase tokens for fault-injection site names (the wire-level
// to_string() renderings are display strings, not identifiers).
std::string_view ctrl_site_token(CtrlType type) {
  switch (type) {
    case CtrlType::kConnect: return "connect";
    case CtrlType::kConnectAck: return "connect_ack";
    case CtrlType::kConnectReject: return "connect_reject";
    case CtrlType::kSus: return "suspend";
    case CtrlType::kSusAck: return "suspend_ack";
    case CtrlType::kAckWait: return "ack_wait";
    case CtrlType::kSusRes: return "sus_res";
    case CtrlType::kSusResAck: return "sus_res_ack";
    case CtrlType::kCls: return "close";
    case CtrlType::kClsAck: return "close_ack";
    case CtrlType::kReject: return "reject";
    case CtrlType::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

std::string ctrl_site(CtrlType type, std::string_view stage) {
  std::string site = "ctrl.";
  site += ctrl_site_token(type);
  site += '.';
  site += stage;
  return site;
}

}  // namespace

// ===========================================================================
// Lifecycle

SocketController::SocketController(agent::AgentServer& server,
                                   ControllerConfig config)
    : server_(server),
      config_(config),
      sessions_(kSessionShards),
      mac_rejections_(registry_.counter("mac_rejections")),
      access_denials_(registry_.counter("access_denials")),
      links_repaired_(registry_.counter("links_repaired")),
      peers_declared_dead_(registry_.counter("peers_declared_dead")),
      sessions_recovered_(registry_.counter("sessions_recovered")),
      resume_retries_(registry_.counter("resume_retries")),
      epoch_fenced_(registry_.counter("epoch_fenced")),
      group_rollbacks_(registry_.counter("group_rollbacks")),
      hist_suspend_us_(registry_.histogram("nsock_suspend_latency_us")),
      hist_drain_us_(registry_.histogram("nsock_drain_time_us")),
      hist_handoff_us_(registry_.histogram("nsock_handoff_time_us")),
      hist_resume_us_(registry_.histogram("nsock_resume_latency_us")),
      hist_replay_bytes_(
          registry_.histogram("nsock_replayed_buffer_bytes", "bytes")),
      hist_connect_total_us_(registry_.histogram("nsock_connect_total_us")),
      hist_connect_management_us_(
          registry_.histogram("nsock_connect_management_us")),
      hist_connect_security_us_(
          registry_.histogram("nsock_connect_security_us")),
      hist_connect_key_exchange_us_(
          registry_.histogram("nsock_connect_key_exchange_us")),
      hist_connect_handshake_us_(
          registry_.histogram("nsock_connect_handshake_us")),
      hist_connect_open_us_(
          registry_.histogram("nsock_connect_open_socket_us")),
      hist_group_prepare_us_(
          registry_.histogram("nsock_group_prepare_us")),
      hist_group_commit_us_(registry_.histogram("nsock_group_commit_us")),
      hist_group_rollback_us_(
          registry_.histogram("nsock_group_rollback_us")),
      hist_group_suspend_us_(
          registry_.histogram("nsock_group_suspend_us")) {}

SocketController::~SocketController() { stop(); }

util::Status SocketController::start() {
  if (started_.exchange(true)) return util::OkStatus();

  // Durability first: the incarnation epoch must be known before the first
  // outbound message is stamped.
  if (config_.durability.enabled) {
    recovery::DurableStoreOptions opts;
    opts.dir = config_.durability.dir;
    opts.compact_every = config_.durability.compact_every;
    auto store = std::make_unique<recovery::DurableStore>(opts);
    if (auto st = store->open(); !st.ok()) return st;
    store_ = std::move(store);
    epoch_.store(store_->epoch());
    if (store_->degraded()) {
      NAPLET_LOG(kWarn, "recovery")
          << "durable store degraded: " << store_->degraded_note();
    }
  }

  redirector_ = std::make_unique<Redirector>(
      server_.network(), config_.redirector_port,
      [this](std::shared_ptr<net::Stream> stream, HandoffMsg msg) {
        on_handoff(std::move(stream), std::move(msg));
      },
      config_.redirector_leases);
  redirector_->set_host_label(server_.node_info().server_name);
  NAPLET_RETURN_IF_ERROR(redirector_->start());

  server_.bus().subscribe(
      agent::BusKind::kControl,
      [this](const net::Endpoint& from, util::ByteSpan payload) {
        on_ctrl(from, payload);
      });
  server_.bus().channel().bind_instruments(net::RudpInstruments{
      .rtt_us = &registry_.histogram("rudp_rtt_us"),
      .retransmits_per_send =
          &registry_.histogram("rudp_retransmits_per_send", "count"),
      .window_inflight = &registry_.gauge("rudp_window_inflight"),
      .sack_blocks = &registry_.counter("rudp_sack_blocks"),
      .fast_retransmits = &registry_.counter("rudp_fast_retransmits"),
      .fec_repairs = &registry_.counter("rudp_fec_repairs"),
  });
  server_.set_redirector_endpoint(redirector_->endpoint());
  server_.set_migrator(this);
  server_.register_service(kServiceName, this);
  // The repair loop doubles as the lease refresher, so it also runs when
  // only leasing is on.
  if (config_.failure_recovery.enabled || config_.redirector_leases.enabled) {
    repair_thread_ = std::thread([this] { repair_loop(); });
  }
  return util::OkStatus();
}

void SocketController::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stop_event_.set();  // wake every retry/backoff pause in flight
  const std::vector<SessionPtr> sessions = sessions_.clear_all();
  {
    util::MutexLock lock(mu_);
    for (auto& [id, queue] : accept_queues_) queue->close();
    accept_queues_.clear();
  }
  for (const SessionPtr& session : sessions) {
    session->close_stream();
    session->park_event().set();
    session->resume_event().set();
    session->responses().close();
  }
  if (redirector_) redirector_->stop();
  if (repair_thread_.joinable()) repair_thread_.join();
  std::vector<PrefreezeWatchdog> watchdogs;
  {
    util::MutexLock lock(mu_);
    watchdogs = std::exchange(prefreeze_watchdogs_, {});
  }
  for (PrefreezeWatchdog& w : watchdogs) {
    if (w.thread.joinable()) w.thread.join();
  }
}

agent::NodeInfo SocketController::self_node() const {
  return server_.node_info();
}

// ===========================================================================
// Small helpers

util::Status SocketController::send_ctrl(const net::Endpoint& dest,
                                         CtrlMsg& msg,
                                         util::ByteSpan session_key,
                                         util::Duration max_wait) {
  bool duplicate = false;
  if (fault::armed()) {
    const fault::Decision d = fault::hit(ctrl_site(msg.type, "pre_send"));
    switch (d.action) {
      case fault::Action::kDrop:
      case fault::Action::kKill:
        // The message vanishes before the reliability layer ever sees it —
        // a software failure no retransmission can paper over.
        return util::OkStatus();
      case fault::Action::kError:
        return util::Unavailable("fault: ctrl " +
                                 std::string(ctrl_site_token(msg.type)) +
                                 " send errored");
      case fault::Action::kDuplicate:
        duplicate = true;
        break;
      default:
        break;
    }
  }
  msg.node = self_node();
  msg.epoch = epoch_.load();
  const util::Bytes payload = msg.mac_payload();
  msg.mac = compute_mac(session_key,
                        util::ByteSpan(payload.data(), payload.size()));
  const util::Bytes encoded = msg.encode();
  if (duplicate) {
    // Two independent rudp sends: the receiver sees two distinct reliable
    // messages with identical protocol content (stressing its duplicate
    // handling, which the per-seq rudp dedup cannot cover).
    (void)server_.bus().send(dest, agent::BusKind::kControl,
                             util::ByteSpan(encoded.data(), encoded.size()),
                             max_wait);
  }
  return server_.bus().send(dest, agent::BusKind::kControl,
                            util::ByteSpan(encoded.data(), encoded.size()),
                            max_wait);
}

util::Status SocketController::send_session_ctrl(const net::Endpoint& dest,
                                                 CtrlMsg& msg,
                                                 const Session& session,
                                                 util::Duration max_wait) {
  // Sender identity rides in client_agent for post-setup messages so the
  // receiver can address the right endpoint's session (it is MAC-covered).
  msg.client_agent = session.local_agent().name();
  // Default trace attribution: this session's own migration. Handlers that
  // reply to the PEER's migration set msg.trace_id explicitly beforehand.
  if (msg.trace_id == 0) msg.trace_id = session.trace_id();
  session.recorder().record(obs::FlightRecorder::Kind::kCtrlSend,
                            static_cast<std::uint8_t>(msg.type), 0, 0);
  return send_ctrl(dest, msg,
                   util::ByteSpan(session.session_key().data(),
                                  session.session_key().size()),
                   max_wait);
}

util::Status SocketController::reply_handoff(net::Stream& stream,
                                             HandoffMsg msg,
                                             util::ByteSpan session_key) {
  msg.node = self_node();
  msg.epoch = epoch_.load();
  const util::Bytes payload = msg.mac_payload();
  msg.mac = compute_mac(session_key,
                        util::ByteSpan(payload.data(), payload.size()));
  const util::Bytes encoded = msg.encode();
  return net::write_frame(stream,
                          util::ByteSpan(encoded.data(), encoded.size()));
}

SessionPtr SocketController::find_session(std::uint64_t conn_id) const {
  return sessions_.find(conn_id);
}

SessionPtr SocketController::find_session_from(
    std::uint64_t conn_id, const std::string& sender) const {
  // Tolerating a missing sender only on an unambiguous match is the shard
  // map's contract too.
  return sessions_.find_from(conn_id, sender);
}

void SocketController::insert_session(const SessionPtr& session) {
  sessions_.insert(session);
  if (redirector_) redirector_->register_lease(session->conn_id());
}

void SocketController::remove_session(const SessionPtr& session) {
  // Same-node pairs share a conn_id (and therefore a shard): only drop
  // the lease once the LAST endpoint is gone.
  const bool gone = sessions_.erase(session->conn_id(),
                                    session->local_agent().name());
  if (gone && redirector_) redirector_->release_lease(session->conn_id());
}

void SocketController::journal_commit(recovery::CommitPoint point,
                                      const SessionPtr& session) {
  // The span marks the commit POINT being reached; it is emitted even when
  // durability is off so traces have the same shape either way. Drain
  // commits belong to the peer's migration trace; the rest to our own.
  const std::uint64_t trace =
      point == recovery::CommitPoint::kDrainComplete
          ? (session->peer_trace_id() != 0 ? session->peer_trace_id()
                                           : session->trace_id())
          : (session->trace_id() != 0 ? session->trace_id()
                                      : session->peer_trace_id());
  span(trace, obs::SpanKind::kJournalCommit, *session,
       std::string(to_string(point)));
  if (!store_) return;
  // Serialize outside any lock: export_state takes the session's own locks
  // and the store serializes its file writes itself.
  const util::Bytes blob = session->export_state();
  if (auto st = store_->record(point, session->conn_id(),
                               util::ByteSpan(blob.data(), blob.size()));
      !st.ok()) {
    NAPLET_LOG(kError, "recovery")
        << "journal append failed at " << to_string(point) << " for conn "
        << session->conn_id() << ": " << st.to_string();
  }
}

void SocketController::journal_remove(recovery::CommitPoint point,
                                      std::uint64_t conn_id) {
  if (!store_) return;
  if (auto st = store_->record(point, conn_id, {}); !st.ok()) {
    NAPLET_LOG(kError, "recovery")
        << "journal removal failed at " << to_string(point) << " for conn "
        << conn_id << ": " << st.to_string();
  }
}

void SocketController::span(std::uint64_t trace_id, obs::SpanKind kind,
                            const Session& session, std::string detail,
                            std::uint64_t value) const {
  if (trace_id == 0) return;
  obs::SpanEvent ev;
  ev.trace_id = trace_id;
  ev.kind = kind;
  ev.conn_id = session.conn_id();
  ev.host = server_.node_info().server_name;
  ev.detail = std::move(detail);
  ev.value = value;
  obs::TraceSink::instance().record(std::move(ev));
}

std::string SocketController::recorder_dumps() const {
  std::string out;
  for (const auto& session : sessions_.snapshot_all()) {
    out += session->recorder().dump();
  }
  return out;
}

bool SocketController::admit_epoch(Session& session, const CtrlMsg& msg) {
  if (session.admit_peer_epoch(msg.epoch)) return true;
  epoch_fenced_.add(1);
  NAPLET_LOG(kWarn, "recovery")
      << "conn " << msg.conn_id << ": dropping stale "
      << to_string(msg.type) << " from epoch " << msg.epoch << " (seen "
      << session.peer_epoch() << ")";
  return false;
}

std::vector<SessionPtr> SocketController::sessions_of(
    const agent::AgentId& id) const {
  return sessions_.of_agent(id);  // sorted by conn_id (deterministic sweep)
}

bool SocketController::agent_is_migrating(const agent::AgentId& id) const {
  util::MutexLock lock(mu_);
  return migrating_agents_.contains(id);
}

std::size_t SocketController::session_count() const {
  return sessions_.size();
}

ControllerStats SocketController::stats() const {
  ControllerStats out;
  const std::vector<SessionPtr> sessions = sessions_.snapshot_all();
  out.sessions = sessions.size();
  for (const SessionPtr& session : sessions) {
    ++out.by_state[static_cast<std::size_t>(session->state())];
    const DataPathStats dp = session->data_stats();
    out.data_payload_bytes_copied += dp.payload_bytes_copied;
    out.data_stream_write_ops += dp.stream_write_ops;
    out.data_stream_read_ops += dp.stream_read_ops;
    out.data_recv_wakeups += dp.recv_wakeups;
    out.data_frames_coalesced += dp.frames_coalesced;
  }
  out.shard_sessions = sessions_.shard_sizes();
  {
    util::MutexLock lock(mu_);
    out.listening_agents = accept_queues_.size();
    out.migrating_agents = migrating_agents_.size();
  }
  out.mac_rejections = mac_rejections_.value();
  out.access_denials = access_denials_.value();
  out.links_repaired = links_repaired_.value();
  out.peers_declared_dead = peers_declared_dead_.value();
  out.epoch = epoch_.load();
  out.sessions_recovered = sessions_recovered_.value();
  out.resume_retries = resume_retries_.value();
  out.epoch_fenced = epoch_fenced_.value();
  if (redirector_) {
    out.leases = redirector_->lease_count();
    out.leases_expired = redirector_->leases_expired();
    out.handoffs_fenced = redirector_->handoffs_fenced();
  }
  // Mirror externally-owned instantaneous values into gauges so the
  // snapshot (and the Prometheus/JSON exports built from it) is complete.
  registry_.gauge("sessions").set(static_cast<std::int64_t>(out.sessions));
  registry_.gauge("listening_agents")
      .set(static_cast<std::int64_t>(out.listening_agents));
  registry_.gauge("migrating_agents")
      .set(static_cast<std::int64_t>(out.migrating_agents));
  registry_.gauge("redirector_leases")
      .set(static_cast<std::int64_t>(out.leases));
  out.metrics = registry_.snapshot();
  auto& channel = server_.bus().channel();
  out.ctrl_messages_sent = channel.messages_sent();
  out.ctrl_retransmissions = channel.retransmissions();
  out.ctrl_duplicates_dropped = channel.duplicates_dropped();
  const net::NetworkCounters net = server_.network().counters();
  out.net_datagrams_dropped = net.datagrams_dropped;
  out.net_partition_events = net.partition_events;
  out.net_partitions_active = net.partitions_active;
  out.net_streams_severed = net.streams_severed;
  return out;
}

// ===========================================================================
// Bus dispatch

void SocketController::on_ctrl(const net::Endpoint& from,
                               util::ByteSpan payload) {
  auto msg = CtrlMsg::decode(payload);
  if (!msg.ok()) {
    NAPLET_LOG(kWarn, "controller")
        << "bad ctrl message from " << from.to_string() << ": "
        << msg.status().to_string();
    return;
  }
  if (fault::armed()) {
    const fault::Decision d = fault::hit(ctrl_site(msg->type, "on_recv"));
    if (d.action == fault::Action::kDrop || d.action == fault::Action::kKill ||
        d.action == fault::Action::kError) {
      // Receiver-side processing failure: the reliability layer already
      // ACKed the datagram, so the sender will NOT retransmit — this is
      // loss above rudp, the kind only protocol-level timeouts recover.
      return;
    }
  }
  if (msg->conn_id != 0) {
    if (SessionPtr session =
            find_session_from(msg->conn_id, msg->client_agent)) {
      session->recorder().record(obs::FlightRecorder::Kind::kCtrlRecv,
                                 static_cast<std::uint8_t>(msg->type), 0, 0);
    }
  }
  switch (msg->type) {
    case CtrlType::kConnect:
      handle_connect(from, std::move(*msg));
      return;
    case CtrlType::kConnectAck:
    case CtrlType::kConnectReject:
      handle_connect_reply(std::move(*msg));
      return;
    case CtrlType::kSus:
      handle_sus(std::move(*msg));
      return;
    case CtrlType::kSusAck:
    case CtrlType::kAckWait:
      handle_sus_response(std::move(*msg));
      return;
    case CtrlType::kSusRes:
      handle_sus_res(std::move(*msg));
      return;
    case CtrlType::kCls:
      handle_cls(std::move(*msg));
      return;
    case CtrlType::kClsAck:
    case CtrlType::kSusResAck:
      handle_simple_ack(std::move(*msg));
      return;
    case CtrlType::kReject: {
      NAPLET_LOG(kDebug, "controller")
          << "peer rejected conn " << msg->conn_id << ": " << msg->reason;
      // Route to the waiting operation: "unknown connection" usually means
      // the peer agent is mid-transit (its session exported but not yet
      // imported), and the initiator should refresh its location and retry
      // rather than waiting out the full response timeout.
      if (SessionPtr session =
              find_session_from(msg->conn_id, msg->client_agent)) {
        session->responses().push(Session::CtrlResponse{
            static_cast<std::uint8_t>(CtrlType::kReject), 0});
      }
      return;
    }
    case CtrlType::kHeartbeat:
      // Liveness probe: the reliability layer already ACKed it; nothing
      // else to do (fault-tolerance extension).
      return;
  }
}

void SocketController::on_handoff(std::shared_ptr<net::Stream> stream,
                                  HandoffMsg msg) {
  if (SessionPtr session = find_session_from(msg.conn_id, msg.agent)) {
    session->recorder().record(obs::FlightRecorder::Kind::kCtrlRecv,
                               static_cast<std::uint8_t>(msg.type), 1, 0);
  }
  switch (msg.type) {
    case HandoffType::kAttach:
      handle_attach(std::move(stream), std::move(msg));
      return;
    case HandoffType::kResume:
      handle_resume_request(std::move(stream), std::move(msg));
      return;
    default:
      stream->close();
      return;
  }
}

// ===========================================================================
// Connection setup (paper §2.2 "Open a connection", §3.4 socket handoff)

util::StatusOr<SessionPtr> SocketController::connect(
    const agent::AgentId& self, const agent::AgentId& peer,
    ConnectBreakdown* breakdown) {
  util::RealClock& clock = util::RealClock::instance();
  ConnectBreakdown local_breakdown;
  ConnectBreakdown& bd = breakdown != nullptr ? *breakdown : local_breakdown;
  bd = ConnectBreakdown{};
  util::Stopwatch sw(clock);

  // [management] correlation state for the CONNECT reply.
  const std::uint64_t verifier = crypto::random_u64();
  auto pending = std::make_shared<PendingConnect>();
  {
    util::MutexLock lock(mu_);
    pending_connects_[verifier] = pending;
  }
  auto cleanup_pending = [&] {
    util::MutexLock lock(mu_);
    pending_connects_.erase(verifier);
  };
  bd.management_ms += sw.elapsed_ms();

  // [security check] local authorization + credential issuance. The server
  // side's authenticate/authorize runs inside the handshake round trip.
  sw.reset();
  util::Bytes token_bytes;
  if (config_.security) {
    auto allowed = server_.access().check(
        agent::Subject{agent::Subject::Kind::kAgent, self.name()},
        agent::Permission::kUseNapletSocket);
    if (!allowed.ok()) {
      access_denials_.add(1);
      cleanup_pending();
      return allowed;
    }
    agent::AuthToken token = server_.access().issue_token(self);
    util::Archive ar;
    ar.field(token);
    token_bytes = std::move(ar).take_bytes();
  }
  bd.security_check_ms += sw.elapsed_ms();

  // [key exchange] our half of Diffie–Hellman.
  sw.reset();
  std::optional<crypto::DhKeyPair> dh;
  if (config_.security) {
    auto keypair = crypto::DhKeyPair::generate(config_.dh_group);
    if (!keypair.ok()) {
      cleanup_pending();
      return keypair.status();
    }
    dh = std::move(*keypair);
  }
  bd.key_exchange_ms += sw.elapsed_ms();

  // [handshake] locate the peer and run the CONNECT round trip.
  sw.reset();
  auto peer_node = server_.locations().lookup(peer, config_.connect_timeout);
  if (!peer_node.ok()) {
    cleanup_pending();
    return peer_node.status();
  }
  CtrlMsg req;
  req.type = CtrlType::kConnect;
  req.verifier = verifier;
  req.client_agent = self.name();
  req.server_agent = peer.name();
  if (dh) req.dh_public = dh->public_value();
  req.token = token_bytes;
  if (auto st = send_ctrl(peer_node->control, req, {}); !st.ok()) {
    cleanup_pending();
    return st;
  }
  if (!pending->done.wait_for(config_.connect_timeout)) {
    cleanup_pending();
    return util::Timeout("no CONNECT reply from " + peer.name());
  }
  cleanup_pending();
  if (!pending->status.ok()) return pending->status;
  bd.handshake_ms += sw.elapsed_ms();

  // [key exchange] derive the session key from the server's public value.
  sw.reset();
  util::Bytes session_key;
  if (dh) {
    auto key = dh->session_key(util::ByteSpan(
        pending->server_dh_public.data(), pending->server_dh_public.size()));
    if (!key.ok()) return key.status();
    session_key.assign(key->begin(), key->end());
  }
  bd.key_exchange_ms += sw.elapsed_ms();

  // [management] build the client-side session.
  sw.reset();
  auto session = std::make_shared<Session>(pending->conn_id, verifier,
                                           /*is_client=*/true, self, peer);
  session->set_peer_node(pending->server_node);
  session->set_session_key(session_key);
  if (config_.failure_recovery.enabled) {
    session->enable_history(config_.failure_recovery.history_bytes);
  }
  NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kAppConnect));
  bd.management_ms += sw.elapsed_ms();

  // [open socket] raw TCP to the server's redirector.
  sw.reset();
  auto stream = server_.network().connect(pending->server_node.redirector,
                                          config_.connect_timeout);
  if (!stream.ok()) return stream.status();
  std::shared_ptr<net::Stream> data_socket(std::move(*stream));
  bd.open_socket_ms += sw.elapsed_ms();

  // [handshake] complete setup by sending our ID over the handoff stream.
  sw.reset();
  HandoffMsg attach;
  attach.type = HandoffType::kAttach;
  attach.conn_id = pending->conn_id;
  attach.verifier = verifier;
  attach.agent = self.name();
  if (auto st = reply_handoff(*data_socket, attach,
                              util::ByteSpan(session_key.data(),
                                             session_key.size()));
      !st.ok()) {
    return st;
  }
  auto reply_frame = net::read_frame(*data_socket);
  if (!reply_frame.ok()) return reply_frame.status();
  auto reply = HandoffMsg::decode(
      util::ByteSpan(reply_frame->data(), reply_frame->size()));
  if (!reply.ok()) return reply.status();
  if (reply->type != HandoffType::kAttachOk) {
    return util::PermissionDenied("attach rejected: " + reply->reason);
  }
  bd.handshake_ms += sw.elapsed_ms();

  // [management] finalize and register.
  sw.reset();
  session->attach_stream(std::move(data_socket));
  NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kRecvConnectAck));
  insert_session(session);
  journal_commit(recovery::CommitPoint::kConnectEstablished, session);
  bd.management_ms += sw.elapsed_ms();

  hist_connect_management_us_.record(obs::ms_to_us(bd.management_ms));
  hist_connect_security_us_.record(obs::ms_to_us(bd.security_check_ms));
  hist_connect_key_exchange_us_.record(obs::ms_to_us(bd.key_exchange_ms));
  hist_connect_handshake_us_.record(obs::ms_to_us(bd.handshake_ms));
  hist_connect_open_us_.record(obs::ms_to_us(bd.open_socket_ms));
  hist_connect_total_us_.record(obs::ms_to_us(bd.total_ms()));
  return session;
}

void SocketController::handle_connect(const net::Endpoint& from,
                                      CtrlMsg msg) {
  CtrlMsg reply;
  reply.verifier = msg.verifier;

  const net::Endpoint reply_to =
      msg.node.control.port != 0 ? msg.node.control : from;

  auto reject = [&](util::Status why) {
    access_denials_.add(1);
    reply.type = CtrlType::kConnectReject;
    reply.reason = why.to_string();
    (void)send_ctrl(reply_to, reply, {});
  };

  // Target agent must be listening here.
  const agent::AgentId target(msg.server_agent);
  std::shared_ptr<util::BlockingQueue<SessionPtr>> queue;
  {
    util::MutexLock lock(mu_);
    auto it = accept_queues_.find(target);
    if (it != accept_queues_.end()) queue = it->second;
  }
  if (queue == nullptr) {
    reject(util::NotFound("agent '" + msg.server_agent +
                          "' is not listening on this server"));
    return;
  }

  // Security: authenticate the client's token, authorize the request, and
  // run our half of the key exchange (paper Fig. 8's dominant cost).
  util::Bytes session_key;
  util::Bytes server_dh_public;
  if (config_.security) {
    agent::AuthToken token;
    if (auto st = util::Archive::decode(
            util::ByteSpan(msg.token.data(), msg.token.size()), token);
        !st.ok() || msg.token.empty()) {
      reject(util::Unauthenticated("missing or malformed credential"));
      return;
    }
    auto subject = server_.access().authenticate(token);
    if (!subject.ok()) {
      reject(subject.status());
      return;
    }
    if (subject->name != msg.client_agent) {
      reject(util::Unauthenticated("credential/agent mismatch"));
      return;
    }
    if (auto st = server_.access().check(
            *subject, agent::Permission::kUseNapletSocket);
        !st.ok()) {
      reject(st);
      return;
    }

    auto dh = crypto::DhKeyPair::generate(config_.dh_group);
    if (!dh.ok()) {
      reject(dh.status());
      return;
    }
    auto key = dh->session_key(
        util::ByteSpan(msg.dh_public.data(), msg.dh_public.size()));
    if (!key.ok()) {
      reject(key.status());
      return;
    }
    session_key.assign(key->begin(), key->end());
    server_dh_public = dh->public_value();
  }

  // Allocate the connection and park it until the client's ATTACH arrives.
  // (The uniqueness probe and the insert below are not atomic, but ids are
  // 64-bit crypto-random — a collision with a CONCURRENT allocation is
  // beyond negligible; the probe only guards against reusing a live id.)
  std::uint64_t conn_id;
  do {
    conn_id = crypto::random_u64();
  } while (conn_id == 0 || sessions_.contains_conn(conn_id));
  auto session = std::make_shared<Session>(conn_id, msg.verifier,
                                           /*is_client=*/false, target,
                                           agent::AgentId(msg.client_agent));
  session->set_peer_node(msg.node);
  session->set_session_key(std::move(session_key));
  if (config_.failure_recovery.enabled) {
    session->enable_history(config_.failure_recovery.history_bytes);
  }
  (void)session->advance(ConnEvent::kAppListen);
  (void)session->advance(ConnEvent::kRecvConnect);  // -> CONNECT_ACKED
  insert_session(session);

  reply.type = CtrlType::kConnectAck;
  reply.conn_id = conn_id;
  reply.dh_public = server_dh_public;
  if (auto st = send_ctrl(reply_to, reply, {}); !st.ok()) {
    NAPLET_LOG(kWarn, "controller")
        << "CONNECT_ACK send failed: " << st.to_string();
    remove_session(session);
  }
}

void SocketController::handle_connect_reply(CtrlMsg msg) {
  std::shared_ptr<PendingConnect> pending;
  {
    util::MutexLock lock(mu_);
    auto it = pending_connects_.find(msg.verifier);
    if (it == pending_connects_.end()) return;  // late/duplicate reply
    pending = it->second;
  }
  if (msg.type == CtrlType::kConnectReject) {
    pending->status = util::PermissionDenied(msg.reason);
  } else {
    pending->conn_id = msg.conn_id;
    pending->server_dh_public = std::move(msg.dh_public);
    pending->server_node = msg.node;
  }
  pending->done.set();
}

void SocketController::handle_attach(std::shared_ptr<net::Stream> stream,
                                     HandoffMsg msg) {
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
  if (session->state() != ConnState::kConnectAcked) {
    fail("connection not awaiting attach");
    return;
  }

  session->attach_stream(stream);
  HandoffMsg ok;
  ok.type = HandoffType::kAttachOk;
  ok.conn_id = msg.conn_id;
  if (auto st = reply_handoff(*stream, ok,
                              util::ByteSpan(session->session_key().data(),
                                             session->session_key().size()));
      !st.ok()) {
    session->close_stream();
    return;
  }
  (void)session->advance(ConnEvent::kRecvAttach);  // -> ESTABLISHED

  std::shared_ptr<util::BlockingQueue<SessionPtr>> queue;
  {
    util::MutexLock lock(mu_);
    auto it = accept_queues_.find(session->local_agent());
    if (it != accept_queues_.end()) queue = it->second;
  }
  if (queue != nullptr) {
    journal_commit(recovery::CommitPoint::kConnectEstablished, session);
    queue->push(session);
  } else {
    // The listener vanished between CONNECT and ATTACH; tear down.
    NAPLET_LOG(kWarn, "controller")
        << "listener gone for conn " << msg.conn_id << "; closing";
    session->close_stream();
  }
}

// ===========================================================================
// Listen / accept

util::Status SocketController::listen(const agent::AgentId& self) {
  if (config_.security) {
    auto allowed = server_.access().check(
        agent::Subject{agent::Subject::Kind::kAgent, self.name()},
        agent::Permission::kUseNapletSocket);
    if (!allowed.ok()) {
      access_denials_.add(1);
      return allowed;
    }
  }
  util::MutexLock lock(mu_);
  if (accept_queues_.contains(self)) {
    return util::AlreadyExists("agent already listening: " + self.name());
  }
  accept_queues_[self] = std::make_shared<util::BlockingQueue<SessionPtr>>();
  return util::OkStatus();
}

util::Status SocketController::unlisten(const agent::AgentId& self) {
  std::shared_ptr<util::BlockingQueue<SessionPtr>> queue;
  {
    util::MutexLock lock(mu_);
    auto it = accept_queues_.find(self);
    if (it == accept_queues_.end()) {
      return util::NotFound("agent not listening: " + self.name());
    }
    queue = it->second;
    accept_queues_.erase(it);
  }
  queue->close();
  return util::OkStatus();
}

bool SocketController::is_listening(const agent::AgentId& self) const {
  util::MutexLock lock(mu_);
  return accept_queues_.contains(self);
}

util::StatusOr<SessionPtr> SocketController::accept(const agent::AgentId& self,
                                                    util::Duration timeout) {
  std::shared_ptr<util::BlockingQueue<SessionPtr>> queue;
  {
    util::MutexLock lock(mu_);
    auto it = accept_queues_.find(self);
    if (it == accept_queues_.end()) {
      return util::FailedPrecondition("agent not listening: " + self.name());
    }
    queue = it->second;
  }
  auto session = queue->pop_for(timeout);
  if (!session) {
    return queue->closed()
               ? util::Cancelled("listener closed")
               : util::Timeout("accept timed out for " + self.name());
  }
  return *session;
}

}  // namespace naplet::nsock
