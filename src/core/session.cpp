#include "core/session.hpp"

#include <algorithm>
#include <thread>

#include "core/wire.hpp"
#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "util/log.hpp"
#include "util/serial.hpp"

namespace naplet::nsock {

namespace {
constexpr util::Duration kPumpSlice = std::chrono::milliseconds(100);
constexpr util::Duration kStateWaitSlice = std::chrono::milliseconds(100);

std::int64_t now_us() { return util::RealClock::instance().now_us(); }

bool is_dead(ConnState s) { return !is_live(s); }

// Teach the obs flight recorder (which cannot depend on the protocol
// enums) to decode FSM and message codes in its dumps. Also hook the
// recorder dump into lock-rank violation aborts. Once per process.
void install_obs_decoders() {
  static const bool installed = [] {
    obs::set_namers(
        [](std::uint8_t s) { return to_string(static_cast<ConnState>(s)); },
        [](std::uint8_t e) { return to_string(static_cast<ConnEvent>(e)); },
        [](std::uint8_t t) { return to_string(static_cast<CtrlType>(t)); },
        [](std::uint8_t t) { return to_string(static_cast<HandoffType>(t)); });
    obs::install_lock_rank_hook();
    return true;
  }();
  (void)installed;
}

std::string recorder_label(std::uint64_t conn_id, bool is_client,
                           const agent::AgentId& local_agent) {
  return "conn " + std::to_string(conn_id) +
         (is_client ? " client " : " server ") + local_agent.name();
}

/// A reply slot's bit for `type` (CtrlType values are below 32).
std::uint32_t type_bit(CtrlType type) {
  return std::uint32_t{1} << static_cast<unsigned>(type);
}

}  // namespace

Session::Session(std::uint64_t conn_id, std::uint64_t verifier, bool is_client,
                 agent::AgentId local_agent, agent::AgentId peer_agent)
    : conn_id_(conn_id),
      verifier_(verifier),
      is_client_(is_client),
      local_agent_(std::move(local_agent)),
      peer_agent_(std::move(peer_agent)),
      recorder_(recorder_label(conn_id, is_client, local_agent_)) {
  install_obs_decoders();
}

agent::NodeInfo Session::peer_node() const {
  util::MutexLock lock(node_mu_);
  return peer_node_;
}

void Session::set_peer_node(const agent::NodeInfo& node) {
  util::MutexLock lock(node_mu_);
  peer_node_ = node;
}

util::Status Session::step(ConnState& s, ConnEvent event,
                           std::optional<ConnState> from) const {
  if (from && s != *from) {
    return util::FailedPrecondition(
        "state moved to " + std::string(to_string(s)) + " before " +
        std::string(to_string(event)) + " (conn " + std::to_string(conn_id_) +
        ")");
  }
  auto next = transition(s, event);
  if (!next) {
    return util::ProtocolError(
        "illegal transition: " + std::string(to_string(s)) + " on " +
        std::string(to_string(event)) + " (conn " + std::to_string(conn_id_) +
        ")");
  }
  NAPLET_LOG(kTrace, "fsm") << "conn " << conn_id_ << " ["
                            << (is_client_ ? "client" : "server") << "] "
                            << to_string(s) << " --" << to_string(event)
                            << "--> " << to_string(*next);
  // Audit hook for the fault oracles: every performed transition is
  // re-validated against the golden table after a chaos run.
  fault::observe_transition(conn_id_, is_client_, static_cast<std::uint8_t>(s),
                            static_cast<std::uint8_t>(event),
                            static_cast<std::uint8_t>(*next));
  // Flight-recorder hook: runs under the state-cell lock, so it must be
  // (and is) lock-free.
  recorder_.record_fsm(static_cast<std::uint8_t>(s),
                       static_cast<std::uint8_t>(event),
                       static_cast<std::uint8_t>(*next));
  s = *next;
  return util::OkStatus();
}

util::Status Session::park(ConnEvent event, std::optional<ConnState> from) {
  (void)fault::hit("session.suspend.park");
  util::Status result = util::OkStatus();
  cell_.update([&](Cell& c) {
    result = step(c.state, event, from);
    if (!result.ok() || !c.flags.early_release) return;
    (void)step(c.state, *c.flags.early_release, std::nullopt);
    c.flags.early_release.reset();
  });
  return result;
}

void Session::expect_reply(std::initializer_list<CtrlType> types,
                           std::uint64_t trace_id) {
  std::uint32_t wanted = 0;
  for (CtrlType type : types) wanted |= type_bit(type);
  cell_.update([&](Cell& c) {
    c.reply = Reply{};
    c.reply_types = wanted;
    c.reply_trace_id = trace_id;
  });
}

void Session::put_reply(CtrlType type, std::uint64_t mark,
                        std::uint64_t trace_id) {
  cell_.update([&](Cell& c) {
    if ((c.reply_types & type_bit(type)) == 0) return;
    if (c.reply_trace_id != 0 && c.reply_trace_id != trace_id) return;
    c.reply = Reply{type, mark};
  });
}

std::optional<Session::Reply> Session::wait_reply(
    util::Duration timeout) const {
  auto cell = cell_.wait_for(
      [](const Cell& c) {
        return c.reply.type.has_value() || c.state == ConnState::kClosed;
      },
      timeout);
  if (!cell || !cell->reply.type) return std::nullopt;
  return cell->reply;
}

void Session::attach_stream(std::shared_ptr<net::Stream> stream) {
  {
    util::MutexLock lock(stream_mu_);
    stream_ = std::move(stream);
  }
  broken_.store(false);
  // Wake readers parked on a dead socket: the replacement is here. The
  // epoch bump (under buf_mu_) makes the event durable — a reader that
  // snapshotted the epoch before this attach will not sleep through it.
  {
    util::MutexLock lock(buf_mu_);
    bump_rx_epoch_locked();
  }
  rx_cv_.notify_all();
}

bool Session::has_stream() const {
  util::MutexLock lock(stream_mu_);
  return stream_ != nullptr;
}

void Session::close_stream() {
  std::shared_ptr<net::Stream> victim;
  {
    // The io lock is held across socket writes (write_mu_ is not), so a
    // coordinated teardown must wait for any in-flight gather-write: the
    // suspension mark declared to the peer can cover exactly that frame,
    // and the peer cannot finish draining a half-written frame.
    util::MutexLock io(write_io_mu_);
    util::MutexLock lock(stream_mu_);
    victim = std::exchange(stream_, nullptr);
  }
  if (victim) victim->close();
  // Durable rx event (see attach_stream): without the epoch bump a reader
  // that decided to wait just before this close slept out its full slice.
  {
    util::MutexLock lock(buf_mu_);
    bump_rx_epoch_locked();
  }
  rx_cv_.notify_all();
}

std::shared_ptr<net::Stream> Session::stream() const {
  util::MutexLock lock(stream_mu_);
  return stream_;
}

std::uint64_t Session::sent_seq() const {
  util::MutexLock lock(write_mu_);
  return tx_seq_;
}

std::uint64_t Session::highest_rx_seq() const {
  util::MutexLock lock(buf_mu_);
  return rx_high_;
}

std::size_t Session::buffered_frames() const {
  util::MutexLock lock(buf_mu_);
  return buffer_.size();
}

std::uint64_t Session::buffered_bytes() const {
  util::MutexLock lock(buf_mu_);
  std::uint64_t total = 0;
  for (const BufferedFrame& f : buffer_) total += f.body.size();
  return total;
}

std::uint64_t Session::freeze_writes_and_mark() {
  // Callers set the FSM state to a non-transfer state *first*; taking the
  // write lock afterwards serializes against sequence assignment, so the
  // returned mark covers every frame that was or will be written before
  // suspension. A send whose seq is already assigned may still be mid-
  // transfer on the socket (it holds write_io_mu_, not write_mu_) — that is
  // fine: the stream is only closed after the peer drains to this mark,
  // which requires the in-flight frame to have fully arrived.
  util::MutexLock lock(write_mu_);
  return tx_seq_;
}

// Lock coupling (write_mu_ -> write_io_mu_, with write_mu_ released
// mid-flight and conditionally re-taken on the error path) is beyond the
// static analysis; the runtime lock-rank validator covers this function in
// debug builds instead.
util::Status Session::send(util::ByteSpan body, util::Duration timeout)
    NAPLET_NO_THREAD_SAFETY_ANALYSIS {
  const std::int64_t deadline = now_us() + timeout.count();
  std::uint64_t seq = 0;  // 0 = no sequence number assigned yet
  for (;;) {
    {
      util::UniqueMutexLock wl(write_mu_);
      const ConnState st = state();
      if (is_dead(st)) {
        return util::Aborted("connection " + std::to_string(conn_id_) +
                             " is closed");
      }
      if (can_transfer(st)) {
        auto s = stream();
        if (s != nullptr) {
          // Acquire the io lock while still holding write_mu_ (lock
          // coupling): socket writes happen in seq order without keeping
          // write_mu_ across the transfer.
          util::UniqueMutexLock io(write_io_mu_);
          if (seq == 0) {
            seq = ++tx_seq_;
            if (history_enabled_) {
              // Retention for retransmission is the one payload copy on
              // the send path, and only with the fault-tolerance
              // extension enabled.
              history_bytes_ += body.size();
              counters_.payload_bytes_copied.fetch_add(
                  body.size(), std::memory_order_relaxed);
              history_.emplace_back(seq, util::Bytes(body.begin(), body.end()));
              while (history_bytes_ > history_limit_bytes_ &&
                     !history_.empty()) {
                history_bytes_ -= history_.front().second.size();
                history_.pop_front();
              }
            }
          }
          wl.unlock();

          // Zero-copy framing: the 8-byte seq header lives on the stack;
          // write_frame_vectored prepends the u32 length the same way and
          // gather-writes header + caller's payload in ONE transport op.
          std::uint8_t seq_hdr[8];
          for (int i = 0; i < 8; ++i) {
            seq_hdr[i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
          }
          const util::ByteSpan parts[2] = {util::ByteSpan(seq_hdr, 8), body};
          auto status = net::write_frame_vectored(
              *s, std::span<const util::ByteSpan>(parts, 2));
          counters_.stream_write_ops.fetch_add(1, std::memory_order_relaxed);
          io.unlock();
          if (status.ok()) return util::OkStatus();
          // The socket may have been torn down by a racing suspension;
          // re-check the state (under write_mu_, so the check is ordered
          // against freeze_writes_and_mark) before reporting an error. An
          // error while still ESTABLISHED is an uncoordinated link failure.
          wl.lock();
          if (can_transfer(state())) {
            broken_.store(true);
            // A failed send must consume nothing: if no later sender
            // claimed a sequence number, roll ours back (and drop the
            // history entry) so a link-failure repair never replays a
            // frame the caller was told failed. Otherwise our seq is
            // pinned in the sequence — keep retrying the SAME frame.
            if (tx_seq_ == seq) {
              --tx_seq_;
              if (history_enabled_ && !history_.empty() &&
                  history_.back().first == seq) {
                history_bytes_ -= history_.back().second.size();
                history_.pop_back();
              }
              return status;
            }
            // Pinned seq on a broken link: pace the retry while the
            // repair loop re-establishes the stream (the state stays
            // transferable, so the wait at the bottom would not block).
            // Waiting on the state cell instead of sleeping lets a racing
            // close/abort interrupt the pacing immediately.
            wl.unlock();
            wait_state([](ConnState s) { return is_dead(s); },
                       std::chrono::milliseconds(1));
          }
          // Racing suspension killed the write (or rollback was not
          // possible): the seq is already assigned (and covered by any
          // declared mark), so retry the SAME frame once re-established —
          // receiver duplicate suppression keeps delivery exactly-once
          // even if the first attempt landed.
        }
      }
    }
    if (now_us() >= deadline) {
      return util::Timeout("send blocked (state " +
                           std::string(to_string(state())) + ")");
    }
    wait_state([](ConnState s) { return can_transfer(s) || is_dead(s); },
               kStateWaitSlice);
  }
}

void Session::parse_raw_locked() {
  // Caller holds buf_mu_. Complete frames are consumed through an offset
  // cursor and the raw buffer is compacted ONCE at the end — the previous
  // per-frame erase made a burst of k coalesced frames cost O(k²) moves.
  std::size_t off = 0;
  for (;;) {
    if (rx_raw_.size() - off < 4) break;
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) len = len << 8 | rx_raw_[off + i];
    if (rx_raw_.size() - off < 4 + static_cast<std::size_t>(len)) break;

    auto frame = DataFrame::decode(util::ByteSpan(rx_raw_.data() + off + 4, len));
    off += 4 + static_cast<std::size_t>(len);
    if (!frame.ok()) {
      NAPLET_LOG(kWarn, "session") << "conn " << conn_id_ << ": bad frame: "
                                   << frame.status().to_string();
      continue;
    }
    if (frame->seq <= rx_high_) {
      NAPLET_LOG(kDebug, "session")
          << "conn " << conn_id_ << ": duplicate frame seq " << frame->seq;
      continue;  // exactly-once: drop duplicates
    }
    rx_high_ = frame->seq;
    buffer_.push_back(BufferedFrame{frame->seq, std::move(frame->body)});
  }
  if (off > 0) {
    rx_raw_.erase(rx_raw_.begin(), rx_raw_.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

util::StatusOr<bool> Session::pump_socket(std::int64_t deadline_us) {
  auto s = stream();
  if (s == nullptr) return util::Unavailable("no data socket");

  const std::int64_t budget_us =
      std::min<std::int64_t>(kPumpSlice.count(),
                             std::max<std::int64_t>(1, deadline_us - now_us()));
  std::uint8_t chunk[16384];
  auto n = s->read_some_for(chunk, sizeof chunk, util::us(budget_us));
  counters_.stream_read_ops.fetch_add(1, std::memory_order_relaxed);
  if (!n.ok()) {
    if (n.status().code() == util::StatusCode::kTimeout) return false;
    return n.status();
  }
  if (*n == 0) return util::Unavailable("data socket closed by peer");

  bool progressed;
  {
    util::MutexLock lock(buf_mu_);
    const std::size_t frames_before = buffer_.size();
    rx_raw_.insert(rx_raw_.end(), chunk, chunk + *n);
    parse_raw_locked();
    const std::size_t added = buffer_.size() - frames_before;
    if (added > 1) {
      counters_.frames_coalesced.fetch_add(added - 1,
                                           std::memory_order_relaxed);
    }
    progressed = added > 0;
    bump_rx_epoch_locked();
  }
  // Socket bytes landed (even a partial frame is progress for a peer
  // blocked on backpressure): wake anyone waiting event-driven.
  rx_cv_.notify_all();
  return progressed;
}

util::StatusOr<RecvResult> Session::recv(util::Duration timeout) {
  const std::int64_t deadline = now_us() + timeout.count();
  for (;;) {
    std::uint64_t observed_epoch;
    {
      util::MutexLock lock(buf_mu_);
      observed_epoch = rx_epoch_;
      if (sealed_) {
        return util::Unavailable("connection " + std::to_string(conn_id_) +
                                 " has migrated; reacquire the session");
      }
      if (!buffer_.empty()) {
        BufferedFrame frame = std::move(buffer_.front());
        buffer_.pop_front();
        delivered_ = frame.seq;
        RecvResult result;
        result.body = std::move(frame.body);
        result.seq = frame.seq;
        result.from_buffer = replay_low_ != 0 && frame.seq <= replay_low_;
        return result;
      }
    }

    const ConnState st = state();
    if (is_dead(st)) {
      // A graceful close drains the closer's in-flight frames into the
      // buffer before tearing the stream down (handle_cls), but the state
      // goes dead the moment CLS is processed — before that drain runs.
      // While the stream is still attached the teardown is in progress:
      // wait for the drain (epoch bump) or the detach (close_stream also
      // bumps) instead of aborting, or the peer's final frames are lost
      // to the control/data channel race.
      if (stream() == nullptr || now_us() >= deadline) {
        return util::Aborted("connection " + std::to_string(conn_id_) +
                             " is closed");
      }
      wait_rx_event(observed_epoch, deadline, kStateWaitSlice);
      continue;
    }
    if (now_us() >= deadline) return util::Timeout("recv timed out");

    if (!can_transfer(st)) {
      wait_state([](ConnState s) { return can_transfer(s) || is_dead(s); },
                 kStateWaitSlice);
      continue;
    }

    bool socket_ok;
    {
      util::MutexLock rl(read_mu_);
      auto pumped = pump_socket(deadline);
      socket_ok = pumped.ok();
      // Socket gone: either a racing suspension (the state will change
      // shortly) or an uncoordinated link failure (flagged for the
      // fault-tolerance extension's repair loop; without it we keep
      // waiting until the deadline, as in the paper).
      if (!socket_ok && can_transfer(state())) broken_.store(true);
    }
    if (!socket_ok) {
      // Event-driven wait (read_mu_ released so repairs can drain): wake
      // on attach_stream / close_stream / frame arrival. The epoch
      // snapshot from the top of the iteration makes any event since then
      // (e.g. a repair re-attaching the stream) return immediately
      // instead of sleeping out the slice.
      wait_rx_event(observed_epoch, deadline, kStateWaitSlice);
    }
  }
}

void Session::wait_rx_event(std::uint64_t observed_epoch,
                            std::int64_t deadline_us,
                            util::Duration max_slice) {
  util::MutexLock lock(buf_mu_);
  if (!buffer_.empty()) return;
  if (rx_epoch_ != observed_epoch) {
    // An rx event landed between the caller's snapshot and this wait —
    // the wakeup is delivered, not lost (and not slept through).
    counters_.recv_wakeups.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::int64_t wait_us = std::min<std::int64_t>(
      max_slice.count(), std::max<std::int64_t>(1, deadline_us - now_us()));
  if (rx_cv_.wait_for(buf_mu_, util::us(wait_us)) ==
      std::cv_status::no_timeout) {
    counters_.recv_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

util::Status Session::drain_to_mark(std::uint64_t peer_mark,
                                    util::Duration timeout) {
  const std::int64_t deadline = now_us() + timeout.count();
  util::MutexLock rl(read_mu_);
  for (;;) {
    {
      util::MutexLock lock(buf_mu_);
      if (rx_high_ >= peer_mark) {
        // Everything in transmission is now buffered; mark the replay
        // boundary so Fig.7-style traces can distinguish buffered frames.
        replay_low_ = rx_high_;
        return util::OkStatus();
      }
    }
    if (now_us() >= deadline) {
      return util::ProtocolError(
          "drain incomplete: have seq " + std::to_string(highest_rx_seq()) +
          ", peer declared " + std::to_string(peer_mark));
    }
    auto pumped = pump_socket(deadline);
    if (!pumped.ok()) {
      // Socket closed under us while data is still missing — that would be
      // a reliability bug; report it loudly (tests assert on this).
      util::MutexLock lock(buf_mu_);
      if (rx_high_ >= peer_mark) continue;
      return util::ProtocolError("data socket lost before drain completed: " +
                                 pumped.status().to_string());
    }
  }
}

void Session::enable_history(std::size_t max_bytes) {
  util::MutexLock lock(write_mu_);
  history_enabled_ = true;
  history_limit_bytes_ = max_bytes;
}

bool Session::history_enabled() const {
  util::MutexLock lock(write_mu_);
  return history_enabled_;
}

util::StatusOr<std::vector<std::pair<std::uint64_t, util::Bytes>>>
Session::history_since(std::uint64_t after_seq) const {
  util::MutexLock lock(write_mu_);
  if (after_seq >= tx_seq_) return std::vector<std::pair<std::uint64_t, util::Bytes>>{};
  // The oldest retained frame must cover after_seq + 1.
  if (history_.empty() || history_.front().first > after_seq + 1) {
    return util::OutOfRange(
        "retransmission history no longer covers seq " +
        std::to_string(after_seq + 1) + " (oldest retained: " +
        std::to_string(history_.empty() ? 0 : history_.front().first) + ")");
  }
  std::vector<std::pair<std::uint64_t, util::Bytes>> out;
  for (const auto& [seq, body] : history_) {
    if (seq > after_seq) out.emplace_back(seq, body);
  }
  return out;
}

util::Status Session::retransmit_after(std::uint64_t after_seq) {
  auto frames = history_since(after_seq);
  if (!frames.ok()) return frames.status();
  if (frames->empty()) return util::OkStatus();
  auto s = stream();
  if (s == nullptr) return util::Unavailable("no data socket for replay");
  // Hold the io lock across the whole replay so a racing send retry
  // cannot interleave frames mid-stream.
  util::MutexLock io(write_io_mu_);
  for (auto& [seq, body] : *frames) {
    // Same vectored framing as send(): stack seq header, body straight out
    // of the history entry — no per-frame encode buffer.
    std::uint8_t seq_hdr[8];
    for (int i = 0; i < 8; ++i) {
      seq_hdr[i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
    }
    const util::ByteSpan parts[2] = {
        util::ByteSpan(seq_hdr, 8), util::ByteSpan(body.data(), body.size())};
    NAPLET_RETURN_IF_ERROR(net::write_frame_vectored(
        *s, std::span<const util::ByteSpan>(parts, 2)));
    counters_.stream_write_ops.fetch_add(1, std::memory_order_relaxed);
    // history_since handed us copies of the retained bodies.
    counters_.payload_bytes_copied.fetch_add(body.size(),
                                             std::memory_order_relaxed);
  }
  NAPLET_LOG(kInfo, "session") << "conn " << conn_id_ << ": retransmitted "
                               << frames->size() << " frames after seq "
                               << after_seq;
  return util::OkStatus();
}

DataPathStats Session::data_stats() const {
  DataPathStats out;
  out.payload_bytes_copied =
      counters_.payload_bytes_copied.load(std::memory_order_relaxed);
  out.stream_write_ops =
      counters_.stream_write_ops.load(std::memory_order_relaxed);
  out.stream_read_ops =
      counters_.stream_read_ops.load(std::memory_order_relaxed);
  out.recv_wakeups = counters_.recv_wakeups.load(std::memory_order_relaxed);
  out.frames_coalesced =
      counters_.frames_coalesced.load(std::memory_order_relaxed);
  return out;
}

bool Session::is_broken() const { return broken_.load(); }

bool Session::admit_peer_epoch(std::uint64_t epoch) {
  if (epoch == 0) return true;  // unfenced sender
  std::uint64_t seen = peer_epoch_.load(std::memory_order_relaxed);
  while (epoch > seen) {
    if (peer_epoch_.compare_exchange_weak(seen, epoch,
                                          std::memory_order_relaxed)) {
      return true;
    }
  }
  return epoch >= seen;
}

void Session::abort_local() {
  close_stream();
  // NOT buffer_.clear() (contrast mark_moved): the session is dead but
  // frames already pulled off the wire were genuinely delivered to us;
  // recv() serves the buffer before checking liveness.
  {
    util::MutexLock lock(buf_mu_);
    bump_rx_epoch_locked();
  }
  cell_.update([](Cell& c) { c.state = ConnState::kClosed; });
  rx_cv_.notify_all();
}

void Session::seal_buffer_for_export() {
  util::MutexLock lock(buf_mu_);
  sealed_ = true;
  bump_rx_epoch_locked();
}

void Session::mark_moved() {
  close_stream();
  {
    util::MutexLock lock(buf_mu_);
    buffer_.clear();
    rx_raw_.clear();
    bump_rx_epoch_locked();
  }
  // Internal teardown, not a protocol transition: stale holders see the
  // connection as closed and their blocked operations abort.
  cell_.update([](Cell& c) { c.state = ConnState::kClosed; });
  rx_cv_.notify_all();
}

void Session::pump_available(util::Duration budget) {
  const std::int64_t deadline = now_us() + budget.count();
  std::uint64_t observed_epoch;
  {
    util::MutexLock lock(buf_mu_);
    observed_epoch = rx_epoch_;
  }
  util::UniqueMutexLock rl(read_mu_, std::try_to_lock);
  if (!rl.owns_lock()) {
    // Another reader (app recv or a drain) is already pumping. Wait
    // event-driven on its progress instead of sleeping the whole budget:
    // the caller (suspend/close initiator) returns to its control-response
    // queue as soon as anything moves.
    wait_rx_event(observed_epoch, deadline, budget);
    return;
  }
  (void)pump_socket(deadline);
}

namespace {

// The blob's identity header: what the Session constructor takes.
void persist_identity(util::Archive& ar, std::uint64_t& conn_id,
                      std::uint64_t& verifier, bool& is_client,
                      agent::AgentId& local, agent::AgentId& peer) {
  ar.field(conn_id);
  ar.field(verifier);
  ar.field(is_client);
  ar.field(local);
  ar.field(peer);
}

}  // namespace

void Session::persist_state(util::Archive& ar) {
  ar.field(session_key_);
  {
    util::MutexLock lock(node_mu_);
    ar.nested(peer_node_);
  }
  {
    util::MutexLock lock(write_mu_);
    ar.field(tx_seq_);
  }
  {
    util::MutexLock lock(buf_mu_);
    ar.field(rx_high_);
    ar.field(delivered_);
    ar.field(replay_low_);
    ar.field(buffer_);
    ar.field(rx_raw_);
  }
  {
    // The blob keeps a "suspend parked" byte after remote_suspended; it
    // is the state SUSPEND_WAIT. A reading archive discards it: an import
    // lands SUSPENDED.
    const Cell cell = cell_.get();
    Flags f = cell.flags;
    bool parked = cell.state == ConnState::kSuspendWait;
    ar.field(f.remote_suspended);
    ar.field(parked);
    ar.field(f.peer_parked);
    ar.field(f.peer_waiting_resume);
    ar.field(f.peer_declared_seq);
    if (ar.is_reading()) update_flags([&f](Flags& g) { g = f; });
  }
  {
    // Retransmission history rides along: after a crash-restart the
    // recovered side must still be able to replay frames the peer never
    // received (the in-flight reverse traffic at crash time), or the
    // exactly-once ledger loses them.
    util::MutexLock lock(write_mu_);
    ar.field(history_enabled_);
    auto limit = static_cast<std::uint64_t>(history_limit_bytes_);
    ar.field(limit);
    ar.field(history_);
    if (ar.is_reading()) {
      history_limit_bytes_ = static_cast<std::size_t>(limit);
      for (const auto& entry : history_) history_bytes_ += entry.second.size();
    }
  }
  std::uint64_t peer_epoch = peer_epoch_.load(std::memory_order_relaxed);
  std::uint64_t trace_id = trace_id_.load(std::memory_order_relaxed);
  ar.field(peer_epoch);
  ar.field(trace_id);
  if (ar.is_reading()) {
    peer_epoch_.store(peer_epoch, std::memory_order_relaxed);
    trace_id_.store(trace_id, std::memory_order_relaxed);
  }
}

util::Bytes Session::export_state() const {
  util::Archive ar;
  std::uint64_t conn_id = conn_id_;
  std::uint64_t verifier = verifier_;
  bool is_client = is_client_;
  agent::AgentId local = local_agent_;
  agent::AgentId peer = peer_agent_;
  persist_identity(ar, conn_id, verifier, is_client, local, peer);
  const_cast<Session*>(this)->persist_state(ar);  // writing: reads only
  return std::move(ar).take_bytes();
}

// The tail below touches the fresh, not-yet-shared session's buffer
// without its lock; no other thread can see it yet.
util::StatusOr<SessionPtr> Session::import_state(util::ByteSpan data)
    NAPLET_NO_THREAD_SAFETY_ANALYSIS {
  util::Archive ar(data);
  std::uint64_t conn_id = 0;
  std::uint64_t verifier = 0;
  bool is_client = false;
  agent::AgentId local;
  agent::AgentId peer;
  persist_identity(ar, conn_id, verifier, is_client, local, peer);
  if (!ar.ok()) return ar.status();
  auto session = std::make_shared<Session>(conn_id, verifier, is_client,
                                           std::move(local), std::move(peer));
  session->persist_state(ar);
  NAPLET_RETURN_IF_ERROR(ar.finish());

  // A migrated session lands suspended; the buffered frames are replays.
  session->cell_.update([](Cell& c) { c.state = ConnState::kSuspended; });
  if (!session->buffer_.empty()) {
    session->replay_low_ =
        std::max(session->replay_low_, session->buffer_.back().seq);
    if (fault::armed() && fault::hit("session.resume.replay").action ==
                              fault::Action::kDuplicate) {
      // Deliberate exactly-once regression (chaos-oracle bait): replay the
      // last buffered frame twice. Buffered frames bypass the rx_high_
      // dedup — they were already accepted once — so this duplicate WILL
      // reach the application, and the delivery ledger must catch it.
      session->buffer_.push_back(session->buffer_.back());
    }
  }
  return session;
}

}  // namespace naplet::nsock
