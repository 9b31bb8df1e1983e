#include "net/rudp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "util/bytes.hpp"

namespace naplet::net {

namespace {

using std::chrono::steady_clock;

// Receiver-side memory bounds: the reorder buffer refuses packets once it
// holds this many out-of-order payloads (the sender retransmits), and any
// seq further than kMaxReorderSpan past the cumulative ack is treated as
// garbage rather than allocating state for it.
constexpr std::size_t kReorderCap = 4096;
constexpr std::uint64_t kMaxReorderSpan = 1 << 20;

// Max unacknowledged payload bytes in flight per destination. A single
// payload larger than this is still admitted when the window is empty.
constexpr std::size_t kWindowBytes = 1 << 20;
// Floor of the adaptive RTO, in util::Duration units (microseconds).
constexpr double kMinRtoUs = 2000;

// Idle poll slice for waits that are also woken by notify: bounds the cost
// of a (theoretical) lost wakeup without busy-waiting.
constexpr auto kPollSlice = std::chrono::milliseconds(200);

// The channel whose receiver thread this is (null on every other thread).
thread_local const ReliableChannel* tls_receiving = nullptr;

RudpConfig sanitize(RudpConfig config) {
  config.max_attempts = std::max(config.max_attempts, 1);
  config.window_packets = std::max(config.window_packets, 1);
  config.fast_retx_dupacks = std::max(config.fast_retx_dupacks, 0);
  return config;
}

}  // namespace

ReliableChannel::ReliableChannel(DatagramPtr socket, obs::Registry& registry,
                                 Deliver deliver, RudpConfig config)
    : socket_(std::move(socket)),
      config_(sanitize(config)),
      deliver_(std::move(deliver)),
      flow_id_(static_cast<std::uint64_t>(
                   steady_clock::now().time_since_epoch().count()) ^
               (reinterpret_cast<std::uintptr_t>(this) * 0x9E3779B97F4A7C15ULL)),
      jitter_rng_(config.jitter_seed != 0
                      ? config.jitter_seed
                      : static_cast<std::uint64_t>(
                            steady_clock::now().time_since_epoch().count()) ^
                            reinterpret_cast<std::uintptr_t>(this)),
      rtt_us_(registry.histogram("rudp_rtt_us")),
      retransmits_per_send_(
          registry.histogram("rudp_retransmits_per_send", "count")),
      window_inflight_(registry.gauge("rudp_window_inflight")),
      messages_sent_(registry.counter("rudp_messages_sent")),
      retransmissions_(registry.counter("rudp_retransmissions")),
      duplicates_dropped_(registry.counter("rudp_duplicates_dropped")),
      sack_blocks_(registry.counter("rudp_sack_blocks")),
      fast_retransmits_(registry.counter("rudp_fast_retransmits")),
      timer_([this] { timer_loop(); }),
      receiver_([this] { receive_loop(); }) {}

ReliableChannel::~ReliableChannel() {
  close();
  if (receiver_.joinable()) receiver_.join();
  if (timer_.joinable()) timer_.join();
}

void ReliableChannel::close() {
  if (closed_.exchange(true)) return;
  socket_->close();
  {
    // Settle every packet still in flight: a blocked send() wakes with
    // kCancelled, and posted packets free their window slots. Any transmit
    // that takes mu_ after this sees closed_ and adds nothing.
    util::MutexLock lock(mu_);
    for (auto& [dest, peer] : tx_) {
      for (auto it = peer.inflight.begin(); it != peer.inflight.end();) {
        it = settle(peer, it, util::Cancelled("channel closed"));
      }
    }
  }
  window_cv_.notify_all();
  timer_cv_.notify_all();
  // Callbacks point into the channel's owner, which may be torn down right
  // after close() returns: wait out one that is running, unless it is the
  // caller. The destructor joins whatever is skipped here.
  if (!on_receiver_thread() && receiver_.joinable()) receiver_.join();
  if (timer_.get_id() != std::this_thread::get_id() && timer_.joinable()) {
    timer_.join();
  }
}

Endpoint ReliableChannel::local_endpoint() const {
  return socket_->local_endpoint();
}

// ===========================================================================
// Sender

ReliableChannel::TxPeer& ReliableChannel::peer_for(const Endpoint& dest) {
  auto [it, inserted] = tx_.try_emplace(dest);
  if (inserted) {
    it->second.next_seq = config_.initial_seq;
    it->second.flow_start = config_.initial_seq;
  }
  return it->second;
}

ReliableChannel::TxMap::iterator ReliableChannel::settle(
    TxPeer& peer, TxMap::iterator it, util::Status status,
    Failures* failed) {
  TxPacket& packet = it->second;
  if (failed != nullptr && packet.on_failure) {
    failed->emplace_back(std::move(packet.on_failure), status);
  }
  peer.unacked_packets--;
  peer.unacked_bytes -= packet.payload_size;
  window_inflight_.add(-1);
  window_cv_.notify_all();
  if (status.ok()) {
    messages_sent_.add(1);
    // Histogram::record is lock-free, so recording under mu_ is safe.
    rtt_us_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steady_clock::now() - packet.start)
            .count()));
    retransmits_per_send_.record(
        static_cast<std::uint64_t>(packet.sends - 1));
  }
  if (packet.waiter != nullptr) {
    packet.waiter->status = std::move(status);
    packet.waiter->done = true;
    packet.waiter->cv.notify_one();
  }
  return peer.inflight.erase(it);
}

void ReliableChannel::rtt_sample(TxPeer& peer, double sample_us) {
  // RFC 6298 estimator; Karn's rule is enforced by the caller (no samples
  // from retransmitted packets, so an ACK for the original cannot be
  // confused with an ACK for the retransmission).
  if (!peer.have_rtt) {
    peer.have_rtt = true;
    peer.srtt_us = sample_us;
    peer.rttvar_us = sample_us / 2.0;
    return;
  }
  peer.rttvar_us =
      0.75 * peer.rttvar_us + 0.25 * std::abs(peer.srtt_us - sample_us);
  peer.srtt_us = 0.875 * peer.srtt_us + 0.125 * sample_us;
}

util::Duration ReliableChannel::backoff_base(const RudpConfig& config,
                                             int attempt) {
  const double base = static_cast<double>(config.retransmit_interval.count());
  const double cap =
      config.max_retransmit_interval.count() > 0
          ? static_cast<double>(config.max_retransmit_interval.count())
          : 4.0 * base;
  double interval = base;
  for (int i = 0; i < attempt && interval < cap; ++i) {
    interval *= config.backoff_multiplier;
  }
  return util::Duration(
      static_cast<std::int64_t>(std::min(interval, cap)));
}

util::Duration ReliableChannel::interval_for(TxPeer& peer, int attempt) {
  const double fixed = static_cast<double>(config_.retransmit_interval.count());
  const double cap =
      config_.max_retransmit_interval.count() > 0
          ? static_cast<double>(config_.max_retransmit_interval.count())
          : 4.0 * fixed;
  double base = fixed;
  if (config_.adaptive_rto && peer.have_rtt) {
    // RTO = SRTT + max(4*RTTVAR, 1ms granularity), clamped. Backoff then
    // multiplies from this measured base: the capped exponential schedule
    // is the slow path for repeated loss of the same packet, not the
    // first-retransmit latency.
    const double rto = peer.srtt_us + std::max(4.0 * peer.rttvar_us, 1000.0);
    base = std::clamp(rto, std::min(kMinRtoUs, cap), cap);
  }
  double interval = base;
  for (int i = 0; i < attempt && interval < cap; ++i) {
    interval *= config_.backoff_multiplier;
  }
  interval = std::min(interval, cap);
  const double jitter = config_.retransmit_jitter;
  if (jitter > 0.0) {
    interval *= jitter_rng_.uniform(1.0 - jitter, 1.0 + jitter);
  }
  return util::Duration(static_cast<std::int64_t>(interval));
}

void ReliableChannel::send_frame(const Endpoint& dest,
                                 const util::Bytes& wire) {
  // A send error on UDP (e.g. transient ENOBUFS) is treated as a lost
  // packet: retransmission handles it.
  (void)socket_->send_to(dest, wire);
}

bool ReliableChannel::send_with_fault(const char* site, const Endpoint& dest,
                                      const util::Bytes& wire) {
  if (fault::armed()) {
    const fault::Decision d = fault::hit(site);
    switch (d.action) {
      case fault::Action::kDrop:
      case fault::Action::kKill:
        return true;  // this frame is lost on the floor
      case fault::Action::kError:
        return false;
      case fault::Action::kCorrupt: {
        // Flip one bit mid-frame: the peer's CRC check downgrades the
        // corruption to a loss, which retransmission already repairs.
        util::Bytes flipped = wire;
        flipped[flipped.size() / 2] ^= 0x10;
        send_frame(dest, flipped);
        return true;
      }
      case fault::Action::kDuplicate:
        send_frame(dest, wire);
        break;  // and fall through to the normal send below
      default:
        break;
    }
  }
  send_frame(dest, wire);
  return true;
}

util::StatusOr<std::uint64_t> ReliableChannel::transmit(
    const Endpoint& dest, util::ByteSpan payload, SendWaiter* waiter,
    std::optional<TimePoint> admit_deadline, OnFailure on_failure) {
  if (closed_.load()) return util::Cancelled("channel closed");
  const auto t_start = steady_clock::now();
  bool wake_timer = false;
  std::uint64_t seq = 0;
  {
    util::MutexLock lock(mu_);
    TxPeer& peer = peer_for(dest);

    // Window admission: block while the per-destination window is full.
    // A payload larger than kWindowBytes is still admitted alone.
    while (!closed_.load() &&
           (peer.unacked_packets >= config_.window_packets ||
            (peer.unacked_packets > 0 &&
             peer.unacked_bytes + payload.size() > kWindowBytes))) {
      if (admit_deadline && steady_clock::now() >= *admit_deadline) {
        return util::Timeout("send window to " + dest.to_string() +
                             " full within caller budget");
      }
      const auto poll = steady_clock::now() + kPollSlice;
      (void)window_cv_.wait_until(
          mu_, admit_deadline ? std::min(*admit_deadline, poll) : poll);
    }
    if (closed_.load()) return util::Cancelled("channel closed");

    seq = peer.next_seq++;
    wire::Packet data;
    data.type = wire::PacketType::kData;
    data.seq = seq;
    data.flow_id = flow_id_;
    data.flow_start = peer.flow_start;
    data.payload.assign(payload.begin(), payload.end());

    TxPacket packet;
    packet.wire = wire::encode(data);
    packet.payload_size = payload.size();
    packet.start = t_start;
    packet.first_send = steady_clock::now();
    packet.sends = 1;
    packet.waiter = waiter;
    packet.on_failure = std::move(on_failure);
    auto it = peer.inflight.emplace(seq, std::move(packet)).first;
    peer.unacked_packets++;
    peer.unacked_bytes += payload.size();
    window_inflight_.add(1);

    // First transmission happens under mu_ so the fault-site hit order
    // matches sequence order (chaos plans and the fast-retransmit tests
    // rely on "#n" addressing the n-th packet).
    if (!send_with_fault("rudp.send", dest, it->second.wire)) {
      it->second.waiter = nullptr;  // the caller gets the status directly
      settle(peer, it, util::Unavailable("fault: rudp send errored"));
      return util::Unavailable("fault: rudp send errored");
    }
    // The retransmit clock starts once the frame is handed off. Stamped
    // before the send, a preemption in between would pull the first
    // retransmit closer to the original.
    const TimePoint deadline = steady_clock::now() + interval_for(peer, 0);
    it->second.deadline = deadline;
    if (!timer_wake_) {
      timer_kick_ = true;  // mid-pass: the timer re-scans before sleeping
    } else if (deadline < *timer_wake_) {
      timer_wake_ = deadline;  // later sends compare against this one
      wake_timer = true;
    }
  }
  if (wake_timer) timer_cv_.notify_one();
  return seq;
}

util::Status ReliableChannel::post(const Endpoint& dest,
                                   util::ByteSpan payload,
                                   OnFailure on_failure) {
  return transmit(dest, payload, nullptr, std::nullopt, std::move(on_failure))
      .status();
}

util::Status ReliableChannel::send(const Endpoint& dest,
                                   util::ByteSpan payload,
                                   util::Duration max_wait) {
  if (on_receiver_thread()) {
    // The ACK this would wait for can only be processed by this thread.
    return util::FailedPrecondition(
        "blocking rudp send on the channel's receiver thread");
  }
  const bool bounded = max_wait.count() > 0;
  const auto hard_deadline = steady_clock::now() + max_wait;
  SendWaiter waiter;
  const auto seq = transmit(
      dest, payload, &waiter,
      bounded ? std::optional<TimePoint>(hard_deadline) : std::nullopt);
  if (!seq.ok()) return seq.status();

  // Wait for this packet to settle: its ACK, its last retransmit, or
  // close(). Only the settler of THIS packet notifies waiter.cv.
  util::MutexLock lock(mu_);
  while (!waiter.done) {
    if (bounded && steady_clock::now() >= hard_deadline) {
      // Caller budget exhausted: abandon the retransmit schedule.
      TxPeer& peer = peer_for(dest);
      settle(peer, peer.inflight.find(*seq),
             util::Timeout("no ACK from " + dest.to_string() +
                           " within caller budget"));
      break;
    }
    const auto poll = steady_clock::now() + kPollSlice;
    (void)waiter.cv.wait_until(mu_,
                               bounded ? std::min(hard_deadline, poll) : poll);
  }
  return waiter.status;
}

void ReliableChannel::handle_ack(const Endpoint& from,
                                 const wire::Packet& ack) {
  struct FastRetx {
    Endpoint dest;
    util::Bytes wire;
  };
  std::vector<FastRetx> fast;
  {
    util::MutexLock lock(mu_);
    auto peer_it = tx_.find(from);
    if (peer_it == tx_.end()) return;
    TxPeer& peer = peer_it->second;
    const std::uint64_t cum = ack.seq;

    // The highest seq this ACK proves the receiver has seen: everything
    // unacked serially below it is gap evidence.
    std::uint64_t top = cum;
    for (const wire::SackRange& r : ack.sacks) {
      if (wire::seq_lt(top, r.last)) top = r.last;
    }
    const auto sacked = [&ack](std::uint64_t seq) {
      for (const wire::SackRange& r : ack.sacks) {
        if (wire::seq_le(r.first, seq) && wire::seq_le(seq, r.last)) {
          return true;
        }
      }
      return false;
    };

    const auto now = steady_clock::now();
    for (auto it = peer.inflight.begin(); it != peer.inflight.end();) {
      const std::uint64_t seq = it->first;
      TxPacket& packet = it->second;
      if (wire::seq_le(seq, cum) || sacked(seq)) {
        if (!packet.retransmitted) {  // Karn's rule
          rtt_sample(peer,
                     static_cast<double>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             now - packet.first_send)
                             .count()));
        }
        it = settle(peer, it, util::OkStatus());
        continue;
      }
      if (config_.fast_retx_dupacks > 0 && wire::seq_lt(seq, top) &&
          !packet.fast_retx_done) {
        if (++packet.gap_evidence >= config_.fast_retx_dupacks &&
            packet.sends < config_.max_attempts) {
          // Gap evidence says this packet is lost while later ones got
          // through: retransmit now, once, without waiting out the timer.
          packet.fast_retx_done = true;
          packet.retransmitted = true;
          packet.sends++;
          packet.deadline = now + interval_for(peer, packet.sends - 1);
          retransmissions_.add(1);
          fast_retransmits_.add(1);
          fast.push_back(FastRetx{from, packet.wire});
        }
      }
      ++it;
    }
  }
  for (const FastRetx& f : fast) {
    // kError makes no sense for an opportunistic retransmit; treat it as
    // a drop and let the timer be the backstop.
    (void)send_with_fault("rudp.fast_retx", f.dest, f.wire);
  }
}

std::optional<ReliableChannel::TimePoint> ReliableChannel::retx_pass() {
  struct Pending {
    Endpoint dest;
    std::uint64_t seq = 0;
    util::Bytes wire;
    util::Duration interval{};  // this retransmit's wait before the next
  };
  std::vector<Pending> out;
  Failures failed;  // told once mu_ is released
  std::optional<TimePoint> next;
  const auto fold = [&next](TimePoint t) {
    if (!next || t < *next) next = t;
  };
  {
    util::MutexLock lock(mu_);
    if (closed_.load()) return std::nullopt;
    timer_kick_ = false;  // this pass sees every deadline set so far
    const auto now = steady_clock::now();
    for (auto& [dest, peer] : tx_) {
      for (auto it = peer.inflight.begin(); it != peer.inflight.end();) {
        TxPacket& packet = it->second;
        if (packet.deadline > now) {
          fold(packet.deadline);
          ++it;
          continue;
        }
        if (packet.sends >= config_.max_attempts) {
          it = settle(peer, it,
                      util::Timeout("no ACK from " + dest.to_string() +
                                    " after " +
                                    std::to_string(config_.max_attempts) +
                                    " attempts"),
                      &failed);
          continue;
        }
        packet.sends++;
        packet.retransmitted = true;  // Karn: no RTT sample from now on
        const util::Duration interval = interval_for(peer, packet.sends - 1);
        packet.deadline = now + interval;
        fold(packet.deadline);
        retransmissions_.add(1);
        out.push_back(Pending{dest, it->first, packet.wire, interval});
        ++it;
      }
    }
  }
  for (const Pending& p : out) {
    const bool sent = send_with_fault("rudp.retransmit", p.dest, p.wire);
    const auto handed_off = steady_clock::now();
    util::MutexLock lock(mu_);
    auto peer_it = tx_.find(p.dest);
    if (peer_it == tx_.end()) continue;
    auto it = peer_it->second.inflight.find(p.seq);
    // Skip a packet the ACK settled while we were outside the lock.
    if (it == peer_it->second.inflight.end()) continue;
    if (sent) {
      // Re-stamp from the hand-off, as for the first send: the deadline
      // above was taken before the lock was dropped, and a preemption
      // before the send would shrink the gap to the next retransmit.
      it->second.deadline =
          std::max(it->second.deadline, handed_off + p.interval);
      continue;
    }
    // Scripted kError: the send fails outright.
    settle(peer_it->second, it, util::Unavailable("fault: rudp send errored"),
           &failed);
  }
  for (auto& [on_failure, status] : failed) on_failure(status);
  return next;
}

void ReliableChannel::timer_loop() {
  while (!closed_.load()) {
    const auto next = retx_pass();
    util::MutexLock lock(mu_);
    if (closed_.load()) break;
    if (timer_kick_) continue;  // a send stamped a deadline after the pass
    // Deadlines set during the pass fold into `next`; a later send with an
    // earlier deadline lowers timer_wake_ and notifies. The poll-slice cap
    // is a backstop for a missed wakeup.
    const auto cap = steady_clock::now() + kPollSlice;
    timer_wake_ = next ? std::min(*next, cap) : cap;
    (void)timer_cv_.wait_until(mu_, *timer_wake_);
    timer_wake_.reset();
  }
}

// ===========================================================================
// Receiver

bool ReliableChannel::on_receiver_thread() const {
  return tls_receiving == this;
}

void ReliableChannel::receive_loop() {
  tls_receiving = this;
  while (!closed_.load()) {
    auto packet = socket_->recv_for(std::chrono::milliseconds(200));
    if (!packet.ok()) {
      if (packet.status().code() == util::StatusCode::kTimeout) continue;
      break;  // socket closed or fatal error
    }
    handle_packet(packet->from, util::ByteSpan(packet->data.data(),
                                               packet->data.size()));
  }
}

void ReliableChannel::handle_packet(const Endpoint& from,
                                    util::ByteSpan data) {
  auto packet = wire::decode(data);
  if (!packet) return;  // foreign, truncated, or corrupt; drop
  switch (packet->type) {
    case wire::PacketType::kAck:
      handle_ack(from, *packet);
      return;
    case wire::PacketType::kData:
      handle_data(from, std::move(*packet));
      return;
  }
}

ReliableChannel::RxPeer& ReliableChannel::rx_peer_for(
    const Endpoint& from, const wire::Packet& packet) {
  RxPeer& peer = rx_[from];
  if (!peer.inited || peer.flow_id != packet.flow_id) {
    // New flow (first contact, or the peer restarted and reuses this
    // endpoint with a fresh sequence space): reset receiver state.
    peer = RxPeer{};
    peer.inited = true;
    peer.flow_id = packet.flow_id;
    peer.cum = packet.flow_start - 1;  // wraps cleanly at 2^64
  }
  return peer;
}

void ReliableChannel::drain_in_order(RxPeer& peer,
                                     std::vector<util::Bytes>& ready) {
  for (;;) {
    auto it = peer.ooo.find(peer.cum + 1);
    if (it == peer.ooo.end()) break;
    ready.push_back(std::move(it->second));
    peer.ooo.erase(it);
    peer.cum++;
  }
}

util::Bytes ReliableChannel::build_ack(RxPeer& peer, std::size_t* n_sacks) {
  wire::Packet ack;
  ack.type = wire::PacketType::kAck;
  ack.seq = peer.cum;
  ack.flow_id = peer.flow_id;
  std::vector<std::uint64_t> seqs;
  seqs.reserve(peer.ooo.size());
  for (const auto& [seq, payload] : peer.ooo) seqs.push_back(seq);
  ack.sacks = wire::build_sacks(std::move(seqs), peer.cum + 1);
  *n_sacks = ack.sacks.size();
  return wire::encode(ack);
}

void ReliableChannel::send_ack(const Endpoint& to, RxPeer& peer) {
  std::size_t n_sacks = 0;
  const util::Bytes ack = build_ack(peer, &n_sacks);
  if (n_sacks > 0) {
    sack_blocks_.add(n_sacks);
    // ACKs carrying SACK evidence get their own fault site: dropping or
    // corrupting them starves the fast-retransmit gap detector.
    (void)send_with_fault("rudp.sack", to, ack);
    return;
  }
  send_frame(to, ack);
}

void ReliableChannel::handle_data(const Endpoint& from, wire::Packet packet) {
  std::vector<util::Bytes> ready;  // payloads now in order, to deliver
  {
    util::MutexLock lock(rx_mu_);
    RxPeer& peer = rx_peer_for(from, packet);
    const std::uint64_t seq = packet.seq;
    if (wire::seq_le(seq, peer.cum) || peer.ooo.contains(seq)) {
      // Retransmit of something already integrated: count the drop, but
      // still ACK below — the original ACK may have been lost.
      duplicates_dropped_.add(1);
    } else if (seq - (peer.cum + 1) > kMaxReorderSpan) {
      return;  // absurd gap: garbage, allocate nothing
    } else if (peer.ooo.size() >= kReorderCap) {
      return;  // reorder buffer full: drop; the sender retransmits
    } else {
      peer.ooo.emplace(seq, std::move(packet.payload));
      drain_in_order(peer, ready);
    }
    send_ack(from, peer);
  }
  // Delivered with the ACK already out and rx_mu_ released: the callback
  // may run a whole bus handler on this thread.
  for (util::Bytes& payload : ready) {
    if (closed_.load() || !deliver_) return;
    deliver_(Message{from, std::move(payload)});
  }
}

}  // namespace naplet::net
