#include "net/rudp.hpp"

#include <algorithm>
#include <bit>
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
constexpr std::size_t kFecGroupCap = 256;
constexpr int kMaxFecGroup = 64;  // receiver membership mask is a u64

// Idle poll slice for waits that are also woken by notify: bounds the cost
// of a (theoretical) lost wakeup without busy-waiting.
constexpr auto kPollSlice = std::chrono::milliseconds(200);

RudpConfig sanitize(RudpConfig config) {
  config.max_attempts = std::max(config.max_attempts, 1);
  config.window_packets = std::max(config.window_packets, 1);
  config.window_bytes = std::max<std::size_t>(config.window_bytes, 1);
  config.fec_group = std::clamp(config.fec_group, 1, kMaxFecGroup);
  config.fast_retx_dupacks = std::max(config.fast_retx_dupacks, 0);
  if (config.min_rto.count() < 0) config.min_rto = util::Duration{0};
  if (config.fec_flush.count() <= 0) {
    config.fec_flush = std::chrono::milliseconds(1);
  }
  return config;
}

/// XOR (u32 len | payload), zero-padded, into `acc` (grown as needed) —
/// the FEC block combiner used identically by sender and receiver.
void xor_block(util::Bytes& acc, util::ByteSpan payload) {
  util::BytesWriter w(payload.size() + 4);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  const util::Bytes block = std::move(w).take();
  if (acc.size() < block.size()) acc.resize(block.size(), 0);
  for (std::size_t i = 0; i < block.size(); ++i) acc[i] ^= block[i];
}

}  // namespace

ReliableChannel::ReliableChannel(DatagramPtr socket, RudpConfig config)
    : socket_(std::move(socket)),
      config_(sanitize(config)),
      flow_id_(static_cast<std::uint64_t>(
                   steady_clock::now().time_since_epoch().count()) ^
               (reinterpret_cast<std::uintptr_t>(this) * 0x9E3779B97F4A7C15ULL)),
      jitter_rng_(config.jitter_seed != 0
                      ? config.jitter_seed
                      : static_cast<std::uint64_t>(
                            steady_clock::now().time_since_epoch().count()) ^
                            reinterpret_cast<std::uintptr_t>(this)),
      timer_([this] { timer_loop(); }),
      receiver_([this] { receive_loop(); }) {}

ReliableChannel::~ReliableChannel() {
  close();
  if (receiver_.joinable()) receiver_.join();
  if (timer_.joinable()) timer_.join();
}

void ReliableChannel::close() {
  if (closed_.exchange(true)) return;
  inbox_.close();
  socket_->close();
  // Take and drop mu_ so the flag is ordered before the wakeups: a waiter
  // that checked closed_ just before the store re-checks after its wait.
  { util::MutexLock lock(mu_); }
  acked_cv_.notify_all();
  window_cv_.notify_all();
  timer_cv_.notify_all();
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

void ReliableChannel::release_slot(TxPeer& peer, TxPacket& packet) {
  if (packet.slot_released) return;
  packet.slot_released = true;
  peer.unacked_packets--;
  peer.unacked_bytes -= packet.payload_size;
  total_inflight_.fetch_sub(1, std::memory_order_relaxed);
  update_window_gauge();
  window_cv_.notify_all();
}

void ReliableChannel::update_window_gauge() {
  if (obs::Gauge* g = window_gauge_.load(std::memory_order_acquire)) {
    g->set(total_inflight_.load(std::memory_order_relaxed));
  }
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
    base = std::clamp(rto, static_cast<double>(config_.min_rto.count()), cap);
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

util::Bytes ReliableChannel::flush_fec(TxPeer& peer) {
  wire::Packet parity;
  parity.type = wire::PacketType::kParity;
  parity.seq = peer.fec_base;
  parity.flow_id = flow_id_;
  parity.flow_start = peer.flow_start;
  parity.fec_base = peer.fec_base;
  parity.fec_k = static_cast<std::uint8_t>(peer.fec_count);
  parity.payload = std::move(peer.fec_acc);
  peer.fec_acc.clear();
  peer.fec_count = 0;
  return wire::encode(parity);
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
        // corruption to a loss, which retransmit/FEC already repair.
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

util::Status ReliableChannel::send(const Endpoint& dest,
                                   util::ByteSpan payload,
                                   util::Duration max_wait) {
  if (closed_.load()) return util::Cancelled("channel closed");
  const auto t_start = steady_clock::now();
  const bool bounded = max_wait.count() > 0;
  const auto hard_deadline = t_start + max_wait;

  std::uint64_t seq = 0;
  {
    util::MutexLock lock(mu_);
    TxPeer& peer = peer_for(dest);

    // Window admission: block while the per-destination window is full.
    // A payload larger than window_bytes is still admitted alone.
    while (!closed_.load() &&
           (peer.unacked_packets >= config_.window_packets ||
            (peer.unacked_packets > 0 &&
             peer.unacked_bytes + payload.size() > config_.window_bytes))) {
      if (bounded && steady_clock::now() >= hard_deadline) {
        return util::Timeout("send window to " + dest.to_string() +
                             " full within caller budget");
      }
      const auto wait_until =
          bounded ? std::min(hard_deadline, steady_clock::now() + kPollSlice)
                  : steady_clock::now() + kPollSlice;
      (void)window_cv_.wait_until(mu_, wait_until);
    }
    if (closed_.load()) return util::Cancelled("channel closed");

    seq = peer.next_seq++;
    wire::Packet data;
    data.type = wire::PacketType::kData;
    data.seq = seq;
    data.flow_id = flow_id_;
    data.flow_start = peer.flow_start;
    data.payload.assign(payload.begin(), payload.end());

    util::Bytes parity_wire;
    if (config_.repair == LossRepair::kXorFec) {
      if (peer.fec_count == 0) {
        peer.fec_base = seq;
        peer.fec_acc.clear();
        peer.fec_opened = steady_clock::now();
      }
      data.flags |= wire::kFlagFecMember;
      data.fec_base = peer.fec_base;
      xor_block(peer.fec_acc, payload);
      peer.fec_count++;
      if (peer.fec_count >= config_.fec_group) {
        parity_wire = flush_fec(peer);
      }
    }

    TxPacket packet;
    packet.wire = wire::encode(data);
    packet.payload_size = payload.size();
    packet.first_send = steady_clock::now();
    packet.sends = 1;
    TxPacket& sent =
        peer.inflight.emplace(seq, std::move(packet)).first->second;
    const util::Bytes& frame = sent.wire;
    peer.unacked_packets++;
    peer.unacked_bytes += payload.size();
    total_inflight_.fetch_add(1, std::memory_order_relaxed);
    update_window_gauge();

    // First transmission happens under mu_ so the fault-site hit order
    // matches sequence order (chaos plans and the fast-retransmit tests
    // rely on "#n" addressing the n-th packet).
    if (!send_with_fault("rudp.send", dest, frame)) {
      TxPeer& p2 = peer_for(dest);
      auto it = p2.inflight.find(seq);
      release_slot(p2, it->second);
      p2.inflight.erase(it);
      return util::Unavailable("fault: rudp send errored");
    }
    // The retransmit clock starts once the frame is handed off. Stamped
    // before the send, a preemption in between would pull the first
    // retransmit closer to the original.
    sent.deadline = steady_clock::now() + interval_for(peer, 0);
    if (config_.repair == LossRepair::kPacketDup) {
      send_frame(dest, frame);  // immediate duplicate: 1-loss repair
    }
    if (!parity_wire.empty()) {
      (void)send_with_fault("rudp.fec", dest, parity_wire);
    }
  }
  timer_cv_.notify_all();  // the timer owns this packet's deadline now

  // Wait for the ACK (or failure, close, caller budget).
  util::MutexLock lock(mu_);
  TxPeer& peer = peer_for(dest);
  for (;;) {
    auto it = peer.inflight.find(seq);
    if (it == peer.inflight.end()) {
      // Unreachable: only this call erases its packet. Fail safe.
      return util::Cancelled("send state lost");
    }
    TxPacket& packet = it->second;
    // Success is checked before closure: if the ACK already arrived, the
    // message was delivered and the send must report OK even when the
    // channel is concurrently closing (a handler's blocking reply racing
    // bus teardown used to flake here).
    if (packet.acked) {
      const int sends = packet.sends;
      peer.inflight.erase(it);
      messages_sent_.fetch_add(1);
      // Histogram::record is lock-free, so recording under mu_ is safe.
      if (obs::Histogram* h = rtt_us_.load(std::memory_order_acquire)) {
        h->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                steady_clock::now() - t_start)
                .count()));
      }
      if (obs::Histogram* h =
              retransmits_per_send_.load(std::memory_order_acquire)) {
        h->record(static_cast<std::uint64_t>(sends - 1));
      }
      return util::OkStatus();
    }
    if (packet.failed) {
      util::Status status = packet.fail_status;
      release_slot(peer, packet);
      peer.inflight.erase(it);
      return status;
    }
    if (closed_.load()) {
      release_slot(peer, packet);
      peer.inflight.erase(it);
      return util::Cancelled("channel closed");
    }
    if (bounded && steady_clock::now() >= hard_deadline) {
      // Caller budget exhausted: abandon the retransmit schedule.
      release_slot(peer, packet);
      peer.inflight.erase(it);
      return util::Timeout("no ACK from " + dest.to_string() +
                           " within caller budget");
    }
    const auto wait_until =
        bounded ? std::min(hard_deadline, steady_clock::now() + kPollSlice)
                : steady_clock::now() + kPollSlice;
    (void)acked_cv_.wait_until(mu_, wait_until);
  }
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

    bool progressed = false;
    const auto now = steady_clock::now();
    for (auto& [seq, packet] : peer.inflight) {
      if (packet.acked || packet.failed) continue;
      if (wire::seq_le(seq, cum) || sacked(seq)) {
        packet.acked = true;
        progressed = true;
        if (!packet.retransmitted) {  // Karn's rule
          rtt_sample(peer,
                     static_cast<double>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             now - packet.first_send)
                             .count()));
        }
        release_slot(peer, packet);
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
          retransmissions_.fetch_add(1);
          fast_retransmits_.fetch_add(1);
          if (obs::Counter* c =
                  fast_retx_counter_.load(std::memory_order_acquire)) {
            c->add(1);
          }
          fast.push_back(FastRetx{from, packet.wire});
        }
      }
    }
    if (progressed) acked_cv_.notify_all();
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
    std::uint64_t seq = 0;  // 0 span for parity frames
    util::Bytes wire;
    bool parity = false;
    util::Duration interval{};  // this retransmit's wait before the next
  };
  std::vector<Pending> out;
  std::optional<TimePoint> next;
  const auto fold = [&next](TimePoint t) {
    if (!next || t < *next) next = t;
  };
  {
    util::MutexLock lock(mu_);
    if (closed_.load()) return std::nullopt;
    const auto now = steady_clock::now();
    for (auto& [dest, peer] : tx_) {
      if (config_.repair == LossRepair::kXorFec && peer.fec_count > 0) {
        // Partial-group parity flush: a sparse sender (the control
        // plane's request/reply cadence) still gets every packet
        // covered, degrading to per-packet parity instead of leaving
        // the group open forever.
        const auto flush_at = peer.fec_opened + config_.fec_flush;
        if (flush_at <= now) {
          out.push_back(Pending{dest, 0, flush_fec(peer), true});
        } else {
          fold(flush_at);
        }
      }
      for (auto& [seq, packet] : peer.inflight) {
        if (packet.acked || packet.failed) continue;
        if (packet.deadline > now) {
          fold(packet.deadline);
          continue;
        }
        if (packet.sends >= config_.max_attempts) {
          packet.failed = true;
          packet.fail_status = util::Timeout(
              "no ACK from " + dest.to_string() + " after " +
              std::to_string(config_.max_attempts) + " attempts");
          release_slot(peer, packet);
          acked_cv_.notify_all();
          continue;
        }
        packet.sends++;
        packet.retransmitted = true;  // Karn: no RTT sample from now on
        const util::Duration interval = interval_for(peer, packet.sends - 1);
        packet.deadline = now + interval;
        fold(packet.deadline);
        retransmissions_.fetch_add(1);
        out.push_back(Pending{dest, seq, packet.wire, false, interval});
      }
    }
  }
  for (const Pending& p : out) {
    if (p.parity) {
      (void)send_with_fault("rudp.fec", p.dest, p.wire);
      continue;
    }
    const bool sent = send_with_fault("rudp.retransmit", p.dest, p.wire);
    const auto handed_off = steady_clock::now();
    util::MutexLock lock(mu_);
    auto peer_it = tx_.find(p.dest);
    if (peer_it == tx_.end()) continue;
    auto it = peer_it->second.inflight.find(p.seq);
    // Skip a packet the ACK settled while we were outside the lock.
    if (it == peer_it->second.inflight.end() || it->second.acked ||
        it->second.failed) {
      continue;
    }
    if (sent) {
      // Re-stamp from the hand-off, as for the first send: the deadline
      // above was taken before the lock was dropped, and a preemption
      // before the send would shrink the gap to the next retransmit.
      it->second.deadline =
          std::max(it->second.deadline, handed_off + p.interval);
      continue;
    }
    // Scripted kError: the send fails outright.
    it->second.failed = true;
    it->second.fail_status = util::Unavailable("fault: rudp send errored");
    release_slot(peer_it->second, it->second);
    acked_cv_.notify_all();
  }
  return next;
}

void ReliableChannel::timer_loop() {
  while (!closed_.load()) {
    const auto next = retx_pass();
    util::MutexLock lock(mu_);
    if (closed_.load()) break;
    // New deadlines fold into `next` inside the pass; the poll-slice cap
    // bounds the cost of a (theoretical) lost timer_cv_ wakeup.
    const auto cap = steady_clock::now() + kPollSlice;
    (void)timer_cv_.wait_until(mu_, next ? std::min(*next, cap) : cap);
  }
}

// ===========================================================================
// Receiver

std::optional<ReliableChannel::Message> ReliableChannel::recv(
    util::Duration timeout) {
  return inbox_.pop_for(timeout);
}

void ReliableChannel::receive_loop() {
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
    case wire::PacketType::kParity:
      handle_parity(from, std::move(*packet));
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

void ReliableChannel::drain_in_order(RxPeer& peer, const Endpoint& from) {
  for (;;) {
    auto it = peer.ooo.find(peer.cum + 1);
    if (it == peer.ooo.end()) break;
    inbox_.push(Message{from, std::move(it->second)});
    peer.ooo.erase(it);
    peer.cum++;
  }
  // Prune FEC groups entirely at or below the cumulative ack.
  for (auto it = peer.groups.begin(); it != peer.groups.end();) {
    const std::uint64_t span = it->second.k > 0 ? it->second.k : kMaxFecGroup;
    if (wire::seq_le(it->first + span - 1, peer.cum)) {
      it = peer.groups.erase(it);
    } else {
      ++it;
    }
  }
}

void ReliableChannel::try_reconstruct(RxPeer& peer, std::uint64_t base,
                                      const Endpoint& from) {
  (void)from;
  auto git = peer.groups.find(base);
  if (git == peer.groups.end()) return;
  FecGroup& group = git->second;
  if (!group.have_parity || group.k == 0 || group.k > kMaxFecGroup) return;
  const std::uint64_t full =
      group.k == 64 ? ~0ULL : ((1ULL << group.k) - 1);
  const std::uint64_t have = group.have_mask & full;
  if (std::popcount(have) != group.k - 1) return;
  const std::uint64_t missing_bit = ~have & full;
  const auto idx = static_cast<std::uint64_t>(std::countr_zero(missing_bit));
  const std::uint64_t missing_seq = base + idx;
  group.have_mask |= missing_bit;  // one reconstruction attempt per group
  if (wire::seq_le(missing_seq, peer.cum) || peer.ooo.contains(missing_seq)) {
    return;  // nothing actually missing (e.g. parity raced a retransmit)
  }
  // XOR of parity and the k-1 present members yields the missing member's
  // (u32 len | payload) block.
  util::Bytes blob = group.parity;
  if (blob.size() < group.acc.size()) blob.resize(group.acc.size(), 0);
  for (std::size_t i = 0; i < group.acc.size(); ++i) blob[i] ^= group.acc[i];
  util::BytesReader r(util::ByteSpan(blob.data(), blob.size()));
  auto len = r.u32();
  if (!len.ok() || *len > r.remaining()) return;  // malformed group
  auto payload = r.raw(*len);
  if (!payload.ok()) return;
  if (peer.ooo.size() >= kReorderCap) return;
  fec_repairs_.fetch_add(1);
  if (obs::Counter* c = fec_counter_.load(std::memory_order_acquire)) {
    c->add(1);
  }
  peer.ooo.emplace(missing_seq, std::move(*payload));
}

bool ReliableChannel::integrate_data(RxPeer& peer, std::uint64_t seq,
                                     const wire::Packet& packet,
                                     const Endpoint& from) {
  if (packet.fec_member()) {
    const std::uint64_t idx = seq - packet.fec_base;
    if (idx < kMaxFecGroup) {
      FecGroup* group = nullptr;
      auto git = peer.groups.find(packet.fec_base);
      if (git != peer.groups.end()) {
        group = &git->second;
      } else if (peer.groups.size() < kFecGroupCap) {
        group = &peer.groups[packet.fec_base];
      }
      // At the group cap the packet is still delivered normally; only the
      // FEC repair opportunity is lost. Never create a group mid-life
      // after pruning: a partial mask would "reconstruct" garbage.
      if (group != nullptr && (group->have_mask & (1ULL << idx)) == 0) {
        group->have_mask |= 1ULL << idx;
        xor_block(group->acc,
                  util::ByteSpan(packet.payload.data(),
                                 packet.payload.size()));
      }
    }
  }
  peer.ooo.emplace(seq, packet.payload);
  if (packet.fec_member()) try_reconstruct(peer, packet.fec_base, from);
  drain_in_order(peer, from);
  return true;
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
    sack_blocks_.fetch_add(n_sacks);
    if (obs::Counter* c = sack_counter_.load(std::memory_order_acquire)) {
      c->add(n_sacks);
    }
    // ACKs carrying SACK evidence get their own fault site: dropping or
    // corrupting them starves the fast-retransmit gap detector.
    (void)send_with_fault("rudp.sack", to, ack);
    return;
  }
  send_frame(to, ack);
}

void ReliableChannel::handle_data(const Endpoint& from, wire::Packet packet) {
  util::MutexLock lock(rx_mu_);
  RxPeer& peer = rx_peer_for(from, packet);
  const std::uint64_t seq = packet.seq;
  if (wire::seq_le(seq, peer.cum) || peer.ooo.contains(seq)) {
    // Retransmit of something already integrated: count the drop, but
    // still ACK below — the original ACK may have been lost.
    duplicates_dropped_.fetch_add(1);
  } else if (seq - (peer.cum + 1) > kMaxReorderSpan) {
    return;  // absurd gap: garbage, allocate nothing
  } else if (peer.ooo.size() >= kReorderCap) {
    return;  // reorder buffer full: drop; the sender retransmits
  } else {
    integrate_data(peer, seq, packet, from);
  }
  send_ack(from, peer);
}

void ReliableChannel::handle_parity(const Endpoint& from,
                                    wire::Packet packet) {
  if (packet.fec_k == 0 || packet.fec_k > kMaxFecGroup) return;
  util::MutexLock lock(rx_mu_);
  RxPeer& peer = rx_peer_for(from, packet);
  const std::uint64_t base = packet.fec_base;
  if (wire::seq_le(base + packet.fec_k - 1, peer.cum)) return;  // all done
  // Far-future guard: serial distance, since base may be at or below the
  // cumulative ack when earlier group members already landed.
  if (wire::seq_lt(peer.cum + 1, base) &&
      base - (peer.cum + 1) > kMaxReorderSpan) {
    return;
  }
  auto git = peer.groups.find(base);
  FecGroup* group = nullptr;
  if (git != peer.groups.end()) {
    group = &git->second;
  } else if (peer.groups.size() < kFecGroupCap) {
    group = &peer.groups[base];
  }
  if (group == nullptr) return;
  group->k = packet.fec_k;
  if (!group->have_parity) {
    group->have_parity = true;
    group->parity = std::move(packet.payload);
  }
  const std::uint64_t before = peer.cum;
  const std::uint64_t repairs_before = fec_repairs_.load();
  try_reconstruct(peer, base, from);
  drain_in_order(peer, from);
  if (peer.cum != before || fec_repairs_.load() != repairs_before) {
    // The repair produced progress: ACK immediately so the sender's
    // pending send() completes without any timer involvement.
    send_ack(from, peer);
  }
}

}  // namespace naplet::net
