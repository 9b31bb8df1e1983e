// Reliable delivery over UDP for the NapletSocket control channel
// (paper §3.5), rebuilt as a pipelined sliding-window transport:
//
//  - a windowed sender (window_packets / window_bytes) so concurrent
//    send() calls pipeline instead of serialising on one ACK round-trip;
//  - a cumulative-ACK + SACK-range receiver with an in-order reorder
//    buffer feeding recv();
//  - RTT estimation (SRTT/RTTVAR, Karn's rule) driving the retransmit
//    timer, with the capped exponential backoff as the slow path after
//    repeated loss of the same packet;
//  - fast retransmit on SACK gap evidence (a packet serially below a
//    SACKed/cumulatively-ACKed seq is retransmitted after
//    fast_retx_dupacks such ACKs, without waiting out its timer);
//  - a pluggable loss-repair stage: none, packet duplication, or XOR-FEC
//    parity over groups of fec_group packets so a single drop on a lossy
//    link is repaired from parity without any timer at all.
//
// The blocking send()/recv() surface, the non-blocking max_wait contract,
// duplicate suppression, and the close/abort wake guarantees are unchanged
// from the stop-and-wait version, so controller/bus/probe callers are
// untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>

#include "net/rudp_wire.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::net {

/// Loss-repair stage applied on top of retransmission.
enum class LossRepair : std::uint8_t {
  kNone = 0,    ///< retransmit timers / fast retransmit only
  kPacketDup,   ///< send every data packet twice back-to-back
  kXorFec,      ///< XOR parity over groups of fec_group packets
};

struct RudpConfig {
  /// Fixed retransmit interval when adaptive_rto is off, and the RTO used
  /// until the first RTT sample when it is on.
  util::Duration retransmit_interval{std::chrono::milliseconds(50)};
  int max_attempts = 20;  // total sends of one packet before giving up

  // Capped exponential backoff with seeded jitter: retransmission k of a
  // packet waits min(rto * backoff_multiplier^k, cap) scaled by a uniform
  // factor in [1 - retransmit_jitter, 1 + retransmit_jitter). The jitter
  // decorrelates concurrent sessions retrying through the same partition —
  // without it every channel that lost the same datagram retries on the
  // same schedule and the retry storm re-collides forever.
  double backoff_multiplier = 1.5;
  /// Backoff cap; zero means 4 * retransmit_interval.
  util::Duration max_retransmit_interval{0};
  double retransmit_jitter = 0.1;
  /// Seed for the jitter RNG; 0 derives a per-channel seed from the clock
  /// and channel address (tests pass an explicit seed for determinism).
  std::uint64_t jitter_seed = 0;

  // --- sliding window ---
  /// Max unacknowledged packets in flight per destination.
  int window_packets = 32;
  /// Max unacknowledged payload bytes in flight per destination. A single
  /// payload larger than this is still admitted when the window is empty.
  std::size_t window_bytes = 1 << 20;

  // --- RTT-adaptive retransmit timer ---
  /// When true, RTO = clamp(SRTT + 4*RTTVAR, min_rto, cap) once samples
  /// exist (Karn's rule: retransmitted packets never produce samples);
  /// backoff then multiplies from that RTO instead of the fixed interval.
  bool adaptive_rto = true;
  util::Duration min_rto{std::chrono::milliseconds(2)};

  /// SACK/cumulative-ACK evidence threshold for fast retransmit (each ACK
  /// covering a serially-later packet is one unit); 0 disables.
  int fast_retx_dupacks = 2;

  // --- loss repair ---
  LossRepair repair = LossRepair::kNone;
  /// XOR-FEC group size (clamped to [1, 64]). Parity goes out when the
  /// group fills or fec_flush after the group opened, so sparse senders
  /// degrade to per-packet parity rather than never covering the tail.
  int fec_group = 4;
  util::Duration fec_flush{std::chrono::milliseconds(1)};

  /// First sequence number of every flow (tests set values near 2^64 to
  /// exercise serial-arithmetic wraparound).
  std::uint64_t initial_seq = 1;
};

/// Instrument bundle the controller binds into its metrics registry. All
/// pointers are owned by the caller (which must outlive the channel); any
/// may be null, and recording is skipped while unbound so the unbound hot
/// path costs one relaxed load per pointer.
struct RudpInstruments {
  obs::Histogram* rtt_us = nullptr;                ///< per-send latency
  obs::Histogram* retransmits_per_send = nullptr;  ///< retx count per send
  obs::Gauge* window_inflight = nullptr;  ///< unacked packets, all peers
  obs::Counter* sack_blocks = nullptr;        ///< SACK ranges sent in ACKs
  obs::Counter* fast_retransmits = nullptr;   ///< gap-evidence retransmits
  obs::Counter* fec_repairs = nullptr;        ///< packets rebuilt from FEC
};

/// Blocking reliable-datagram channel. send() enters the per-destination
/// window (blocking while it is full) and returns once the packet is
/// cumulatively or selectively ACKed, attempts are exhausted (kTimeout),
/// or the channel closes (kCancelled). A background receiver thread ACKs,
/// de-duplicates, reorders, and queues inbound messages for recv(); a
/// background timer thread owns retransmissions and FEC parity flushes.
class ReliableChannel {
 public:
  explicit ReliableChannel(DatagramPtr socket, RudpConfig config = {});
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Send `payload` reliably; blocks until ACKed (Ok), attempts exhausted
  /// (kTimeout), or the channel is closed (kCancelled). A non-zero
  /// `max_wait` additionally caps the total blocking time — including time
  /// spent waiting for a window slot — and attempts still in the schedule
  /// when it expires are abandoned (kTimeout). Liveness probes use this so
  /// one dead peer cannot stall a probe round.
  util::Status send(const Endpoint& dest, util::ByteSpan payload,
                    util::Duration max_wait = {});

  struct Message {
    Endpoint from;
    util::Bytes payload;
  };
  /// Pop the next inbound message; nullopt on timeout or close. Messages
  /// from one peer are delivered in send order (the reorder buffer holds
  /// out-of-order arrivals until the gap fills).
  std::optional<Message> recv(util::Duration timeout);

  [[nodiscard]] Endpoint local_endpoint() const;

  void close();

  // Observability for tests/benches.
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_.load();
  }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_.load();
  }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return messages_sent_.load();
  }
  [[nodiscard]] std::uint64_t fast_retransmits() const {
    return fast_retransmits_.load();
  }
  [[nodiscard]] std::uint64_t fec_repairs() const {
    return fec_repairs_.load();
  }
  [[nodiscard]] std::uint64_t sack_blocks_sent() const {
    return sack_blocks_.load();
  }

  /// Bind the full instrument bundle (see RudpInstruments for ownership).
  void bind_instruments(const RudpInstruments& instruments) {
    rtt_us_.store(instruments.rtt_us, std::memory_order_release);
    retransmits_per_send_.store(instruments.retransmits_per_send,
                                std::memory_order_release);
    window_gauge_.store(instruments.window_inflight,
                        std::memory_order_release);
    sack_counter_.store(instruments.sack_blocks, std::memory_order_release);
    fast_retx_counter_.store(instruments.fast_retransmits,
                             std::memory_order_release);
    fec_counter_.store(instruments.fec_repairs, std::memory_order_release);
  }

  /// The jitterless backoff schedule (pure; exposed for tests): the wait
  /// after transmission `attempt` (0-based), exponential from the fixed
  /// retransmit_interval and capped. The live timer uses the same shape
  /// seeded from the adaptive RTO once RTT samples exist.
  [[nodiscard]] static util::Duration backoff_base(const RudpConfig& config,
                                                   int attempt);

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// One unacknowledged packet in the send window.
  struct TxPacket {
    util::Bytes wire;          // encoded frame, resent verbatim
    std::size_t payload_size = 0;
    TimePoint first_send{};
    TimePoint deadline{};      // next retransmit (timer thread)
    int sends = 0;             // transmissions so far (1 = original)
    int gap_evidence = 0;      // ACKs covering serially-later packets
    bool fast_retx_done = false;
    bool retransmitted = false;  // Karn: no RTT sample once true
    bool acked = false;
    bool failed = false;
    bool slot_released = false;  // window accounting done exactly once
    util::Status fail_status;
  };

  /// Per-destination sender state: its own sequence space, RTT estimator,
  /// and FEC accumulator.
  struct TxPeer {
    std::uint64_t next_seq = 0;
    std::uint64_t flow_start = 0;
    std::map<std::uint64_t, TxPacket> inflight;
    int unacked_packets = 0;
    std::size_t unacked_bytes = 0;
    bool have_rtt = false;
    double srtt_us = 0;
    double rttvar_us = 0;
    // Open FEC group: XOR of (u32 len | payload) blocks, zero-padded.
    int fec_count = 0;
    std::uint64_t fec_base = 0;
    util::Bytes fec_acc;
    TimePoint fec_opened{};
  };

  /// Per-source receiver state: cumulative ack, reorder buffer, FEC groups.
  struct FecGroup {
    std::uint8_t k = 0;
    std::uint64_t have_mask = 0;  // bit i: member fec_base+i integrated
    util::Bytes acc;              // XOR of integrated members
    bool have_parity = false;
    util::Bytes parity;
  };
  struct RxPeer {
    bool inited = false;
    std::uint64_t flow_id = 0;
    std::uint64_t cum = 0;  // every seq serially <= cum delivered
    std::map<std::uint64_t, util::Bytes> ooo;  // arrived out of order
    std::map<std::uint64_t, FecGroup> groups;  // keyed by fec_base
  };

  [[nodiscard]] util::Duration interval_for(TxPeer& peer, int attempt)
      NAPLET_REQUIRES(mu_);
  TxPeer& peer_for(const Endpoint& dest) NAPLET_REQUIRES(mu_);
  void release_slot(TxPeer& peer, TxPacket& packet) NAPLET_REQUIRES(mu_);
  void rtt_sample(TxPeer& peer, double sample_us) NAPLET_REQUIRES(mu_);
  /// Close the open FEC group and return the encoded parity frame.
  [[nodiscard]] util::Bytes flush_fec(TxPeer& peer) NAPLET_REQUIRES(mu_);

  void send_frame(const Endpoint& dest, const util::Bytes& wire);
  /// Consult `site` and transmit (possibly duplicated/corrupted/skipped).
  /// Returns false when the fault decision was kError.
  bool send_with_fault(const char* site, const Endpoint& dest,
                       const util::Bytes& wire);

  void receive_loop();
  void timer_loop();
  /// One retransmit/FEC-flush scan (the timer_loop body): collects due
  /// frames under mu_, transmits them unlocked, and returns the earliest
  /// next deadline — nullopt when nothing is in flight.
  std::optional<TimePoint> retx_pass();
  void handle_packet(const Endpoint& from, util::ByteSpan data);
  void handle_ack(const Endpoint& from, const wire::Packet& packet);
  void handle_data(const Endpoint& from, wire::Packet packet);
  void handle_parity(const Endpoint& from, wire::Packet packet);

  RxPeer& rx_peer_for(const Endpoint& from, const wire::Packet& packet)
      NAPLET_REQUIRES(rx_mu_);
  /// Integrate an in-window data payload, drain the reorder buffer to the
  /// inbox, and try FEC reconstruction. Returns true if state changed.
  bool integrate_data(RxPeer& peer, std::uint64_t seq,
                      const wire::Packet& packet, const Endpoint& from)
      NAPLET_REQUIRES(rx_mu_);
  void drain_in_order(RxPeer& peer, const Endpoint& from)
      NAPLET_REQUIRES(rx_mu_);
  void try_reconstruct(RxPeer& peer, std::uint64_t base, const Endpoint& from)
      NAPLET_REQUIRES(rx_mu_);
  /// Build the current cumulative+SACK ACK frame for `peer`.
  [[nodiscard]] util::Bytes build_ack(RxPeer& peer, std::size_t* n_sacks)
      NAPLET_REQUIRES(rx_mu_);
  void send_ack(const Endpoint& to, RxPeer& peer) NAPLET_REQUIRES(rx_mu_);

  void update_window_gauge();

  DatagramPtr socket_ NAPLET_NOT_GUARDED("set at construction; the "
                                         "datagram socket is internally "
                                         "synchronized");
  RudpConfig config_ NAPLET_NOT_GUARDED("set at construction, immutable");
  // Distinguishes channel incarnations per endpoint.
  const std::uint64_t flow_id_;

  util::Mutex mu_{util::LockRank::kRudpChannel, "rudp"};
  util::CondVar acked_cv_;   // a send completed (ACK / failure / close)
  util::CondVar window_cv_;  // a window slot freed
  util::CondVar timer_cv_;   // timer wake (new deadline / close)
  std::map<Endpoint, TxPeer> tx_ NAPLET_GUARDED_BY(mu_);
  util::Rng jitter_rng_ NAPLET_GUARDED_BY(mu_);

  util::Mutex rx_mu_{util::LockRank::kRudpRx, "rudp.rx"};
  std::map<Endpoint, RxPeer> rx_ NAPLET_GUARDED_BY(rx_mu_);

  util::BlockingQueue<Message> inbox_;

  std::atomic<bool> closed_{false};
  std::atomic<std::int64_t> total_inflight_{0};
  std::atomic<std::uint64_t> retransmissions_{0};
  std::atomic<std::uint64_t> duplicates_dropped_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> fast_retransmits_{0};
  std::atomic<std::uint64_t> fec_repairs_{0};
  std::atomic<std::uint64_t> sack_blocks_{0};

  std::atomic<obs::Histogram*> rtt_us_{nullptr};
  std::atomic<obs::Histogram*> retransmits_per_send_{nullptr};
  std::atomic<obs::Gauge*> window_gauge_{nullptr};
  std::atomic<obs::Counter*> sack_counter_{nullptr};
  std::atomic<obs::Counter*> fast_retx_counter_{nullptr};
  std::atomic<obs::Counter*> fec_counter_{nullptr};

  std::thread timer_;     // constructed after all state, joined in dtor
  std::thread receiver_;  // constructed last, joined in destructor
};

}  // namespace naplet::net
