// Reliable delivery over UDP for the NapletSocket control channel
// (paper §3.5), rebuilt as a pipelined sliding-window transport:
//
//  - a windowed sender (window_packets, plus a 1 MiB byte cap) so concurrent
//    send() calls pipeline instead of serialising on one ACK round-trip;
//  - a cumulative-ACK + SACK-range receiver with an in-order reorder
//    buffer feeding the delivery callback;
//  - RTT estimation (SRTT/RTTVAR, Karn's rule) driving the retransmit
//    timer, with the capped exponential backoff as the slow path after
//    repeated loss of the same packet;
//  - fast retransmit on SACK gap evidence (a packet serially below a
//    SACKed/cumulatively-ACKed seq is retransmitted after
//    fast_retx_dupacks such ACKs, without waiting out its timer).
//
// Loss is repaired by retransmission alone, as in the paper: no forward
// error correction. (An XOR-parity stage was measured and deleted: it cut
// the suspend+resume p95 by under 1.5x even at 20% loss; EXPERIMENTS.md
// E14.)
//
// Inbound messages go to one delivery callback, called on the receiver
// thread once the message's ACK is out: the callback is the whole receive
// path, with no queue or second thread behind it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/rudp_wire.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::net {

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
  /// Max unacknowledged packets in flight per destination (the byte cap,
  /// kWindowBytes in rudp.cpp, is fixed).
  int window_packets = 32;

  // --- RTT-adaptive retransmit timer ---
  /// When true, RTO = clamp(SRTT + 4*RTTVAR, 2 ms, cap) once samples
  /// exist (Karn's rule: retransmitted packets never produce samples);
  /// backoff then multiplies from that RTO instead of the fixed interval.
  bool adaptive_rto = true;

  /// SACK/cumulative-ACK evidence threshold for fast retransmit (each ACK
  /// covering a serially-later packet is one unit); 0 disables.
  int fast_retx_dupacks = 2;

  /// First sequence number of every flow (tests set values near 2^64 to
  /// exercise serial-arithmetic wraparound).
  std::uint64_t initial_seq = 1;
};

/// Reliable-datagram channel. send() enters the per-destination window
/// (blocking while it is full) and returns once the packet is
/// cumulatively or selectively ACKed, attempts are exhausted (kTimeout),
/// or the channel closes (kCancelled); post() enters the window the same
/// way but returns once the first transmission is out. A background
/// receiver thread ACKs, de-duplicates and reorders inbound messages and
/// hands each to the delivery callback; a background timer thread owns
/// retransmissions.
///
/// Every counter, gauge and histogram lives in `registry` (the node's
/// registry, which must outlive the channel) under the `rudp_` prefix.
class ReliableChannel {
 public:
  struct Message {
    Endpoint from;
    util::Bytes payload;
  };
  /// Called on the receiver thread for every inbound message, once, in
  /// send order per peer, one at a time, after the message's ACK is out.
  /// While it runs the channel processes no other datagram, ACKs for this
  /// channel's own sends included, so it must never wait on an ACK: a
  /// blocking send() from it fails at once. An empty callback discards
  /// inbound messages (a send-only channel).
  using Deliver = std::function<void(Message)>;
  /// Told why a posted packet failed: its retransmits ran out (kTimeout)
  /// or a scripted fault errored a retransmit (kUnavailable). Runs on the
  /// timer thread with no channel lock held; never runs for a packet the
  /// channel's close() cancels.
  using OnFailure = std::function<void(const util::Status&)>;

  ReliableChannel(DatagramPtr socket, obs::Registry& registry,
                  Deliver deliver, RudpConfig config = {});
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Send `payload` reliably; blocks until ACKed (Ok), attempts exhausted
  /// (kTimeout), or the channel is closed (kCancelled). A non-zero
  /// `max_wait` additionally caps the total blocking time — including time
  /// spent waiting for a window slot — and attempts still in the schedule
  /// when it expires are abandoned (kTimeout). Liveness probes use this so
  /// one dead peer cannot stall a probe round. Called on the receiver
  /// thread (from the delivery callback) it returns kFailedPrecondition at
  /// once: the ACK it would wait for is processed by that thread.
  util::Status send(const Endpoint& dest, util::ByteSpan payload,
                    util::Duration max_wait = {});

  /// Send `payload` reliably without waiting for its ACK: returns Ok once
  /// the first transmission is out, kCancelled when the channel is closed,
  /// or kUnavailable when a scripted fault errors the send. Blocks only
  /// while the destination's window is full. The packet then retransmits
  /// like any other, and its ACK or its final retransmit failure erases
  /// it, recording the same per-send metrics a send() would; a failure
  /// after the first transmission is reported to `on_failure`, if given.
  util::Status post(const Endpoint& dest, util::ByteSpan payload,
                    OnFailure on_failure = {});

  [[nodiscard]] Endpoint local_endpoint() const;

  /// Stop the channel: settle every packet in flight with kCancelled, then
  /// wait for a delivery callback or failure callback that is running.
  /// Called from one of those callbacks, it skips waiting on its own
  /// thread. Idempotent.
  void close();

  // Observability for tests/benches: reads of the registry counters.
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_.value();
  }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_.value();
  }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return messages_sent_.value();
  }
  [[nodiscard]] std::uint64_t fast_retransmits() const {
    return fast_retransmits_.value();
  }
  [[nodiscard]] std::uint64_t sack_blocks_sent() const {
    return sack_blocks_.value();
  }

  /// The jitterless backoff schedule (pure; exposed for tests): the wait
  /// after transmission `attempt` (0-based), exponential from the fixed
  /// retransmit_interval and capped. The live timer uses the same shape
  /// seeded from the adaptive RTO once RTT samples exist.
  [[nodiscard]] static util::Duration backoff_base(const RudpConfig& config,
                                                   int attempt);

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// A blocked send(): whoever settles its packet stores the outcome here
  /// and wakes this sender alone.
  struct SendWaiter {
    util::CondVar cv;
    bool done = false;
    util::Status status;
  };

  /// One unacknowledged packet in the send window. Packets leave the map
  /// only through settle().
  struct TxPacket {
    util::Bytes wire;          // encoded frame, resent verbatim
    std::size_t payload_size = 0;
    TimePoint start{};         // send()/post() entry: rudp_rtt_us origin
    TimePoint first_send{};    // RTT estimator origin
    TimePoint deadline{};      // next retransmit (timer thread)
    int sends = 0;             // transmissions so far (1 = original)
    int gap_evidence = 0;      // ACKs covering serially-later packets
    bool fast_retx_done = false;
    bool retransmitted = false;  // Karn: no RTT sample once true
    SendWaiter* waiter = nullptr;  // the blocked send(); null for post()
    OnFailure on_failure;          // post() only
  };
  using TxMap = std::map<std::uint64_t, TxPacket>;

  /// Per-destination sender state: its own sequence space and RTT
  /// estimator.
  struct TxPeer {
    std::uint64_t next_seq = 0;
    std::uint64_t flow_start = 0;
    TxMap inflight;
    int unacked_packets = 0;
    std::size_t unacked_bytes = 0;
    bool have_rtt = false;
    double srtt_us = 0;
    double rttvar_us = 0;
  };

  /// Per-source receiver state: cumulative ack and reorder buffer.
  struct RxPeer {
    bool inited = false;
    std::uint64_t flow_id = 0;
    std::uint64_t cum = 0;  // every seq serially <= cum delivered
    std::map<std::uint64_t, util::Bytes> ooo;  // arrived out of order
  };

  [[nodiscard]] util::Duration interval_for(TxPeer& peer, int attempt)
      NAPLET_REQUIRES(mu_);
  TxPeer& peer_for(const Endpoint& dest) NAPLET_REQUIRES(mu_);
  /// Window admission, sequencing and first transmission: the one transmit
  /// path under send() and post(). Returns the seq now in flight.
  util::StatusOr<std::uint64_t> transmit(
      const Endpoint& dest, util::ByteSpan payload, SendWaiter* waiter,
      std::optional<TimePoint> admit_deadline, OnFailure on_failure = {});
  /// Posted packets' failure callbacks, each with its status, to run
  /// once mu_ is released.
  using Failures = std::vector<std::pair<OnFailure, util::Status>>;
  /// Take a packet out of the window: free its slot, record the per-send
  /// metrics when `status` is Ok, hand `status` to its waiter, erase it.
  /// With `failed`, a posted packet's failure callback moves there.
  TxMap::iterator settle(TxPeer& peer, TxMap::iterator it,
                         util::Status status, Failures* failed = nullptr)
      NAPLET_REQUIRES(mu_);
  void rtt_sample(TxPeer& peer, double sample_us) NAPLET_REQUIRES(mu_);

  void send_frame(const Endpoint& dest, const util::Bytes& wire);
  /// Consult `site` and transmit (possibly duplicated/corrupted/skipped).
  /// Returns false when the fault decision was kError.
  bool send_with_fault(const char* site, const Endpoint& dest,
                       const util::Bytes& wire);

  [[nodiscard]] bool on_receiver_thread() const;
  void receive_loop();
  void timer_loop();
  /// One retransmit scan (the timer_loop body): collects due
  /// frames under mu_, transmits them unlocked, and returns the earliest
  /// next deadline — nullopt when nothing is in flight.
  std::optional<TimePoint> retx_pass();
  void handle_packet(const Endpoint& from, util::ByteSpan data);
  void handle_ack(const Endpoint& from, const wire::Packet& packet);
  void handle_data(const Endpoint& from, wire::Packet packet);

  RxPeer& rx_peer_for(const Endpoint& from, const wire::Packet& packet)
      NAPLET_REQUIRES(rx_mu_);
  /// Move every payload now in order from the reorder buffer to `ready`.
  void drain_in_order(RxPeer& peer, std::vector<util::Bytes>& ready)
      NAPLET_REQUIRES(rx_mu_);
  /// Build the current cumulative+SACK ACK frame for `peer`.
  [[nodiscard]] util::Bytes build_ack(RxPeer& peer, std::size_t* n_sacks)
      NAPLET_REQUIRES(rx_mu_);
  void send_ack(const Endpoint& to, RxPeer& peer) NAPLET_REQUIRES(rx_mu_);

  DatagramPtr socket_ NAPLET_NOT_GUARDED("set at construction; the "
                                         "datagram socket is internally "
                                         "synchronized");
  RudpConfig config_ NAPLET_NOT_GUARDED("set at construction, immutable");
  Deliver deliver_ NAPLET_NOT_GUARDED("set at construction, immutable; "
                                      "called on the receiver thread only");
  // Distinguishes channel incarnations per endpoint.
  const std::uint64_t flow_id_;

  util::Mutex mu_{util::LockRank::kRudpChannel, "rudp"};
  util::CondVar window_cv_;  // a window slot freed
  util::CondVar timer_cv_;   // timer wake (earlier deadline / close)
  // A new deadline landed while the timer was running a pass; the timer
  // re-scans instead of sleeping when set.
  bool timer_kick_ NAPLET_GUARDED_BY(mu_) = false;
  // When the sleeping timer wakes next; nullopt while it runs a pass. A
  // send notifies timer_cv_ only for a deadline earlier than this.
  std::optional<TimePoint> timer_wake_ NAPLET_GUARDED_BY(mu_);
  std::map<Endpoint, TxPeer> tx_ NAPLET_GUARDED_BY(mu_);
  util::Rng jitter_rng_ NAPLET_GUARDED_BY(mu_);

  util::Mutex rx_mu_{util::LockRank::kRudpRx, "rudp.rx"};
  std::map<Endpoint, RxPeer> rx_ NAPLET_GUARDED_BY(rx_mu_);

  std::atomic<bool> closed_{false};

  // Instruments in the node registry (stable references, lock-free).
  obs::Histogram& rtt_us_;                // per-send latency
  obs::Histogram& retransmits_per_send_;  // retx count per send
  obs::Gauge& window_inflight_;           // unacked packets, all peers
  obs::Counter& messages_sent_;
  obs::Counter& retransmissions_;  // timer-driven and fast, together
  obs::Counter& duplicates_dropped_;
  obs::Counter& sack_blocks_;       // SACK ranges sent in ACKs
  obs::Counter& fast_retransmits_;  // the gap-evidence share of the above

  std::thread timer_;     // constructed after all state, joined in dtor
  std::thread receiver_;  // constructed last, joined in destructor
};

}  // namespace naplet::net
