// Per-connection session state: the data socket, the NapletInputStream
// replay buffer, sequence bookkeeping for exactly-once delivery, the FSM
// state cell with the concurrent-migration flags and the reply slot.
//
// Exactly-once design (paper §3.1):
//  * every data message is framed with a monotonically increasing u64 seq;
//  * suspend drains all in-flight frames into the input buffer using the
//    peer's declared high-water mark (carried on SUS/SUS_ACK), so nothing
//    in transmission is lost when the data socket closes;
//  * the buffer migrates with the agent; after resume, reads are served
//    from the buffer until exhausted, then from the new socket;
//  * frames with seq <= the highest already received are duplicates and
//    are dropped, so delivery is exactly-once even across resume races.
#pragma once

#include <atomic>
#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "agent/agent_id.hpp"
#include "agent/location.hpp"
#include "core/state.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "obs/recorder.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::nsock {

class Session;
using SessionPtr = std::shared_ptr<Session>;

/// Result of a receive, with provenance for observability (Fig. 7 traces
/// distinguish socket reads from buffer replays).
struct RecvResult {
  util::Bytes body;
  std::uint64_t seq = 0;
  bool from_buffer = false;
};

/// Snapshot of one session's data-path counters. All values are monotone.
/// They stay per-session plain counters rather than registry instruments:
/// the stream write path would otherwise pay a second atomic per write.
struct DataPathStats {
  /// Heap copies made of send()-path payload bytes. Zero in steady state:
  /// the vectored path frames straight from the caller's span. Non-zero
  /// only for the retransmission history (retention + replay copies).
  std::uint64_t payload_bytes_copied = 0;
  std::uint64_t stream_write_ops = 0;   // transport writes (syscalls on TCP)
  std::uint64_t stream_read_ops = 0;    // transport reads (syscalls on TCP)
  std::uint64_t recv_wakeups = 0;       // event-driven wakeups delivered to
                                        // blocked readers (vs. poll sleeps)
  std::uint64_t frames_coalesced = 0;   // frames parsed beyond the first
                                        // out of a single transport read
};

class Session {
 public:
  Session(std::uint64_t conn_id, std::uint64_t verifier, bool is_client,
          agent::AgentId local_agent, agent::AgentId peer_agent);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- identity ----
  [[nodiscard]] std::uint64_t conn_id() const noexcept { return conn_id_; }
  [[nodiscard]] std::uint64_t verifier() const noexcept { return verifier_; }
  [[nodiscard]] bool is_client() const noexcept { return is_client_; }
  [[nodiscard]] const agent::AgentId& local_agent() const noexcept {
    return local_agent_;
  }
  [[nodiscard]] const agent::AgentId& peer_agent() const noexcept {
    return peer_agent_;
  }

  /// True if the local agent outranks the peer for concurrent migration.
  [[nodiscard]] bool local_has_priority() const {
    return local_agent_.outranks(peer_agent_);
  }

  [[nodiscard]] agent::NodeInfo peer_node() const;
  void set_peer_node(const agent::NodeInfo& node);

  [[nodiscard]] const util::Bytes& session_key() const noexcept {
    return session_key_;
  }
  void set_session_key(util::Bytes key) { session_key_ = std::move(key); }

  // ---- FSM ----
  //
  // One cell holds the session's coordination state: the FSM state, the
  // concurrent-migration flags and the reply slot. Every wait (a blocked
  // writer or reader, a parked suspend, an initiator awaiting its reply)
  // waits on it, and every change to it wakes them.

  [[nodiscard]] ConnState state() const { return cell_.get().state; }

  /// Validate `event` against the transition table and apply it.
  /// kProtocolError on an illegal transition (state unchanged). With
  /// `from`, the event applies only while the state is still `from`:
  /// kFailedPrecondition (state unchanged) once another thread moved it.
  util::Status advance(ConnEvent event,
                       std::optional<ConnState> from = std::nullopt) {
    return advance(event, from, [](Flags&) {});
  }
  /// The same, with `on_flags` applied to the flags in the same update as
  /// the state step (and only when the step is taken): a waiter woken by
  /// the new state also sees the flags that go with it.
  template <typename Fn>
  util::Status advance(ConnEvent event, std::optional<ConnState> from,
                       Fn&& on_flags) {
    util::Status result = util::OkStatus();
    cell_.update([&](Cell& c) {
      result = step(c.state, event, from);
      if (result.ok()) on_flags(c.flags);
    });
    return result;
  }

  /// Wait until the state satisfies `pred`; nullopt on timeout.
  template <typename Pred>
  std::optional<ConnState> wait_state(Pred&& pred, util::Duration timeout) {
    auto cell = cell_.wait_for(
        [&pred](const Cell& c) { return pred(c.state); }, timeout);
    if (!cell) return std::nullopt;
    return cell->state;
  }

  // ---- data path ----

  /// Install a (new) data socket. Does not change the FSM state.
  void attach_stream(std::shared_ptr<net::Stream> stream);
  [[nodiscard]] bool has_stream() const;
  void close_stream();

  /// Send one message; blocks while the connection is suspended (the paper:
  /// no data can be exchanged in SUSPENDED) until re-established, the
  /// connection dies (kAborted), or `timeout` passes.
  util::Status send(util::ByteSpan body, util::Duration timeout);

  /// Receive one message: buffer first, then socket. Blocks across
  /// suspension like send().
  util::StatusOr<RecvResult> recv(util::Duration timeout);

  // ---- suspension support (controller-driven) ----

  /// Atomically block writers and return the send high-water mark to
  /// declare in SUS / SUS_ACK. Idempotent while suspended.
  std::uint64_t freeze_writes_and_mark();

  /// Pull frames off the socket into the buffer until the peer's declared
  /// mark is reached (or timeout). Tolerates an already-closed socket if
  /// the mark was already reached.
  util::Status drain_to_mark(std::uint64_t peer_mark, util::Duration timeout);

  /// Opportunistically pull whatever is on the socket into the buffer for
  /// up to `budget`. Used by the suspend initiator while it waits for the
  /// peer's SUS_ACK: the peer's reply is produced only after it freezes
  /// its writers, and a writer blocked on TCP backpressure needs US to
  /// keep draining — otherwise handshake and data path deadlock.
  void pump_available(util::Duration budget);

  [[nodiscard]] std::uint64_t sent_seq() const;
  [[nodiscard]] std::uint64_t highest_rx_seq() const;
  [[nodiscard]] std::size_t buffered_frames() const;
  /// Total body bytes currently parked in the replay buffer.
  [[nodiscard]] std::uint64_t buffered_bytes() const;

  /// Data-path observability counters (see DataPathStats).
  [[nodiscard]] DataPathStats data_stats() const;

  // ---- observability (obs subsystem) ----
  //
  // trace_id: the migration trace this session's *own* suspend minted
  // (stamped into outgoing SUS/RESUME). peer_trace_id: the trace of the
  // peer's in-flight migration (adopted from an incoming SUS), kept
  // separate so an overlapped double migration attributes each side's
  // spans to the right trace.

  [[nodiscard]] std::uint64_t trace_id() const noexcept {
    return trace_id_.load(std::memory_order_relaxed);
  }
  void set_trace_id(std::uint64_t id) noexcept {
    trace_id_.store(id, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peer_trace_id() const noexcept {
    return peer_trace_id_.load(std::memory_order_relaxed);
  }
  void set_peer_trace_id(std::uint64_t id) noexcept {
    peer_trace_id_.store(id, std::memory_order_relaxed);
  }

  /// Bounded ring of recent FSM transitions and ctrl send/recv events;
  /// dumped on abort, chaos-oracle failure, and lock-rank violations.
  /// Returned mutable even from const contexts: recording is pure
  /// instrumentation, not logical session state (recorder_ is mutable).
  [[nodiscard]] obs::FlightRecorder& recorder() const noexcept {
    return recorder_;
  }

  // ---- concurrent-migration flags (paper §3.1, §3.2) ----
  //
  // A parked local suspend is the state SUSPEND_WAIT itself, not a flag.

  struct Flags {
    bool remote_suspended = false;   // peer initiated the suspension
    bool peer_parked = false;        // we ACK_WAIT'ed the peer: owe SUS_RES
    bool peer_waiting_resume = false;  // peer RESUMEd into our parked
                                       // suspend: we owe the reconnect
    std::uint64_t peer_declared_seq = 0;
    /// The peer's release (SUS_RES, or a RESUME answered with RESUME_WAIT)
    /// that landed before our suspend parked; the park applies it. A new
    /// suspension round drops it.
    std::optional<ConnEvent> early_release;
  };

  [[nodiscard]] Flags flags() const { return cell_.get().flags; }
  template <typename Fn>
  void update_flags(Fn&& fn) {
    cell_.update([&](Cell& c) { fn(c.flags); });
  }

  /// Park a local suspend: step `event` into SUSPEND_WAIT. When the peer's
  /// release already landed, the same update applies it too and the
  /// suspend goes on to SUSPENDED. Errors as advance().
  util::Status park(ConnEvent event,
                    std::optional<ConnState> from = std::nullopt);
  /// The peer releases a parked suspend (`event`: kRecvSusRes or
  /// kRecvResume): `on_flags` and, from SUSPEND_WAIT, the step to
  /// SUSPENDED, in one update. In any other state the release is kept in
  /// `early_release` for the park that has not happened yet.
  template <typename Fn>
  void release_park(ConnEvent event, Fn&& on_flags) {
    cell_.update([&](Cell& c) {
      on_flags(c.flags);
      if (c.state == ConnState::kSuspendWait) {
        (void)step(c.state, event, std::nullopt);
      } else {
        c.flags.early_release = event;
      }
    });
  }

  // ---- the reply slot ----
  //
  // The one control reply (SUS_ACK, ACK_WAIT, REJECT, CLS_ACK, SUS_RES_ACK)
  // the session's initiating operation waits for. The initiator empties
  // the slot for its round before it sends its request; a reply the round
  // takes then replaces whatever the slot holds.

  struct Reply {
    std::optional<CtrlType> type;  // empty: no reply yet
    std::uint64_t mark = 0;        // responder's declared high-water mark
  };

  /// Empty the slot for a round that takes only replies of `types` and,
  /// with a nonzero `trace_id`, only those that echo it (a SUS round's
  /// trace id, which the peer echoes on SUS_ACK, ACK_WAIT and REJECT).
  void expect_reply(std::initializer_list<CtrlType> types,
                    std::uint64_t trace_id = 0);
  /// Land a reply from the peer's controller (bus thread). Dropped unless
  /// the slot's round takes it.
  void put_reply(CtrlType type, std::uint64_t mark, std::uint64_t trace_id);
  /// Wait for the round's reply; nullopt on timeout or once the session
  /// has ended (CLOSED).
  std::optional<Reply> wait_reply(util::Duration timeout) const;

  // ---- fault-tolerance extension (paper §7 future work) ----
  //
  // With history enabled, sent frames are retained (bounded) so that after
  // an UNCOORDINATED stream loss — where the suspend protocol could not
  // flush — a resume can replay everything the peer missed. The receiver's
  // duplicate suppression makes the replay idempotent.

  /// Enable sent-frame retention, bounded to ~`max_bytes` of bodies.
  void enable_history(std::size_t max_bytes);
  [[nodiscard]] bool history_enabled() const;

  /// Frames with seq > `after_seq`, oldest first. If the span is no longer
  /// fully retained (evicted by the bound), kOutOfRange.
  [[nodiscard]] util::StatusOr<std::vector<std::pair<std::uint64_t, util::Bytes>>>
  history_since(std::uint64_t after_seq) const;

  /// Re-send retained frames with seq > `after_seq` on the attached stream
  /// (original sequence numbers; receiver dedup keeps this exactly-once).
  /// No-op (kOk) when `after_seq >= sent_seq()` — nothing to retransmit.
  util::Status retransmit_after(std::uint64_t after_seq);

  /// True once the data socket failed outside the suspension protocol
  /// (read EOF / write error while ESTABLISHED). Cleared by attach_stream.
  [[nodiscard]] bool is_broken() const;

  // ---- crash-recovery extension: incarnation-epoch fencing ----
  //
  // Each controller stamps its incarnation epoch into every control and
  // handoff message. A message from an epoch older than the highest seen
  // for this session is pre-crash traffic and must be dropped, or a
  // delayed pre-crash SUS/RESUME could drive the post-recovery FSM.

  /// Record `epoch` as seen from the peer; false when it is older than the
  /// high-water mark (the message must be fenced). Epoch 0 (legacy /
  /// fencing disabled) always admits.
  bool admit_peer_epoch(std::uint64_t epoch);
  [[nodiscard]] std::uint64_t peer_epoch() const noexcept {
    return peer_epoch_.load(std::memory_order_relaxed);
  }

  /// Force-kill the session locally (peer declared dead, a peer close the
  /// FSM cannot step, controller stop): tear down the stream and drive the
  /// state to CLOSED regardless of where the FSM was, so every blocked
  /// send()/recv()/resume waiter, parked suspend and reply waiter wakes
  /// instead of waiting out its timeout. Unlike mark_moved() the buffer
  /// survives — already-received frames stay readable.
  void abort_local();

  // ---- migration serialization ----

  /// Serialize the suspended session (state must be SUSPENDED or
  /// SUSPEND_WAIT-adjacent; the socket must already be closed).
  [[nodiscard]] util::Bytes export_state() const;
  static util::StatusOr<SessionPtr> import_state(util::ByteSpan data);

  /// Stop serving the replay buffer to local readers, atomically with
  /// respect to in-flight recv() pops. Call BEFORE export_state(): a frame
  /// popped after the export snapshot but before mark_moved() would be
  /// delivered here AND replayed by the imported clone — a duplicate.
  /// Sealing under the buffer lock closes that window: every pop either
  /// lands before the seal (and is absent from the snapshot) or fails.
  void seal_buffer_for_export();

  /// Neutralize this object after its state has been exported: the session
  /// now lives in the imported clone, and any stale handle still pointing
  /// here must observe a dead connection — NOT deliver from the old buffer
  /// (that would duplicate what the clone replays). Idempotent.
  void mark_moved();

 private:
  struct BufferedFrame {
    std::uint64_t seq;
    util::Bytes body;

    void persist(util::Archive& ar) {
      ar.field(seq);
      ar.field(body);
    }
  };

  /// The session blob after its identity header (conn id, verifier, role,
  /// agents), in wire order. Writing archives read the session; a reading
  /// archive fills a fresh, unpublished one.
  void persist_state(util::Archive& ar);

  /// Read one complete frame from the socket into rx_raw_/buffer, honoring
  /// `deadline_us`. Returns true if a frame was appended.
  util::StatusOr<bool> pump_socket(std::int64_t deadline_us);
  /// Parse any complete frames out of rx_raw_ into the buffer.
  void parse_raw_locked() NAPLET_REQUIRES(buf_mu_);
  /// Block until an rx event (bytes/frames/stream change) newer than
  /// `observed_epoch`, or min(deadline, now + max_slice). Snapshot the
  /// epoch (under buf_mu_) BEFORE probing the state that made you wait:
  /// any event between the snapshot and the wait returns immediately, so
  /// no notification can be lost. The slice is only a safety net.
  void wait_rx_event(std::uint64_t observed_epoch, std::int64_t deadline_us,
                     util::Duration max_slice);
  /// Record an rx event (and wake waiters): bytes/frames arrived or the
  /// stream was attached/closed.
  void bump_rx_epoch_locked() NAPLET_REQUIRES(buf_mu_) { ++rx_epoch_; }

  std::shared_ptr<net::Stream> stream() const;

  // identity (fixed at construction / import, before the session is
  // published to other threads)
  const std::uint64_t conn_id_;
  const std::uint64_t verifier_;
  const bool is_client_;
  const agent::AgentId local_agent_;
  const agent::AgentId peer_agent_;
  util::Bytes session_key_ NAPLET_NOT_GUARDED(
      "written during handshake/import before the session is published; "
      "read-only afterwards");

  mutable util::Mutex node_mu_{util::LockRank::kSessionNode, "session.node"};
  agent::NodeInfo peer_node_ NAPLET_GUARDED_BY(node_mu_);

  struct Cell {
    ConnState state = ConnState::kClosed;
    Flags flags;
    Reply reply;
    std::uint32_t reply_types = 0;     // bit 1 << type per type it takes
    std::uint64_t reply_trace_id = 0;  // 0: any trace id
  };
  /// The transition-table check and step behind advance(); runs under the
  /// cell lock.
  util::Status step(ConnState& state, ConnEvent event,
                    std::optional<ConnState> from) const;

  util::WaitableCell<Cell> cell_{Cell{}};

  // data path
  mutable util::Mutex stream_mu_{util::LockRank::kSessionStream,
                                 "session.stream"};
  std::shared_ptr<net::Stream> stream_ NAPLET_GUARDED_BY(stream_mu_);

  // Two-lock send path: write_mu_ serializes sequence assignment and the
  // history ring (held only briefly), write_io_mu_ serializes the socket
  // write itself. The io lock is acquired WHILE HOLDING write_mu_ (lock
  // coupling), which pins socket-write order to seq order; write_mu_ is
  // then dropped, so freeze_writes_and_mark / sent_seq / export never wait
  // out the transfer of a large frame.
  mutable util::Mutex write_mu_{util::LockRank::kSessionWrite,
                                "session.write"};
  mutable util::Mutex write_io_mu_{util::LockRank::kSessionWriteIo,
                                   "session.write_io"};
  std::uint64_t tx_seq_ NAPLET_GUARDED_BY(write_mu_) = 0;  // last assigned seq

  // Retransmission history (guarded by write_mu_).
  bool history_enabled_ NAPLET_GUARDED_BY(write_mu_) = false;
  std::size_t history_limit_bytes_ NAPLET_GUARDED_BY(write_mu_) = 0;
  std::size_t history_bytes_ NAPLET_GUARDED_BY(write_mu_) = 0;
  std::deque<std::pair<std::uint64_t, util::Bytes>> history_
      NAPLET_GUARDED_BY(write_mu_);

  std::atomic<bool> broken_{false};

  // Highest controller-incarnation epoch seen from the peer (fencing).
  std::atomic<std::uint64_t> peer_epoch_{0};

  // Migration trace attribution (see the observability accessors above).
  std::atomic<std::uint64_t> trace_id_{0};
  std::atomic<std::uint64_t> peer_trace_id_{0};
  mutable obs::FlightRecorder recorder_;

  // serializes socket readers
  mutable util::Mutex read_mu_{util::LockRank::kSessionRead, "session.read"};
  // guards buffer + rx bookkeeping
  mutable util::Mutex buf_mu_{util::LockRank::kSessionBuffer,
                              "session.buffer"};
  // Event-driven receive (replaces the old 1 ms sleep-polls): every rx
  // event — bytes/frames arriving, stream attach/close, migration seal —
  // increments rx_epoch_ under buf_mu_ and notifies rx_cv_. Waiters
  // snapshot the epoch before deciding to wait (see wait_rx_event), which
  // closes the lost-wakeup window a bare notify_all left open for
  // attach/close events that change no buffer state.
  mutable util::CondVar rx_cv_;
  std::uint64_t rx_epoch_ NAPLET_GUARDED_BY(buf_mu_) = 0;
  std::deque<BufferedFrame> buffer_ NAPLET_GUARDED_BY(buf_mu_);
  bool sealed_ NAPLET_GUARDED_BY(buf_mu_) = false;  // seal_buffer_for_export
  // unparsed bytes (partial frame tail)
  util::Bytes rx_raw_ NAPLET_GUARDED_BY(buf_mu_);
  // highest frame seq pulled off the wire
  std::uint64_t rx_high_ NAPLET_GUARDED_BY(buf_mu_) = 0;
  // highest seq handed to the application
  std::uint64_t delivered_ NAPLET_GUARDED_BY(buf_mu_) = 0;
  // frames with seq <= this were buffered across a suspension (Fig. 7
  // provenance)
  std::uint64_t replay_low_ NAPLET_GUARDED_BY(buf_mu_) = 0;

  // Lock-free data-path counters (see DataPathStats for field meanings).
  struct Counters {
    std::atomic<std::uint64_t> payload_bytes_copied{0};
    std::atomic<std::uint64_t> stream_write_ops{0};
    std::atomic<std::uint64_t> stream_read_ops{0};
    std::atomic<std::uint64_t> recv_wakeups{0};
    std::atomic<std::uint64_t> frames_coalesced{0};
  };
  mutable Counters counters_;
};

}  // namespace naplet::nsock
