// Observability pillar 3: the per-session flight recorder.
//
// A bounded ring of the session's most recent FSM transitions and control
// send/recv events. The record path is lock-free — one relaxed fetch_add
// plus three relaxed stores into a fixed slot — because the FSM hook fires
// inside Session::advance while the state-cell lock (rank kStateCell) is
// held. Every recorder is always on. The ring is read
// only on failure: abort_session dumps it, the chaos harness attaches it
// to failing cases next to the minimized fault plan, and a lock-rank
// violation dumps every live recorder to stderr before aborting (see
// install_lock_rank_hook, wired through util's violation hook because util
// cannot depend on obs).
//
// Slots are triplets of relaxed atomics, so a dump racing active writers
// reads internally-consistent words (possibly of mixed generations near
// the ring head — acceptable for a diagnostic, and race-free under TSan).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace naplet::obs {

class FlightRecorder {
 public:
  enum class Kind : std::uint8_t {
    kNone = 0,  ///< empty slot marker
    kFsm,       ///< a/b/c = from-state / event / to-state
    kCtrlSend,  ///< a = CtrlType (or HandoffType with b=1)
    kCtrlRecv,  ///< a = CtrlType (or HandoffType with b=1)
    kNote,      ///< a/b/c free-form
  };

  struct Entry {
    double t_ms = 0;
    Kind kind = Kind::kNone;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
    std::uint32_t seq = 0;  ///< global record ordinal (wrap-safe ordering)
  };

  static constexpr std::size_t kDefaultCapacity = 128;

  explicit FlightRecorder(std::string label,
                          std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Lock-free, allocation-free; safe under any protocol lock.
  void record(Kind kind, std::uint8_t a, std::uint8_t b, std::uint8_t c);
  void record_fsm(std::uint8_t from, std::uint8_t event, std::uint8_t to) {
    record(Kind::kFsm, from, event, to);
  }

  /// Oldest-first snapshot of the ring (skips empty slots).
  [[nodiscard]] std::vector<Entry> entries() const;
  /// Human-readable dump; decodes codes via the installed namers.
  [[nodiscard]] std::string dump() const;

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> t_us{0};
    std::atomic<std::uint64_t> packed{0};  // kind<<56|a<<48|b<<40|c<<32|seq
  };

  friend std::string dump_all();

  std::string label_;
  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  // Links in the directory of live recorders, a list in creation order
  // guarded by the directory's mutex, so the destructor unlinks in O(1).
  FlightRecorder* live_prev_ = nullptr;
  FlightRecorder* live_next_ = nullptr;
};

/// Decode a raw code into a name for dump() (installed by the core layer:
/// obs cannot depend on the protocol enums). Must be pure and immortal.
using Namer = std::string_view (*)(std::uint8_t);

/// Install the FSM-state / FSM-event / ctrl-type / handoff-type decoders
/// used by FlightRecorder::dump and dump_all. Any may be nullptr (codes
/// print numerically).
void set_namers(Namer fsm_state, Namer fsm_event, Namer ctrl_type,
                Namer handoff_type);

/// Dump every live recorder (registered automatically by the constructor).
[[nodiscard]] std::string dump_all();
void dump_all(std::FILE* out);

/// Register dump_all(stderr) as util's lock-rank violation hook, so a
/// rank-order abort ships the recent execution history of every session.
/// Idempotent.
void install_lock_rank_hook();

}  // namespace naplet::obs
