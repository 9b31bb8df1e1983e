#include "obs/recorder.hpp"

#include <algorithm>
#include <vector>

#include "util/clock.hpp"
#include "util/lock_rank.hpp"
#include "util/sync.hpp"

namespace naplet::obs {

namespace {

std::atomic<Namer> g_state_namer{nullptr};
std::atomic<Namer> g_event_namer{nullptr};
std::atomic<Namer> g_ctrl_namer{nullptr};
std::atomic<Namer> g_handoff_namer{nullptr};

std::string name_or_num(const std::atomic<Namer>& namer, std::uint8_t code) {
  if (Namer fn = namer.load(std::memory_order_acquire); fn != nullptr) {
    return std::string(fn(code));
  }
  return std::to_string(code);
}

// Directory of live recorders. Deliberately unranked: dump_all runs inside
// the lock-rank violation handler, where the dying thread may hold locks
// of any rank — a ranked mutex here would recurse into the validator.
struct RecorderDirectory {
  util::Mutex mu{util::LockRank::kUnranked, "recorder.directory"};
  // Ends of the intrusive list threaded through FlightRecorder::live_*.
  FlightRecorder* head NAPLET_GUARDED_BY(mu) = nullptr;
  FlightRecorder* tail NAPLET_GUARDED_BY(mu) = nullptr;

  static RecorderDirectory& instance() {
    static RecorderDirectory dir;
    return dir;
  }
};

void violation_hook() { dump_all(stderr); }

}  // namespace

FlightRecorder::FlightRecorder(std::string label, std::size_t capacity)
    : label_(std::move(label)),
      capacity_(std::max<std::size_t>(capacity, 2)),
      slots_(new Slot[capacity_]) {
  auto& dir = RecorderDirectory::instance();
  util::MutexLock lock(dir.mu);
  live_prev_ = dir.tail;
  (dir.tail != nullptr ? dir.tail->live_next_ : dir.head) = this;
  dir.tail = this;
}

FlightRecorder::~FlightRecorder() {
  auto& dir = RecorderDirectory::instance();
  util::MutexLock lock(dir.mu);
  (live_prev_ != nullptr ? live_prev_->live_next_ : dir.head) = live_next_;
  (live_next_ != nullptr ? live_next_->live_prev_ : dir.tail) = live_prev_;
}

void FlightRecorder::record(Kind kind, std::uint8_t a, std::uint8_t b,
                            std::uint8_t c) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  slot.t_us.store(
      static_cast<std::uint64_t>(util::RealClock::instance().now_us()),
      std::memory_order_relaxed);
  slot.packed.store(static_cast<std::uint64_t>(kind) << 56 |
                        static_cast<std::uint64_t>(a) << 48 |
                        static_cast<std::uint64_t>(b) << 40 |
                        static_cast<std::uint64_t>(c) << 32 |
                        static_cast<std::uint32_t>(seq),
                    std::memory_order_relaxed);
}

std::vector<FlightRecorder::Entry> FlightRecorder::entries() const {
  const std::uint64_t head = next_.load(std::memory_order_relaxed);
  std::vector<Entry> out;
  out.reserve(std::min<std::uint64_t>(head, capacity_));
  // Walk oldest-first: slot (head % cap) is the next to be overwritten.
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[(head + i) % capacity_];
    const std::uint64_t packed = slot.packed.load(std::memory_order_relaxed);
    if (packed == 0) continue;
    Entry e;
    e.t_ms = static_cast<double>(slot.t_us.load(std::memory_order_relaxed)) /
             1000.0;
    e.kind = static_cast<Kind>(packed >> 56);
    e.a = static_cast<std::uint8_t>(packed >> 48);
    e.b = static_cast<std::uint8_t>(packed >> 40);
    e.c = static_cast<std::uint8_t>(packed >> 32);
    e.seq = static_cast<std::uint32_t>(packed);
    out.push_back(e);
  }
  // Concurrent writers can leave mixed generations; sort by ordinal so the
  // dump reads in record order regardless.
  std::sort(out.begin(), out.end(),
            [](const Entry& x, const Entry& y) { return x.seq < y.seq; });
  return out;
}

std::string FlightRecorder::dump() const {
  const auto snapshot = entries();
  std::string out = "flight recorder [" + label_ + "]: " +
                    std::to_string(recorded()) + " events, last " +
                    std::to_string(snapshot.size()) + ":\n";
  char buf[64];
  for (const Entry& e : snapshot) {
    std::snprintf(buf, sizeof buf, "  #%u t=%.3fms ", e.seq, e.t_ms);
    out += buf;
    switch (e.kind) {
      case Kind::kFsm:
        out += "fsm " + name_or_num(g_state_namer, e.a) + " --" +
               name_or_num(g_event_namer, e.b) + "--> " +
               name_or_num(g_state_namer, e.c);
        break;
      case Kind::kCtrlSend:
      case Kind::kCtrlRecv:
        out += e.kind == Kind::kCtrlSend ? "ctrl-send " : "ctrl-recv ";
        out += e.b != 0 ? name_or_num(g_handoff_namer, e.a)
                        : name_or_num(g_ctrl_namer, e.a);
        break;
      case Kind::kNote:
        out += "note " + std::to_string(e.a) + "/" + std::to_string(e.b) +
               "/" + std::to_string(e.c);
        break;
      case Kind::kNone:
        out += "empty";
        break;
    }
    out += "\n";
  }
  return out;
}

void set_namers(Namer fsm_state, Namer fsm_event, Namer ctrl_type,
                Namer handoff_type) {
  g_state_namer.store(fsm_state, std::memory_order_release);
  g_event_namer.store(fsm_event, std::memory_order_release);
  g_ctrl_namer.store(ctrl_type, std::memory_order_release);
  g_handoff_namer.store(handoff_type, std::memory_order_release);
}

std::string dump_all() {
  auto& dir = RecorderDirectory::instance();
  std::string out;
  util::MutexLock lock(dir.mu);
  for (const FlightRecorder* rec = dir.head; rec != nullptr;
       rec = rec->live_next_) {
    out += rec->dump();
  }
  return out;
}

void dump_all(std::FILE* out) {
  const std::string text = dump_all();
  std::fputs(text.c_str(), out);
  std::fflush(out);
}

void install_lock_rank_hook() {
  util::lock_rank::set_violation_hook(&violation_hook);
}

}  // namespace naplet::obs
