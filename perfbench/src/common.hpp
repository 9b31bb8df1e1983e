// Shared pieces of the repository benchmark: options, exact sample
// statistics, the metric sets each workload fills, the in-memory span
// tracer, the checked message format, and process counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace perfbench {

namespace util = naplet::util;
using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for journals and the span dump (inside the checkout).
  std::string run_dir;
};

/// Every value of one timing, kept so percentiles are exact order
/// statistics rather than histogram-bucket estimates.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// p in [0, 100], linear interpolation between order statistics.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(50); }

 private:
  std::vector<double> values_;
};

/// Completion times of one kind of op with a value each (a latency, or 0
/// when only the rate matters). A phase is cut into fixed windows; each
/// window yields its own rate or quantile and the reported figure is the
/// median over the windows, which a burst of host noise (CPU steal, a slow
/// fsync) in a few of them does not move.
class Timeline {
 public:
  void add(std::int64_t t_ns, double value) { points_.push_back({t_ns, value}); }
  void append(const Timeline& other) {
    points_.insert(points_.end(), other.points_.begin(), other.points_.end());
  }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] Samples values() const;
  /// count / window for each whole window of [start, end).
  [[nodiscard]] Samples window_rates(std::int64_t start, std::int64_t end,
                                     double window_s) const;
  /// The p-quantile of the values completed in each whole window of
  /// [start, end) that has any.
  [[nodiscard]] Samples window_quantiles(double p, std::int64_t start,
                                         std::int64_t end,
                                         double window_s) const;

 private:
  [[nodiscard]] std::vector<Samples> windows(std::int64_t start,
                                             std::int64_t end,
                                             double window_s) const;
  struct Point {
    std::int64_t t_ns;
    double value;
  };
  std::vector<Point> points_;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  // 0 when the value is a count or a ratio
};

/// Named metrics in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& items()
      const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness violations; non-empty = bad
  MetricSet e2e;     // headline metrics of the timed phase
  MetricSet detail;  // every end-to-end metric the workload applies to
  MetricSet layers;  // per-layer metrics (traced runs)

  void error(const std::string& what);
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into the
// library. Each thread appends to its own buffer; nothing is shared while
// the phase runs, and the spans are written out after it.

struct Span {
  const char* name = nullptr;  // static string, "<layer>.<call>"
  std::int32_t parent = -1;    // index in the same thread's buffer
  std::uint64_t op = 0;        // shared by every span of one operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  // stack of open span indices
  };

  /// The calling thread's buffer (created on first use).
  Buffer& local();

  /// Layer of a span name: "op.*" spans belong to the benchmark itself,
  /// every other span to the prefix before its last '.'.
  static std::string layer_of(const char* name);

  struct LayerTimes {
    std::map<std::string, double> self_ns;  // by layer
    std::map<std::string, Samples> dur_us;  // by span name
    double root_ns = 0;                     // sum of root spans
  };
  [[nodiscard]] LayerTimes summarize() const;

  /// JSON lines, one span per line, at most the first `max_per_thread`
  /// spans of each thread (the summary above always uses all of them).
  /// Returns false if the file cannot be written.
  bool write(const std::string& path,
             std::size_t max_per_thread = 20000) const;

 private:
  mutable util::Mutex mu_{util::LockRank::kUnranked, "perfbench.tracer"};
  std::map<std::uint64_t, std::unique_ptr<Buffer>> buffers_;  // by thread
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  std::int32_t index_ = -1;
};

// ---------------------------------------------------------------------------
// Checked messages: every body carries (connection tag, seq, checksum) so
// the receiver proves exactly-once, in-order, uncorrupted delivery.

inline constexpr std::size_t kHeaderBytes = 24;

/// Writer side: a reusable buffer whose filler is fixed per connection, so
/// only the header changes per message.
class MessageWriter {
 public:
  MessageWriter(std::uint64_t tag, std::size_t size);
  /// Switch to messages of `size` bytes; the seq keeps counting.
  void resize(std::size_t size);
  /// Stamp the next message and return it.
  util::ByteSpan next();
  [[nodiscard]] std::uint64_t sent() const { return seq_; }

 private:
  std::uint64_t tag_;
  std::uint64_t seq_ = 0;
  std::uint64_t body_sum_ = 0;
  util::Bytes buf_;
};

/// Reader side: the next expected seq of one connection.
class MessageChecker {
 public:
  explicit MessageChecker(std::uint64_t tag) : tag_(tag) {}
  /// Empty string when `body` is the next message; otherwise what is wrong
  /// (duplicate, gap/reorder, foreign connection, corrupt body).
  std::string accept(util::ByteSpan body);
  [[nodiscard]] std::uint64_t received() const { return next_ - 1; }

 private:
  std::uint64_t tag_;
  std::uint64_t next_ = 1;
};

// ---------------------------------------------------------------------------
// Process counters (getrusage; no files outside the checkout are read).

struct ProcCounters {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t max_rss_bytes = 0;
  static ProcCounters now();
};

/// Wall and process CPU time of one set-up, started at construction.
class SetupClock {
 public:
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(now_ns() - wall0_) / 1e9;
  }
  [[nodiscard]] double cpu_s() const { return ProcCounters::now().cpu_s - cpu0_; }

 private:
  std::int64_t wall0_ = now_ns();
  double cpu0_ = ProcCounters::now().cpu_s;
};

/// Set-up cost over several set-ups: the contract's setup_s is the median
/// process CPU time (host CPU steal does not move it); the report also
/// shows the median wall time.
struct SetupTimes {
  Samples wall_s;
  Samples cpu_s;
  void add(const SetupClock& clock) {
    wall_s.add(clock.wall_s());
    cpu_s.add(clock.cpu_s());
  }
  void report(Outcome& out) const;
};

[[nodiscard]] unsigned nproc();

/// Pin the calling thread to core `cpu % nproc()`, so that the placement
/// of a phase's threads, and with it the wake-up path between them, is
/// the same on every run.
void pin_to_cpu(unsigned cpu);

/// Deterministic 64-bit generator for op mixes and session choice.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Relative change b/a - 1 (0 when a is 0).
[[nodiscard]] inline double rel_change(double a, double b) {
  return a == 0 ? 0 : b / a - 1;
}

/// Safe ratio (0 when the base is 0).
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

}  // namespace perfbench
