// Observability pillar 1: the metrics registry.
//
// Named counters, gauges, and fixed-bucket log2 histograms. The hot path
// (Counter::add, Gauge::set, Histogram::record) is lock-free and allocation
// free — a handful of relaxed atomic operations — so protocol code records
// into pre-registered instruments with no measurable cost when nobody is
// exporting. Registration and snapshot() take the registry lock (rank
// kObsRegistry); instruments have stable addresses for the life of the
// registry, so callers cache references once and record forever.
//
// Histogram buckets are powers of two: bucket 0 holds the value 0, bucket k
// (1 <= k <= kHistogramBuckets-2) holds [2^(k-1), 2^k), and the last bucket
// is the overflow bucket for everything at or above 2^(kHistogramBuckets-2).
// Percentiles interpolate linearly inside a bucket's value range.
//
// Exporters: Prometheus text format and JSON, both rendering every
// registered metric (the generic ControllerStats::to_string() rendering is
// built on the same Snapshot, so a new metric can never be silently
// omitted from any of the three).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::obs {

/// Monotone counter. add() is lock-free and allocation free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value (may go down). set()/add() are lock-free.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

inline constexpr int kHistogramBuckets = 40;

/// The repo's clocks report milliseconds; histograms record integer
/// microseconds. Clamps negatives to zero.
[[nodiscard]] inline std::uint64_t ms_to_us(double ms) noexcept {
  return ms <= 0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
}

/// Fixed log2-bucket histogram. record() touches three relaxed atomics.
class Histogram {
 public:
  /// Bucket index for `v`: 0 for 0, bit_width(v) for the power-of-two
  /// range, clamped into the final overflow bucket.
  [[nodiscard]] static constexpr int bucket_of(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const int w = std::bit_width(v);
    return w < kHistogramBuckets - 1 ? w : kHistogramBuckets - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int k) const noexcept {
    return buckets_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string unit;  // advisory: "us", "bytes", "count"
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Inclusive lower edge of bucket k's value range.
  [[nodiscard]] static double bucket_lower(int k) noexcept;
  /// Exclusive upper edge (== lower for bucket 0 and the overflow bucket).
  [[nodiscard]] static double bucket_upper(int k) noexcept;

  /// p in [0, 100]. Linear interpolation within the target bucket's value
  /// range; the overflow bucket reports its lower edge. 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Element-wise accumulate `other` into this snapshot (cross-host or
  /// cross-run aggregation).
  void merge(const HistogramSnapshot& other) noexcept;
};

/// A consistent-enough view of every registered metric (each value is an
/// individually-atomic read; no torn values, sorted by name).
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const CounterSnapshot* counter(std::string_view name) const;
  [[nodiscard]] const GaugeSnapshot* gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;
};

/// Get-or-create registry of named instruments. Returned references stay
/// valid for the registry's lifetime (node-based storage). One registry
/// per node (owned by its AgentServer) keeps multi-node tests independent;
/// Registry::global() serves process-wide code with no natural owner.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::string_view unit = "us");

  [[nodiscard]] Snapshot snapshot() const;

  static Registry& global();

 private:
  struct HistogramEntry {
    std::string unit;
    Histogram hist;
  };

  mutable util::Mutex mu_{util::LockRank::kObsRegistry, "obs.registry"};
  std::map<std::string, Counter, std::less<>> counters_ NAPLET_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ NAPLET_GUARDED_BY(mu_);
  std::map<std::string, HistogramEntry, std::less<>> histograms_
      NAPLET_GUARDED_BY(mu_);
};

/// Prometheus text exposition format (counters, gauges, and cumulative
/// histogram buckets with le="" labels).
[[nodiscard]] std::string to_prometheus(const Snapshot& snapshot);

/// JSON: {"counters":{...},"gauges":{...},"histograms":{name:{unit,count,
/// sum,p50,p95,p99,buckets:[...]}}}.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

}  // namespace naplet::obs
