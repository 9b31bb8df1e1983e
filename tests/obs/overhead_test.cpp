// Hot-path cost guard for the observability subsystem: recording into an
// unexported registry (Counter::add, Histogram::record) must stay within 2x
// of a raw relaxed atomic op — a few nanoseconds. Ratio-based (both sides
// measured in-process, min of several reps) so the guard is stable across
// machines and sanitizer builds; a >2x regression means someone put a lock,
// an allocation, or a syscall on the record path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace naplet::obs {
namespace {

constexpr int kIterations = 200'000;
constexpr int kReps = 5;

/// Best-of-reps ns/op for `op` run kIterations times.
template <typename Fn>
double best_ns_per_op(Fn&& op) {
  double best = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t0 = util::RealClock::instance().now_us();
    for (int i = 0; i < kIterations; ++i) op(i);
    const std::int64_t t1 = util::RealClock::instance().now_us();
    const double ns =
        static_cast<double>(t1 - t0) * 1000.0 / kIterations;
    if (ns < best) best = ns;
  }
  return best;
}

TEST(ObsOverhead, UnexportedRegistryRecordWithin2xOfRawAtomic) {
  std::atomic<std::uint64_t> raw{0};
  Registry reg;
  Counter& counter = reg.counter("guard");
  Histogram& hist = reg.histogram("guard_h");

  const double base_ns =
      best_ns_per_op([&](int) { raw.fetch_add(1, std::memory_order_relaxed); });
  const double counter_ns = best_ns_per_op([&](int) { counter.add(1); });
  // Histogram::record is three relaxed atomics + a bit_width; budget 2x of
  // three raw ops.
  const double hist_ns = best_ns_per_op(
      [&](int i) { hist.record(static_cast<std::uint64_t>(i)); });

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kReps) * kIterations);
  EXPECT_LE(counter_ns, base_ns * 2.0)
      << "Counter::add " << counter_ns << " ns vs raw " << base_ns << " ns";
  EXPECT_LE(hist_ns, base_ns * 3.0 * 2.0)
      << "Histogram::record " << hist_ns << " ns vs raw " << base_ns << " ns";
}

}  // namespace
}  // namespace naplet::obs
