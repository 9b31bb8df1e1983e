// Reproduces paper Figure 10(b) (§4.3): effective throughput as a function
// of the number of migration hops, for the single-migration pattern (one
// agent moves) and the concurrent pattern (both agents move each round).
//
// Paper findings: throughput decays slowly with hop count, and concurrent
// migration yields lower effective throughput than single migration
// (double the migration overhead per round).
//
// Effective throughput = all bytes delivered / (total communication +
// migration time), measured from start to the delivery of the last byte.
#include <atomic>
#include <future>
#include <thread>

#include "bench/bench_util.hpp"

namespace naplet::bench {
namespace {

constexpr std::size_t kMsgSize = 2048;
// Scaled analog of the paper's Ta-migrate (~220 ms against 20 s dwells):
// no code/state is shipped, so BenchRealm::migrate sleeps for it.
constexpr util::Duration kAgentCost = std::chrono::milliseconds(20);

double run(int hops, bool concurrent, double dwell_ms) {
  BenchRealm realm(6, /*security=*/false);
  auto a = realm.pseudo_agent("A", 0);
  auto b = realm.pseudo_agent("B", 1);
  if (!realm.ctrl(1).listen(b).ok()) std::abort();
  auto client = realm.ctrl(0).connect(a, b);
  if (!client.ok()) std::abort();
  auto accepted = realm.ctrl(1).accept(b, 5s);
  if (!accepted.ok()) std::abort();
  const std::uint64_t conn_id = (*client)->conn_id();

  const util::Bytes payload(kMsgSize, 0x66);
  std::atomic<bool> pump_stop{false};
  std::atomic<bool> sink_stop{false};
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> messages_received{0};
  std::atomic<std::int64_t> last_rx_us{0};
  std::atomic<int> a_node{0};
  std::atomic<int> b_node{1};

  // A pumps towards B; B's side drains. Both re-fetch the live session
  // each round — across a hop the previously held object is the exported
  // (stale) copy and times out quickly.
  std::thread pump([&] {
    while (!pump_stop.load()) {
      auto side = realm.ctrl(a_node.load()).session_by_id(conn_id);
      if (!side) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (side->send(util::ByteSpan(payload.data(), payload.size()),
                     std::chrono::milliseconds(50))
              .ok()) {
        messages_sent.fetch_add(1);
      }
    }
  });
  std::thread sink([&] {
    while (!sink_stop.load()) {
      auto side = realm.ctrl(b_node.load()).session_by_id(conn_id);
      if (!side) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      auto got = side->recv(std::chrono::milliseconds(20));
      if (got.ok()) {
        messages_received.fetch_add(1);
        last_rx_us.store(util::RealClock::instance().now_us());
      }
    }
  });

  const std::int64_t t0 = util::RealClock::instance().now_us();
  for (int hop = 0; hop < hops; ++hop) {
    util::RealClock::instance().sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(dwell_ms * 1000)));
    const int b_next = ((b_node.load() + 2) % 6) | 1;
    if (concurrent) {
      const int a_next = ((a_node.load() + 2) % 6) & ~1;
      auto move_a = std::async(std::launch::async, [&, a_next] {
        realm.migrate(a, a_node.load(), a_next, kAgentCost);
      });
      realm.migrate(b, b_node.load(), b_next, kAgentCost);
      move_a.get();
      a_node.store(a_next);
    } else {
      realm.migrate(b, b_node.load(), b_next, kAgentCost);
    }
    b_node.store(b_next);
  }
  util::RealClock::instance().sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(dwell_ms * 1000)));

  // Stop producing, then let the sink drain everything already sent.
  pump_stop.store(true);
  pump.join();
  const std::int64_t drain_deadline =
      util::RealClock::instance().now_us() + 10'000'000;
  while (messages_received.load() < messages_sent.load() &&
         util::RealClock::instance().now_us() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sink_stop.store(true);
  sink.join();

  const std::int64_t end_us = std::max(last_rx_us.load(), t0 + 1);
  const double elapsed_ms = static_cast<double>(end_us - t0) / 1000.0;
  return static_cast<double>(messages_received.load()) *
         static_cast<double>(kMsgSize) * 8.0 / 1e6 / (elapsed_ms / 1000.0);
}

}  // namespace
}  // namespace naplet::bench

int main() {
  using namespace naplet::bench;

  std::printf("Figure 10(b) reproduction: effective throughput vs migration "
              "hops, single vs concurrent patterns\n");
  std::printf("Paper findings: slow decay with hops; concurrent < single\n");

  const double dwell_ms = fast_mode() ? 80 : 250;
  const std::vector<int> hop_counts =
      fast_mode() ? std::vector<int>{1, 3}
                  : std::vector<int>{1, 2, 3, 4, 5, 6, 7};
  const int repeats = fast_mode() ? 1 : 3;

  print_header("Figure 10(b) (measured, Mb/s)",
               {"hops", "single", "concurrent", "conc/single"});
  double single_sum = 0, concurrent_sum = 0;
  for (int hops : hop_counts) {
    std::vector<double> singles, concurrents;
    for (int r = 0; r < repeats; ++r) {
      singles.push_back(run(hops, /*concurrent=*/false, dwell_ms));
      concurrents.push_back(run(hops, /*concurrent=*/true, dwell_ms));
    }
    // Median: robust to the occasional protocol-retry outlier round.
    std::sort(singles.begin(), singles.end());
    std::sort(concurrents.begin(), concurrents.end());
    const double single = singles[singles.size() / 2];
    const double concurrent = concurrents[concurrents.size() / 2];
    single_sum += single;
    concurrent_sum += concurrent;
    print_row({std::to_string(hops), fmt(single, 1), fmt(concurrent, 1),
               fmt(concurrent / single, 3)});
  }

  std::printf("\nshape check: concurrent migration costs more than single "
              "on average: %s (mean ratio %.3f)\n",
              concurrent_sum < single_sum ? "PASS" : "FAIL",
              concurrent_sum / single_sum);
  return concurrent_sum < single_sum ? 0 : 1;
}
