// Reproduces paper Figure 10(a) (§4.3): effective throughput of a pair of
// communicating agents under the single-migration pattern, as the mobile
// agent's per-host service (dwell) time varies.
//
// Paper finding: throughput climbs with dwell time and approaches the
// no-migration level once an agent stays long enough at each host (the
// fixed per-hop migration cost amortizes away).
//
// Scaling note: the paper's testbed had ~265 ms of per-hop cost against
// dwell times of 1-30 s. Our per-hop cost is a few ms on loopback, so the
// dwell sweep is scaled down proportionally; the curve shape is preserved.
#include <atomic>
#include <thread>

#include "bench/bench_util.hpp"

namespace naplet::bench {
namespace {

constexpr std::size_t kMsgSize = 2048;  // paper: constant 2 KB messages
// Scaled analog of the paper's Ta-migrate; BenchRealm::migrate sleeps for it.
constexpr util::Duration kAgentCost = std::chrono::milliseconds(20);

struct Throughput {
  double mbps;
};

/// Pump continuously for `dwell_ms` per host across `hops` migrations and
/// report effective throughput over the whole run.
Throughput run_pattern(int hops, double dwell_ms) {
  BenchRealm realm(4, /*security=*/false);
  auto sender = realm.pseudo_agent("A", 0);
  auto mobile = realm.pseudo_agent("B", 1);
  if (!realm.ctrl(1).listen(mobile).ok()) std::abort();
  auto client = realm.ctrl(0).connect(sender, mobile);
  if (!client.ok()) std::abort();
  auto accepted = realm.ctrl(1).accept(mobile, 5s);
  if (!accepted.ok()) std::abort();
  const std::uint64_t conn_id = (*client)->conn_id();

  const util::Bytes payload(kMsgSize, 0x55);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bytes_sent{0};

  std::thread pump([&] {
    while (!stop.load()) {
      if ((*client)
              ->send(util::ByteSpan(payload.data(), payload.size()), 60s)
              .ok()) {
        bytes_sent.fetch_add(payload.size());
      } else {
        break;
      }
    }
  });

  // Receiver loop runs on this thread, interleaved with migrations.
  int node = 1;
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<bool> rx_stop{false};
  std::atomic<int> rx_node{1};
  std::thread sink([&] {
    while (!rx_stop.load()) {
      auto side = realm.ctrl(rx_node.load()).session_by_id(conn_id);
      if (!side) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      auto got = side->recv(std::chrono::milliseconds(50));
      if (got.ok()) bytes_received.fetch_add(got->body.size());
    }
  });

  util::Stopwatch sw(util::RealClock::instance());
  for (int hop = 0; hop < hops; ++hop) {
    util::RealClock::instance().sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(dwell_ms * 1000)));
    const int next = 1 + (node % 3);
    realm.migrate(mobile, node, next, kAgentCost);
    node = next;
    rx_node.store(node);
  }
  util::RealClock::instance().sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(dwell_ms * 1000)));
  const double elapsed_ms = sw.elapsed_ms();

  // Stop the pump first while the sink still drains: a writer blocked on
  // TCP backpressure needs the reader alive to finish its final send.
  stop.store(true);
  pump.join();
  rx_stop.store(true);
  sink.join();
  (void)realm.ctrl(0).close(realm.ctrl(0).session_by_id(conn_id)
                                ? realm.ctrl(0).session_by_id(conn_id)
                                : *client);

  return Throughput{static_cast<double>(bytes_received.load()) * 8.0 / 1e6 /
                    (elapsed_ms / 1000.0)};
}

}  // namespace
}  // namespace naplet::bench

int main() {
  using namespace naplet::bench;

  std::printf("Figure 10(a) reproduction: effective throughput vs agent "
              "service time (single migration pattern, 2 KB messages)\n");
  std::printf("Paper finding: throughput rises with dwell time and "
              "approaches the stationary level at long dwells\n");

  const int hops = 3;
  const std::vector<double> dwells_ms =
      fast_mode() ? std::vector<double>{20, 100, 400}
                  : std::vector<double>{10, 25, 50, 100, 250, 500, 1000};

  // Stationary baseline: same pump, no migration, for 1 s.
  const double baseline = run_pattern(0, fast_mode() ? 300 : 1000).mbps;

  print_header("Figure 10(a) (measured)",
               {"dwell (ms)", "Mb/s", "% of baseline"});
  std::vector<double> series;
  for (double dwell : dwells_ms) {
    const double tput = run_pattern(hops, dwell).mbps;
    series.push_back(tput);
    print_row({fmt(dwell, 0), fmt(tput, 1),
               fmt(100.0 * tput / baseline, 1)});
  }
  print_row({"no migration", fmt(baseline, 1), "100.0"});

  const bool monotone_ish = series.back() > series.front();
  const bool approaches = series.back() > 0.7 * baseline;
  std::printf("\nshape checks:\n");
  std::printf("  throughput rises with dwell time : %s (%.1f -> %.1f)\n",
              monotone_ish ? "PASS" : "FAIL", series.front(), series.back());
  std::printf("  long dwell approaches baseline   : %s (%.0f%% of baseline)\n",
              approaches ? "PASS" : "FAIL",
              100.0 * series.back() / baseline);
  return monotone_ish && approaches ? 0 : 1;
}
