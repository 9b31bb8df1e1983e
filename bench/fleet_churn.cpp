// Fleet churn at scale: 10k+ concurrent NapletSocket sessions on one
// controller under continuous connect / migrate / close churn — the load
// the sharded session table (DESIGN.md §15) exists to carry.
//
// The paper's testbed opens one connection at a time; a controller in a
// fleet terminates thousands. This bench ramps a single client-side
// controller to the target session count over the Sim backend (in-process
// pipes, so the OS fd ceiling is not the variable under test), then churns
// a worker pool through the paper's migration primitive (suspend+resume,
// §2.1) and full close+reconnect cycles, and reports:
//
//   concurrent_sessions        peak session-table size on the hot node
//   ramp_sessions_per_sec      connection-establishment throughput
//   churn_ops_per_sec          sustained suspend/resume + reopen rate
//   suspend p50/p95/p99 (us)   from the controller's own
//                              nsock_suspend_latency_us histogram
//   memory_per_session_bytes   RSS delta across the ramp / endpoints
//   shards n/max/mean          session-table shard spread sanity
//
// Control-plane threads are per node, not per session: each node's control
// channel runs one rudp receive thread and one retransmit-timer thread.
// NAPLET_BENCH_FAST shrinks the ramp for the CI smoke; --json writes
// BENCH_fleet_churn.json.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"

namespace naplet::bench {
namespace {

constexpr int kServerNodes = 3;  // node0 is the hot client-side host

/// Resident set size of this process, in bytes (Linux /proc/self/statm).
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total_pages = 0, resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident_pages) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

struct ChurnResult {
  std::size_t concurrent_sessions = 0;  // hot node, at peak
  std::size_t total_endpoints = 0;      // both ends, all nodes
  double ramp_sessions_per_sec = 0;
  double churn_ops_per_sec = 0;
  std::size_t churn_ops = 0;
  std::size_t churn_failures = 0;
  double mem_per_session_bytes = 0;
  std::vector<std::size_t> shard_sessions;
  obs::Snapshot metrics;  // hot-node registry (suspend histogram)
};

ChurnResult run(int target_sessions, int churn_ops, int workers) {
  net::SimNet net(/*seed=*/7);
  nsock::Realm realm;
  for (int i = 0; i <= kServerNodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    nsock::NodeConfig config;
    config.controller.security = false;
    realm.add_node(name, net.add_node(name), config);
  }
  if (!realm.start().ok()) std::abort();

  nsock::SocketController& hot = realm.node("node0").controller();

  // Server agents, one per server node, each accepting its shard of the
  // fleet. Acceptors drain the queues so closed server-side sessions do
  // not pile up behind unpopped entries.
  std::vector<agent::AgentId> servers;
  std::atomic<bool> accept_done{false};
  std::vector<std::thread> acceptors;
  for (int i = 1; i <= kServerNodes; ++i) {
    agent::AgentId srv("srv" + std::to_string(i));
    auto& node = realm.node("node" + std::to_string(i));
    realm.locations().register_agent(srv, node.server().node_info());
    if (!node.controller().listen(srv).ok()) std::abort();
    servers.push_back(srv);
    acceptors.emplace_back([&node, srv, &accept_done] {
      std::vector<nsock::SessionPtr> held;
      while (true) {
        auto got = node.controller().accept(srv, std::chrono::milliseconds(50));
        if (got.ok()) {
          held.push_back(std::move(*got));
          continue;
        }
        if (accept_done.load()) break;
      }
    });
  }

  // Client agents, one per worker, all resident on the hot node.
  std::vector<agent::AgentId> clients;
  for (int w = 0; w < workers; ++w) {
    agent::AgentId cli("cli" + std::to_string(w));
    realm.locations().register_agent(
        cli, realm.node("node0").server().node_info());
    clients.push_back(cli);
  }

  ChurnResult result;
  const std::size_t rss_before = rss_bytes();

  // ---- ramp: establish the fleet ----
  std::vector<std::vector<nsock::SessionPtr>> fleet(
      static_cast<std::size_t>(workers));
  std::atomic<std::size_t> connect_failures{0};
  util::Stopwatch ramp_sw(util::RealClock::instance());
  {
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        const int share = target_sessions / workers +
                          (w < target_sessions % workers ? 1 : 0);
        auto& mine = fleet[static_cast<std::size_t>(w)];
        mine.reserve(static_cast<std::size_t>(share));
        for (int i = 0; i < share; ++i) {
          auto conn = hot.connect(
              clients[static_cast<std::size_t>(w)],
              servers[static_cast<std::size_t>((w + i) % kServerNodes)]);
          if (!conn.ok()) {
            connect_failures.fetch_add(1);
            continue;
          }
          mine.push_back(std::move(*conn));
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  const double ramp_ms = ramp_sw.elapsed_ms();
  result.concurrent_sessions = hot.session_count();
  result.total_endpoints = result.concurrent_sessions;
  for (int i = 1; i <= kServerNodes; ++i) {
    result.total_endpoints +=
        realm.node("node" + std::to_string(i)).controller().session_count();
  }
  result.ramp_sessions_per_sec =
      static_cast<double>(result.concurrent_sessions) / (ramp_ms / 1000.0);
  const std::size_t rss_after = rss_bytes();
  if (rss_after > rss_before && result.total_endpoints > 0) {
    result.mem_per_session_bytes =
        static_cast<double>(rss_after - rss_before) /
        static_cast<double>(result.total_endpoints);
  }
  result.shard_sessions = hot.stats().shard_sessions;

  // ---- churn: migrate primitive + close/reopen, full table resident ----
  std::atomic<std::size_t> ops_done{0};
  std::atomic<std::size_t> ops_failed{0};
  util::Stopwatch churn_sw(util::RealClock::instance());
  {
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        auto& mine = fleet[static_cast<std::size_t>(w)];
        if (mine.empty()) return;
        const int share = churn_ops / workers +
                          (w < churn_ops % workers ? 1 : 0);
        for (int i = 0; i < share; ++i) {
          auto& sock = mine[static_cast<std::size_t>(i) % mine.size()];
          bool ok;
          if (i % 8 == 7) {
            // Full connection turnover: close, then re-establish so the
            // resident count holds at the target through the churn.
            ok = hot.close(sock).ok();
            auto conn = hot.connect(
                clients[static_cast<std::size_t>(w)],
                servers[static_cast<std::size_t>((w + i) % kServerNodes)]);
            ok = ok && conn.ok();
            if (conn.ok()) sock = std::move(*conn);
          } else {
            // The paper's connection-migration primitive around an agent
            // hop: suspend, then resume through the peer redirector.
            ok = hot.suspend(sock).ok() && hot.resume(sock).ok();
          }
          ops_done.fetch_add(1);
          if (!ok) ops_failed.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  const double churn_ms = churn_sw.elapsed_ms();
  result.churn_ops = ops_done.load();
  result.churn_failures = ops_failed.load() + connect_failures.load();
  result.churn_ops_per_sec =
      static_cast<double>(result.churn_ops) / (churn_ms / 1000.0);
  result.metrics = hot.metrics().snapshot();

  accept_done.store(true);
  for (auto& t : acceptors) t.join();
  realm.stop();
  return result;
}

double hist_p(const obs::Snapshot& snap, const char* name, double p) {
  const obs::HistogramSnapshot* h = snap.histogram(name);
  return h == nullptr ? 0.0 : h->percentile(p);
}

}  // namespace
}  // namespace naplet::bench

int main(int argc, char** argv) {
  using namespace naplet::bench;

  const bool fast = fast_mode();
  const int target = fast ? 1024 : 10240;
  const int churn_ops = fast ? 2048 : 20480;
  const int workers = 8;

  std::printf("Fleet churn: %d concurrent sessions on one controller, "
              "%d churn ops, %d workers (Sim backend)\n",
              target, churn_ops, workers);

  const ChurnResult r = run(target, churn_ops, workers);

  const double p50 = hist_p(r.metrics, "nsock_suspend_latency_us", 50.0);
  const double p95 = hist_p(r.metrics, "nsock_suspend_latency_us", 95.0);
  const double p99 = hist_p(r.metrics, "nsock_suspend_latency_us", 99.0);
  std::size_t shard_max = 0, shard_sum = 0;
  for (std::size_t s : r.shard_sessions) {
    shard_max = std::max(shard_max, s);
    shard_sum += s;
  }
  const double shard_mean =
      r.shard_sessions.empty()
          ? 0.0
          : static_cast<double>(shard_sum) /
                static_cast<double>(r.shard_sessions.size());

  print_header("Fleet churn (measured)", {"metric", "value"});
  print_row({"concurrent sessions", std::to_string(r.concurrent_sessions)});
  print_row({"total endpoints", std::to_string(r.total_endpoints)});
  print_row({"ramp (sessions/s)", fmt(r.ramp_sessions_per_sec, 0)});
  print_row({"churn (ops/s)", fmt(r.churn_ops_per_sec, 0)});
  print_row({"suspend p50 (us)", fmt(p50, 0)});
  print_row({"suspend p95 (us)", fmt(p95, 0)});
  print_row({"suspend p99 (us)", fmt(p99, 0)});
  print_row({"memory/session (B)", fmt(r.mem_per_session_bytes, 0)});
  print_row({"shards (n/max/mean)",
             std::to_string(r.shard_sessions.size()) + "/" +
                 std::to_string(shard_max) + "/" + fmt(shard_mean, 0)});

  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    std::printf("%s: %s\n", cond ? "PASS" : "FAIL", what);
    if (!cond) ok = false;
  };
  std::printf("\nshape checks:\n");
  check(r.concurrent_sessions >= static_cast<std::size_t>(target),
        "ramp reached the target concurrent session count");
  check(r.churn_ops >= static_cast<std::size_t>(churn_ops) &&
            r.churn_failures == 0,
        "every churn op (suspend+resume / close+reconnect) succeeded");
  check(p99 > 0.0, "suspend latency histogram populated");
  // Hash-spread sanity: with 10k sessions over 16 shards no shard should
  // hold more than 2x the mean (binomial tails are far tighter).
  check(r.shard_sessions.empty() ||
            static_cast<double>(shard_max) <= 2.0 * shard_mean + 8.0,
        "session table spread evenly across shards");

  if (json_flag(argc, argv)) {
    JsonObject suspend;
    suspend.field("p50_us", p50).field("p95_us", p95).field("p99_us", p99);
    JsonObject shards;
    shards
        .field("count", static_cast<std::uint64_t>(r.shard_sessions.size()))
        .field("max", static_cast<std::uint64_t>(shard_max))
        .field("mean", shard_mean);
    JsonObject root;
    root.field("bench", std::string("fleet_churn"))
        .field("target_sessions", static_cast<std::uint64_t>(target))
        .field("concurrent_sessions",
               static_cast<std::uint64_t>(r.concurrent_sessions))
        .field("total_endpoints",
               static_cast<std::uint64_t>(r.total_endpoints))
        .field("ramp_sessions_per_sec", r.ramp_sessions_per_sec)
        .field("churn_ops_per_sec", r.churn_ops_per_sec)
        .field("churn_ops", static_cast<std::uint64_t>(r.churn_ops))
        .field("memory_per_session_bytes", r.mem_per_session_bytes)
        .raw("suspend", suspend.render())
        .raw("shards", shards.render())
        .field("pass", std::string(ok ? "true" : "false"));
    write_json_file("BENCH_fleet_churn.json", root.render());
  }
  return ok ? 0 : 1;
}
