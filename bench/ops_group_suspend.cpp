// Group-suspend makespan bench (ISSUE 9): the atomic whole-agent sweep
// behind ControllerConfig::group_suspend, measured end to end for 1-, 8-,
// and 64-connection agents. The sweep runs one prepare worker per member
// concurrently, so the makespan should grow far slower than member count —
// that is the point of the group sweep versus a serial suspend walk.
//
// With --json, also emits the makespan distribution plus per-phase
// p50/p95/p99 pulled from the controller's group histograms
// (nsock_group_prepare_us / nsock_group_commit_us / nsock_group_rollback_us
// / nsock_group_suspend_us) — the EXPERIMENTS.md group-suspend recipe and
// the CI smoke read these.
#include <algorithm>

#include "bench/bench_util.hpp"
#include "obs/metrics.hpp"

namespace naplet::bench {
namespace {

struct SizeResult {
  int connections = 0;
  std::vector<double> prepare_ms;  // group sweep makespan per iteration
  std::vector<double> resume_ms;   // whole-group resume makespan
  std::uint64_t rollbacks = 0;
  obs::Snapshot metrics;  // mover-side registry after the sweep
};

/// Percentile over a small sample (nearest-rank on the sorted copy).
double sample_percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

SizeResult measure(int connections, int iterations) {
  // BenchRealm pins its NodeConfig, and the group sweep is opt-in — build
  // the two-node loopback realm directly with the sweep enabled.
  nsock::Realm realm;
  for (int i = 0; i < 2; ++i) {
    nsock::NodeConfig config;
    config.controller.security = false;
    config.controller.group_suspend = true;
    config.controller.tolerance.enabled = true;
    config.controller.tolerance.lease_ttl = 10s;
    realm.add_node("node" + std::to_string(i), config);
  }
  if (!realm.start().ok()) std::abort();
  nsock::SocketController& mover = realm.node("node0").controller();
  nsock::SocketController& peer = realm.node("node1").controller();

  const agent::AgentId cli("grp-bench-cli");
  const agent::AgentId srv("grp-bench-srv");
  realm.locations().register_agent(cli, realm.node("node0").server().node_info());
  realm.locations().register_agent(srv, realm.node("node1").server().node_info());
  if (!peer.listen(srv).ok()) std::abort();

  std::vector<nsock::SessionPtr> clients;
  for (int i = 0; i < connections; ++i) {
    auto client = mover.connect(cli, srv);
    if (!client.ok()) std::abort();
    auto server = peer.accept(srv, 5s);
    if (!server.ok()) std::abort();
    clients.push_back(*client);
  }

  SizeResult result;
  result.connections = connections;
  for (int i = 0; i < iterations; ++i) {
    util::Stopwatch sw(util::RealClock::instance());
    if (!mover.prepare_migration(cli).ok()) std::abort();
    result.prepare_ms.push_back(sw.elapsed_ms());
    for (const auto& session : clients) {
      if (session->state() != nsock::ConnState::kSuspended) std::abort();
    }

    // Resume the whole group in place (the bench never ships the agent):
    // complete_migration walks every suspended member through the
    // redirector handoff back to ESTABLISHED.
    sw.reset();
    if (!mover.complete_migration(cli).ok()) std::abort();
    result.resume_ms.push_back(sw.elapsed_ms());
  }

  result.rollbacks = mover.group_rollbacks();
  result.metrics = mover.metrics().snapshot();
  realm.stop();
  return result;
}

/// The group-phase histograms worth breaking out (all in microseconds).
const std::vector<std::pair<std::string, std::string>>& phase_histograms() {
  static const std::vector<std::pair<std::string, std::string>> kPhases = {
      {"group_prepare", "nsock_group_prepare_us"},
      {"group_commit", "nsock_group_commit_us"},
      {"group_rollback", "nsock_group_rollback_us"},
      {"group_suspend", "nsock_group_suspend_us"},
      {"member_suspend", "nsock_suspend_latency_us"},
      {"member_resume", "nsock_resume_latency_us"},
  };
  return kPhases;
}

std::string phase_json(const obs::HistogramSnapshot& h) {
  return JsonObject()
      .field("count", h.count)
      .field("mean_us", h.mean())
      .field("p50_us", h.percentile(50))
      .field("p95_us", h.percentile(95))
      .field("p99_us", h.percentile(99))
      .render();
}

std::string makespan_json(const std::vector<double>& xs) {
  return JsonObject()
      .field("mean_ms", mean(xs))
      .field("p50_ms", sample_percentile(xs, 50))
      .field("p95_ms", sample_percentile(xs, 95))
      .field("p99_ms", sample_percentile(xs, 99))
      .render();
}

}  // namespace
}  // namespace naplet::bench

int main(int argc, char** argv) {
  using namespace naplet::bench;
  const int iterations = fast_mode() ? 3 : 15;
  const std::vector<int> sizes = {1, 8, 64};

  std::printf("group-suspend sweep makespan: %d-iteration cycles of "
              "prepare_migration + complete_migration per agent size\n",
              iterations);

  std::vector<SizeResult> results;
  for (int connections : sizes) {
    results.push_back(measure(connections, iterations));
  }

  print_header("Group sweep makespan (measured)",
               {"connections", "prepare mean", "prepare p95", "resume mean",
                "rollbacks"});
  for (const SizeResult& r : results) {
    print_row({std::to_string(r.connections), fmt(mean(r.prepare_ms), 3),
               fmt(sample_percentile(r.prepare_ms, 95), 3),
               fmt(mean(r.resume_ms), 3), std::to_string(r.rollbacks)});
  }

  for (const SizeResult& r : results) {
    print_header("Group phase breakdown, " + std::to_string(r.connections) +
                     "-connection agent (controller histograms, µs)",
                 {"phase", "count", "p50", "p95", "p99"});
    for (const auto& [label, name] : phase_histograms()) {
      const auto* h = r.metrics.histogram(name);
      if (h == nullptr || h->count == 0) continue;
      print_row({label, std::to_string(h->count), fmt(h->percentile(50), 0),
                 fmt(h->percentile(95), 0), fmt(h->percentile(99), 0)});
    }
  }

  // Shape checks: a clean bench never rolls a group back, and the sweep
  // fans members out concurrently, so the 64-member makespan must land far
  // under 64 serial one-member sweeps.
  const double one = mean(results.front().prepare_ms);
  const double big = mean(results.back().prepare_ms);
  const double serial_bound =
      one * static_cast<double>(results.back().connections);
  bool rollback_free = true;
  for (const SizeResult& r : results) rollback_free &= r.rollbacks == 0;
  std::printf("\nshape checks:\n");
  std::printf("  no rollbacks across sweeps      : %s\n",
              rollback_free ? "PASS" : "FAIL");
  std::printf("  %d-member sweep < serial bound : %s (%.3f < %.3f ms)\n",
              results.back().connections, big < serial_bound ? "PASS" : "FAIL",
              big, serial_bound);

  if (json_flag(argc, argv)) {
    std::vector<std::string> agents;
    for (const SizeResult& r : results) {
      JsonObject entry;
      entry.field("connections", static_cast<std::uint64_t>(r.connections))
          .field("rollbacks", r.rollbacks)
          .raw("prepare_makespan", makespan_json(r.prepare_ms))
          .raw("resume_makespan", makespan_json(r.resume_ms));
      for (const auto& [label, name] : phase_histograms()) {
        const auto* h = r.metrics.histogram(name);
        if (h == nullptr) continue;
        entry.raw(label, phase_json(*h));
      }
      agents.push_back(entry.render());
    }
    JsonObject obj;
    obj.field("bench", std::string("ops_group_suspend"))
        .field("iterations", static_cast<std::uint64_t>(iterations))
        .raw("agents", json_array(agents));
    write_json_file("BENCH_ops_group_suspend.json", obj.render());
  }
  return 0;
}
