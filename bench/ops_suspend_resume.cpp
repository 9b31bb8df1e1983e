// Reproduces the §4.2 text numbers: the cost of suspend and resume
// operations, and the headline comparison — keeping a connection alive
// with suspend+resume versus closing before migration and reopening after.
//
// Paper: suspend 27.8 ms, resume 16.9 ms (handshaking ≈50% and ≈70% of
// those); close+reopen ≈147 ms vs suspend+resume < 1/3 of that.
//
// With --json, also emits per-phase p50/p95/p99 pulled from the
// controller's metric histograms (suspend latency, drain, handoff, resume,
// and the connect breakdown) — the EXPERIMENTS.md migration-latency-
// breakdown recipe reads these.
#include "bench/bench_util.hpp"
#include "obs/metrics.hpp"

namespace naplet::bench {
namespace {

struct Costs {
  double suspend_ms;
  double resume_ms;
  double close_reopen_ms;
  obs::Snapshot metrics;  // mover-side registry after the sweep
};

Costs measure(int iterations) {
  BenchRealm realm(2, /*security=*/true, crypto::DhGroup::kModp2048);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  if (!realm.ctrl(1).listen(bob).ok()) std::abort();

  auto client = realm.ctrl(0).connect(alice, bob);
  if (!client.ok()) std::abort();
  auto server = realm.ctrl(1).accept(bob, 5s);
  if (!server.ok()) std::abort();

  std::vector<double> suspend_ms, resume_ms;
  for (int i = 0; i < iterations; ++i) {
    util::Stopwatch sw(util::RealClock::instance());
    if (!realm.ctrl(0).suspend(*client).ok()) std::abort();
    suspend_ms.push_back(sw.elapsed_ms());

    sw.reset();
    if (!realm.ctrl(0).resume(*client).ok()) std::abort();
    resume_ms.push_back(sw.elapsed_ms());
  }
  (void)realm.ctrl(0).close(*client);

  // close + reopen: the alternative strategy around each migration.
  std::vector<double> close_reopen_ms;
  for (int i = 0; i < iterations; ++i) {
    auto conn = realm.ctrl(0).connect(alice, bob);
    if (!conn.ok()) std::abort();
    auto acc = realm.ctrl(1).accept(bob, 5s);
    if (!acc.ok()) std::abort();

    util::Stopwatch sw(util::RealClock::instance());
    if (!realm.ctrl(0).close(*conn).ok()) std::abort();
    auto reconn = realm.ctrl(0).connect(alice, bob);
    if (!reconn.ok()) std::abort();
    auto reacc = realm.ctrl(1).accept(bob, 5s);
    if (!reacc.ok()) std::abort();
    close_reopen_ms.push_back(sw.elapsed_ms());
    (void)realm.ctrl(0).close(*reconn);
  }

  return {mean(suspend_ms), mean(resume_ms), mean(close_reopen_ms),
          realm.ctrl(0).metrics().snapshot()};
}

/// The per-phase histograms worth breaking out (all in microseconds).
const std::vector<std::pair<std::string, std::string>>& phase_histograms() {
  static const std::vector<std::pair<std::string, std::string>> kPhases = {
      {"suspend", "nsock_suspend_latency_us"},
      {"drain", "nsock_drain_time_us"},
      {"handoff", "nsock_handoff_time_us"},
      {"resume", "nsock_resume_latency_us"},
      {"connect_total", "nsock_connect_total_us"},
      {"connect_management", "nsock_connect_management_us"},
      {"connect_security", "nsock_connect_security_us"},
      {"connect_key_exchange", "nsock_connect_key_exchange_us"},
      {"connect_handshake", "nsock_connect_handshake_us"},
      {"connect_open_socket", "nsock_connect_open_socket_us"},
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

}  // namespace
}  // namespace naplet::bench

int main(int argc, char** argv) {
  using namespace naplet::bench;
  const int iterations = fast_mode() ? 10 : 100;

  std::printf("§4.2 reproduction: suspend/resume primitive costs "
              "(%d iterations)\n", iterations);
  std::printf("Paper: suspend 27.8 ms, resume 16.9 ms, close+reopen ~147 ms "
              "(suspend+resume < 1/3 of close+reopen)\n");

  const Costs costs = measure(iterations);
  const double migrate_cost = costs.suspend_ms + costs.resume_ms;

  print_header("Suspend/resume vs close+reopen (measured)",
               {"operation", "mean (ms)"});
  print_row({"suspend", fmt(costs.suspend_ms, 3)});
  print_row({"resume", fmt(costs.resume_ms, 3)});
  print_row({"suspend+resume", fmt(migrate_cost, 3)});
  print_row({"close+reopen", fmt(costs.close_reopen_ms, 3)});

  // Phase breakdown from the controller's own histograms: where each
  // operation's time actually goes (paper §4.2 attributes ~50%/~70% of
  // suspend/resume to handshaking; the connect_* rows replot Fig. 9).
  print_header("Migration phase breakdown (controller histograms, µs)",
               {"phase", "count", "p50", "p95", "p99"});
  for (const auto& [label, name] : phase_histograms()) {
    const auto* h = costs.metrics.histogram(name);
    if (h == nullptr || h->count == 0) continue;
    print_row({label, std::to_string(h->count), fmt(h->percentile(50), 0),
               fmt(h->percentile(95), 0), fmt(h->percentile(99), 0)});
  }

  std::printf("\nshape checks:\n");
  std::printf("  suspend+resume < close+reopen : %s (%.3f < %.3f)\n",
              migrate_cost < costs.close_reopen_ms ? "PASS" : "FAIL",
              migrate_cost, costs.close_reopen_ms);
  std::printf("  ratio suspend+resume / close+reopen = %.2f  (paper: < 0.33)\n",
              migrate_cost / costs.close_reopen_ms);

  if (json_flag(argc, argv)) {
    JsonObject obj;
    obj.field("bench", std::string("ops_suspend_resume"))
        .field("iterations", static_cast<std::uint64_t>(iterations))
        .field("suspend_ms", costs.suspend_ms)
        .field("resume_ms", costs.resume_ms)
        .field("suspend_resume_ms", migrate_cost)
        .field("close_reopen_ms", costs.close_reopen_ms);
    for (const auto& [label, name] : phase_histograms()) {
      const auto* h = costs.metrics.histogram(name);
      if (h == nullptr) continue;
      obj.raw(label, phase_json(*h));
    }
    write_json_file("BENCH_ops_suspend_resume.json", obj.render());
  }
  return 0;
}
