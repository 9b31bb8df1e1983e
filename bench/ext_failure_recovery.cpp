// Ablation bench for the fault-tolerance extension (paper §7 future work,
// implemented here): message delivery under repeated link failures with
// recovery on vs off, plus the steady-state overhead of the heartbeat and
// retransmission-history machinery when nothing fails.
//
// Runs over the in-process simulated network so link failures can be
// injected deterministically.
#include <filesystem>
#include <thread>

#include "bench/bench_util.hpp"
#include "net/rudp.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"

namespace naplet::bench {
namespace {

struct RunResult {
  int delivered = 0;
  int attempted = 0;
  double elapsed_ms = 0;
  double last_delivery_ms = 0;  // first send to the last successful recv
  std::uint64_t repairs = 0;
};

RunResult run(bool recovery, int failures, int messages_per_phase,
              util::Duration drain_timeout = {}) {
  if (drain_timeout.count() == 0) drain_timeout = recovery ? 2s : 300ms;
  net::SimNet net;
  nsock::Realm realm;
  for (const char* name : {"a", "b"}) {
    nsock::NodeConfig config;
    config.controller.security = false;
    if (recovery) {
      config.controller.tolerance.enabled = true;
      config.controller.tolerance.probe_interval = 50ms;
    }
    realm.add_node(name, net.add_node(name), config);
  }
  if (!realm.start().ok()) std::abort();

  agent::AgentId alice("alice"), bob("bob");
  realm.locations().register_agent(alice,
                                   realm.node("a").server().node_info());
  realm.locations().register_agent(bob, realm.node("b").server().node_info());
  if (!realm.node("b").controller().listen(bob).ok()) std::abort();
  auto client = realm.node("a").controller().connect(alice, bob);
  if (!client.ok()) std::abort();
  auto server = realm.node("b").controller().accept(bob, 5s);
  if (!server.ok()) std::abort();

  RunResult result;
  util::Stopwatch sw(util::RealClock::instance());

  for (int phase = 0; phase <= failures; ++phase) {
    for (int i = 0; i < messages_per_phase; ++i) {
      ++result.attempted;
      // Bounded retries: with recovery the repair loop heals the link; off,
      // sends keep failing until we give up on this message.
      // Without recovery, failed sends never heal; give up quickly.
      const std::int64_t deadline =
          util::RealClock::instance().now_us() +
          (recovery ? 3'000'000 : 600'000);
      while (util::RealClock::instance().now_us() < deadline) {
        if ((*client)->send(span("payload"), 500ms).ok()) break;
      }
    }
    if (phase < failures) net.sever_streams("a", "b");
  }

  // Drain whatever made it across.
  while ((*server)->recv(drain_timeout).ok()) {
    ++result.delivered;
    result.last_delivery_ms = sw.elapsed_ms();
  }

  result.elapsed_ms = sw.elapsed_ms();
  result.repairs = realm.node("a").controller().links_repaired() +
                   realm.node("b").controller().links_repaired();
  realm.stop();
  return result;
}

struct RestartResult {
  bool ok = false;
  double restart_recovery_ms = 0;
  std::uint64_t resume_retries = 0;
  // Per-phase latency histograms for the crash-restart migration: suspend
  // and drain run on the origin (node0), handoff and resume on the mover's
  // new host (node2). Merged into one snapshot per phase name.
  obs::Snapshot phases;
};

nsock::NodeConfig restart_node_config(const std::string& durable_dir) {
  nsock::NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval =
      std::chrono::milliseconds(15);
  config.server.rudp_config.max_attempts = 40;
  config.controller.ctrl_response_timeout = 1s;
  config.controller.tolerance.enabled = true;
  config.controller.tolerance.probe_interval = 500ms;
  config.controller.tolerance.probe_timeout = 200ms;
  config.controller.tolerance.miss_threshold = 1000;
  config.controller.resume_timeout = 8s;
  if (!durable_dir.empty()) {
    config.controller.durability.enabled = true;
    config.controller.durability.dir = durable_dir;
  }
  return config;
}

// Crash-restart recovery: the server-side controller is killed after the
// migrating client has been exported/imported (the session is journaled at
// its commit points), then stood up again from the journal. Measures the
// wall time from restart to the migration resuming exactly-once.
RestartResult run_restart() {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "naplet-bench-restart").string();
  fs::remove_all(dir);

  net::SimNet net(/*seed=*/1);
  net.set_default_link(net::LinkConfig{.latency = 1ms});
  nsock::Realm realm;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "node" + std::to_string(i);
    realm.add_node(name, net.add_node(name),
                   restart_node_config(i == 1 ? dir : ""));
  }
  if (!realm.start().ok()) std::abort();

  RestartResult result;
  agent::AgentId cli("cli"), srv("srv");
  realm.locations().register_agent(cli,
                                   realm.node("node0").server().node_info());
  realm.locations().register_agent(srv,
                                   realm.node("node1").server().node_info());
  if (!realm.node("node1").controller().listen(srv).ok()) std::abort();
  auto client = realm.node("node0").controller().connect(cli, srv);
  auto server = realm.node("node1").controller().accept(srv, 5s);
  if (!client.ok() || !server.ok()) std::abort();
  (void)(*client)->send(span("pre-crash"), 1s);
  (void)(*server)->recv(1s);

  // Stage the client's migration to node2, then crash the server host.
  if (!realm.hop(cli, "node0", "node2").ok()) {
    realm.stop();
    fs::remove_all(dir);
    return result;
  }
  realm.remove_node("node1");

  util::Stopwatch sw(util::RealClock::instance());
  auto& reborn = realm.add_node("node1", net.add_node("node1"),
                                restart_node_config(dir));
  if (!reborn.start().ok() || !reborn.controller().recover().ok()) {
    realm.stop();
    fs::remove_all(dir);
    return result;
  }
  realm.locations().register_agent(srv, reborn.server().node_info());
  result.ok = realm.node("node2").controller().complete_migration(cli).ok();
  result.restart_recovery_ms = sw.elapsed_ms();
  result.resume_retries = realm.node("node2").controller().resume_retries();

  // Suspend/drain were recorded on node0, handoff/resume on node2; every
  // controller registers the same instruments, so merging the same-named
  // histograms yields one per-phase view of the whole migration.
  result.phases = realm.node("node0").controller().metrics().snapshot();
  const obs::Snapshot mover =
      realm.node("node2").controller().metrics().snapshot();
  for (auto& hist : result.phases.histograms) {
    if (const auto* other = mover.histogram(hist.name)) hist.merge(*other);
  }

  realm.stop();
  fs::remove_all(dir);
  return result;
}

// --- lossy-link suspend/resume sweep ---------------------------------------
// Quantifies what the pipelined sliding-window rudp (SACK, RTT-adaptive
// timers) buys for the paper's core operation — suspending and resuming a
// live session — when the control channel crosses a lossy 1 ms link.
// "baseline" pins the transport to the seed's stop-and-wait shape: one
// packet in flight, fixed retransmit timer, no SACK-driven fast
// retransmit.

struct SweepModeResult {
  double suspend_p50 = 0, suspend_p95 = 0, suspend_p99 = 0;
  double resume_p50 = 0, resume_p95 = 0, resume_p99 = 0;
  std::uint64_t retransmits = 0;  // both directions
};

nsock::NodeConfig sweep_node_config(bool pipelined) {
  nsock::NodeConfig config;
  config.controller.security = false;
  auto& rudp = config.server.rudp_config;
  rudp.retransmit_interval = std::chrono::milliseconds(15);
  rudp.max_attempts = 40;
  if (!pipelined) {
    rudp.window_packets = 1;
    rudp.adaptive_rto = false;
    rudp.fast_retx_dupacks = 0;  // 0 disables fast retransmit
  }
  return config;
}

SweepModeResult run_loss_point(double loss, bool pipelined, int rounds) {
  net::SimNet net(/*seed=*/7);
  net.set_default_link(net::LinkConfig{.latency = 1ms, .datagram_loss = loss});
  nsock::Realm realm;
  for (const char* name : {"a", "b"}) {
    realm.add_node(name, net.add_node(name), sweep_node_config(pipelined));
  }
  if (!realm.start().ok()) std::abort();

  agent::AgentId cli("cli"), srv("srv");
  realm.locations().register_agent(cli,
                                   realm.node("a").server().node_info());
  realm.locations().register_agent(srv,
                                   realm.node("b").server().node_info());
  if (!realm.node("b").controller().listen(srv).ok()) std::abort();
  auto client = realm.node("a").controller().connect(cli, srv);
  if (!client.ok()) std::abort();
  auto server = realm.node("b").controller().accept(srv, 5s);
  if (!server.ok()) std::abort();

  auto& ctrl = realm.node("a").controller();
  for (int i = 0; i < rounds; ++i) {
    if (!ctrl.suspend(*client).ok()) std::abort();
    if (!ctrl.resume(*client).ok()) std::abort();
  }

  SweepModeResult result;
  const obs::Snapshot origin = ctrl.metrics().snapshot();
  if (const auto* h = origin.histogram("nsock_suspend_latency_us")) {
    result.suspend_p50 = h->percentile(50);
    result.suspend_p95 = h->percentile(95);
    result.suspend_p99 = h->percentile(99);
  }
  if (const auto* h = origin.histogram("nsock_resume_latency_us")) {
    result.resume_p50 = h->percentile(50);
    result.resume_p95 = h->percentile(95);
    result.resume_p99 = h->percentile(99);
  }
  // Loss hits both directions and retransmits accrue on each node's
  // sender, so sum the two controllers.
  const obs::Snapshot remote =
      realm.node("b").controller().metrics().snapshot();
  for (const obs::Snapshot* snap : {&origin, &remote}) {
    if (const auto* h = snap->histogram("rudp_retransmits_per_send")) {
      result.retransmits += h->sum;
    }
  }
  realm.stop();
  return result;
}

}  // namespace
}  // namespace naplet::bench

int main(int argc, char** argv) {
  using namespace naplet::bench;

  std::printf("Fault-tolerance extension ablation: delivery under injected "
              "link failures, recovery on vs off\n");
  std::printf("(The paper defers link/host failures to future work; this "
              "quantifies what the extension buys.)\n");

  const int failures = fast_mode() ? 2 : 4;
  const int per_phase = fast_mode() ? 5 : 10;
  const int total = (failures + 1) * per_phase;

  const RunResult off = run(false, failures, per_phase);
  const RunResult on = run(true, failures, per_phase);

  print_header("Delivery across " + std::to_string(failures) +
                   " link failures (" + std::to_string(total) +
                   " messages attempted)",
               {"mode", "delivered", "repairs", "time (ms)"});
  print_row({"recovery OFF", std::to_string(off.delivered) + "/" +
                                 std::to_string(total),
             std::to_string(off.repairs), fmt(off.elapsed_ms, 0)});
  print_row({"recovery ON", std::to_string(on.delivered) + "/" +
                                std::to_string(total),
             std::to_string(on.repairs), fmt(on.elapsed_ms, 0)});

  // Steady-state cost: send-to-delivery time per message with the
  // extension on vs off, no failures injected (history copies + heartbeat
  // traffic). Each run is timed from its first send to its last delivery,
  // so the drain's closing recv timeout stays out; the median of
  // interleaved repetitions damps host noise.
  const int steady_n = fast_mode() ? 2000 : 10000;
  constexpr int kSteadyReps = 9;
  std::vector<double> steady_off, steady_on;
  for (int rep = 0; rep < kSteadyReps; ++rep) {
    for (bool recovery : {false, true}) {
      const RunResult r = run(recovery, 0, steady_n, 100ms);
      (recovery ? steady_on : steady_off)
          .push_back(r.last_delivery_ms / static_cast<double>(steady_n));
    }
  }
  std::sort(steady_off.begin(), steady_off.end());
  std::sort(steady_on.begin(), steady_on.end());
  const double off_ms = steady_off[kSteadyReps / 2];
  const double on_ms = steady_on[kSteadyReps / 2];
  std::printf("\nsteady-state cost per message (median of %d, %d messages "
              "each): off %.3f us (%.3f-%.3f), on %.3f us (%.3f-%.3f), "
              "overhead %.1f%%\n",
              kSteadyReps, steady_n, 1e3 * off_ms, 1e3 * steady_off.front(),
              1e3 * steady_off.back(), 1e3 * on_ms, 1e3 * steady_on.front(),
              1e3 * steady_on.back(), 100.0 * (on_ms - off_ms) / off_ms);

  // Crash-restart recovery: journal replay + resume across a controller
  // restart (the PR-4 durability layer).
  const RestartResult restart = run_restart();
  std::printf("\ncrash-restart recovery: %s, %.1f ms restart->resumed, "
              "%llu resume retries\n",
              restart.ok ? "resumed" : "FAILED", restart.restart_recovery_ms,
              static_cast<unsigned long long>(restart.resume_retries));

  // Suspend/resume latency vs datagram loss, stop-and-wait transport vs the
  // pipelined sliding-window rudp (adaptive RTO + SACK fast retransmit).
  const std::vector<double> losses =
      fast_mode() ? std::vector<double>{0.0, 0.10}
                  : std::vector<double>{0.0, 0.05, 0.10, 0.20};
  const int sweep_rounds = fast_mode() ? 12 : 60;
  print_header("suspend/resume over lossy link (" +
                   std::to_string(sweep_rounds) + " rounds per point, us)",
               {"loss", "mode", "susp p50", "susp p95", "resume p50",
                "resume p95", "retx"});
  struct SweepRow {
    double loss;
    SweepModeResult baseline, pipelined;
  };
  std::vector<SweepRow> sweep;
  for (double loss : losses) {
    SweepRow row;
    row.loss = loss;
    row.baseline = run_loss_point(loss, /*pipelined=*/false, sweep_rounds);
    row.pipelined = run_loss_point(loss, /*pipelined=*/true, sweep_rounds);
    for (const auto& [label, r] :
         {std::pair<const char*, const SweepModeResult*>{"stop-and-wait",
                                                         &row.baseline},
          {"pipelined", &row.pipelined}}) {
      print_row({fmt(100.0 * loss, 0) + "%", label, fmt(r->suspend_p50, 0),
                 fmt(r->suspend_p95, 0), fmt(r->resume_p50, 0),
                 fmt(r->resume_p95, 0), std::to_string(r->retransmits)});
    }
    sweep.push_back(row);
  }
  // The acceptance bar for the transport rebuild: at 10% loss the pipelined
  // stack halves the suspend->resume p95 relative to stop-and-wait.
  bool sweep_ok = false;
  double base_p95 = 0, pipe_p95 = 0;
  for (const auto& row : sweep) {
    if (std::abs(row.loss - 0.10) > 1e-9) continue;
    base_p95 = row.baseline.suspend_p95 + row.baseline.resume_p95;
    pipe_p95 = row.pipelined.suspend_p95 + row.pipelined.resume_p95;
    sweep_ok = pipe_p95 > 0 && base_p95 >= 2.0 * pipe_p95;
  }

  std::printf("\nshape checks:\n");
  std::printf("  recovery ON delivers everything : %s (%d/%d)\n",
              on.delivered == total ? "PASS" : "FAIL", on.delivered, total);
  std::printf("  recovery OFF loses messages     : %s (%d/%d)\n",
              off.delivered < total ? "PASS" : "FAIL", off.delivered, total);
  std::printf("  repairs occurred                : %s (%llu)\n",
              on.repairs >= 1 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(on.repairs));
  std::printf("  restart recovery resumes        : %s\n",
              restart.ok ? "PASS" : "FAIL");
  std::printf("  pipelined >=2x at 10%% loss      : %s "
              "(suspend+resume p95: %.0f us vs %.0f us)\n",
              sweep_ok ? "PASS" : "FAIL", base_p95, pipe_p95);

  if (json_flag(argc, argv)) {
    JsonObject obj;
    obj.field("bench", std::string("ext_failure_recovery"))
        .field("failures", static_cast<std::uint64_t>(failures))
        .field("attempted", static_cast<std::uint64_t>(total))
        .field("delivered_recovery_off",
               static_cast<std::uint64_t>(off.delivered))
        .field("delivered_recovery_on",
               static_cast<std::uint64_t>(on.delivered))
        .field("repairs_off", off.repairs)
        .field("repairs_on", on.repairs)
        .field("elapsed_ms_off", off.elapsed_ms)
        .field("elapsed_ms_on", on.elapsed_ms)
        .field("steady_state_ms_off", off_ms)
        .field("steady_state_ms_on", on_ms)
        .field("restart_recovery_ms", restart.restart_recovery_ms)
        .field("resume_retries", restart.resume_retries);
    // Per-phase percentiles of the crash-restart migration, from the merged
    // origin+mover controller histograms.
    const std::pair<const char*, const char*> kPhases[] = {
        {"suspend", "nsock_suspend_latency_us"},
        {"drain", "nsock_drain_time_us"},
        {"handoff", "nsock_handoff_time_us"},
        {"resume", "nsock_resume_latency_us"},
    };
    for (const auto& [label, name] : kPhases) {
      const auto* h = restart.phases.histogram(name);
      if (h == nullptr) continue;
      obj.raw(label, JsonObject()
                         .field("count", h->count)
                         .field("mean_us", h->mean())
                         .field("p50_us", h->percentile(50))
                         .field("p95_us", h->percentile(95))
                         .field("p99_us", h->percentile(99))
                         .render());
    }
    // Per-loss-rate suspend/resume percentiles for each transport mode
    // (new keys; everything above is unchanged for existing consumers).
    const auto mode_json = [](const SweepModeResult& r) {
      return JsonObject()
          .field("suspend_p50_us", r.suspend_p50)
          .field("suspend_p95_us", r.suspend_p95)
          .field("suspend_p99_us", r.suspend_p99)
          .field("resume_p50_us", r.resume_p50)
          .field("resume_p95_us", r.resume_p95)
          .field("resume_p99_us", r.resume_p99)
          .field("retransmits", r.retransmits)
          .render();
    };
    std::vector<std::string> sweep_points;
    for (const auto& row : sweep) {
      sweep_points.push_back(
          JsonObject()
              .field("loss_pct", 100.0 * row.loss)
              .field("rounds", static_cast<std::uint64_t>(sweep_rounds))
              .raw("stop_and_wait", mode_json(row.baseline))
              .raw("pipelined", mode_json(row.pipelined))
              .render());
    }
    obj.raw("loss_sweep", json_array(sweep_points));
    write_json_file("BENCH_ext_failure_recovery.json", obj.render());
  }
  return 0;
}
