// churn: one hot controller holding 10,240 idle SimNet sessions to three
// server nodes, security off (the paper's Table 1 "w/o security" mode).
// One worker per core applies a seeded 7:1 mix of suspend+resume to
// close+reconnect on randomly chosen sessions: a closed loop with one op
// in flight per worker. Nearly all the work is control plane (CtrlMsg
// codec, rudp, bus dispatch, FSM, sharded table, redirector handoff).
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "ledger.hpp"
#include "net/sim.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace agent = naplet::agent;
namespace nsock = naplet::nsock;
using namespace std::chrono_literals;

constexpr int kServers = 3;
constexpr int kTarget = 10240;
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 0.5;
constexpr double kWindowS = 0.5;

struct ChurnRealm {
  explicit ChurnRealm(std::uint64_t seed) : net(seed) {}
  ~ChurnRealm() { stop(); }
  ChurnRealm(const ChurnRealm&) = delete;
  ChurnRealm& operator=(const ChurnRealm&) = delete;

  void stop() {
    accept_done.store(true);
    if (acceptor.joinable()) acceptor.join();
    fleet.clear();
    realm.stop();
  }
  nsock::SocketController& hot() { return realm.node("node0").controller(); }

  naplet::net::SimNet net;  // outlives the realm's nodes
  nsock::Realm realm;
  std::vector<std::string> nodes;
  std::vector<agent::AgentId> servers;
  std::vector<agent::AgentId> clients;  // one per worker, all on node0
  std::vector<std::vector<nsock::SessionPtr>> fleet;  // per worker
  std::atomic<bool> accept_done{false};
  std::thread acceptor;
  double mem_per_session_bytes = 0;
};

/// Realm start + the ramp to kTarget sessions: everything set-up time
/// covers.
std::unique_ptr<ChurnRealm> set_up(std::uint64_t seed, int workers,
                                   SetupTimes& times) {
  const SetupClock clock;
  auto r = std::make_unique<ChurnRealm>(seed);
  for (int i = 0; i <= kServers; ++i) {
    const std::string name = "node" + std::to_string(i);
    nsock::NodeConfig config;
    config.controller.security = false;  // Table 1 "w/o security"
    r->realm.add_node(name, r->net.add_node(name), config);
    r->nodes.push_back(name);
  }
  if (!r->realm.start().ok()) throw std::runtime_error("churn: realm start");

  for (int i = 1; i <= kServers; ++i) {
    agent::AgentId srv("srv" + std::to_string(i));
    auto& node = r->realm.node("node" + std::to_string(i));
    r->realm.locations().register_agent(srv, node.server().node_info());
    if (!node.controller().listen(srv).ok()) {
      throw std::runtime_error("churn: listen");
    }
    r->servers.push_back(srv);
  }
  // One passive acceptor pops the server-side queues so closed sessions do
  // not pile up behind unpopped entries; the controllers keep their own
  // references to live sessions.
  r->acceptor = std::thread([raw = r.get()] {
    while (!raw->accept_done.load()) {
      for (int i = 1; i <= kServers; ++i) {
        auto& ctrl = raw->realm.node("node" + std::to_string(i)).controller();
        while (ctrl.accept(raw->servers[static_cast<std::size_t>(i - 1)], 20ms)
                   .ok()) {
        }
      }
    }
  });
  for (int w = 0; w < workers; ++w) {
    agent::AgentId cli("cli" + std::to_string(w));
    r->realm.locations().register_agent(
        cli, r->realm.node("node0").server().node_info());
    r->clients.push_back(cli);
  }

  const std::uint64_t rss_before = ProcCounters::now().max_rss_bytes;
  r->fleet.resize(static_cast<std::size_t>(workers));
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        const int share = kTarget / workers + (w < kTarget % workers ? 1 : 0);
        auto& mine = r->fleet[static_cast<std::size_t>(w)];
        mine.reserve(static_cast<std::size_t>(share));
        for (int i = 0; i < share; ++i) {
          auto conn = r->hot().connect(
              r->clients[static_cast<std::size_t>(w)],
              r->servers[static_cast<std::size_t>((w + i) % kServers)]);
          if (!conn.ok()) {
            failures.fetch_add(1);
            continue;
          }
          mine.push_back(std::move(*conn));
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  if (failures.load() != 0 || r->hot().session_count() != kTarget) {
    throw std::runtime_error("churn: ramp fell short of the target");
  }
  const std::uint64_t rss_after = ProcCounters::now().max_rss_bytes;
  r->mem_per_session_bytes =
      static_cast<double>(rss_after - std::min(rss_after, rss_before)) /
      (2.0 * kTarget);  // both endpoints live in this process
  times.add(clock);
  return r;
}

struct Phase {
  Timeline done;        // every completed op
  Timeline sr_ms;       // suspend + resume
  Timeline connect_ms;  // the connect half of close + reconnect
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::int64_t start = 0;
  std::int64_t deadline = 0;
  double seconds = 0;
  double cpu_s = 0;  // process CPU time over the phase
};

Phase run_phase(ChurnRealm& r, double seconds, std::uint64_t seed,
                Tracer* tracer, BusProbe* probe, Outcome& outcome) {
  const int workers = static_cast<int>(r.fleet.size());
  std::vector<Phase> per(static_cast<std::size_t>(workers));
  std::vector<std::vector<std::string>> errors(
      static_cast<std::size_t>(workers));
  const double cpu_before = ProcCounters::now().cpu_s;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      const auto wi = static_cast<std::size_t>(w);
      SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + wi);
      auto& mine = r.fleet[wi];
      Phase& me = per[wi];
      nsock::SocketController& hot = r.hot();
      std::uint64_t op = (static_cast<std::uint64_t>(w) << 48);
      while (now_ns() < deadline) {
        ++op;
        nsock::SessionPtr& sock = mine[rng.below(mine.size())];
        const bool reconnect = rng.below(8) == 0;
        bool ok = true;
        const std::int64_t t0 = now_ns();
        if (reconnect) {
          ScopedSpan root(tracer, "op.churn.reconnect", op);
          {
            ScopedSpan s(tracer, "core.controller.close", op);
            ok = hot.close(sock).ok();
          }
          const auto& server = r.servers[rng.below(r.servers.size())];
          const std::int64_t tc = now_ns();
          naplet::util::StatusOr<nsock::SessionPtr> conn =
              naplet::util::Unavailable("not attempted");
          {
            ScopedSpan s(tracer, "core.controller.connect", op);
            conn = hot.connect(r.clients[wi], server);
          }
          if (conn.ok()) {
            const std::int64_t t = now_ns();
            me.connect_ms.add(t, static_cast<double>(t - tc) / 1e6);
            sock = std::move(*conn);
          } else {
            ok = false;
          }
        } else {
          ScopedSpan root(tracer, "op.churn.suspend_resume", op);
          {
            ScopedSpan s(tracer, "core.controller.suspend", op);
            ok = hot.suspend(sock).ok();
          }
          if (ok) {
            ScopedSpan s(tracer, "core.controller.resume", op);
            ok = hot.resume(sock).ok();
          }
          if (ok) {
            const std::int64_t t = now_ns();
            me.sr_ms.add(t, static_cast<double>(t - t0) / 1e6);
          }
        }
        if (ok && sock->state() != nsock::ConnState::kEstablished) {
          errors[wi].push_back("churn: session not ESTABLISHED after op");
        }
        ++me.ops;
        if (ok) {
          me.done.add(now_ns(), 0);
        } else {
          ++me.failed;
        }
      }
    });
  }
  probe_until(probe, deadline);
  for (auto& t : pool) t.join();

  Phase all;
  all.cpu_s = ProcCounters::now().cpu_s - cpu_before;
  all.start = start;
  all.deadline = deadline;
  all.seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (std::size_t w = 0; w < per.size(); ++w) {
    all.done.append(per[w].done);
    all.sr_ms.append(per[w].sr_ms);
    all.connect_ms.append(per[w].connect_ms);
    all.ops += per[w].ops;
    all.failed += per[w].failed;
    for (const auto& e : errors[w]) outcome.error(e);
  }
  outcome.attempted += all.ops;
  outcome.failed += all.failed;
  if (r.hot().session_count() != kTarget) {
    outcome.error("churn: table holds " +
                  std::to_string(r.hot().session_count()) + " sessions, not " +
                  std::to_string(kTarget));
  }
  return all;
}

void headline(const Phase& p, MetricSet& e2e) {
  set_headline(e2e, p.done.window_rates(p.start, p.deadline, kWindowS).median(),
               p.done.size(),
               p.sr_ms.window_quantiles(50, p.start, p.deadline, kWindowS).median(),
               p.sr_ms.window_quantiles(90, p.start, p.deadline, kWindowS).median(),
               p.sr_ms.size(),
               ratio(p.cpu_s * 1e6, static_cast<double>(p.done.size())));
}

}  // namespace

Outcome run_churn(const Options& options) {
  Outcome out;
  const int workers = static_cast<int>(nproc());
  SetupTimes setup;

  auto r = set_up(options.seed, workers, setup);
  const double mem_per_session = r->mem_per_session_bytes;
  run_phase(*r, kWarmupSeconds, options.seed ^ 0xa5a5, nullptr, nullptr, out);

  Phase measured;
  if (!options.trace) {
    measured = run_phase(*r, options.seconds, options.seed, nullptr, nullptr,
                         out);
    headline(measured, out.e2e);
  } else {
    measured = run_phase(*r, options.seconds / 2, options.seed, nullptr,
                         nullptr, out);
    headline(measured, out.e2e);

    Tracer tracer;
    BusProbe probe(r->realm.node("node0").server().bus(),
                   r->realm.node("node1").server().bus());
    const Counters before = read_counters(r->realm, r->nodes);
    const ProcCounters proc_before = ProcCounters::now();
    const Phase traced = run_phase(*r, options.seconds / 2, options.seed + 1,
                                   &tracer, &probe, out);
    ProcCounters proc = ProcCounters::now();
    const Counters after = read_counters(r->realm, r->nodes);

    MetricSet traced_e2e;
    headline(traced, traced_e2e);
    set_overhead(out.layers, out.e2e, traced_e2e);

    LedgerInput in;
    in.ops = static_cast<double>(traced.ops);
    in.wall_s = traced.seconds;
    in.delta = after.minus(before);
    in.spans = tracer.summarize();
    in.probe_rtt_us = probe.rtt_us();
    in.probe_lag_us = probe.lag_us();
    in.probes = probe.sent();
    proc.cpu_s -= proc_before.cpu_s;
    proc.ctx_switches -= proc_before.ctx_switches;
    in.proc = proc;
    in.security = false;
    const nsock::CtrlMsg sus = sample_sus(
        r->realm.node("node0").server().node_info(), "cli0", false);
    in.codec_us = time_ctrl_codec_us(sus);
    in.ctrl_bytes = static_cast<double>(sus.encode().size());
    const auto shards = r->hot().stats().shard_sessions;
    if (!shards.empty()) {
      double sum = 0, max = 0;
      for (std::size_t s : shards) {
        sum += static_cast<double>(s);
        max = std::max(max, static_cast<double>(s));
      }
      in.shard_max_over_mean = max / (sum / static_cast<double>(shards.size()));
    }
    fill_ledger(in, out.layers);
    if (!tracer.write(options.run_dir + "/spans-churn.jsonl")) {
      out.error("churn: cannot write the span file");
    }
  }

  const double fail_ratio =
      ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  r.reset();
  // Further set-ups only for the set-up time median (the first one is the
  // one measured, so its memory figure sees a fresh heap).
  for (int i = 1; i < (options.trace ? 1 : kSetups); ++i) {
    set_up(options.seed + static_cast<std::uint64_t>(i), workers, setup);
  }
  setup.report(out);

  MetricSet& d = out.detail;
  d.set("fail_ratio", fail_ratio, "ratio", out.attempted);
  const Samples sr = measured.sr_ms.values();
  const Samples connect = measured.connect_ms.values();
  d.set("ops_per_s", out.e2e.value("ops_per_s"), "1/s", measured.done.size());
  d.set("suspend_resume_ms_p50", sr.quantile(50), "ms", sr.size());
  d.set("suspend_resume_ms_p99", sr.quantile(99), "ms", sr.size());
  d.set("connect_ms_p50", connect.quantile(50), "ms", connect.size());
  d.set("connect_ms_p99", connect.quantile(99), "ms", connect.size());
  d.set("mem_per_session_bytes", mem_per_session, "bytes", 2 * kTarget);
  d.set("cpu_us_per_op", out.e2e.value("cpu_us_per_op"), "us",
        measured.done.size());
  return out;
}

}  // namespace perfbench
