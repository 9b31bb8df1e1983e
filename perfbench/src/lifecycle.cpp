// lifecycle: the paper's synchronous transient communication unit over
// TCP loopback. Four nodes run the shipping controller (security on at the
// default DH group) with durability on, journaling into the run directory.
// One client thread controls a mobile agent that keeps four persistent
// connections to stationary agents on nodes 2-3 and hops between nodes 0
// and 1. Each iteration opens a fresh secure connection, has every peer
// write unread messages, hops (prepare -> export -> import -> complete),
// reads and verifies the replayed bytes, and closes the fresh connection.
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "ledger.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace agent = naplet::agent;
namespace nsock = naplet::nsock;
namespace util = naplet::util;
using namespace std::chrono_literals;

constexpr int kNodes = 4;
constexpr int kPersistent = 4;
constexpr int kMsgsPerPeer = 4;       // unread messages each peer writes
constexpr std::size_t kMsgBytes = 256;
constexpr int kSetups = 7;
constexpr int kWarmupIterations = 3;
constexpr double kWindowS = 2.0;  // ~100 hops per window

/// One connection of the mobile agent: the stationary peer's handle (which
/// never moves), the verifier, and the writer the peer sends with.
struct Conn {
  std::uint64_t id = 0;
  nsock::SessionPtr peer;
  std::unique_ptr<MessageWriter> writer;
  std::unique_ptr<MessageChecker> checker;
};

struct LifecycleRealm {
  ~LifecycleRealm() {
    conns.clear();
    realm.stop();
  }
  nsock::SocketController& ctrl(int i) {
    return realm.node(nodes[static_cast<std::size_t>(i)]).controller();
  }
  agent::NodeInfo info(int i) {
    return realm.node(nodes[static_cast<std::size_t>(i)]).server().node_info();
  }

  nsock::Realm realm;  // TCP loopback
  std::vector<std::string> nodes;
  agent::AgentId mob{"mob"};
  std::vector<agent::AgentId> stationary;  // on nodes 2 and 3
  std::vector<Conn> conns;                 // the persistent ones
  int at = 0;                              // node the agent is on
};

Conn open_conn(LifecycleRealm& r, int peer_index, Tracer* tracer,
               std::uint64_t op, Samples* connect_ms) {
  const agent::AgentId& peer = r.stationary[static_cast<std::size_t>(peer_index)];
  const std::int64_t t0 = now_ns();
  util::StatusOr<nsock::SessionPtr> mine = util::Unavailable("not attempted");
  {
    ScopedSpan s(tracer, "core.controller.connect", op);
    mine = r.ctrl(r.at).connect(r.mob, peer);
  }
  if (!mine.ok()) return {};
  if (connect_ms != nullptr) {
    connect_ms->add(static_cast<double>(now_ns() - t0) / 1e6);
  }
  util::StatusOr<nsock::SessionPtr> theirs = util::Unavailable("not attempted");
  {
    ScopedSpan s(tracer, "core.controller.accept", op);
    theirs = r.ctrl(2 + peer_index).accept(peer, 5s);
  }
  if (!theirs.ok()) return {};
  Conn c;
  c.id = (*mine)->conn_id();
  c.peer = std::move(*theirs);
  c.writer = std::make_unique<MessageWriter>(c.id, kMsgBytes);
  c.checker = std::make_unique<MessageChecker>(c.id);
  return c;
}

std::unique_ptr<LifecycleRealm> set_up(const std::string& dir,
                                       SetupTimes& times) {
  const SetupClock clock;
  std::filesystem::create_directories(dir);
  auto r = std::make_unique<LifecycleRealm>();
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    nsock::NodeConfig config;  // shipping ControllerConfig{}, plus:
    config.controller.durability.enabled = true;
    config.controller.durability.dir = dir + "/" + name;
    r->realm.add_node(name, config);
    r->nodes.push_back(name);
  }
  if (const auto st = r->realm.start(); !st.ok()) {
    throw std::runtime_error("lifecycle: realm start: " + st.to_string());
  }
  r->realm.locations().register_agent(r->mob, r->info(0));
  for (int k = 0; k < 2; ++k) {
    agent::AgentId st("st" + std::to_string(k + 2));
    r->realm.locations().register_agent(st, r->info(k + 2));
    if (!r->ctrl(k + 2).listen(st).ok()) {
      throw std::runtime_error("lifecycle: listen");
    }
    r->stationary.push_back(st);
  }
  for (int i = 0; i < kPersistent; ++i) {
    Conn c = open_conn(*r, i % 2, nullptr, 0, nullptr);
    if (c.peer == nullptr) throw std::runtime_error("lifecycle: connect");
    r->conns.push_back(std::move(c));
  }
  times.add(clock);
  return r;
}

struct Phase {
  Samples connect_ms;
  Timeline hop_ms;
  Timeline done;  // completed iterations
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::int64_t start = 0;
  std::int64_t deadline = 0;
  double seconds = 0;
  double cpu_s = 0;  // process CPU time over the phase
  double replay_bytes = 0;
  double replayed_frames = 0;
};

/// One hop of the agent from r.at to the other hop node. Returns false
/// when the migration failed (the agent then stays where it was).
bool hop(LifecycleRealm& r, Tracer* tracer, std::uint64_t op,
         const std::vector<std::uint64_t>& ids, Phase& p) {
  const int from = r.at;
  const int to = 1 - from;
  agent::LocationService& locations = r.realm.locations();
  locations.begin_migration(r.mob);
  util::Status st = util::OkStatus();
  {
    ScopedSpan s(tracer, "core.controller.prepare_migration", op);
    st = r.ctrl(from).prepare_migration(r.mob);
  }
  if (!st.ok()) {
    locations.register_agent(r.mob, r.info(from));
    (void)r.ctrl(from).complete_migration(r.mob);
    return false;
  }
  for (std::uint64_t id : ids) {
    if (auto s = r.ctrl(from).session_by_id(id)) {
      p.replay_bytes += static_cast<double>(s->buffered_bytes());
    }
  }
  util::Bytes blob;
  {
    ScopedSpan s(tracer, "core.controller.export_sessions", op);
    blob = r.ctrl(from).export_sessions(r.mob);
  }
  {
    ScopedSpan s(tracer, "core.controller.import_sessions", op);
    st = r.ctrl(to).import_sessions(r.mob,
                                    util::ByteSpan(blob.data(), blob.size()));
  }
  locations.register_agent(r.mob, r.info(to));
  if (st.ok()) {
    ScopedSpan s(tracer, "core.controller.complete_migration", op);
    st = r.ctrl(to).complete_migration(r.mob);
  }
  r.at = to;
  return st.ok();
}

/// Peers write, the agent hops, then reads back every unread message.
bool iteration(LifecycleRealm& r, SplitMix& rng, Tracer* tracer,
               std::uint64_t op, Phase& p, Outcome& outcome) {
  ScopedSpan root(tracer, "op.lifecycle.iteration", op);
  Conn fresh = open_conn(r, static_cast<int>(rng.below(2)), tracer, op,
                         &p.connect_ms);
  if (fresh.peer == nullptr) return false;

  std::vector<Conn*> all;
  for (Conn& c : r.conns) all.push_back(&c);
  all.push_back(&fresh);
  std::vector<std::uint64_t> ids;
  for (Conn* c : all) {
    ids.push_back(c->id);
    for (int m = 0; m < kMsgsPerPeer; ++m) {
      ScopedSpan s(tracer, "core.session.send", op);
      if (!c->peer->send(c->writer->next(), 5s).ok()) return false;
    }
  }

  const std::int64_t t0 = now_ns();
  if (!hop(r, tracer, op, ids, p)) return false;
  const std::int64_t t1 = now_ns();
  p.hop_ms.add(t1, static_cast<double>(t1 - t0) / 1e6);

  for (Conn* c : all) {
    nsock::SessionPtr mine = r.ctrl(r.at).session_by_id(c->id);
    if (mine == nullptr || mine->state() != nsock::ConnState::kEstablished) {
      outcome.error("lifecycle: conn " + std::to_string(c->id) +
                    " not ESTABLISHED after the hop");
      return false;
    }
    while (c->checker->received() < c->writer->sent()) {
      util::StatusOr<nsock::RecvResult> got = util::Unavailable("not read");
      {
        ScopedSpan s(tracer, "core.session.recv", op);
        got = mine->recv(5s);
      }
      if (!got.ok()) return false;
      if (got->from_buffer) p.replayed_frames += 1;
      const std::string bad = c->checker->accept(
          util::ByteSpan(got->body.data(), got->body.size()));
      if (!bad.empty()) {
        outcome.error("lifecycle: " + bad);
        return false;
      }
    }
  }
  nsock::SessionPtr mine = r.ctrl(r.at).session_by_id(fresh.id);
  ScopedSpan s(tracer, "core.controller.close", op);
  return mine != nullptr && r.ctrl(r.at).close(mine).ok();
}

Phase run_phase(LifecycleRealm& r, double seconds, int iterations,
                std::uint64_t seed, Tracer* tracer, BusProbe* probe,
                Outcome& outcome) {
  Phase p;
  const double cpu_before = ProcCounters::now().cpu_s;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      seconds > 0 ? start + static_cast<std::int64_t>(seconds * 1e9) : 0;
  std::thread client([&] {
    SplitMix rng(seed);
    std::uint64_t op = 0;
    while (deadline > 0 ? now_ns() < deadline
                        : op < static_cast<std::uint64_t>(iterations)) {
      ++op;
      ++p.ops;
      if (iteration(r, rng, tracer, op, p, outcome)) {
        p.done.add(now_ns(), 0);
      } else {
        ++p.failed;
      }
    }
  });
  probe_until(probe, deadline);
  client.join();
  p.cpu_s = ProcCounters::now().cpu_s - cpu_before;
  p.start = start;
  p.deadline = deadline;
  p.seconds = static_cast<double>(now_ns() - start) / 1e9;
  outcome.attempted += p.ops;
  outcome.failed += p.failed;
  return p;
}

void headline(const Phase& p, MetricSet& e2e) {
  set_headline(e2e, p.done.window_rates(p.start, p.deadline, kWindowS).median(),
               p.done.size(),
               p.hop_ms.window_quantiles(50, p.start, p.deadline, kWindowS).median(),
               p.hop_ms.window_quantiles(90, p.start, p.deadline, kWindowS).median(),
               p.hop_ms.size(),
               ratio(p.cpu_s * 1e6, static_cast<double>(p.done.size())));
}

}  // namespace

Outcome run_lifecycle(const Options& options) {
  Outcome out;
  SetupTimes setup;
  const std::string base = options.run_dir + "/lifecycle";
  std::filesystem::create_directories(base);

  auto r = set_up(base + "/setup0", setup);
  run_phase(*r, 0, kWarmupIterations, options.seed ^ 0xa5a5, nullptr, nullptr,
            out);

  Phase measured;
  if (!options.trace) {
    measured = run_phase(*r, options.seconds, 0, options.seed, nullptr,
                         nullptr, out);
    headline(measured, out.e2e);
  } else {
    measured = run_phase(*r, options.seconds / 2, 0, options.seed, nullptr,
                         nullptr, out);
    headline(measured, out.e2e);

    Tracer tracer;
    BusProbe probe(r->realm.node("node0").server().bus(),
                   r->realm.node("node2").server().bus());
    const Counters before = read_counters(r->realm, r->nodes);
    const ProcCounters proc_before = ProcCounters::now();
    const Phase traced = run_phase(*r, options.seconds / 2, 0,
                                   options.seed + 1, &tracer, &probe, out);
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
    in.security = true;
    const auto group = r->ctrl(0).config().dh_group;
    in.dh = time_dh(group, 20);
    const nsock::CtrlMsg sus = sample_sus(r->info(r->at), "mob", true);
    const util::Bytes payload = sus.mac_payload();
    in.hmac_us = time_hmac_us(util::ByteSpan(payload.data(), payload.size()));
    in.codec_us = time_ctrl_codec_us(sus);
    in.ctrl_bytes = static_cast<double>(sus.encode().size());
    in.hops = static_cast<double>(traced.ops - traced.failed);
    in.replay_bytes = traced.replay_bytes;
    in.replayed_frames = traced.replayed_frames;
    // Journal records carry a session blob: an established session's
    // export plus its share of the replay buffer.
    std::size_t blob = 0;
    if (auto s = r->ctrl(r->at).session_by_id(r->conns.front().id)) {
      blob = s->export_state().size();
    }
    blob += static_cast<std::size_t>(
        ratio(traced.replay_bytes, in.hops * (kPersistent + 1)));
    in.record_us = time_journal_record_us(base + "/record-probe", blob, 256);
    fill_ledger(in, out.layers);
    if (!tracer.write(options.run_dir + "/spans-lifecycle.jsonl")) {
      out.error("lifecycle: cannot write the span file");
    }
  }

  const double fail_ratio =
      ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  r.reset();
  for (int i = 1; i < (options.trace ? 1 : kSetups); ++i) {
    set_up(base + "/setup" + std::to_string(i), setup);
  }
  setup.report(out);

  MetricSet& d = out.detail;
  d.set("fail_ratio", fail_ratio, "ratio", out.attempted);
  d.set("ops_per_s", out.e2e.value("ops_per_s"), "1/s", measured.done.size());
  d.set("connect_ms_p50", measured.connect_ms.quantile(50), "ms",
        measured.connect_ms.size());
  d.set("connect_ms_p99", measured.connect_ms.quantile(99), "ms",
        measured.connect_ms.size());
  const Samples hops = measured.hop_ms.values();
  d.set("hop_ms_p50", hops.quantile(50), "ms", hops.size());
  d.set("hop_ms_p99", hops.quantile(99), "ms", hops.size());
  d.set("cpu_us_per_op", out.e2e.value("cpu_us_per_op"), "us",
        measured.done.size());
  return out;
}

}  // namespace perfbench
