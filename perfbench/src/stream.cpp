// stream: the data path alone. One session pair set up by the shipping
// controller over TCP loopback, no migration, in three phases:
//   1. 64 B ping-pong between two threads (round-trip time);
//   2. 64 B one-way, pipelined (small-message rate);
//   3. 16 KiB both directions at once, two writers and two readers on the
//      same two sessions (bulk rate; shows send/recv lock coupling).
// Every message is checked for exactly-once, in-order delivery.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
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

constexpr std::size_t kSmall = 64;
constexpr std::size_t kBulk = 16 * 1024;
constexpr int kSetups = 9;
constexpr double kWindowS = 0.1;  // throughput is the median window rate
constexpr double kRttWindowS = 0.4;
constexpr double kRoundS = 3.0;  // one round of the three phases
constexpr std::uint64_t kBatch = 256;  // one-way messages per lock-step batch
// Phase shares of the measured time: ping-pong, one-way, bulk.
constexpr double kShare[3] = {0.4, 0.3, 0.3};
constexpr std::uint64_t kOpen = std::numeric_limits<std::uint64_t>::max();

struct StreamRealm {
  ~StreamRealm() {
    a.reset();
    b.reset();
    realm.stop();
  }
  nsock::Realm realm;  // TCP loopback
  std::vector<std::string> nodes{"node0", "node1"};
  nsock::SessionPtr a;  // client side, node0
  nsock::SessionPtr b;  // server side, node1
  MessageWriter ab{1, kSmall};
  MessageWriter ba{2, kSmall};
  MessageChecker at_b{1};
  MessageChecker at_a{2};
};

std::unique_ptr<StreamRealm> set_up(SetupTimes& times) {
  const SetupClock clock;
  auto r = std::make_unique<StreamRealm>();
  for (const std::string& name : r->nodes) r->realm.add_node(name);
  if (!r->realm.start().ok()) throw std::runtime_error("stream: realm start");
  auto& n0 = r->realm.node("node0");
  auto& n1 = r->realm.node("node1");
  const agent::AgentId alice("alice"), bob("bob");
  r->realm.locations().register_agent(alice, n0.server().node_info());
  r->realm.locations().register_agent(bob, n1.server().node_info());
  if (!n1.controller().listen(bob).ok()) {
    throw std::runtime_error("stream: listen");
  }
  auto a = n0.controller().connect(alice, bob);
  if (!a.ok()) throw std::runtime_error("stream: connect");
  auto b = n1.controller().accept(bob, 5s);
  if (!b.ok()) throw std::runtime_error("stream: accept");
  r->a = std::move(*a);
  r->b = std::move(*b);
  times.add(clock);
  return r;
}

/// Shared state of one phase's threads.
struct PhaseCtx {
  Tracer* tracer = nullptr;
  std::int64_t start = 0;
  std::int64_t deadline = 0;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> failed{0};
  util::Mutex mu{util::LockRank::kUnranked, "perfbench.stream"};
  std::vector<std::string> errors;
  std::vector<double> window_bytes;  // received payload bytes per window

  void error(const std::string& what) {
    failed.fetch_add(1);
    util::MutexLock lock(mu);
    if (errors.size() < 20) errors.push_back(what);
  }
  /// Credit received bytes to the current window.
  void credit(std::vector<double>& local, std::size_t bytes) const {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(now_ns() - start) / 1e9 / kWindowS);
    if (local.size() <= w) local.resize(w + 1, 0);
    local[w] += static_cast<double>(bytes);
  }
  void merge(const std::vector<double>& local) {
    util::MutexLock lock(mu);
    if (window_bytes.size() < local.size()) window_bytes.resize(local.size(), 0);
    for (std::size_t i = 0; i < local.size(); ++i) window_bytes[i] += local[i];
  }
  /// Median rate over the windows that lie wholly inside the timed part.
  [[nodiscard]] Samples window_rates(std::size_t unit) const {
    Samples rates;
    const auto full = static_cast<std::size_t>(
        static_cast<double>(deadline - start) / 1e9 / kWindowS);
    for (std::size_t i = 0; i < std::min(full, window_bytes.size()); ++i) {
      rates.add(window_bytes[i] / static_cast<double>(unit) / kWindowS);
    }
    return rates;
  }
};

/// Lock-step batches for the one-way phase: the writer sends `size`
/// messages back to back; only then does the reader drain them, and only
/// after that does the next batch start. Left free-running, the pipelined
/// rate flips between a regime where the reader keeps up (one wake-up per
/// message) and one where it lags (many frames per read), and the figure
/// depends on which one a run falls into.
struct BatchGate {
  std::uint64_t size = 0;
  std::atomic<std::uint64_t> written{0};  // batches the writer finished
  std::atomic<std::uint64_t> drained{0};  // batches the reader finished

  static void wait_for(std::atomic<std::uint64_t>& counter,
                       std::uint64_t want) {
    for (std::uint64_t v = counter.load(); v < want; v = counter.load()) {
      counter.wait(v);
    }
  }
  static void publish(std::atomic<std::uint64_t>& counter, std::uint64_t v) {
    counter.store(v);
    counter.notify_one();
  }
  /// After the writer's `sent`-th message.
  void writer_sent(std::uint64_t sent) {
    if (sent % size != 0) return;
    publish(written, sent / size);
    wait_for(drained, sent / size);
  }
  /// The writer stopped: let the reader drain a partial last batch.
  void writer_done() { publish(written, kOpen); }
  /// Before the reader's next read, having received `received`.
  void reader_next(std::uint64_t received) {
    wait_for(written, received / size + 1);
  }
  /// After the reader's `received`-th message.
  void reader_got(std::uint64_t received) {
    if (received % size == 0) publish(drained, received / size);
  }
  void reader_done() { publish(drained, kOpen); }
};

/// Writer: sends until the deadline, then publishes how many it sent.
void write_until(nsock::Session& s, MessageWriter& w, PhaseCtx& ctx,
                 std::atomic<std::uint64_t>& total, std::uint64_t op,
                 BatchGate* gate = nullptr) {
  std::uint64_t n = 0;
  while (now_ns() < ctx.deadline) {
    util::Status st = util::OkStatus();
    {
      ScopedSpan span(ctx.tracer, "core.session.send", op);
      st = s.send(w.next(), 10s);
    }
    if (!st.ok()) {
      ctx.error("stream: send failed: " + st.to_string());
      break;
    }
    ++n;
    if (gate != nullptr) gate->writer_sent(n);
  }
  ctx.sent.fetch_add(n);
  total.store(n);
  if (gate != nullptr) gate->writer_done();
}

/// Reader: receives and checks until `total` messages (once published)
/// have arrived.
void read_all(nsock::Session& s, MessageChecker& c, std::size_t size,
              PhaseCtx& ctx, const std::atomic<std::uint64_t>& total,
              std::uint64_t op, BatchGate* gate = nullptr) {
  // A reader that stops early must not leave the writer waiting.
  struct Release {
    BatchGate* gate;
    ~Release() {
      if (gate != nullptr) gate->reader_done();
    }
  } release{gate};
  const std::uint64_t base = c.received();
  std::vector<double> windows;
  const std::int64_t give_up = ctx.deadline + 20'000'000'000LL;
  while (c.received() - base < total.load()) {
    if (gate != nullptr) gate->reader_next(c.received() - base);
    util::StatusOr<nsock::RecvResult> got = util::Unavailable("not read");
    {
      ScopedSpan span(ctx.tracer, "core.session.recv", op);
      got = s.recv(100ms);
    }
    if (!got.ok()) {
      if (got.status().code() == util::StatusCode::kTimeout &&
          now_ns() < give_up) {
        continue;
      }
      ctx.error("stream: recv failed: " + got.status().to_string());
      return;
    }
    const std::string bad =
        c.accept(util::ByteSpan(got->body.data(), got->body.size()));
    if (!bad.empty()) {
      ctx.error("stream: " + bad);
      return;
    }
    ctx.credit(windows, size);
    if (gate != nullptr) gate->reader_got(c.received() - base);
  }
  ctx.merge(windows);
}

struct Phase {
  Samples rtt_ms;           // every ping-pong round trip
  Samples rtt_p50_windows;  // per-window quantiles of the round trips
  Samples rtt_p90_windows;
  Samples small_rates;  // msgs/s per window
  Samples bulk_rates;   // payload MB/s per window, both directions
  double one_way_cpu_s = 0;  // process CPU time of the one-way phases
  std::uint64_t one_way_msgs = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  double seconds = 0;
};

void fold(PhaseCtx& ctx, Phase& p, Outcome& out) {
  p.sent += ctx.sent.load();
  p.failed += ctx.failed.load();
  for (const auto& e : ctx.errors) out.error(e);
}

void ping_pong(StreamRealm& r, double seconds, Tracer* tracer,
               BusProbe* probe, Phase& p, Outcome& out) {
  PhaseCtx ctx;
  ctx.tracer = tracer;
  r.ab.resize(kSmall);
  r.ba.resize(kSmall);
  ctx.start = now_ns();
  ctx.deadline = ctx.start + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> pings{kOpen};
  Timeline rtt;
  std::thread pinger([&] {
    pin_to_cpu(0);
    std::uint64_t n = 0;
    while (now_ns() < ctx.deadline) {
      ScopedSpan root(tracer, "op.stream.ping_pong", n + 1);
      const std::int64_t t0 = now_ns();
      util::Status st = util::OkStatus();
      {
        ScopedSpan span(tracer, "core.session.send", n + 1);
        st = r.a->send(r.ab.next(), 10s);
      }
      if (!st.ok()) {
        ctx.error("stream: ping failed: " + st.to_string());
        break;
      }
      ++n;
      util::StatusOr<nsock::RecvResult> got = util::Unavailable("not read");
      {
        ScopedSpan span(tracer, "core.session.recv", n);
        got = r.a->recv(10s);
      }
      if (!got.ok()) {
        ctx.error("stream: pong lost: " + got.status().to_string());
        break;
      }
      const std::string bad =
          r.at_a.accept(util::ByteSpan(got->body.data(), got->body.size()));
      if (!bad.empty()) {
        ctx.error("stream: " + bad);
        break;
      }
      const std::int64_t t1 = now_ns();
      rtt.add(t1, static_cast<double>(t1 - t0) / 1e6);
    }
    ctx.sent.fetch_add(2 * n);
    pings.store(n);
  });
  std::thread ponger([&] {
    pin_to_cpu(1);
    std::uint64_t n = 0;
    const std::int64_t give_up = ctx.deadline + 20'000'000'000LL;
    while (n < pings.load()) {
      util::StatusOr<nsock::RecvResult> got = util::Unavailable("not read");
      {
        ScopedSpan span(tracer, "core.session.recv", n + 1);
        got = r.b->recv(100ms);
      }
      if (!got.ok()) {
        if (got.status().code() == util::StatusCode::kTimeout &&
            now_ns() < give_up) {
          continue;
        }
        ctx.error("stream: ping lost: " + got.status().to_string());
        return;
      }
      const std::string bad =
          r.at_b.accept(util::ByteSpan(got->body.data(), got->body.size()));
      if (!bad.empty()) {
        ctx.error("stream: " + bad);
        return;
      }
      ++n;
      ScopedSpan span(tracer, "core.session.send", n);
      if (const auto st = r.b->send(r.ba.next(), 10s); !st.ok()) {
        ctx.error("stream: pong failed: " + st.to_string());
        return;
      }
    }
  });
  probe_until(probe, ctx.deadline);
  pinger.join();
  ponger.join();
  p.rtt_ms.append(rtt.values());
  p.rtt_p50_windows.append(
      rtt.window_quantiles(50, ctx.start, ctx.deadline, kRttWindowS));
  p.rtt_p90_windows.append(
      rtt.window_quantiles(90, ctx.start, ctx.deadline, kRttWindowS));
  fold(ctx, p, out);
}

void one_way(StreamRealm& r, double seconds, Tracer* tracer, BusProbe* probe,
             Phase& p, Outcome& out) {
  PhaseCtx ctx;
  ctx.tracer = tracer;
  r.ab.resize(kSmall);
  ctx.start = now_ns();
  ctx.deadline = ctx.start + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> total{kOpen};
  BatchGate gate;
  gate.size = kBatch;
  const double cpu_before = ProcCounters::now().cpu_s;
  std::thread writer([&] {
    pin_to_cpu(0);
    write_until(*r.a, r.ab, ctx, total, 1, &gate);
  });
  std::thread reader([&] {
    pin_to_cpu(1);
    read_all(*r.b, r.at_b, kSmall, ctx, total, 2, &gate);
  });
  probe_until(probe, ctx.deadline);
  writer.join();
  reader.join();
  p.one_way_cpu_s += ProcCounters::now().cpu_s - cpu_before;
  p.one_way_msgs += ctx.sent.load();
  p.small_rates.append(ctx.window_rates(kSmall));
  fold(ctx, p, out);
}

void bulk(StreamRealm& r, double seconds, Tracer* tracer, BusProbe* probe,
          Phase& p, Outcome& out) {
  PhaseCtx ctx;
  ctx.tracer = tracer;
  r.ab.resize(kBulk);
  r.ba.resize(kBulk);
  ctx.start = now_ns();
  ctx.deadline = ctx.start + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> total_ab{kOpen};
  std::atomic<std::uint64_t> total_ba{kOpen};
  std::thread w1([&] {
    pin_to_cpu(0);
    write_until(*r.a, r.ab, ctx, total_ab, 1);
  });
  std::thread w2([&] {
    pin_to_cpu(1);
    write_until(*r.b, r.ba, ctx, total_ba, 2);
  });
  std::thread r1([&] {
    pin_to_cpu(2);
    read_all(*r.b, r.at_b, kBulk, ctx, total_ab, 3);
  });
  std::thread r2([&] {
    pin_to_cpu(3);
    read_all(*r.a, r.at_a, kBulk, ctx, total_ba, 4);
  });
  probe_until(probe, ctx.deadline);
  for (std::thread* t : {&w1, &w2, &r1, &r2}) t->join();
  // window_rates() counts in units of `unit` bytes; report MB/s.
  p.bulk_rates.append(ctx.window_rates(1'000'000));
  fold(ctx, p, out);
}

Phase run_phase(StreamRealm& r, double seconds, Tracer* tracer,
                BusProbe* probe, Outcome& out) {
  Phase p;
  const std::int64_t t0 = now_ns();
  // Short rounds of all three phases, so that each metric samples the
  // whole run rather than one stretch of it.
  const double rounds = std::max(1.0, std::round(seconds / kRoundS));
  for (int i = 0; i < static_cast<int>(rounds); ++i) {
    ping_pong(r, seconds / rounds * kShare[0], tracer, probe, p, out);
    one_way(r, seconds / rounds * kShare[1], tracer, probe, p, out);
    bulk(r, seconds / rounds * kShare[2], tracer, probe, p, out);
  }
  p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  out.attempted += p.sent;
  out.failed += p.failed;
  return p;
}

void headline(const Phase& p, MetricSet& e2e) {
  // The op of this workload is the 64 B message: rate from the one-way
  // phase, latency from the ping-pong round trips.
  set_headline(e2e, p.small_rates.median(), p.small_rates.size(),
               p.rtt_p50_windows.median(), p.rtt_p90_windows.median(),
               p.rtt_ms.size(),
               ratio(p.one_way_cpu_s * 1e6, static_cast<double>(p.one_way_msgs)));
}

nsock::DataPathStats sum_stats(const StreamRealm& r) {
  const nsock::DataPathStats a = r.a->data_stats();
  const nsock::DataPathStats b = r.b->data_stats();
  nsock::DataPathStats s;
  s.payload_bytes_copied = a.payload_bytes_copied + b.payload_bytes_copied;
  s.stream_write_ops = a.stream_write_ops + b.stream_write_ops;
  s.stream_read_ops = a.stream_read_ops + b.stream_read_ops;
  s.recv_wakeups = a.recv_wakeups + b.recv_wakeups;
  s.frames_coalesced = a.frames_coalesced + b.frames_coalesced;
  return s;
}

}  // namespace

Outcome run_stream(const Options& options) {
  Outcome out;
  SetupTimes setup;
  auto r = set_up(setup);
  run_phase(*r, 0.3, nullptr, nullptr, out);  // warm-up

  Phase measured;
  if (!options.trace) {
    measured = run_phase(*r, options.seconds, nullptr, nullptr, out);
    headline(measured, out.e2e);
  } else {
    measured = run_phase(*r, options.seconds / 2, nullptr, nullptr, out);
    headline(measured, out.e2e);

    Tracer tracer;
    BusProbe probe(r->realm.node("node0").server().bus(),
                   r->realm.node("node1").server().bus());
    const Counters before = read_counters(r->realm, r->nodes);
    const nsock::DataPathStats dp_before = sum_stats(*r);
    const ProcCounters proc_before = ProcCounters::now();
    const Phase traced = run_phase(*r, options.seconds / 2, &tracer, &probe,
                                   out);
    ProcCounters proc = ProcCounters::now();
    const nsock::DataPathStats dp = sum_stats(*r);
    const Counters after = read_counters(r->realm, r->nodes);

    MetricSet traced_e2e;
    headline(traced, traced_e2e);
    set_overhead(out.layers, out.e2e, traced_e2e);

    LedgerInput in;
    in.ops = static_cast<double>(traced.sent);
    in.wall_s = traced.seconds;
    in.delta = after.minus(before);
    in.spans = tracer.summarize();
    in.probe_rtt_us = probe.rtt_us();
    in.probe_lag_us = probe.lag_us();
    in.probes = probe.sent();
    proc.cpu_s -= proc_before.cpu_s;
    proc.ctx_switches -= proc_before.ctx_switches;
    in.proc = proc;
    // Security is on (shipping default) but the data path runs no crypto,
    // and no connection is made while tracing: the crypto rows stay 0.
    in.security = false;
    const nsock::CtrlMsg sus = sample_sus(
        r->realm.node("node0").server().node_info(), "alice", true);
    in.codec_us = time_ctrl_codec_us(sus);
    in.ctrl_bytes = static_cast<double>(sus.encode().size());
    in.msgs = static_cast<double>(traced.sent);
    in.copied_bytes = static_cast<double>(dp.payload_bytes_copied -
                                          dp_before.payload_bytes_copied);
    in.writes =
        static_cast<double>(dp.stream_write_ops - dp_before.stream_write_ops);
    in.reads =
        static_cast<double>(dp.stream_read_ops - dp_before.stream_read_ops);
    in.wakeups = static_cast<double>(dp.recv_wakeups - dp_before.recv_wakeups);
    in.coalesced =
        static_cast<double>(dp.frames_coalesced - dp_before.frames_coalesced);
    fill_ledger(in, out.layers);
    if (!tracer.write(options.run_dir + "/spans-stream.jsonl")) {
      out.error("stream: cannot write the span file");
    }
  }

  const double fail_ratio =
      ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  r.reset();
  for (int i = 1; i < (options.trace ? 1 : kSetups); ++i) {
    set_up(setup);
  }
  setup.report(out);

  MetricSet& d = out.detail;
  d.set("fail_ratio", fail_ratio, "ratio", out.attempted);
  const Samples& rtt = measured.rtt_ms;
  d.set("rtt_us_p50", rtt.quantile(50) * 1000, "us", rtt.size());
  d.set("rtt_us_p99", rtt.quantile(99) * 1000, "us", rtt.size());
  d.set("small_msgs_per_s", measured.small_rates.median(), "1/s",
        measured.small_rates.size());
  d.set("bulk_MBps", measured.bulk_rates.median(), "MB/s",
        measured.bulk_rates.size());
  d.set("cpu_us_per_op", out.e2e.value("cpu_us_per_op"), "us",
        measured.one_way_msgs);
  return out;
}

}  // namespace perfbench
