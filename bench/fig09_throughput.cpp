// Reproduces paper Figure 9 (§4.3): TTCP-style throughput between two
// stationary agents as a function of message size, NapletSocket vs the raw
// socket baseline.
//
// Paper finding: NapletSocket degrades throughput slightly (<5%, from
// synchronized stream access); the gap becomes negligible as message size
// grows.
#include <atomic>
#include <thread>

#include "bench/bench_util.hpp"
#include "net/rudp.hpp"
#include "net/sim.hpp"

namespace naplet::bench {
namespace {

constexpr std::size_t kBytesPerPoint = 24 * 1024 * 1024;

double mbps(std::size_t bytes, double ms) {
  return static_cast<double>(bytes) * 8.0 / 1e6 / (ms / 1000.0);
}

/// Raw TCP pump: writer sends `count` messages of `size`; reader consumes.
double raw_socket_mbps(std::size_t msg_size, std::size_t total_bytes) {
  auto network = std::make_shared<net::TcpNetwork>();
  auto listener = network->listen(0);
  if (!listener.ok()) std::abort();
  auto client = network->connect((*listener)->local_endpoint(), 2s);
  auto server = (*listener)->accept(2s);
  if (!client.ok() || !server.ok()) std::abort();

  const std::size_t count = std::max<std::size_t>(1, total_bytes / msg_size);
  const util::Bytes payload(msg_size, 0x42);

  util::Stopwatch sw(util::RealClock::instance());
  std::thread writer([&] {
    for (std::size_t i = 0; i < count; ++i) {
      if (!(*client)
               ->write_all(util::ByteSpan(payload.data(), payload.size()))
               .ok()) {
        std::abort();
      }
    }
  });
  std::size_t received = 0;
  std::uint8_t buf[65536];
  while (received < count * msg_size) {
    auto n = (*server)->read_some(buf, sizeof buf);
    if (!n.ok() || *n == 0) std::abort();
    received += *n;
  }
  writer.join();
  return mbps(received, sw.elapsed_ms());
}

/// NapletSocket pump over the same loopback.
double naplet_mbps(std::size_t msg_size, std::size_t total_bytes) {
  BenchRealm realm(2, /*security=*/true, crypto::DhGroup::kModp2048);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  if (!realm.ctrl(1).listen(bob).ok()) std::abort();
  auto client = realm.ctrl(0).connect(alice, bob);
  if (!client.ok()) std::abort();
  auto server = realm.ctrl(1).accept(bob, 5s);
  if (!server.ok()) std::abort();

  const std::size_t count = std::max<std::size_t>(1, total_bytes / msg_size);
  const util::Bytes payload(msg_size, 0x42);

  util::Stopwatch sw(util::RealClock::instance());
  std::thread writer([&] {
    for (std::size_t i = 0; i < count; ++i) {
      if (!(*client)
               ->send(util::ByteSpan(payload.data(), payload.size()), 60s)
               .ok()) {
        std::abort();
      }
    }
  });
  std::size_t received = 0;
  while (received < count * msg_size) {
    auto got = (*server)->recv(60s);
    if (!got.ok()) std::abort();
    received += got->body.size();
  }
  writer.join();
  const double result = mbps(received, sw.elapsed_ms());
  (void)realm.ctrl(0).close(*client);
  return result;
}

/// Small-message mode (≤256 B): per-message rate on the Sim backend, where
/// the transport is an in-process pipe and the measurement isolates the
/// protocol stack's CPU cost per message. This is the regime the zero-copy
/// vectored data path targets — framing overhead dominates payload size.
double sim_small_msgs_per_sec(std::size_t msg_size, std::size_t count) {
  net::SimNet net;
  WiredSessionPair pair = sim_session_pair(net);
  const util::Bytes payload(msg_size, 0x42);
  util::Stopwatch sw(util::RealClock::instance());
  std::thread writer([&] {
    for (std::size_t i = 0; i < count; ++i) {
      if (!pair.a->send(util::ByteSpan(payload.data(), payload.size()), 60s)
               .ok()) {
        std::abort();
      }
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (!pair.b->recv(60s).ok()) std::abort();
  }
  writer.join();
  return static_cast<double>(count) / (sw.elapsed_ms() / 1000.0);
}

/// Lossy-WAN mode: control-channel (rudp) message rate across a simulated
/// 5 ms / ±1 ms jitter link with datagram loss, stop-and-wait transport
/// shape vs the pipelined sliding-window one. Several concurrent senders
/// share one channel, modeling a controller with overlapping control
/// exchanges; with a window of one they serialize, with the sliding window
/// they pipeline and single drops are repaired by SACK/FEC instead of a
/// full timer wait.
struct WanPoint {
  double msgs_per_sec = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fec_repairs = 0;
};

WanPoint rudp_wan_point(double loss, bool pipelined, int senders,
                        int msgs_per_sender) {
  net::SimNet net(/*seed=*/7);
  net.set_default_link(net::LinkConfig{
      .latency = 5ms, .jitter = 1ms, .datagram_loss = loss});
  auto node_a = net.add_node("a");
  auto node_b = net.add_node("b");

  net::RudpConfig config;
  config.retransmit_interval = 30ms;  // > RTT so the fixed timer is sane
  config.max_attempts = 40;
  if (pipelined) {
    config.repair = net::LossRepair::kXorFec;
  } else {
    config.window_packets = 1;
    config.adaptive_rto = false;
    config.fast_retx_dupacks = 0;
    config.repair = net::LossRepair::kNone;
  }
  auto dgram_a = node_a->bind_datagram(7);
  auto dgram_b = node_b->bind_datagram(7);
  if (!dgram_a.ok() || !dgram_b.ok()) std::abort();
  net::ReliableChannel ca(std::move(*dgram_a), config);
  net::ReliableChannel cb(std::move(*dgram_b), config);

  const int total = senders * msgs_per_sender;
  const util::Bytes payload(256, 0x42);
  util::Stopwatch sw(util::RealClock::instance());
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(senders));
  for (int t = 0; t < senders; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < msgs_per_sender; ++i) {
        if (!ca.send(net::Endpoint{"b", 7},
                     util::ByteSpan(payload.data(), payload.size()), 60s)
                 .ok()) {
          std::abort();
        }
      }
    });
  }
  int received = 0;
  while (received < total) {
    if (!cb.recv(60s).has_value()) std::abort();
    ++received;
  }
  for (auto& w : writers) w.join();
  WanPoint point;
  point.msgs_per_sec = static_cast<double>(total) / (sw.elapsed_ms() / 1000.0);
  point.retransmits = ca.retransmissions();
  point.fec_repairs = cb.fec_repairs();
  ca.close();
  cb.close();
  return point;
}

/// Seed data path measured on this machine (RelWithDebInfo, idle system,
/// 2026-08-07) before the zero-copy vectored rewrite: per-frame heap
/// encode + two transport writes, 1 ms sleep-poll receive. Kept as the
/// before/after reference in BENCH_fig09.json.
struct SmallMsgBaseline {
  std::size_t size;
  double seed_msgs_per_sec;
};
constexpr SmallMsgBaseline kSeedSmallMsg[] = {
    {16, 973132.0}, {64, 1131286.0}, {256, 900877.0}};

}  // namespace
}  // namespace naplet::bench

int main(int argc, char** argv) {
  using namespace naplet::bench;

  std::printf("Figure 9 reproduction: throughput vs message size, "
              "NapletSocket vs raw socket (TTCP-style pump)\n");
  std::printf("Paper finding: NapletSocket within ~5%% of the raw socket, "
              "converging as messages grow\n");

  const std::vector<std::size_t> sizes =
      fast_mode()
          ? std::vector<std::size_t>{64, 4096, 65536}
          : std::vector<std::size_t>{16,   64,    256,   1024, 4096,
                                     16384, 65536, 262144};
  const std::size_t budget = fast_mode() ? 2 * 1024 * 1024 : kBytesPerPoint;

  print_header("Figure 9 (measured, Mb/s, best of 3 runs per point)",
               {"msg size (B)", "raw socket", "NapletSocket", "ratio"});
  const int repeats = fast_mode() ? 1 : 3;
  double last_ratio = 0;
  std::vector<std::string> fig_points;
  for (std::size_t size : sizes) {
    double raw = 0, naplet = 0;
    for (int r = 0; r < repeats; ++r) {
      raw = std::max(raw, raw_socket_mbps(size, budget));
      naplet = std::max(naplet, naplet_mbps(size, budget));
    }
    last_ratio = naplet / raw;
    print_row({std::to_string(size), fmt(raw, 1), fmt(naplet, 1),
               fmt(last_ratio, 3)});
    fig_points.push_back(JsonObject()
                             .field("msg_size", static_cast<std::uint64_t>(size))
                             .field("raw_mbps", raw)
                             .field("naplet_mbps", naplet)
                             .field("ratio", last_ratio)
                             .render());
  }
  std::printf("\nshape check: ratio approaches 1.0 at large messages: %s "
              "(final ratio %.3f)\n",
              last_ratio > 0.7 ? "PASS" : "FAIL", last_ratio);

  // Small-message mode: msgs/s on the Sim backend vs the recorded seed
  // data path — the number the zero-copy rewrite is accountable to.
  const std::size_t small_count = fast_mode() ? 20'000 : 100'000;
  const int small_repeats = fast_mode() ? 1 : 3;
  print_header("small messages, Sim backend (msgs/s, best of " +
                   std::to_string(small_repeats) + ", " +
                   std::to_string(small_count) + " msgs per run)",
               {"msg size (B)", "seed", "current", "speedup"});
  std::vector<std::string> small_points;
  bool small_ok = true;
  for (const auto& base : kSeedSmallMsg) {
    double now = 0;
    for (int r = 0; r < small_repeats; ++r) {
      now = std::max(now, sim_small_msgs_per_sec(base.size, small_count));
    }
    const double speedup = now / base.seed_msgs_per_sec;
    small_ok = small_ok && speedup >= 1.5;
    print_row({std::to_string(base.size), fmt(base.seed_msgs_per_sec, 0),
               fmt(now, 0), fmt(speedup, 2) + "x"});
    small_points.push_back(
        JsonObject()
            .field("msg_size", static_cast<std::uint64_t>(base.size))
            .field("seed_msgs_per_sec", base.seed_msgs_per_sec)
            .field("msgs_per_sec", now)
            .field("speedup", speedup)
            .render());
  }
  std::printf("\nsmall-message target (>=1.5x over seed at <=256 B): %s%s\n",
              small_ok ? "PASS" : "FAIL",
              fast_mode() ? " (fast mode: indicative only — run full sweeps "
                            "on an idle machine for the recorded comparison)"
                          : "");

  // Lossy-WAN mode: the rudp control channel itself under loss, the regime
  // the sliding-window rebuild targets (migration control traffic on real
  // networks, per the Gavalas measurement study).
  const std::vector<double> wan_losses =
      fast_mode() ? std::vector<double>{0.0, 0.10}
                  : std::vector<double>{0.0, 0.05, 0.10, 0.20};
  const int wan_senders = fast_mode() ? 4 : 8;
  const int wan_msgs = fast_mode() ? 25 : 50;
  print_header("lossy WAN, rudp control channel (5 ms +-1 ms link, " +
                   std::to_string(wan_senders) + " senders x " +
                   std::to_string(wan_msgs) + " msgs, 256 B)",
               {"loss", "stop-and-wait", "pipelined", "speedup", "retx s/p",
                "fec fix"});
  std::vector<std::string> wan_points;
  double wan_speedup_at_10 = 0, wan_ratio_at_0 = 0;
  for (double loss : wan_losses) {
    const WanPoint base =
        rudp_wan_point(loss, /*pipelined=*/false, wan_senders, wan_msgs);
    const WanPoint pipe =
        rudp_wan_point(loss, /*pipelined=*/true, wan_senders, wan_msgs);
    const double speedup = pipe.msgs_per_sec / base.msgs_per_sec;
    if (std::abs(loss - 0.10) < 1e-9) wan_speedup_at_10 = speedup;
    if (loss == 0.0) wan_ratio_at_0 = speedup;
    print_row({fmt(100.0 * loss, 0) + "%", fmt(base.msgs_per_sec, 0) + "/s",
               fmt(pipe.msgs_per_sec, 0) + "/s", fmt(speedup, 2) + "x",
               std::to_string(base.retransmits) + "/" +
                   std::to_string(pipe.retransmits),
               std::to_string(pipe.fec_repairs)});
    wan_points.push_back(
        JsonObject()
            .field("loss_pct", 100.0 * loss)
            .field("stop_and_wait_msgs_per_sec", base.msgs_per_sec)
            .field("pipelined_msgs_per_sec", pipe.msgs_per_sec)
            .field("speedup", speedup)
            .field("stop_and_wait_retransmits", base.retransmits)
            .field("pipelined_retransmits", pipe.retransmits)
            .field("pipelined_fec_repairs", pipe.fec_repairs)
            .render());
  }
  std::printf("\nlossy-WAN checks: pipelined >=2x at 10%% loss: %s (%.2fx); "
              "no regression at 0%% loss: %s (%.2fx)\n",
              wan_speedup_at_10 >= 2.0 ? "PASS" : "FAIL", wan_speedup_at_10,
              wan_ratio_at_0 >= 0.9 ? "PASS" : "FAIL", wan_ratio_at_0);

  if (json_flag(argc, argv)) {
    write_json_file(
        "BENCH_fig09.json",
        JsonObject()
            .field("bench", std::string("fig09_throughput"))
            .raw("figure9", json_array(fig_points))
            .raw("small_message_sim", json_array(small_points))
            .raw("rudp_wan", json_array(wan_points))
            .render());
  }
  return 0;
}
