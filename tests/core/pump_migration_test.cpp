// Migration under continuous full-speed traffic: reproduces the regime the
// throughput benches run in (a pump saturating the connection while the
// endpoints migrate, singly and concurrently). Every migration must
// complete within the protocol timeouts and no message may be lost,
// duplicated, or reordered.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "core/test_realm.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

struct PumpHarness {
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> sent{0};
  std::atomic<int> tx_node{0};
  std::atomic<std::uint32_t> received{0};
  std::atomic<int> rx_node{1};
  std::atomic<bool> order_broken{false};
  std::thread pump;
  std::thread sink;

  // A failed ASSERT returns with both threads still running; stop and join
  // them so the test fails instead of std::terminate ending the binary.
  ~PumpHarness() {
    stop.store(true);
    if (pump.joinable()) pump.join();
    if (sink.joinable()) sink.join();
  }

  void start(SimRealm& realm, std::uint64_t conn_id) {
    pump = std::thread([this, &realm, conn_id] {
      while (!stop.load()) {
        auto side = realm.ctrl(tx_node.load()).session_by_id(conn_id);
        if (!side) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        util::BytesWriter w;
        w.u32(sent.load());
        if (side->send(util::ByteSpan(w.data().data(), w.data().size()),
                       std::chrono::milliseconds(100))
                .ok()) {
          sent.fetch_add(1);
        }
      }
    });
    sink = std::thread([this, &realm, conn_id] {
      while (!stop.load()) {
        auto side = realm.ctrl(rx_node.load()).session_by_id(conn_id);
        if (!side) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        auto got = side->recv(std::chrono::milliseconds(20));
        if (!got.ok()) continue;
        util::BytesReader r(util::ByteSpan(got->body.data(),
                                           got->body.size()));
        if (*r.u32() != received.load()) order_broken.store(true);
        received.fetch_add(1);
      }
    });
  }

  // Stop both threads, then drain the tail on this one.
  void finish(SimRealm& realm, std::uint64_t conn_id) {
    // Let in-flight sends settle, then stop producing.
    stop.store(true);
    pump.join();
    // The sink may be mid-delivery; its read-check-increment of `received`
    // must not interleave with the drain's below.
    sink.join();
    // Drain whatever was sent.
    const std::int64_t deadline =
        util::RealClock::instance().now_us() + 15'000'000;
    while (received.load() < sent.load() &&
           util::RealClock::instance().now_us() < deadline) {
      auto side = realm.ctrl(rx_node.load()).session_by_id(conn_id);
      if (!side) continue;
      auto got = side->recv(std::chrono::milliseconds(100));
      if (!got.ok()) continue;
      util::BytesReader r(util::ByteSpan(got->body.data(), got->body.size()));
      if (*r.u32() != received.load()) order_broken.store(true);
      received.fetch_add(1);
    }
  }
};

TEST(PumpMigration, SingleMoverUnderSaturation) {
  SimRealm realm(4, /*security=*/false);
  auto sender = realm.pseudo_agent("sender", 0);
  auto mobile = realm.pseudo_agent("mobile", 1);
  ConnPair conn = make_connection(realm, sender, 0, mobile, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  PumpHarness harness;
  harness.start(realm, conn_id);

  int node = 1;
  for (int hop = 0; hop < 4; ++hop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const int next = 1 + (node % 3);
    ASSERT_TRUE(realm.migrate_pseudo_agent(mobile, node, next).ok())
        << "hop " << hop;
    node = next;
    harness.rx_node.store(node);
  }

  harness.finish(realm, conn_id);
  EXPECT_EQ(harness.received.load(), harness.sent.load());
  EXPECT_FALSE(harness.order_broken.load());
  EXPECT_GT(harness.sent.load(), 0u);
}

TEST(PumpMigration, ConcurrentMoversUnderSaturation) {
  SimRealm realm(6, /*security=*/false);
  auto a = realm.pseudo_agent("A", 0);
  auto b = realm.pseudo_agent("B", 1);
  ConnPair conn = make_connection(realm, a, 0, b, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  PumpHarness harness;
  harness.start(realm, conn_id);

  int a_node = 0, b_node = 1;
  for (int round = 0; round < 4; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const int a_next = ((a_node + 2) % 6) & ~1;
    int b_next = ((b_node + 2) % 6) | 1;
    auto move_a = std::async(std::launch::async, [&, a_next] {
      return realm.migrate_pseudo_agent(a, a_node, a_next);
    });
    auto move_b = std::async(std::launch::async, [&, b_next] {
      return realm.migrate_pseudo_agent(b, b_node, b_next);
    });
    const auto status_a = move_a.get();
    const auto status_b = move_b.get();
    ASSERT_TRUE(status_a.ok()) << "round " << round << ": "
                               << status_a.to_string();
    ASSERT_TRUE(status_b.ok()) << "round " << round << ": "
                               << status_b.to_string();
    a_node = a_next;
    b_node = b_next;
    harness.tx_node.store(a_node);
    harness.rx_node.store(b_node);
  }

  harness.finish(realm, conn_id);
  EXPECT_EQ(harness.received.load(), harness.sent.load());
  EXPECT_FALSE(harness.order_broken.load());
}

}  // namespace
}  // namespace naplet::nsock
