#include "net/sim.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/clock.hpp"

namespace naplet::net {
namespace {

using namespace std::chrono_literals;

TEST(SimNet, ConnectAcceptRoundTrip) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto listener = b->listen(100);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 100}, 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());

  const util::Bytes msg = {5, 4, 3};
  ASSERT_TRUE(
      (*client)->write_all(util::ByteSpan(msg.data(), msg.size())).ok());
  std::uint8_t buf[8];
  auto n = (*server)->read_some(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(buf[2], 3);
}

TEST(SimNet, VectoredWriteArrivesContiguous) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto listener = b->listen(100);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 100}, 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());

  // Three discontiguous pieces, one gather-write: the receiver must see a
  // single contiguous byte sequence (and on Sim, a single chunk).
  const util::Bytes p1 = {1, 2}, p2 = {3}, p3 = {4, 5, 6};
  const util::ByteSpan parts[3] = {util::ByteSpan(p1.data(), p1.size()),
                                   util::ByteSpan(p2.data(), p2.size()),
                                   util::ByteSpan(p3.data(), p3.size())};
  ASSERT_TRUE((*client)
                  ->write_all_vectored(std::span<const util::ByteSpan>(parts))
                  .ok());
  std::uint8_t buf[16];
  auto n = (*server)->read_some(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 6u);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(buf[i], i + 1);
}

TEST(SimNet, ConnectionRefusedWithoutListener) {
  SimNet net;
  auto a = net.add_node("a");
  net.add_node("b");
  auto client = a->connect(Endpoint{"b", 42}, 100ms);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), util::StatusCode::kUnavailable);
}

TEST(SimNet, PortCollisionRejected) {
  SimNet net;
  auto a = net.add_node("a");
  auto l1 = a->listen(5);
  ASSERT_TRUE(l1.ok());
  EXPECT_FALSE(a->listen(5).ok());
  // Releasing the port makes it reusable.
  (*l1)->close();
  EXPECT_TRUE(a->listen(5).ok());
}

TEST(SimNet, StreamLatencyDelaysDelivery) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_link("a", "b", LinkConfig{.latency = 50ms});
  auto listener = b->listen(1);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 1}, 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());

  const std::int64_t t0 = util::RealClock::instance().now_us();
  const util::Bytes msg = {1};
  ASSERT_TRUE(
      (*client)->write_all(util::ByteSpan(msg.data(), msg.size())).ok());
  std::uint8_t buf[1];
  auto n = (*server)->read_some(buf, 1);
  const std::int64_t elapsed = util::RealClock::instance().now_us() - t0;
  ASSERT_TRUE(n.ok());
  EXPECT_GE(elapsed, 45000);  // ~50 ms, minus scheduler slack
}

TEST(SimNet, DrainPendingOnlyReturnsArrivedBytes) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_link("a", "b", LinkConfig{.latency = 80ms});
  auto listener = b->listen(1);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 1}, 1s);
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(client.ok() && server.ok());

  const util::Bytes msg = {7};
  ASSERT_TRUE(
      (*client)->write_all(util::ByteSpan(msg.data(), msg.size())).ok());
  auto early = (*server)->drain_pending();
  ASSERT_TRUE(early.ok());
  EXPECT_TRUE(early->empty());  // still in flight
  std::this_thread::sleep_for(120ms);
  auto late = (*server)->drain_pending();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(*late, msg);
}

TEST(SimNet, DatagramDeliveryAndLoss) {
  SimNet net(/*seed=*/1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto da = a->bind_datagram(10);
  auto db = b->bind_datagram(10);
  ASSERT_TRUE(da.ok() && db.ok());

  // Lossless first.
  const util::Bytes msg = {1, 2};
  ASSERT_TRUE((*da)->send_to(Endpoint{"b", 10},
                             util::ByteSpan(msg.data(), msg.size()))
                  .ok());
  auto pkt = (*db)->recv_for(1s);
  ASSERT_TRUE(pkt.ok());
  EXPECT_EQ(pkt->data, msg);
  EXPECT_EQ(pkt->from.host, "a");

  // Total loss drops everything.
  net.set_link("a", "b", LinkConfig{.datagram_loss = 1.0});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*da)->send_to(Endpoint{"b", 10},
                               util::ByteSpan(msg.data(), msg.size()))
                    .ok());
  }
  EXPECT_FALSE((*db)->recv_for(50ms).ok());
  EXPECT_GE(net.datagrams_dropped(), 10u);
}

TEST(SimNet, PartialLossRateApproximatelyHonored) {
  SimNet net(/*seed=*/99);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_link("a", "b", LinkConfig{.datagram_loss = 0.5});
  auto da = a->bind_datagram(1);
  auto db = b->bind_datagram(1);
  ASSERT_TRUE(da.ok() && db.ok());

  constexpr int kSent = 400;
  const util::Bytes msg = {0};
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE((*da)->send_to(Endpoint{"b", 1},
                               util::ByteSpan(msg.data(), msg.size()))
                    .ok());
  }
  int received = 0;
  while ((*db)->recv_for(20ms).ok()) ++received;
  EXPECT_GT(received, kSent / 4);
  EXPECT_LT(received, 3 * kSent / 4);
}

TEST(SimNet, PartitionBlocksConnectAndDatagrams) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto listener = b->listen(1);
  auto db = b->bind_datagram(2);
  auto da = a->bind_datagram(2);
  ASSERT_TRUE(listener.ok() && db.ok() && da.ok());

  net.set_partition("a", "b", true);
  EXPECT_FALSE(a->connect(Endpoint{"b", 1}, 100ms).ok());
  const util::Bytes msg = {1};
  ASSERT_TRUE((*da)->send_to(Endpoint{"b", 2},
                             util::ByteSpan(msg.data(), msg.size()))
                  .ok());  // silent drop
  EXPECT_FALSE((*db)->recv_for(50ms).ok());

  net.set_partition("a", "b", false);
  EXPECT_TRUE(a->connect(Endpoint{"b", 1}, 1s).ok());
}

TEST(SimNet, SeverStreamsClosesEstablished) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto listener = b->listen(1);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 1}, 1s);
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(client.ok() && server.ok());

  net.sever_streams("a", "b");
  std::uint8_t buf[1];
  auto n = (*server)->read_some(buf, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // closed
  EXPECT_FALSE((*client)->write_all(util::ByteSpan(buf, 1)).ok());
}

TEST(SimNet, SeverAfterManyCyclesClosesOnlyLiveStreams) {
  // Thousands of short-lived streams between one pair leave registry
  // entries behind; sever must still find every live stream and count no
  // dead one.
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto listener = b->listen(1);
  ASSERT_TRUE(listener.ok());
  std::vector<StreamPtr> live;
  for (int i = 0; i < 2000; ++i) {
    auto client = a->connect(Endpoint{"b", 1}, 1s);
    auto server = (*listener)->accept(1s);
    ASSERT_TRUE(client.ok() && server.ok()) << "cycle " << i;
    if (i % 100 == 0) {
      live.push_back(std::move(*client));
      live.push_back(std::move(*server));
    }
  }
  ASSERT_EQ(live.size(), 40u);

  net.sever_streams("a", "b");
  EXPECT_EQ(net.counters().streams_severed, live.size());
  std::uint8_t buf[1];
  for (auto& stream : live) {
    auto n = stream->read_some(buf, 1);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);  // closed
  }
}

TEST(SimNet, SameNodeLoopback) {
  SimNet net;
  auto a = net.add_node("a");
  auto listener = a->listen(1);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"a", 1}, 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());
  const util::Bytes msg = {42};
  ASSERT_TRUE(
      (*client)->write_all(util::ByteSpan(msg.data(), msg.size())).ok());
  std::uint8_t buf[1];
  EXPECT_EQ(*(*server)->read_some(buf, 1), 1u);
}

TEST(SimNet, ListenerCloseCancelsAccept) {
  SimNet net;
  auto a = net.add_node("a");
  auto listener = a->listen(1);
  ASSERT_TRUE(listener.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    (*listener)->close();
  });
  auto conn = (*listener)->accept(std::nullopt);
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), util::StatusCode::kCancelled);
  closer.join();
}

TEST(SimNet, BandwidthCapsThroughput) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  // 1 MB/s cap from a to b.
  net.set_link("a", "b", LinkConfig{.bytes_per_second = 1'000'000});
  auto listener = b->listen(1);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 1}, 1s);
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(client.ok() && server.ok());

  constexpr std::size_t kTotal = 300 * 1024;  // ~0.3 s at the cap
  const util::Bytes chunk(4096, 0x5A);
  const std::int64_t t0 = util::RealClock::instance().now_us();
  std::thread writer([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      ASSERT_TRUE((*client)
                      ->write_all(util::ByteSpan(chunk.data(), chunk.size()))
                      .ok());
      sent += chunk.size();
    }
  });
  std::size_t received = 0;
  std::uint8_t buf[8192];
  while (received < kTotal) {
    auto n = (*server)->read_some(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    received += *n;
  }
  writer.join();
  const double elapsed_s =
      static_cast<double>(util::RealClock::instance().now_us() - t0) / 1e6;
  const double mbps = static_cast<double>(received) / elapsed_s / 1e6;
  // Within a factor-ish of the 1 MB/s cap (scheduler slack allowed), and
  // definitely nowhere near unshaped in-memory speed.
  EXPECT_LT(mbps, 1.4);
  EXPECT_GT(mbps, 0.5);
}

TEST(SimNet, UnlimitedBandwidthByDefault) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto listener = b->listen(1);
  ASSERT_TRUE(listener.ok());
  auto client = a->connect(Endpoint{"b", 1}, 1s);
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(client.ok() && server.ok());
  const util::Bytes big(1 << 20, 1);
  const std::int64_t t0 = util::RealClock::instance().now_us();
  ASSERT_TRUE((*client)->write_all(util::ByteSpan(big.data(), big.size())).ok());
  std::size_t received = 0;
  std::uint8_t buf[65536];
  while (received < big.size()) {
    auto n = (*server)->read_some(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    received += *n;
  }
  const double elapsed_s =
      static_cast<double>(util::RealClock::instance().now_us() - t0) / 1e6;
  EXPECT_LT(elapsed_s, 1.0);  // far faster than any modeled link
}

TEST(SimNet, AddNodeIdempotent) {
  SimNet net;
  auto a1 = net.add_node("a");
  auto a2 = net.add_node("a");
  EXPECT_EQ(a1.get(), a2.get());
}

}  // namespace
}  // namespace naplet::net
