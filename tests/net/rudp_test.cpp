#include "net/rudp.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "fault/fault.hpp"
#include "net/sim.hpp"
#include "net/tcp.hpp"

namespace naplet::net {
namespace {

using namespace std::chrono_literals;

std::unique_ptr<ReliableChannel> make_channel(Network& network,
                                              std::uint16_t port,
                                              RudpConfig config = {}) {
  auto dgram = network.bind_datagram(port);
  EXPECT_TRUE(dgram.ok());
  return std::make_unique<ReliableChannel>(std::move(*dgram), config);
}

TEST(Rudp, DeliversOverLossyLink) {
  // 30% datagram loss in both directions; retransmission must still get
  // every message through, exactly once, in order of ACK completion.
  SimNet net(/*seed=*/5);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_link("a", "b", LinkConfig{.datagram_loss = 0.3});
  net.set_link("b", "a", LinkConfig{.datagram_loss = 0.3});

  RudpConfig config;
  config.retransmit_interval = 20ms;
  config.max_attempts = 50;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    util::BytesWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                         util::ByteSpan(w.data().data(), w.data().size()))
                    .ok())
        << "message " << i;
  }

  // Sequential blocking sends mean in-order delivery despite loss.
  for (int i = 0; i < kMessages; ++i) {
    auto msg = cb->recv(2s);
    ASSERT_TRUE(msg.has_value()) << "message " << i;
    util::BytesReader r(util::ByteSpan(msg->payload.data(),
                                       msg->payload.size()));
    EXPECT_EQ(*r.u32(), static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(cb->recv(50ms).has_value());  // nothing extra (no duplicates)
  EXPECT_GT(ca->retransmissions(), 0u);      // loss actually exercised
}

TEST(Rudp, DuplicateSuppressionCountsDrops) {
  SimNet net(/*seed=*/11);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  // Lossy ACK path: data arrives, ACKs get lost, sender retransmits, and
  // the receiver must drop the duplicates.
  net.set_link("b", "a", LinkConfig{.datagram_loss = 0.7});

  RudpConfig config;
  config.retransmit_interval = 15ms;
  config.max_attempts = 100;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  for (int i = 0; i < 10; ++i) {
    util::BytesWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                         util::ByteSpan(w.data().data(), w.data().size()))
                    .ok());
  }
  int received = 0;
  while (cb->recv(100ms).has_value()) ++received;
  EXPECT_EQ(received, 10);
  EXPECT_GT(cb->duplicates_dropped(), 0u);
}

TEST(Rudp, SendFailsAfterMaxAttempts) {
  SimNet net;
  auto a = net.add_node("a");
  net.add_node("b");
  net.set_link("a", "b", LinkConfig{.datagram_loss = 1.0});

  RudpConfig config;
  config.retransmit_interval = 5ms;
  config.max_attempts = 3;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*net.add_node("b"), 7, config);

  const util::Bytes msg = {1};
  auto status = ca->send(Endpoint{"b", 7},
                         util::ByteSpan(msg.data(), msg.size()));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
  (void)cb;
}

TEST(Rudp, BidirectionalConcurrentSends) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto ca = make_channel(*a, 7);
  auto cb = make_channel(*b, 7);

  constexpr int kEach = 30;
  std::thread sender_a([&] {
    for (int i = 0; i < kEach; ++i) {
      util::BytesWriter w;
      w.str("from-a");
      ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                           util::ByteSpan(w.data().data(), w.data().size()))
                      .ok());
    }
  });
  std::thread sender_b([&] {
    for (int i = 0; i < kEach; ++i) {
      util::BytesWriter w;
      w.str("from-b");
      ASSERT_TRUE(cb->send(Endpoint{"a", 7},
                           util::ByteSpan(w.data().data(), w.data().size()))
                      .ok());
    }
  });
  int got_a = 0, got_b = 0;
  for (int i = 0; i < kEach; ++i) {
    if (ca->recv(2s)) ++got_a;
    if (cb->recv(2s)) ++got_b;
  }
  sender_a.join();
  sender_b.join();
  EXPECT_EQ(got_a, kEach);
  EXPECT_EQ(got_b, kEach);
}

TEST(Rudp, CloseUnblocksSender) {
  SimNet net;
  auto a = net.add_node("a");
  net.add_node("b");  // no receiver channel: sends will stall
  RudpConfig config;
  config.retransmit_interval = 50ms;
  config.max_attempts = 1000;
  auto ca = make_channel(*a, 7, config);

  std::thread closer([&] {
    std::this_thread::sleep_for(50ms);
    ca->close();
  });
  const util::Bytes msg = {1};
  auto status = ca->send(Endpoint{"b", 7},
                         util::ByteSpan(msg.data(), msg.size()));
  EXPECT_FALSE(status.ok());
  closer.join();
}

TEST(Rudp, GarbagePacketsIgnored) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto cb = make_channel(*b, 7);

  auto raw = a->bind_datagram(9);
  ASSERT_TRUE(raw.ok());
  const util::Bytes junk = {0xde, 0xad};
  ASSERT_TRUE((*raw)->send_to(Endpoint{"b", 7},
                              util::ByteSpan(junk.data(), junk.size()))
                  .ok());
  EXPECT_FALSE(cb->recv(50ms).has_value());

  // Channel still functional afterwards.
  auto ca = make_channel(*a, 7);
  const util::Bytes msg = {1};
  EXPECT_TRUE(ca->send(Endpoint{"b", 7},
                       util::ByteSpan(msg.data(), msg.size()))
                  .ok());
  EXPECT_TRUE(cb->recv(1s).has_value());
}

TEST(Rudp, WorksOverRealUdp) {
  auto network = std::make_shared<TcpNetwork>();
  auto ca = make_channel(*network, 0);
  auto cb = make_channel(*network, 0);
  const util::Bytes msg = {'o', 'k'};
  ASSERT_TRUE(ca->send(cb->local_endpoint(),
                       util::ByteSpan(msg.data(), msg.size()))
                  .ok());
  auto got = cb->recv(1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, msg);
}

TEST(Rudp, MessagesSentCounter) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto ca = make_channel(*a, 7);
  auto cb = make_channel(*b, 7);
  const util::Bytes msg = {1};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                         util::ByteSpan(msg.data(), msg.size()))
                    .ok());
  }
  EXPECT_EQ(ca->messages_sent(), 5u);
  (void)cb;
}

TEST(Rudp, WindowFullBackpressure) {
  SimNet net;
  auto a = net.add_node("a");
  auto sink = net.add_node("b");
  // Bound but mute: packets arrive, no ACK ever comes back, so the single
  // window slot stays occupied by the first send.
  auto mute = sink->bind_datagram(7);
  ASSERT_TRUE(mute.ok());

  RudpConfig config;
  config.window_packets = 1;
  config.retransmit_interval = 1s;  // slot held for the whole test
  config.max_attempts = 10;
  auto ca = make_channel(*a, 7, config);

  const util::Bytes msg = {1};
  std::thread occupant([&] {
    // Blocks in the ACK wait, holding the only window slot, until close().
    (void)ca->send(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size()));
  });
  std::this_thread::sleep_for(50ms);

  const auto t0 = std::chrono::steady_clock::now();
  auto status = ca->send(Endpoint{"b", 7},
                         util::ByteSpan(msg.data(), msg.size()), 100ms);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
  EXPECT_LT(waited, 800ms);  // bounded by max_wait, not the retransmit timer

  ca->close();
  occupant.join();
}

TEST(Rudp, AckBeatsCloseUnderRace) {
  // PR-2 flake guard: a send whose ACK already arrived must report Ok even
  // when the channel is concurrently closing. Raced repeatedly; the
  // invariant checked is "Ok implies delivered" and no crash/hang either
  // way the race lands.
  for (int i = 0; i < 25; ++i) {
    SimNet net(/*seed=*/100 + i);
    auto a = net.add_node("a");
    auto b = net.add_node("b");
    auto ca = make_channel(*a, 7);
    auto cb = make_channel(*b, 7);

    std::thread closer([&, i] {
      std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 300));
      ca->close();
    });
    const util::Bytes msg = {static_cast<std::uint8_t>(i)};
    auto status = ca->send(Endpoint{"b", 7},
                           util::ByteSpan(msg.data(), msg.size()));
    closer.join();
    if (status.ok()) {
      auto got = cb->recv(1s);
      ASSERT_TRUE(got.has_value()) << "iteration " << i;
      EXPECT_EQ(got->payload, msg);
    } else {
      EXPECT_EQ(status.code(), util::StatusCode::kCancelled);
    }
  }
}

TEST(Rudp, SequenceWraparoundEndToEnd) {
  // Flows starting six packets shy of 2^64 must wrap transparently: serial
  // arithmetic keeps ordering, dedup, and SACK ranges correct across 0.
  SimNet net(/*seed=*/23);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_link("a", "b", LinkConfig{.datagram_loss = 0.2});
  net.set_link("b", "a", LinkConfig{.datagram_loss = 0.2});

  RudpConfig config;
  config.retransmit_interval = 10ms;
  config.max_attempts = 50;
  config.initial_seq = ~0ULL - 5;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  constexpr int kMessages = 20;  // crosses the wrap at message 6
  for (int i = 0; i < kMessages; ++i) {
    util::BytesWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                         util::ByteSpan(w.data().data(), w.data().size()))
                    .ok())
        << "message " << i;
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = cb->recv(2s);
    ASSERT_TRUE(msg.has_value()) << "message " << i;
    util::BytesReader r(
        util::ByteSpan(msg->payload.data(), msg->payload.size()));
    EXPECT_EQ(*r.u32(), static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(cb->recv(50ms).has_value());
}

class RudpFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::instance().disarm(); }
};

TEST_F(RudpFaultTest, FecRepairsDropWithoutRetransmit) {
  SimNet net(/*seed=*/31);
  auto a = net.add_node("a");
  auto b = net.add_node("b");

  RudpConfig config;
  config.retransmit_interval = 5s;  // the timer must never be the fix
  // Without this the first ACK's RTT sample shrinks the RTO to ~min_rto,
  // and under load the timer can beat the 1 ms parity flush.
  config.adaptive_rto = false;
  config.max_attempts = 3;
  config.repair = LossRepair::kXorFec;
  config.fec_group = 4;
  config.fec_flush = 1ms;  // sequential sends degrade to per-packet parity
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  auto plan = fault::Plan::parse("rudp.send@#2:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  for (int i = 0; i < 3; ++i) {
    util::BytesWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                         util::ByteSpan(w.data().data(), w.data().size()))
                    .ok())
        << "message " << i;
  }
  fault::Injector::instance().disarm();

  for (int i = 0; i < 3; ++i) {
    auto msg = cb->recv(1s);
    ASSERT_TRUE(msg.has_value()) << "message " << i;
    util::BytesReader r(
        util::ByteSpan(msg->payload.data(), msg->payload.size()));
    EXPECT_EQ(*r.u32(), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ca->retransmissions(), 0u);  // parity repaired the drop
  EXPECT_GE(cb->fec_repairs(), 1u);
}

TEST_F(RudpFaultTest, FastRetransmitOnSackGapEvidence) {
  SimNet net(/*seed=*/37);
  auto a = net.add_node("a");
  auto b = net.add_node("b");

  RudpConfig config;
  config.retransmit_interval = 5s;  // only the gap detector can recover
  config.max_attempts = 5;
  config.fast_retx_dupacks = 2;
  config.window_packets = 8;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  auto plan = fault::Plan::parse("rudp.send@#1:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);

  util::Bytes first = {0xA0};
  std::thread blocked([&] {
    // Dropped on first transmission; completes only via fast retransmit.
    ASSERT_TRUE(ca->send(Endpoint{"b", 7},
                         util::ByteSpan(first.data(), first.size()))
                    .ok());
  });
  std::this_thread::sleep_for(20ms);  // pin the drop to the first packet

  // Two later packets arrive out of order at the receiver; each SACK names
  // the gap, and the second one crosses the dup-ack threshold.
  for (std::uint8_t v : {0xA1, 0xA2}) {
    const util::Bytes msg = {v};
    ASSERT_TRUE(
        ca->send(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size()))
            .ok());
  }
  blocked.join();
  fault::Injector::instance().disarm();

  EXPECT_EQ(ca->fast_retransmits(), 1u);
  EXPECT_EQ(ca->retransmissions(), 1u);  // the fast one; no timer firings
  EXPECT_GT(cb->sack_blocks_sent(), 0u);
  for (std::uint8_t v : {0xA0, 0xA1, 0xA2}) {  // in-order despite the drop
    auto msg = cb->recv(1s);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->payload.size(), 1u);
    EXPECT_EQ(msg->payload[0], v);
  }
}

TEST_F(RudpFaultTest, PacketDupRepairsSingleDrop) {
  SimNet net(/*seed=*/41);
  auto a = net.add_node("a");
  auto b = net.add_node("b");

  RudpConfig config;
  config.retransmit_interval = 5s;
  config.max_attempts = 3;
  config.repair = LossRepair::kPacketDup;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  // The fault site only sees the primary copy; the back-to-back duplicate
  // still goes out, so the send completes with zero retransmissions.
  auto plan = fault::Plan::parse("rudp.send@#1:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  const util::Bytes msg = {0x7E};
  ASSERT_TRUE(
      ca->send(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size())).ok());
  fault::Injector::instance().disarm();

  EXPECT_EQ(ca->retransmissions(), 0u);
  auto got = cb->recv(1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, msg);
}

}  // namespace
}  // namespace naplet::net
