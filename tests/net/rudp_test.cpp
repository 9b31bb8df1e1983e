#include "net/rudp.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "fault/fault.hpp"
#include "net/sim.hpp"
#include "net/rudp_inbox.hpp"
#include "net/tcp.hpp"

namespace naplet::net {
namespace {

using namespace std::chrono_literals;

// Each channel records into a registry of its own, so every counter a test
// reads is that channel's alone, and delivers into its own inbox. This base
// is built first and destroyed last.
struct OwnState {
  obs::Registry metrics;
  RudpInbox inbox;
};
class TestChannel : private OwnState, public ReliableChannel {
 public:
  TestChannel(DatagramPtr socket, const RudpConfig& config)
      : ReliableChannel(std::move(socket), metrics, inbox.sink(), config) {}

  std::optional<Message> recv(util::Duration timeout) {
    return inbox.recv(timeout);
  }

  [[nodiscard]] std::int64_t inflight() {
    return metrics.gauge("rudp_window_inflight").value();
  }
  [[nodiscard]] std::uint64_t rtt_samples() {
    return metrics.histogram("rudp_rtt_us").count();
  }
  [[nodiscard]] std::uint64_t retransmit_samples() {
    return metrics.histogram("rudp_retransmits_per_send", "count").count();
  }
};

/// Poll `done` for up to `limit`; true once it holds.
template <typename Pred>
bool eventually(Pred done, util::Duration limit = 2s) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

std::unique_ptr<TestChannel> make_channel(Network& network,
                                          std::uint16_t port,
                                          RudpConfig config = {}) {
  auto dgram = network.bind_datagram(port);
  EXPECT_TRUE(dgram.ok());
  return std::make_unique<TestChannel>(std::move(*dgram), config);
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

TEST(Rudp, PostToAbsentReceiverReturnsAtOnce) {
  SimNet net;
  auto a = net.add_node("a");
  net.add_node("b");  // nothing bound: the packet can never be ACKed
  RudpConfig config;
  config.retransmit_interval = 1s;
  config.max_attempts = 1000;
  auto ca = make_channel(*a, 7, config);

  const util::Bytes msg = {1};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(
      ca->post(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size())).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 100ms);
  EXPECT_EQ(ca->inflight(), 1);  // still retransmitting in the background
}

TEST(Rudp, PostedPacketGoneAfterMaxAttempts) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_link("a", "b", LinkConfig{.datagram_loss = 1.0});
  RudpConfig config;
  config.retransmit_interval = 5ms;
  config.max_attempts = 3;
  config.window_packets = 1;
  auto ca = make_channel(*a, 7, config);
  auto cb = make_channel(*b, 7, config);

  const util::Bytes msg = {1};
  ASSERT_TRUE(
      ca->post(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size())).ok());
  EXPECT_TRUE(eventually([&] { return ca->inflight() == 0; }));
  EXPECT_EQ(ca->messages_sent(), 0u);
  EXPECT_EQ(ca->rtt_samples(), 0u);

  // The single window slot is free again: a second post is admitted at once.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(
      ca->post(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size())).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 100ms);
  (void)cb;
}

TEST(Rudp, AckedPostRecordsSendMetrics) {
  SimNet net;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto ca = make_channel(*a, 7);
  auto cb = make_channel(*b, 7);

  const util::Bytes msg = {7};
  ASSERT_TRUE(
      ca->post(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size())).ok());
  auto got = cb->recv(1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, msg);
  EXPECT_TRUE(eventually([&] { return ca->messages_sent() == 1; }));
  EXPECT_EQ(ca->rtt_samples(), 1u);
  EXPECT_EQ(ca->retransmit_samples(), 1u);
  EXPECT_EQ(ca->inflight(), 0);
}

TEST(Rudp, CloseWakesBlockedSendBehindPosts) {
  SimNet net;
  auto a = net.add_node("a");
  net.add_node("b");  // no receiver: nothing is ever ACKed
  RudpConfig config;
  config.retransmit_interval = 1s;
  config.max_attempts = 1000;
  auto ca = make_channel(*a, 7, config);

  const util::Bytes msg = {1};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ca->post(Endpoint{"b", 7},
                         util::ByteSpan(msg.data(), msg.size()))
                    .ok());
  }
  std::thread closer([&] {
    std::this_thread::sleep_for(50ms);
    ca->close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto status =
      ca->send(Endpoint{"b", 7}, util::ByteSpan(msg.data(), msg.size()));
  const auto waited = std::chrono::steady_clock::now() - t0;
  closer.join();
  EXPECT_EQ(status.code(), util::StatusCode::kCancelled);
  EXPECT_LT(waited, 1s);
  EXPECT_EQ(ca->inflight(), 0);  // posted packets settled too
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

TEST_F(RudpFaultTest, FastRetransmitOnSackGapEvidence) {
  SimNet net(/*seed=*/37);
  auto a = net.add_node("a");
  auto b = net.add_node("b");

  RudpConfig config;
  config.retransmit_interval = 5s;  // only the gap detector can recover
  // Without this the ACK of 0xA1 shrinks the RTO to its 2 ms floor, and
  // under load the timer retransmits 0xA2 before its ACK lands.
  config.adaptive_rto = false;
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

}  // namespace
}  // namespace naplet::net
