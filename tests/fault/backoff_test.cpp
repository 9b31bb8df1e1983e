// Satellite coverage for the capped, jittered rudp retransmit backoff.
// The schedule itself is pure (ReliableChannel::backoff_base); the live
// retransmit behavior is observed through the fault injector's observation
// mode — every retransmit attempt hits "rudp.retransmit" and records a
// fault-clock timestamp, so the test reads the actual schedule instead of
// instrumenting the channel.
#include <gtest/gtest.h>

#include <chrono>

#include "fault/fault.hpp"
#include "net/rudp.hpp"
#include "net/rudp_inbox.hpp"
#include "net/sim.hpp"

namespace naplet::net {
namespace {

using namespace std::chrono_literals;

TEST(BackoffTest, BaseScheduleIsExponentialAndCapped) {
  RudpConfig config;
  config.retransmit_interval = 10ms;
  config.backoff_multiplier = 2.0;
  // Default cap: 4x the base interval.
  EXPECT_EQ(ReliableChannel::backoff_base(config, 0), 10ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 1), 20ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 2), 40ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 3), 40ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 100), 40ms);

  config.max_retransmit_interval = 25ms;
  EXPECT_EQ(ReliableChannel::backoff_base(config, 0), 10ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 1), 20ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 2), 25ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 1000), 25ms);
}

TEST(BackoffTest, MultiplierOneKeepsFixedInterval) {
  RudpConfig config;
  config.retransmit_interval = 15ms;
  config.backoff_multiplier = 1.0;
  EXPECT_EQ(ReliableChannel::backoff_base(config, 0), 15ms);
  EXPECT_EQ(ReliableChannel::backoff_base(config, 7), 15ms);
}

class BackoffFaultClockTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::instance().disarm(); }
};

TEST_F(BackoffFaultClockTest, RetransmitGapsFollowBackoffSchedule) {
  SimNet net(7);
  auto sender = net.add_node("bo-a");
  auto sink = net.add_node("bo-b");
  auto sock = sender->bind_datagram(0);
  ASSERT_TRUE(sock.ok());
  // A bound-but-mute datagram socket: packets arrive, no rudp ACK ever
  // comes back, so the channel walks its whole retransmit schedule.
  auto mute = sink->bind_datagram(0);
  ASSERT_TRUE(mute.ok());
  const Endpoint dest = (*mute)->local_endpoint();

  RudpConfig config;
  config.retransmit_interval = 20ms;
  config.backoff_multiplier = 2.0;  // 20, 40, 80 (cap) ...
  config.max_attempts = 4;
  config.retransmit_jitter = 0.0;  // exact schedule for this test
  config.jitter_seed = 1;
  obs::Registry metrics;
  ReliableChannel channel(std::move(*sock), metrics, {}, config);

  fault::Injector::instance().arm(fault::Plan{});  // observation mode
  const std::uint8_t byte = 0x5A;
  const auto status = channel.send(dest, util::ByteSpan(&byte, 1));
  fault::Injector::instance().disarm();
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
  EXPECT_EQ(channel.retransmissions(), 3u);

  auto& injector = fault::Injector::instance();
  EXPECT_EQ(injector.hit_count("rudp.send"), 1u);
  const auto first = injector.hit_times_ms("rudp.send");
  const auto retx = injector.hit_times_ms("rudp.retransmit");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(retx.size(), 3u);

  // Gap k reflects backoff_base(k): 20, 40, 80 ms. Sleeps only overshoot,
  // so assert a tight lower bound and a loose upper one, and that the
  // schedule actually grows.
  const double gaps[] = {retx[0] - first[0], retx[1] - retx[0],
                         retx[2] - retx[1]};
  EXPECT_GE(gaps[0], 19.0);
  EXPECT_GE(gaps[1], 39.0);
  EXPECT_GE(gaps[2], 79.0);
  EXPECT_LT(gaps[0], 200.0);
  EXPECT_GT(gaps[1], gaps[0]);
  EXPECT_GT(gaps[2], gaps[1]);
}

TEST_F(BackoffFaultClockTest, JitterStaysInsideConfiguredBand) {
  SimNet net(11);
  auto sender = net.add_node("bo-c");
  auto sink = net.add_node("bo-d");
  auto sock = sender->bind_datagram(0);
  auto mute = sink->bind_datagram(0);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(mute.ok());

  RudpConfig config;
  config.retransmit_interval = 20ms;
  config.backoff_multiplier = 1.0;  // isolate the jitter factor
  config.max_attempts = 6;
  config.retransmit_jitter = 0.4;  // waits in [12, 28) ms
  config.jitter_seed = 99;         // reproducible draw sequence
  obs::Registry metrics;
  ReliableChannel channel(std::move(*sock), metrics, {}, config);

  fault::Injector::instance().arm(fault::Plan{});
  const std::uint8_t byte = 0x5A;
  const auto status =
      channel.send((*mute)->local_endpoint(), util::ByteSpan(&byte, 1));
  fault::Injector::instance().disarm();
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);

  const auto first = fault::Injector::instance().hit_times_ms("rudp.send");
  const auto retx =
      fault::Injector::instance().hit_times_ms("rudp.retransmit");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(retx.size(), 5u);
  double prev = first[0];
  for (const double t : retx) {
    const double gap = t - prev;
    prev = t;
    EXPECT_GE(gap, 11.0);   // >= (1 - 0.4) * 20ms, minus clock slack
    EXPECT_LT(gap, 150.0);  // << a pathological stall
  }
}

TEST_F(BackoffFaultClockTest, DroppedFirstSendRecoversViaRetransmit) {
  SimNet net(13);
  auto a = net.add_node("bo-e");
  auto b = net.add_node("bo-f");
  auto sock_a = a->bind_datagram(0);
  auto sock_b = b->bind_datagram(0);
  ASSERT_TRUE(sock_a.ok());
  ASSERT_TRUE(sock_b.ok());

  RudpConfig config;
  config.retransmit_interval = 10ms;
  config.max_attempts = 10;
  config.jitter_seed = 5;
  obs::Registry metrics_a;
  obs::Registry metrics_b;
  RudpInbox inbox_b;
  ReliableChannel chan_a(std::move(*sock_a), metrics_a, {}, config);
  ReliableChannel chan_b(std::move(*sock_b), metrics_b, inbox_b.sink(),
                         config);

  auto plan = fault::Plan::parse("rudp.send@#1:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  const std::uint8_t byte = 0x42;
  const auto status =
      chan_a.send(chan_b.local_endpoint(), util::ByteSpan(&byte, 1));
  fault::Injector::instance().disarm();

  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_GE(chan_a.retransmissions(), 1u);
  auto got = inbox_b.recv(1s);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->payload.size(), 1u);
  EXPECT_EQ(got->payload[0], 0x42);
}

TEST_F(BackoffFaultClockTest, ErrorRuleFailsTheSend) {
  SimNet net(17);
  auto a = net.add_node("bo-g");
  auto sock = a->bind_datagram(0);
  ASSERT_TRUE(sock.ok());
  obs::Registry metrics;
  ReliableChannel channel(std::move(*sock), metrics, {});

  auto plan = fault::Plan::parse("rudp.send@#1:error");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  const std::uint8_t byte = 0;
  const auto status = channel.send(Endpoint{"bo-g", 1}, util::ByteSpan(&byte, 1));
  fault::Injector::instance().disarm();
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace naplet::net
