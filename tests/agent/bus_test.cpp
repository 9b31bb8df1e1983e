#include "agent/bus.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/sim.hpp"
#include "util/sync.hpp"

namespace naplet::agent {
namespace {

using namespace std::chrono_literals;

std::unique_ptr<ServerBus> make_bus(net::Network& node,
                                    net::RudpConfig config = {}) {
  auto dgram = node.bind_datagram(0);
  EXPECT_TRUE(dgram.ok());
  return std::make_unique<ServerBus>(
      std::make_unique<net::ReliableChannel>(
          std::move(*dgram), obs::Registry::global(), config));
}

TEST(ServerBus, RoutesByKind) {
  net::SimNet net;
  auto node_a = net.add_node("a");
  auto node_b = net.add_node("b");
  auto bus_a = make_bus(*node_a);
  auto bus_b = make_bus(*node_b);

  util::BlockingQueue<std::string> ctrl_inbox;
  util::BlockingQueue<std::string> mail_inbox;
  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint&, util::ByteSpan payload) {
                     ctrl_inbox.push(std::string(payload.begin(),
                                                 payload.end()));
                   });
  bus_b->subscribe(BusKind::kMail,
                   [&](const net::Endpoint&, util::ByteSpan payload) {
                     mail_inbox.push(std::string(payload.begin(),
                                                 payload.end()));
                   });

  const std::string ctrl = "ctrl-msg";
  const std::string mail = "mail-msg";
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                          util::ByteSpan(
                              reinterpret_cast<const std::uint8_t*>(
                                  ctrl.data()),
                              ctrl.size()))
                  .ok());
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kMail,
                          util::ByteSpan(
                              reinterpret_cast<const std::uint8_t*>(
                                  mail.data()),
                              mail.size()))
                  .ok());

  auto got_ctrl = ctrl_inbox.pop_for(2s);
  auto got_mail = mail_inbox.pop_for(2s);
  ASSERT_TRUE(got_ctrl && got_mail);
  EXPECT_EQ(*got_ctrl, "ctrl-msg");
  EXPECT_EQ(*got_mail, "mail-msg");
}

TEST(ServerBus, UnhandledKindDropped) {
  net::SimNet net;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));
  // No subscription for kProbe at b: the message is ACKed by the channel
  // (send succeeds) and silently dropped at dispatch.
  const util::Bytes payload = {1};
  EXPECT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kProbe,
                          util::ByteSpan(payload.data(), payload.size()))
                  .ok());
}

TEST(ServerBus, HandlerReplacement) {
  net::SimNet net;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

  std::atomic<int> first{0}, second{0};
  bus_b->subscribe(BusKind::kProbe,
                   [&](const net::Endpoint&, util::ByteSpan) { ++first; });
  const util::Bytes payload = {1};
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kProbe,
                          util::ByteSpan(payload.data(), payload.size()))
                  .ok());
  // The rudp ACK (which unblocks send) races the dispatch to the handler;
  // wait for the first message to actually land before replacing it.
  for (int i = 0; i < 2000 && first.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(first.load(), 1);
  // Replace the handler; subsequent messages go to the new one only.
  bus_b->subscribe(BusKind::kProbe,
                   [&](const net::Endpoint&, util::ByteSpan) { ++second; });
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kProbe,
                          util::ByteSpan(payload.data(), payload.size()))
                  .ok());
  // Delivery is asynchronous; wait for the counters to settle.
  for (int i = 0; i < 100 && first.load() + second.load() < 2; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
}

TEST(ServerBus, HandlerSeesSenderEndpoint) {
  net::SimNet net;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

  util::BlockingQueue<net::Endpoint> froms;
  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint& from, util::ByteSpan) {
                     froms.push(from);
                   });
  const util::Bytes payload = {1};
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                          util::ByteSpan(payload.data(), payload.size()))
                  .ok());
  auto from = froms.pop_for(2s);
  ASSERT_TRUE(from.has_value());
  EXPECT_EQ(*from, bus_a->local_endpoint());
}

TEST(ServerBus, BidirectionalReplyFromHandler) {
  // A handler may send on the bus (reliable send blocks on the channel's
  // rudp ACK, which is processed by the channel's own receiver thread, so
  // no deadlock).
  net::SimNet net;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

  util::BlockingQueue<std::string> replies;
  std::atomic<bool> reply_sent{false};
  bus_a->subscribe(BusKind::kControl,
                   [&](const net::Endpoint&, util::ByteSpan payload) {
                     replies.push(std::string(payload.begin(),
                                              payload.end()));
                   });
  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint& from, util::ByteSpan) {
                     const std::string pong = "pong";
                     EXPECT_TRUE(bus_b->send(
                                        from, BusKind::kControl,
                                        util::ByteSpan(
                                            reinterpret_cast<const std::uint8_t*>(
                                                pong.data()),
                                            pong.size()))
                                     .ok());
                     reply_sent.store(true);
                   });
  const util::Bytes ping = {'p'};
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                          util::ByteSpan(ping.data(), ping.size()))
                  .ok());
  auto reply = replies.pop_for(2s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "pong");
  // The pong payload reaches us before bus_b's blocking send has seen its
  // own transport ACK; don't tear the buses down under the handler.
  for (int i = 0; i < 2000 && !reply_sent.load(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(reply_sent.load());
}

TEST(ServerBus, StopIsIdempotentAndSendFailsAfter) {
  net::SimNet net;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));
  bus_a->stop();
  bus_a->stop();  // no crash
  const util::Bytes payload = {1};
  EXPECT_FALSE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                           util::ByteSpan(payload.data(), payload.size()))
                   .ok());
}

TEST(ServerBus, SurvivesLossyLink) {
  net::SimNet net(/*seed=*/3);
  auto node_a = net.add_node("a");
  auto node_b = net.add_node("b");
  net.set_link("a", "b", net::LinkConfig{.datagram_loss = 0.4});
  net.set_link("b", "a", net::LinkConfig{.datagram_loss = 0.4});

  net::RudpConfig rudp;
  rudp.retransmit_interval = 15ms;
  rudp.max_attempts = 60;
  auto bus_a = make_bus(*node_a, rudp);
  auto bus_b = make_bus(*node_b, rudp);

  std::atomic<int> received{0};
  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint&, util::ByteSpan) { ++received; });
  const util::Bytes payload = {9};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                            util::ByteSpan(payload.data(), payload.size()))
                    .ok())
        << i;
  }
  for (int i = 0; i < 200 && received.load() < 20; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(received.load(), 20);  // exactly once each, despite loss
}

}  // namespace
}  // namespace naplet::agent
