#include "agent/bus.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/sim.hpp"
#include "util/sync.hpp"

namespace naplet::agent {
namespace {

using namespace std::chrono_literals;

// Handlers run on the bus's receiver thread until the bus is destroyed, so
// each test declares what its handlers touch before its buses.
std::unique_ptr<ServerBus> make_bus(net::Network& node,
                                    net::RudpConfig config = {}) {
  auto dgram = node.bind_datagram(0);
  EXPECT_TRUE(dgram.ok());
  return std::make_unique<ServerBus>(std::move(*dgram),
                                     obs::Registry::global(), config);
}

TEST(ServerBus, RoutesByKind) {
  net::SimNet net;
  auto node_a = net.add_node("a");
  auto node_b = net.add_node("b");
  util::BlockingQueue<std::string> ctrl_inbox;
  util::BlockingQueue<std::string> mail_inbox;
  auto bus_a = make_bus(*node_a);
  auto bus_b = make_bus(*node_b);

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
  std::atomic<int> first{0}, second{0};
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

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
  util::BlockingQueue<net::Endpoint> froms;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

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
  // A handler replies with post(): it returns once the reply is on the
  // wire, and the channel retransmits it until the peer ACKs.
  net::SimNet net;
  util::BlockingQueue<std::string> replies;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

  bus_a->subscribe(BusKind::kControl,
                   [&](const net::Endpoint&, util::ByteSpan payload) {
                     replies.push(std::string(payload.begin(),
                                              payload.end()));
                   });
  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint& from, util::ByteSpan) {
                     const std::string pong = "pong";
                     EXPECT_TRUE(bus_b->post(
                                        from, BusKind::kControl,
                                        util::ByteSpan(
                                            reinterpret_cast<const std::uint8_t*>(
                                                pong.data()),
                                            pong.size()))
                                     .ok());
                   });
  const util::Bytes ping = {'p'};
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                          util::ByteSpan(ping.data(), ping.size()))
                  .ok());
  auto reply = replies.pop_for(2s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "pong");
}

TEST(ServerBus, BlockingSendFromHandlerFailsFast) {
  // Handlers run on the channel's receiver thread, which is the thread that
  // would process the ACK a blocking send waits for: the send must fail at
  // once instead of hanging until its retransmits run out.
  net::SimNet net;
  util::BlockingQueue<util::Status> outcomes;
  util::BlockingQueue<util::Duration> took;
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint& from, util::ByteSpan) {
                     const util::Bytes pong = {'q'};
                     const auto t0 = std::chrono::steady_clock::now();
                     outcomes.push(bus_b->send(
                         from, BusKind::kControl,
                         util::ByteSpan(pong.data(), pong.size())));
                     took.push(std::chrono::duration_cast<util::Duration>(
                         std::chrono::steady_clock::now() - t0));
                   });
  const util::Bytes ping = {'p'};
  ASSERT_TRUE(bus_a->send(bus_b->local_endpoint(), BusKind::kControl,
                          util::ByteSpan(ping.data(), ping.size()))
                  .ok());
  auto outcome = outcomes.pop_for(2s);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->code(), util::StatusCode::kFailedPrecondition)
      << outcome->to_string();
  auto elapsed = took.pop_for(1s);
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_LT(*elapsed, 100ms);
  // The same send from any other thread still goes through.
  EXPECT_TRUE(bus_b->send(bus_a->local_endpoint(), BusKind::kProbe,
                          util::ByteSpan(ping.data(), ping.size()))
                  .ok());
}

TEST(ServerBus, StopWaitsForRunningHandler) {
  // stop() returns only once a handler that is running has finished:
  // callers tear down what handlers point into right after it.
  net::SimNet net;
  util::Event entered;
  std::atomic<bool> finished{false};
  auto bus_a = make_bus(*net.add_node("a"));
  auto bus_b = make_bus(*net.add_node("b"));

  bus_b->subscribe(BusKind::kControl,
                   [&](const net::Endpoint&, util::ByteSpan) {
                     entered.set();
                     std::this_thread::sleep_for(100ms);
                     finished.store(true);
                   });
  const util::Bytes ping = {'p'};
  ASSERT_TRUE(bus_a->post(bus_b->local_endpoint(), BusKind::kControl,
                          util::ByteSpan(ping.data(), ping.size()))
                  .ok());
  ASSERT_TRUE(entered.wait_for(2s));
  bus_b->stop();
  EXPECT_TRUE(finished.load());
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
  std::atomic<int> received{0};
  auto bus_a = make_bus(*node_a, rudp);
  auto bus_b = make_bus(*node_b, rudp);

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
