#include "agent/postoffice.hpp"

#include <gtest/gtest.h>

#include "net/sim.hpp"

namespace naplet::agent {
namespace {

using namespace std::chrono_literals;

// Two PostOffices on two simulated hosts sharing a location service.
class PostOfficeTest : public ::testing::Test {
 protected:
  PostOfficeTest() {
    auto node_a = net_.add_node("a");
    auto node_b = net_.add_node("b");
    bus_a_ = make_bus(*node_a);
    bus_b_ = make_bus(*node_b);
    po_a_ = std::make_unique<PostOffice>(*bus_a_, locations_, "server-a");
    po_b_ = std::make_unique<PostOffice>(*bus_b_, locations_, "server-b");

    node_info_a_.server_name = "server-a";
    node_info_a_.control = bus_a_->local_endpoint();
    node_info_b_.server_name = "server-b";
    node_info_b_.control = bus_b_->local_endpoint();
  }

  ~PostOfficeTest() override {
    po_a_->stop();
    po_b_->stop();
    bus_a_->stop();
    bus_b_->stop();
  }

  std::unique_ptr<ServerBus> make_bus(net::Network& node) {
    auto dgram = node.bind_datagram(0);
    EXPECT_TRUE(dgram.ok());
    return std::make_unique<ServerBus>(std::move(*dgram), metrics_);
  }

  net::SimNet net_;
  obs::Registry metrics_;  // shared by both buses; outlives them
  LocationService locations_;
  std::unique_ptr<ServerBus> bus_a_;
  std::unique_ptr<ServerBus> bus_b_;
  std::unique_ptr<PostOffice> po_a_;
  std::unique_ptr<PostOffice> po_b_;
  NodeInfo node_info_a_;
  NodeInfo node_info_b_;
};

util::ByteSpan body(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

TEST_F(PostOfficeTest, LocalDelivery) {
  po_a_->open_mailbox(AgentId("alice"));
  locations_.register_agent(AgentId("alice"), node_info_a_);
  ASSERT_TRUE(po_a_->send(AgentId("bob"), AgentId("alice"), body("hi")).ok());
  auto mail = po_a_->read(AgentId("alice"), 1s);
  ASSERT_TRUE(mail.has_value());
  EXPECT_EQ(mail->from, AgentId("bob"));
  EXPECT_EQ(std::string(mail->body.begin(), mail->body.end()), "hi");
}

TEST_F(PostOfficeTest, RemoteDelivery) {
  po_b_->open_mailbox(AgentId("bob"));
  locations_.register_agent(AgentId("bob"), node_info_b_);
  ASSERT_TRUE(
      po_a_->send(AgentId("alice"), AgentId("bob"), body("remote")).ok());
  auto mail = po_b_->read(AgentId("bob"), 2s);
  ASSERT_TRUE(mail.has_value());
  EXPECT_EQ(std::string(mail->body.begin(), mail->body.end()), "remote");
}

TEST_F(PostOfficeTest, ParkedUntilReceiverAppears) {
  // Receiver not yet registered: mail is parked and retried (persistent
  // semantics), then delivered once the agent settles.
  ASSERT_TRUE(
      po_a_->send(AgentId("alice"), AgentId("late"), body("wait for me")).ok());
  std::this_thread::sleep_for(100ms);
  po_b_->open_mailbox(AgentId("late"));
  locations_.register_agent(AgentId("late"), node_info_b_);
  auto mail = po_b_->read(AgentId("late"), 2s);
  ASSERT_TRUE(mail.has_value());
  EXPECT_EQ(std::string(mail->body.begin(), mail->body.end()), "wait for me");
}

TEST_F(PostOfficeTest, ForwardingAfterMove) {
  // Mail routed to server-a, but the agent has already moved to server-b:
  // a's PostOffice must forward it (paper: messages in transmission are
  // forwarded in support of migration).
  po_a_->open_mailbox(AgentId("mover"));
  locations_.register_agent(AgentId("mover"), node_info_a_);
  ASSERT_TRUE(
      po_b_->send(AgentId("sender"), AgentId("mover"), body("chase")).ok());
  // Let it land at a, then move the agent.
  auto first = po_a_->read(AgentId("mover"), 1s);
  ASSERT_TRUE(first.has_value());

  // Now simulate the move: mailbox drained and reopened at b.
  auto pending = po_a_->drain_mailbox(AgentId("mover"));
  po_b_->open_mailbox(AgentId("mover"));
  po_b_->restore_mailbox(AgentId("mover"), std::move(pending));
  locations_.register_agent(AgentId("mover"), node_info_b_);

  // Mail sent with the stale location must be forwarded by a.
  ASSERT_TRUE(
      po_b_->send(AgentId("sender"), AgentId("mover"), body("after-move")).ok());
  auto mail = po_b_->read(AgentId("mover"), 2s);
  ASSERT_TRUE(mail.has_value());
  EXPECT_EQ(std::string(mail->body.begin(), mail->body.end()), "after-move");
}

TEST_F(PostOfficeTest, ForwardedMailArrivesWellInsideOneGiveUpBudget) {
  // Mail lands on a's bus for an agent that now lives at b. A bus handler
  // must not wait on a send (it would hold up every later datagram to a),
  // so a's retrier forwards it; two pieces in a row must still arrive in a
  // fraction of the time one rudp send may retransmit before giving up.
  const net::RudpConfig rudp;  // the buses' config
  util::Duration give_up{0};
  for (int k = 0; k < rudp.max_attempts; ++k) {
    give_up += net::ReliableChannel::backoff_base(rudp, k);
  }
  po_b_->open_mailbox(AgentId("mover"));
  locations_.register_agent(AgentId("mover"), node_info_b_);

  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string text : {"one", "two"}) {
    // A sender with a stale location routed this once already, to a.
    PostOffice::Envelope envelope;
    envelope.to = AgentId("mover");
    envelope.mail =
        Mail{AgentId("sender"), util::Bytes(text.begin(), text.end())};
    envelope.hops = 1;
    const util::Bytes wire = util::Archive::encode(envelope);
    ASSERT_TRUE(bus_b_->send(bus_a_->local_endpoint(), BusKind::kMail,
                             util::ByteSpan(wire.data(), wire.size()))
                    .ok());
  }
  for (const std::string text : {"one", "two"}) {
    auto mail = po_b_->read(AgentId("mover"), give_up);
    ASSERT_TRUE(mail.has_value());
    EXPECT_EQ(std::string(mail->body.begin(), mail->body.end()), text);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, give_up / 4);
  EXPECT_EQ(po_a_->forwarded(), 2u);
}

TEST_F(PostOfficeTest, MailboxMigratesWithContents) {
  po_a_->open_mailbox(AgentId("m"));
  locations_.register_agent(AgentId("m"), node_info_a_);
  ASSERT_TRUE(po_a_->send(AgentId("s"), AgentId("m"), body("one")).ok());
  ASSERT_TRUE(po_a_->send(AgentId("s"), AgentId("m"), body("two")).ok());
  std::this_thread::sleep_for(50ms);

  auto pending = po_a_->drain_mailbox(AgentId("m"));
  EXPECT_EQ(pending.size(), 2u);
  po_b_->restore_mailbox(AgentId("m"), std::move(pending));
  auto one = po_b_->read(AgentId("m"), 1s);
  auto two = po_b_->read(AgentId("m"), 1s);
  ASSERT_TRUE(one && two);
  EXPECT_EQ(std::string(one->body.begin(), one->body.end()), "one");
  EXPECT_EQ(std::string(two->body.begin(), two->body.end()), "two");
}

TEST_F(PostOfficeTest, TtlExpiryCountsDeadLetters) {
  PostOfficeConfig config;
  config.delivery_ttl = 100ms;
  config.retry_interval = 20ms;
  auto node_c = net_.add_node("c");
  auto bus_c = make_bus(*node_c);
  PostOffice po_c(*bus_c, locations_, "server-c", config);
  ASSERT_TRUE(po_c.send(AgentId("s"), AgentId("nobody"), body("lost")).ok());
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(po_c.dead_letters(), 1u);
  po_c.stop();
  bus_c->stop();
}

TEST_F(PostOfficeTest, ReadFromUnknownMailbox) {
  EXPECT_FALSE(po_a_->read(AgentId("ghost"), 10ms).has_value());
}

TEST_F(PostOfficeTest, CloseMailboxDropsFurtherReads) {
  po_a_->open_mailbox(AgentId("x"));
  po_a_->close_mailbox(AgentId("x"));
  EXPECT_FALSE(po_a_->read(AgentId("x"), 10ms).has_value());
}

TEST_F(PostOfficeTest, SendAfterStopRejected) {
  auto node_d = net_.add_node("d");
  auto bus_d = make_bus(*node_d);
  PostOffice po_d(*bus_d, locations_, "server-d");
  po_d.stop();
  EXPECT_FALSE(po_d.send(AgentId("a"), AgentId("b"), body("x")).ok());
  bus_d->stop();
}

}  // namespace
}  // namespace naplet::agent
