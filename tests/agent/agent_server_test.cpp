#include "agent/agent_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/sim.hpp"

namespace naplet::agent {
namespace {

using namespace std::chrono_literals;

// Shared observable side effects for test agents (single process).
struct Probe {
  std::atomic<int> runs{0};
  std::atomic<int> max_hop{0};
  std::mutex mu;
  std::vector<std::string> visited;

  void record(const AgentContext& ctx) {
    ++runs;
    int hop = static_cast<int>(ctx.hop_count());
    int prev = max_hop.load();
    while (hop > prev && !max_hop.compare_exchange_weak(prev, hop)) {
    }
    std::lock_guard lock(mu);
    visited.push_back(ctx.server_name());
  }
};

Probe& probe() {
  static Probe p;
  return p;
}

/// Walks a fixed itinerary carried in its persisted state.
class TouristAgent : public Agent {
 public:
  std::vector<std::string> itinerary;
  std::uint64_t steps_done = 0;

  void run(AgentContext& ctx) override {
    probe().record(ctx);
    if (steps_done < itinerary.size()) {
      const std::string next = itinerary[steps_done];
      ++steps_done;
      ctx.migrate_to(next);
    }
  }

  void persist(util::Archive& ar) override {
    ar.field(itinerary);
    ar.field(steps_done);
  }

  std::string type_name() const override { return "TouristAgent"; }
};
NAPLET_REGISTER_AGENT(TouristAgent);

/// Consumes one mail message, then replies to the sender.
class EchoMailAgent : public Agent {
 public:
  void run(AgentContext& ctx) override {
    auto mail = ctx.read_mail(5s);
    if (mail) {
      util::Bytes reply(mail->body);
      reply.push_back('!');
      (void)ctx.send_mail(mail->from,
                          util::ByteSpan(reply.data(), reply.size()));
    }
  }
  void persist(util::Archive&) override {}
  std::string type_name() const override { return "EchoMailAgent"; }
};
NAPLET_REGISTER_AGENT(EchoMailAgent);

class UnregisteredAgent : public Agent {
 public:
  void run(AgentContext&) override {}
  void persist(util::Archive&) override {}
  std::string type_name() const override { return "UnregisteredAgent"; }
};

class AgentServerTest : public ::testing::Test {
 protected:
  AgentServerTest() {
    realm_key_ = util::Bytes(32, 0x5A);
    server_a_ = make_server("alpha");
    server_b_ = make_server("beta");
    EXPECT_TRUE(server_a_->start().ok());
    EXPECT_TRUE(server_b_->start().ok());
  }

  ~AgentServerTest() override {
    server_a_->stop();
    server_b_->stop();
  }

  std::unique_ptr<AgentServer> make_server(const std::string& name) {
    AgentServerConfig config;
    config.name = name;
    config.realm_key = realm_key_;
    return std::make_unique<AgentServer>(net_.add_node(name), locations_,
                                         std::move(config));
  }

  net::SimNet net_;
  LocationService locations_;
  util::Bytes realm_key_;
  std::unique_ptr<AgentServer> server_a_;
  std::unique_ptr<AgentServer> server_b_;
};

TEST_F(AgentServerTest, LaunchRunsAgentOnce) {
  const int runs_before = probe().runs.load();
  auto agent = std::make_unique<TouristAgent>();
  ASSERT_TRUE(server_a_->launch(std::move(agent), AgentId("solo")).ok());
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("solo"), 5s));
  EXPECT_EQ(probe().runs.load(), runs_before + 1);
  EXPECT_EQ(server_a_->resident_count(), 0u);
}

TEST_F(AgentServerTest, LaunchValidation) {
  EXPECT_FALSE(server_a_->launch(nullptr, AgentId("x")).ok());
  EXPECT_FALSE(
      server_a_->launch(std::make_unique<TouristAgent>(), AgentId()).ok());
  EXPECT_EQ(server_a_
                ->launch(std::make_unique<UnregisteredAgent>(), AgentId("u"))
                .code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(AgentServerTest, DuplicateIdRejected) {
  auto sleepy = std::make_unique<EchoMailAgent>();  // blocks on mail 5s
  ASSERT_TRUE(server_a_->launch(std::move(sleepy), AgentId("dup")).ok());
  EXPECT_EQ(
      server_a_->launch(std::make_unique<TouristAgent>(), AgentId("dup"))
          .code(),
      util::StatusCode::kAlreadyExists);
  // Unblock and drain.
  (void)server_a_->post().send(AgentId("t"), AgentId("dup"), util::ByteSpan{});
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("dup"), 10s));
}

TEST_F(AgentServerTest, MigrationMovesStateAndIncrementsHops) {
  const int max_hop_before = probe().max_hop.load();
  auto agent = std::make_unique<TouristAgent>();
  agent->itinerary = {"beta", "alpha", "beta"};
  ASSERT_TRUE(server_a_->launch(std::move(agent), AgentId("walker")).ok());
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("walker"), 10s));
  EXPECT_GE(probe().max_hop.load(), 3);
  EXPECT_GE(max_hop_before, 0);
  // The destination can finish running the agent before the final hop's
  // source thread records its outbound migration; let the counters settle.
  for (int i = 0; i < 2000 && server_a_->migrations_out() +
                                      server_b_->migrations_out() <
                                  3u;
       ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server_a_->migrations_out() + server_b_->migrations_out(), 3u);
  EXPECT_EQ(server_a_->migrations_in() + server_b_->migrations_in(), 3u);
}

TEST_F(AgentServerTest, MigrationToUnknownServerTerminatesGracefully) {
  auto agent = std::make_unique<TouristAgent>();
  agent->itinerary = {"gamma-does-not-exist"};
  ASSERT_TRUE(server_a_->launch(std::move(agent), AgentId("lost")).ok());
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("lost"), 5s));
  EXPECT_EQ(server_a_->migrations_out(), 0u);
}

TEST_F(AgentServerTest, MigrationToSelfRejectedThenTerminates) {
  auto agent = std::make_unique<TouristAgent>();
  agent->itinerary = {"alpha"};
  ASSERT_TRUE(server_a_->launch(std::move(agent), AgentId("selfie")).ok());
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("selfie"), 5s));
}

TEST_F(AgentServerTest, MailFollowsAgentAcrossServers) {
  ASSERT_TRUE(server_b_
                  ->launch(std::make_unique<EchoMailAgent>(), AgentId("echo"))
                  .ok());
  // Another "agent" (the test) mails it via server A's PostOffice.
  locations_.register_agent(AgentId("tester"), server_a_->node_info());
  server_a_->post().open_mailbox(AgentId("tester"));
  const std::string body = "ping";
  ASSERT_TRUE(server_a_->post()
                  .send(AgentId("tester"), AgentId("echo"),
                        util::ByteSpan(
                            reinterpret_cast<const std::uint8_t*>(body.data()),
                            body.size()))
                  .ok());
  auto reply = server_a_->post().read(AgentId("tester"), 5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::string(reply->body.begin(), reply->body.end()), "ping!");
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("echo"), 5s));
}

TEST_F(AgentServerTest, NodeInfoRegistered) {
  auto info = locations_.lookup_server("alpha");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->server_name, "alpha");
  EXPECT_GT(info->control.port, 0);
  EXPECT_GT(info->migration.port, 0);
}

TEST_F(AgentServerTest, RedirectorEndpointUpdateIsRaceFree) {
  // Regression: redirector_endpoint_ used to be written by
  // set_redirector_endpoint without synchronization while node_info() read
  // it from agent threads. Both now go through the server mutex; readers
  // must only ever observe one of the published values. Run under TSan to
  // catch any regression in the guarding itself.
  const net::Endpoint even{"alpha", 7001};
  const net::Endpoint odd{"alpha", 7002};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      server_a_->set_redirector_endpoint(i % 2 == 0 ? even : odd);
    }
    done.store(true);
  });
  // Keep sampling past `done` so a fast writer can't starve the reader of
  // observations; once the writer has run, the port is always published.
  int observed = 0;
  while (!done.load() || observed < 100) {
    const NodeInfo info = server_a_->node_info();
    if (info.redirector.port != 0) {
      ++observed;
      EXPECT_TRUE(info.redirector.port == even.port ||
                  info.redirector.port == odd.port)
          << "torn read: " << info.redirector.to_string();
    }
  }
  writer.join();
  EXPECT_GT(observed, 0);
}

TEST_F(AgentServerTest, MigrationAuthRejectedAcrossRealms) {
  // A server with a different realm key must reject inbound migrations.
  AgentServerConfig config;
  config.name = "outsider";
  config.realm_key = util::Bytes(32, 0xEE);
  AgentServer outsider(net_.add_node("outsider"), locations_,
                       std::move(config));
  ASSERT_TRUE(outsider.start().ok());

  auto agent = std::make_unique<TouristAgent>();
  agent->itinerary = {"outsider"};
  ASSERT_TRUE(server_a_->launch(std::move(agent), AgentId("spy")).ok());
  ASSERT_TRUE(wait_agent_gone(locations_, AgentId("spy"), 5s));
  EXPECT_EQ(outsider.migrations_in(), 0u);
  EXPECT_EQ(outsider.resident_count(), 0u);
  outsider.stop();
}

}  // namespace
}  // namespace naplet::agent
