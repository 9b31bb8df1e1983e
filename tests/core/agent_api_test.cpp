// Full-stack test of the public NapletSocket API driven by real agents on
// real agent servers: agents open sockets through the controller proxy,
// exchange messages, migrate (the docking system suspends/ships/resumes
// their connections), reattach their handles, and keep talking.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/naplet_socket.hpp"
#include "core/test_realm.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

// Shared cross-agent observations (tests run in one process).
struct ApiProbe {
  std::atomic<int> pings_received{0};
  std::atomic<int> pongs_received{0};
  std::atomic<int> replayed{0};
  std::atomic<bool> order_broken{false};
  std::atomic<bool> error{false};
  std::mutex mu;
  std::string last_error;

  void fail(const std::string& why) {
    error = true;
    std::lock_guard lock(mu);
    last_error = why;
  }
  void reset() {
    pings_received = 0;
    pongs_received = 0;
    replayed = 0;
    order_broken = false;
    error = false;
    last_error.clear();
  }
};

ApiProbe& probe() {
  static ApiProbe p;
  return p;
}

/// Accepts one connection and echoes `expected` counters back; stationary.
class EchoServerAgent : public agent::Agent {
 public:
  std::uint32_t expected = 0;

  void run(agent::AgentContext& ctx) override {
    auto listener = NapletServerSocket::open(ctx);
    if (!listener.ok()) return probe().fail("listen failed");
    auto conn = (*listener)->accept(std::chrono::seconds(10));
    if (!conn.ok()) return probe().fail("accept failed");

    for (std::uint32_t i = 0; i < expected; ++i) {
      auto got = (*conn)->recv(std::chrono::seconds(20));
      if (!got.ok()) {
        return probe().fail("server recv: " + got.status().to_string());
      }
      util::BytesReader r(util::ByteSpan(got->body.data(), got->body.size()));
      const std::uint32_t counter = *r.u32();
      if (counter != i) probe().order_broken = true;
      probe().pings_received.fetch_add(1);
      util::BytesWriter w;
      w.u32(counter);
      if (!(*conn)->send(util::ByteSpan(w.data().data(), w.data().size()))
               .ok()) {
        return probe().fail("server send failed");
      }
    }
    (void)(*conn)->close();
  }

  void persist(util::Archive& ar) override { ar.field(expected); }
  std::string type_name() const override { return "EchoServerAgent"; }
};
NAPLET_REGISTER_AGENT(EchoServerAgent);

/// Connects to the echo server, then ping-pongs counters while hopping
/// across servers between bursts — the paper's Fig. 7/11 workload on the
/// real agent runtime.
class RoamingClientAgent : public agent::Agent {
 public:
  std::string peer_name;
  std::vector<std::string> itinerary;
  std::uint32_t total = 0;
  // persisted progress
  std::uint64_t conn_id = 0;
  std::uint32_t sent = 0;
  std::uint64_t hops_done = 0;

  void run(agent::AgentContext& ctx) override {
    std::unique_ptr<NapletSocket> conn;
    if (conn_id == 0) {
      auto opened = NapletSocket::open(ctx, agent::AgentId(peer_name));
      if (!opened.ok()) {
        return probe().fail("open: " + opened.status().to_string());
      }
      conn = std::move(*opened);
      conn_id = conn->conn_id();
    } else {
      auto reattached = NapletSocket::reattach(ctx, conn_id);
      if (!reattached.ok()) {
        return probe().fail("reattach: " + reattached.status().to_string());
      }
      conn = std::move(*reattached);
    }

    const std::uint32_t burst =
        total / static_cast<std::uint32_t>(itinerary.size() + 1);
    const std::uint32_t goal =
        hops_done < itinerary.size() ? sent + burst : total;

    while (sent < goal) {
      util::BytesWriter w;
      w.u32(sent);
      if (!conn->send(util::ByteSpan(w.data().data(), w.data().size())).ok()) {
        return probe().fail("client send failed");
      }
      auto pong = conn->recv(std::chrono::seconds(20));
      if (!pong.ok()) {
        return probe().fail("client recv: " + pong.status().to_string());
      }
      if (pong->from_buffer) probe().replayed.fetch_add(1);
      util::BytesReader r(
          util::ByteSpan(pong->body.data(), pong->body.size()));
      if (*r.u32() != sent) probe().order_broken = true;
      probe().pongs_received.fetch_add(1);
      ++sent;
    }

    if (hops_done < itinerary.size()) {
      const std::string next = itinerary[hops_done];
      ++hops_done;
      ctx.migrate_to(next);  // docking system migrates the connection too
    } else {
      (void)conn->close();
    }
  }

  void persist(util::Archive& ar) override {
    ar.field(peer_name);
    ar.field(itinerary);
    ar.field(total);
    ar.field(conn_id);
    ar.field(sent);
    ar.field(hops_done);
  }
  std::string type_name() const override { return "RoamingClientAgent"; }
};
NAPLET_REGISTER_AGENT(RoamingClientAgent);

/// launch() only starts the agent's thread. A client CONNECT that overtakes
/// the echo server's listen() is rejected outright, so wait for the listener.
bool wait_listening(SocketController& ctrl) {
  for (int i = 0; i < 1000; ++i) {
    if (ctrl.stats().listening_agents > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(AgentApi, StationaryPingPong) {
  probe().reset();
  SimRealm realm(2);

  auto server = std::make_unique<EchoServerAgent>();
  server->expected = 20;
  ASSERT_TRUE(realm.server(1)
                  .launch(std::move(server), agent::AgentId("echo-1"))
                  .ok());
  ASSERT_TRUE(wait_listening(realm.ctrl(1)));

  auto client = std::make_unique<RoamingClientAgent>();
  client->peer_name = "echo-1";
  client->total = 20;
  ASSERT_TRUE(realm.server(0)
                  .launch(std::move(client), agent::AgentId("pinger-1"))
                  .ok());

  ASSERT_TRUE(agent::wait_agent_gone(realm.locations(),
                                     agent::AgentId("pinger-1"), 30s));
  ASSERT_TRUE(agent::wait_agent_gone(realm.locations(),
                                     agent::AgentId("echo-1"), 30s));
  EXPECT_FALSE(probe().error.load()) << probe().last_error;
  EXPECT_EQ(probe().pongs_received.load(), 20);
  EXPECT_FALSE(probe().order_broken.load());
}

TEST(AgentApi, ClientMigratesAcrossThreeServersMidStream) {
  probe().reset();
  SimRealm realm(4);

  auto server = std::make_unique<EchoServerAgent>();
  server->expected = 40;
  ASSERT_TRUE(realm.server(0)
                  .launch(std::move(server), agent::AgentId("echo-2"))
                  .ok());
  ASSERT_TRUE(wait_listening(realm.ctrl(0)));

  auto client = std::make_unique<RoamingClientAgent>();
  client->peer_name = "echo-2";
  client->total = 40;
  client->itinerary = {"node2", "node3", "node1"};
  ASSERT_TRUE(realm.server(1)
                  .launch(std::move(client), agent::AgentId("roamer-2"))
                  .ok());

  ASSERT_TRUE(agent::wait_agent_gone(realm.locations(),
                                     agent::AgentId("roamer-2"), 60s));
  ASSERT_TRUE(agent::wait_agent_gone(realm.locations(),
                                     agent::AgentId("echo-2"), 60s));
  EXPECT_FALSE(probe().error.load()) << probe().last_error;
  EXPECT_EQ(probe().pongs_received.load(), 40);
  EXPECT_EQ(probe().pings_received.load(), 40);
  EXPECT_FALSE(probe().order_broken.load());
}

TEST(AgentApi, ReattachRejectsForeignConnection) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("owner", 0);
  auto bob = realm.pseudo_agent("target", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  // A different agent on the same server must not steal the handle.
  class Thief : public agent::AgentContext {
   public:
    explicit Thief(SimRealm& realm) : realm_(realm), id_("thief") {}
    const agent::AgentId& self() const override { return id_; }
    const std::string& server_name() const override { return name_; }
    std::uint32_t hop_count() const override { return 0; }
    void migrate_to(const std::string&) override {}
    util::Status send_mail(const agent::AgentId&, util::ByteSpan) override {
      return util::OkStatus();
    }
    std::optional<agent::Mail> read_mail(util::Duration) override {
      return std::nullopt;
    }
    agent::LocationService& locations() override {
      return realm_.locations();
    }
    void* service(const std::string& name) override {
      return name == SocketController::kServiceName ? &realm_.ctrl(0)
                                                    : nullptr;
    }

   private:
    SimRealm& realm_;
    agent::AgentId id_;
    std::string name_ = "node0";
  } thief(realm);

  auto stolen = NapletSocket::reattach(thief, conn.client->conn_id());
  EXPECT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.status().code(), util::StatusCode::kPermissionDenied);

  auto missing = NapletSocket::reattach(thief, 0xDEAD);
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace naplet::nsock
