// A failed migration sweep undoes itself. The paper's §3.2 sweep suspends
// an agent's connections one at a time, so a sweep that fails part-way
// (here: every SUS after the first is lost) has already suspended some of
// them; prepare_migration resumes those before it returns the error. The
// caller therefore gets every connection suspended or every connection
// usable, never a mix, and a failed hop leaves the agent where it was.
// Covered on an in-process hop with a sender on every connection
// (tolerance on and off), and through the docking system's hop with a real
// agent, both for a failed prepare and for a transfer the destination
// rejects; plus the single-connection rollback arc under send pressure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/naplet_socket.hpp"
#include "core/test_realm.hpp"
#include "fault/fault.hpp"
#include "fault/oracle.hpp"

namespace naplet::nsock {
namespace {

using namespace std::chrono_literals;
using testing::ConnPair;
using testing::SimRealm;
using testing::make_connection;
using testing::span;
using testing::text;

/// The first SUS goes through, every later one is lost: the sweep
/// suspends one connection and then fails on the next.
constexpr const char* kDropLaterSus = "ctrl.suspend.pre_send@#2x1000:drop";

class SweepRollbackTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::instance().disarm(); }
};

void sweep_config(NodeConfig& config, bool tolerance) {
  config.controller.tolerance.enabled = tolerance;
  config.controller.ctrl_response_timeout = 300ms;
  config.controller.drain_timeout = 1s;
}

void arm(const char* plan_text) {
  auto plan = fault::Plan::parse(plan_text);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  fault::Injector::instance().arm(*plan);
}

void partial_sweep_failure_resumes_every_connection(bool tolerance) {
  SimRealm realm(2, /*security=*/false, /*link_latency=*/{},
                 [tolerance](NodeConfig& c) { sweep_config(c, tolerance); });
  const agent::AgentId cli = realm.pseudo_agent("sweep-cli", 0);
  const agent::AgentId srv = realm.pseudo_agent("sweep-srv", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  constexpr int kConns = 3;
  std::vector<ConnPair> conns;
  for (int i = 0; i < kConns; ++i) {
    auto client = realm.ctrl(0).connect(cli, srv);
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    auto server = realm.ctrl(1).accept(srv, 5s);
    ASSERT_TRUE(server.ok()) << server.status().to_string();
    conns.push_back({*client, *server});
  }

  // One sender per connection, running across the failed sweep. A send
  // that meets a write freeze blocks, and must complete once the sweep
  // has undone itself.
  fault::DeliveryLedger ledger;
  constexpr int kMsgs = 20;
  std::atomic<int> sent_ok{0};
  std::vector<std::jthread> senders;
  for (int i = 0; i < kConns; ++i) {
    senders.emplace_back([&, i] {
      for (int j = 0; j < kMsgs; ++j) {
        const std::string body = std::to_string(i) + "." + std::to_string(j);
        if (!conns[i].client->send(span(body), 10s).ok()) return;
        ledger.record_sent(i, span(body));
        sent_ok.fetch_add(1);
        std::this_thread::sleep_for(1ms);
      }
    });
  }
  std::this_thread::sleep_for(5ms);

  arm(kDropLaterSus);
  const util::Status st = realm.migrate_pseudo_agent(cli, 0, 1);
  fault::Injector::instance().disarm();
  EXPECT_FALSE(st.ok());
  // The hop never happened: the agent is findable where it was.
  const std::optional<agent::NodeInfo> home =
      realm.locations().try_lookup(cli);
  EXPECT_TRUE(home && home->server_name == "node0");

  // All or nothing: every connection is back in service on both sides.
  for (const ConnPair& conn : conns) {
    EXPECT_TRUE(fault::await_established(*conn.client, 5s).ok());
    EXPECT_TRUE(fault::await_established(*conn.server, 5s).ok());
  }
  for (std::jthread& sender : senders) sender.join();
  EXPECT_EQ(sent_ok.load(), kConns * kMsgs);
  for (int i = 0; i < kConns; ++i) {
    while (ledger.delivered_count(i) < ledger.sent_count(i)) {
      auto got = conns[i].server->recv(2s);
      ASSERT_TRUE(got.ok()) << "conn " << i << ": "
                            << got.status().to_string();
      ledger.record_delivered(
          i, got->seq, util::ByteSpan(got->body.data(), got->body.size()));
    }
  }
  const util::Status exactly_once = ledger.check(/*require_complete=*/true);
  EXPECT_TRUE(exactly_once.ok()) << exactly_once.to_string();
}

TEST_F(SweepRollbackTest, PartialFailureResumesEveryConnectionTolerant) {
  partial_sweep_failure_resumes_every_connection(/*tolerance=*/true);
}

TEST_F(SweepRollbackTest, PartialFailureResumesEveryConnectionPlain) {
  partial_sweep_failure_resumes_every_connection(/*tolerance=*/false);
}

// ---------------------------------------------------------------------------
// The same failure through the docking system: a real agent with three
// connections asks to hop, and the hop's prepare fails part-way.

/// Set by the test once the fault plan is armed.
std::atomic<bool>& hop_armed() {
  static std::atomic<bool> armed{false};
  return armed;
}

/// Opens three connections to "hop-srv", waits until the test has armed
/// the fault plan, then asks to hop to node2.
class SweepHopAgent : public agent::Agent {
 public:
  void run(agent::AgentContext& ctx) override {
    if (ctx.hop_count() > 0) return;  // the hop is expected to fail
    for (int i = 0; i < 3; ++i) {
      if (!NapletSocket::open(ctx, agent::AgentId("hop-srv")).ok()) return;
    }
    for (int i = 0; i < 1000 && !hop_armed().load(); ++i) {
      std::this_thread::sleep_for(10ms);
    }
    ctx.migrate_to("node2");
  }

  void persist(util::Archive& /*ar*/) override {}
  std::string type_name() const override { return "SweepHopAgent"; }
};
NAPLET_REGISTER_AGENT(SweepHopAgent);

/// The node's migrator as the docking system sees it, with hooks that run
/// right where the hop receives a failed prepare, and where it resumes
/// connections: before the server acts on the failure (a failed hop ends
/// the agent and closes its sockets).
class HookedMigrator final : public agent::ConnectionMigrator {
 public:
  SocketController* inner = nullptr;
  std::function<void()> on_failed_prepare;
  std::function<void()> on_complete;

  util::Status prepare_migration(const agent::AgentId& id) override {
    util::Status st = inner->prepare_migration(id);
    if (!st.ok()) on_failed_prepare();
    return st;
  }
  util::Bytes export_sessions(const agent::AgentId& id) override {
    return inner->export_sessions(id);
  }
  util::Status import_sessions(const agent::AgentId& id,
                               util::ByteSpan data) override {
    return inner->import_sessions(id, data);
  }
  util::Status complete_migration(const agent::AgentId& id) override {
    if (on_complete) on_complete();
    return inner->complete_migration(id);
  }
  void close_all(const agent::AgentId& id) override { inner->close_all(id); }
};

TEST_F(SweepRollbackTest, FailedHopLeavesAgentSocketsUsable) {
  // Declared before the realm, so the server's agent threads are joined
  // before the migrator they call, and what its hook writes, go away.
  HookedMigrator migrator;
  std::vector<SessionPtr> peers;
  std::atomic<int> usable{0};
  std::atomic<bool> checked{false};
  std::mutex why_mu;
  std::string why;
  SimRealm realm(3, /*security=*/false, /*link_latency=*/{},
                 [](NodeConfig& c) { sweep_config(c, /*tolerance=*/true); });
  const agent::AgentId srv = realm.pseudo_agent("hop-srv", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());

  migrator.inner = &realm.ctrl(0);
  migrator.on_failed_prepare = [&] {
    for (const SessionPtr& peer : peers) {
      const SessionPtr own = realm.ctrl(0).session_by_id(peer->conn_id());
      util::Status st = own == nullptr
                            ? util::NotFound("session left the source")
                            : fault::await_established(*own, 5s);
      if (st.ok()) st = fault::await_established(*peer, 5s);
      const std::string body = "after-" + std::to_string(peer->conn_id());
      if (st.ok()) st = own->send(span(body), 2s);
      if (st.ok()) {
        auto got = peer->recv(2s);
        st = !got.ok()                 ? got.status()
             : text(got->body) != body ? util::Aborted("wrong body")
                                       : util::OkStatus();
      }
      if (st.ok()) {
        usable.fetch_add(1);
      } else {
        std::lock_guard lock(why_mu);
        why += "conn " + std::to_string(peer->conn_id()) + ": " +
               st.to_string() + "; ";
      }
    }
    checked.store(true);
  };
  realm.server(0).set_migrator(&migrator);

  hop_armed().store(false);
  ASSERT_TRUE(realm.server(0)
                  .launch(std::make_unique<SweepHopAgent>(),
                          agent::AgentId("hopper"))
                  .ok());
  for (int i = 0; i < 3; ++i) {
    auto peer = realm.ctrl(1).accept(srv, 5s);
    ASSERT_TRUE(peer.ok()) << peer.status().to_string();
    peers.push_back(*peer);
  }
  arm(kDropLaterSus);
  hop_armed().store(true);

  for (int i = 0; i < 2000 && !checked.load(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  fault::Injector::instance().disarm();
  ASSERT_TRUE(checked.load()) << "the hop's prepare never failed";
  {
    std::lock_guard lock(why_mu);
    EXPECT_EQ(usable.load(), 3) << why;
  }
  // The hop never happened: nothing left the source or reached node2.
  EXPECT_EQ(realm.server(0).migrations_out(), 0u);
  EXPECT_EQ(realm.server(2).migrations_in(), 0u);
  EXPECT_EQ(realm.ctrl(2).session_count(), 0u);
}

TEST_F(SweepRollbackTest, RejectedTransferRollsBackAtTheSource) {
  // node2 holds another realm key, so it rejects the agent's transfer
  // frame after the sweep and the export have succeeded. The hop rebuilds
  // the sessions at the source, settles the location there and resumes
  // them; the server then ends the agent, closing every connection.
  HookedMigrator migrator;
  std::atomic<bool> rolled_back{false};
  std::string rollback_location;
  int nodes = 0;
  SimRealm realm(3, /*security=*/false, /*link_latency=*/{},
                 [&nodes](NodeConfig& c) {
                   sweep_config(c, /*tolerance=*/true);
                   if (nodes++ == 2) c.server.realm_key = util::Bytes(32, 0xEE);
                 });
  const agent::AgentId srv = realm.pseudo_agent("hop-srv", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  const agent::AgentId hopper("rejected-hopper");

  migrator.inner = &realm.ctrl(0);
  migrator.on_complete = [&] {
    const std::optional<agent::NodeInfo> where =
        realm.locations().try_lookup(hopper);
    rollback_location = where ? where->server_name : "in transit";
    rolled_back.store(true);
  };
  realm.server(0).set_migrator(&migrator);

  hop_armed().store(true);
  ASSERT_TRUE(
      realm.server(0).launch(std::make_unique<SweepHopAgent>(), hopper).ok());
  std::vector<SessionPtr> peers;
  for (int i = 0; i < 3; ++i) {
    auto peer = realm.ctrl(1).accept(srv, 5s);
    ASSERT_TRUE(peer.ok()) << peer.status().to_string();
    peers.push_back(*peer);
  }

  for (const SessionPtr& peer : peers) {
    EXPECT_TRUE(peer->wait_state(
        [](ConnState s) { return s == ConnState::kClosed; }, 10s))
        << "conn " << peer->conn_id() << " left in "
        << to_string(peer->state());
  }
  EXPECT_TRUE(agent::wait_agent_gone(realm.locations(), hopper, 10s));
  ASSERT_TRUE(rolled_back.load()) << "the hop never rolled back";
  EXPECT_EQ(rollback_location, "node0");
  EXPECT_EQ(realm.server(0).migrations_out(), 0u);
  EXPECT_EQ(realm.server(2).migrations_in(), 0u);
  EXPECT_EQ(realm.ctrl(2).session_count(), 0u);
}

TEST_F(SweepRollbackTest, SingleConnRollbackUnderSendPressure) {
  // The kSusSent --kSuspendAbort--> kEstablished arc
  // on the serial sweep, with senders blocked mid-handshake.
  SimRealm realm(2, /*security=*/false, /*link_latency=*/{},
                 [](NodeConfig& config) {
                   config.controller.tolerance.enabled = true;
                   config.controller.ctrl_response_timeout = 300ms;
                   config.controller.drain_timeout = 1s;
                 });
  const agent::AgentId cli = realm.pseudo_agent("one-cli", 0);
  const agent::AgentId srv = realm.pseudo_agent("one-srv", 1);
  ConnPair conn = make_connection(realm, cli, 0, srv, 1);
  ASSERT_NE(conn.client, nullptr);

  fault::DeliveryLedger ledger;
  constexpr int kMsgs = 20;
  std::atomic<int> sent_ok{0};
  std::thread sender([&] {
    for (int i = 0; i < kMsgs; ++i) {
      const std::string body = "p" + std::to_string(i);
      // Generous timeout: sends issued while the suspend holds the write
      // freeze must block, then wake and complete once it rolls back.
      if (!conn.client->send(span(body), 10s).ok()) return;
      ledger.record_sent(0, span(body));
      sent_ok.fetch_add(1);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::this_thread::sleep_for(5ms);

  auto plan = fault::Plan::parse("ctrl.suspend.pre_send@#1x1000:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  const util::Status st = realm.ctrl(0).prepare_migration(cli);
  fault::Injector::instance().disarm();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kTimeout);

  // Senders wake, the stream stays usable, and delivery is exactly-once.
  ASSERT_TRUE(fault::await_established(*conn.client, 5s).ok());
  sender.join();
  EXPECT_EQ(sent_ok.load(), kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    auto got = conn.server->recv(2s);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ledger.record_delivered(0, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }
  EXPECT_TRUE(ledger.check(/*require_complete=*/true).ok());
}

}  // namespace
}  // namespace naplet::nsock
