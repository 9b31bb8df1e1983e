// Controller-level group-suspend tests: the atomic whole-agent sweep
// behind ControllerConfig::group_suspend — happy-path migration of a
// multi-connection agent, abort_session racing an in-flight prepare
// (bounded group wake, full-group rollback), one sweep per agent at a
// time, the single-connection suspend-rollback arc under concurrent send
// pressure, and a host sweep that suspends several agents' groups before
// any of them hops.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

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

/// The group sweep plus tolerance (rollback resumes acknowledged members
/// through the redirector).
void group_config(NodeConfig& config) {
  config.controller.group_suspend = true;
  config.controller.tolerance.enabled = true;
  config.controller.ctrl_response_timeout = 1s;
  config.controller.drain_timeout = 1s;
  config.controller.resume_timeout = 8s;
}

class GroupSuspendTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::instance().disarm(); }
};

/// make_connection calls listen() each time; for multi-connection agents
/// the server agent listens once and the pairs attach to it.
ConnPair connect_pair(SimRealm& realm, const agent::AgentId& client,
                      int client_node, const agent::AgentId& server,
                      int server_node) {
  auto client_session = realm.ctrl(client_node).connect(client, server);
  EXPECT_TRUE(client_session.ok()) << client_session.status().to_string();
  auto server_session = realm.ctrl(server_node).accept(server, 5s);
  EXPECT_TRUE(server_session.ok()) << server_session.status().to_string();
  return ConnPair{client_session.ok() ? *client_session : nullptr,
                  server_session.ok() ? *server_session : nullptr};
}

TEST_F(GroupSuspendTest, AtomicSweepMigratesWholeAgent) {
  SimRealm realm(3, /*security=*/false, /*link_latency=*/{}, group_config);
  const agent::AgentId cli = realm.pseudo_agent("grp-cli", 0);
  const agent::AgentId srv = realm.pseudo_agent("grp-srv", 1);

  constexpr int kConns = 3;
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  std::vector<ConnPair> conns;
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(connect_pair(realm, cli, 0, srv, 1));
    ASSERT_NE(conns.back().client, nullptr);
    ASSERT_NE(conns.back().server, nullptr);
  }
  for (int i = 0; i < kConns; ++i) {
    const std::string body = "pre" + std::to_string(i);
    ASSERT_TRUE(conns[i].client->send(span(body), 2s).ok());
    auto got = conns[i].server->recv(2s);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(text(got->body), body);
  }

  ASSERT_TRUE(realm.migrate_pseudo_agent(cli, 0, 2).ok());
  EXPECT_EQ(realm.ctrl(0).group_rollbacks(), 0u);

  // Every member re-established on the destination; data still flows.
  for (int i = 0; i < kConns; ++i) {
    SessionPtr moved = realm.ctrl(2).session_by_id(conns[i].client->conn_id());
    ASSERT_NE(moved, nullptr);
    ASSERT_TRUE(fault::await_established(*moved, 8s).ok());
    const std::string body = "post" + std::to_string(i);
    ASSERT_TRUE(moved->send(span(body), 2s).ok());
    auto got = conns[i].server->recv(2s);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(text(got->body), body);
  }
}

TEST_F(GroupSuspendTest, AbortRacingPrepareWakesBarrierBounded) {
  // The response timeout outlasts the 2 s bound below, so only the
  // abort itself can release the parked workers in time.
  SimRealm realm(3, /*security=*/false, /*link_latency=*/{},
                 [](NodeConfig& config) {
                   group_config(config);
                   config.controller.ctrl_response_timeout = 3s;
                 });
  const agent::AgentId cli = realm.pseudo_agent("abr-cli", 0);
  const agent::AgentId srv = realm.pseudo_agent("abr-srv", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  ConnPair a = connect_pair(realm, cli, 0, srv, 1);
  ConnPair b = connect_pair(realm, cli, 0, srv, 1);
  ASSERT_NE(a.client, nullptr);
  ASSERT_NE(b.client, nullptr);

  // Drop every SUS: the prepare workers park waiting for acks that will
  // never come, so only the abort can release the group.
  auto plan = fault::Plan::parse("ctrl.suspend.pre_send@#1x1000:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);

  std::thread aborter([&] {
    std::this_thread::sleep_for(150ms);
    realm.ctrl(0).abort(a.client);
  });
  const auto start = std::chrono::steady_clock::now();
  const util::Status st = realm.ctrl(0).prepare_migration(cli);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  aborter.join();
  fault::Injector::instance().disarm();

  // The aborted member vetoes the group and every parked worker wakes
  // well under the 2 s bound.
  EXPECT_FALSE(st.ok());
  EXPECT_LT(elapsed, 2s);
  EXPECT_GE(realm.ctrl(0).group_rollbacks(), 1u);

  // The surviving member rolls back to ESTABLISHED and still carries data.
  ASSERT_TRUE(fault::await_established(*b.client, 5s).ok());
  ASSERT_TRUE(b.client->send(span("after-rollback"), 2s).ok());
  auto got = b.server->recv(2s);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(text(got->body), "after-rollback");
}

TEST_F(GroupSuspendTest, SecondSweepForSameAgentRefused) {
  SimRealm realm(3, /*security=*/false, /*link_latency=*/{}, group_config);
  const agent::AgentId cli = realm.pseudo_agent("one-sweep-cli", 0);
  const agent::AgentId srv = realm.pseudo_agent("one-sweep-srv", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  ConnPair a = connect_pair(realm, cli, 0, srv, 1);
  ConnPair b = connect_pair(realm, cli, 0, srv, 1);
  ASSERT_NE(a.client, nullptr);
  ASSERT_NE(b.client, nullptr);

  // Dropped SUS keeps the first sweep in flight until its workers time
  // out and the group rolls back.
  auto plan = fault::Plan::parse("ctrl.suspend.pre_send@#1x1000:drop");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  util::Status first = util::OkStatus();
  std::thread sweeper([&] { first = realm.ctrl(0).prepare_migration(cli); });
  std::this_thread::sleep_for(150ms);

  const auto start = std::chrono::steady_clock::now();
  const util::Status second = realm.ctrl(0).prepare_migration(cli);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(second.code(), util::StatusCode::kFailedPrecondition)
      << second.to_string();
  EXPECT_LT(elapsed, 100ms);

  sweeper.join();
  fault::Injector::instance().disarm();
  EXPECT_FALSE(first.ok());
  ASSERT_TRUE(fault::await_established(*a.client, 5s).ok());
  ASSERT_TRUE(fault::await_established(*b.client, 5s).ok());

  // Once the first sweep has returned, the next one is admitted.
  ASSERT_TRUE(realm.ctrl(0).prepare_migration(cli).ok());
  EXPECT_EQ(a.client->state(), ConnState::kSuspended);
  EXPECT_EQ(b.client->state(), ConnState::kSuspended);
  ASSERT_TRUE(realm.migrate_pseudo_agent(cli, 0, 2).ok());
}

TEST_F(GroupSuspendTest, SingleConnRollbackUnderSendPressure) {
  // The kSusSent --kSuspendAbort--> kEstablished arc
  // on the plain (non-group) path, with senders blocked mid-handshake.
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

TEST_F(GroupSuspendTest, HostSweepSuspendsEveryAgentGroup) {
  // A host sweeps its agents one after another: each agent's connections
  // suspend as one group per prepare_migration call.
  SimRealm realm(3, /*security=*/false, /*link_latency=*/{}, group_config);
  const agent::AgentId ant = realm.pseudo_agent("sweep-ant", 0);
  const agent::AgentId bee = realm.pseudo_agent("sweep-bee", 0);
  const agent::AgentId srv = realm.pseudo_agent("sweep-srv", 1);

  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  std::vector<ConnPair> conns;
  for (const auto& id : {ant, bee}) {
    for (int i = 0; i < 2; ++i) {
      conns.push_back(connect_pair(realm, id, 0, srv, 1));
      ASSERT_NE(conns.back().client, nullptr);
    }
  }

  for (const auto& id : {ant, bee}) {
    ASSERT_TRUE(realm.ctrl(0).prepare_migration(id).ok()) << id.name();
  }
  for (const ConnPair& conn : conns) {
    EXPECT_EQ(conn.client->state(), ConnState::kSuspended);
  }

  // Swept agents complete their hops like any suspended group.
  ASSERT_TRUE(realm.migrate_pseudo_agent(ant, 0, 2).ok());
  ASSERT_TRUE(realm.migrate_pseudo_agent(bee, 0, 2).ok());
  for (const ConnPair& conn : conns) {
    SessionPtr moved = realm.ctrl(2).session_by_id(conn.client->conn_id());
    ASSERT_NE(moved, nullptr);
    EXPECT_TRUE(fault::await_established(*moved, 8s).ok());
  }
}

}  // namespace
}  // namespace naplet::nsock
