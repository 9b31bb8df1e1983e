// Fault-tolerance extension tests (the paper's §7 future work): broken-link
// detection + automatic repair with history replay, and heartbeat-based
// peer-failure detection.
#include <gtest/gtest.h>

#include <thread>

#include "core/test_realm.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

std::function<void(NodeConfig&)> with_recovery(
    util::Duration probe = std::chrono::milliseconds(50),
    int miss_threshold = 3) {
  return [probe, miss_threshold](NodeConfig& config) {
    config.controller.tolerance.enabled = true;
    config.controller.tolerance.probe_interval = probe;
    config.controller.tolerance.miss_threshold = miss_threshold;
    // Fail heartbeats fast so dead-peer tests stay quick.
    config.server.rudp_config.retransmit_interval =
        std::chrono::milliseconds(20);
    config.server.rudp_config.max_attempts = 5;
  };
}

TEST(FailureRecovery, BrokenLinkRepairedWithoutDataLoss) {
  SimRealm realm(2, /*security=*/true, {}, with_recovery());
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // Some delivered traffic first.
  ASSERT_TRUE(conn.client->send(span("before"), 1s).ok());
  ASSERT_EQ(text(conn.server->recv(1s)->body), "before");

  // Kill the data socket behind the protocol's back (link failure).
  realm.net().sever_streams("node0", "node1");

  // Keep sending: sends may fail transiently while broken, then the repair
  // loop re-resumes the connection and history replay fills any gap.
  int sent = 0;
  const std::int64_t deadline =
      util::RealClock::instance().now_us() + 10'000'000;
  while (sent < 5 && util::RealClock::instance().now_us() < deadline) {
    if (conn.client->send(span("m" + std::to_string(sent)), 2s).ok()) {
      ++sent;
    }
  }
  ASSERT_EQ(sent, 5);

  for (int i = 0; i < 5; ++i) {
    auto got = conn.server->recv(10s);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(text(got->body), "m" + std::to_string(i));
  }
  EXPECT_FALSE(conn.server->recv(100ms).ok());  // exactly once
  EXPECT_GE(realm.ctrl(0).links_repaired() + realm.ctrl(1).links_repaired(),
            1u);
}

TEST(FailureRecovery, InFlightFramesReplayedAfterUncoordinatedLoss) {
  SimRealm realm(2, /*security=*/false, {}, with_recovery());
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  // Latency so written frames are genuinely in flight when the link dies.
  realm.net().set_link("node0", "node1", net::LinkConfig{.latency = 50ms});
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  // Write frames that cannot have arrived yet, then cut the link.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(conn.client->send(span("lost" + std::to_string(i)), 1s).ok());
  }
  realm.net().sever_streams("node0", "node1");

  // The frames were dropped with the stream; history replay must recover
  // them, in order, exactly once.
  for (int i = 0; i < 3; ++i) {
    auto got = conn.server->recv(10s);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(text(got->body), "lost" + std::to_string(i));
  }
  EXPECT_FALSE(conn.server->recv(100ms).ok());
}

TEST(FailureRecovery, HeartbeatDeclaresDeadPeerAndAborts) {
  SimRealm realm(2, /*security=*/true, {}, with_recovery(50ms, 2));
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  // Total partition: data socket dead AND control channel unreachable —
  // the peer is indistinguishable from a crashed host.
  realm.net().set_partition("node0", "node1", true);
  realm.net().sever_streams("node0", "node1");

  // Each side's heartbeats go unanswered; sessions are aborted locally.
  ASSERT_TRUE(conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kClosed; }, 20s));
  EXPECT_GE(realm.ctrl(0).peers_declared_dead(), 1u);
  EXPECT_EQ(realm.ctrl(0).session_count(), 0u);
  auto st = conn.client->send(span("to the dead"), 500ms);
  EXPECT_EQ(st.code(), util::StatusCode::kAborted);
}

TEST(FailureRecovery, DisabledModeLeavesFailureToTheApplication) {
  // Paper-faithful default: no detection, no repair.
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  realm.net().sever_streams("node0", "node1");
  std::this_thread::sleep_for(300ms);
  // No repair happened; the session still claims ESTABLISHED and I/O
  // simply times out (the paper's §7 status quo).
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
  EXPECT_EQ(realm.ctrl(0).links_repaired(), 0u);
  auto got = conn.server->recv(200ms);
  EXPECT_FALSE(got.ok());
}

TEST(FailureRecovery, RepairSurvivesRepeatedLinkFailures) {
  SimRealm realm(2, /*security=*/false, {}, with_recovery());
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  int delivered = 0;
  for (int round = 0; round < 3; ++round) {
    const std::int64_t deadline =
        util::RealClock::instance().now_us() + 10'000'000;
    int sent_this_round = 0;
    while (sent_this_round < 3 &&
           util::RealClock::instance().now_us() < deadline) {
      if (conn.client
              ->send(span("r" + std::to_string(round) + "-" +
                          std::to_string(sent_this_round)),
                     2s)
              .ok()) {
        ++sent_this_round;
      }
    }
    ASSERT_EQ(sent_this_round, 3) << "round " << round;
    realm.net().sever_streams("node0", "node1");
  }

  while (delivered < 9) {
    auto got = conn.server->recv(10s);
    ASSERT_TRUE(got.ok()) << "after " << delivered << " messages: "
                          << got.status().to_string();
    ++delivered;
  }
  EXPECT_FALSE(conn.server->recv(100ms).ok());
}

TEST(FailureRecovery, MigrationStillWorksWithRecoveryEnabled) {
  SimRealm realm(3, /*security=*/true, {}, with_recovery());
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  ASSERT_TRUE(conn.client->send(span("hop with recovery on"), 1s).ok());
  ASSERT_TRUE(realm.migrate_pseudo_agent(bob, 1, 2).ok());
  SessionPtr moved = realm.ctrl(2).session_by_id(conn.client->conn_id());
  ASSERT_TRUE(moved);
  EXPECT_EQ(text(moved->recv(2s)->body), "hop with recovery on");
  // The repair loop must not have interfered with the clean migration.
  EXPECT_EQ(realm.ctrl(1).peers_declared_dead(), 0u);
}

// ---- session-level history semantics ----

TEST(History, BoundedEviction) {
  Session session(1, 1, true, agent::AgentId("a"), agent::AgentId("b"));
  session.enable_history(64);  // tiny bound
  EXPECT_TRUE(session.history_enabled());
  // Without a stream, send fails, so drive history via a session pair.
}

TEST(History, SinceSemantics) {
  SimRealm realm(2, /*security=*/false, {}, with_recovery());
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(conn.client->send(span("h" + std::to_string(i)), 1s).ok());
  }
  auto all = conn.client->history_since(0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);
  EXPECT_EQ((*all)[0].first, 1u);

  auto tail = conn.client->history_since(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].first, 3u);

  auto none = conn.client->history_since(4);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  auto beyond = conn.client->history_since(99);
  ASSERT_TRUE(beyond.ok());
  EXPECT_TRUE(beyond->empty());
}

TEST(History, EvictionMakesOldSpansUnrecoverable) {
  SimRealm realm(2, /*security=*/false, {}, [](NodeConfig& config) {
    config.controller.tolerance.enabled = true;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  conn.client->enable_history(8);  // ~2 messages

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conn.client->send(span("xxxx"), 1s).ok());
  }
  auto since_zero = conn.client->history_since(0);
  EXPECT_FALSE(since_zero.ok());
  EXPECT_EQ(since_zero.status().code(), util::StatusCode::kOutOfRange);
  // Recent span is still available.
  EXPECT_TRUE(conn.client->history_since(9).ok());
}

}  // namespace
}  // namespace naplet::nsock
