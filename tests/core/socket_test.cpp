// Connection lifecycle over the full controller stack: open (with the
// CONNECT/ACK+ID/ID handshake and socket handoff), data transfer, explicit
// suspend/resume, and close — on stationary agents.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/test_realm.hpp"
#include "fault/fault.hpp"
#include "net/tcp.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

TEST(Socket, ConnectEstablishesBothEnds) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
  EXPECT_EQ(conn.server->state(), ConnState::kEstablished);
  EXPECT_EQ(conn.client->conn_id(), conn.server->conn_id());
  EXPECT_TRUE(conn.client->is_client());
  EXPECT_FALSE(conn.server->is_client());
  EXPECT_EQ(conn.client->peer_agent(), bob);
  EXPECT_EQ(conn.server->peer_agent(), alice);
}

TEST(Socket, SessionKeysAgreeUnderSecurity) {
  SimRealm realm(2, /*security=*/true);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  EXPECT_EQ(conn.client->session_key().size(), 32u);
  EXPECT_EQ(conn.client->session_key(), conn.server->session_key());
}

TEST(Socket, NoSecurityModeHasEmptyKeys) {
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  EXPECT_TRUE(conn.client->session_key().empty());
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
}

TEST(Socket, ConnectToNonListeningAgentRejected) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  realm.pseudo_agent("bob", 1);  // registered but not listening
  auto session = realm.ctrl(0).connect(alice, agent::AgentId("bob"));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kPermissionDenied);
}

TEST(Socket, ConnectToUnknownAgentTimesOutInLookup) {
  SimRealm realm(1);
  auto alice = realm.pseudo_agent("alice", 0);
  auto session = realm.ctrl(0).connect(alice, agent::AgentId("nobody"));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kNotFound);
}

TEST(Socket, LostConnectAckDropsHalfOpenSession) {
  // CONNECT_ACK is posted from a bus handler. When every transmission of it
  // is lost, its failure callback must still drop the server's half-open
  // session, and the client's connect must fail.
  SimRealm realm(2, /*security=*/false, {}, [](NodeConfig& config) {
    config.server.rudp_config.retransmit_interval = 20ms;
    config.server.rudp_config.max_attempts = 6;
    config.controller.connect_timeout = 1s;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());

  // Hold the CONNECT at node1's receive site; cut the node1 -> node0 link
  // meanwhile, then watch the half-open session appear.
  auto plan = fault::Plan::parse("ctrl.connect.on_recv@#1:delay:200");
  ASSERT_TRUE(plan.ok());
  fault::Injector& injector = fault::Injector::instance();
  injector.arm(*plan);
  std::atomic<bool> saw_half_open{false};
  std::thread cutter([&] {
    const auto give_up = std::chrono::steady_clock::now() + 3s;
    while (injector.hit_count("ctrl.connect.on_recv") == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
    }
    realm.net().set_link("node1", "node0",
                         net::LinkConfig{.datagram_loss = 1.0});
    while (!saw_half_open.load() &&
           std::chrono::steady_clock::now() < give_up) {
      if (realm.ctrl(1).session_count() == 1) saw_half_open.store(true);
      std::this_thread::sleep_for(1ms);
    }
  });
  auto session = realm.ctrl(0).connect(alice, bob);
  cutter.join();
  injector.disarm();
  EXPECT_FALSE(session.ok());
  EXPECT_TRUE(saw_half_open.load());
  for (int i = 0; i < 300 && realm.ctrl(1).session_count() != 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(realm.ctrl(1).session_count(), 0u);
}

TEST(Socket, DataTransferBothDirections) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  ASSERT_TRUE(conn.client->send(span("hello bob"), 1s).ok());
  auto got = conn.server->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "hello bob");

  ASSERT_TRUE(conn.server->send(span("hello alice"), 1s).ok());
  auto back = conn.client->recv(1s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(text(back->body), "hello alice");
}

TEST(Socket, ExplicitSuspendResumeKeepsConnection) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  ASSERT_TRUE(conn.client->send(span("before"), 1s).ok());
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  EXPECT_EQ(conn.client->state(), ConnState::kSuspended);
  // The passive side settles into SUSPENDED shortly after ACKing.
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);
  EXPECT_EQ(conn.server->state(), ConnState::kSuspended);

  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 2s);

  // Data written before suspension arrives exactly once, then new data.
  auto got1 = conn.server->recv(1s);
  ASSERT_TRUE(got1.ok());
  EXPECT_EQ(text(got1->body), "before");
  ASSERT_TRUE(conn.client->send(span("after"), 1s).ok());
  auto got2 = conn.server->recv(1s);
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(text(got2->body), "after");
}

TEST(Socket, SuspendFromEitherSide) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // The paper: "either of the two parts may suspend it" — here the server.
  ASSERT_TRUE(realm.ctrl(1).suspend(conn.server).ok());
  conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);
  ASSERT_TRUE(realm.ctrl(1).resume(conn.server).ok());
  conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 2s);
  ASSERT_TRUE(conn.client->send(span("still works"), 1s).ok());
  auto got = conn.server->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "still works");
}

TEST(Socket, SuspendIsIdempotentWhenLocal) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());  // no-op
  EXPECT_EQ(conn.client->state(), ConnState::kSuspended);
  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());
}

TEST(Socket, ResumeOnEstablishedIsNoop) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  EXPECT_TRUE(realm.ctrl(0).resume(conn.client).ok());
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
}

TEST(Socket, CloseFromEstablished) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(realm.ctrl(0).close(conn.client).ok());
  EXPECT_EQ(conn.client->state(), ConnState::kClosed);
  conn.server->wait_state([](ConnState s) { return s == ConnState::kClosed; },
                          2s);
  EXPECT_EQ(conn.server->state(), ConnState::kClosed);
  EXPECT_EQ(realm.ctrl(0).session_count(), 0u);
  // The passive side's registry cleanup happens just after its final state
  // change; poll briefly.
  for (int i = 0; i < 100 && realm.ctrl(1).session_count() != 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(realm.ctrl(1).session_count(), 0u);
}

TEST(Socket, CloseFromSuspended) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);
  ASSERT_TRUE(realm.ctrl(0).close(conn.client).ok());
  conn.server->wait_state([](ConnState s) { return s == ConnState::kClosed; },
                          2s);
  EXPECT_EQ(conn.server->state(), ConnState::kClosed);
}

TEST(Socket, CloseIsIdempotent) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(realm.ctrl(0).close(conn.client).ok());
  EXPECT_TRUE(realm.ctrl(0).close(conn.client).ok());
}

TEST(Socket, MultipleConnectionsBetweenSameAgents) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());

  auto c1 = realm.ctrl(0).connect(alice, bob);
  auto c2 = realm.ctrl(0).connect(alice, bob);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto s1 = realm.ctrl(1).accept(bob, 2s);
  auto s2 = realm.ctrl(1).accept(bob, 2s);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE((*c1)->conn_id(), (*c2)->conn_id());

  ASSERT_TRUE((*c1)->send(span("on-1"), 1s).ok());
  ASSERT_TRUE((*c2)->send(span("on-2"), 1s).ok());
  // Map accepted sessions to the right connection by conn_id.
  SessionPtr srv1 = (*s1)->conn_id() == (*c1)->conn_id() ? *s1 : *s2;
  SessionPtr srv2 = (*s1)->conn_id() == (*c1)->conn_id() ? *s2 : *s1;
  EXPECT_EQ(text(srv1->recv(1s)->body), "on-1");
  EXPECT_EQ(text(srv2->recv(1s)->body), "on-2");
}

TEST(Socket, AcceptTimesOutWithoutConnect) {
  SimRealm realm(1);
  auto bob = realm.pseudo_agent("bob", 0);
  ASSERT_TRUE(realm.ctrl(0).listen(bob).ok());
  auto session = realm.ctrl(0).accept(bob, 100ms);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kTimeout);
}

TEST(Socket, DoubleListenRejected) {
  SimRealm realm(1);
  auto bob = realm.pseudo_agent("bob", 0);
  ASSERT_TRUE(realm.ctrl(0).listen(bob).ok());
  EXPECT_EQ(realm.ctrl(0).listen(bob).code(),
            util::StatusCode::kAlreadyExists);
  ASSERT_TRUE(realm.ctrl(0).unlisten(bob).ok());
  EXPECT_TRUE(realm.ctrl(0).listen(bob).ok());
}

TEST(Socket, ConnectBreakdownPhasesSumToTotal) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());
  ConnectBreakdown breakdown;
  auto session = realm.ctrl(0).connect(alice, bob, &breakdown);
  ASSERT_TRUE(session.ok());
  EXPECT_GT(breakdown.total_ms(), 0.0);
  EXPECT_GT(breakdown.key_exchange_ms, 0.0);     // DH ran
  EXPECT_GE(breakdown.security_check_ms, 0.0);
  EXPECT_GT(breakdown.handshake_ms, 0.0);
  EXPECT_GE(breakdown.open_socket_ms, 0.0);
}

TEST(Socket, NoSecurityBreakdownSkipsKeyExchange) {
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());
  ConnectBreakdown breakdown;
  auto session = realm.ctrl(0).connect(alice, bob, &breakdown);
  ASSERT_TRUE(session.ok());
  EXPECT_LT(breakdown.key_exchange_ms, 1.0);
  EXPECT_LT(breakdown.security_check_ms, 1.0);
}

TEST(Socket, SameNodeAgentPair) {
  // Both endpoints hosted by ONE controller: the registry keys sessions by
  // (conn_id, local agent) and messages carry the sender's identity, so
  // the two sessions sharing a conn id never cross wires.
  SimRealm realm(1);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 0);
  ConnPair conn = make_connection(realm, alice, 0, bob, 0);
  ASSERT_TRUE(conn.client && conn.server);
  EXPECT_EQ(realm.ctrl(0).session_count(), 2u);

  ASSERT_TRUE(conn.client->send(span("local ping"), 1s).ok());
  EXPECT_EQ(text(conn.server->recv(1s)->body), "local ping");
  ASSERT_TRUE(conn.server->send(span("local pong"), 1s).ok());
  EXPECT_EQ(text(conn.client->recv(1s)->body), "local pong");

  // Suspend/resume between co-located agents also routes correctly.
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);
  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());
  ASSERT_TRUE(conn.client->send(span("after local resume"), 1s).ok());
  EXPECT_EQ(text(conn.server->recv(2s)->body), "after local resume");

  ASSERT_TRUE(realm.ctrl(0).close(conn.client).ok());
}

TEST(Socket, SameNodePairMigratesApart) {
  // Two co-located agents; one moves away; the connection follows.
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 0);
  ConnPair conn = make_connection(realm, alice, 0, bob, 0);
  ASSERT_TRUE(conn.client->send(span("carry this"), 1s).ok());

  ASSERT_TRUE(realm.migrate_pseudo_agent(bob, 0, 1).ok());
  SessionPtr moved = realm.ctrl(1).session_by_id(conn.client->conn_id());
  ASSERT_TRUE(moved);
  EXPECT_EQ(text(moved->recv(2s)->body), "carry this");
  ASSERT_TRUE(conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 2s));
}

TEST(Socket, BandwidthBoundLinkMasksProtocolOverhead) {
  // The paper's Fig. 9 testbed was NIC-bound (100 Mb/s Ethernet): both raw
  // sockets and NapletSocket saturate the wire, so the protocol's
  // per-message CPU cost vanishes. Reproduce that regime with the
  // simulated network's bandwidth shaping: NapletSocket throughput must
  // converge to the link cap (not to CPU limits).
  SimRealm realm(2, /*security=*/false);
  constexpr std::uint64_t kCap = 4'000'000;  // 4 MB/s
  realm.net().set_default_link(net::LinkConfig{.bytes_per_second = kCap});

  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  constexpr std::size_t kMsg = 8192;
  constexpr int kCount = 150;  // ~1.2 MB => ~0.3 s at the cap
  std::thread pump([&] {
    const util::Bytes payload(kMsg, 0x3C);
    for (int i = 0; i < kCount; ++i) {
      ASSERT_TRUE(conn.client
                      ->send(util::ByteSpan(payload.data(), payload.size()),
                             10s)
                      .ok());
    }
  });
  const std::int64_t t0 = util::RealClock::instance().now_us();
  std::size_t received = 0;
  while (received < kMsg * kCount) {
    auto got = conn.server->recv(10s);
    ASSERT_TRUE(got.ok());
    received += got->body.size();
  }
  pump.join();
  const double elapsed_s =
      static_cast<double>(util::RealClock::instance().now_us() - t0) / 1e6;
  const double bytes_per_sec = static_cast<double>(received) / elapsed_s;
  // Within scheduling slack of the cap — and far below unshaped speeds
  // (hundreds of MB/s on this path).
  EXPECT_GT(bytes_per_sec, 0.5 * kCap);
  EXPECT_LT(bytes_per_sec, 1.6 * kCap);
}

TEST(Socket, WorksOverRealTcpLoopback) {
  // Same protocol stack over real kernel sockets.
  Realm realm;  // TCP loopback by default
  NodeConfig config;
  config.controller.dh_group = crypto::DhGroup::kModp768;
  realm.add_node("alpha", config);
  realm.add_node("beta", config);
  ASSERT_TRUE(realm.start().ok());

  agent::AgentId alice("alice"), bob("bob");
  realm.locations().register_agent(alice,
                                   realm.node("alpha").server().node_info());
  realm.locations().register_agent(bob,
                                   realm.node("beta").server().node_info());
  ASSERT_TRUE(realm.node("beta").controller().listen(bob).ok());
  auto client = realm.node("alpha").controller().connect(alice, bob);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  auto server = realm.node("beta").controller().accept(bob, 5s);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*client)->send(span("over tcp"), 1s).ok());
  auto got = (*server)->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "over tcp");
  ASSERT_TRUE(realm.node("alpha").controller().close(*client).ok());
  realm.stop();
}

}  // namespace
}  // namespace naplet::nsock
