// Concurrent migration of both connection endpoints (paper §3.1, §3.2):
// overlapped, non-overlapped, multi-connection sweeps, and resume glare.
//
// The overlapped case is made deterministic by shaping the control link
// with enough latency that the two SUS requests always cross in flight.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <thread>

#include "core/test_realm.hpp"
#include "fault/fault.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

// Find which of two names outranks the other (hash priority).
bool outranks(const std::string& a, const std::string& b) {
  return agent::AgentId(a).outranks(agent::AgentId(b));
}

TEST(ConcurrentMigration, OverlappedBothMigrateAndReestablish) {
  // 25 ms control latency guarantees the SUS messages cross.
  SimRealm realm(4, /*security=*/true, /*link_latency=*/25ms);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  // Queue unread data in both directions: it must survive the double hop.
  ASSERT_TRUE(conn.client->send(span("a->b in flight"), 1s).ok());
  ASSERT_TRUE(conn.server->send(span("b->a in flight"), 1s).ok());

  auto move_alice = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(alice, 0, 2);
  });
  auto move_bob = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(bob, 1, 3);
  });
  ASSERT_TRUE(move_alice.get().ok());
  ASSERT_TRUE(move_bob.get().ok());

  SessionPtr alice_side = realm.ctrl(2).session_by_id(conn_id);
  SessionPtr bob_side = realm.ctrl(3).session_by_id(conn_id);
  ASSERT_TRUE(alice_side && bob_side);

  // Both sides end re-established (possibly after the loser's resume).
  ASSERT_TRUE(alice_side->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
  ASSERT_TRUE(bob_side->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 10s));

  // In-flight data delivered exactly once, and fresh traffic flows.
  auto b_got = bob_side->recv(2s);
  ASSERT_TRUE(b_got.ok());
  EXPECT_EQ(text(b_got->body), "a->b in flight");
  auto a_got = alice_side->recv(2s);
  ASSERT_TRUE(a_got.ok());
  EXPECT_EQ(text(a_got->body), "b->a in flight");

  ASSERT_TRUE(alice_side->send(span("hello from node2"), 2s).ok());
  auto fresh = bob_side->recv(2s);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(text(fresh->body), "hello from node2");
}

TEST(ConcurrentMigration, NonOverlappedSecondMoverWaits) {
  SimRealm realm(4);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  // Alice suspends and "departs" (prepare only; she is now in transit).
  realm.locations().begin_migration(alice);
  ASSERT_TRUE(realm.ctrl(0).prepare_migration(alice).ok());
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);

  // Bob now decides to migrate: his suspend must park (non-overlapped).
  auto move_bob = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(bob, 1, 3);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_NE(move_bob.wait_for(0ms), std::future_status::ready)
      << "bob's migration must wait for alice's to finish";

  // Alice lands; her resume releases bob (RESUME_WAIT), bob migrates,
  // then bob's resume re-establishes the connection.
  const util::Bytes sessions = realm.ctrl(0).export_sessions(alice);
  ASSERT_TRUE(realm.ctrl(2)
                  .import_sessions(alice, util::ByteSpan(sessions.data(),
                                                         sessions.size()))
                  .ok());
  realm.locations().register_agent(alice, realm.server(2).node_info());
  ASSERT_TRUE(realm.ctrl(2).complete_migration(alice).ok());
  ASSERT_TRUE(move_bob.get().ok());

  SessionPtr alice_side = realm.ctrl(2).session_by_id(conn_id);
  SessionPtr bob_side = realm.ctrl(3).session_by_id(conn_id);
  ASSERT_TRUE(alice_side && bob_side);
  ASSERT_TRUE(alice_side->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
  ASSERT_TRUE(bob_side->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 10s));

  ASSERT_TRUE(alice_side->send(span("we both moved"), 2s).ok());
  auto got = bob_side->recv(2s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "we both moved");
}

TEST(ConcurrentMigration, MultiConnectionSweepBothAgents) {
  // Paper Fig. 5: two connections between the same agent pair; both agents
  // migrate at once. The priority rules serialize the migrations; both
  // connections must survive.
  SimRealm realm(4, /*security=*/true, /*link_latency=*/15ms);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);

  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());
  auto c1 = realm.ctrl(0).connect(alice, bob);
  auto c2 = realm.ctrl(0).connect(alice, bob);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto s1 = realm.ctrl(1).accept(bob, 2s);
  auto s2 = realm.ctrl(1).accept(bob, 2s);
  ASSERT_TRUE(s1.ok() && s2.ok());

  ASSERT_TRUE((*c1)->send(span("one"), 1s).ok());
  ASSERT_TRUE((*c2)->send(span("two"), 1s).ok());

  auto move_alice = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(alice, 0, 2);
  });
  auto move_bob = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(bob, 1, 3);
  });
  ASSERT_TRUE(move_alice.get().ok());
  ASSERT_TRUE(move_bob.get().ok());

  for (std::uint64_t conn_id : {(*c1)->conn_id(), (*c2)->conn_id()}) {
    SessionPtr alice_side = realm.ctrl(2).session_by_id(conn_id);
    SessionPtr bob_side = realm.ctrl(3).session_by_id(conn_id);
    ASSERT_TRUE(alice_side && bob_side) << conn_id;
    ASSERT_TRUE(alice_side->wait_state(
        [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
    ASSERT_TRUE(bob_side->wait_state(
        [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
  }
  // In-flight data intact on both connections.
  EXPECT_EQ(text(realm.ctrl(3)
                     .session_by_id((*c1)->conn_id())
                     ->recv(2s)
                     ->body),
            "one");
  EXPECT_EQ(text(realm.ctrl(3)
                     .session_by_id((*c2)->conn_id())
                     ->recv(2s)
                     ->body),
            "two");
}

TEST(ConcurrentMigration, ResumeGlareResolvesByPriority) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  // Suspend from one side; both settle SUSPENDED.
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);

  // Both resume at once; priority breaks the tie.
  auto r1 = std::async(std::launch::async,
                       [&] { return realm.ctrl(0).resume(conn.client); });
  auto r2 = std::async(std::launch::async,
                       [&] { return realm.ctrl(1).resume(conn.server); });
  const util::Status s1 = r1.get();
  const util::Status s2 = r2.get();
  EXPECT_TRUE(s1.ok()) << s1.to_string();
  EXPECT_TRUE(s2.ok()) << s2.to_string();
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
  EXPECT_EQ(conn.server->state(), ConnState::kEstablished);

  ASSERT_TRUE(conn.client->send(span("glare resolved"), 1s).ok());
  auto got = conn.server->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "glare resolved");
}

TEST(ConcurrentMigration, SuspendSupersedingParkedResumeReleasesIt) {
  // A SUS landing while our resume is parked in RESUME_WAIT supersedes it:
  // the parked resume returns OK as a passive suspension. The delay sits
  // between handle_sus recording the peer's suspension and the SUSPENDED
  // transition that wakes the parked resume; with the two steps the other
  // way round the waiter read remote_suspended unset and failed with
  // "RESUME_WAIT not released".
  SimRealm realm(3, /*security=*/true, {}, [](NodeConfig& config) {
    config.controller.resume_timeout = 3s;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  // Alice departs; bob then starts migrating and his suspend parks.
  realm.locations().begin_migration(alice);
  ASSERT_TRUE(realm.ctrl(0).prepare_migration(alice).ok());
  ASSERT_TRUE(conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s));
  realm.locations().begin_migration(bob);
  auto bob_prepare = std::async(std::launch::async, [&] {
    return realm.ctrl(1).prepare_migration(bob);
  });
  ASSERT_TRUE(conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspendWait; }, 2s));

  // Alice lands; bob answers her RESUME with RESUME_WAIT, parking it.
  const util::Bytes sessions = realm.ctrl(0).export_sessions(alice);
  ASSERT_TRUE(realm.ctrl(2)
                  .import_sessions(alice, util::ByteSpan(sessions.data(),
                                                         sessions.size()))
                  .ok());
  realm.locations().register_agent(alice, realm.server(2).node_info());
  auto alice_resume = std::async(std::launch::async, [&] {
    return realm.ctrl(2).complete_migration(alice);
  });
  SessionPtr alice_side = realm.ctrl(2).session_by_id(conn_id);
  ASSERT_TRUE(alice_side);
  ASSERT_TRUE(alice_side->wait_state(
      [](ConnState s) { return s == ConnState::kResumeWait; }, 2s));
  ASSERT_TRUE(bob_prepare.get().ok());

  // Bob's next suspension round reaches alice while her resume is parked.
  auto plan = fault::Plan::parse("ctrl.sus.resume_wait@#1:delay:50");
  ASSERT_TRUE(plan.ok());
  fault::Injector::instance().arm(*plan);
  CtrlMsg sus;
  sus.type = CtrlType::kSus;
  sus.conn_id = conn_id;
  sus.client_agent = bob.name();
  sus.sent_seq = conn.server->sent_seq();
  sus.node = realm.server(1).node_info();
  const util::Bytes mac_payload = sus.mac_payload();
  sus.mac = compute_mac(
      util::ByteSpan(conn.server->session_key().data(),
                     conn.server->session_key().size()),
      util::ByteSpan(mac_payload.data(), mac_payload.size()));
  const util::Bytes encoded = sus.encode();
  ASSERT_TRUE(realm.server(1)
                  .bus()
                  .send(realm.server(2).node_info().control,
                        agent::BusKind::kControl,
                        util::ByteSpan(encoded.data(), encoded.size()))
                  .ok());

  const util::Status resumed = alice_resume.get();
  fault::Injector::instance().disarm();
  EXPECT_TRUE(resumed.ok()) << resumed.to_string();
  EXPECT_EQ(alice_side->state(), ConnState::kSuspended);
  EXPECT_TRUE(alice_side->flags().remote_suspended);
}

TEST(ConcurrentMigration, StressAlternatingAndSimultaneousHops) {
  // Repeated concurrent hops with live traffic: whatever interleaving the
  // scheduler produces (single / overlapped / non-overlapped), the
  // connection must always come back with no loss and no duplication.
  SimRealm realm(4, /*security=*/false, /*link_latency=*/5ms);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  int alice_node = 0, bob_node = 1;
  std::uint64_t messages_sent = 0;

  // Lighter under TSan (see stress_test.cpp); both variants still overlap
  // the two migrations via std::async.
  const int kHopRounds = std::getenv("NAPLET_TSAN_LIGHT") != nullptr ? 2 : 4;
  for (int round = 0; round < kHopRounds; ++round) {
    SessionPtr alice_side = realm.ctrl(alice_node).session_by_id(conn_id);
    ASSERT_TRUE(alice_side);
    ASSERT_TRUE(
        alice_side->send(span("round-" + std::to_string(round)), 2s).ok());
    ++messages_sent;

    const int alice_next = (alice_node + 2) % 4 == bob_node
                               ? (alice_node + 1) % 4
                               : (alice_node + 2) % 4;
    int bob_next = (bob_node + 2) % 4;
    if (bob_next == alice_next) bob_next = (bob_next + 1) % 4;

    auto move_alice = std::async(std::launch::async, [&, alice_next] {
      return realm.migrate_pseudo_agent(alice, alice_node, alice_next);
    });
    auto move_bob = std::async(std::launch::async, [&, bob_next] {
      return realm.migrate_pseudo_agent(bob, bob_node, bob_next);
    });
    ASSERT_TRUE(move_alice.get().ok()) << "round " << round;
    ASSERT_TRUE(move_bob.get().ok()) << "round " << round;
    alice_node = alice_next;
    bob_node = bob_next;

    SessionPtr a = realm.ctrl(alice_node).session_by_id(conn_id);
    SessionPtr b = realm.ctrl(bob_node).session_by_id(conn_id);
    ASSERT_TRUE(a && b) << "round " << round;
    ASSERT_TRUE(a->wait_state(
        [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
    ASSERT_TRUE(b->wait_state(
        [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
  }

  // Drain everything at bob: every round's message, in order, once.
  SessionPtr bob_side = realm.ctrl(bob_node).session_by_id(conn_id);
  ASSERT_TRUE(bob_side);
  for (std::uint64_t i = 0; i < messages_sent; ++i) {
    auto got = bob_side->recv(3s);
    ASSERT_TRUE(got.ok()) << "message " << i;
    EXPECT_EQ(text(got->body), "round-" + std::to_string(i));
  }
  EXPECT_FALSE(bob_side->recv(100ms).ok());
  EXPECT_TRUE(outranks("alice", "bob") || outranks("bob", "alice"));
}

}  // namespace
}  // namespace naplet::nsock
