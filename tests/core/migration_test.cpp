// Single-endpoint connection migration: one agent moves between nodes
// while the other stays put; the connection must survive transparently
// with exactly-once delivery of everything in flight (paper §2.1, §3.1).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/test_realm.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

TEST(Migration, ConnectionSurvivesOneHop) {
  SimRealm realm(3);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  const std::uint64_t conn_id = conn.client->conn_id();

  ASSERT_TRUE(realm.migrate_pseudo_agent(bob, 1, 2).ok());

  // The session moved controllers and re-established.
  EXPECT_EQ(realm.ctrl(1).session_count(), 0u);
  SessionPtr moved = realm.ctrl(2).session_by_id(conn_id);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->state(), ConnState::kEstablished);
  // The stationary responder advances to ESTABLISHED immediately after
  // sending RESUME_OK; allow that last step to land.
  ASSERT_TRUE(conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 2s));
  // The stationary side learned bob's new location.
  EXPECT_EQ(conn.client->peer_node().server_name, "node2");

  // Traffic flows in both directions after the hop.
  ASSERT_TRUE(conn.client->send(span("to-new-home"), 1s).ok());
  auto got = moved->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "to-new-home");
  ASSERT_TRUE(moved->send(span("settled"), 1s).ok());
  auto back = conn.client->recv(1s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(text(back->body), "settled");
}

TEST(Migration, InFlightDataDeliveredExactlyOnceAfterHop) {
  SimRealm realm(3);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  // Alice fires messages that bob never reads before migrating: they are
  // "in transmission" and must travel with the agent in its input buffer.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn.client->send(span("msg-" + std::to_string(i)), 1s).ok());
  }
  ASSERT_TRUE(realm.migrate_pseudo_agent(bob, 1, 2).ok());

  SessionPtr moved = realm.ctrl(2).session_by_id(conn_id);
  ASSERT_NE(moved, nullptr);
  ASSERT_TRUE(conn.client->send(span("msg-5"), 1s).ok());

  // All six messages arrive, in order, exactly once; the first five from
  // the migrated buffer, the sixth from the new socket.
  for (int i = 0; i < 6; ++i) {
    auto got = moved->recv(2s);
    ASSERT_TRUE(got.ok()) << "message " << i << ": "
                          << got.status().to_string();
    EXPECT_EQ(text(got->body), "msg-" + std::to_string(i));
    if (i < 5) {
      EXPECT_TRUE(got->from_buffer) << "message " << i;
    } else {
      EXPECT_FALSE(got->from_buffer);
    }
  }
  EXPECT_FALSE(moved->recv(100ms).ok());  // nothing extra (exactly once)
}

TEST(Migration, ClientSideCanMigrateToo) {
  SimRealm realm(3);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  ASSERT_TRUE(conn.server->send(span("catch me"), 1s).ok());
  ASSERT_TRUE(realm.migrate_pseudo_agent(alice, 0, 2).ok());

  SessionPtr moved = realm.ctrl(2).session_by_id(conn_id);
  ASSERT_NE(moved, nullptr);
  auto got = moved->recv(2s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "catch me");
  EXPECT_EQ(conn.server->peer_node().server_name, "node2");
}

TEST(Migration, MultipleHopsSequentially) {
  SimRealm realm(4);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  int hop_targets[] = {2, 3, 1};
  int from = 1;
  for (int to : hop_targets) {
    ASSERT_TRUE(conn.client->send(span("hop"), 1s).ok());
    ASSERT_TRUE(realm.migrate_pseudo_agent(bob, from, to).ok());
    from = to;
    SessionPtr moved = realm.ctrl(to).session_by_id(conn_id);
    ASSERT_NE(moved, nullptr);
    auto got = moved->recv(2s);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(text(got->body), "hop");
  }
  EXPECT_EQ(conn.client->sent_seq(), 3u);
}

TEST(Migration, MultipleConnectionsAllMigrate) {
  SimRealm realm(3);
  auto alice = realm.pseudo_agent("alice", 0);
  auto carol = realm.pseudo_agent("carol", 0);
  auto bob = realm.pseudo_agent("bob", 1);

  ConnPair c1 = make_connection(realm, alice, 0, bob, 1);
  auto c2_client = realm.ctrl(0).connect(carol, bob);
  ASSERT_TRUE(c2_client.ok());
  auto c2_server = realm.ctrl(1).accept(bob, 2s);
  ASSERT_TRUE(c2_server.ok());

  ASSERT_TRUE(c1.client->send(span("a->b"), 1s).ok());
  ASSERT_TRUE((*c2_client)->send(span("c->b"), 1s).ok());

  ASSERT_TRUE(realm.migrate_pseudo_agent(bob, 1, 2).ok());
  EXPECT_EQ(realm.ctrl(2).session_count(), 2u);

  SessionPtr m1 = realm.ctrl(2).session_by_id(c1.client->conn_id());
  SessionPtr m2 = realm.ctrl(2).session_by_id((*c2_client)->conn_id());
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(text(m1->recv(2s)->body), "a->b");
  EXPECT_EQ(text(m2->recv(2s)->body), "c->b");
  EXPECT_EQ(c1.client->peer_node().server_name, "node2");
  EXPECT_EQ((*c2_client)->peer_node().server_name, "node2");
}

TEST(Migration, HostSweepsEveryAgentBeforeTheirHops) {
  // A host prepares its agents one after another before any of them hops;
  // each hop's own prepare then finds its connections already suspended.
  SimRealm realm(3, /*security=*/false);
  const agent::AgentId ant = realm.pseudo_agent("sweep-ant", 0);
  const agent::AgentId bee = realm.pseudo_agent("sweep-bee", 0);
  const agent::AgentId srv = realm.pseudo_agent("sweep-srv", 1);

  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  std::vector<SessionPtr> clients;
  for (const auto& id : {ant, bee}) {
    for (int i = 0; i < 2; ++i) {
      auto client = realm.ctrl(0).connect(id, srv);
      ASSERT_TRUE(client.ok()) << client.status().to_string();
      ASSERT_TRUE(realm.ctrl(1).accept(srv, 2s).ok());
      clients.push_back(*client);
    }
  }

  for (const auto& id : {ant, bee}) {
    ASSERT_TRUE(realm.ctrl(0).prepare_migration(id).ok()) << id.name();
  }
  for (const SessionPtr& client : clients) {
    EXPECT_EQ(client->state(), ConnState::kSuspended);
  }

  ASSERT_TRUE(realm.migrate_pseudo_agent(ant, 0, 2).ok());
  ASSERT_TRUE(realm.migrate_pseudo_agent(bee, 0, 2).ok());
  for (const SessionPtr& client : clients) {
    SessionPtr moved = realm.ctrl(2).session_by_id(client->conn_id());
    ASSERT_NE(moved, nullptr);
    EXPECT_TRUE(moved->wait_state(
        [](ConnState s) { return s == ConnState::kEstablished; }, 8s));
  }
}

TEST(Migration, SuspendedStateBlocksTrafficDuringHop) {
  SimRealm realm(3);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  // Manually run only the first half of the migration.
  realm.locations().begin_migration(bob);
  ASSERT_TRUE(realm.ctrl(1).prepare_migration(bob).ok());
  EXPECT_EQ(conn.server->state(), ConnState::kSuspended);
  conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);

  // Sends on the stationary side block while suspended.
  auto st = conn.client->send(span("blocked"), 150ms);
  EXPECT_EQ(st.code(), util::StatusCode::kTimeout);

  // Finish the hop; the blocked writer's retry path now succeeds.
  const util::Bytes sessions = realm.ctrl(1).export_sessions(bob);
  ASSERT_TRUE(realm.ctrl(2)
                  .import_sessions(bob, util::ByteSpan(sessions.data(),
                                                       sessions.size()))
                  .ok());
  realm.locations().register_agent(bob, realm.server(2).node_info());
  ASSERT_TRUE(realm.ctrl(2).complete_migration(bob).ok());
  ASSERT_TRUE(conn.client->send(span("unblocked"), 2s).ok());
}

TEST(Migration, ExportRemovesImportRestores) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  realm.locations().begin_migration(bob);
  ASSERT_TRUE(realm.ctrl(1).prepare_migration(bob).ok());
  const util::Bytes blob = realm.ctrl(1).export_sessions(bob);
  EXPECT_EQ(realm.ctrl(1).session_count(), 0u);
  EXPECT_FALSE(blob.empty());

  // Import back into the same node (a degenerate "hop").
  ASSERT_TRUE(realm.ctrl(1)
                  .import_sessions(bob, util::ByteSpan(blob.data(),
                                                       blob.size()))
                  .ok());
  realm.locations().register_agent(bob, realm.server(1).node_info());
  EXPECT_EQ(realm.ctrl(1).session_count(), 1u);
  ASSERT_TRUE(realm.ctrl(1).complete_migration(bob).ok());
  ASSERT_TRUE(conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 2s));
}

TEST(Migration, ImportRejectsForeignSessions) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  (void)conn;

  realm.locations().begin_migration(bob);
  ASSERT_TRUE(realm.ctrl(1).prepare_migration(bob).ok());
  const util::Bytes blob = realm.ctrl(1).export_sessions(bob);
  // Importing under the wrong agent id must fail.
  auto st = realm.ctrl(0).import_sessions(
      agent::AgentId("mallory"), util::ByteSpan(blob.data(), blob.size()));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kProtocolError);
}

TEST(Migration, EmptyExportForConnectionlessAgent) {
  SimRealm realm(2);
  auto loner = realm.pseudo_agent("loner", 0);
  ASSERT_TRUE(realm.ctrl(0).prepare_migration(loner).ok());
  const util::Bytes blob = realm.ctrl(0).export_sessions(loner);
  // count == 0 encoding
  ASSERT_TRUE(realm.ctrl(1)
                  .import_sessions(loner, util::ByteSpan(blob.data(),
                                                         blob.size()))
                  .ok());
  EXPECT_TRUE(realm.ctrl(1).complete_migration(loner).ok());
}

}  // namespace
}  // namespace naplet::nsock
