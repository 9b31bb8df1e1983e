// Security properties (paper §3.3): agent-oriented access control at
// connect time, and session-key (HMAC) protection of suspend/resume/close
// against forged or replayed control traffic.
#include <gtest/gtest.h>

#include "agent/bus.hpp"
#include "core/test_realm.hpp"
#include "net/frame.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

TEST(Security, DeniedAgentCannotConnect) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());

  realm.server(0).access().deny("alice",
                                agent::Permission::kUseNapletSocket);
  auto session = realm.ctrl(0).connect(alice, bob);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kPermissionDenied);
  EXPECT_GE(realm.ctrl(0).access_denials(), 1u);
}

TEST(Security, ServerSideDenialAlsoRejects) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());

  // Server-side policy denies alice even though her home server allows.
  realm.server(1).access().deny("alice",
                                agent::Permission::kUseNapletSocket);
  auto session = realm.ctrl(0).connect(alice, bob);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kPermissionDenied);
}

TEST(Security, DeniedListenRejected) {
  SimRealm realm(1);
  auto bob = realm.pseudo_agent("bob", 0);
  realm.server(0).access().deny("bob", agent::Permission::kUseNapletSocket);
  EXPECT_EQ(realm.ctrl(0).listen(bob).code(),
            util::StatusCode::kPermissionDenied);
}

TEST(Security, ForgedSuspendIgnored) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  const std::uint64_t conn_id = conn.client->conn_id();

  // An attacker node with its own bus knows the conn id (eavesdropped)
  // but not the Diffie–Hellman session key.
  auto attacker_node = realm.net().add_node("attacker");
  auto dgram = attacker_node->bind_datagram(0);
  ASSERT_TRUE(dgram.ok());
  obs::Registry attacker_metrics;
  agent::ServerBus attacker_bus(std::move(*dgram), attacker_metrics);

  CtrlMsg forged;
  forged.type = CtrlType::kSus;
  forged.conn_id = conn_id;
  forged.sent_seq = 0;
  forged.node.server_name = "attacker";
  forged.node.control = attacker_bus.local_endpoint();
  forged.mac = util::Bytes(32, 0x00);  // wrong tag
  const util::Bytes encoded = forged.encode();
  ASSERT_TRUE(attacker_bus
                  .send(realm.server(1).node_info().control,
                        agent::BusKind::kControl,
                        util::ByteSpan(encoded.data(), encoded.size()))
                  .ok());

  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(conn.server->state(), ConnState::kEstablished)
      << "forged SUS must not suspend the connection";
  EXPECT_GE(realm.ctrl(1).mac_rejections(), 1u);

  // Traffic unaffected.
  ASSERT_TRUE(conn.client->send(span("still secure"), 1s).ok());
  EXPECT_EQ(text(conn.server->recv(1s)->body), "still secure");
  attacker_bus.stop();
}

TEST(Security, ForgedCloseIgnored) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  auto attacker_node = realm.net().add_node("attacker2");
  auto dgram = attacker_node->bind_datagram(0);
  ASSERT_TRUE(dgram.ok());
  obs::Registry attacker_metrics;
  agent::ServerBus attacker_bus(std::move(*dgram), attacker_metrics);

  CtrlMsg forged;
  forged.type = CtrlType::kCls;
  forged.conn_id = conn.client->conn_id();
  forged.node.server_name = "attacker2";
  forged.node.control = attacker_bus.local_endpoint();
  const util::Bytes encoded = forged.encode();
  ASSERT_TRUE(attacker_bus
                  .send(realm.server(1).node_info().control,
                        agent::BusKind::kControl,
                        util::ByteSpan(encoded.data(), encoded.size()))
                  .ok());
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(conn.server->state(), ConnState::kEstablished);
  attacker_bus.stop();
}

TEST(Security, HijackedResumeRejectedAtRedirector) {
  SimRealm realm(2);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  const std::uint64_t conn_id = conn.client->conn_id();

  // Suspend legitimately so the session is resumable.
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  conn.server->wait_state(
      [](ConnState s) { return s == ConnState::kSuspended; }, 2s);

  // Attacker connects to bob's redirector and tries to steal the session
  // with a RESUME carrying a guessed MAC.
  auto attacker_node = realm.net().add_node("hijacker");
  auto stream = attacker_node->connect(
      realm.server(1).node_info().redirector, 1s);
  ASSERT_TRUE(stream.ok());
  HandoffMsg forged;
  forged.type = HandoffType::kResume;
  forged.conn_id = conn_id;
  forged.verifier = conn.client->verifier();  // even with the verifier...
  forged.sent_seq = 0;
  forged.mac = util::Bytes(32, 0xAA);  // ...the MAC cannot be forged
  const util::Bytes encoded = forged.encode();
  ASSERT_TRUE(net::write_frame(**stream,
                               util::ByteSpan(encoded.data(), encoded.size()))
                  .ok());
  auto reply_frame = net::read_frame(**stream);
  ASSERT_TRUE(reply_frame.ok());
  auto reply = HandoffMsg::decode(
      util::ByteSpan(reply_frame->data(), reply_frame->size()));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, HandoffType::kError);
  EXPECT_GE(realm.ctrl(1).mac_rejections(), 1u);

  // The legitimate owner can still resume.
  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());
  ASSERT_TRUE(conn.client->send(span("mine"), 1s).ok());
  EXPECT_EQ(text(conn.server->recv(2s)->body), "mine");
}

TEST(Security, ForgedHandoffsAreRefused) {
  // Tolerance on: the session table is the one authority on which RESUME
  // names a live connection, whatever the fault-tolerance mode.
  SimRealm realm(2, /*security=*/true, {}, [](NodeConfig& config) {
    config.controller.tolerance.enabled = true;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // Send one forged handoff frame to node1's redirector, read the reply.
  auto attacker_node = realm.net().add_node("sneaker");
  auto forge = [&](const HandoffMsg& forged) -> util::StatusOr<HandoffMsg> {
    auto stream = attacker_node->connect(
        realm.server(1).node_info().redirector, 1s);
    if (!stream.ok()) return stream.status();
    const util::Bytes encoded = forged.encode();
    NAPLET_RETURN_IF_ERROR(net::write_frame(
        **stream, util::ByteSpan(encoded.data(), encoded.size())));
    auto reply_frame = net::read_frame(**stream);
    if (!reply_frame.ok()) return reply_frame.status();
    return HandoffMsg::decode(
        util::ByteSpan(reply_frame->data(), reply_frame->size()));
  };

  // An ATTACH with a conn_id no pending connect owns is rejected cleanly.
  HandoffMsg attach;
  attach.type = HandoffType::kAttach;
  attach.conn_id = 0xDEAD;
  auto reply = forge(attach);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->type, HandoffType::kError);

  // A RESUME naming a connection node1 does not hold gets kError from the
  // session table and reaches no session: the live one is untouched.
  HandoffMsg resume;
  resume.type = HandoffType::kResume;
  resume.conn_id = conn.server->conn_id() + 1;
  resume.agent = "alice";
  reply = forge(resume);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->type, HandoffType::kError);
  EXPECT_EQ(reply->conn_id, resume.conn_id);
  EXPECT_EQ(reply->reason, "unknown connection");
  EXPECT_EQ(realm.ctrl(1).mac_rejections(), 0u);
  EXPECT_EQ(conn.server->state(), ConnState::kEstablished);
  ASSERT_TRUE(conn.client->send(span("still live"), 1s).ok());
  EXPECT_EQ(text(conn.server->recv(2s)->body), "still live");
}

TEST(Security, SuspendResumeWorkWithoutSecurityMode) {
  // The w/o-security baseline still migrates correctly — it simply skips
  // authentication, DH, and MAC checks.
  SimRealm realm(3, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client->send(span("insecure but reliable"), 1s).ok());
  ASSERT_TRUE(realm.migrate_pseudo_agent(bob, 1, 2).ok());
  SessionPtr moved = realm.ctrl(2).session_by_id(conn.client->conn_id());
  ASSERT_TRUE(moved);
  EXPECT_EQ(text(moved->recv(2s)->body), "insecure but reliable");
}

TEST(Security, MacRejectionCounterStartsAtZero) {
  SimRealm realm(1);
  EXPECT_EQ(realm.ctrl(0).mac_rejections(), 0u);
  EXPECT_EQ(realm.ctrl(0).access_denials(), 0u);
}

}  // namespace
}  // namespace naplet::nsock
