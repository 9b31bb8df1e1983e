// Crash-tolerant control-plane integration tests: a controller is killed
// (Realm::remove_node — no protocol goodbye) and stood up again under the
// same name; with durability on, recover() replays the journal and the
// peer's migration completes across the restart. Also covers the satellite
// guarantees: lease eviction, abort_session waking blocked waiters,
// epoch admission, the probe timeout, and deadline-bounded rudp sends.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <thread>

#include "core/runtime.hpp"
#include "core/test_realm.hpp"
#include "fault/chaos.hpp"
#include "net/rudp.hpp"
#include "net/sim.hpp"

namespace naplet::nsock {
namespace {

namespace fs = std::filesystem;
using namespace naplet::nsock::testing;

std::string scratch_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("naplet-recovery-test-" + tag + "-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  return dir;
}

/// Config for the crash-restart realms: short timeouts so the expected
/// failures are quick, resume retries + rollback + leases on when
/// `recovery`, plus a journal for the node that will be killed.
NodeConfig restart_config(bool recovery, const std::string& durable_dir) {
  NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval =
      std::chrono::milliseconds(15);
  config.server.rudp_config.max_attempts = 40;
  config.controller.ctrl_response_timeout = 1s;
  config.controller.drain_timeout = 1s;
  if (recovery) {
    config.controller.failure_recovery.enabled = true;
    config.controller.failure_recovery.probe_interval = 500ms;
    config.controller.failure_recovery.probe_timeout = 200ms;
    config.controller.failure_recovery.miss_threshold = 1000;
    config.controller.suspend_rollback = true;
    config.controller.resume_max_attempts = 25;
    config.controller.resume_retry_backoff = 50ms;
    config.controller.resume_retry_cap = 400ms;
    config.controller.resume_timeout = 8s;
    config.controller.redirector_leases.enabled = true;
    config.controller.redirector_leases.ttl = 3s;
    if (!durable_dir.empty()) {
      config.controller.durability.enabled = true;
      config.controller.durability.dir = durable_dir;
      config.controller.durability.compact_every = 8;
    }
  } else {
    config.controller.resume_max_attempts = 1;
    config.controller.resume_timeout = 2s;
  }
  return config;
}

/// Three-node realm where node1 (the server host) can be crash-restarted.
struct RestartRealm {
  explicit RestartRealm(bool recovery, const std::string& tag)
      : recovery_(recovery), dir_(scratch_dir(tag)), net_(/*seed=*/1) {
    net_.set_default_link(net::LinkConfig{.latency = 1ms});
    for (int i = 0; i < 3; ++i) {
      const std::string name = "node" + std::to_string(i);
      realm_.add_node(name, net_.add_node(name),
                      restart_config(recovery_, i == 1 ? dir_ : ""));
    }
    EXPECT_TRUE(realm_.start().ok());
  }
  ~RestartRealm() {
    realm_.stop();
    fs::remove_all(dir_);
  }

  SocketController& ctrl(int i) {
    return realm_.node("node" + std::to_string(i)).controller();
  }
  agent::AgentServer& server(int i) {
    return realm_.node("node" + std::to_string(i)).server();
  }

  /// Kill node1 and stand it up again; with recovery on, replay the journal
  /// and re-register `owner` there (the docking system's restart duty).
  util::Status crash_restart_node1(const agent::AgentId& owner) {
    realm_.remove_node("node1");
    auto& node = realm_.add_node("node1", net_.add_node("node1"),
                                 restart_config(recovery_, dir_));
    NAPLET_RETURN_IF_ERROR(node.start());
    if (recovery_) {
      NAPLET_RETURN_IF_ERROR(node.controller().recover());
    }
    realm_.locations().register_agent(owner, node.server().node_info());
    return util::OkStatus();
  }

  util::Status migrate(const agent::AgentId& id, int from, int to) {
    realm_.locations().begin_migration(id);
    NAPLET_RETURN_IF_ERROR(ctrl(from).prepare_migration(id));
    const util::Bytes sessions = ctrl(from).export_sessions(id);
    NAPLET_RETURN_IF_ERROR(ctrl(to).import_sessions(
        id, util::ByteSpan(sessions.data(), sessions.size())));
    realm_.locations().register_agent(id, server(to).node_info());
    return ctrl(to).complete_migration(id);
  }

  bool recovery_;
  std::string dir_;
  net::SimNet net_;
  Realm realm_;
};

TEST(Recovery, RestartedControllerServesResumeFromJournal) {
  RestartRealm realm(/*recovery=*/true, "resume");
  const agent::AgentId cli("cli");
  const agent::AgentId srv("srv");
  realm.realm_.locations().register_agent(cli, realm.server(0).node_info());
  realm.realm_.locations().register_agent(srv, realm.server(1).node_info());
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  auto client = realm.ctrl(0).connect(cli, srv);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  auto server = realm.ctrl(1).accept(srv, 5s);
  ASSERT_TRUE(server.ok());
  const std::uint64_t conn = (*client)->conn_id();

  // Traffic both ways; the reverse frames will ride the suspension buffer
  // through the journal and across the restart.
  ASSERT_TRUE((*client)->send(span("fwd"), 1s).ok());
  EXPECT_EQ(text((*server)->recv(1s)->body), "fwd");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*server)->send(span("rev" + std::to_string(i)), 1s).ok());
  }
  std::this_thread::sleep_for(30ms);

  // Clean suspension (journaled at node1), then kill node1 BEFORE the
  // client's migration resumes — the restarted controller must serve the
  // RESUME purely from its journal.
  realm.realm_.locations().begin_migration(cli);
  ASSERT_TRUE(realm.ctrl(0).prepare_migration(cli).ok());
  const util::Bytes blob = realm.ctrl(0).export_sessions(cli);
  ASSERT_TRUE(realm.ctrl(2)
                  .import_sessions(cli,
                                   util::ByteSpan(blob.data(), blob.size()))
                  .ok());
  realm.realm_.locations().register_agent(cli, realm.server(2).node_info());

  ASSERT_TRUE(realm.crash_restart_node1(srv).ok());
  EXPECT_EQ(realm.ctrl(1).sessions_recovered(), 1u);
  EXPECT_GE(realm.ctrl(1).epoch(), 2u);  // incarnation bumped past disk

  ASSERT_TRUE(realm.ctrl(2).complete_migration(cli).ok());

  SessionPtr moved = realm.ctrl(2).session_by_id(conn);
  SessionPtr recovered = realm.ctrl(1).session_by_id(conn);
  ASSERT_TRUE(moved);
  ASSERT_TRUE(recovered);

  // Pre-crash reverse frames arrive exactly once, in order, then live
  // traffic flows both ways across the recovered pair.
  for (int i = 0; i < 3; ++i) {
    auto got = moved->recv(5s);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(text(got->body), "rev" + std::to_string(i));
  }
  ASSERT_TRUE(moved->send(span("post"), 2s).ok());
  EXPECT_EQ(text(recovered->recv(2s)->body), "post");
  ASSERT_TRUE(recovered->send(span("echo"), 2s).ok());
  EXPECT_EQ(text(moved->recv(2s)->body), "echo");
}

TEST(Recovery, DisabledRecoveryFailsCleanlyAndAborts) {
  RestartRealm realm(/*recovery=*/false, "disabled");
  const agent::AgentId cli("cli");
  const agent::AgentId srv("srv");
  realm.realm_.locations().register_agent(cli, realm.server(0).node_info());
  realm.realm_.locations().register_agent(srv, realm.server(1).node_info());
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());
  auto client = realm.ctrl(0).connect(cli, srv);
  ASSERT_TRUE(client.ok());
  auto server = realm.ctrl(1).accept(srv, 5s);
  ASSERT_TRUE(server.ok());
  const std::uint64_t conn = (*client)->conn_id();

  realm.realm_.locations().begin_migration(cli);
  ASSERT_TRUE(realm.ctrl(0).prepare_migration(cli).ok());
  const util::Bytes blob = realm.ctrl(0).export_sessions(cli);
  ASSERT_TRUE(realm.ctrl(2)
                  .import_sessions(cli,
                                   util::ByteSpan(blob.data(), blob.size()))
                  .ok());
  realm.realm_.locations().register_agent(cli, realm.server(2).node_info());

  // Restart WITHOUT journal replay: the new incarnation knows nothing.
  ASSERT_TRUE(realm.crash_restart_node1(srv).ok());
  EXPECT_EQ(realm.ctrl(1).sessions_recovered(), 0u);

  // The paper's single-shot resume must fail with a bounded error (the
  // restarted controller answers "unknown connection" until the resume
  // deadline), never hang.
  const auto t0 = util::RealClock::instance().now_us();
  util::Status resume = realm.ctrl(2).complete_migration(cli);
  const auto elapsed_ms =
      (util::RealClock::instance().now_us() - t0) / 1000;
  EXPECT_FALSE(resume.ok());
  EXPECT_LT(elapsed_ms, 6000) << resume.to_string();

  // And the surviving half-open session is abortable: blocked waiters wake
  // with ABORTED rather than waiting out their full I/O timeouts.
  SessionPtr leftover = realm.ctrl(2).session_by_id(conn);
  ASSERT_TRUE(leftover);
  realm.ctrl(2).abort(leftover);
  EXPECT_EQ(leftover->state(), ConnState::kClosed);
  auto st = leftover->send(span("x"), 10s);
  EXPECT_EQ(st.code(), util::StatusCode::kAborted);
}

TEST(Recovery, RecoverWithoutDurabilityIsFailedPrecondition) {
  SimRealm realm(1, /*security=*/false);
  EXPECT_EQ(realm.ctrl(0).recover().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(Recovery, SuspendRollbackReestablishesWhenPeerNeverAnswers) {
  // The SUS handshake dies (peer's control plane unreachable) while the
  // data stream stays healthy: with suspend_rollback the session returns
  // to ESTABLISHED and application traffic keeps flowing.
  SimRealm realm(2, /*security=*/false, {}, [](NodeConfig& config) {
    config.controller.ctrl_response_timeout = 500ms;
    config.controller.suspend_rollback = true;
    config.server.rudp_config.retransmit_interval =
        std::chrono::milliseconds(15);
    config.server.rudp_config.max_attempts = 6;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // Drop control datagrams only — the TCP data stream stays up.
  realm.net().set_partition("node0", "node1", true);
  util::Status st = realm.ctrl(0).prepare_migration(alice);
  realm.net().set_partition("node0", "node1", false);
  EXPECT_EQ(st.code(), util::StatusCode::kTimeout);
  EXPECT_NE(st.message().find("rolled back"), std::string::npos)
      << st.to_string();
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);

  // Writers unfroze with the rollback.
  ASSERT_TRUE(conn.client->send(span("after rollback"), 2s).ok());
  EXPECT_EQ(text(conn.server->recv(2s)->body), "after rollback");
}

TEST(Epoch, AdmissionIsMonotonicHighWater) {
  Session session(1, 1, true, agent::AgentId("a"), agent::AgentId("b"));
  EXPECT_EQ(session.peer_epoch(), 0u);
  EXPECT_TRUE(session.admit_peer_epoch(0));  // unfenced sender, always in
  EXPECT_TRUE(session.admit_peer_epoch(3));
  EXPECT_EQ(session.peer_epoch(), 3u);
  EXPECT_TRUE(session.admit_peer_epoch(3));   // same incarnation
  EXPECT_FALSE(session.admit_peer_epoch(2));  // pre-crash leftover: fenced
  EXPECT_TRUE(session.admit_peer_epoch(0));   // unfenced still admitted
  EXPECT_TRUE(session.admit_peer_epoch(7));
  EXPECT_EQ(session.peer_epoch(), 7u);
}

TEST(Leases, ExpiredMappingEvictedWhileRefreshedOneSurvives) {
  SimRealm realm(2, /*security=*/false, {}, [](NodeConfig& config) {
    config.controller.redirector_leases.enabled = true;
    config.controller.redirector_leases.ttl = 400ms;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  Redirector* redirector = realm.ctrl(1).redirector();
  ASSERT_NE(redirector, nullptr);
  EXPECT_TRUE(redirector->lease_live(conn.server->conn_id()));

  // A mapping whose owner died and never refreshes (the pre-crash
  // leftover a lease exists to kill).
  redirector->register_lease(/*conn_id=*/9999);
  EXPECT_TRUE(redirector->lease_live(9999));

  // Past the TTL: the dead mapping is swept; the live session's lease
  // keeps being refreshed by the repair loop.
  std::this_thread::sleep_for(1200ms);
  EXPECT_FALSE(redirector->lease_live(9999));
  EXPECT_GE(redirector->leases_expired(), 1u);
  EXPECT_TRUE(redirector->lease_live(conn.server->conn_id()));
}

TEST(Abort, BlockedSendRecvAndResumeWaitersWakeAborted) {
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // A reader blocked with a long deadline...
  util::Status recv_status = util::OkStatus();
  std::thread reader([&] {
    auto got = conn.client->recv(30s);
    recv_status = got.status();
  });
  // ...and a writer blocked behind a mid-suspension session (writes gate
  // on can_transfer, so SUS_SENT parks the sender).
  ASSERT_TRUE(conn.client->advance(ConnEvent::kAppSuspend).ok());
  (void)conn.client->freeze_writes_and_mark();
  util::Status send_status = util::OkStatus();
  std::thread writer([&] {
    send_status = conn.client->send(span("stuck"), 30s);
  });
  std::this_thread::sleep_for(100ms);

  const auto t0 = util::RealClock::instance().now_us();
  realm.ctrl(0).abort(realm.ctrl(0).session_by_id(conn.client->conn_id()));
  reader.join();
  writer.join();
  const auto woke_ms = (util::RealClock::instance().now_us() - t0) / 1000;

  EXPECT_EQ(recv_status.code(), util::StatusCode::kAborted)
      << recv_status.to_string();
  EXPECT_EQ(send_status.code(), util::StatusCode::kAborted)
      << send_status.to_string();
  EXPECT_LT(woke_ms, 2000);  // woke on the abort, not the 30s deadlines
  EXPECT_EQ(conn.client->state(), ConnState::kClosed);
}

TEST(ProbeTimeout, HeartbeatRoundIsBoundedByProbeTimeout) {
  // With the dedicated probe deadline, a fully dead peer is declared dead
  // in a handful of probe intervals — not after inheriting the 5s control
  // timeout per probe.
  SimRealm realm(2, /*security=*/false, {}, [](NodeConfig& config) {
    config.controller.failure_recovery.enabled = true;
    config.controller.failure_recovery.probe_interval = 100ms;
    config.controller.failure_recovery.probe_timeout = 150ms;
    config.controller.failure_recovery.miss_threshold = 2;
    config.server.rudp_config.retransmit_interval =
        std::chrono::milliseconds(20);
    config.server.rudp_config.max_attempts = 50;  // >> probe_timeout budget
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  realm.net().set_partition("node0", "node1", true);
  realm.net().sever_streams("node0", "node1");
  ASSERT_TRUE(conn.client->wait_state(
      [](ConnState s) { return s == ConnState::kClosed; }, 5s));
  EXPECT_GE(realm.ctrl(0).peers_declared_dead(), 1u);
}

TEST(Rudp, SendMaxWaitBoundsBlockingTime) {
  net::SimNet net(/*seed=*/3);
  auto a = net.add_node("a");
  net.add_node("void");  // exists but nothing listens

  net::RudpConfig config;
  config.retransmit_interval = std::chrono::milliseconds(25);
  config.max_attempts = 200;  // unbounded retry budget: seconds of blocking
  auto dgram = a->bind_datagram(7);
  ASSERT_TRUE(dgram.ok());
  net::ReliableChannel channel(std::move(*dgram), config);

  const auto t0 = util::RealClock::instance().now_us();
  auto st = channel.send(net::Endpoint{"void", 9}, span("hello"),
                         /*max_wait=*/300ms);
  const auto elapsed_ms = (util::RealClock::instance().now_us() - t0) / 1000;
  EXPECT_EQ(st.code(), util::StatusCode::kTimeout);
  EXPECT_LT(elapsed_ms, 1500) << "max_wait did not bound the send";
  EXPECT_GE(elapsed_ms, 250);  // but it did wait close to the deadline
}

// Pinned-seed crash-restart chaos: the full kill/restart choreography with
// every oracle armed, reproducible from the seed alone. One scenario per
// test so a failure names its scenario.
TEST(CrashChaos, SuspendCrashRecoversExactlyOnce) {
  const auto result = fault::run_case(fault::make_case(
      5, fault::Scenario::kCrashSuspend, /*light=*/true, /*recovery=*/true));
  EXPECT_TRUE(result.pass) << result.failure;
}

TEST(CrashChaos, ResumeCrashRecoversExactlyOnce) {
  const auto result = fault::run_case(fault::make_case(
      5, fault::Scenario::kCrashResume, /*light=*/true, /*recovery=*/true));
  EXPECT_TRUE(result.pass) << result.failure;
}

TEST(CrashChaos, DoubleMigrationAcrossCrashRecoversExactlyOnce) {
  const auto result = fault::run_case(fault::make_case(
      5, fault::Scenario::kCrashDouble, /*light=*/true, /*recovery=*/true));
  EXPECT_TRUE(result.pass) << result.failure;
}

TEST(CrashChaos, WithoutRecoveryTheSameCrashesFailCleanly) {
  for (const auto scenario :
       {fault::Scenario::kCrashSuspend, fault::Scenario::kCrashResume,
        fault::Scenario::kCrashDouble}) {
    const auto result = fault::run_case(fault::make_case(
        5, scenario, /*light=*/true, /*recovery=*/false));
    EXPECT_TRUE(result.pass)
        << fault::to_string(scenario) << ": " << result.failure;
  }
}

}  // namespace
}  // namespace naplet::nsock
