// Crash-tolerant control-plane integration tests: a controller is killed
// (Realm::remove_node — no protocol goodbye) and stood up again under the
// same name; with durability on, recover() replays the journal and the
// peer's migration completes across the restart. Also covers the satellite
// guarantees: resume after a stalled repair loop, abort_session waking
// blocked waiters, epoch admission, the probe timeout, and deadline-bounded
// rudp sends.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <thread>

#include "core/runtime.hpp"
#include "core/test_realm.hpp"
#include "fault/chaos.hpp"
#include "fault/oracle.hpp"
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
/// failures are quick, tolerance on when `recovery`, plus a journal for the
/// node that will be killed.
NodeConfig restart_config(bool recovery, const std::string& durable_dir) {
  NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval =
      std::chrono::milliseconds(15);
  config.server.rudp_config.max_attempts = 40;
  config.controller.ctrl_response_timeout = 1s;
  config.controller.drain_timeout = 1s;
  if (recovery) {
    config.controller.tolerance.enabled = true;
    config.controller.tolerance.probe_interval = 500ms;
    config.controller.tolerance.probe_timeout = 200ms;
    config.controller.tolerance.miss_threshold = 1000;
    // Short attempts, so an outage of a second or two spans a retry.
    config.controller.resume_timeout = 1s;
    if (!durable_dir.empty()) {
      config.controller.durability.enabled = true;
      config.controller.durability.dir = durable_dir;
      config.controller.durability.compact_floor_bytes = 64;
    }
  } else {
    config.controller.resume_timeout = 2s;
  }
  return config;
}

/// Three-node realm where the durable node (node1, the server host, unless
/// told otherwise) can be crash-restarted.
struct RestartRealm {
  RestartRealm(bool recovery, const std::string& tag, int durable = 1)
      : recovery_(recovery),
        durable_(durable),
        dir_(scratch_dir(tag)),
        net_(/*seed=*/1) {
    net_.set_default_link(net::LinkConfig{.latency = 1ms});
    for (int i = 0; i < 3; ++i) {
      const std::string name = "node" + std::to_string(i);
      realm_.add_node(name, net_.add_node(name),
                      restart_config(recovery_, i == durable_ ? dir_ : ""));
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

  /// Kill the durable node (no protocol goodbye).
  void crash() { realm_.remove_node(durable_name()); }

  /// Stand the durable node up again; with recovery on, replay the journal
  /// and re-register `owner` there (the docking system's restart duty).
  util::Status restart(const agent::AgentId& owner) {
    auto& node = realm_.add_node(durable_name(), net_.add_node(durable_name()),
                                 restart_config(recovery_, dir_));
    NAPLET_RETURN_IF_ERROR(node.start());
    if (recovery_) {
      NAPLET_RETURN_IF_ERROR(node.controller().recover());
    }
    realm_.locations().register_agent(owner, node.server().node_info());
    return util::OkStatus();
  }

  std::string durable_name() const {
    return "node" + std::to_string(durable_);
  }

  bool recovery_;
  int durable_;
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
  ASSERT_TRUE(realm.realm_.hop(cli, "node0", "node2").ok());

  // The small byte floor makes the doomed incarnation compact past the
  // compaction open() always does once its drain commit lands (posted
  // after the SUS_ACK, so it can trail prepare_migration): the restart
  // replays a snapshot plus a journal tail.
  const recovery::DurableStore* store = realm.ctrl(1).durable_store();
  for (int i = 0; i < 200 && store->compactions() < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(store->compactions(), 1u);

  // The mover resumes while node1 is down; node1 stays down past one
  // resume attempt, so only the mover's retries reach the restarted
  // controller.
  realm.crash();
  SocketController& mover = realm.ctrl(2);
  util::Status resumed = util::OkStatus();
  std::thread migration([&] { resumed = mover.complete_migration(cli); });
  std::this_thread::sleep_for(2s);  // twice the resume_timeout
  const util::Status restarted = realm.restart(srv);
  migration.join();
  ASSERT_TRUE(restarted.ok()) << restarted.to_string();
  EXPECT_EQ(realm.ctrl(1).sessions_recovered(), 1u);
  EXPECT_GE(realm.ctrl(1).epoch(), 2u);  // incarnation bumped past disk
  ASSERT_TRUE(resumed.ok()) << resumed.to_string();
  EXPECT_GT(mover.resume_retries(), 0u);

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

  ASSERT_TRUE(realm.realm_.hop(cli, "node0", "node2").ok());

  // Restart WITHOUT journal replay: the new incarnation knows nothing.
  realm.crash();
  ASSERT_TRUE(realm.restart(srv).ok());
  EXPECT_EQ(realm.ctrl(1).sessions_recovered(), 0u);

  // The paper's single-shot resume must fail with a bounded error (the
  // restarted controller answers "unknown connection" until the resume
  // deadline), never hang.
  const auto t0 = util::RealClock::instance().now_us();
  util::Status resume = realm.ctrl(2).complete_migration(cli);
  const auto elapsed_ms =
      (util::RealClock::instance().now_us() - t0) / 1000;
  EXPECT_FALSE(resume.ok());
  EXPECT_EQ(resume.code(), util::StatusCode::kTimeout) << resume.to_string();
  EXPECT_LT(elapsed_ms, 6000) << resume.to_string();
  EXPECT_EQ(realm.ctrl(2).resume_retries(), 0u);  // one attempt, no retry

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

/// The SUS handshake dies (peer's control plane unreachable) while the
/// data stream stays healthy. The parameter is ControllerConfig::tolerance.
class UnansweredSuspend : public ::testing::TestWithParam<bool> {};

TEST_P(UnansweredSuspend, RollsBackOnlyUnderTolerance) {
  const bool tolerant = GetParam();
  SimRealm realm(2, /*security=*/false, {}, [tolerant](NodeConfig& config) {
    config.controller.ctrl_response_timeout = 500ms;
    config.controller.tolerance.enabled = tolerant;
    // The partition below is the point of the test: the death detector
    // must not abort the session while it lasts.
    config.controller.tolerance.miss_threshold = 1000;
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

  if (!tolerant) {
    // The paper's fail-safe local suspension: SUSPENDED, stream closed.
    EXPECT_EQ(st.message().find("rolled back"), std::string::npos)
        << st.to_string();
    EXPECT_EQ(conn.client->state(), ConnState::kSuspended);
    EXPECT_FALSE(conn.client->has_stream());
    return;
  }
  // Rolled back to ESTABLISHED; writers unfroze and traffic keeps flowing.
  EXPECT_NE(st.message().find("rolled back"), std::string::npos)
      << st.to_string();
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);
  ASSERT_TRUE(conn.client->send(span("after rollback"), 2s).ok());
  EXPECT_EQ(text(conn.server->recv(2s)->body), "after rollback");
}

INSTANTIATE_TEST_SUITE_P(Tolerance, UnansweredSuspend, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

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

TEST(StalledRepairLoop, HealthyConnectionStillResumes) {
  // Nothing a node's repair loop does (or fails to do) decides whether a
  // RESUME names a live connection: the session table does. So a loop held
  // up for seconds — a heartbeat round to a dead peer, a long repair —
  // must not cost a healthy connection its next resume.
  SimRealm realm(2, /*security=*/false, {}, [](NodeConfig& config) {
    config.controller.tolerance.enabled = true;
    config.controller.resume_timeout = 1s;
  });
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // Each node probes its one session per round, so the first two
  // heartbeats are one per node: each sleeps 3.6 s at its send site,
  // stalling that node's repair loop. Two more heartbeats mean both loops
  // have come back.
  auto plan = fault::Plan::parse("ctrl.heartbeat.pre_send@#1x2:delay:3600");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  fault::Injector& injector = fault::Injector::instance();
  injector.arm(*plan);
  const auto give_up = std::chrono::steady_clock::now() + 15s;
  while (injector.hit_count("ctrl.heartbeat.pre_send") < 4 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(20ms);
  }
  const std::uint64_t heartbeats =
      injector.hit_count("ctrl.heartbeat.pre_send");
  injector.disarm();
  ASSERT_GE(heartbeats, 4u);

  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  const auto t0 = std::chrono::steady_clock::now();
  const util::Status resumed = realm.ctrl(0).resume(conn.client);
  const auto resume_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_TRUE(resumed.ok()) << resumed.to_string() << " after " << resume_ms
                            << " ms";
  ASSERT_TRUE(conn.client->send(span("after the stall"), 2s).ok());
  EXPECT_EQ(text(conn.server->recv(2s)->body), "after the stall");
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
    config.controller.tolerance.enabled = true;
    config.controller.tolerance.probe_interval = 100ms;
    config.controller.tolerance.probe_timeout = 150ms;
    config.controller.tolerance.miss_threshold = 2;
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
  obs::Registry metrics;
  net::ReliableChannel channel(std::move(*dgram), metrics, {}, config);

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

// The mover's four hop commit points (sweep, export, import, complete)
// are one journal fsync each for the whole agent, however many
// connections it carries.
TEST(Recovery, HopIsOneJournalSyncPerMoverCommitPoint) {
  const std::string dir = scratch_dir("syncs");
  fs::create_directories(dir);
  net::SimNet net(/*seed=*/1);
  Realm realm;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "node" + std::to_string(i);
    NodeConfig config;
    config.controller.security = false;
    if (i < 2) {  // the hop's source and destination; the peers' node2 not
      config.controller.durability.enabled = true;
      config.controller.durability.dir = dir + "/" + name;
    }
    realm.add_node(name, net.add_node(name), config);
  }
  ASSERT_TRUE(realm.start().ok());
  SocketController& src = realm.node("node0").controller();
  SocketController& dst = realm.node("node1").controller();
  SocketController& peers = realm.node("node2").controller();
  const agent::AgentId mob("mob");
  const agent::AgentId peer("peer");
  realm.locations().register_agent(
      mob, realm.node("node0").server().node_info());
  realm.locations().register_agent(
      peer, realm.node("node2").server().node_info());
  ASSERT_TRUE(peers.listen(peer).ok());
  constexpr int kConns = 4;
  for (int i = 0; i < kConns; ++i) {
    ASSERT_TRUE(src.connect(mob, peer).ok());
    ASSERT_TRUE(peers.accept(peer, 5s).ok());
  }

  const std::uint64_t src_syncs = src.durable_store()->syncs();
  const std::uint64_t dst_syncs = dst.durable_store()->syncs();
  const std::uint64_t src_records = src.durable_store()->records_written();
  const std::uint64_t dst_records = dst.durable_store()->records_written();
  ASSERT_TRUE(realm.hop(mob, "node0", "node1").ok());
  ASSERT_TRUE(dst.complete_migration(mob).ok());

  EXPECT_EQ(dst.session_count(), static_cast<std::size_t>(kConns));
  // Source: the sweep's suspend commits, then the departures.
  EXPECT_EQ(src.durable_store()->syncs() - src_syncs, 2u);
  EXPECT_EQ(src.durable_store()->records_written() - src_records,
            2u * kConns);
  // Destination: the imports, then the mover's resume commits.
  EXPECT_EQ(dst.durable_store()->syncs() - dst_syncs, 2u);
  EXPECT_EQ(dst.durable_store()->records_written() - dst_records,
            2u * kConns);
  realm.stop();
  fs::remove_all(dir);
}

// The crash window the batching moved: the mover's host dies after its
// sweep's one journal write and before the fsync. The restarted controller
// replays the batch, every connection comes back SUSPENDED, and a second
// hop delivers every message exactly once and in order.
TEST(Recovery, MoverCrashBetweenSweepWriteAndSyncDeliversExactlyOnce) {
  RestartRealm realm(/*recovery=*/true, "mover-sync", /*durable=*/0);
  const agent::AgentId cli("cli");
  const agent::AgentId srv("srv");
  realm.realm_.locations().register_agent(cli, realm.server(0).node_info());
  realm.realm_.locations().register_agent(srv, realm.server(1).node_info());
  ASSERT_TRUE(realm.ctrl(1).listen(srv).ok());

  // Ledger streams: 2i is connection i's forward direction, 2i+1 reverse.
  fault::DeliveryLedger ledger;
  const auto send = [&](Session& session, std::uint64_t stream,
                        const std::string& body) {
    const util::Status st = session.send(span(body), 2s);
    if (st.ok()) ledger.record_sent(stream, span(body));
    return st;
  };
  const auto recv = [&](Session& session, std::uint64_t stream,
                        util::Duration timeout) {
    auto got = session.recv(timeout);
    if (!got.ok()) return got.status();
    ledger.record_delivered(stream, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
    return util::OkStatus();
  };

  constexpr std::uint64_t kConns = 3;
  std::vector<std::uint64_t> conns;
  for (std::uint64_t i = 0; i < kConns; ++i) {
    auto client = realm.ctrl(0).connect(cli, srv);
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    auto server = realm.ctrl(1).accept(srv, 5s);
    ASSERT_TRUE(server.ok()) << server.status().to_string();
    conns.push_back((*client)->conn_id());
    // Forward frames are delivered live; reverse frames stay unread, so
    // the sweep's drain carries them in the journaled blobs.
    for (int j = 0; j < 3; ++j) {
      const std::string tag = std::to_string(i) + "." + std::to_string(j);
      ASSERT_TRUE(send(**client, 2 * i, "f" + tag).ok());
      ASSERT_TRUE(recv(**server, 2 * i, 2s).ok());
      ASSERT_TRUE(send(**server, 2 * i + 1, "r" + tag).ok());
    }
  }
  std::this_thread::sleep_for(30ms);

  // node0 is the only durable node, so its sweep batch is the first hit.
  auto plan = fault::Plan::parse("recovery.journal.sync@#1:kill");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  fault::Injector& injector = fault::Injector::instance();
  injector.arm(*plan);
  const util::Status swept = realm.ctrl(0).prepare_migration(cli);
  const std::uint64_t hits = injector.hit_count("recovery.journal.sync");
  injector.disarm();
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(swept.code(), util::StatusCode::kUnavailable)
      << swept.to_string();

  realm.crash();
  ASSERT_TRUE(realm.restart(cli).ok());
  EXPECT_EQ(realm.ctrl(0).sessions_recovered(), kConns);
  for (const std::uint64_t conn : conns) {
    SessionPtr session = realm.ctrl(0).session_by_id(conn);
    ASSERT_TRUE(session) << conn;
    EXPECT_EQ(session->state(), ConnState::kSuspended);
    EXPECT_EQ(session->buffered_frames(), 3u);  // the drained reverse frames
  }

  ASSERT_TRUE(realm.realm_.hop(cli, "node0", "node2").ok());
  ASSERT_TRUE(realm.ctrl(2).complete_migration(cli).ok());
  for (std::uint64_t i = 0; i < kConns; ++i) {
    SessionPtr client = realm.ctrl(2).session_by_id(conns[i]);
    SessionPtr server = realm.ctrl(1).session_by_id(conns[i]);
    ASSERT_TRUE(client && server);
    ASSERT_TRUE(fault::await_established(*client, 8s).ok());
    ASSERT_TRUE(fault::await_established(*server, 8s).ok());
    while (recv(*client, 2 * i + 1, 500ms).ok()) {
    }
    for (int j = 0; j < 2; ++j) {
      const std::string tag = std::to_string(i) + "." + std::to_string(j);
      ASSERT_TRUE(send(*client, 2 * i, "post" + tag).ok());
      ASSERT_TRUE(recv(*server, 2 * i, 2s).ok());
      ASSERT_TRUE(send(*server, 2 * i + 1, "echo" + tag).ok());
      ASSERT_TRUE(recv(*client, 2 * i + 1, 2s).ok());
    }
  }
  const util::Status balanced = ledger.check(/*require_complete=*/true);
  EXPECT_TRUE(balanced.ok()) << balanced.to_string();
}

}  // namespace
}  // namespace naplet::nsock
