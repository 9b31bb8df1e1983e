// The session's one wait point: a suspend round takes only its own reply,
// and a parked suspend ends with its session.
//
// StaleReply: the peer answers two copies of round 1's SUS (a duplicated
// send, or a resend past a slow handler). The second SUS_ACK carries round
// 1's mark; if round 2 took it, the initiator would drain to that old mark
// and close a stream that still holds the peer's frames.
//
// ParkRelease: both ends suspend at once, so the low-priority end gets
// ACK_WAIT and parks in SUSPEND_WAIT. Nothing sends the SUS_RES that would
// release it; a peer close, a local abort or a controller stop must.
//
// EarlyRelease: the peer's SUS_RES lands while the local suspend is still
// on its way to the park (held there by `session.suspend.park`). The park
// must apply it at once instead of waiting out the 30 s park timeout.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <ostream>
#include <thread>

#include "core/test_realm.hpp"
#include "fault/fault.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

struct StalePlan {
  const char* name;
  const char* plan;
};

void PrintTo(const StalePlan& plan, std::ostream* os) { *os << plan.plan; }

class StaleReply : public ::testing::TestWithParam<StalePlan> {
 protected:
  void TearDown() override { fault::Injector::instance().disarm(); }
};

TEST_P(StaleReply, SecondRoundDrainsToItsOwnMark) {
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  SocketController& ctrl = realm.ctrl(0);

  auto plan = fault::Plan::parse(GetParam().plan);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  fault::Injector::instance().arm(*plan);
  ASSERT_TRUE(ctrl.suspend(conn.client).ok());
  auto resumed = ctrl.resume(conn.client);
  ASSERT_TRUE(resumed.ok()) << resumed.to_string();
  fault::Injector::instance().disarm();

  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(conn.server->send(span("frame " + std::to_string(i)), 2s).ok());
  }

  auto suspended = ctrl.suspend(conn.client);
  ASSERT_TRUE(suspended.ok()) << suspended.to_string();
  resumed = ctrl.resume(conn.client);
  ASSERT_TRUE(resumed.ok()) << resumed.to_string();

  for (int i = 0; i < kFrames; ++i) {
    auto got = conn.client->recv(2s);
    ASSERT_TRUE(got.ok()) << "frame " << i << ": "
                          << got.status().to_string();
    EXPECT_EQ(text(got->body), "frame " + std::to_string(i));
  }
  EXPECT_FALSE(conn.client->recv(50ms).ok()) << "a frame arrived twice";
}

INSTANTIATE_TEST_SUITE_P(
    Plans, StaleReply,
    ::testing::Values(
        StalePlan{"DuplicatedSus", "ctrl.suspend.pre_send@#1:dup"},
        StalePlan{"SlowFirstHandler", "ctrl.suspend.on_recv@#1:delay:1500"}),
    [](const ::testing::TestParamInfo<StalePlan>& info) {
      return std::string(info.param.name);
    });

enum class Release { kPeerClose, kAbort, kStop };

class ParkRelease : public ::testing::TestWithParam<Release> {};

TEST_P(ParkRelease, ParkedSuspendEndsWithItsSession) {
  // 25 ms control latency makes the two SUS requests cross.
  SimRealm realm(2, /*security=*/false, /*link_latency=*/25ms);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  const bool alice_wins = alice.outranks(bob);
  const int winner_node = alice_wins ? 0 : 1;
  const int loser_node = alice_wins ? 1 : 0;
  SessionPtr winner = alice_wins ? conn.client : conn.server;
  SessionPtr loser = alice_wins ? conn.server : conn.client;

  auto winner_done = std::async(std::launch::async, [&] {
    return realm.ctrl(winner_node).suspend(winner);
  });
  auto loser_done = std::async(std::launch::async, [&] {
    return realm.ctrl(loser_node).suspend(loser);
  });
  ASSERT_TRUE(winner_done.get().ok());
  ASSERT_TRUE(loser->wait_state(
      [](ConnState s) { return s == ConnState::kSuspendWait; }, 5s))
      << "the low-priority end never parked";
  ASSERT_EQ(loser_done.wait_for(200ms), std::future_status::timeout)
      << "nothing has released the parked suspend yet";

  switch (GetParam()) {
    case Release::kPeerClose:
      ASSERT_TRUE(realm.ctrl(winner_node).close(winner).ok());
      break;
    case Release::kAbort:
      realm.ctrl(loser_node).abort(loser);
      break;
    case Release::kStop:
      realm.ctrl(loser_node).stop();
      break;
  }
  // Well inside the 30 s park timeout.
  ASSERT_EQ(loser_done.wait_for(5s), std::future_status::ready);
  const util::Status status = loser_done.get();
  EXPECT_NE(status.code(), util::StatusCode::kTimeout) << status.to_string();
  EXPECT_EQ(loser->state(), ConnState::kClosed);
}

INSTANTIATE_TEST_SUITE_P(
    Releases, ParkRelease,
    ::testing::Values(Release::kPeerClose, Release::kAbort, Release::kStop),
    [](const ::testing::TestParamInfo<Release>& info) {
      switch (info.param) {
        case Release::kPeerClose: return std::string("PeerClose");
        case Release::kAbort: return std::string("Abort");
        case Release::kStop: return std::string("Stop");
      }
      return std::string("Unknown");
    });

class EarlyRelease : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::instance().disarm(); }

  static void hold_parks() {
    auto plan = fault::Plan::parse("session.suspend.park@#1:delay:1000");
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    fault::Injector::instance().arm(*plan);
  }
  static std::uint64_t parks() {
    return fault::Injector::instance().hit_count("session.suspend.park");
  }
};

TEST_F(EarlyRelease, OverlappedLoserTakesSusResBeforeItParks) {
  // Paper Fig. 4(a): the two SUS requests cross (25 ms control latency);
  // the low-priority end gets ACK_WAIT, and the winner hops and sends its
  // SUS_RES while the loser is still held before its park.
  SimRealm realm(4, /*security=*/false, /*link_latency=*/25ms);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  const std::uint64_t conn_id = conn.client->conn_id();
  const bool alice_wins = alice.outranks(bob);
  SessionPtr loser = alice_wins ? conn.server : conn.client;

  hold_parks();
  auto move_alice = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(alice, 0, 2);
  });
  auto move_bob = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(bob, 1, 3);
  });
  auto& winner_move = alice_wins ? move_alice : move_bob;
  auto& loser_move = alice_wins ? move_bob : move_alice;
  ASSERT_EQ(winner_move.wait_for(5s), std::future_status::ready);
  ASSERT_TRUE(winner_move.get().ok());
  ASSERT_EQ(parks(), 1u);
  ASSERT_EQ(loser->state(), ConnState::kSusSent)
      << "the SUS_RES must land before the loser parks";

  ASSERT_EQ(loser_move.wait_for(10s), std::future_status::ready)
      << "the early SUS_RES was lost: the park waits for another";
  const util::Status moved = loser_move.get();
  ASSERT_TRUE(moved.ok()) << moved.to_string();

  SessionPtr alice_side = realm.ctrl(2).session_by_id(conn_id);
  SessionPtr bob_side = realm.ctrl(3).session_by_id(conn_id);
  ASSERT_TRUE(alice_side && bob_side);
  ASSERT_TRUE(alice_side->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
  ASSERT_TRUE(bob_side->wait_state(
      [](ConnState s) { return s == ConnState::kEstablished; }, 10s));
  ASSERT_TRUE(alice_side->send(span("after both hops"), 2s).ok());
  auto got = bob_side->recv(2s);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(text(got->body), "after both hops");
}

}  // namespace
}  // namespace naplet::nsock
