// Flight-recorder tests: ring wrap, dump decoding,
// the live-recorder directory, and the abort-path guarantee — dumping a
// full ring on abort_session happens outside the session mutex, so blocked
// waiters still wake within the existing <2s bound (no death test needed:
// the abort completes normally).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/test_realm.hpp"
#include "obs/recorder.hpp"

namespace naplet::obs {
namespace {

using namespace std::chrono_literals;
using naplet::nsock::testing::ConnPair;
using naplet::nsock::testing::make_connection;
using naplet::nsock::testing::SimRealm;

TEST(FlightRecorder, RingWrapKeepsNewestOldestFirst) {
  FlightRecorder rec("wrap", /*capacity=*/8);
  for (std::uint8_t i = 0; i < 20; ++i) {
    rec.record(FlightRecorder::Kind::kNote, i, 0, 0);
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.capacity(), 8u);
  const auto entries = rec.entries();
  ASSERT_EQ(entries.size(), 8u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, 12u + i);  // oldest surviving ordinal first
    EXPECT_EQ(entries[i].a, 12 + i);
    EXPECT_EQ(entries[i].kind, FlightRecorder::Kind::kNote);
  }
}

TEST(FlightRecorder, DumpDecodesKindsAndLabels) {
  FlightRecorder rec("decode-me", 8);
  rec.record(FlightRecorder::Kind::kNote, 1, 2, 3);
  const std::string dump = rec.dump();
  EXPECT_NE(dump.find("decode-me"), std::string::npos) << dump;
  EXPECT_NE(dump.find("note 1/2/3"), std::string::npos) << dump;

  // dump_all covers every live recorder via the directory.
  FlightRecorder other("also-live", 8);
  other.record(FlightRecorder::Kind::kNote, 4, 5, 6);
  const std::string all = dump_all();
  EXPECT_NE(all.find("decode-me"), std::string::npos);
  EXPECT_NE(all.find("also-live"), std::string::npos);
}

// Labels of this test's recorders that dump_all lists, in listed order.
std::vector<std::string> listed_churn_labels() {
  const std::string all = dump_all();
  const std::string tag = "flight recorder [";
  std::vector<std::string> out;
  for (std::size_t at = all.find(tag + "churn-"); at != std::string::npos;
       at = all.find(tag + "churn-", at + 1)) {
    const std::size_t begin = at + tag.size();
    out.push_back(all.substr(begin, all.find(']', begin) - begin));
  }
  return out;
}

// Recorders unregister in any order, from the ends and the middle of the
// directory, and dump_all lists exactly the survivors in creation order.
TEST(FlightRecorder, DirectoryTracksInterleavedCreateAndDestroy) {
  std::vector<std::unique_ptr<FlightRecorder>> recs;
  const auto survivors = [&] {
    std::vector<std::string> out;
    for (const auto& rec : recs) {
      if (rec) out.push_back(rec->label());
    }
    return out;
  };
  const auto add = [&](int count) {
    for (int i = 0; i < count; ++i) {
      recs.push_back(std::make_unique<FlightRecorder>(
          "churn-" + std::to_string(recs.size()), 4));
    }
  };

  add(32);
  EXPECT_EQ(listed_churn_labels(), survivors());
  for (std::size_t i = 1; i < recs.size(); i += 2) recs[i].reset();  // odd
  recs.front().reset();
  EXPECT_EQ(listed_churn_labels(), survivors());
  add(8);
  recs.back().reset();
  recs[30].reset();
  for (std::size_t i = 4; i < recs.size(); i += 6) recs[i].reset();
  EXPECT_EQ(listed_churn_labels(), survivors());
  // Destroy the rest newest-first but for one in the middle.
  for (std::size_t i = recs.size(); i-- > 0;) {
    if (i != 20) recs[i].reset();
  }
  EXPECT_EQ(listed_churn_labels(), (std::vector<std::string>{"churn-20"}));
  recs[20].reset();
  EXPECT_TRUE(listed_churn_labels().empty());
  add(2);
  EXPECT_EQ(listed_churn_labels(), survivors());
}

TEST(FlightRecorder, SessionFsmTransitionsAreRecordedAndNamed) {
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // The handshake alone drives several FSM arcs and ctrl messages.
  EXPECT_GT(conn.client->recorder().recorded(), 0u);
  const std::string dump = conn.client->recorder().dump();
  // Namers are installed by the core layer, so states decode to names.
  EXPECT_NE(dump.find("ESTABLISHED"), std::string::npos) << dump;
  EXPECT_NE(dump.find("fsm "), std::string::npos) << dump;
}

TEST(FlightRecorder, AbortWithFullRingWakesWaitersQuickly) {
  SimRealm realm(2, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);

  // Saturate the ring well past capacity: the abort-path dump must still
  // be O(capacity) and, critically, run with no session lock held.
  auto& rec = conn.client->recorder();
  for (std::size_t i = 0; i < rec.capacity() * 10; ++i) {
    rec.record(FlightRecorder::Kind::kNote, 7, 7, 7);
  }
  ASSERT_GE(rec.recorded(), rec.capacity() * 10);

  util::Status recv_status = util::OkStatus();
  std::thread reader([&] {
    auto got = conn.client->recv(30s);
    recv_status = got.status();
  });
  std::this_thread::sleep_for(100ms);

  const auto t0 = util::RealClock::instance().now_us();
  realm.ctrl(0).abort(realm.ctrl(0).session_by_id(conn.client->conn_id()));
  reader.join();
  const auto woke_ms = (util::RealClock::instance().now_us() - t0) / 1000;

  EXPECT_EQ(recv_status.code(), util::StatusCode::kAborted)
      << recv_status.to_string();
  EXPECT_LT(woke_ms, 2000);  // woke on the abort, not the 30s deadline
  EXPECT_EQ(conn.client->state(), naplet::nsock::ConnState::kClosed);
}

}  // namespace
}  // namespace naplet::obs
