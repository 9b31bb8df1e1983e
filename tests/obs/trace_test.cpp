// Migration-trace tests: sink semantics, deterministic DES-clocked traces,
// and trace-id propagation across a real cross-host migration — including
// the overlapped double migration, where each endpoint's migration is its
// own trace stitched from spans emitted on both hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/test_realm.hpp"
#include "obs/trace.hpp"
#include "sim/des.hpp"
#include "sim/model.hpp"

namespace naplet::obs {
namespace {

using namespace std::chrono_literals;
using naplet::nsock::testing::ConnPair;
using naplet::nsock::testing::make_connection;
using naplet::nsock::testing::SimRealm;
using naplet::nsock::testing::span;

/// Every test owns the process-global sink for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceSink::instance().clear(); }
  void TearDown() override {
    naplet::sim::Simulator::unbind_trace_clock();
    TraceSink::instance().clear();
  }
};

SpanEvent make_event(std::uint64_t id, SpanKind kind,
                     const std::string& host) {
  SpanEvent ev;
  ev.trace_id = id;
  ev.kind = kind;
  ev.conn_id = 7;
  ev.host = host;
  return ev;
}

TEST_F(TraceTest, DropsTraceIdZeroAndGroupsById) {
  auto& sink = TraceSink::instance();
  sink.record(make_event(0, SpanKind::kSuspendSent, "x"));  // no trace open
  EXPECT_TRUE(sink.events().empty());

  sink.record(make_event(1, SpanKind::kSuspendSent, "a"));
  sink.record(make_event(2, SpanKind::kSuspendSent, "b"));
  sink.record(make_event(1, SpanKind::kResumeCommitted, "c"));
  const auto traces = sink.traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].id, 1u);  // ordered by first appearance
  EXPECT_EQ(traces[1].id, 2u);
  EXPECT_EQ(traces[0].spans.size(), 2u);
  EXPECT_TRUE(traces[0].complete());
  EXPECT_FALSE(traces[1].complete());
  const auto completed = sink.completed();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].id, 1u);
}

TEST_F(TraceTest, DesClockMakesTimestampsDeterministic) {
  // Script the paper's single-migration timeline (§5 cost model) onto the
  // DES engine twice; both runs must produce bit-identical span times.
  const naplet::sim::CostModel model;
  auto run_once = [&] {
    TraceSink::instance().clear();
    naplet::sim::Simulator sim;
    sim.bind_trace_clock();
    const double t_sus = model.params().t_suspend_ms;
    const double t_total = model.single_cost();
    const std::vector<std::pair<double, SpanKind>> timeline = {
        {0.0, SpanKind::kSuspendSent},
        {t_sus * 0.5, SpanKind::kDrainComplete},
        {t_sus, SpanKind::kJournalCommit},
        {t_sus + model.params().t_control_ms, SpanKind::kHandoffAccept},
        {t_total, SpanKind::kReplayDone},
        {t_total, SpanKind::kResumeCommitted},
    };
    for (const auto& [t, kind] : timeline) {
      sim.schedule_at(t, [kind] {
        TraceSink::instance().record(make_event(42, kind, "model"));
      });
    }
    sim.run();
    naplet::sim::Simulator::unbind_trace_clock();
    return TraceSink::instance().events();
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 6u);
  ASSERT_EQ(second.size(), 6u);
  // Span timestamps are the scheduled virtual times, exactly.
  EXPECT_DOUBLE_EQ(first[0].t_ms, 0.0);
  EXPECT_DOUBLE_EQ(first[1].t_ms, model.params().t_suspend_ms * 0.5);
  EXPECT_DOUBLE_EQ(first[2].t_ms, model.params().t_suspend_ms);
  EXPECT_DOUBLE_EQ(first[5].t_ms, model.single_cost());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].t_ms, second[i].t_ms) << "span " << i;
    EXPECT_EQ(first[i].kind, second[i].kind) << "span " << i;
  }
}

/// The acceptance trace: one real migration over the simulated network
/// exports a complete trace carrying all six span kinds on a single trace
/// id, with spans contributed by all three hosts, and — with the DES clock
/// bound and advanced only between protocol steps — deterministic
/// timestamps per phase.
TEST_F(TraceTest, SingleMigrationExportsCompleteTrace) {
  naplet::sim::Simulator sim;
  sim.bind_trace_clock();

  SimRealm realm(3, /*security=*/false);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  ASSERT_TRUE(conn.server->send(span("in flight"), 1s).ok());

  // Suspend phase at virtual t=10: prepare blocks until the drain and
  // SUS/SUS_ACK exchange finish, so every suspend-side span lands at 10.
  sim.run_until(10.0);
  ASSERT_TRUE(realm.realm().hop(alice, "node0", "node2").ok());

  // The passive side's drain runs on node1's dispatch thread, concurrent
  // with the export above; wait for its drain-complete span to land before
  // leaving the suspend phase so its timestamp is pinned to t=10 as well.
  const auto passive_drained = [] {
    for (const SpanEvent& ev : TraceSink::instance().events()) {
      if (ev.kind == SpanKind::kDrainComplete && ev.detail == "passive") {
        return true;
      }
    }
    return false;
  };
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!passive_drained() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(passive_drained());

  // Resume phase at virtual t=230 (suspend + the paper's 220 ms agent
  // migration): handoff, replay, and resume-commit spans all land at 230.
  sim.run_until(230.0);
  ASSERT_TRUE(realm.ctrl(2).complete_migration(alice).ok());

  const auto completed = TraceSink::instance().completed();
  ASSERT_EQ(completed.size(), 1u);
  const Trace& trace = completed[0];
  EXPECT_NE(trace.id, 0u);
  for (SpanKind kind :
       {SpanKind::kSuspendSent, SpanKind::kDrainComplete,
        SpanKind::kJournalCommit, SpanKind::kHandoffAccept,
        SpanKind::kReplayDone, SpanKind::kResumeCommitted}) {
    EXPECT_TRUE(trace.has(kind)) << to_string(kind) << "\n" << trace.to_json();
  }

  std::set<std::string> hosts;
  for (const SpanEvent& ev : trace.spans) {
    EXPECT_EQ(ev.trace_id, trace.id);
    hosts.insert(ev.host);
    // Deterministic DES timestamps: suspend-phase spans at exactly 10,
    // resume-phase spans at exactly 230 — never a wall-clock value.
    const bool suspend_phase = ev.kind == SpanKind::kSuspendSent ||
                               ev.kind == SpanKind::kDrainComplete;
    if (suspend_phase) {
      EXPECT_DOUBLE_EQ(ev.t_ms, 10.0) << to_string(ev.kind);
    } else if (ev.kind != SpanKind::kJournalCommit) {
      EXPECT_DOUBLE_EQ(ev.t_ms, 230.0) << to_string(ev.kind);
    } else {
      EXPECT_TRUE(ev.t_ms == 10.0 || ev.t_ms == 230.0) << ev.t_ms;
    }
  }
  // The origin (node0), the stationary peer (node1: redirector accept,
  // receiver-side replay), and the destination (node2) all contributed.
  EXPECT_EQ(hosts, (std::set<std::string>{"node0", "node1", "node2"}))
      << trace.to_json();
}

/// Overlapped double migration: each endpoint mints its own trace id, the
/// two stories interleave in one sink, and each trace stitches spans from
/// both sides of the connection by id alone.
TEST_F(TraceTest, OverlappedDoubleMigrationYieldsTwoStitchedTraces) {
  SimRealm realm(4, /*security=*/true, /*link_latency=*/25ms);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  TraceSink::instance().clear();  // drop the connect-phase noise

  auto move_alice = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(alice, 0, 2);
  });
  auto move_bob = std::async(std::launch::async, [&] {
    return realm.migrate_pseudo_agent(bob, 1, 3);
  });
  ASSERT_TRUE(move_alice.get().ok());
  ASSERT_TRUE(move_bob.get().ok());

  const std::uint64_t conn_id = conn.client->conn_id();
  auto alice_side = realm.ctrl(2).session_by_id(conn_id);
  auto bob_side = realm.ctrl(3).session_by_id(conn_id);
  ASSERT_TRUE(alice_side && bob_side);
  ASSERT_TRUE(alice_side->wait_state(
      [](naplet::nsock::ConnState s) {
        return s == naplet::nsock::ConnState::kEstablished;
      },
      10s));
  ASSERT_TRUE(bob_side->wait_state(
      [](naplet::nsock::ConnState s) {
        return s == naplet::nsock::ConnState::kEstablished;
      },
      10s));

  // Two distinct migrations -> two distinct traces, one per endpoint's
  // suspend (each minted its own id on its own origin host).
  const auto traces = TraceSink::instance().traces();
  std::vector<const Trace*> migrations;
  for (const Trace& trace : traces) {
    if (trace.has(SpanKind::kSuspendSent)) migrations.push_back(&trace);
  }
  ASSERT_EQ(migrations.size(), 2u) << "traces: " << traces.size();
  EXPECT_NE(migrations[0]->id, migrations[1]->id);

  std::set<std::string> origins;
  int complete = 0;
  for (const Trace* trace : migrations) {
    for (const SpanEvent& ev : trace->spans) {
      EXPECT_EQ(ev.trace_id, trace->id);
      if (ev.kind == SpanKind::kSuspendSent) origins.insert(ev.host);
    }
    // Stitching: each migration's trace carries spans from more than one
    // host — the origin's suspend phase plus the journal commits (and, for
    // the winner, the full resume handshake) on the destination side.
    std::set<std::string> hosts;
    for (const SpanEvent& ev : trace->spans) hosts.insert(ev.host);
    EXPECT_GE(hosts.size(), 2u) << trace->to_json();
    if (trace->complete()) ++complete;
  }
  // The two suspends were initiated on the two original hosts.
  EXPECT_EQ(origins, (std::set<std::string>{"node0", "node1"}));
  // Glare resolution: one RESUME exchange re-establishes both ends, so at
  // least the winner's migration commits a resume on its trace.
  EXPECT_GE(complete, 1);
}

TEST_F(TraceTest, SinkIsBoundedAndCountsDrops) {
  auto& sink = TraceSink::instance();
  const std::size_t overfill = 9000;  // kCapacity is 8192
  for (std::size_t i = 0; i < overfill; ++i) {
    sink.record(make_event(1, SpanKind::kNote, "h"));
  }
  EXPECT_LT(sink.events().size(), overfill);
  EXPECT_GE(sink.dropped(), overfill - sink.events().size());
}

}  // namespace
}  // namespace naplet::obs
