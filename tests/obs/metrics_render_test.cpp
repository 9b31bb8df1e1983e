// Pins the invariant stats.cpp relies on: ControllerStats::to_string()
// renders the registry snapshot generically, so EVERY metric registered on
// the node appears in the rendered stats by name — a new instrument can
// never be silently missing from the diagnostic output. Also pins that the
// node has one registry, which the channel accessors read.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/test_realm.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;
using namespace std::chrono_literals;

TEST(MetricsRender, EveryRegisteredMetricAppearsInStats) {
  SimRealm realm(2, /*security=*/true);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  // One suspend/resume round so the migration histograms are non-empty.
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());

  const ControllerStats stats = realm.ctrl(0).stats();
  const std::string rendered = stats.to_string();

  EXPECT_FALSE(stats.metrics.counters.empty());
  EXPECT_FALSE(stats.metrics.gauges.empty());
  EXPECT_FALSE(stats.metrics.histograms.empty());
  for (const auto& c : stats.metrics.counters) {
    EXPECT_NE(rendered.find(c.name), std::string::npos)
        << "counter " << c.name << " missing from:\n" << rendered;
  }
  for (const auto& g : stats.metrics.gauges) {
    EXPECT_NE(rendered.find(g.name), std::string::npos)
        << "gauge " << g.name << " missing from:\n" << rendered;
  }
  for (const auto& h : stats.metrics.histograms) {
    EXPECT_NE(rendered.find(h.name), std::string::npos)
        << "histogram " << h.name << " missing from:\n" << rendered;
  }

  // Spot-check the instruments the migration should have populated.
  const auto* suspend = stats.metrics.histogram("nsock_suspend_latency_us");
  ASSERT_NE(suspend, nullptr);
  EXPECT_GE(suspend->count, 1u);
  const auto* resume = stats.metrics.histogram("nsock_resume_latency_us");
  ASSERT_NE(resume, nullptr);
  EXPECT_GE(resume->count, 1u);
  const auto* connect = stats.metrics.histogram("nsock_connect_total_us");
  ASSERT_NE(connect, nullptr);
  EXPECT_GE(connect->count, 1u);
  const auto* rtt = stats.metrics.histogram("rudp_rtt_us");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GE(rtt->count, 1u);
  EXPECT_GE(stats.metrics.gauge("sessions")->value, 1);
}

TEST(MetricsRender, OneRegistryPerNodeBacksEveryCounter) {
  SimRealm realm(2, /*security=*/true);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());

  for (int i = 0; i < 2; ++i) {
    SocketController& ctrl = realm.ctrl(i);
    EXPECT_EQ(&ctrl.metrics(), &realm.server(i).metrics());
    const net::ReliableChannel& channel = realm.server(i).bus().channel();

    // Every packet the round sent is acknowledged: the window drains.
    obs::Snapshot snap = ctrl.metrics().snapshot();
    for (int tries = 0; tries < 200; ++tries) {
      if (snap.gauge("rudp_window_inflight")->value == 0) break;
      std::this_thread::sleep_for(10ms);
      snap = ctrl.metrics().snapshot();
    }
    EXPECT_EQ(snap.gauge("rudp_window_inflight")->value, 0);

    // The channel's accessors read the same instruments the snapshot does.
    EXPECT_GT(snap.counter("rudp_messages_sent")->value, 0u);
    EXPECT_EQ(snap.counter("rudp_messages_sent")->value,
              channel.messages_sent());
    EXPECT_EQ(snap.counter("rudp_retransmissions")->value,
              channel.retransmissions());
    EXPECT_EQ(snap.counter("rudp_duplicates_dropped")->value,
              channel.duplicates_dropped());

    // The epoch lives there too.
    EXPECT_EQ(snap.gauge("epoch")->value, 1);
  }
}

}  // namespace
}  // namespace naplet::nsock
