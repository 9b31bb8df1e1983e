// Sharded session table tests (DESIGN.md §15): the affinity invariants of
// SessionShardMap, and the controller-level regressions over it — a
// blocked recv woken by delivery, and a delivery burst waking receivers
// whose sessions sit in different shards.
#include "core/session_shards.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/test_realm.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace naplet {
namespace {

using namespace std::chrono_literals;
using nsock::testing::SimRealm;
using nsock::testing::span;
using nsock::testing::text;

nsock::SessionPtr make_session(std::uint64_t conn_id, const std::string& local,
                               const std::string& peer, bool initiator) {
  return std::make_shared<nsock::Session>(conn_id, 1, initiator,
                                          agent::AgentId(local),
                                          agent::AgentId(peer));
}

TEST(SessionShard, BothEndpointsOfAConnShareAShard) {
  nsock::SessionShardMap map(16);
  // Same conn_id, two local endpoints (loopback connection): the shard is
  // keyed on conn_id alone, so the pair must land together — that is what
  // keeps find_from's sole-match check shard-local.
  map.insert(make_session(42, "alice", "bob", true));
  map.insert(make_session(42, "bob", "alice", false));
  const std::vector<std::size_t> sizes = map.shard_sizes();
  std::size_t occupied = 0;
  for (std::size_t s : sizes) {
    if (s > 0) {
      ++occupied;
      EXPECT_EQ(s, 2u);
    }
  }
  EXPECT_EQ(occupied, 1u);

  EXPECT_EQ(map.find_from(42, ""), nullptr);  // ambiguous: two endpoints
  map.erase(42, "alice");
  EXPECT_NE(map.find_from(42, ""), nullptr);  // bob's endpoint remains
  map.erase(42, "bob");
  EXPECT_EQ(map.size(), 0u);
}

TEST(SessionShard, LookupsAndAgentViews) {
  nsock::SessionShardMap map(8);
  map.insert(make_session(1, "alice", "bob", true));
  map.insert(make_session(2, "alice", "carol", true));
  map.insert(make_session(3, "dave", "alice", false));

  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(map.find(2)->conn_id(), 2u);
  EXPECT_EQ(map.find(99), nullptr);
  EXPECT_TRUE(map.contains_conn(3));

  ASSERT_NE(map.find_from(3, "alice"), nullptr);  // matched by sender
  EXPECT_EQ(map.find_from(3, "alice")->local_agent().name(), "dave");

  EXPECT_EQ(map.of_agent(agent::AgentId("alice")).size(), 2u);
  EXPECT_EQ(map.size(), 3u);
  const auto moved = map.extract_agent(agent::AgentId("alice"));
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SessionShard, HashSpreadsAcrossShards) {
  nsock::SessionShardMap map(16);
  const int kSessions = 4096;
  util::Rng rng(7);
  for (int i = 0; i < kSessions; ++i) {
    map.insert(make_session(rng.next_u64() | 1, "a" + std::to_string(i),
                            "peer", true));
  }
  const std::vector<std::size_t> sizes = map.shard_sizes();
  ASSERT_EQ(sizes.size(), 16u);
  const double mean = static_cast<double>(map.size()) / 16.0;
  for (std::size_t s : sizes) {
    EXPECT_GT(s, 0u);
    EXPECT_LT(static_cast<double>(s), 2.0 * mean);
  }
}

// ---- controller over the sharded table ----

TEST(ShardedController, BlockedRecvWokenByDelivery) {
  // A receiver already parked inside recv() must be woken by the arriving
  // data, not left to time out.
  SimRealm realm(2, /*security=*/true);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  auto conn = nsock::testing::make_connection(realm, alice, 0, bob, 1);
  ASSERT_NE(conn.client, nullptr);
  ASSERT_NE(conn.server, nullptr);

  util::Event receiver_parked;
  util::StatusOr<nsock::RecvResult> got = util::Cancelled("not run");
  std::thread receiver([&] {
    receiver_parked.set();
    got = conn.server->recv(5s);
  });
  ASSERT_TRUE(receiver_parked.wait_for(2s));
  util::RealClock::instance().sleep_for(50ms);  // ensure recv() is parked
  ASSERT_TRUE(conn.client->send(span("wake up"), 2s).ok());
  receiver.join();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(text(got->body), "wake up");
}

TEST(ShardedController, CrossShardWakeups) {
  // Several connections hash into different shards of one controller; a
  // single burst of deliveries must wake every blocked receiver, however
  // the sessions are spread across shard locks.
  SimRealm realm(2, /*security=*/false);
  auto bob = realm.pseudo_agent("bob", 1);
  ASSERT_TRUE(realm.ctrl(1).listen(bob).ok());

  constexpr int kConns = 24;
  std::vector<nsock::SessionPtr> clients, servers;
  for (int i = 0; i < kConns; ++i) {
    auto cli = realm.pseudo_agent("cli" + std::to_string(i), 0);
    auto c = realm.ctrl(0).connect(cli, bob);
    ASSERT_TRUE(c.ok()) << c.status().to_string();
    auto s = realm.ctrl(1).accept(bob, 5s);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    clients.push_back(*c);
    servers.push_back(*s);
  }
  // The table must actually be sharded (occupancy visible per shard).
  const auto shard_sizes = realm.ctrl(0).stats().shard_sessions;
  ASSERT_FALSE(shard_sizes.empty());
  std::size_t occupied = 0, total = 0;
  for (std::size_t s : shard_sizes) {
    occupied += (s > 0) ? 1 : 0;
    total += s;
  }
  EXPECT_GT(occupied, 1u);  // 24 random conn ids: >1 shard occupied
  EXPECT_EQ(total, realm.ctrl(0).session_count());

  std::atomic<int> received{0};
  std::vector<std::thread> receivers;
  receivers.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    receivers.emplace_back([&, i] {
      auto got = servers[static_cast<std::size_t>(i)]->recv(5s);
      if (got.ok() && text(got->body) == "burst") received.fetch_add(1);
    });
  }
  util::RealClock::instance().sleep_for(50ms);  // park all receivers
  for (int i = 0; i < kConns; ++i) {
    ASSERT_TRUE(clients[static_cast<std::size_t>(i)]->send(span("burst"), 2s)
                    .ok());
  }
  for (auto& t : receivers) t.join();
  EXPECT_EQ(received.load(), kConns);
}

}  // namespace
}  // namespace naplet
