// Satellite scenario: a suspend/resume cycle whose suspend handshake
// starts while the client<->server link is partitioned. The partition
// heals mid-handshake; the rudp layer's capped backoff must carry the
// SUSPEND exchange across the heal, the migration then proceeds, and the
// frames buffered by the suspend drain must be replayed exactly once —
// judged by the delivery ledger, not by eyeballing.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/test_realm.hpp"
#include "fault/oracle.hpp"

namespace naplet::nsock::testing {
namespace {

TEST(PartitionHealTest, SuspendSurvivesPartitionHealingMidHandshake) {
  SimRealm realm(3, /*security=*/false, /*link_latency=*/1ms,
                 [](NodeConfig& config) {
                   config.server.rudp_config.retransmit_interval = 15ms;
                   config.server.rudp_config.max_attempts = 40;
                   config.server.rudp_config.jitter_seed = 77;
                 });
  const auto cli = realm.pseudo_agent("heal-cli", 0);
  const auto srv = realm.pseudo_agent("heal-srv", 1);
  auto conn = make_connection(realm, cli, 0, srv, 1);
  ASSERT_TRUE(conn.client && conn.server);
  const std::uint64_t conn_id = conn.client->conn_id();

  fault::DeliveryLedger ledger;
  constexpr std::uint64_t kRev = 1;

  // Three reverse messages left undrained: they must ride the suspension
  // buffer across the partition and the hop.
  for (int i = 0; i < 3; ++i) {
    const std::string body = "buffered" + std::to_string(i);
    ASSERT_TRUE(conn.server->send(span(body), 2s).ok());
    ledger.record_sent(kRev, span(body));
  }
  std::this_thread::sleep_for(30ms);  // let them reach the client's stream

  realm.net().set_partition("node0", "node1", true);

  // Heal the partition squarely inside the suspend handshake's retry
  // window: the first SUS datagrams die in the partition, the backed-off
  // retransmits land after the heal.
  std::thread healer([&realm] {
    std::this_thread::sleep_for(120ms);
    realm.net().set_partition("node0", "node1", false);
  });

  const auto hopped = realm.realm().hop(cli, "node0", "node2");
  healer.join();
  ASSERT_TRUE(hopped.ok()) << hopped.to_string();
  ASSERT_TRUE(realm.ctrl(2).complete_migration(cli).ok());

  SessionPtr client2 = realm.ctrl(2).session_by_id(conn_id);
  ASSERT_TRUE(client2);
  ASSERT_TRUE(fault::await_established(*client2, 8s).ok());
  ASSERT_TRUE(fault::await_established(*conn.server, 8s).ok());

  // The partition must actually have cost datagrams, and the heal must
  // leave no partition standing — straight off the fabric counters.
  const auto counters = realm.net().counters();
  EXPECT_GT(counters.datagrams_dropped, 0u);
  EXPECT_EQ(counters.partition_events, 1u);
  EXPECT_EQ(counters.partitions_active, 0u);

  // Exactly-once replay of the buffered frames, in order, then live
  // traffic both ways on the resumed connection.
  int from_buffer = 0;
  for (int i = 0; i < 3; ++i) {
    auto got = client2->recv(2s);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    from_buffer += got->from_buffer ? 1 : 0;
    ledger.record_delivered(kRev, got->seq,
                            util::ByteSpan(got->body.data(),
                                           got->body.size()));
  }
  EXPECT_GE(from_buffer, 1);
  // No fourth frame may appear: that would be a duplicate replay.
  EXPECT_FALSE(client2->recv(300ms).ok());

  const std::string post = "post-heal";
  ASSERT_TRUE(conn.server->send(span(post), 2s).ok());
  ledger.record_sent(kRev, span(post));
  auto got = client2->recv(2s);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ledger.record_delivered(kRev, got->seq,
                          util::ByteSpan(got->body.data(), got->body.size()));
  ASSERT_TRUE(client2->send(span("fwd-ok"), 2s).ok());
  ASSERT_TRUE(conn.server->recv(2s).ok());

  const auto verdict = ledger.check(/*require_complete=*/true);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

}  // namespace
}  // namespace naplet::nsock::testing
