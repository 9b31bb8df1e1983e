// Byte-stream adapters over NapletSocket (the paper's Java-stream-like
// interface): buffering writes, boundary-crossing reads, and persistence
// of the unread tail across a migration hop.
#include <gtest/gtest.h>

#include "core/streams.hpp"
#include "core/test_realm.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

struct StreamPair {
  SimRealm realm{2, /*security=*/false};
  std::unique_ptr<NapletSocket> tx;
  std::unique_ptr<NapletSocket> rx;

  StreamPair() {
    auto alice = realm.pseudo_agent("alice", 0);
    auto bob = realm.pseudo_agent("bob", 1);
    ConnPair conn = make_connection(realm, alice, 0, bob, 1);
    tx = std::make_unique<NapletSocket>(realm.ctrl(0), conn.client);
    rx = std::make_unique<NapletSocket>(realm.ctrl(1), conn.server);
  }
};

TEST(Streams, WriteBuffersUntilFlush) {
  StreamPair pair;
  NapletOutputStream out;
  out.bind(pair.tx.get());

  ASSERT_TRUE(out.write("hello ").ok());
  ASSERT_TRUE(out.write("world").ok());
  EXPECT_EQ(out.buffered(), 11u);
  // Nothing sent yet.
  EXPECT_FALSE(pair.rx->recv(50ms).ok());

  ASSERT_TRUE(out.flush().ok());
  EXPECT_EQ(out.buffered(), 0u);
  auto got = pair.rx->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(text(got->body), "hello world");
}

TEST(Streams, AutoFlushAtThreshold) {
  StreamPair pair;
  NapletOutputStream out(/*flush_threshold=*/16);
  out.bind(pair.tx.get());
  ASSERT_TRUE(out.write(std::string(20, 'x')).ok());  // crosses threshold
  EXPECT_EQ(out.buffered(), 0u);
  auto got = pair.rx->recv(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->body.size(), 20u);
}

TEST(Streams, FlushEmptyIsNoop) {
  StreamPair pair;
  NapletOutputStream out;
  out.bind(pair.tx.get());
  EXPECT_TRUE(out.flush().ok());
  EXPECT_FALSE(pair.rx->recv(50ms).ok());
}

TEST(Streams, UnboundStreamsFailCleanly) {
  NapletOutputStream out;
  EXPECT_TRUE(out.write("buffered fine").ok());
  EXPECT_EQ(out.flush().code(), util::StatusCode::kFailedPrecondition);

  NapletInputStream in;
  std::uint8_t buf[4];
  EXPECT_EQ(in.read(buf, 4, 10ms).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(Streams, ReadAcrossMessageBoundaries) {
  StreamPair pair;
  ASSERT_TRUE(pair.tx->send(std::string_view("abcdef")).ok());
  ASSERT_TRUE(pair.tx->send(std::string_view("ghij")).ok());

  NapletInputStream in;
  in.bind(pair.rx.get());

  std::uint8_t buf[4];
  auto n1 = in.read(buf, 4, 1s);
  ASSERT_TRUE(n1.ok());
  EXPECT_EQ(*n1, 4u);
  EXPECT_EQ(std::string(buf, buf + 4), "abcd");
  EXPECT_EQ(in.buffered(), 2u);  // "ef" held

  auto n2 = in.read(buf, 4, 1s);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 2u);  // tail served without blocking
  EXPECT_EQ(std::string(buf, buf + 2), "ef");

  ASSERT_TRUE(in.read_exact(buf, 4, 1s).ok());
  EXPECT_EQ(std::string(buf, buf + 4), "ghij");
}

TEST(Streams, ReadExactTimesOutOnShortData) {
  StreamPair pair;
  ASSERT_TRUE(pair.tx->send(std::string_view("ab")).ok());
  NapletInputStream in;
  in.bind(pair.rx.get());
  std::uint8_t buf[8];
  auto st = in.read_exact(buf, 8, 150ms);
  EXPECT_EQ(st.code(), util::StatusCode::kTimeout);
}

TEST(Streams, TailPersistsAcrossReconstruction) {
  StreamPair pair;
  ASSERT_TRUE(pair.tx->send(std::string_view("0123456789")).ok());

  NapletInputStream in;
  in.bind(pair.rx.get());
  std::uint8_t buf[4];
  ASSERT_TRUE(in.read_exact(buf, 4, 1s).ok());  // "0123"; tail "456789"
  EXPECT_EQ(in.buffered(), 6u);

  // Simulate a hop: persist the adapter, rebuild it, rebind.
  util::Archive w;
  in.persist(w);
  util::Bytes blob = std::move(w).take_bytes();

  NapletInputStream restored;
  util::Archive r((util::ByteSpan(blob.data(), blob.size())));
  restored.persist(r);
  ASSERT_TRUE(r.ok());
  restored.bind(pair.rx.get());
  EXPECT_EQ(restored.buffered(), 6u);

  std::uint8_t rest[6];
  ASSERT_TRUE(restored.read_exact(rest, 6, 1s).ok());
  EXPECT_EQ(std::string(rest, rest + 6), "456789");
}

TEST(Streams, PersistCarriesOnlyUnreadTail) {
  // A migrating agent must not ship bytes it already consumed: the persist
  // blob holds the unread suffix of the tail, not the whole last message.
  StreamPair pair;
  std::string msg(1000, 'A');
  msg += "tail";
  ASSERT_TRUE(pair.tx->send(std::string_view(msg)).ok());

  NapletInputStream in;
  in.bind(pair.rx.get());
  std::uint8_t consumed[1000];
  ASSERT_TRUE(in.read_exact(consumed, sizeof consumed, 1s).ok());
  EXPECT_EQ(in.buffered(), 4u);  // "tail"

  util::Archive w;
  in.persist(w);
  util::Bytes blob = std::move(w).take_bytes();
  // 4 unread bytes + fixed framing overhead — nowhere near the 1004-byte
  // message that was mostly consumed.
  EXPECT_LT(blob.size(), 64u);

  NapletInputStream restored;
  util::Archive r((util::ByteSpan(blob.data(), blob.size())));
  restored.persist(r);
  ASSERT_TRUE(r.ok());
  restored.bind(pair.rx.get());
  EXPECT_EQ(restored.buffered(), 4u);
  std::uint8_t rest[4];
  ASSERT_TRUE(restored.read_exact(rest, 4, 1s).ok());
  EXPECT_EQ(std::string(rest, rest + 4), "tail");
}

TEST(Streams, OutputPersistCarriesUnflushed) {
  NapletOutputStream out(4096);
  ASSERT_TRUE(out.write("keep me").ok());
  util::Archive w;
  out.persist(w);
  util::Bytes blob = std::move(w).take_bytes();

  NapletOutputStream restored;
  util::Archive r((util::ByteSpan(blob.data(), blob.size())));
  restored.persist(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.buffered(), 7u);
}

TEST(Streams, RoundTripLargePayloadInSmallReads) {
  StreamPair pair;
  std::string big(10000, '?');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  NapletOutputStream out(/*flush_threshold=*/1024);
  out.bind(pair.tx.get());
  ASSERT_TRUE(out.write(big).ok());
  ASSERT_TRUE(out.flush().ok());

  NapletInputStream in;
  in.bind(pair.rx.get());
  std::string received(big.size(), 0);
  ASSERT_TRUE(in.read_exact(reinterpret_cast<std::uint8_t*>(received.data()),
                            received.size(), 5s)
                  .ok());
  EXPECT_EQ(received, big);
}

TEST(ControllerStatsTest, SnapshotReflectsSessions) {
  SimRealm realm(2, /*security=*/true);
  auto alice = realm.pseudo_agent("alice", 0);
  auto bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);

  ControllerStats stats = realm.ctrl(0).stats();
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.by_state[static_cast<std::size_t>(ConnState::kEstablished)],
            1u);
  EXPECT_EQ(stats.migrating_agents, 0u);
  EXPECT_GT(realm.server(0).bus().channel().messages_sent(), 0u);
  EXPECT_FALSE(stats.to_string().empty());

  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());
  stats = realm.ctrl(0).stats();
  EXPECT_EQ(stats.by_state[static_cast<std::size_t>(ConnState::kSuspended)],
            1u);

  ASSERT_TRUE(realm.ctrl(1).listen(bob).code() ==
              util::StatusCode::kAlreadyExists);
  EXPECT_EQ(realm.ctrl(1).stats().listening_agents, 1u);
}

}  // namespace
}  // namespace naplet::nsock
