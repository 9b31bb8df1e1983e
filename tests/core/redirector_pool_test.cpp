// The redirector's fixed handoff pool: silent clients cannot hold it, the
// thread count does not grow with the handoff count, a malformed first
// frame is a bad handoff, and stop() does not wait out queued streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <vector>

#include "core/redirector.hpp"
#include "core/test_realm.hpp"
#include "net/frame.hpp"

namespace naplet::nsock {
namespace {

using namespace naplet::nsock::testing;

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// The thread count once threads that earlier tests joined have left
/// /proc (a joined thread can still be listed for a moment).
std::size_t settled_thread_count() {
  std::size_t last = thread_count();
  for (int stable = 0, i = 0; stable < 3 && i < 100; ++i) {
    std::this_thread::sleep_for(10ms);
    const std::size_t now = thread_count();
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  return last;
}

/// A redirector on its own SimNet node whose handler answers every handoff
/// with ATTACH_OK and closes the stream, noting the process's thread count
/// while the handoff is being served.
class RedirectorPool : public ::testing::Test {
 protected:
  RedirectorPool()
      : server_node_(world_.add_node("server")),
        client_node_(world_.add_node("client")) {
    redirector_ = std::make_unique<Redirector>(
        *server_node_, 0,
        [this](std::shared_ptr<net::Stream> stream, HandoffMsg msg) {
          handled_.fetch_add(1);
          const std::size_t now = thread_count();
          std::size_t seen = serving_peak_.load();
          while (now > seen &&
                 !serving_peak_.compare_exchange_weak(seen, now)) {
          }
          HandoffMsg ok;
          ok.type = HandoffType::kAttachOk;
          ok.conn_id = msg.conn_id;
          (void)net::write_frame(*stream, ok.encode());
          stream->close();
        });
    EXPECT_TRUE(redirector_->start().ok());
  }

  ~RedirectorPool() override { redirector_->stop(); }

  net::StreamPtr open() {
    auto stream = client_node_->connect(redirector_->endpoint(), 1s);
    EXPECT_TRUE(stream.ok());
    return stream.ok() ? std::move(*stream) : nullptr;
  }

  /// Send one handoff frame and decode the redirector's reply.
  util::StatusOr<HandoffMsg> exchange(const HandoffMsg& msg) {
    net::StreamPtr stream = open();
    if (stream == nullptr) return util::IoError("connect failed");
    NAPLET_RETURN_IF_ERROR(net::write_frame(*stream, msg.encode()));
    auto frame = net::read_frame(*stream);
    if (!frame.ok()) return frame.status();
    return HandoffMsg::decode(util::ByteSpan(frame->data(), frame->size()));
  }

  net::SimNet world_;
  std::shared_ptr<net::SimNode> server_node_;
  std::shared_ptr<net::SimNode> client_node_;
  std::atomic<std::size_t> serving_peak_{0};
  std::atomic<int> handled_{0};  // handoffs that reached the handler
  std::unique_ptr<Redirector> redirector_;
};

TEST(RedirectorPoolRealm, SilentClientsDoNotBlockResume) {
  SimRealm realm(2);
  const agent::AgentId alice = realm.pseudo_agent("alice", 0);
  const agent::AgentId bob = realm.pseudo_agent("bob", 1);
  ConnPair conn = make_connection(realm, alice, 0, bob, 1);
  ASSERT_TRUE(conn.client && conn.server);
  ASSERT_TRUE(realm.ctrl(0).suspend(conn.client).ok());

  // Twice as many silent clients as workers queue ahead of the RESUME.
  auto idler = realm.net().add_node("idler");
  std::vector<net::StreamPtr> silent;
  for (int i = 0; i < 2 * Redirector::kHandoffWorkers; ++i) {
    auto stream = idler->connect(realm.server(1).node_info().redirector, 1s);
    ASSERT_TRUE(stream.ok());
    silent.push_back(std::move(*stream));
  }
  std::this_thread::sleep_for(30ms);  // let the acceptor queue them

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(realm.ctrl(0).resume(conn.client).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  EXPECT_EQ(conn.client->state(), ConnState::kEstablished);

  // Each silent client is dropped at its first-frame deadline.
  Redirector& redirector = *realm.ctrl(1).redirector();
  const auto give_up = std::chrono::steady_clock::now() +
                       Redirector::kFirstFrameDeadline + 2s;
  while (redirector.bad_handoffs() < silent.size() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(redirector.bad_handoffs(), silent.size());
  std::uint8_t byte = 0;
  for (auto& stream : silent) {
    auto n = stream->read_some_for(&byte, 1, 1s);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);  // closed by the redirector
  }
}

TEST_F(RedirectorPool, ThreadCountFlatAcrossHandoffs) {
  // Sampled inside the handler too: a thread started per handoff is alive
  // exactly while its handoff is served.
  const std::size_t before = settled_thread_count();
  std::size_t peak = before;
  for (int i = 1; i <= 500; ++i) {
    net::StreamPtr stream = open();
    ASSERT_NE(stream, nullptr);
    HandoffMsg attach;
    attach.type = HandoffType::kAttach;
    attach.conn_id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(net::write_frame(*stream, attach.encode()).ok());
    auto frame = net::read_frame(*stream);
    ASSERT_TRUE(frame.ok()) << "handoff " << i;
    auto reply =
        HandoffMsg::decode(util::ByteSpan(frame->data(), frame->size()));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, HandoffType::kAttachOk);
    if (i % 25 == 0) peak = std::max(peak, thread_count());
  }
  EXPECT_LE(peak, before);
  EXPECT_LE(serving_peak_.load(), before);
  EXPECT_LE(thread_count(), before);
  EXPECT_EQ(redirector_->bad_handoffs(), 0u);
}

TEST_F(RedirectorPool, FrameStartingWithB7IsABadHandoff) {
  // 0xB7 is outside the HandoffType range, so HandoffMsg::decode rejects
  // the frame: a short junk frame, and a 13-byte frame whose bytes 9-12
  // read as a count of 2^32 - 1 that must not be allocated.
  util::Bytes oversized = {0xB7, 0, 0, 0, 0, 0, 0, 0, 1};
  oversized.insert(oversized.end(), {0xFF, 0xFF, 0xFF, 0xFF});
  const std::vector<util::Bytes> frames = {{0xB7, 0xDE, 0xAD}, oversized};
  for (const util::Bytes& bad_frame : frames) {
    net::StreamPtr bad = open();
    ASSERT_NE(bad, nullptr);
    ASSERT_TRUE(net::write_frame(*bad, bad_frame).ok());
    std::uint8_t byte = 0;
    auto n = bad->read_some_for(&byte, 1, 2s);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    EXPECT_EQ(*n, 0u);  // closed without a reply
  }
  EXPECT_EQ(redirector_->bad_handoffs(), frames.size());
  EXPECT_EQ(handled_.load(), 0);

  // The workers that rejected them still serve the next handoff.
  HandoffMsg attach;
  attach.type = HandoffType::kAttach;
  attach.conn_id = 7;
  auto reply = exchange(attach);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->type, HandoffType::kAttachOk);
}

TEST_F(RedirectorPool, StopWithQueuedStreamsIsPrompt) {
  std::vector<net::StreamPtr> silent;
  for (int i = 0; i < 4 * Redirector::kHandoffWorkers; ++i) {
    silent.push_back(open());
  }
  std::this_thread::sleep_for(50ms);  // every worker is holding one

  const auto t0 = std::chrono::steady_clock::now();
  redirector_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  std::uint8_t byte = 0;
  for (auto& stream : silent) {
    auto n = stream->read_some_for(&byte, 1, 1s);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);  // closed, not left dangling
  }
}

}  // namespace
}  // namespace naplet::nsock
