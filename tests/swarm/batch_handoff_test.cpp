// The BatchHandoffMsg wire exchange: codec round trips plus the
// redirector's serve_batch path (one frame in, one disposition frame out,
// lease fence applied per entry).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/redirector.hpp"
#include "core/wire.hpp"
#include "net/frame.hpp"
#include "net/sim.hpp"

namespace naplet::nsock {
namespace {

using namespace std::chrono_literals;

HandoffMsg resume_entry(std::uint64_t conn_id, const std::string& agent) {
  HandoffMsg msg;
  msg.type = HandoffType::kResume;
  msg.conn_id = conn_id;
  msg.epoch = 7;
  msg.trace_id = 42;
  msg.verifier = 0xfeedbeef;
  msg.sent_seq = 10;
  msg.recv_seq = 9;
  msg.agent = agent;
  msg.node.server_name = "dest-host";
  msg.node.control = {"dest-host", 1};
  msg.node.redirector = {"dest-host", 2};
  msg.node.migration = {"dest-host", 3};
  return msg;
}

TEST(BatchHandoffWire, RoundTrip) {
  BatchHandoffMsg batch;
  batch.trace_id = 99;
  batch.entries.push_back(resume_entry(1, "alice"));
  batch.entries.push_back(resume_entry(2, "bob"));
  HandoffMsg attach;
  attach.type = HandoffType::kAttach;
  attach.conn_id = 3;
  attach.agent = "carol";
  batch.entries.push_back(attach);

  const util::Bytes encoded = batch.encode();
  ASSERT_FALSE(encoded.empty());
  EXPECT_EQ(encoded[0], kBatchHandoffMagic);

  auto decoded = BatchHandoffMsg::decode(
      util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace_id, 99u);
  ASSERT_EQ(decoded->entries.size(), 3u);
  EXPECT_EQ(decoded->entries[0].type, HandoffType::kResume);
  EXPECT_EQ(decoded->entries[0].conn_id, 1u);
  EXPECT_EQ(decoded->entries[0].agent, "alice");
  EXPECT_EQ(decoded->entries[0].verifier, 0xfeedbeefu);
  EXPECT_EQ(decoded->entries[0].node.server_name, "dest-host");
  EXPECT_EQ(decoded->entries[1].sent_seq, 10u);
  EXPECT_EQ(decoded->entries[2].type, HandoffType::kAttach);
  EXPECT_EQ(decoded->entries[2].agent, "carol");
}

TEST(BatchHandoffWire, EmptyBatchRoundTrips) {
  BatchHandoffMsg batch;
  const util::Bytes encoded = batch.encode();
  auto decoded = BatchHandoffMsg::decode(
      util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->entries.empty());
}

TEST(BatchHandoffWire, RejectsBadMagic) {
  BatchHandoffMsg batch;
  batch.entries.push_back(resume_entry(1, "a"));
  util::Bytes encoded = batch.encode();
  encoded[0] = 0x01;  // inside the HandoffType range, not the batch magic
  auto decoded = BatchHandoffMsg::decode(
      util::ByteSpan(encoded.data(), encoded.size()));
  EXPECT_FALSE(decoded.ok());
  // And single-frame decode rejects batch frames symmetrically.
  const util::Bytes fresh = batch.encode();
  EXPECT_FALSE(
      HandoffMsg::decode(util::ByteSpan(fresh.data(), fresh.size())).ok());
}

TEST(BatchHandoffWire, RejectsTrailingBytes) {
  BatchHandoffMsg batch;
  batch.entries.push_back(resume_entry(1, "a"));
  util::Bytes encoded = batch.encode();
  encoded.push_back(0x00);
  EXPECT_FALSE(
      BatchHandoffMsg::decode(util::ByteSpan(encoded.data(), encoded.size()))
          .ok());
}

TEST(BatchHandoffWire, RejectsTruncation) {
  BatchHandoffMsg batch;
  batch.entries.push_back(resume_entry(1, "a"));
  batch.entries.push_back(resume_entry(2, "b"));
  const util::Bytes encoded = batch.encode();
  for (std::size_t cut = 1; cut < encoded.size(); cut += 7) {
    EXPECT_FALSE(
        BatchHandoffMsg::decode(util::ByteSpan(encoded.data(), cut)).ok())
        << "accepted a prefix of " << cut << " bytes";
  }
}

TEST(BatchHandoffWire, ReplyRoundTripAndTrailingReject) {
  BatchHandoffReply reply;
  reply.entries.push_back({true, ""});
  reply.entries.push_back({false, "no live lease for conn 9"});

  util::Bytes encoded = reply.encode();
  auto decoded = BatchHandoffReply::decode(
      util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_TRUE(decoded->entries[0].ok);
  EXPECT_FALSE(decoded->entries[1].ok);
  EXPECT_EQ(decoded->entries[1].reason, "no live lease for conn 9");

  encoded.push_back(0xAA);
  EXPECT_FALSE(
      BatchHandoffReply::decode(util::ByteSpan(encoded.data(), encoded.size()))
          .ok());
}

/// Drives a live redirector over the simulated fabric and returns the
/// decoded disposition frame.
class RedirectorBatchTest : public ::testing::Test {
 protected:
  RedirectorBatchTest()
      : server_node_(world_.add_node("server")),
        client_node_(world_.add_node("client")) {}

  void start(util::Duration lease_ttl = {}) {
    redirector_ = std::make_unique<Redirector>(
        *server_node_, 0,
        [this](std::shared_ptr<net::Stream> stream, HandoffMsg) {
          per_conn_handoffs_.fetch_add(1);
          stream->close();
        },
        metrics_, lease_ttl);
    ASSERT_TRUE(redirector_->start().ok());
  }

  ~RedirectorBatchTest() override {
    if (redirector_) redirector_->stop();
  }

  BatchHandoffReply exchange(const BatchHandoffMsg& batch) {
    auto stream = client_node_->connect(redirector_->endpoint(), 2s);
    EXPECT_TRUE(stream.ok());
    const util::Bytes encoded = batch.encode();
    EXPECT_TRUE(net::write_frame(**stream,
                                 util::ByteSpan(encoded.data(),
                                                encoded.size()))
                    .ok());
    auto frame = net::read_frame(**stream);
    EXPECT_TRUE(frame.ok());
    auto reply = BatchHandoffReply::decode(
        util::ByteSpan(frame->data(), frame->size()));
    EXPECT_TRUE(reply.ok());
    return reply.ok() ? *reply : BatchHandoffReply{};
  }

  net::SimNet world_;
  std::shared_ptr<net::SimNode> server_node_;
  std::shared_ptr<net::SimNode> client_node_;
  obs::Registry metrics_;  // outlives redirector_
  std::unique_ptr<Redirector> redirector_;
  std::atomic<int> per_conn_handoffs_{0};
};

TEST_F(RedirectorBatchTest, OneExchangeAnswersEveryEntry) {
  start();
  BatchHandoffMsg batch;
  batch.trace_id = 5;
  for (std::uint64_t c = 1; c <= 4; ++c) {
    batch.entries.push_back(resume_entry(c, "agent" + std::to_string(c)));
  }

  const BatchHandoffReply reply = exchange(batch);
  ASSERT_EQ(reply.entries.size(), 4u);
  for (const auto& d : reply.entries) {
    EXPECT_TRUE(d.ok) << d.reason;
  }
  // The whole batch cost ONE wire exchange and never touched the
  // per-connection handoff path.
  EXPECT_EQ(redirector_->batch_exchanges(), 1u);
  EXPECT_EQ(per_conn_handoffs_.load(), 0);
  EXPECT_EQ(redirector_->bad_handoffs(), 0u);
}

TEST_F(RedirectorBatchTest, LeaseFenceFailsOnlyTheDeadEntries) {
  start(/*lease_ttl=*/3s);
  redirector_->register_lease(1);  // conn 1 is owned by a live controller

  BatchHandoffMsg batch;
  batch.entries.push_back(resume_entry(1, "live"));
  batch.entries.push_back(resume_entry(2, "orphan"));  // no lease
  HandoffMsg attach;
  attach.type = HandoffType::kAttach;  // ATTACH is never lease-fenced
  attach.conn_id = 3;
  attach.agent = "newcomer";
  batch.entries.push_back(attach);

  const BatchHandoffReply reply = exchange(batch);
  ASSERT_EQ(reply.entries.size(), 3u);
  EXPECT_TRUE(reply.entries[0].ok);
  EXPECT_FALSE(reply.entries[1].ok);  // fenced, without poisoning the batch
  EXPECT_NE(reply.entries[1].reason.find("lease"), std::string::npos);
  EXPECT_TRUE(reply.entries[2].ok);
  EXPECT_EQ(redirector_->handoffs_fenced(), 1u);
  EXPECT_EQ(redirector_->batch_exchanges(), 1u);
}

TEST_F(RedirectorBatchTest, BatchHandlerRefinesDispositions) {
  redirector_ = std::make_unique<Redirector>(
      *server_node_, 0,
      [](std::shared_ptr<net::Stream> stream, HandoffMsg) {
        stream->close();
      },
      metrics_);
  redirector_->set_batch_handler(
      [](const BatchHandoffMsg& batch, BatchHandoffReply& reply) {
        // The controller refuses admission for one agent; the redirector
        // answers the refined dispositions as-is.
        ASSERT_EQ(batch.entries.size(), reply.entries.size());
        reply.entries[1].ok = false;
        reply.entries[1].reason = "destination at capacity";
      });
  ASSERT_TRUE(redirector_->start().ok());

  BatchHandoffMsg batch;
  batch.entries.push_back(resume_entry(1, "a"));
  batch.entries.push_back(resume_entry(2, "b"));
  const BatchHandoffReply reply = exchange(batch);
  ASSERT_EQ(reply.entries.size(), 2u);
  EXPECT_TRUE(reply.entries[0].ok);
  EXPECT_FALSE(reply.entries[1].ok);
  EXPECT_EQ(reply.entries[1].reason, "destination at capacity");
}

TEST_F(RedirectorBatchTest, MalformedBatchCountsAsBadHandoff) {
  start();
  auto stream = client_node_->connect(redirector_->endpoint(), 2s);
  ASSERT_TRUE(stream.ok());
  // Batch magic followed by garbage: routed to serve_batch's decoder and
  // rejected without a reply.
  const util::Bytes junk = {kBatchHandoffMagic, 0xde, 0xad};
  ASSERT_TRUE(
      net::write_frame(**stream, util::ByteSpan(junk.data(), junk.size()))
          .ok());
  auto frame = net::read_frame(**stream);
  EXPECT_FALSE(frame.ok());  // stream closed, no disposition frame
  EXPECT_EQ(redirector_->batch_exchanges(), 0u);
  EXPECT_EQ(redirector_->bad_handoffs(), 1u);
}

}  // namespace
}  // namespace naplet::nsock
