#include "core/wire.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace naplet::nsock {
namespace {

agent::NodeInfo sample_node() {
  agent::NodeInfo node;
  node.server_name = "alpha";
  node.control = {"10.0.0.1", 4001};
  node.redirector = {"10.0.0.1", 4002};
  node.migration = {"10.0.0.1", 4003};
  return node;
}

TEST(CtrlMsg, RoundTripAllFields) {
  CtrlMsg msg;
  msg.type = CtrlType::kConnect;
  msg.conn_id = 0xABCDEF;
  msg.epoch = 11;
  msg.verifier = 42;
  msg.trace_id = 0x1122334455667788ULL;
  msg.sent_seq = 777;
  msg.client_agent = "client-a";
  msg.server_agent = "server-b";
  msg.node = sample_node();
  msg.dh_public = {1, 2, 3};
  msg.token = {4, 5};
  msg.reason = "why";
  msg.mac = {9, 9, 9, 9};

  const util::Bytes encoded = msg.encode();
  auto decoded = CtrlMsg::decode(util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->conn_id, msg.conn_id);
  EXPECT_EQ(decoded->epoch, msg.epoch);
  EXPECT_EQ(decoded->verifier, msg.verifier);
  EXPECT_EQ(decoded->trace_id, msg.trace_id);
  EXPECT_EQ(decoded->sent_seq, msg.sent_seq);
  EXPECT_EQ(decoded->client_agent, msg.client_agent);
  EXPECT_EQ(decoded->server_agent, msg.server_agent);
  EXPECT_EQ(decoded->node, msg.node);
  EXPECT_EQ(decoded->dh_public, msg.dh_public);
  EXPECT_EQ(decoded->token, msg.token);
  EXPECT_EQ(decoded->reason, msg.reason);
  EXPECT_EQ(decoded->mac, msg.mac);
}

class CtrlTypeRoundTrip : public ::testing::TestWithParam<CtrlType> {};

TEST_P(CtrlTypeRoundTrip, TypePreserved) {
  CtrlMsg msg;
  msg.type = GetParam();
  msg.conn_id = 1;
  const util::Bytes encoded = msg.encode();
  auto decoded = CtrlMsg::decode(util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, GetParam());
  EXPECT_NE(to_string(GetParam()), "?");
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, CtrlTypeRoundTrip,
    ::testing::Values(CtrlType::kConnect, CtrlType::kConnectAck,
                      CtrlType::kConnectReject, CtrlType::kSus,
                      CtrlType::kSusAck, CtrlType::kAckWait, CtrlType::kSusRes,
                      CtrlType::kSusResAck, CtrlType::kCls, CtrlType::kClsAck,
                      CtrlType::kReject));

TEST(CtrlMsg, DecodeRejectsGarbage) {
  const util::Bytes junk = {0xFF, 0x00, 0x13};
  EXPECT_FALSE(CtrlMsg::decode(util::ByteSpan(junk.data(), junk.size())).ok());
  EXPECT_FALSE(CtrlMsg::decode({}).ok());
}

TEST(CtrlMsg, DecodeRejectsTruncation) {
  CtrlMsg msg;
  msg.type = CtrlType::kSus;
  msg.conn_id = 5;
  util::Bytes encoded = msg.encode();
  for (std::size_t cut = 1; cut < encoded.size(); cut += 7) {
    EXPECT_FALSE(
        CtrlMsg::decode(util::ByteSpan(encoded.data(), encoded.size() - cut))
            .ok());
  }
}

TEST(CtrlMsg, DecodeRejectsTrailingBytes) {
  CtrlMsg msg;
  msg.type = CtrlType::kCls;
  util::Bytes encoded = msg.encode();
  encoded.push_back(0);
  EXPECT_FALSE(
      CtrlMsg::decode(util::ByteSpan(encoded.data(), encoded.size())).ok());
}

TEST(CtrlMsg, MacPayloadExcludesMac) {
  CtrlMsg msg;
  msg.type = CtrlType::kSus;
  msg.conn_id = 9;
  const util::Bytes before = msg.mac_payload();
  msg.mac = {1, 2, 3};
  EXPECT_EQ(msg.mac_payload(), before);  // mac not covered by itself
}

TEST(HandoffMsg, RoundTrip) {
  HandoffMsg msg;
  msg.type = HandoffType::kResume;
  msg.conn_id = 123;
  msg.epoch = 6;
  msg.verifier = 456;
  msg.trace_id = 0x99AABBCCDDEEFF00ULL;
  msg.sent_seq = 789;
  msg.recv_seq = 777;
  msg.agent = "mover-agent";
  msg.node = sample_node();
  msg.reason = "r";
  msg.mac = {7};
  const util::Bytes encoded = msg.encode();
  auto decoded =
      HandoffMsg::decode(util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->conn_id, msg.conn_id);
  EXPECT_EQ(decoded->epoch, msg.epoch);
  EXPECT_EQ(decoded->verifier, msg.verifier);
  EXPECT_EQ(decoded->trace_id, msg.trace_id);
  EXPECT_EQ(decoded->sent_seq, msg.sent_seq);
  EXPECT_EQ(decoded->recv_seq, msg.recv_seq);
  EXPECT_EQ(decoded->agent, msg.agent);
  EXPECT_EQ(decoded->node, msg.node);
  EXPECT_EQ(decoded->mac, msg.mac);
}

TEST(HandoffMsg, AgentFieldIsMacCovered) {
  HandoffMsg msg;
  msg.type = HandoffType::kResume;
  msg.agent = "honest";
  const util::Bytes before = msg.mac_payload();
  msg.agent = "impostor";
  EXPECT_NE(msg.mac_payload(), before);
}

// Property sweep: random byte strings must never crash the decoders and
// must be rejected or round-trip cleanly.
class DecoderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzz, NoCrashOnGarbage) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  for (int iter = 0; iter < 200; ++iter) {
    util::Bytes junk(rng.next_below(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)CtrlMsg::decode(util::ByteSpan(junk.data(), junk.size()));
    (void)HandoffMsg::decode(util::ByteSpan(junk.data(), junk.size()));
    (void)DataFrame::decode(util::ByteSpan(junk.data(), junk.size()));
  }
}

TEST_P(DecoderFuzz, BitFlipsNeverRoundTripSilently) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  CtrlMsg msg;
  msg.type = CtrlType::kSus;
  msg.conn_id = 42;
  msg.sent_seq = 9;
  msg.client_agent = "sender";
  const util::Bytes clean = msg.encode();
  for (int iter = 0; iter < 100; ++iter) {
    util::Bytes mutated = clean;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto decoded = CtrlMsg::decode(util::ByteSpan(mutated.data(),
                                                  mutated.size()));
    if (!decoded.ok()) continue;  // rejected: fine
    // Accepted mutations must differ from the original in some field —
    // i.e. the decode is honest, not silently corrupting other fields.
    const bool differs = decoded->type != msg.type ||
                         decoded->conn_id != msg.conn_id ||
                         decoded->epoch != msg.epoch ||
                         decoded->trace_id != msg.trace_id ||
                         decoded->sent_seq != msg.sent_seq ||
                         decoded->client_agent != msg.client_agent ||
                         decoded->mac != msg.mac ||
                         decoded->verifier != msg.verifier ||
                         !decoded->reason.empty() ||
                         !decoded->server_agent.empty() ||
                         decoded->node != msg.node ||
                         decoded->dh_public != msg.dh_public ||
                         decoded->token != msg.token;
    EXPECT_TRUE(differs) << "byte " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Range(1, 6));

TEST(HandoffMsg, DecodeRejectsBadType) {
  HandoffMsg msg;
  msg.type = HandoffType::kAttach;
  util::Bytes encoded = msg.encode();
  encoded[0] = 0xEE;
  EXPECT_FALSE(
      HandoffMsg::decode(util::ByteSpan(encoded.data(), encoded.size())).ok());
}

TEST(Mac, EmptyKeyMeansNoSecurity) {
  const util::Bytes payload = {1, 2, 3};
  EXPECT_TRUE(compute_mac({}, util::ByteSpan(payload.data(), payload.size()))
                  .empty());
  // With no key, verification accepts anything (the w/o-security baseline).
  EXPECT_TRUE(verify_mac({}, util::ByteSpan(payload.data(), payload.size()),
                         {}));
  const util::Bytes junk_tag = {9};
  EXPECT_TRUE(verify_mac({}, util::ByteSpan(payload.data(), payload.size()),
                         util::ByteSpan(junk_tag.data(), junk_tag.size())));
}

TEST(Mac, KeyedVerification) {
  const util::Bytes key(32, 0x11);
  const util::Bytes payload = {1, 2, 3};
  const util::Bytes tag = compute_mac(
      util::ByteSpan(key.data(), key.size()),
      util::ByteSpan(payload.data(), payload.size()));
  EXPECT_EQ(tag.size(), 32u);
  EXPECT_TRUE(verify_mac(util::ByteSpan(key.data(), key.size()),
                         util::ByteSpan(payload.data(), payload.size()),
                         util::ByteSpan(tag.data(), tag.size())));
  // Tamper with the payload.
  util::Bytes tampered = payload;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify_mac(util::ByteSpan(key.data(), key.size()),
                          util::ByteSpan(tampered.data(), tampered.size()),
                          util::ByteSpan(tag.data(), tag.size())));
  // Missing tag must fail under a keyed session.
  EXPECT_FALSE(verify_mac(util::ByteSpan(key.data(), key.size()),
                          util::ByteSpan(payload.data(), payload.size()), {}));
}

TEST(DataFrame, RoundTrip) {
  DataFrame frame{42, {1, 2, 3}};
  const util::Bytes encoded = frame.encode();
  auto decoded =
      DataFrame::decode(util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->body, frame.body);
}

TEST(DataFrame, EmptyBody) {
  DataFrame frame{7, {}};
  const util::Bytes encoded = frame.encode();
  auto decoded =
      DataFrame::decode(util::ByteSpan(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->body.empty());
}

TEST(DataFrame, TruncatedRejected) {
  const util::Bytes junk = {1, 2, 3};
  EXPECT_FALSE(DataFrame::decode(util::ByteSpan(junk.data(), junk.size())).ok());
}

}  // namespace
}  // namespace naplet::nsock
