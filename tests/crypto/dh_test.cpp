#include "crypto/dh.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "util/bytes.hpp"

namespace naplet::crypto {
namespace {

TEST(DhParams, GroupsWellFormed) {
  for (DhGroup group :
       {DhGroup::kModp768, DhGroup::kModp1536, DhGroup::kModp2048}) {
    const DhParams& p = DhParams::get(group);
    EXPECT_FALSE(p.prime.is_zero());
    EXPECT_TRUE(p.prime.is_odd());
    EXPECT_EQ(p.generator.to_u64(), 2u);
    EXPECT_EQ(p.prime.bit_length(), p.key_bytes * 8);
  }
}

TEST(DhKeyPair, PublicValueFixedWidth) {
  auto kp = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(kp->public_value().size(), 96u);
}

class DhGroups : public ::testing::TestWithParam<DhGroup> {};

TEST_P(DhGroups, SharedSecretAgrees) {
  auto alice = DhKeyPair::generate(GetParam());
  auto bob = DhKeyPair::generate(GetParam());
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  auto key_a = alice->session_key(util::ByteSpan(
      bob->public_value().data(), bob->public_value().size()));
  auto key_b = bob->session_key(util::ByteSpan(
      alice->public_value().data(), alice->public_value().size()));
  ASSERT_TRUE(key_a.ok());
  ASSERT_TRUE(key_b.ok());
  EXPECT_EQ(util::to_hex(util::ByteSpan(key_a->data(), key_a->size())),
            util::to_hex(util::ByteSpan(key_b->data(), key_b->size())));
}

INSTANTIATE_TEST_SUITE_P(Modp, DhGroups,
                         ::testing::Values(DhGroup::kModp768,
                                           DhGroup::kModp1536,
                                           DhGroup::kModp2048));

TEST(DhKeyPair, DistinctPairsDistinctKeys) {
  auto alice = DhKeyPair::generate(DhGroup::kModp768);
  auto bob = DhKeyPair::generate(DhGroup::kModp768);
  auto eve = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(alice.ok() && bob.ok() && eve.ok());

  auto key_ab = alice->session_key(util::ByteSpan(
      bob->public_value().data(), bob->public_value().size()));
  auto key_ae = alice->session_key(util::ByteSpan(
      eve->public_value().data(), eve->public_value().size()));
  ASSERT_TRUE(key_ab.ok() && key_ae.ok());
  EXPECT_NE(util::to_hex(util::ByteSpan(key_ab->data(), key_ab->size())),
            util::to_hex(util::ByteSpan(key_ae->data(), key_ae->size())));
}

TEST(DhKeyPair, FreshKeysEachGeneration) {
  auto a = DhKeyPair::generate(DhGroup::kModp768);
  auto b = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(util::to_hex(util::ByteSpan(a->public_value().data(),
                                        a->public_value().size())),
            util::to_hex(util::ByteSpan(b->public_value().data(),
                                        b->public_value().size())));
}

// Eight connects racing on a group's first use all build on, or wait for,
// one comb table, and every pair of their keys agrees. Run in a process of
// its own (ctest crypto_dh_first_use) the race is on the real first use.
TEST(DhKeyPair, ConcurrentFirstUseAgreesPairwise) {
  constexpr int kThreads = 8;
  for (DhGroup group :
       {DhGroup::kModp768, DhGroup::kModp1536, DhGroup::kModp2048}) {
    std::vector<std::optional<DhKeyPair>> pairs(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&pairs, group, i] {
        auto kp = DhKeyPair::generate(group);
        if (kp.ok()) pairs[i] = std::move(*kp);
      });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < kThreads; ++i) ASSERT_TRUE(pairs[i]) << i;

    for (int i = 0; i < kThreads; ++i) {
      for (int j = i + 1; j < kThreads; ++j) {
        const util::Bytes& pub_i = pairs[i]->public_value();
        const util::Bytes& pub_j = pairs[j]->public_value();
        auto key_ij =
            pairs[i]->session_key(util::ByteSpan(pub_j.data(), pub_j.size()));
        auto key_ji =
            pairs[j]->session_key(util::ByteSpan(pub_i.data(), pub_i.size()));
        ASSERT_TRUE(key_ij.ok() && key_ji.ok()) << i << "," << j;
        EXPECT_EQ(*key_ij, *key_ji) << i << "," << j;
      }
    }
  }
}

TEST(DhKeyPair, RejectsDegeneratePublicValues) {
  auto kp = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(kp.ok());
  const DhParams& params = DhParams::get(DhGroup::kModp768);

  // zero
  util::Bytes zero(params.key_bytes, 0);
  EXPECT_FALSE(kp->session_key(util::ByteSpan(zero.data(), zero.size())).ok());

  // one
  util::Bytes one(params.key_bytes, 0);
  one.back() = 1;
  EXPECT_FALSE(kp->session_key(util::ByteSpan(one.data(), one.size())).ok());

  // p - 1 (order-2 subgroup)
  const util::Bytes p_minus_1 =
      params.prime.sub(crypto::BigUint(1)).to_bytes(params.key_bytes);
  EXPECT_FALSE(
      kp->session_key(util::ByteSpan(p_minus_1.data(), p_minus_1.size())).ok());

  // >= p
  const util::Bytes p_bytes = params.prime.to_bytes(params.key_bytes);
  EXPECT_FALSE(
      kp->session_key(util::ByteSpan(p_bytes.data(), p_bytes.size())).ok());
}

}  // namespace
}  // namespace naplet::crypto
