#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace naplet::crypto {
namespace {

BigUint from_hex_ok(const char* s) {
  auto v = BigUint::from_hex(s);
  EXPECT_TRUE(v.ok()) << s;
  return *v;
}

TEST(BigUint, ZeroProperties) {
  BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_TRUE(zero.to_bytes().empty());
  EXPECT_EQ(zero.to_u64(), 0u);
}

TEST(BigUint, FromU64) {
  BigUint v(0x123456789ABCDEF0ULL);
  EXPECT_EQ(v.to_hex(), "123456789abcdef0");
  EXPECT_EQ(v.to_u64(), 0x123456789ABCDEF0ULL);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigUint, HexRoundTrip) {
  const char* hex = "deadbeefcafebabe0123456789abcdef00ff";
  EXPECT_EQ(from_hex_ok(hex).to_hex(), hex);
}

TEST(BigUint, HexLeadingZerosNormalized) {
  EXPECT_EQ(from_hex_ok("000001").to_hex(), "1");
  EXPECT_EQ(from_hex_ok("0000000000000000").to_hex(), "0");
}

TEST(BigUint, FromHexRejectsBadInput) {
  EXPECT_FALSE(BigUint::from_hex("").ok());
  EXPECT_FALSE(BigUint::from_hex("xyz").ok());
  EXPECT_FALSE(BigUint::from_hex("12 34").ok());
}

TEST(BigUint, BytesRoundTrip) {
  const util::Bytes bytes = {0x01, 0x02, 0x03, 0x04, 0x05};
  BigUint v = BigUint::from_bytes(util::ByteSpan(bytes.data(), bytes.size()));
  EXPECT_EQ(v.to_hex(), "102030405");
  EXPECT_EQ(v.to_bytes(), bytes);
}

TEST(BigUint, ToBytesPadding) {
  BigUint v(0xFF);
  const util::Bytes padded = v.to_bytes(4);
  EXPECT_EQ(padded, (util::Bytes{0, 0, 0, 0xFF}));
}

TEST(BigUint, CompareTotalOrder) {
  BigUint small(5), big(500), huge = from_hex_ok("ffffffffffffffffff");
  EXPECT_LT(small, big);
  EXPECT_LT(big, huge);
  EXPECT_EQ(small.compare(BigUint(5)), 0);
  EXPECT_GT(huge, small);
}

TEST(BigUint, AddWithCarryChains) {
  BigUint a = from_hex_ok("ffffffffffffffff");
  BigUint one(1);
  EXPECT_EQ(a.add(one).to_hex(), "10000000000000000");
  EXPECT_EQ(one.add(a).to_hex(), "10000000000000000");
}

TEST(BigUint, SubWithBorrowChains) {
  BigUint a = from_hex_ok("10000000000000000");
  EXPECT_EQ(a.sub(BigUint(1)).to_hex(), "ffffffffffffffff");
  EXPECT_TRUE(a.sub(a).is_zero());
}

TEST(BigUint, MulBasics) {
  EXPECT_TRUE(BigUint(0).mul(BigUint(12345)).is_zero());
  EXPECT_EQ(BigUint(7).mul(BigUint(6)).to_u64(), 42u);
  BigUint big = from_hex_ok("ffffffffffffffff");
  EXPECT_EQ(big.mul(big).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUint, ShiftLeftRight) {
  BigUint v(1);
  EXPECT_EQ(v.shift_left(100).bit_length(), 101u);
  EXPECT_EQ(v.shift_left(100).shift_right(100).to_u64(), 1u);
  EXPECT_TRUE(v.shift_right(1).is_zero());
  BigUint x = from_hex_ok("abcdef");
  EXPECT_EQ(x.shift_left(4).to_hex(), "abcdef0");
  EXPECT_EQ(x.shift_right(4).to_hex(), "abcde");
}

TEST(BigUint, DivModSimple) {
  auto dm = BigUint(100).divmod(BigUint(7));
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(dm->quotient.to_u64(), 14u);
  EXPECT_EQ(dm->remainder.to_u64(), 2u);
}

TEST(BigUint, DivModByZeroRejected) {
  EXPECT_FALSE(BigUint(1).divmod(BigUint()).ok());
  EXPECT_FALSE(BigUint(1).mod(BigUint()).ok());
}

TEST(BigUint, DivModSmallByLarge) {
  auto dm = BigUint(3).divmod(from_hex_ok("ffffffffffffffffffffffff"));
  ASSERT_TRUE(dm.ok());
  EXPECT_TRUE(dm->quotient.is_zero());
  EXPECT_EQ(dm->remainder.to_u64(), 3u);
}

TEST(BigUint, DivModKnuthCornerCase) {
  // Exercises the q_hat correction branch: divisor top limb just below
  // the radix.
  BigUint dividend = from_hex_ok("7fffffff800000010000000000000000");
  BigUint divisor = from_hex_ok("800000008000000200000005");
  auto dm = dividend.divmod(divisor);
  ASSERT_TRUE(dm.ok());
  // Verify the division identity instead of magic constants.
  const BigUint recomposed = dm->quotient.mul(divisor).add(dm->remainder);
  EXPECT_EQ(recomposed.compare(dividend), 0);
  EXPECT_LT(dm->remainder, divisor);
}

// Property: for random a, b != 0:  a == (a/b)*b + (a%b)  and  a%b < b.
class DivisionProperty : public ::testing::TestWithParam<int> {};

TEST_P(DivisionProperty, Identity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 50; ++iter) {
    util::Bytes a_bytes(1 + rng.next_below(40));
    util::Bytes b_bytes(1 + rng.next_below(20));
    for (auto& byte : a_bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& byte : b_bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
    BigUint a = BigUint::from_bytes(util::ByteSpan(a_bytes.data(), a_bytes.size()));
    BigUint b = BigUint::from_bytes(util::ByteSpan(b_bytes.data(), b_bytes.size()));
    if (b.is_zero()) b = BigUint(1);

    auto dm = a.divmod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient.mul(b).add(dm->remainder).compare(a), 0);
    EXPECT_LT(dm->remainder, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivisionProperty, ::testing::Range(1, 9));

// Property: modular exponentiation laws.
class PowModProperty : public ::testing::TestWithParam<int> {};

TEST_P(PowModProperty, Laws) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  util::Bytes m_bytes(16);
  for (auto& byte : m_bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
  m_bytes[15] |= 1;  // odd modulus
  const BigUint m = BigUint::from_bytes(util::ByteSpan(m_bytes.data(), m_bytes.size()));
  const BigUint g(2 + rng.next_below(1000));

  // g^0 = 1 (mod m), g^1 = g (mod m)
  EXPECT_EQ(g.pow_mod(BigUint(0), m)->to_u64(), 1u);
  EXPECT_EQ(g.pow_mod(BigUint(1), m)->compare(*g.mod(m)), 0);

  // g^(a+b) = g^a * g^b (mod m)
  const BigUint a(rng.next_below(1U << 20));
  const BigUint b(rng.next_below(1U << 20));
  auto lhs = g.pow_mod(a.add(b), m);
  auto rhs = g.pow_mod(a, m)->mul_mod(*g.pow_mod(b, m), m);
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(rhs.ok());
  EXPECT_EQ(lhs->compare(*rhs), 0);

  // (g^a)^b = g^(a*b) (mod m)
  auto nested = g.pow_mod(a, m)->pow_mod(b, m);
  auto direct = g.pow_mod(a.mul(b), m);
  EXPECT_EQ(nested->compare(*direct), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowModProperty, ::testing::Range(1, 7));

TEST(BigUint, PowModFermatLittleTheorem) {
  // p = 2^31 - 1 is prime: a^(p-1) = 1 mod p for a not divisible by p.
  const BigUint p((1ULL << 31) - 1);
  const BigUint exp((1ULL << 31) - 2);
  for (std::uint64_t a : {2ULL, 3ULL, 65537ULL, 123456789ULL}) {
    auto r = BigUint(a).pow_mod(exp, p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_u64(), 1u) << a;
  }
}

// Known answers for the three MODP primes. Each entry is SHA-256 over the
// result's fixed-width big-endian bytes (so a 2048-bit answer fits on one
// line), computed independently of this code with Python's pow(b, e, p).
// Bases: 0, 2, the full-width a5a5..a5 (< p) and ff..ff (>= p, as wide as
// p). Exponents: 0, 1, p-2 and the 256-bit kExp256.
constexpr const char* kExp256 =
    "c0ffee0ddba11d1ab01ec7ab1e5eed5ca1ab1e5a1adf00dbadcafef00d5eed01";

struct PowModAnswers {
  DhGroup group;
  const char* digests[4][4];  // [base][exponent]
};

constexpr PowModAnswers kPowModAnswers[] = {
    {DhGroup::kModp768,
     {
         // base 0: exponent 0, 1, p-2, kExp256
         {"b83349f8a55a7e8c46b8620ab012c6e1cc126a75b063732762e959c4ceab5925",
          "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
          "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
          "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4"},
         // base 2: exponent 0, 1, p-2, kExp256
         {"b83349f8a55a7e8c46b8620ab012c6e1cc126a75b063732762e959c4ceab5925",
          "b81c13b650516d7e7ac2055ab42f2e86dc99ee2b9a1312cea315ea62c014ace8",
          "9b788d40dc494e17cbf61cd5392728382432bc008f924dbafb207dffb89101c3",
          "9552a52031389fac388c1c1c0a82aa63f84d542bfbb35625364043946a2fbe02"},
         // base a5..a5: exponent 0, 1, p-2, kExp256
         {"b83349f8a55a7e8c46b8620ab012c6e1cc126a75b063732762e959c4ceab5925",
          "2ed3c3dd51931178fe1c751b6d6d158ce537da2e472ab3ce1f06391d8552e629",
          "3c74d3510eddbcec1d573920ec59271aad7f230c48d718387ca092b446b067a0",
          "f22111d6636f91178de6d32c58fdf91b3e5f1be6e9b35cb402168415a24bffab"},
         // base ff..ff: exponent 0, 1, p-2, kExp256
         {"b83349f8a55a7e8c46b8620ab012c6e1cc126a75b063732762e959c4ceab5925",
          "e50ea434ac29cbb0a8fa02bb5151c5adec5f93878703529550daf4f9aaba01ef",
          "d955177257fc5e5475e88dd659e850020d2dd0dfbbdbf70a9915a9934ac96ad0",
          "d51a70333773302fc766643c45a456937f5210037a0f6f92af82102ea95cc530"}}},
    {DhGroup::kModp1536,
     {
         // base 0: exponent 0, 1, p-2, kExp256
         {"57153b76f61c2badabeb23203d690a2fe5509e76d1196658af70b2daf62c1aec",
          "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
          "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
          "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5"},
         // base 2: exponent 0, 1, p-2, kExp256
         {"57153b76f61c2badabeb23203d690a2fe5509e76d1196658af70b2daf62c1aec",
          "6a5e60b756db4280cb7af35c1545f0a9fda40bbe44397fe20d9ae21c660cb573",
          "468e67e4ab0f1c2111792ab87a35def68c5180e4a2db9fdcadb1775b4f0bf1e4",
          "185097e6300e3b3efce99f69cf9aedbe3691fb987dbcc3f07cf4667c9ec281dc"},
         // base a5..a5: exponent 0, 1, p-2, kExp256
         {"57153b76f61c2badabeb23203d690a2fe5509e76d1196658af70b2daf62c1aec",
          "d99c33686f17610034a338b79d8b5477bce949a28c05cf2409f41338ab9ac802",
          "f2eedf77bf3e2f4ef2b6dcf0f08cf0db3affe8478da9574dd6f796a47fd6b669",
          "1068868347928ae03d7273bc9444ccd2c97f55219513782feec20e54cd52d9a2"},
         // base ff..ff: exponent 0, 1, p-2, kExp256
         {"57153b76f61c2badabeb23203d690a2fe5509e76d1196658af70b2daf62c1aec",
          "13ced34fdbf303859717b1400d09cdd1e46a41f78a05a2363353cdae70611427",
          "7e1b73f34ff37777cb5b84cdfc471558bc17d1f6c6c8660b3616c40151c868fc",
          "a43e4509a9ff6bc2cecfe54e8962fbe56f4571c671f201d33484dd29bfc030e3"}}},
    {DhGroup::kModp2048,
     {
         // base 0: exponent 0, 1, p-2, kExp256
         {"408a9e14b19f44ef1a763548b07eae4fd4dd3525b1595c9d103bca15310baa29",
          "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
          "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
          "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1"},
         // base 2: exponent 0, 1, p-2, kExp256
         {"408a9e14b19f44ef1a763548b07eae4fd4dd3525b1595c9d103bca15310baa29",
          "330f13889983d473f51a237d8fc2816c9c8860a5aaa085304e9e7f362c64d956",
          "4d987ee54d9c337e56917e55a615d765cbace6135567310e73be858c4e618744",
          "bea9c9f1639db36e4faa965891b0569dda5e91fa1420c55c5ad863bd5f9753ed"},
         // base a5..a5: exponent 0, 1, p-2, kExp256
         {"408a9e14b19f44ef1a763548b07eae4fd4dd3525b1595c9d103bca15310baa29",
          "2c41a1dd584e3773b95674841b685f36c76b48ec4db75863372c2fd6e19a61ce",
          "57e6063bc499927e367e2abf5831ebf970f1333d19062e87997eaebbb46a8ded",
          "6a9706a7fe3675345bbae070044fe38be7d0be78a02f21f79f5bfe5895a5e76c"},
         // base ff..ff: exponent 0, 1, p-2, kExp256
         {"408a9e14b19f44ef1a763548b07eae4fd4dd3525b1595c9d103bca15310baa29",
          "d368815e2b89763612c47cf54389be5848c51524d31bee3acf334998c9721bee",
          "ed07350af0210fc076d149c4febfe1479f406cb923d9fc3dff99db18bb433db3",
          "7ff2fae198c73fda932d7bcf7bce808ee331e76204f85642be998802cac8ffbc"}}},
};

TEST(BigUint, PowModKnownAnswersForModpPrimes) {
  for (const PowModAnswers& answers : kPowModAnswers) {
    const DhParams& params = DhParams::get(answers.group);
    const BigUint& p = params.prime;
    std::string full;
    for (std::size_t i = 0; i < params.key_bytes; ++i) full += "a5";
    const BigUint bases[4] = {BigUint(), BigUint(2), from_hex_ok(full.c_str()),
                              from_hex_ok(std::string(params.key_bytes * 2, 'f')
                                              .c_str())};
    const BigUint exponents[4] = {BigUint(), BigUint(1), p.sub(BigUint(2)),
                                  from_hex_ok(kExp256)};
    for (int b = 0; b < 4; ++b) {
      for (int e = 0; e < 4; ++e) {
        auto r = bases[b].pow_mod(exponents[e], p);
        ASSERT_TRUE(r.ok());
        const util::Bytes bytes = r->to_bytes(params.key_bytes);
        const Sha256Digest digest =
            Sha256::hash(util::ByteSpan(bytes.data(), bytes.size()));
        EXPECT_EQ(util::to_hex(util::ByteSpan(digest.data(), digest.size())),
                  answers.digests[b][e])
            << p.bit_length() << "-bit prime, base #" << b << ", exponent #"
            << e << ": " << r->to_hex();
      }
    }
  }
}

util::Bytes rng_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes raw(n);
  for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next_u64());
  return raw;
}

BigUint random_biguint(util::Rng& rng, std::size_t bytes) {
  const util::Bytes raw = rng_bytes(rng, bytes);
  return BigUint::from_bytes(util::ByteSpan(raw.data(), raw.size()));
}

// Exactly `bits` significant bits (zero for bits == 0).
BigUint random_exponent(util::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigUint();
  const BigUint top = BigUint(1).shift_left(bits - 1);
  const BigUint low = random_biguint(rng, (bits + 7) / 8).mod(top).value();
  return top.add(low);
}

// Square-and-multiply on mul_mod, one exponent bit at a time: the
// reference pow_mod is checked against.
BigUint reference_pow_mod(const BigUint& base, const BigUint& exponent,
                          const BigUint& m) {
  const BigUint b = base.mod(m).value();
  BigUint result = BigUint(1).mod(m).value();
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = result.mul_mod(result, m).value();
    if (exponent.bit(i)) result = result.mul_mod(b, m).value();
  }
  return result;
}

TEST(BigUint, PowModMatchesReferenceOnOddModuli) {
  util::Rng rng(20);
  // Exponent lengths on and beside multiples of 4 bits and of the word
  // sizes, then random lengths up to 300 bits.
  const std::size_t fixed_bits[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33,
                                    63, 64, 65, 255, 256, 257, 299, 300};
  std::size_t checked = 0;
  for (std::size_t limbs = 1; limbs <= 70; ++limbs) {
    // A random odd modulus of exactly `limbs` limbs, then the widest
    // (all ones) and one with the smallest top limb (2^(32(limbs-1)) + 1).
    util::Bytes raw = rng_bytes(rng, limbs * 4);
    raw.front() |= 1;
    raw.back() |= 1;
    const BigUint moduli[3] = {
        BigUint::from_bytes(util::ByteSpan(raw.data(), raw.size())),
        BigUint(1).shift_left(32 * limbs).sub(BigUint(1)),
        limbs == 1 ? BigUint(3)
                   : BigUint(1).shift_left(32 * (limbs - 1)).add(BigUint(1))};
    for (const BigUint& m : moduli) {
      ASSERT_TRUE(m.is_odd());
      for (int round = 0; round < 2; ++round) {
        const std::size_t bits =
            round == 0 ? fixed_bits[limbs % std::size(fixed_bits)]
                       : static_cast<std::size_t>(rng.next_below(301));
        const BigUint e = random_exponent(rng, bits);
        ASSERT_EQ(e.bit_length(), bits);
        // Bases below m, up to twice m's width, and the edge values.
        const BigUint bases[5] = {
            random_biguint(rng, 1 + rng.next_below(limbs * 8)), BigUint(),
            BigUint(1), m.sub(BigUint(1)), m};
        for (const BigUint& base : bases) {
          auto r = base.pow_mod(e, m);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(r->to_hex(), reference_pow_mod(base, e, m).to_hex())
              << "base " << base.to_hex() << " exponent " << e.to_hex()
              << " modulus " << m.to_hex();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// The DH generator's comb against the pinned base-2 answers: exponents 0,
// 1 and kExp256 (p-2 is wider than the comb's 256 bits).
TEST(FixedBaseComb, KnownAnswersForModpGenerators) {
  constexpr int kBase2 = 1;
  for (const PowModAnswers& answers : kPowModAnswers) {
    const DhParams& params = DhParams::get(answers.group);
    ASSERT_EQ(params.generator.to_u64(), 2u);
    const std::pair<int, BigUint> exponents[] = {
        {0, BigUint()}, {1, BigUint(1)}, {3, from_hex_ok(kExp256)}};
    for (const auto& [e, exponent] : exponents) {
      auto r = params.generator_comb.pow(exponent);
      ASSERT_TRUE(r.ok());
      const util::Bytes bytes = r->to_bytes(params.key_bytes);
      const Sha256Digest digest =
          Sha256::hash(util::ByteSpan(bytes.data(), bytes.size()));
      EXPECT_EQ(util::to_hex(util::ByteSpan(digest.data(), digest.size())),
                answers.digests[kBase2][e])
          << params.prime.bit_length() << "-bit prime, exponent #" << e
          << ": " << r->to_hex();
    }
  }
}

// Exponents with set bits on the comb's row boundaries (every 32 bits) and
// its first and last column, the all-ones exponent, and random widths.
std::vector<BigUint> comb_exponents(util::Rng& rng) {
  std::vector<BigUint> out;
  BigUint all_edges;
  for (std::size_t bit : {0, 31, 32, 223, 224, 255}) {
    out.push_back(BigUint(1).shift_left(bit));
    all_edges = all_edges.add(out.back());
  }
  out.push_back(all_edges);
  out.push_back(BigUint(1).shift_left(256).sub(BigUint(1)));
  for (int i = 0; i < 40; ++i) {
    out.push_back(random_exponent(rng, rng.next_below(257)));
  }
  return out;
}

TEST(FixedBaseComb, MatchesPowModOnModpGenerators) {
  util::Rng rng(24);
  for (DhGroup group :
       {DhGroup::kModp768, DhGroup::kModp1536, DhGroup::kModp2048}) {
    const DhParams& params = DhParams::get(group);
    for (const BigUint& e : comb_exponents(rng)) {
      auto r = params.generator_comb.pow(e);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->to_hex(),
                params.generator.pow_mod(e, params.prime)->to_hex())
          << params.prime.bit_length() << "-bit prime, exponent "
          << e.to_hex();
    }
  }
}

// Any base and odd modulus, from one word up to past 2048 bits, including
// bases at and above the modulus.
TEST(FixedBaseComb, MatchesPowModOnOddModuli) {
  util::Rng rng(25);
  for (std::size_t limbs : {1, 2, 3, 7, 24, 65}) {
    util::Bytes raw = rng_bytes(rng, limbs * 4);
    raw.front() |= 0x80;
    raw.back() |= 1;
    const BigUint m = BigUint::from_bytes(util::ByteSpan(raw.data(), raw.size()));
    for (const BigUint& base :
         {random_biguint(rng, 1 + rng.next_below(limbs * 8)), BigUint(),
          BigUint(1), m.sub(BigUint(1)), m}) {
      auto comb = FixedBaseComb::build(base, m);
      ASSERT_TRUE(comb.ok());
      for (int i = 0; i < 6; ++i) {
        const BigUint e = random_exponent(rng, rng.next_below(257));
        auto r = comb->pow(e);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->to_hex(), base.pow_mod(e, m)->to_hex())
            << "base " << base.to_hex() << " exponent " << e.to_hex()
            << " modulus " << m.to_hex();
      }
    }
  }
}

TEST(FixedBaseComb, RejectsExponentWiderThanTable) {
  const FixedBaseComb& comb =
      DhParams::get(DhGroup::kModp768).generator_comb;
  const BigUint widest = BigUint(1).shift_left(256).sub(BigUint(1));
  EXPECT_TRUE(comb.pow(widest).ok());
  for (const BigUint& e : {BigUint(1).shift_left(256), widest.shift_left(1)}) {
    ASSERT_EQ(e.bit_length(), 257u);
    auto r = comb.pow(e);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(FixedBaseComb, RejectsEvenOrUnitModulus) {
  for (const BigUint& m : {BigUint(), BigUint(1), BigUint(2),
                           from_hex_ok("fffffffffffffffffffffffe")}) {
    auto comb = FixedBaseComb::build(BigUint(3), m);
    ASSERT_FALSE(comb.ok()) << m.to_hex();
    EXPECT_EQ(comb.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(BigUint, PowModZeroModulusRejected) {
  EXPECT_FALSE(BigUint(2).pow_mod(BigUint(10), BigUint()).ok());
}

TEST(BigUint, PowModEvenModulusRejected) {
  for (const BigUint& m : {BigUint(2), BigUint(1ULL << 40),
                           from_hex_ok("fffffffffffffffffffffffe")}) {
    auto r = BigUint(3).pow_mod(BigUint(5), m);
    ASSERT_FALSE(r.ok()) << m.to_hex();
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(BigUint, PowModModulusOne) {
  auto r = BigUint(5).pow_mod(BigUint(3), BigUint(1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_zero());
}

}  // namespace
}  // namespace naplet::crypto
