#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <string_view>

namespace naplet::util {
namespace {

TEST(Crc32, CheckValue) {
  const std::string_view check = "123456789";
  EXPECT_EQ(crc32(ByteSpan(reinterpret_cast<const std::uint8_t*>(check.data()),
                           check.size())),
            0xCBF43926U);
  EXPECT_EQ(crc32(ByteSpan()), 0U);
}

// Every length from 0 to 1,024 at every start offset mod 8 against a
// bit-at-a-time reference over the same reflected IEEE polynomial.
TEST(Crc32, MatchesBitwiseReference) {
  Bytes buf(1024 + 8);
  std::uint32_t x = 0x9E3779B9U;
  for (auto& b : buf) {
    x = x * 1664525U + 1013904223U;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint32_t state = 0xFFFFFFFFU;  // reference CRC of buf[offset, len)
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32(ByteSpan(buf.data() + offset, len)),
                state ^ 0xFFFFFFFFU)
          << "offset " << offset << " length " << len;
      state ^= buf[offset + len];
      for (int bit = 0; bit < 8; ++bit) {
        state = (state >> 1) ^ (0xEDB88320U & (0U - (state & 1U)));
      }
    }
  }
}

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  EXPECT_EQ(to_hex(ByteSpan(data.data(), data.size())), "0001abcdefff");
  auto back = from_hex("0001abcdefff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex({}), "");
  auto empty = from_hex("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(Hex, UppercaseAccepted) {
  auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(to_hex(ByteSpan(v->data(), v->size())), "deadbeef");
}

TEST(Hex, OddLengthRejected) {
  EXPECT_FALSE(from_hex("abc").ok());
  EXPECT_EQ(from_hex("abc").status().code(), StatusCode::kInvalidArgument);
}

TEST(Hex, NonHexRejected) {
  EXPECT_FALSE(from_hex("zz").ok());
  EXPECT_FALSE(from_hex("0g").ok());
}

TEST(ConstantTimeEqual, Basics) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(equal_constant_time(ByteSpan(a.data(), a.size()),
                                  ByteSpan(b.data(), b.size())));
  EXPECT_FALSE(equal_constant_time(ByteSpan(a.data(), a.size()),
                                   ByteSpan(c.data(), c.size())));
  EXPECT_FALSE(equal_constant_time(ByteSpan(a.data(), a.size()),
                                   ByteSpan(d.data(), d.size())));
  EXPECT_TRUE(equal_constant_time({}, {}));
}

TEST(BytesWriter, NetworkByteOrder) {
  BytesWriter w;
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  const Bytes& out = w.data();
  ASSERT_EQ(out.size(), 14u);
  EXPECT_EQ(out[0], 0x12);
  EXPECT_EQ(out[1], 0x34);
  EXPECT_EQ(out[2], 0xDE);
  EXPECT_EQ(out[5], 0xEF);
  EXPECT_EQ(out[6], 0x01);
  EXPECT_EQ(out[13], 0x08);
}

TEST(BytesRoundTrip, AllPrimitives) {
  BytesWriter w;
  w.u8(0xAB);
  w.u16(65535);
  w.u32(4000000000u);
  w.u64(0xFFFFFFFFFFFFFFFFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.bytes(Bytes{9, 8, 7});

  BytesReader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 65535);
  EXPECT_EQ(*r.u32(), 4000000000u);
  EXPECT_EQ(*r.u64(), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(*r.i64(), -42);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.14159);
  EXPECT_TRUE(*r.boolean());
  EXPECT_FALSE(*r.boolean());
  EXPECT_EQ(*r.str(), "hello");
  EXPECT_EQ(*r.bytes(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.empty());
}

TEST(BytesReader, UnderflowIsError) {
  const Bytes data = {1, 2};
  BytesReader r(ByteSpan(data.data(), data.size()));
  auto v = r.u32();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
  // Position unchanged after failed read.
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(*r.u16(), 0x0102);
}

TEST(BytesReader, LengthPrefixedUnderflow) {
  BytesWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.raw("abc", 3);
  BytesReader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_FALSE(r.bytes().ok());
}

TEST(BytesReader, SkipAndPosition) {
  const Bytes data = {1, 2, 3, 4, 5};
  BytesReader r(ByteSpan(data.data(), data.size()));
  EXPECT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(*r.u8(), 3);
  EXPECT_FALSE(r.skip(10).ok());
}

TEST(BytesWriter, PatchU32) {
  BytesWriter w;
  w.u32(0);  // placeholder
  w.str("payload");
  w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
  BytesReader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(*r.u32(), w.size());
}

TEST(BytesWriter, EmptyStringAndBytes) {
  BytesWriter w;
  w.str("");
  w.bytes({});
  BytesReader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(*r.str(), "");
  EXPECT_TRUE(r.bytes()->empty());
  EXPECT_TRUE(r.empty());
}

class U64RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U64RoundTrip, Exact) {
  BytesWriter w;
  w.u64(GetParam());
  BytesReader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(*r.u64(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, U64RoundTrip,
    ::testing::Values(0ULL, 1ULL, 0xFFULL, 0x100ULL, 0xFFFFFFFFULL,
                      0x100000000ULL, 0x7FFFFFFFFFFFFFFFULL,
                      0xFFFFFFFFFFFFFFFFULL));

}  // namespace
}  // namespace naplet::util
