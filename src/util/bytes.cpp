#include "util/bytes.hpp"

#include <array>
#include <bit>

namespace naplet::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

// Slice-by-8 tables for the reflected IEEE polynomial: table[0] is the
// classic byte-at-a-time table, and table[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups consume eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFU] ^ (prev >> 8U);
    }
  }
  return tables;
}

int hex_nibble(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::uint32_t crc32(ByteSpan data) noexcept {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // Assembled byte by byte, so the result does not depend on the host's
    // byte order or the buffer's alignment.
    const std::uint32_t lo = c ^ (std::uint32_t{p[0]} |
                                  std::uint32_t{p[1]} << 8U |
                                  std::uint32_t{p[2]} << 16U |
                                  std::uint32_t{p[3]} << 24U);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^
        t[5][(lo >> 16U) & 0xFFU] ^ t[4][lo >> 24U] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8U);
  }
  return c ^ 0xFFFFFFFFU;
}

std::string to_hex(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

StatusOr<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

bool equal_constant_time(ByteSpan a, ByteSpan b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void BytesWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BytesWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BytesWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void BytesWriter::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  u64(std::bit_cast<std::uint64_t>(v));
}

void BytesWriter::bytes(ByteSpan data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void BytesWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void BytesWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 24);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v >> 16);
  buf_.at(offset + 2) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 3) = static_cast<std::uint8_t>(v);
}

Status BytesReader::need(std::size_t n) const {
  if (remaining() < n) {
    return OutOfRange("buffer underflow: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
  return OkStatus();
}

StatusOr<std::uint8_t> BytesReader::u8() {
  NAPLET_RETURN_IF_ERROR(need(1));
  return data_[pos_++];
}

StatusOr<std::uint16_t> BytesReader::u16() {
  NAPLET_RETURN_IF_ERROR(need(2));
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

StatusOr<std::uint32_t> BytesReader::u32() {
  NAPLET_RETURN_IF_ERROR(need(4));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 4;
  return v;
}

StatusOr<std::uint64_t> BytesReader::u64() {
  NAPLET_RETURN_IF_ERROR(need(8));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

StatusOr<std::int64_t> BytesReader::i64() {
  auto v = u64();
  if (!v.ok()) return v.status();
  return static_cast<std::int64_t>(*v);
}

StatusOr<double> BytesReader::f64() {
  auto v = u64();
  if (!v.ok()) return v.status();
  return std::bit_cast<double>(*v);
}

StatusOr<bool> BytesReader::boolean() {
  auto v = u8();
  if (!v.ok()) return v.status();
  return *v != 0;
}

StatusOr<Bytes> BytesReader::raw(std::size_t n) {
  NAPLET_RETURN_IF_ERROR(need(n));
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

StatusOr<Bytes> BytesReader::bytes() {
  auto n = u32();
  if (!n.ok()) return n.status();
  return raw(*n);
}

StatusOr<std::string> BytesReader::str() {
  auto b = bytes();
  if (!b.ok()) return b.status();
  return std::string(b->begin(), b->end());
}

Status BytesReader::skip(std::size_t n) {
  NAPLET_RETURN_IF_ERROR(need(n));
  pos_ += n;
  return OkStatus();
}

}  // namespace naplet::util
