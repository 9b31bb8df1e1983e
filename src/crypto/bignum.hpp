// Arbitrary-precision unsigned integers, sized for Diffie–Hellman work
// (512–2048 bit MODP groups). Little-endian 32-bit limbs, normalized so the
// most significant limb is nonzero (zero is the empty limb vector).
//
// Implemented from scratch: schoolbook multiply, Knuth Algorithm D division,
// and modular exponentiation by Montgomery multiplication (CIOS form on
// 64-bit words) over a fixed 4-bit window, for odd moduli. Every window
// squares four times and multiplies once, but the window-table lookup and
// Montgomery's final subtraction depend on the data, so it is not constant
// time — acceptable for a research reproduction; noted in DESIGN.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::crypto {

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t v);

  /// Parse a (case-insensitive) hex string, most significant digit first.
  static util::StatusOr<BigUint> from_hex(std::string_view hex);
  /// Parse big-endian bytes.
  static BigUint from_bytes(util::ByteSpan data);

  [[nodiscard]] std::string to_hex() const;
  /// Big-endian bytes, no leading zeros (empty for zero). If `min_size` is
  /// nonzero the output is left-padded with zeros to at least that size.
  [[nodiscard]] util::Bytes to_bytes(std::size_t min_size = 0) const;

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const noexcept {
    return !limbs_.empty() && (limbs_[0] & 1);
  }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  [[nodiscard]] std::uint64_t to_u64() const noexcept;

  // Comparison: total order.
  [[nodiscard]] int compare(const BigUint& other) const noexcept;
  friend bool operator==(const BigUint& a, const BigUint& b) noexcept {
    return a.compare(b) == 0;
  }
  friend auto operator<=>(const BigUint& a, const BigUint& b) noexcept {
    return a.compare(b) <=> 0;
  }

  [[nodiscard]] BigUint add(const BigUint& other) const;
  /// Requires *this >= other (asserts in debug builds).
  [[nodiscard]] BigUint sub(const BigUint& other) const;
  [[nodiscard]] BigUint mul(const BigUint& other) const;
  [[nodiscard]] BigUint shift_left(std::size_t bits) const;
  [[nodiscard]] BigUint shift_right(std::size_t bits) const;

  struct DivMod;
  /// Division with remainder; error on divide-by-zero.
  [[nodiscard]] util::StatusOr<DivMod> divmod(const BigUint& divisor) const;
  [[nodiscard]] util::StatusOr<BigUint> mod(const BigUint& modulus) const;

  /// (this * other) mod m.
  [[nodiscard]] util::StatusOr<BigUint> mul_mod(const BigUint& other,
                                                const BigUint& m) const;
  /// this^exponent mod m. m must be odd, as every DH prime is: a zero or
  /// an even modulus above 1 is rejected, and m == 1 yields 0.
  [[nodiscard]] util::StatusOr<BigUint> pow_mod(const BigUint& exponent,
                                                const BigUint& m) const;

 private:
  void normalize() noexcept;

  std::vector<std::uint32_t> limbs_;  // little-endian
};

struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

}  // namespace naplet::crypto
