// Arbitrary-precision unsigned integers, sized for Diffie–Hellman work
// (512–2048 bit MODP groups). Little-endian 32-bit limbs, normalized so the
// most significant limb is nonzero (zero is the empty limb vector).
//
// Implemented from scratch: schoolbook multiply, Knuth Algorithm D division,
// and modular exponentiation by Montgomery multiplication (CIOS form on
// 64-bit words), for odd moduli. A variable base goes through pow_mod's
// fixed 4-bit window; a fixed base (the DH generator) goes through
// FixedBaseComb's precomputed table. Both square and multiply on a fixed
// schedule, but the table lookups and Montgomery's final subtraction depend
// on the data (the lookups on secret exponent bits), so neither is constant
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
  friend class FixedBaseComb;

  void normalize() noexcept;
  /// The value of n little-endian 64-bit words.
  static BigUint from_words(const std::uint64_t* words, std::size_t n);

  std::vector<std::uint32_t> limbs_;  // little-endian
};

struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

/// base^e mod m for one fixed base and exponents of up to 256 bits: a
/// fixed-base comb (Lim and Lee, "More Flexible Exponentiation with
/// Precomputation", CRYPTO '94). The exponent is read as 8 rows of 32 bits
/// (row i is bits 32i..32i+31); column j gathers bit j of every row into an
/// 8-bit index. Entry k of the 256-entry table is the product of
/// base^(2^(32i)) over the set bits i of k, in Montgomery form, so pow()
/// costs 31 squarings and 32 multiplications whatever the exponent (the
/// last one leaves Montgomery form). The table holds 256 values of the
/// modulus's width: 24, 48 and 64 KiB for the 768-, 1536- and 2048-bit
/// MODP primes. Immutable once built, so one table serves concurrent
/// callers.
class FixedBaseComb {
 public:
  static constexpr std::size_t kRows = 8;
  static constexpr std::size_t kColumns = 32;
  static constexpr std::size_t kMaxExponentBits = kRows * kColumns;

  /// Precompute the table for `base` mod `m`. m must be odd and above 1.
  static util::StatusOr<FixedBaseComb> build(const BigUint& base,
                                             const BigUint& m);

  /// base^exponent mod m. An exponent wider than kMaxExponentBits is
  /// rejected with InvalidArgument.
  [[nodiscard]] util::StatusOr<BigUint> pow(const BigUint& exponent) const;

 private:
  FixedBaseComb(std::size_t n, std::uint64_t m_inv,
                std::vector<std::uint64_t> words)
      : n_(n), m_inv_(m_inv), words_(std::move(words)) {}

  std::size_t n_;                     // 64-bit words per value
  std::uint64_t m_inv_;               // -m^-1 mod 2^64
  std::vector<std::uint64_t> words_;  // the modulus, then the table
};

}  // namespace naplet::crypto
