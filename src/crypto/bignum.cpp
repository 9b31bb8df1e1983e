#include "crypto/bignum.hpp"

#include <algorithm>
#include <cassert>

namespace naplet::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;

int hex_nibble(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

__extension__ typedef unsigned __int128 u128;

/// Little-endian 32-bit limbs into 64-bit words; `out` is zero-filled
/// past the value.
void pack_words(const std::vector<std::uint32_t>& limbs, std::uint64_t* out) {
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs[i]) << (32 * (i % 2));
  }
}

/// -m0^-1 mod 2^64 for odd m0, by Newton's iteration: m0 is its own
/// inverse mod 8, and each step doubles the correct low bits.
std::uint64_t neg_inverse_mod_word(std::uint64_t m0) noexcept {
  std::uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

/// out = a * b * 2^(-64n) mod m: Montgomery multiplication in CIOS form
/// (Koç, Acar and Kaliski, "Analyzing and Comparing Montgomery
/// Multiplication Algorithms", 1996). a, b < m; out may alias either.
/// `t` is n + 2 words of scratch.
void mont_mul(std::uint64_t* out, const std::uint64_t* a,
              const std::uint64_t* b, const std::uint64_t* m,
              std::uint64_t m_inv, std::size_t n, std::uint64_t* t) noexcept {
  std::fill(t, t + n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // t += a * b[i]
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(cur);
    t[n + 1] = static_cast<std::uint64_t>(cur >> 64);

    // t = (t + q * m) / 2^64, with q chosen so the low word cancels.
    const std::uint64_t q = t[0] * m_inv;
    cur = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<std::uint64_t>(cur >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(cur);
    t[n] = t[n + 1] + static_cast<std::uint64_t>(cur >> 64);
  }

  // t < 2m: subtract m once unless that borrows out of t[n].
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - m[j] - borrow;
    out[j] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
  }
  if (borrow > t[n]) std::copy(t, t + n, out);
}
}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUint::normalize() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

util::StatusOr<BigUint> BigUint::from_hex(std::string_view hex) {
  if (hex.empty()) return util::InvalidArgument("empty hex string");
  BigUint out;
  // Parse from the least significant end, 8 hex digits per limb.
  std::size_t end = hex.size();
  while (end > 0) {
    const std::size_t begin = end >= 8 ? end - 8 : 0;
    std::uint32_t limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const int nib = hex_nibble(hex[i]);
      if (nib < 0) return util::InvalidArgument("non-hex character");
      limb = limb << 4 | static_cast<std::uint32_t>(nib);
    }
    out.limbs_.push_back(limb);
    end = begin;
  }
  out.normalize();
  return out;
}

BigUint BigUint::from_bytes(util::ByteSpan data) {
  BigUint out;
  // data is big-endian; consume from the tail 4 bytes at a time.
  std::size_t end = data.size();
  while (end > 0) {
    const std::size_t begin = end >= 4 ? end - 4 : 0;
    std::uint32_t limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      limb = limb << 8 | data[i];
    }
    out.limbs_.push_back(limb);
    end = begin;
  }
  out.normalize();
  return out;
}

std::string BigUint::to_hex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(limbs_.size() * 8);
  // Most significant limb without leading zeros.
  std::uint32_t top = limbs_.back();
  bool started = false;
  for (int shift = 28; shift >= 0; shift -= 4) {
    const unsigned nib = (top >> shift) & 0xF;
    if (nib != 0 || started) {
      out.push_back(kDigits[nib]);
      started = true;
    }
  }
  for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  return out;
}

util::Bytes BigUint::to_bytes(std::size_t min_size) const {
  util::Bytes out;
  if (!limbs_.empty()) {
    // Most significant limb: skip leading zero bytes.
    std::uint32_t top = limbs_.back();
    bool started = false;
    for (int shift = 24; shift >= 0; shift -= 8) {
      const std::uint8_t b = static_cast<std::uint8_t>(top >> shift);
      if (b != 0 || started) {
        out.push_back(b);
        started = true;
      }
    }
    for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        out.push_back(static_cast<std::uint8_t>(limbs_[i] >> shift));
      }
    }
  }
  if (out.size() < min_size) {
    out.insert(out.begin(), min_size - out.size(), 0);
  }
  return out;
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUint::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUint::to_u64() const noexcept {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigUint::compare(const BigUint& other) const noexcept {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint BigUint::add(const BigUint& other) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUint BigUint::sub(const BigUint& other) const {
  assert(compare(other) >= 0 && "BigUint::sub underflow");
  BigUint out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.normalize();
  return out;
}

BigUint BigUint::mul(const BigUint& other) const {
  if (is_zero() || other.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const std::uint64_t cur =
          out.limbs_[i + j] + a * other.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + other.limbs_.size();
    while (carry) {
      const std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigUint BigUint::shift_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.normalize();
  return out;
}

BigUint BigUint::shift_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUint();
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.normalize();
  return out;
}

util::StatusOr<BigUint::DivMod> BigUint::divmod(const BigUint& divisor) const {
  if (divisor.is_zero()) return util::InvalidArgument("division by zero");
  if (compare(divisor) < 0) return DivMod{BigUint(), *this};

  // Single-limb divisor: simple short division.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigUint q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = rem << 32 | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return DivMod{std::move(q), BigUint(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, making quotient-digit estimation accurate to within 2.
  const std::size_t shift = 32 - (divisor.bit_length() % 32 == 0
                                      ? 32
                                      : divisor.bit_length() % 32);
  const BigUint u = shift_left(shift);
  const BigUint v = divisor.shift_left(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra high limb for the algorithm
  const std::vector<std::uint32_t>& vn = v.limbs_;

  BigUint q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat from the top two limbs of the current remainder.
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t q_hat = numerator / vn[n - 1];
    std::uint64_t r_hat = numerator % vn[n - 1];

    while (q_hat >= kBase ||
           q_hat * vn[n - 2] > ((r_hat << 32) | un[j + n - 2])) {
      --q_hat;
      r_hat += vn[n - 1];
      if (r_hat >= kBase) break;
    }

    // Multiply-and-subtract q_hat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * vn[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(un[i + j]) -
                          static_cast<std::int64_t>(product & 0xFFFFFFFF) -
                          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      un[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(un[j + n]) -
                        static_cast<std::int64_t>(carry) - borrow;
    if (diff < 0) {
      // q_hat was one too large: add v back and decrement.
      diff += static_cast<std::int64_t>(kBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + add_carry;
        un[i + j] = static_cast<std::uint32_t>(sum);
        add_carry = sum >> 32;
      }
      diff += static_cast<std::int64_t>(add_carry);
    }
    un[j + n] = static_cast<std::uint32_t>(diff);
    q.limbs_[j] = static_cast<std::uint32_t>(q_hat);
  }
  q.normalize();

  BigUint r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.normalize();
  r = r.shift_right(shift);
  return DivMod{std::move(q), std::move(r)};
}

util::StatusOr<BigUint> BigUint::mod(const BigUint& modulus) const {
  auto dm = divmod(modulus);
  if (!dm.ok()) return dm.status();
  return std::move(dm->remainder);
}

util::StatusOr<BigUint> BigUint::mul_mod(const BigUint& other,
                                         const BigUint& m) const {
  return mul(other).mod(m);
}

util::StatusOr<BigUint> BigUint::pow_mod(const BigUint& exponent,
                                         const BigUint& m) const {
  if (m.is_zero()) return util::InvalidArgument("pow_mod with zero modulus");
  if (m.bit_length() == 1) return BigUint();  // mod 1 == 0
  if (!m.is_odd()) return util::InvalidArgument("pow_mod needs an odd modulus");

  // Montgomery form over n 64-bit words: x is held as xR mod m, R = 2^(64n).
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  auto r2_mod = BigUint(1).shift_left(128 * n).mod(m);
  if (!r2_mod.ok()) return r2_mod.status();
  auto base_or = mod(m);
  if (!base_or.ok()) return base_or.status();

  // One allocation: the modulus, R^2 mod m, plain 1, the 16-entry window
  // table, the accumulator and the CIOS scratch row.
  std::vector<std::uint64_t> words(n * 21 + 2, 0);
  std::uint64_t* const mod_w = words.data();
  std::uint64_t* const r2 = mod_w + n;
  std::uint64_t* const one = r2 + n;
  std::uint64_t* const table = one + n;
  std::uint64_t* const acc = table + 16 * n;
  std::uint64_t* const t = acc + n;
  pack_words(m.limbs_, mod_w);
  pack_words(r2_mod->limbs_, r2);
  one[0] = 1;
  const std::uint64_t m_inv = neg_inverse_mod_word(mod_w[0]);

  // table[i] = base^i in Montgomery form. table[0] is R mod m, so every
  // window multiplies, including the zero windows.
  mont_mul(table, r2, one, mod_w, m_inv, n, t);
  pack_words(base_or->limbs_, table + n);
  mont_mul(table + n, table + n, r2, mod_w, m_inv, n, t);
  for (std::size_t i = 2; i < 16; ++i) {
    mont_mul(table + i * n, table + (i - 1) * n, table + n, mod_w, m_inv, n,
             t);
  }

  // Fixed 4-bit windows, most significant first. A window never straddles
  // two 32-bit limbs.
  std::copy(table, table + n, acc);
  for (std::size_t w = (exponent.bit_length() + 3) / 4; w-- > 0;) {
    for (int k = 0; k < 4; ++k) mont_mul(acc, acc, acc, mod_w, m_inv, n, t);
    const std::size_t bit = w * 4;
    const std::uint32_t window =
        (exponent.limbs_[bit / 32] >> (bit % 32)) & 0xF;
    mont_mul(acc, acc, table + window * n, mod_w, m_inv, n, t);
  }
  mont_mul(acc, acc, one, mod_w, m_inv, n, t);  // leave Montgomery form
  return from_words(acc, n);
}

BigUint BigUint::from_words(const std::uint64_t* words, std::size_t n) {
  BigUint out;
  out.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(words[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(words[i] >> 32);
  }
  out.normalize();
  return out;
}

util::StatusOr<FixedBaseComb> FixedBaseComb::build(const BigUint& base,
                                                   const BigUint& m) {
  if (m.bit_length() < 2 || !m.is_odd()) {
    return util::InvalidArgument("comb needs an odd modulus above 1");
  }
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  auto r2_mod = BigUint(1).shift_left(128 * n).mod(m);
  if (!r2_mod.ok()) return r2_mod.status();
  auto base_or = base.mod(m);
  if (!base_or.ok()) return base_or.status();

  constexpr std::size_t kEntries = std::size_t{1} << kRows;
  std::vector<std::uint64_t> words(n * (1 + kEntries), 0);
  std::uint64_t* const mod_w = words.data();
  std::uint64_t* const table = mod_w + n;
  pack_words(m.limbs_, mod_w);
  const std::uint64_t m_inv = neg_inverse_mod_word(mod_w[0]);

  // R^2 mod m, plain 1 and the CIOS scratch row, needed only while building.
  std::vector<std::uint64_t> scratch(3 * n + 2, 0);
  std::uint64_t* const r2 = scratch.data();
  std::uint64_t* const one = r2 + n;
  std::uint64_t* const t = one + n;
  pack_words(r2_mod->limbs_, r2);
  one[0] = 1;

  // table[0] = R mod m (Montgomery 1); table[2^i] = base^(2^(32i)), each
  // row's generator 32 squarings above the last; every other entry is the
  // product of its lowest set bit's entry and the rest.
  mont_mul(table, r2, one, mod_w, m_inv, n, t);
  pack_words(base_or->limbs_, table + n);
  mont_mul(table + n, table + n, r2, mod_w, m_inv, n, t);
  for (std::size_t row = 1; row < kRows; ++row) {
    const std::uint64_t* const prev =
        table + (std::size_t{1} << (row - 1)) * n;
    std::uint64_t* const entry = table + (std::size_t{1} << row) * n;
    std::copy(prev, prev + n, entry);
    for (std::size_t k = 0; k < kColumns; ++k) {
      mont_mul(entry, entry, entry, mod_w, m_inv, n, t);
    }
  }
  for (std::size_t k = 3; k < kEntries; ++k) {
    const std::size_t low = k & (~k + 1);
    if (low == k) continue;
    mont_mul(table + k * n, table + (k - low) * n, table + low * n, mod_w,
             m_inv, n, t);
  }
  return FixedBaseComb(n, m_inv, std::move(words));
}

util::StatusOr<BigUint> FixedBaseComb::pow(const BigUint& exponent) const {
  if (exponent.bit_length() > kMaxExponentBits) {
    return util::InvalidArgument("exponent wider than the comb table");
  }
  // Row i of the comb is the exponent's 32-bit limb i.
  std::uint32_t rows[kRows] = {};
  std::copy(exponent.limbs_.begin(), exponent.limbs_.end(), rows);
  const auto column = [&rows](std::size_t j) {
    std::size_t index = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      index |= static_cast<std::size_t>((rows[i] >> j) & 1) << i;
    }
    return index;
  };

  const std::size_t n = n_;
  const std::uint64_t* const mod_w = words_.data();
  const std::uint64_t* const table = mod_w + n;
  // The accumulator, plain 1 and the CIOS scratch row.
  std::vector<std::uint64_t> scratch(3 * n + 2, 0);
  std::uint64_t* const acc = scratch.data();
  std::uint64_t* const one = acc + n;
  std::uint64_t* const t = one + n;
  one[0] = 1;

  // Most significant column first. table[0] is Montgomery 1, so every
  // column multiplies, including the all-zero ones.
  const std::uint64_t* const top = table + column(kColumns - 1) * n;
  std::copy(top, top + n, acc);
  for (std::size_t j = kColumns - 1; j-- > 0;) {
    mont_mul(acc, acc, acc, mod_w, m_inv_, n, t);
    mont_mul(acc, acc, table + column(j) * n, mod_w, m_inv_, n, t);
  }
  mont_mul(acc, acc, one, mod_w, m_inv_, n, t);  // leave Montgomery form
  return BigUint::from_words(acc, n);
}

}  // namespace naplet::crypto
