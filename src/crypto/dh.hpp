// Diffie–Hellman key agreement (paper §3.3).
//
// At connection setup, the two NapletSocket controllers run DH to establish
// a secret session key; every later suspend/resume/close request must carry
// an HMAC under that key, protecting connection migration from hijack and
// eavesdropper-driven replay.
//
// Groups are the standard MODP groups (RFC 2409 / RFC 3526) with generator
// 2. ControllerConfig::dh_group defaults to the 768-bit group, which keeps
// tests and perfbench fast; the paper benches (BenchRealm) run 2048-bit,
// the size to choose where the key's secrecy matters.
//
// Key generation raises the generator through the group's FixedBaseComb
// (bignum.hpp), built the first time the group is used: 24, 48 or 64 KiB,
// 31 squarings per public value instead of pow_mod's 256. The session key
// raises the peer's value, a variable base, through pow_mod. Neither is
// constant time: the comb's column index and the window index come from
// secret exponent bits.
#pragma once

#include <cstdint>

#include "crypto/bignum.hpp"
#include "crypto/sha256.hpp"
#include "util/status.hpp"

namespace naplet::crypto {

/// Named MODP group.
enum class DhGroup : std::uint8_t {
  kModp768 = 1,   // RFC 2409 Oakley Group 1 — ControllerConfig default
  kModp1536 = 5,  // RFC 3526 Group 5
  kModp2048 = 14, // RFC 3526 Group 14 — the paper benches' group
};

struct DhParams {
  BigUint prime;
  BigUint generator;
  std::size_t key_bytes;  // size of the wire encoding of public values
  FixedBaseComb generator_comb;  // generator^e mod prime, e up to 256 bits

  /// The group's parameters, built (comb table included) on its first use;
  /// thread-safe.
  static const DhParams& get(DhGroup group);
};

/// One side's ephemeral DH state.
class DhKeyPair {
 public:
  /// Generate a fresh private/public pair in the given group.
  static util::StatusOr<DhKeyPair> generate(DhGroup group);

  /// Public value to send to the peer (fixed-width big-endian).
  [[nodiscard]] const util::Bytes& public_value() const noexcept {
    return public_bytes_;
  }

  /// Combine with the peer's public value; returns the 32-byte session key
  /// SHA-256(shared-secret || label). Rejects degenerate peer values
  /// (0, 1, p-1, >= p) which would void the secrecy.
  [[nodiscard]] util::StatusOr<Sha256Digest> session_key(
      util::ByteSpan peer_public) const;

  [[nodiscard]] DhGroup group() const noexcept { return group_; }

 private:
  DhKeyPair(DhGroup group, BigUint private_key, util::Bytes public_bytes)
      : group_(group),
        private_key_(std::move(private_key)),
        public_bytes_(std::move(public_bytes)) {}

  DhGroup group_;
  BigUint private_key_;
  util::Bytes public_bytes_;
};

}  // namespace naplet::crypto
