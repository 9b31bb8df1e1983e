#include "crypto/dh.hpp"

#include <cassert>

#include "crypto/random.hpp"

namespace naplet::crypto {

namespace {

// RFC 2409, Oakley Group 1 (768-bit).
constexpr const char* kPrime768 =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";

// RFC 3526, Group 5 (1536-bit).
constexpr const char* kPrime1536 =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";

// RFC 3526, Group 14 (2048-bit).
constexpr const char* kPrime2048 =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

DhParams make_params(const char* prime_hex, std::size_t key_bytes) {
  auto prime = BigUint::from_hex(prime_hex);
  assert(prime.ok());
  const BigUint generator(2);
  auto comb = FixedBaseComb::build(generator, *prime);
  assert(comb.ok());
  return DhParams{std::move(*prime), generator, key_bytes, std::move(*comb)};
}

}  // namespace

const DhParams& DhParams::get(DhGroup group) {
  // One static per group, so only the groups in use pay for a table.
  switch (group) {
    case DhGroup::kModp768: {
      static const DhParams modp768 = make_params(kPrime768, 96);
      return modp768;
    }
    case DhGroup::kModp1536: {
      static const DhParams modp1536 = make_params(kPrime1536, 192);
      return modp1536;
    }
    case DhGroup::kModp2048: break;
  }
  static const DhParams modp2048 = make_params(kPrime2048, 256);
  return modp2048;
}

util::StatusOr<DhKeyPair> DhKeyPair::generate(DhGroup group) {
  const DhParams& params = DhParams::get(group);

  // Private exponent: 256 random bits is ample for these group sizes.
  BigUint priv;
  do {
    priv = BigUint::from_bytes(random_bytes(32));
  } while (priv.bit_length() < 128);  // reject pathologically small draws

  auto pub = params.generator_comb.pow(priv);
  if (!pub.ok()) return pub.status();

  return DhKeyPair(group, std::move(priv), pub->to_bytes(params.key_bytes));
}

util::StatusOr<Sha256Digest> DhKeyPair::session_key(
    util::ByteSpan peer_public) const {
  const DhParams& params = DhParams::get(group_);
  const BigUint peer = BigUint::from_bytes(peer_public);

  // Reject degenerate public values that collapse the shared secret.
  if (peer.is_zero() || peer == BigUint(1) || peer >= params.prime ||
      peer == params.prime.sub(BigUint(1))) {
    return util::InvalidArgument("degenerate DH public value");
  }

  auto shared = peer.pow_mod(private_key_, params.prime);
  if (!shared.ok()) return shared.status();

  Sha256 hasher;
  const util::Bytes secret = shared->to_bytes(params.key_bytes);
  hasher.update(util::ByteSpan(secret.data(), secret.size()));
  hasher.update(std::string_view("naplet-session-v1"));
  return hasher.finish();
}

}  // namespace naplet::crypto
