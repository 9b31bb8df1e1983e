// Versioned wire format for the rudp control channel (paper §3.5, rebuilt
// for the pipelined sliding-window transport).
//
// Packet layout (all integers big-endian, via BytesWriter):
//
//   u16 magic 'NS' | u8 version(3) | u8 type | u64 seq | u64 flow_id |
//   u64 flow_start | u8 sack_count | sack_count x (u64 first, u64 last) |
//   u32 payload_len | payload | u32 crc32(everything above)
//
// Version 3 dropped the ten bytes of XOR-FEC group fields that v2 carried
// after flow_start, and v2's PARITY type; a v2 frame is rejected like a
// foreign one.
//
// Field meaning by type:
//   DATA    seq = packet sequence; flow_id identifies this sender
//           incarnation (a restarted channel reusing the endpoint resets
//           the receiver state instead of colliding with the old flow's
//           dedup window); flow_start = first seq of the flow (lets the
//           receiver initialise its cumulative ack without a handshake).
//   ACK     seq = cumulative ack (every seq serially <= it is delivered);
//           sacks = up to kMaxSackRanges of out-of-order received ranges.
//
// Sequence numbers are compared with serial arithmetic (RFC 1982 style) so
// flows survive wraparound at 2^64; the codec rejects any packet whose CRC
// does not match — a flipped bit anywhere downgrades the packet to a loss,
// which the retransmit machinery already repairs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace naplet::net::wire {

inline constexpr std::uint16_t kMagic = 0x4E53;  // "NS"
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kMaxSackRanges = 4;

enum class PacketType : std::uint8_t {
  kData = 0,
  kAck = 1,
};

/// Serial (wraparound-safe) sequence comparison: a < b iff the signed
/// distance from b to a is negative. Valid while live seqs span < 2^63.
[[nodiscard]] constexpr bool seq_lt(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(a - b) < 0;
}
[[nodiscard]] constexpr bool seq_le(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(a - b) <= 0;
}

/// Inclusive range of received-out-of-order seqs in an ACK.
struct SackRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;

  friend bool operator==(const SackRange&, const SackRange&) = default;
};

struct Packet {
  PacketType type = PacketType::kData;
  std::uint64_t seq = 0;
  std::uint64_t flow_id = 0;
  std::uint64_t flow_start = 0;
  std::vector<SackRange> sacks;
  util::Bytes payload;
};

/// Encode with trailing CRC. sacks beyond kMaxSackRanges are dropped.
[[nodiscard]] util::Bytes encode(const Packet& packet);

/// Decode and verify; nullopt for foreign, truncated, or corrupt packets
/// (the caller treats all three as "not ours / lost").
[[nodiscard]] std::optional<Packet> decode(util::ByteSpan data);

/// Coalesce out-of-order seqs (any order, duplicates allowed) into at most
/// `max_ranges` inclusive ranges, sorted serially relative to `base` (the
/// receiver's cumulative ack + 1). Ranges nearest the cumulative ack are
/// kept — they are the ones the sender's gap detector acts on.
[[nodiscard]] std::vector<SackRange> build_sacks(
    std::vector<std::uint64_t> seqs, std::uint64_t base,
    std::size_t max_ranges = kMaxSackRanges);

}  // namespace naplet::net::wire
