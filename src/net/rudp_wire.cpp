#include "net/rudp_wire.hpp"

#include <algorithm>

namespace naplet::net::wire {

util::Bytes encode(const Packet& packet) {
  const std::size_t n_sacks = std::min(packet.sacks.size(), kMaxSackRanges);
  util::BytesWriter w(packet.payload.size() + 37 + n_sacks * 16);
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(packet.type));
  w.u64(packet.seq);
  w.u64(packet.flow_id);
  w.u64(packet.flow_start);
  w.u8(static_cast<std::uint8_t>(n_sacks));
  for (std::size_t i = 0; i < n_sacks; ++i) {
    w.u64(packet.sacks[i].first);
    w.u64(packet.sacks[i].last);
  }
  w.u32(static_cast<std::uint32_t>(packet.payload.size()));
  w.raw(util::ByteSpan(packet.payload.data(), packet.payload.size()));
  w.u32(util::crc32(util::ByteSpan(w.data().data(), w.size())));
  return std::move(w).take();
}

std::optional<Packet> decode(util::ByteSpan data) {
  if (data.size() < 4 + 4) return std::nullopt;
  // CRC covers everything but the trailing CRC itself; verify first so no
  // field is trusted before the integrity check passes.
  util::BytesReader tail(data.subspan(data.size() - 4));
  const std::uint32_t stored = *tail.u32();
  if (stored != util::crc32(data.subspan(0, data.size() - 4))) {
    return std::nullopt;
  }

  util::BytesReader r(data.subspan(0, data.size() - 4));
  auto magic = r.u16();
  if (!magic.ok() || *magic != kMagic) return std::nullopt;
  auto version = r.u8();
  if (!version.ok() || *version != kVersion) return std::nullopt;
  auto type = r.u8();
  if (!type.ok() ||
      *type > static_cast<std::uint8_t>(PacketType::kAck)) {
    return std::nullopt;
  }

  Packet packet;
  packet.type = static_cast<PacketType>(*type);
  auto seq = r.u64();
  auto flow_id = r.u64();
  auto flow_start = r.u64();
  auto n_sacks = r.u8();
  if (!seq.ok() || !flow_id.ok() || !flow_start.ok() || !n_sacks.ok() ||
      *n_sacks > kMaxSackRanges) {
    return std::nullopt;
  }
  packet.seq = *seq;
  packet.flow_id = *flow_id;
  packet.flow_start = *flow_start;
  packet.sacks.reserve(*n_sacks);
  for (std::uint8_t i = 0; i < *n_sacks; ++i) {
    auto first = r.u64();
    auto last = r.u64();
    if (!first.ok() || !last.ok() || seq_lt(*last, *first)) {
      return std::nullopt;
    }
    packet.sacks.push_back(SackRange{*first, *last});
  }
  auto payload = r.bytes();
  if (!payload.ok() || !r.empty()) return std::nullopt;
  packet.payload = std::move(*payload);
  return packet;
}

std::vector<SackRange> build_sacks(std::vector<std::uint64_t> seqs,
                                   std::uint64_t base,
                                   std::size_t max_ranges) {
  std::vector<SackRange> ranges;
  if (seqs.empty() || max_ranges == 0) return ranges;
  // Sort by serial distance from base so wraparound does not split or
  // reorder ranges.
  std::sort(seqs.begin(), seqs.end(),
            [base](std::uint64_t a, std::uint64_t b) {
              return a - base < b - base;
            });
  for (const std::uint64_t seq : seqs) {
    if (!ranges.empty() && seq == ranges.back().last) continue;  // duplicate
    if (!ranges.empty() && seq == ranges.back().last + 1) {
      ranges.back().last = seq;
      continue;
    }
    if (ranges.size() == max_ranges) break;  // keep the ranges nearest base
    ranges.push_back(SackRange{seq, seq});
  }
  return ranges;
}

}  // namespace naplet::net::wire
