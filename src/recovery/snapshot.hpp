// Point-in-time checkpoint of the durable session map, written atomically
// (tmp file + fsync + rename + directory fsync) so a crash mid-compaction
// leaves either the old snapshot or the new one, never neither.
//
//   u32 magic 'NPLS' | u32 version | u64 epoch | u32 count |
//   count x (u64 conn_id | bytes session blob) | u32 crc32(everything above)
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/bytes.hpp"
#include "util/serial.hpp"
#include "util/status.hpp"

namespace naplet::recovery {

struct SnapshotData {
  std::uint64_t epoch = 0;
  std::map<std::uint64_t, util::Bytes> sessions;

  /// Everything the CRC covers: magic, version, epoch, sessions.
  void persist(util::Archive& ar);
};

class Snapshot {
 public:
  /// Atomically and durably replace the snapshot at `path`; returns the
  /// snapshot's size in bytes.
  static util::StatusOr<std::uint64_t> write(const std::string& path,
                                             const SnapshotData& data);

  /// kNotFound when absent, kProtocolError on any corruption (bad magic,
  /// truncation, CRC mismatch) — the caller decides how to degrade.
  static util::StatusOr<SnapshotData> read(const std::string& path);
};

}  // namespace naplet::recovery
