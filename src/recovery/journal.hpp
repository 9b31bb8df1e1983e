// Crash durability for the migration control plane: an fsync'd
// append-only write-ahead journal of session state at protocol commit
// points, plus the DurableStore that coordinates journal + snapshot into
// a recoverable session map with monotonic incarnation epochs.
//
// Layout on disk (all integers big-endian, via BytesWriter):
//
//   journal header:  u32 magic 'NPLJ' | u32 version | u64 epoch |
//                    u32 crc32(first 16 bytes)
//   journal record:  u32 body_len | body | u32 crc32(body)
//     body:          u8 commit point | u64 conn_id | raw session blob
//
// Replay stops at the first truncated or CRC-corrupt record and reports
// `truncated` instead of failing — a torn tail is the expected shape of a
// crash mid-append, and everything before it is still authoritative.
//
// An append is a batch: every record keeps its own frame and CRC, and the
// whole batch goes out in one write followed by one fsync. A torn batch
// therefore replays as a whole-record prefix, exactly like a crash between
// two single-record appends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/serial.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::recovery {

/// CRC-32 (IEEE 802.3, reflected) over a byte span; the shared util
/// implementation, aliased here because the journal wire format predates it.
[[nodiscard]] inline std::uint32_t crc32(util::ByteSpan data) noexcept {
  return util::crc32(data);
}

/// The protocol points at which session state is durably recorded
/// (ISSUE: connect established, suspend committed, drain complete,
/// resume committed, close; plus migration import/export).
///
/// Values 8-10 once named a deleted two-phase group-suspend pair. They
/// must not be reused: a journal written by that code still holds them,
/// and replay stops (degraded) at such a record rather than misread it.
enum class CommitPoint : std::uint8_t {
  kConnectEstablished = 1,
  kSuspendCommitted = 2,
  kDrainComplete = 3,
  kResumeCommitted = 4,
  kImported = 5,
  kDeparted = 6,  // session exported away from this controller
  kClosed = 7,
};

[[nodiscard]] std::string_view to_string(CommitPoint point) noexcept;

/// Whether this commit point removes the connection from the live set
/// (the session no longer belongs to this controller after it).
[[nodiscard]] constexpr bool is_removal(CommitPoint point) noexcept {
  return point == CommitPoint::kDeparted || point == CommitPoint::kClosed;
}

struct JournalRecord {
  CommitPoint point = CommitPoint::kConnectEstablished;
  std::uint64_t conn_id = 0;
  util::Bytes payload;  // opaque session blob (Session::export_state)
};

/// Result of replaying a journal file from disk.
struct ReplayResult {
  std::uint64_t epoch = 0;
  std::vector<JournalRecord> records;
  /// True when the file ended in a torn or corrupt record; `records`
  /// holds everything up to (not including) the bad record.
  bool truncated = false;
  std::string note;  // human-readable description of the damage, if any
};

/// Append-only fsync'd journal file. Not internally synchronized; the
/// DurableStore serializes access.
class Journal {
 public:
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Create (truncating any existing file) a journal stamped with `epoch`.
  static util::StatusOr<std::unique_ptr<Journal>> open(
      const std::string& path, std::uint64_t epoch);

  /// Append `records` with one write and one fsync before returning. An
  /// empty batch writes nothing.
  util::Status append(std::span<const JournalRecord> records);
  util::Status append(const JournalRecord& record) {
    return append(std::span(&record, 1));
  }

  /// Read a journal file back. kNotFound when absent, kProtocolError when
  /// the header itself is damaged; a damaged record merely truncates.
  static util::StatusOr<ReplayResult> replay(const std::string& path);

  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  /// Record bytes appended since open() (the header excluded).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  Journal(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
};

struct DurableStoreOptions {
  std::string dir;
  /// Rewrite the snapshot and reset the journal once the journal has grown
  /// by max(this many bytes, twice the last snapshot's size).
  std::uint64_t compact_floor_bytes = 1 << 20;
};

/// Coordinates snapshot + journal under one directory. open() merges the
/// last snapshot with the journal tail into the recovered session map and
/// bumps the incarnation epoch past everything seen on disk, so each
/// process lifetime is distinguishable on the wire.
class DurableStore {
 public:
  explicit DurableStore(DurableStoreOptions options);

  /// Load (or initialize) the store; must be called before record().
  util::Status open();

  /// Durably record a batch: one journal write and one fsync for all of
  /// `records`, then apply them to the live map in order. Each record is
  /// `payload` (or a removal) for `conn_id` at `point`.
  util::Status record(std::span<const JournalRecord> records);
  util::Status record(CommitPoint point, std::uint64_t conn_id,
                      util::ByteSpan blob) {
    const JournalRecord one{point, conn_id,
                            util::Bytes(blob.begin(), blob.end())};
    return record(std::span(&one, 1));
  }

  /// Fold the live map into a fresh snapshot and reset the journal.
  util::Status compact();

  /// This process's incarnation epoch: max(epoch on disk) + 1.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Sessions recovered from disk by open(): conn_id -> session blob.
  [[nodiscard]] std::map<std::uint64_t, util::Bytes> recovered() const;

  /// True when open() found corruption and fell back to the last valid
  /// prefix (snapshot + intact journal head).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] const std::string& degraded_note() const noexcept {
    return degraded_note_;
  }

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_written_;
  }
  /// Journal fsyncs of record batches (compaction's own fsyncs are not
  /// counted here; see compactions()).
  [[nodiscard]] std::uint64_t syncs() const noexcept { return syncs_; }
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string snapshot_path() const;

 private:
  util::Status compact_locked() NAPLET_REQUIRES(mu_);
  /// Fold one journaled record into the live map.
  void apply_locked(const JournalRecord& record) NAPLET_REQUIRES(mu_);

  DurableStoreOptions options_ NAPLET_NOT_GUARDED("set at construction, "
                                                  "immutable");

  // Leaf lock: record() is called after session blobs are produced, never
  // while holding controller or session locks.
  mutable util::Mutex mu_{util::LockRank::kUnranked, "durable_store"};
  std::unique_ptr<Journal> journal_ NAPLET_GUARDED_BY(mu_);
  std::map<std::uint64_t, util::Bytes> live_ NAPLET_GUARDED_BY(mu_);
  // Size of the last snapshot written (the compaction trigger).
  std::uint64_t snapshot_bytes_ NAPLET_GUARDED_BY(mu_) = 0;
  // Monitoring counters: written under mu_, read lock-free by accessors.
  std::atomic<std::uint64_t> records_written_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> compactions_{0};

  // Written only by open(), before the store is shared with any thread.
  std::uint64_t epoch_ NAPLET_NOT_GUARDED("stamped once by open() before "
                                          "the store is shared") = 0;
  bool degraded_ NAPLET_NOT_GUARDED("written only by open() before the "
                                    "store is shared") = false;
  std::string degraded_note_ NAPLET_NOT_GUARDED(
      "written only by open() before the store is shared");
};

}  // namespace naplet::recovery
