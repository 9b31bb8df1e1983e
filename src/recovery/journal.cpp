#include "recovery/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "fault/fault.hpp"
#include "recovery/snapshot.hpp"

namespace naplet::recovery {
namespace {

constexpr std::uint32_t kJournalMagic = 0x4E504C4A;  // 'NPLJ'
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

util::Status write_fully(int fd, util::ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::IoError(std::string("journal write: ") +
                           std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return util::OkStatus();
}

util::StatusOr<util::Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFound("no file at " + path);
  util::Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

}  // namespace

std::string_view to_string(CommitPoint point) noexcept {
  switch (point) {
    case CommitPoint::kConnectEstablished: return "connect-established";
    case CommitPoint::kSuspendCommitted: return "suspend-committed";
    case CommitPoint::kDrainComplete: return "drain-complete";
    case CommitPoint::kResumeCommitted: return "resume-committed";
    case CommitPoint::kImported: return "imported";
    case CommitPoint::kDeparted: return "departed";
    case CommitPoint::kClosed: return "closed";
  }
  return "?";
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

util::StatusOr<std::unique_ptr<Journal>> Journal::open(const std::string& path,
                                                       std::uint64_t epoch) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return util::IoError("open journal " + path + ": " +
                         std::strerror(errno));
  }
  std::unique_ptr<Journal> journal(new Journal(fd, path));

  util::BytesWriter header(kHeaderSize);
  header.u32(kJournalMagic);
  header.u32(kJournalVersion);
  header.u64(epoch);
  header.u32(crc32(util::ByteSpan(header.data().data(), 16)));
  NAPLET_RETURN_IF_ERROR(write_fully(fd, header.data()));
  if (::fsync(fd) != 0) {
    return util::IoError(std::string("fsync journal header: ") +
                         std::strerror(errno));
  }
  return journal;
}

util::Status Journal::append(std::span<const JournalRecord> records) {
  if (fd_ < 0) return util::FailedPrecondition("journal not open");
  if (records.empty()) return util::OkStatus();
  std::size_t total = 0;
  for (const JournalRecord& record : records) {
    total += 4 + 1 + 8 + record.payload.size() + 4;
  }
  util::BytesWriter frames(total);
  for (const JournalRecord& record : records) {
    const std::size_t body_len = 1 + 8 + record.payload.size();
    frames.u32(static_cast<std::uint32_t>(body_len));
    const std::size_t body_start = frames.size();
    frames.u8(static_cast<std::uint8_t>(record.point));
    frames.u64(record.conn_id);
    frames.raw(record.payload);
    frames.u32(crc32(
        util::ByteSpan(frames.data().data() + body_start, body_len)));
  }
  NAPLET_RETURN_IF_ERROR(write_fully(fd_, frames.data()));
  // The crash window the batch moved: the whole batch is written but not
  // yet durable. A kill is the process dying here; the written bytes stay
  // in the file, as they would in the page cache, and this journal takes
  // no further appends.
  if (fault::hit("recovery.journal.sync").action == fault::Action::kKill) {
    ::close(fd_);
    fd_ = -1;
    return util::Unavailable("fault: killed between journal write and fsync");
  }
  if (::fsync(fd_) != 0) {
    return util::IoError(std::string("fsync journal: ") +
                         std::strerror(errno));
  }
  appended_ += records.size();
  bytes_ += frames.size();
  return util::OkStatus();
}

util::StatusOr<ReplayResult> Journal::replay(const std::string& path) {
  auto data = read_file(path);
  if (!data.ok()) return data.status();

  util::BytesReader r(*data);
  if (r.remaining() < kHeaderSize) {
    return util::ProtocolError("journal header truncated");
  }
  const auto magic = r.u32();
  const auto version = r.u32();
  const auto epoch = r.u64();
  const auto header_crc = r.u32();
  if (!magic.ok() || *magic != kJournalMagic) {
    return util::ProtocolError("bad journal magic");
  }
  if (!version.ok() || *version != kJournalVersion) {
    return util::ProtocolError("unsupported journal version");
  }
  if (!header_crc.ok() ||
      *header_crc != crc32(util::ByteSpan(data->data(), 16))) {
    return util::ProtocolError("journal header CRC mismatch");
  }

  ReplayResult result;
  result.epoch = epoch.ok() ? *epoch : 0;
  while (!r.empty()) {
    const std::size_t record_start = r.position();
    const auto body_len = r.u32();
    if (!body_len.ok() || r.remaining() < *body_len + 4) {
      result.truncated = true;
      result.note = "torn record at offset " + std::to_string(record_start);
      break;
    }
    auto body = r.raw(*body_len);
    const auto crc = r.u32();
    if (!body.ok() || !crc.ok() || *crc != crc32(*body)) {
      result.truncated = true;
      result.note = "CRC mismatch at offset " + std::to_string(record_start);
      break;
    }
    util::BytesReader br(*body);
    const auto point = br.u8();
    const auto conn_id = br.u64();
    if (!point.ok() || !conn_id.ok() || *point < 1 ||
        *point > static_cast<std::uint8_t>(CommitPoint::kClosed)) {
      result.truncated = true;
      result.note = "bad record body at offset " + std::to_string(record_start);
      break;
    }
    JournalRecord record;
    record.point = static_cast<CommitPoint>(*point);
    record.conn_id = *conn_id;
    auto payload = br.raw(br.remaining());
    record.payload = payload.ok() ? std::move(*payload) : util::Bytes{};
    result.records.push_back(std::move(record));
  }
  return result;
}

DurableStore::DurableStore(DurableStoreOptions options)
    : options_(std::move(options)) {}

std::string DurableStore::journal_path() const {
  return options_.dir + "/journal.nplj";
}

std::string DurableStore::snapshot_path() const {
  return options_.dir + "/snapshot.npls";
}

util::Status DurableStore::open() {
  if (options_.dir.empty()) {
    return util::InvalidArgument("DurableStore requires a directory");
  }
  if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::IoError("mkdir " + options_.dir + ": " +
                         std::strerror(errno));
  }

  util::MutexLock lock(mu_);
  std::uint64_t max_epoch = 0;

  auto snap = Snapshot::read(snapshot_path());
  if (snap.ok()) {
    max_epoch = std::max(max_epoch, snap->epoch);
    live_ = std::move(snap->sessions);
  } else if (snap.status().code() == util::StatusCode::kProtocolError) {
    // A corrupt snapshot means we can only trust the journal (which is
    // reset at every compaction, so it holds the full delta anyway).
    degraded_ = true;
    degraded_note_ = "snapshot: " + snap.status().message();
  }

  auto replayed = Journal::replay(journal_path());
  if (replayed.ok()) {
    max_epoch = std::max(max_epoch, replayed->epoch);
    if (replayed->truncated) {
      degraded_ = true;
      if (!degraded_note_.empty()) degraded_note_ += "; ";
      degraded_note_ += "journal: " + replayed->note;
    }
    for (auto& record : replayed->records) {
      if (is_removal(record.point)) {
        live_.erase(record.conn_id);
      } else {
        live_[record.conn_id] = std::move(record.payload);
      }
    }
  } else if (replayed.status().code() == util::StatusCode::kProtocolError) {
    degraded_ = true;
    if (!degraded_note_.empty()) degraded_note_ += "; ";
    degraded_note_ += "journal: " + replayed.status().message();
  }

  epoch_ = max_epoch + 1;
  // Fold what we recovered into a fresh snapshot at the new epoch so the
  // next crash only replays this incarnation's journal.
  return compact_locked();
}

util::Status DurableStore::record(std::span<const JournalRecord> records) {
  util::MutexLock lock(mu_);
  if (journal_ == nullptr) return util::FailedPrecondition("store not open");
  if (records.empty()) return util::OkStatus();
  // A batch that finds the journal already grown past its trigger folds
  // itself into a compaction once it is durable. The trigger scales with
  // the snapshot, so a large live map is not rewritten every few records.
  const bool due =
      journal_->bytes() >=
      std::max(options_.compact_floor_bytes, 2 * snapshot_bytes_);
  NAPLET_RETURN_IF_ERROR(journal_->append(records));
  records_written_ += records.size();
  ++syncs_;
  for (const JournalRecord& record : records) apply_locked(record);
  if (due) return compact_locked();
  return util::OkStatus();
}

void DurableStore::apply_locked(const JournalRecord& record) {
  if (is_removal(record.point)) {
    live_.erase(record.conn_id);
  } else {
    live_[record.conn_id] = record.payload;
  }
}

util::Status DurableStore::compact() {
  util::MutexLock lock(mu_);
  return compact_locked();
}

util::Status DurableStore::compact_locked() {
  SnapshotData data;
  data.epoch = epoch_;
  data.sessions = live_;
  // Snapshot::write returns only once the rename itself is durable, so the
  // journal below may be truncated: a crash cannot pair the old snapshot
  // with the emptied journal.
  auto written = Snapshot::write(snapshot_path(), data);
  if (!written.ok()) return written.status();
  auto journal = Journal::open(journal_path(), epoch_);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  snapshot_bytes_ = *written;
  ++compactions_;
  return util::OkStatus();
}

std::map<std::uint64_t, util::Bytes> DurableStore::recovered() const {
  util::MutexLock lock(mu_);
  return live_;
}

}  // namespace naplet::recovery
