#include "recovery/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "recovery/journal.hpp"

namespace naplet::recovery {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4E504C53;  // 'NPLS'
constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace

void SnapshotData::persist(util::Archive& ar) {
  std::uint32_t magic = kSnapshotMagic;
  std::uint32_t version = kSnapshotVersion;
  ar.field(magic);
  if (magic != kSnapshotMagic) ar.fail("bad snapshot magic");
  ar.field(version);
  if (version != kSnapshotVersion) ar.fail("unsupported snapshot version");
  ar.field(epoch);
  ar.field(sessions);
}

util::StatusOr<std::uint64_t> Snapshot::write(const std::string& path,
                                              const SnapshotData& data) {
  util::Archive ar;
  ar.write(data);
  std::uint32_t crc = crc32(ar.bytes());
  ar.field(crc);

  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return util::IoError("open " + tmp + ": " + std::strerror(errno));
  }
  const util::Bytes& buf = ar.bytes();
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return util::IoError(std::string("snapshot write: ") +
                           std::strerror(saved));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return util::IoError(std::string("fsync snapshot: ") +
                         std::strerror(saved));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return util::IoError("rename snapshot: " +
                         std::string(std::strerror(saved)));
  }
  // The rename is durable only once the directory entry is: without this
  // fsync a crash can bring back the old snapshot after the caller has
  // already truncated the journal that held the delta.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return util::IoError("open " + dir + ": " + std::strerror(errno));
  }
  const int synced = ::fsync(dir_fd);
  const int saved = errno;
  ::close(dir_fd);
  if (synced != 0) {
    return util::IoError(std::string("fsync snapshot directory: ") +
                         std::strerror(saved));
  }
  return static_cast<std::uint64_t>(buf.size());
}

util::StatusOr<SnapshotData> Snapshot::read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFound("no snapshot at " + path);
  util::Bytes raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (raw.size() < 4 + 4 + 8 + 4 + 4) {
    return util::ProtocolError("snapshot truncated");
  }

  // Trailing CRC covers everything before it.
  const util::ByteSpan covered(raw.data(), raw.size() - 4);
  const auto stored_crc = util::Archive::decode<std::uint32_t>(
      util::ByteSpan(raw).last(4));
  if (!stored_crc.ok() || *stored_crc != crc32(covered)) {
    return util::ProtocolError("snapshot CRC mismatch");
  }

  return util::Archive::decode<SnapshotData>(covered);
}

}  // namespace naplet::recovery
