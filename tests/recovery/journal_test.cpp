// Durability-layer unit tests: CRC, journal append/replay, torn-tail and
// bit-flip tolerance, snapshot atomicity, and the DurableStore's
// epoch-bumping recovery with degrade-to-last-valid-prefix semantics.
#include "recovery/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "recovery/snapshot.hpp"

namespace naplet::recovery {
namespace {

namespace fs = std::filesystem;

util::Bytes bytes(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

std::string text(const util::Bytes& b) {
  return std::string(b.begin(), b.end());
}

/// Fresh scratch directory per test, removed on teardown.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            ("naplet-journal-test-" + std::string(info->name()) + "-" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static util::Bytes read_file(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return util::Bytes((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void write_file(const std::string& p, const util::Bytes& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  std::string dir_;
};

TEST_F(JournalTest, Crc32KnownVector) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(util::ByteSpan(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(crc32(util::ByteSpan{}), 0u);
}

TEST_F(JournalTest, AppendReplayRoundTrip) {
  const std::string p = path("journal.nplj");
  auto journal = Journal::open(p, /*epoch=*/7);
  ASSERT_TRUE(journal.ok()) << journal.status().to_string();
  ASSERT_TRUE(
      (*journal)
          ->append({CommitPoint::kConnectEstablished, 11, bytes("alpha")})
          .ok());
  ASSERT_TRUE(
      (*journal)->append({CommitPoint::kDrainComplete, 11, bytes("beta")})
          .ok());
  ASSERT_TRUE((*journal)->append({CommitPoint::kClosed, 12, {}}).ok());
  EXPECT_EQ((*journal)->appended(), 3u);

  auto replay = Journal::replay(p);
  ASSERT_TRUE(replay.ok()) << replay.status().to_string();
  EXPECT_EQ(replay->epoch, 7u);
  EXPECT_FALSE(replay->truncated);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].point, CommitPoint::kConnectEstablished);
  EXPECT_EQ(replay->records[0].conn_id, 11u);
  EXPECT_EQ(text(replay->records[0].payload), "alpha");
  EXPECT_EQ(replay->records[1].point, CommitPoint::kDrainComplete);
  EXPECT_EQ(text(replay->records[1].payload), "beta");
  EXPECT_EQ(replay->records[2].point, CommitPoint::kClosed);
  EXPECT_TRUE(replay->records[2].payload.empty());
}

TEST_F(JournalTest, ReplayMissingFileIsNotFound) {
  auto replay = Journal::replay(path("nope.nplj"));
  EXPECT_EQ(replay.status().code(), util::StatusCode::kNotFound);
}

TEST_F(JournalTest, TornTailKeepsValidPrefix) {
  const std::string p = path("journal.nplj");
  {
    auto journal = Journal::open(p, 1);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)
                      ->append({CommitPoint::kSuspendCommitted,
                                static_cast<std::uint64_t>(i),
                                bytes("blob" + std::to_string(i))})
                      .ok());
    }
  }
  // A crash mid-append: the last record loses its tail bytes.
  util::Bytes data = read_file(p);
  data.resize(data.size() - 3);
  write_file(p, data);

  auto replay = Journal::replay(p);
  ASSERT_TRUE(replay.ok()) << replay.status().to_string();
  EXPECT_TRUE(replay->truncated);
  EXPECT_NE(replay->note.find("torn"), std::string::npos) << replay->note;
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(text(replay->records[1].payload), "blob1");
}

TEST_F(JournalTest, BitFlippedRecordStopsReplayAtCrc) {
  const std::string p = path("journal.nplj");
  {
    auto journal = Journal::open(p, 1);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)
                      ->append({CommitPoint::kImported,
                                static_cast<std::uint64_t>(i),
                                bytes("payload" + std::to_string(i))})
                      .ok());
    }
  }
  // Flip one payload bit inside the LAST record (well past the two intact
  // ones): everything before it must survive.
  util::Bytes data = read_file(p);
  data[data.size() - 6] ^= 0x40;
  write_file(p, data);

  auto replay = Journal::replay(p);
  ASSERT_TRUE(replay.ok()) << replay.status().to_string();
  EXPECT_TRUE(replay->truncated);
  EXPECT_NE(replay->note.find("CRC"), std::string::npos) << replay->note;
  ASSERT_EQ(replay->records.size(), 2u);
}

TEST_F(JournalTest, CorruptHeaderIsProtocolError) {
  const std::string p = path("journal.nplj");
  {
    auto journal = Journal::open(p, 1);
    ASSERT_TRUE(journal.ok());
  }
  util::Bytes data = read_file(p);
  data[1] ^= 0xFF;  // inside the magic
  write_file(p, data);
  EXPECT_EQ(Journal::replay(p).status().code(),
            util::StatusCode::kProtocolError);
}

TEST_F(JournalTest, SnapshotRoundTripAndAtomicReplace) {
  const std::string p = path("snapshot.npls");
  SnapshotData first;
  first.epoch = 3;
  first.sessions[1] = bytes("one");
  first.sessions[2] = bytes("two");
  ASSERT_TRUE(Snapshot::write(p, first).ok());

  SnapshotData second;
  second.epoch = 4;
  second.sessions[2] = bytes("two'");
  ASSERT_TRUE(Snapshot::write(p, second).ok());  // atomic replace

  auto got = Snapshot::read(p);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got->epoch, 4u);
  ASSERT_EQ(got->sessions.size(), 1u);
  EXPECT_EQ(text(got->sessions[2]), "two'");
}

TEST_F(JournalTest, SnapshotCorruptionIsProtocolError) {
  const std::string p = path("snapshot.npls");
  SnapshotData data;
  data.epoch = 1;
  data.sessions[9] = bytes("nine");
  ASSERT_TRUE(Snapshot::write(p, data).ok());
  util::Bytes raw = read_file(p);
  raw[raw.size() / 2] ^= 0x01;
  write_file(p, raw);
  EXPECT_EQ(Snapshot::read(p).status().code(),
            util::StatusCode::kProtocolError);
  EXPECT_EQ(Snapshot::read(path("absent.npls")).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(JournalTest, StoreEpochBumpsAcrossReopen) {
  {
    DurableStore store({dir_, 64});
    ASSERT_TRUE(store.open().ok());
    EXPECT_EQ(store.epoch(), 1u);  // nothing on disk: max(0) + 1
    ASSERT_TRUE(store
                    .record(CommitPoint::kConnectEstablished, 5,
                            util::ByteSpan(bytes("s5").data(), 2))
                    .ok());
    ASSERT_TRUE(store
                    .record(CommitPoint::kConnectEstablished, 6,
                            util::ByteSpan(bytes("s6").data(), 2))
                    .ok());
  }
  {
    DurableStore store({dir_, 64});
    ASSERT_TRUE(store.open().ok());
    EXPECT_EQ(store.epoch(), 2u);
    EXPECT_FALSE(store.degraded());
    auto live = store.recovered();
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(text(live[5]), "s5");
    // A removal commit point erases the connection from the durable set.
    ASSERT_TRUE(store.record(CommitPoint::kClosed, 5, {}).ok());
  }
  {
    DurableStore store({dir_, 64});
    ASSERT_TRUE(store.open().ok());
    EXPECT_EQ(store.epoch(), 3u);
    auto live = store.recovered();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live.count(6), 1u);
  }
}

TEST_F(JournalTest, StoreCompactsEveryN) {
  DurableStore store({dir_, /*compact_every=*/4});
  ASSERT_TRUE(store.open().ok());
  const auto initial = store.compactions();  // open() itself compacts once
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store
                    .record(CommitPoint::kResumeCommitted, 1,
                            util::ByteSpan(bytes("v" + std::to_string(i))
                                               .data(),
                                           2))
                    .ok());
  }
  EXPECT_EQ(store.compactions(), initial + 2);
  EXPECT_EQ(store.records_written(), 9u);

  DurableStore reopened({dir_, 4});
  ASSERT_TRUE(reopened.open().ok());
  auto live = reopened.recovered();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(text(live[1]), "v8");  // last write wins through compactions
}

// The ISSUE's corruption-tolerance case: a bit-flipped journal CRC (or a
// torn tail) must degrade recovery to the last valid prefix — snapshot
// plus intact journal head — never fail it outright.
TEST_F(JournalTest, StoreDegradesToLastValidPrefixOnJournalCorruption) {
  {
    DurableStore store({dir_, 64});
    ASSERT_TRUE(store.open().ok());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE(store
                      .record(CommitPoint::kSuspendCommitted, id,
                              util::ByteSpan(
                                  bytes("conn" + std::to_string(id)).data(),
                                  5))
                      .ok());
    }
  }
  const std::string jp = dir_ + "/journal.nplj";
  util::Bytes raw = read_file(jp);
  raw[raw.size() - 2] ^= 0x10;  // corrupt the last record's CRC bytes
  write_file(jp, raw);

  DurableStore store({dir_, 64});
  ASSERT_TRUE(store.open().ok());
  EXPECT_TRUE(store.degraded());
  EXPECT_NE(store.degraded_note().find("CRC"), std::string::npos)
      << store.degraded_note();
  auto live = store.recovered();
  ASSERT_EQ(live.size(), 2u);  // conn3's record was the corrupt one
  EXPECT_EQ(live.count(1), 1u);
  EXPECT_EQ(live.count(2), 1u);
  EXPECT_EQ(store.epoch(), 2u);  // still bumps past the damaged incarnation
}

TEST_F(JournalTest, StoreDegradesToJournalWhenSnapshotCorrupt) {
  {
    DurableStore store({dir_, 64});
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store
                    .record(CommitPoint::kConnectEstablished, 8,
                            util::ByteSpan(bytes("s8").data(), 2))
                    .ok());
    ASSERT_TRUE(store.compact().ok());  // fold into the snapshot
    // Journal now holds the post-compaction delta only.
    ASSERT_TRUE(store
                    .record(CommitPoint::kConnectEstablished, 9,
                            util::ByteSpan(bytes("s9").data(), 2))
                    .ok());
  }
  const std::string sp = dir_ + "/snapshot.npls";
  util::Bytes raw = read_file(sp);
  raw[raw.size() / 2] ^= 0x04;
  write_file(sp, raw);

  DurableStore store({dir_, 64});
  ASSERT_TRUE(store.open().ok());
  EXPECT_TRUE(store.degraded());
  EXPECT_NE(store.degraded_note().find("snapshot"), std::string::npos);
  // The snapshot's contents (conn 8) are lost; the journal delta survives.
  auto live = store.recovered();
  EXPECT_EQ(live.count(9), 1u);
  EXPECT_EQ(live.count(8), 0u);
}

// ---------------------------------------------------------------------------
// Batched appends: one write + one fsync for a whole commit point, framed
// record by record so a torn batch replays as a whole-record prefix.

TEST_F(JournalTest, TornBatchReplaysWholeRecordPrefixAtEveryCut) {
  const std::string p = path("journal.nplj");
  const std::vector<JournalRecord> batch = {
      {CommitPoint::kSuspendCommitted, 1, bytes("first")},
      {CommitPoint::kSuspendCommitted, 2, bytes("the second one")},
      {CommitPoint::kDeparted, 3, {}},
  };
  {
    auto journal = Journal::open(p, 4);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->append(batch).ok());
    EXPECT_EQ((*journal)->appended(), 3u);
  }
  const util::Bytes full = read_file(p);
  constexpr std::size_t kHeader = 20;
  // Record boundaries: header end, then after each u32 len | body | u32 crc.
  std::vector<std::size_t> boundaries{kHeader};
  for (const JournalRecord& record : batch) {
    boundaries.push_back(boundaries.back() + 4 + 1 + 8 +
                         record.payload.size() + 4);
  }
  ASSERT_EQ(boundaries.back(), full.size());

  const std::string cut_path = path("cut.nplj");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_file(cut_path, util::Bytes(full.begin(), full.begin() + cut));
    auto replay = Journal::replay(cut_path);
    if (cut < kHeader) {
      EXPECT_EQ(replay.status().code(), util::StatusCode::kProtocolError)
          << "cut " << cut;
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut " << cut;
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    ASSERT_EQ(replay->records.size(), whole) << "cut " << cut;
    const bool on_boundary = boundaries[whole] == cut;
    EXPECT_EQ(replay->truncated, !on_boundary) << "cut " << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(replay->records[i].point, batch[i].point);
      EXPECT_EQ(replay->records[i].conn_id, batch[i].conn_id);
      EXPECT_EQ(replay->records[i].payload, batch[i].payload);
    }
  }
}

TEST_F(JournalTest, StoreBatchIsOneSync) {
  {
    DurableStore store({dir_, 1 << 20});
    ASSERT_TRUE(store.open().ok());
    const std::vector<JournalRecord> batch = {
        {CommitPoint::kImported, 1, bytes("a")},
        {CommitPoint::kImported, 2, bytes("b")},
        {CommitPoint::kImported, 3, bytes("c")},
        {CommitPoint::kDeparted, 2, {}},
    };
    ASSERT_TRUE(store.record(batch).ok());
    EXPECT_EQ(store.syncs(), 1u);
    EXPECT_EQ(store.records_written(), 4u);
    // An empty batch is no durability point at all.
    ASSERT_TRUE(store.record(std::span<const JournalRecord>{}).ok());
    EXPECT_EQ(store.syncs(), 1u);
  }
  DurableStore reopened({dir_, 1 << 20});
  ASSERT_TRUE(reopened.open().ok());
  auto live = reopened.recovered();
  ASSERT_EQ(live.size(), 2u);  // the batch applies in order
  EXPECT_EQ(text(live[1]), "a");
  EXPECT_EQ(text(live[3]), "c");
}

TEST_F(JournalTest, StoreCompactionTriggerScalesWithSnapshot) {
  constexpr std::uint64_t kFloor = 256;
  DurableStore store({dir_, kFloor});
  ASSERT_TRUE(store.open().ok());
  const std::uint64_t opened = store.compactions();
  const util::Bytes blob(200, 0x5a);
  const auto put = [&](std::uint64_t conn) {
    return store.record(CommitPoint::kResumeCommitted, conn,
                        util::ByteSpan(blob.data(), blob.size()));
  };
  // Sixteen live sessions in one batch: far past the floor, so the next
  // batch compacts them (and itself) into a snapshot of several KiB.
  std::vector<JournalRecord> many;
  for (std::uint64_t conn = 1; conn <= 16; ++conn) {
    many.push_back({CommitPoint::kImported, conn, blob});
  }
  ASSERT_TRUE(store.record(many).ok());
  EXPECT_EQ(store.compactions(), opened);
  ASSERT_TRUE(put(1).ok());
  EXPECT_EQ(store.compactions(), opened + 1);
  const std::uint64_t snapshot = fs::file_size(store.snapshot_path());
  ASSERT_GT(snapshot, 16 * blob.size());

  // Rewrites of one session: the journal now grows to twice the snapshot,
  // not just the floor, before the next batch compacts it.
  const std::uint64_t record_bytes = 4 + 1 + 8 + blob.size() + 4;
  const std::uint64_t to_reach =
      (2 * snapshot + record_bytes - 1) / record_bytes;
  ASSERT_GT(to_reach * record_bytes, kFloor);
  for (std::uint64_t i = 0; i < to_reach; ++i) ASSERT_TRUE(put(2).ok());
  EXPECT_EQ(store.compactions(), opened + 1);
  ASSERT_TRUE(put(2).ok());
  EXPECT_EQ(store.compactions(), opened + 2);
}

// Commit points 8-10 named a deleted two-phase group-suspend pair. A
// journal written by that code may still hold one: replay must stop there
// (degraded, with a note) and keep every record before it, never misread
// the group id in its conn_id field as a connection.
TEST_F(JournalTest, RetiredGroupPointTruncatesReplayAtThatRecord) {
  const std::string jp = path("journal.nplj");
  {
    auto journal = Journal::open(jp, /*epoch=*/4);
    ASSERT_TRUE(journal.ok()) << journal.status().to_string();
    ASSERT_TRUE((*journal)
                    ->append({CommitPoint::kConnectEstablished, 1,
                              bytes("c1")})
                    .ok());
    ASSERT_TRUE(
        (*journal)->append({CommitPoint::kSuspendCommitted, 2, bytes("c2")})
            .ok());
    // The old group-prepare record: conn_id held the group id.
    ASSERT_TRUE((*journal)
                    ->append({static_cast<CommitPoint>(8), 501,
                              bytes("manifest")})
                    .ok());
    ASSERT_TRUE(
        (*journal)->append({CommitPoint::kSuspendCommitted, 3, bytes("c3")})
            .ok());
  }

  auto replay = Journal::replay(jp);
  ASSERT_TRUE(replay.ok()) << replay.status().to_string();
  EXPECT_TRUE(replay->truncated);
  EXPECT_NE(replay->note.find("bad record body"), std::string::npos)
      << replay->note;
  ASSERT_EQ(replay->records.size(), 2u);

  DurableStore store({dir_, 64});
  ASSERT_TRUE(store.open().ok());
  EXPECT_TRUE(store.degraded());
  EXPECT_NE(store.degraded_note().find("bad record body"), std::string::npos)
      << store.degraded_note();
  auto live = store.recovered();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(text(live[1]), "c1");
  EXPECT_EQ(text(live[2]), "c2");
  EXPECT_EQ(live.count(501), 0u);
  EXPECT_EQ(store.epoch(), 5u);
}

}  // namespace
}  // namespace naplet::recovery
