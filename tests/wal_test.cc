// Write-ahead-log unit tests: append/replay round-trips, replay
// idempotence against a real file-backed store (replaying the same log
// twice must leave the store byte-identical), torn-tail truncation at
// open, and checkpointing.

#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/file_atom_store.h"
#include "test_util.h"

namespace turbdb {
namespace {

/// A small atom with deterministic, index-dependent payload so data
/// corruption (not just key mismatches) shows up in comparisons.
Atom MakeAtom(int32_t timestep, uint64_t zindex, int seed) {
  Atom atom(AtomKey{timestep, zindex}, /*w=*/4, /*nc=*/3);
  for (size_t i = 0; i < atom.data.size(); ++i) {
    atom.data[i] = static_cast<float>(seed) + 0.25f * static_cast<float>(i);
  }
  return atom;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(WalTest, AppendReplayRoundTrip) {
  const testing::ScopedTempDir scoped_dir("turbdb_wal");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/node0.wal";
  std::vector<WriteAheadLog::Record> want;
  {
    auto wal_or = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal_or.ok()) << wal_or.status().ToString();
    auto& wal = *wal_or;
    for (int i = 0; i < 6; ++i) {
      WriteAheadLog::Record record;
      record.dataset = (i % 2 == 0) ? "mhd" : "iso";
      record.field = (i % 3 == 0) ? "velocity" : "magnetic";
      record.atom = MakeAtom(/*timestep=*/i % 2, /*zindex=*/uint64_t(i), i);
      ASSERT_TRUE(
          wal->Append(record.dataset, record.field, record.atom).ok());
      want.push_back(std::move(record));
    }
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->pending_records(), 6u);
    EXPECT_GT(wal->pending_bytes(), 0u);
  }
  // Reopen: everything appended before the (clean) close replays, in
  // append order, bit-for-bit.
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok()) << wal_or.status().ToString();
  EXPECT_FALSE((*wal_or)->tail_truncated_at_open());
  EXPECT_EQ((*wal_or)->pending_records(), 6u);
  std::vector<WriteAheadLog::Record> got;
  ASSERT_TRUE((*wal_or)
                  ->Replay([&](const WriteAheadLog::Record& record) {
                    got.push_back(record);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].dataset, want[i].dataset);
    EXPECT_EQ(got[i].field, want[i].field);
    EXPECT_EQ(got[i].atom.key, want[i].atom.key);
    EXPECT_EQ(got[i].atom.width, want[i].atom.width);
    EXPECT_EQ(got[i].atom.ncomp, want[i].atom.ncomp);
    EXPECT_EQ(got[i].atom.data, want[i].atom.data);
  }
}

TEST(WalTest, ReplayTwiceLeavesStoreBytesIdentical) {
  // The recovery contract: replay is idempotent because the store
  // rejects duplicate keys (kAlreadyExists), so replaying the same log
  // twice — e.g. a crash between replay and the checkpoint Truncate —
  // must leave the backing store file byte-identical.
  const testing::ScopedTempDir scoped_dir("turbdb_wal");
  const std::string& dir = scoped_dir.path();
  auto wal_or = WriteAheadLog::Open(dir + "/node0.wal");
  ASSERT_TRUE(wal_or.ok());
  auto& wal = *wal_or;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        wal->Append("mhd", "velocity", MakeAtom(0, uint64_t(i), 100 + i))
            .ok());
  }
  ASSERT_TRUE(wal->Sync().ok());

  const std::string store_path = dir + "/mhd_velocity.store";
  auto store_or = FileAtomStore::Open(store_path);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto& store = *store_or;
  auto replay_into_store = [&]() {
    return wal->Replay([&](const WriteAheadLog::Record& record) -> Status {
      Status status = store->Put(record.atom);
      if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
        return status;
      }
      return Status::OK();
    });
  };
  ASSERT_TRUE(replay_into_store().ok());
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(store->AtomCount(), 5u);
  const std::vector<uint8_t> first = ReadFileBytes(store_path);

  ASSERT_TRUE(replay_into_store().ok());
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(store->AtomCount(), 5u);
  const std::vector<uint8_t> second = ReadFileBytes(store_path);
  EXPECT_EQ(first, second);
}

TEST(WalTest, TornTailTruncatedAtOpen) {
  const testing::ScopedTempDir scoped_dir("turbdb_wal");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/node0.wal";
  uint64_t intact_size = 0;
  {
    auto wal_or = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal_or.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*wal_or)->Append("mhd", "velocity", MakeAtom(0, uint64_t(i), i))
              .ok());
    }
    ASSERT_TRUE((*wal_or)->Sync().ok());
    intact_size = (*wal_or)->pending_bytes();
    ASSERT_TRUE(
        (*wal_or)->Append("mhd", "velocity", MakeAtom(0, 99, 99)).ok());
    ASSERT_TRUE((*wal_or)->Sync().ok());
  }
  // Simulate a crash mid-append: cut into the fourth record's payload.
  {
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(intact_size + 7)), 0);
    ::close(fd);
  }
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok()) << wal_or.status().ToString();
  EXPECT_TRUE((*wal_or)->tail_truncated_at_open());
  EXPECT_EQ((*wal_or)->pending_records(), 3u);
  size_t replayed = 0;
  ASSERT_TRUE((*wal_or)
                  ->Replay([&](const WriteAheadLog::Record& record) {
                    EXPECT_EQ(record.atom.key.zindex, replayed);
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 3u);
}

TEST(WalTest, CorruptTailBytesTruncatedAtOpen) {
  // A flipped byte inside the last record's payload (bad CRC, not a
  // short read) must likewise cut the tail, keeping the intact prefix.
  const testing::ScopedTempDir scoped_dir("turbdb_wal");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/node0.wal";
  {
    auto wal_or = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal_or.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          (*wal_or)->Append("mhd", "velocity", MakeAtom(0, uint64_t(i), i))
              .ok());
    }
    ASSERT_TRUE((*wal_or)->Sync().ok());
  }
  {
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const off_t size = ::lseek(fd, 0, SEEK_END);
    ASSERT_GT(size, 8);
    uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, size - 5), 1);
    byte ^= 0xff;
    ASSERT_EQ(::pwrite(fd, &byte, 1, size - 5), 1);
    ::close(fd);
  }
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok()) << wal_or.status().ToString();
  EXPECT_TRUE((*wal_or)->tail_truncated_at_open());
  EXPECT_EQ((*wal_or)->pending_records(), 1u);
}

TEST(WalTest, TruncateCheckpointsAndSurvivesReopen) {
  const testing::ScopedTempDir scoped_dir("turbdb_wal");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/node0.wal";
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok());
  ASSERT_TRUE((*wal_or)->Append("mhd", "velocity", MakeAtom(0, 1, 1)).ok());
  ASSERT_TRUE((*wal_or)->Sync().ok());
  ASSERT_TRUE((*wal_or)->Truncate().ok());
  EXPECT_EQ((*wal_or)->pending_records(), 0u);
  EXPECT_EQ((*wal_or)->pending_bytes(), 0u);
  // The log keeps working after a checkpoint, and a reopen sees only
  // the post-checkpoint suffix.
  ASSERT_TRUE((*wal_or)->Append("mhd", "velocity", MakeAtom(0, 2, 2)).ok());
  ASSERT_TRUE((*wal_or)->Sync().ok());
  wal_or->reset();
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->tail_truncated_at_open());
  EXPECT_EQ((*reopened)->pending_records(), 1u);
  size_t replayed = 0;
  ASSERT_TRUE((*reopened)
                  ->Replay([&](const WriteAheadLog::Record& record) {
                    EXPECT_EQ(record.atom.key.zindex, 2u);
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 1u);
}

// Replay racing a checkpoint Truncate: once the checkpoint lands,
// replaying the (now empty) log is a clean no-op — zero records, no
// torn-tail warning — both in the same handle and after a reopen.
TEST(WalTest, ReplayAfterCheckpointTruncateIsCleanNoOp) {
  const testing::ScopedTempDir scoped_dir("turbdb_wal");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/node0.wal";
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok()) << wal_or.status().ToString();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*wal_or)->Append("mhd", "velocity", MakeAtom(0, uint64_t(i), i)).ok());
  }
  ASSERT_TRUE((*wal_or)->Sync().ok());
  // The checkpoint wins the race: Truncate drains everything before
  // replay ever looks at the log.
  ASSERT_TRUE((*wal_or)->Truncate().ok());
  size_t replayed = 0;
  ASSERT_TRUE((*wal_or)
                  ->Replay([&](const WriteAheadLog::Record&) {
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ((*wal_or)->pending_records(), 0u);
  EXPECT_EQ((*wal_or)->pending_bytes(), 0u);
  wal_or->reset();
  // A fresh open of the checkpointed log sees a clean, empty tail.
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->tail_truncated_at_open());
  EXPECT_EQ((*reopened)->pending_records(), 0u);
  replayed = 0;
  ASSERT_TRUE((*reopened)
                  ->Replay([&](const WriteAheadLog::Record&) {
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 0u);
}

}  // namespace
}  // namespace turbdb
