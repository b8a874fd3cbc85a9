// Self-healing storage unit tests: detailed corruption diagnostics,
// quarantine semantics (fast-fail reads, Repair clears, survives
// reopen), the Morton-range Merkle digest (bit rot diverges roots,
// repair reconverges them), the rate-limited Scrubber pass, and digest
// parity between the in-memory and file-backed stores.

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/file_atom_store.h"
#include "storage/merkle.h"
#include "storage/scrub.h"
#include "test_util.h"

namespace turbdb {
namespace {

/// Deterministic payload keyed by `seed` so corruption shows up as a
/// content change, not just a key mismatch.
Atom MakeAtom(int32_t timestep, uint64_t zindex, int seed) {
  Atom atom(AtomKey{timestep, zindex}, /*w=*/4, /*nc=*/3);
  for (size_t i = 0; i < atom.data.size(); ++i) {
    atom.data[i] = static_cast<float>(seed) + 0.5f * static_cast<float>(i);
  }
  return atom;
}

/// XORs one byte of the file in place — the same damage the
/// store.bit_flip fault site injects, applied directly.
void FlipByte(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  uint8_t byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  byte ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

/// Byte offset of the first record's payload: the fixed 32-byte header
/// (magic, timestep, zindex, width, ncomp, payload_bytes, crc).
constexpr uint64_t kFirstPayloadOffset = 32;

TEST(ScrubTest, CorruptionMessageNamesPathZindexAndOffset) {
  const testing::ScopedTempDir scoped_dir("turbdb_scrub");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/store.atoms";
  auto store_or = FileAtomStore::Open(path);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto& store = *store_or;
  ASSERT_TRUE(store->Put(MakeAtom(0, 7, 1)).ok());
  ASSERT_TRUE(store->Sync().ok());
  FlipByte(path, kFirstPayloadOffset);

  auto got = store->Get(AtomKey{0, 7});
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  const std::string message = got.status().ToString();
  // An operator should be able to locate the bad block from the message
  // alone: file path, atom z-index, and byte offset of the record.
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("z=7"), std::string::npos) << message;
  EXPECT_NE(message.find("at offset 0"), std::string::npos) << message;
}

TEST(ScrubTest, QuarantineFastFailsAndRepairClearsAcrossReopen) {
  const testing::ScopedTempDir scoped_dir("turbdb_scrub");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/store.atoms";
  const Atom good = MakeAtom(0, 3, 9);
  {
    auto store_or = FileAtomStore::Open(path);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or;
    ASSERT_TRUE(store->Put(good).ok());
    ASSERT_TRUE(store->Put(MakeAtom(0, 12, 2)).ok());
    ASSERT_TRUE(store->Sync().ok());
    FlipByte(path, kFirstPayloadOffset);

    VerifyReport report = store->Verify();
    EXPECT_EQ(report.atoms_corrupt, 1u);
    EXPECT_EQ(report.atoms_verified, 1u);
    ASSERT_EQ(report.corrupt.size(), 1u);
    EXPECT_EQ(report.corrupt[0].zindex, 3u);
    EXPECT_EQ(store->QuarantinedCount(), 1u);

    // Quarantined keys fast-fail with kCorruption instead of serving
    // the rotted bytes; healthy keys keep working.
    EXPECT_TRUE(store->Get(AtomKey{0, 3}).status().IsCorruption());
    EXPECT_TRUE(store->Get(AtomKey{0, 12}).ok());
    EXPECT_TRUE(
        store->Scan(0, MortonRange{0, 64},
                    [](const Atom&) {})
            .IsCorruption());

    // Repair appends a fresh record and lifts the quarantine.
    ASSERT_TRUE(store->Repair(good).ok());
    EXPECT_EQ(store->QuarantinedCount(), 0u);
    auto healed = store->Get(AtomKey{0, 3});
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed->data, good.data);
    VerifyReport clean = store->Verify();
    EXPECT_EQ(clean.atoms_corrupt, 0u);
    EXPECT_EQ(clean.atoms_verified, 2u);
    ASSERT_TRUE(store->Sync().ok());
  }
  // The repair survives reopen: the index keeps the later (healthy)
  // record and the dead original is ignored.
  auto reopened = FileAtomStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->AtomCount(), 2u);
  EXPECT_EQ((*reopened)->QuarantinedCount(), 0u);
  auto healed = (*reopened)->Get(AtomKey{0, 3});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->data, good.data);
  VerifyReport clean = (*reopened)->Verify();
  EXPECT_EQ(clean.atoms_corrupt, 0u);
}

TEST(ScrubTest, MerkleRootsDivergeOnBitRotAndReconvergeAfterRepair) {
  const testing::ScopedTempDir scoped_dir("turbdb_scrub");
  const std::string& dir = scoped_dir.path();
  auto a_or = FileAtomStore::Open(dir + "/a.atoms");
  auto b_or = FileAtomStore::Open(dir + "/b.atoms");
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  auto& a = *a_or;
  auto& b = *b_or;
  // Atoms spread across two timesteps and two leaves (zindex 2000 is in
  // a different 2^10 bucket than the low codes).
  const std::vector<Atom> atoms = {MakeAtom(0, 1, 1), MakeAtom(0, 5, 2),
                                   MakeAtom(0, 2000, 3), MakeAtom(1, 1, 4)};
  for (const Atom& atom : atoms) {
    ASSERT_TRUE(a->Put(atom).ok());
    ASSERT_TRUE(b->Put(atom).ok());
  }
  ASSERT_TRUE(a->Sync().ok());
  ASSERT_TRUE(b->Sync().ok());

  auto tree_of = [](const std::unique_ptr<FileAtomStore>& store) {
    std::vector<AtomDigest> rows;
    EXPECT_TRUE(store->DigestRows(&rows).ok());
    return BuildMerkleTree(rows);
  };

  MerkleTree ta = tree_of(a);
  MerkleTree tb = tree_of(b);
  EXPECT_NE(ta.root, 0u);
  EXPECT_EQ(ta.root, tb.root);
  EXPECT_EQ(ta.AtomCount(), 4u);
  EXPECT_TRUE(DiffMerkleTrees(ta, tb).empty());

  // Rot one payload byte of the first record in b (key {0,1}). The
  // header CRC still describes the original bytes, but DigestRows
  // recomputes from the stored bytes, so the trees diverge.
  FlipByte(dir + "/b.atoms", kFirstPayloadOffset);
  tb = tree_of(b);
  EXPECT_NE(ta.root, tb.root);
  std::vector<MerkleRange> diverged = DiffMerkleTrees(ta, tb);
  ASSERT_EQ(diverged.size(), 1u);
  EXPECT_EQ(diverged[0].timestep, 0);
  EXPECT_LE(diverged[0].begin, 1u);
  EXPECT_GT(diverged[0].end, 1u);
  // The healthy leaf (zindex 2000's bucket) and timestep 1 are NOT
  // flagged — repair ships only the damaged range.
  for (const MerkleRange& range : diverged) {
    EXPECT_FALSE(range.timestep == 0 && range.begin <= 2000 &&
                 2000 < range.end);
  }

  ASSERT_TRUE(b->Repair(atoms[0]).ok());
  tb = tree_of(b);
  EXPECT_EQ(ta.root, tb.root);
  EXPECT_TRUE(DiffMerkleTrees(ta, tb).empty());
}

TEST(ScrubTest, MerkleEmptyStoreHasZeroRootAndOneSidedLeafDiffs) {
  MerkleTree empty = BuildMerkleTree({});
  EXPECT_EQ(empty.root, 0u);
  EXPECT_TRUE(empty.leaves.empty());

  std::vector<AtomDigest> rows = {{0, 4, 0xDEAD, 128}};
  MerkleTree one = BuildMerkleTree(rows);
  EXPECT_NE(one.root, 0u);
  // A bucket present on only one side is itself a divergent range.
  std::vector<MerkleRange> diff = DiffMerkleTrees(empty, one);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].timestep, 0);
  EXPECT_LE(diff[0].begin, 4u);
  EXPECT_GT(diff[0].end, 4u);
  // Symmetric: the diff does not depend on which side is empty.
  EXPECT_EQ(DiffMerkleTrees(one, empty).size(), 1u);
}

TEST(ScrubTest, ScrubberPassCountsRepairsAndSnapshots) {
  const testing::ScopedTempDir scoped_dir("turbdb_scrub");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/store.atoms";
  auto store_or = FileAtomStore::Open(path);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  const Atom good = MakeAtom(0, 1, 5);
  ASSERT_TRUE(store->Put(good).ok());
  ASSERT_TRUE(store->Put(MakeAtom(0, 9, 6)).ok());
  ASSERT_TRUE(store->Sync().ok());

  int repair_calls = 0;
  Scrubber scrubber(
      Scrubber::Options{/*interval_s=*/0, /*rate_mb=*/64},
      [&] {
        return std::vector<Scrubber::StoreRef>{{"mhd", "velocity",
                                                store.get()}};
      },
      [&](const std::string& dataset, const std::string& field) -> uint64_t {
        ++repair_calls;
        EXPECT_EQ(dataset, "mhd");
        EXPECT_EQ(field, "velocity");
        // Stand in for the anti-entropy path: heal from the known-good
        // copy a sibling replica would supply.
        EXPECT_TRUE(store->Repair(good).ok());
        return 1;
      });

  // Clean pass: everything verifies, no repair call.
  Scrubber::Totals totals = scrubber.RunPass();
  EXPECT_EQ(totals.passes, 1u);
  EXPECT_EQ(totals.atoms_verified, 2u);
  EXPECT_EQ(totals.atoms_corrupt, 0u);
  EXPECT_EQ(repair_calls, 0);
  EXPECT_GT(totals.bytes_verified, 0u);
  EXPECT_GT(totals.last_pass_unix_ms, 0u);

  // Rot a byte; the next pass finds it, invokes the repair hook, and
  // reports the post-repair state (quarantine lifted, root healthy).
  FlipByte(path, kFirstPayloadOffset);
  totals = scrubber.RunPass();
  EXPECT_EQ(totals.passes, 2u);
  EXPECT_EQ(totals.atoms_corrupt, 1u);
  EXPECT_EQ(totals.atoms_repaired, 1u);
  EXPECT_EQ(repair_calls, 1);

  std::vector<Scrubber::StoreStats> snapshot = scrubber.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].dataset, "mhd");
  EXPECT_EQ(snapshot[0].field, "velocity");
  EXPECT_EQ(snapshot[0].atoms_corrupt, 1u);
  EXPECT_EQ(snapshot[0].atoms_repaired, 1u);
  EXPECT_EQ(snapshot[0].atoms_quarantined, 0u);
  EXPECT_EQ(snapshot[0].passes, 2u);

  // The post-repair root matches a fresh digest of the healed store.
  std::vector<AtomDigest> rows;
  ASSERT_TRUE(store->DigestRows(&rows).ok());
  EXPECT_EQ(snapshot[0].merkle_root, BuildMerkleTree(rows).root);

  // A third pass confirms the heal stuck.
  totals = scrubber.RunPass();
  EXPECT_EQ(totals.atoms_corrupt, 1u);  // Lifetime counter, unchanged.
  EXPECT_EQ(totals.atoms_verified, 2u + 1u + 2u);
  EXPECT_EQ(repair_calls, 1);
}

TEST(ScrubTest, DigestRowsAgreeBetweenInMemoryAndFileStores) {
  const testing::ScopedTempDir scoped_dir("turbdb_scrub");
  const std::string& dir = scoped_dir.path();
  auto file_or = FileAtomStore::Open(dir + "/store.atoms");
  ASSERT_TRUE(file_or.ok());
  InMemoryAtomStore memory;
  for (int i = 0; i < 8; ++i) {
    const Atom atom = MakeAtom(i % 2, uint64_t(i * 37), i);
    ASSERT_TRUE((*file_or)->Put(atom).ok());
    ASSERT_TRUE(memory.Put(atom).ok());
  }
  std::vector<AtomDigest> file_rows, memory_rows;
  ASSERT_TRUE((*file_or)->DigestRows(&file_rows).ok());
  ASSERT_TRUE(memory.DigestRows(&memory_rows).ok());
  ASSERT_EQ(file_rows.size(), memory_rows.size());
  for (size_t i = 0; i < file_rows.size(); ++i) {
    EXPECT_EQ(file_rows[i].timestep, memory_rows[i].timestep);
    EXPECT_EQ(file_rows[i].zindex, memory_rows[i].zindex);
    EXPECT_EQ(file_rows[i].crc, memory_rows[i].crc);
    EXPECT_EQ(file_rows[i].bytes, memory_rows[i].bytes);
  }
  EXPECT_EQ(BuildMerkleTree(file_rows).root, BuildMerkleTree(memory_rows).root);
}

}  // namespace
}  // namespace turbdb
