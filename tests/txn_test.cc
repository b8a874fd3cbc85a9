#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "txn/txn_manager.h"
#include "txn/versioned_table.h"

namespace turbdb {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  TransactionManager manager_;
  VersionedTable<int, std::string> table_;
};

TEST_F(TxnTest, CommittedWritesBecomeVisible) {
  auto writer = manager_.Begin();
  table_.Put(writer.get(), 1, "one");
  // Invisible to other snapshots before commit.
  auto reader = manager_.Begin();
  EXPECT_TRUE(table_.Get(reader.get(), 1).status().IsNotFound());
  // Visible to the writer itself.
  EXPECT_EQ(table_.Get(writer.get(), 1).value(), "one");
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());
  // Still invisible to the old snapshot...
  EXPECT_TRUE(table_.Get(reader.get(), 1).status().IsNotFound());
  manager_.Abort(reader.get());
  // ...but visible to new ones.
  auto later = manager_.Begin();
  EXPECT_EQ(table_.Get(later.get(), 1).value(), "one");
  manager_.Abort(later.get());
}

TEST_F(TxnTest, SnapshotIsStableAcrossConcurrentCommits) {
  {
    auto setup = manager_.Begin();
    table_.Put(setup.get(), 1, "v1");
    ASSERT_TRUE(manager_.Commit(setup.get()).ok());
  }
  auto reader = manager_.Begin();
  {
    auto writer = manager_.Begin();
    table_.Put(writer.get(), 1, "v2");
    ASSERT_TRUE(manager_.Commit(writer.get()).ok());
  }
  // The reader keeps seeing v1 (repeatable snapshot, no dirty reads).
  EXPECT_EQ(table_.Get(reader.get(), 1).value(), "v1");
  manager_.Abort(reader.get());
  auto fresh = manager_.Begin();
  EXPECT_EQ(table_.Get(fresh.get(), 1).value(), "v2");
  manager_.Abort(fresh.get());
}

TEST_F(TxnTest, FirstCommitterWinsOnWriteWriteConflict) {
  auto a = manager_.Begin();
  auto b = manager_.Begin();
  table_.Put(a.get(), 7, "from-a");
  table_.Put(b.get(), 7, "from-b");
  ASSERT_TRUE(manager_.Commit(a.get()).ok());
  EXPECT_TRUE(manager_.Commit(b.get()).IsAborted());
  auto check = manager_.Begin();
  EXPECT_EQ(table_.Get(check.get(), 7).value(), "from-a");
  manager_.Abort(check.get());
}

TEST_F(TxnTest, DisjointWritesDoNotConflict) {
  auto a = manager_.Begin();
  auto b = manager_.Begin();
  table_.Put(a.get(), 1, "a");
  table_.Put(b.get(), 2, "b");
  EXPECT_TRUE(manager_.Commit(a.get()).ok());
  EXPECT_TRUE(manager_.Commit(b.get()).ok());
}

TEST_F(TxnTest, AbortDiscardsWrites) {
  auto writer = manager_.Begin();
  table_.Put(writer.get(), 9, "ghost");
  manager_.Abort(writer.get());
  auto reader = manager_.Begin();
  EXPECT_TRUE(table_.Get(reader.get(), 9).status().IsNotFound());
  manager_.Abort(reader.get());
}

TEST_F(TxnTest, DeleteIsVersioned) {
  {
    auto setup = manager_.Begin();
    table_.Put(setup.get(), 5, "here");
    ASSERT_TRUE(manager_.Commit(setup.get()).ok());
  }
  auto reader = manager_.Begin();
  {
    auto deleter = manager_.Begin();
    table_.Delete(deleter.get(), 5);
    // Deletion visible to the deleting transaction itself.
    EXPECT_TRUE(table_.Get(deleter.get(), 5).status().IsNotFound());
    ASSERT_TRUE(manager_.Commit(deleter.get()).ok());
  }
  // Old snapshot still sees the record.
  EXPECT_EQ(table_.Get(reader.get(), 5).value(), "here");
  manager_.Abort(reader.get());
  auto fresh = manager_.Begin();
  EXPECT_TRUE(table_.Get(fresh.get(), 5).status().IsNotFound());
  manager_.Abort(fresh.get());
}

TEST_F(TxnTest, ScanMergesSnapshotWithOwnWrites) {
  {
    auto setup = manager_.Begin();
    table_.Put(setup.get(), 2, "two");
    table_.Put(setup.get(), 4, "four");
    table_.Put(setup.get(), 6, "six");
    ASSERT_TRUE(manager_.Commit(setup.get()).ok());
  }
  auto txn = manager_.Begin();
  table_.Put(txn.get(), 3, "three");   // Own insert.
  table_.Put(txn.get(), 4, "FOUR");    // Own overwrite.
  table_.Delete(txn.get(), 6);         // Own delete.
  table_.Put(txn.get(), 9, "nine");    // Own insert beyond committed keys.
  std::vector<std::pair<int, std::string>> seen;
  table_.Scan(txn.get(), 0, 100, [&](const int& key, const std::string& value) {
    seen.push_back({key, value});
    return true;
  });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<int, std::string>{2, "two"}));
  EXPECT_EQ(seen[1], (std::pair<int, std::string>{3, "three"}));
  EXPECT_EQ(seen[2], (std::pair<int, std::string>{4, "FOUR"}));
  EXPECT_EQ(seen[3], (std::pair<int, std::string>{9, "nine"}));
  manager_.Abort(txn.get());
}

TEST_F(TxnTest, ScanEarlyStop) {
  auto setup = manager_.Begin();
  for (int key = 0; key < 10; ++key) table_.Put(setup.get(), key, "x");
  ASSERT_TRUE(manager_.Commit(setup.get()).ok());
  auto txn = manager_.Begin();
  int count = 0;
  table_.Scan(txn.get(), 0, 10, [&](const int&, const std::string&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3);
  manager_.Abort(txn.get());
}

TEST_F(TxnTest, GarbageCollectionDropsSupersededVersions) {
  for (int round = 0; round < 5; ++round) {
    auto txn = manager_.Begin();
    table_.Put(txn.get(), 1, "v" + std::to_string(round));
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  // No active transactions: everything up to the last commit can go.
  const size_t reclaimed = table_.GarbageCollect(manager_.GcHorizon());
  EXPECT_EQ(reclaimed, 4u);
  auto reader = manager_.Begin();
  EXPECT_EQ(table_.Get(reader.get(), 1).value(), "v4");
  manager_.Abort(reader.get());
}

TEST_F(TxnTest, GcRemovesDeletedKeys) {
  {
    auto txn = manager_.Begin();
    table_.Put(txn.get(), 1, "x");
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  {
    auto txn = manager_.Begin();
    table_.Delete(txn.get(), 1);
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  EXPECT_EQ(table_.LiveKeyCount(manager_.last_commit_ts()), 0u);
  EXPECT_EQ(table_.GarbageCollect(manager_.GcHorizon()), 2u);
}

TEST_F(TxnTest, VersionsChainPastTheInlineFirstOne) {
  auto commit_put = [&](int key, const std::string& value) {
    auto txn = manager_.Begin();
    table_.Put(txn.get(), key, value);
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  };
  commit_put(1, "v1");
  commit_put(2, "only");
  auto s1 = manager_.Begin();
  commit_put(1, "v2");
  auto s2 = manager_.Begin();
  commit_put(1, "v3");

  // Three versions of key 1: each snapshot sees its own.
  EXPECT_EQ(table_.Get(s1.get(), 1).value(), "v1");
  EXPECT_EQ(table_.Get(s2.get(), 1).value(), "v2");
  {
    auto fresh = manager_.Begin();
    EXPECT_EQ(table_.Get(fresh.get(), 1).value(), "v3");
    std::vector<std::string> seen;
    table_.Scan(fresh.get(), 0, 10, [&](const int&, const std::string& v) {
      seen.push_back(v);
      return true;
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"v3", "only"}));
    manager_.Abort(fresh.get());
  }

  // GC drops the oldest version only once no snapshot can read it.
  EXPECT_EQ(table_.GarbageCollect(manager_.GcHorizon()), 0u);
  manager_.Abort(s1.get());
  EXPECT_EQ(table_.GarbageCollect(manager_.GcHorizon()), 1u);
  EXPECT_EQ(table_.Get(s2.get(), 1).value(), "v2");
  manager_.Abort(s2.get());
  EXPECT_EQ(table_.GarbageCollect(manager_.GcHorizon()), 1u);
  EXPECT_EQ(table_.LiveKeyCount(manager_.last_commit_ts()), 2u);

  // A single-version key still detects write-write conflicts.
  auto a = manager_.Begin();
  commit_put(2, "b wins");
  table_.Put(a.get(), 2, "a loses");
  EXPECT_TRUE(manager_.Commit(a.get()).IsAborted());

  // Delete then GC erases the key; it can be written again.
  {
    auto txn = manager_.Begin();
    table_.Delete(txn.get(), 1);
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  EXPECT_EQ(table_.GarbageCollect(manager_.GcHorizon()), 3u);
  EXPECT_EQ(table_.LiveKeyCount(manager_.last_commit_ts()), 1u);
  commit_put(1, "again");
  auto reader = manager_.Begin();
  EXPECT_EQ(table_.Get(reader.get(), 1).value(), "again");
  manager_.Abort(reader.get());
}

TEST_F(TxnTest, GcHorizonRespectsActiveSnapshots) {
  {
    auto txn = manager_.Begin();
    table_.Put(txn.get(), 1, "old");
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  auto reader = manager_.Begin();  // Holds the horizon at "old".
  {
    auto txn = manager_.Begin();
    table_.Put(txn.get(), 1, "new");
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  table_.GarbageCollect(manager_.GcHorizon());
  // The reader's version must have survived GC.
  EXPECT_EQ(table_.Get(reader.get(), 1).value(), "old");
  manager_.Abort(reader.get());
}

TEST_F(TxnTest, ConcurrentIncrementsSerialize) {
  // N threads increment a counter under first-committer-wins, retrying on
  // abort: the final value must be exactly N * K.
  constexpr int kThreads = 4;
  constexpr int kIncrements = 25;
  {
    auto txn = manager_.Begin();
    table_.Put(txn.get(), 0, "0");
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> aborts{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &aborts] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          auto txn = manager_.Begin();
          const int value = std::stoi(table_.Get(txn.get(), 0).value());
          table_.Put(txn.get(), 0, std::to_string(value + 1));
          Status status = manager_.Commit(txn.get());
          if (status.ok()) break;
          ASSERT_TRUE(status.IsAborted());
          aborts.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto reader = manager_.Begin();
  EXPECT_EQ(table_.Get(reader.get(), 0).value(),
            std::to_string(kThreads * kIncrements));
  manager_.Abort(reader.get());
}

}  // namespace
}  // namespace turbdb
