// Durable-storage mode: nodes persist their shards in checksummed
// append-only files, and a new cluster instance over the same directory
// serves identical query results without re-ingesting.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "test_util.h"

namespace turbdb {
namespace {

using testing::SmallTestSpec;

class DurableClusterTest : public ::testing::Test {
 protected:
  std::unique_ptr<TurbDB> OpenDb() {
    TurbDBConfig config;
    config.cluster.num_nodes = 2;
    config.cluster.processes_per_node = 2;
    config.cluster.storage_dir = dir_.path();
    auto db = TurbDB::Open(config);
    if (!db.ok()) return nullptr;
    if (!(*db)->CreateDataset(MakeIsotropicDataset("iso", 32, 1)).ok()) {
      return nullptr;
    }
    return std::move(db).value();
  }

  const testing::ScopedTempDir dir_{"turbdb_cluster"};
};

ThresholdQuery Vorticity(double threshold) {
  ThresholdQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3::WholeGrid(32, 32, 32);
  query.threshold = threshold;
  return query;
}

TEST_F(DurableClusterTest, SurvivesReopen) {
  std::vector<ThresholdPoint> expected;
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->IngestSyntheticField("iso", "velocity",
                                         SmallTestSpec(7), 0, 1)
                    .ok());
    auto result = db->Threshold(Vorticity(1.5));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(result->points.empty());
    expected = result->points;
  }
  // Data files exist on disk, one per (node, dataset, field).
  struct stat info;
  EXPECT_EQ(::stat((dir_.path() + "/node0_iso_velocity.tatm").c_str(), &info),
            0);
  EXPECT_EQ(::stat((dir_.path() + "/node1_iso_velocity.tatm").c_str(), &info),
            0);

  // A fresh cluster over the same directory answers without ingesting.
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    auto result = db->Threshold(Vorticity(1.5));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->points.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result->points[i].zindex, expected[i].zindex);
      EXPECT_EQ(result->points[i].norm, expected[i].norm);
    }
  }
}

TEST_F(DurableClusterTest, MatchesInMemoryResults) {
  auto durable = OpenDb();
  ASSERT_NE(durable, nullptr);
  ASSERT_TRUE(durable
                  ->IngestSyntheticField("iso", "velocity", SmallTestSpec(7),
                                         0, 1)
                  .ok());
  auto memory_db = testing::MakeTestDb(32, 2, 2, 1);
  ASSERT_NE(memory_db, nullptr);

  auto durable_result = durable->Threshold(Vorticity(1.2));
  auto memory_result = memory_db->Threshold(Vorticity(1.2));
  ASSERT_TRUE(durable_result.ok());
  ASSERT_TRUE(memory_result.ok());
  ASSERT_EQ(durable_result->points.size(), memory_result->points.size());
  for (size_t i = 0; i < memory_result->points.size(); ++i) {
    EXPECT_EQ(durable_result->points[i].zindex,
              memory_result->points[i].zindex);
  }
  // Modeled time is storage-medium independent by design.
  EXPECT_DOUBLE_EQ(durable_result->time.io_s, memory_result->time.io_s);
}

TEST_F(DurableClusterTest, MissingFieldStillFailsCleanly) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  auto result = db->Threshold(Vorticity(1.0));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status();
}

}  // namespace
}  // namespace turbdb
