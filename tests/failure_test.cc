// Failure injection: storage corruption and partially ingested datasets
// must surface as clean Status errors from the query API, never as
// wrong answers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "test_util.h"

namespace turbdb {
namespace {

using testing::SmallTestSpec;

ThresholdQuery Vorticity(int64_t n, double threshold) {
  ThresholdQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3::WholeGrid(n, n, n);
  query.threshold = threshold;
  return query;
}

TEST(FailureTest, OnDiskCorruptionSurfacesAsCorruptionStatus) {
  const testing::ScopedTempDir scoped_dir("turbdb_corrupt");
  const std::string& dir = scoped_dir.path();

  {
    TurbDBConfig config;
    config.cluster.num_nodes = 2;
    config.cluster.processes_per_node = 1;
    config.cluster.storage_dir = dir;
    auto db = TurbDB::Open(config);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateDataset(MakeIsotropicDataset("iso", 32, 1)).ok());
    ASSERT_TRUE((*db)
                    ->IngestSyntheticField("iso", "velocity",
                                           SmallTestSpec(7), 0, 1)
                    .ok());
  }

  // Flip payload bytes in node 0's file (well past the first header).
  const std::string path = dir + "/node0_iso_velocity.tatm";
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, 4096, SEEK_SET), 0);
  const char garbage[16] = {2, 3, 5, 7, 11, 13, 17, 19,
                            23, 29, 31, 37, 41, 43, 47, 53};
  ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), file), sizeof(garbage));
  std::fclose(file);

  TurbDBConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.processes_per_node = 1;
  config.cluster.storage_dir = dir;
  auto db = TurbDB::Open(config);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateDataset(MakeIsotropicDataset("iso", 32, 1)).ok());
  auto result = (*db)->Threshold(Vorticity(32, 1.0));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status();
}

TEST(FailureTest, PartiallyIngestedDatasetFailsCleanly) {
  TurbDBConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.processes_per_node = 1;
  auto db_or = TurbDB::Open(config);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  ASSERT_TRUE(db->CreateDataset(MakeIsotropicDataset("iso", 32, 1)).ok());

  // Hand-ingest only node 0's shard: node 1 has nothing.
  const GridGeometry geometry = GridGeometry::Isotropic(32);
  SyntheticField generator(SmallTestSpec(7), geometry, 3);
  auto partitioner = MortonPartitioner::Create(geometry, 2);
  ASSERT_TRUE(partitioner.ok());
  for (uint64_t code : partitioner->NodeAtoms(0)) {
    auto atom = generator.GenerateAtom(0, code);
    ASSERT_TRUE(atom.ok());
    ASSERT_TRUE(
        db->mediator().node(0).IngestAtom("iso", "velocity", *atom).ok());
  }

  // A whole-grid query needs node 1's data: clean NotFound, no crash.
  auto result = db->Threshold(Vorticity(32, 1.0));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status();

  // A box fully inside node 0's shard that needs no halo from node 1
  // still works: the raw-field magnitude has a pointwise kernel.
  const std::vector<uint64_t>& shard = partitioner->NodeAtoms(0);
  uint32_t ax, ay, az;
  MortonDecode3(shard.front(), &ax, &ay, &az);
  ThresholdQuery query = Vorticity(32, 0.0);
  query.derived_field = "magnitude";
  query.box = Box3(ax * 8, ay * 8, az * 8, (ax + 1) * 8, (ay + 1) * 8,
                   (az + 1) * 8);
  QueryOptions options;
  options.use_cache = false;
  auto local = db->Threshold(query, options);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(local->points.size(), 512u);
}

TEST(FailureTest, MissingTimestepIsNotFound) {
  auto db = testing::MakeTestDb(32, 2, 1, 2);  // Steps 0 and 1 ingested.
  ASSERT_NE(db, nullptr);
  // Dataset declares 2 timesteps; asking for step 1 works, step 2 is out
  // of range (catalog), and a declared-but-never-ingested step fails as
  // NotFound at the storage layer.
  auto ok = db->Threshold(Vorticity(32, 1.0));
  ASSERT_TRUE(ok.ok());

  TurbDBConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.processes_per_node = 1;
  auto sparse_or = TurbDB::Open(config);
  ASSERT_TRUE(sparse_or.ok());
  auto sparse = std::move(sparse_or).value();
  ASSERT_TRUE(sparse->CreateDataset(MakeIsotropicDataset("iso", 32, 4)).ok());
  ASSERT_TRUE(sparse
                  ->IngestSyntheticField("iso", "velocity", SmallTestSpec(7),
                                         0, 1)
                  .ok());
  ThresholdQuery query = Vorticity(32, 1.0);
  query.timestep = 3;  // Declared but not ingested.
  auto missing = sparse->Threshold(query);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

}  // namespace
}  // namespace turbdb
