// Differential tests of the node tier's atom ceilings. Once a threshold
// evaluation has recorded the norm ceiling of every atom it covered
// whole, a later cache miss skips each atom whose ceiling fails the
// threshold. Every answer must stay byte-identical to the uncached one
// (which never consults ceilings), for thresholds equal to a recorded
// ceiling, one double ulp either side of it and RMS multiples, over
// partial-atom, face-sharing, periodic-wrap and single-atom boxes, in
// process and through forked turbdb_node processes. The paths that must
// not prune (dropped entries, a zero-capacity cache, use_cache = false,
// io_only) still evaluate every atom.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "array/morton.h"
#include "core/turbdb.h"
#include "wire/serializer.h"

#include "process_harness.h"

namespace turbdb {
namespace {

using testprocs::NodeProcessCluster;

constexpr int64_t kGrid = 32;
constexpr int64_t kAtomWidth = 8;
constexpr uint64_t kSeed = 2015;
const Box3 kWhole = Box3::WholeGrid(kGrid, kGrid, kGrid);

/// One whole atom; a box on the grid's faces, whose halo wraps around
/// the periodic axes; partial atoms on every face; two halves sharing the
/// face x = 16. No box contains an earlier one, so at one threshold each
/// misses the node caches.
const std::vector<Box3> kBoxes = {
    Box3(8, 16, 24, 16, 24, 32), Box3(24, 0, 0, 32, 8, 32),
    Box3(3, 5, 2, 27, 21, 30), Box3(0, 0, 0, 16, 32, 32),
    Box3(16, 0, 0, 32, 32, 32)};

ThresholdQuery Query(const Box3& box, double threshold) {
  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = box;
  query.threshold = threshold;
  query.fd_order = 4;
  return query;
}

QueryOptions Uncached() {
  QueryOptions options;
  options.use_cache = false;
  return options;
}

uint64_t AtomsRead(const ThresholdResult& result) {
  uint64_t atoms = 0;
  for (const NodeExecutionStats& stats : result.node_stats) {
    atoms += stats.io.atoms_read_local + stats.io.atoms_read_remote;
  }
  return atoms;
}

uint64_t PointsEvaluated(const ThresholdResult& result) {
  uint64_t points = 0;
  for (const NodeExecutionStats& stats : result.node_stats) {
    points += stats.io.points_evaluated;
  }
  return points;
}

/// Opens an in-process cluster of three nodes over the 32^3 MHD step.
std::unique_ptr<TurbDB> OpenInProcess(uint64_t cache_capacity_bytes) {
  TurbDBConfig config;
  config.cluster.num_nodes = 3;
  config.cluster.processes_per_node = 2;
  config.cluster.cost.cache_capacity_bytes = cache_capacity_bytes;
  auto db = TurbDB::Open(config);
  EXPECT_TRUE(db.ok()) << db.status();
  if (!db.ok()) return nullptr;
  const Status ingest =
      EnsureMhdDemoData(db->get(), "mhd", kGrid, /*timesteps=*/1, kSeed);
  EXPECT_TRUE(ingest.ok()) << ingest;
  return ingest.ok() ? std::move(db).value() : nullptr;
}

/// Opens a mediator over forked turbdb_node processes.
std::unique_ptr<TurbDB> OpenDistributed(const ClusterTopology& topology) {
  TurbDBConfig config;
  config.cluster.topology = topology;
  config.cluster.processes_per_node = 2;
  config.cluster.remote.max_retries = 1;
  config.cluster.remote.backoff_initial_ms = 20;
  auto db = TurbDB::Open(config);
  EXPECT_TRUE(db.ok()) << db.status();
  if (!db.ok()) return nullptr;
  const Status ingest =
      EnsureMhdDemoData(db->get(), "mhd", kGrid, /*timesteps=*/1, kSeed);
  EXPECT_TRUE(ingest.ok()) << ingest;
  return ingest.ok() ? std::move(db).value() : nullptr;
}

/// Each atom's ceiling as the node records it: the largest float norm of
/// its points, read off an uncached threshold at 0.
std::map<uint64_t, float> AtomCeilings(TurbDB* db) {
  std::map<uint64_t, float> ceilings;
  auto all = db->Threshold(Query(kWhole, 0.0), Uncached());
  EXPECT_TRUE(all.ok()) << all.status();
  if (!all.ok()) return ceilings;
  EXPECT_EQ(all->points.size(), static_cast<size_t>(kGrid * kGrid * kGrid));
  for (const ThresholdPoint& point : all->points) {
    uint32_t x = 0, y = 0, z = 0;
    point.Coords(&x, &y, &z);
    const uint64_t code = MortonEncode3(x / kAtomWidth, y / kAtomWidth,
                                        z / kAtomWidth);
    auto [it, inserted] = ceilings.try_emplace(code, point.norm);
    if (!inserted) it->second = std::max(it->second, point.norm);
  }
  return ceilings;
}

/// The sweep's thresholds, highest first: a spread of recorded ceilings,
/// each exactly and one double ulp either side, and RMS multiples.
std::vector<double> SweepThresholds(const std::map<uint64_t, float>& ceilings,
                                    double rms) {
  std::vector<float> sorted;
  for (const auto& [code, ceiling] : ceilings) sorted.push_back(ceiling);
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> thresholds;
  for (double quantile : {1.0, 0.9, 0.75, 0.5, 0.25, 0.0}) {
    const double ceiling = static_cast<double>(sorted[static_cast<size_t>(
        quantile * static_cast<double>(sorted.size() - 1))]);
    thresholds.push_back(std::nextafter(ceiling, 0.0));
    thresholds.push_back(ceiling);
    thresholds.push_back(
        std::nextafter(ceiling, std::numeric_limits<double>::infinity()));
  }
  for (double multiple : {8.0, 6.0, 4.4, 3.0, 2.0}) {
    thresholds.push_back(multiple * rms);
  }
  std::sort(thresholds.begin(), thresholds.end(), std::greater<double>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  return thresholds;
}

double Rms(TurbDB* db) {
  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = kWhole;
  auto stats = db->FieldStats(stats_query);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? stats->rms : 1.0;
}

/// Records every atom's ceiling with a whole-grid query no point passes
/// (its cache entry serves no lower threshold), then checks that a second
/// whole-grid query reads fewer atoms than the first and that every box
/// and threshold of the sweep answers like the uncached query. Highest
/// thresholds go first, so every query of the sweep misses the node
/// caches and evaluates what its ceilings leave.
void ExpectPrunedAnswersMatchUncached(TurbDB* db) {
  const std::map<uint64_t, float> ceilings = AtomCeilings(db);
  ASSERT_EQ(ceilings.size(), 64u);
  const std::vector<double> thresholds = SweepThresholds(ceilings, Rms(db));

  auto first = db->Threshold(Query(kWhole, 1e30));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->points.empty());
  EXPECT_EQ(PointsEvaluated(*first), static_cast<uint64_t>(kWhole.Volume()));
  auto second = db->Threshold(Query(kWhole, 1e29));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->all_cache_hits);
  EXPECT_LT(AtomsRead(*second), AtomsRead(*first));
  EXPECT_LT(PointsEvaluated(*second), PointsEvaluated(*first));

  size_t nonempty = 0;
  uint64_t pruned_atoms = 0;
  uint64_t uncached_atoms = 0;
  for (double threshold : thresholds) {
    for (const Box3& box : kBoxes) {
      const ThresholdQuery query = Query(box, threshold);
      auto pruned = db->Threshold(query);
      ASSERT_TRUE(pruned.ok()) << pruned.status();
      EXPECT_FALSE(pruned->all_cache_hits);
      auto uncached = db->Threshold(query, Uncached());
      ASSERT_TRUE(uncached.ok()) << uncached.status();
      ASSERT_EQ(pruned->points, uncached->points)
          << box.ToString() << " at " << threshold;
      EXPECT_EQ(EncodePointsBinary(pruned->points),
                EncodePointsBinary(uncached->points));
      if (!pruned->points.empty()) ++nonempty;
      pruned_atoms += AtomsRead(*pruned);
      uncached_atoms += AtomsRead(*uncached);
    }
  }
  EXPECT_GT(nonempty, kBoxes.size());
  EXPECT_LT(pruned_atoms, uncached_atoms);
}

TEST(NodeCeilingTest, PrunedAnswersMatchUncachedInProcess) {
  std::unique_ptr<TurbDB> db = OpenInProcess(1ULL << 30);
  ASSERT_NE(db, nullptr);
  ExpectPrunedAnswersMatchUncached(db.get());
}

TEST(NodeCeilingTest, PrunedAnswersMatchUncachedOverTcp) {
  auto procs = NodeProcessCluster::Launch(3, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  std::unique_ptr<TurbDB> db = OpenDistributed((*procs)->topology());
  ASSERT_NE(db, nullptr);
  ExpectPrunedAnswersMatchUncached(db.get());

  // Dropping the node caches over RPC drops the ceilings with them.
  ASSERT_TRUE(db->mediator()
                  .DropCacheEntries("mhd", "velocity", "vorticity", -1)
                  .ok());
  auto after_drop = db->Threshold(Query(kWhole, 1e30));
  ASSERT_TRUE(after_drop.ok()) << after_drop.status();
  EXPECT_EQ(PointsEvaluated(*after_drop),
            static_cast<uint64_t>(kWhole.Volume()));
}

// Once every ceiling is recorded, each path that leaves the node cache
// out still reads and evaluates every atom of the grid.
TEST(NodeCeilingTest, PathsWithoutTheCacheEvaluateEveryAtom) {
  std::unique_ptr<TurbDB> db = OpenInProcess(1ULL << 30);
  ASSERT_NE(db, nullptr);
  const uint64_t grid_points = static_cast<uint64_t>(kWhole.Volume());
  auto first = db->Threshold(Query(kWhole, 1e30));
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t all_atoms = AtomsRead(*first);
  ASSERT_GT(all_atoms, 0u);
  const double high = 1e29;  // Above every ceiling, below the entry's.

  auto uncached = db->Threshold(Query(kWhole, high), Uncached());
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  EXPECT_EQ(AtomsRead(*uncached), all_atoms);
  EXPECT_EQ(PointsEvaluated(*uncached), grid_points);

  QueryOptions io_only;
  io_only.io_only = true;
  auto io = db->Threshold(Query(kWhole, high), io_only);
  ASSERT_TRUE(io.ok()) << io.status();
  EXPECT_EQ(AtomsRead(*io), all_atoms);
  EXPECT_EQ(PointsEvaluated(*io), grid_points);

  // The ceilings are in place: a cached miss skips every atom...
  auto pruned = db->Threshold(Query(kWhole, high));
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(AtomsRead(*pruned), 0u);
  EXPECT_EQ(PointsEvaluated(*pruned), 0u);
  EXPECT_TRUE(pruned->points.empty());
  // ...until the cache entries, and the ceilings with them, are dropped.
  ASSERT_TRUE(db->mediator()
                  .DropCacheEntries("mhd", "velocity", "vorticity", 0)
                  .ok());
  auto dropped = db->Threshold(Query(kWhole, high / 2));
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  EXPECT_EQ(AtomsRead(*dropped), all_atoms);
  EXPECT_EQ(PointsEvaluated(*dropped), grid_points);

  // A node cache of capacity 0 records nothing.
  std::unique_ptr<TurbDB> no_cache = OpenInProcess(0);
  ASSERT_NE(no_cache, nullptr);
  ASSERT_TRUE(no_cache->Threshold(Query(kWhole, 1e30)).ok());
  auto disabled = no_cache->Threshold(Query(kWhole, high));
  ASSERT_TRUE(disabled.ok()) << disabled.status();
  EXPECT_EQ(AtomsRead(*disabled), all_atoms);
  EXPECT_EQ(PointsEvaluated(*disabled), grid_points);
}

}  // namespace
}  // namespace turbdb
