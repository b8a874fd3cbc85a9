#include <gtest/gtest.h>

#include <functional>

#include "test_util.h"

namespace turbdb {
namespace {

using testing::MakeTestDb;
using testing::SmallTestSpec;

constexpr int64_t kN = 32;

ThresholdQuery Vorticity(int32_t timestep, double threshold) {
  ThresholdQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = timestep;
  query.box = Box3::WholeGrid(kN, kN, kN);
  query.threshold = threshold;
  return query;
}

TEST(ClusterTest, SingleNodeHasNoRemoteReads) {
  auto db = MakeTestDb(kN, 1, 2, 1);
  ASSERT_NE(db, nullptr);
  QueryOptions options;
  options.use_cache = false;
  auto result = db->Threshold(Vorticity(0, 1.0), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_stats.size(), 1u);
  EXPECT_EQ(result->node_stats[0].io.atoms_read_remote, 0u);
  EXPECT_GT(result->node_stats[0].io.atoms_read_local, 0u);
}

TEST(ClusterTest, MultiNodeFetchesHaloRemotely) {
  auto db = MakeTestDb(kN, 4, 1, 1);
  ASSERT_NE(db, nullptr);
  QueryOptions options;
  options.use_cache = false;
  auto result = db->Threshold(Vorticity(0, 1.0), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_stats.size(), 4u);
  for (const NodeExecutionStats& stats : result->node_stats) {
    EXPECT_GT(stats.io.atoms_read_remote, 0u)
        << "node " << stats.node_id << " should fetch boundary atoms";
    EXPECT_GT(stats.io.bytes_read_remote, 0u);
  }
}

TEST(ClusterTest, HaloReplyLackingAnAtomIsATypedError) {
  // Runs a cold vorticity threshold on two nodes whose fetch replies are
  // passed through `tamper` first.
  auto run = [](std::function<void(std::vector<Atom>*)> tamper) {
    auto db = MakeTestDb(kN, 2, 1, 1);
    if (db == nullptr) return Status::Internal("test db not built");
    Mediator& mediator = db->mediator();
    for (int i = 0; i < mediator.num_nodes(); ++i) {
      mediator.node(i).set_remote_fetch(
          [&mediator, tamper](const NodeQuery&, int owner,
                              const std::string& dataset,
                              const std::string& field, int32_t timestep,
                              const std::vector<uint64_t>& codes,
                              int concurrent, double* cost_s)
              -> Result<std::vector<Atom>> {
            TURBDB_ASSIGN_OR_RETURN(
                std::vector<Atom> atoms,
                mediator.node(owner).ServeAtoms(dataset, field, timestep,
                                                codes, concurrent, cost_s,
                                                nullptr));
            tamper(&atoms);
            return atoms;
          });
    }
    QueryOptions options;
    options.use_cache = false;
    return db->Threshold(Vorticity(0, 1.0), options).status();
  };

  // A reply that drops the last requested atom.
  const Status lacking =
      run([](std::vector<Atom>* atoms) { atoms->pop_back(); });
  EXPECT_EQ(lacking.code(), StatusCode::kInternal) << lacking;
  EXPECT_NE(lacking.message().find("lacks 1 of"), std::string::npos)
      << lacking;

  // A reply whose last atom has half the dataset's atom width (and a
  // payload to match), which would index past it in the slab copy.
  const Status misshapen = run([](std::vector<Atom>* atoms) {
    Atom& atom = atoms->back();
    atom.width /= 2;
    atom.data.resize(static_cast<size_t>(atom.width) * atom.width *
                     atom.width * atom.ncomp);
  });
  EXPECT_EQ(misshapen.code(), StatusCode::kInternal) << misshapen;
  EXPECT_NE(misshapen.message().find("in the wrong shape"), std::string::npos)
      << misshapen;
}

TEST(ClusterTest, LocalGatherOfMissingAtomsIsNotFound) {
  // Time-step 1 is registered but never ingested, so the node's store
  // has no atom for any code the gather scans.
  TurbDBConfig config;
  config.cluster.num_nodes = 1;
  auto db = TurbDB::Open(config);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateDataset(MakeIsotropicDataset("iso", kN, 2)).ok());
  ASSERT_TRUE(
      (*db)->IngestSyntheticField("iso", "velocity", SmallTestSpec(7), 0, 1)
          .ok());
  QueryOptions options;
  options.use_cache = false;
  auto result = (*db)->Threshold(Vorticity(1, 1.0), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << result.status();
  EXPECT_NE(result.status().message().find("atom not found"),
            std::string::npos)
      << result.status();
}

TEST(ClusterTest, RawFieldThresholdNeedsNoHalo) {
  // Thresholding the stored field itself ("magnitude") has a pointwise
  // kernel: every node works entirely from local data (Sec. 5.4).
  auto db = MakeTestDb(kN, 4, 2, 1);
  ASSERT_NE(db, nullptr);
  ThresholdQuery query = Vorticity(0, 0.5);
  query.derived_field = "magnitude";
  QueryOptions options;
  options.use_cache = false;
  auto result = db->Threshold(query, options);
  ASSERT_TRUE(result.ok());
  for (const NodeExecutionStats& stats : result->node_stats) {
    EXPECT_EQ(stats.io.atoms_read_remote, 0u);
  }
}

TEST(ClusterTest, IoOnlyModeSkipsComputeAndCache) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  QueryOptions options;
  options.io_only = true;
  auto result = db->Threshold(Vorticity(0, 1.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->points.empty());
  EXPECT_GT(result->time.io_s, 0.0);
  EXPECT_EQ(result->time.compute_s, 0.0);
  EXPECT_EQ(result->time.cache_lookup_s, 0.0);
  // Counters still report the workload volume (used by projections).
  uint64_t evaluated = 0;
  for (const auto& stats : result->node_stats) {
    evaluated += stats.io.points_evaluated;
  }
  EXPECT_EQ(evaluated, static_cast<uint64_t>(kN * kN * kN));
  // And nothing was cached.
  auto after = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->all_cache_hits);
}

TEST(ClusterTest, ModeledIoDropsAndComputeSaturatesWithProcesses) {
  // Use the halo-free "magnitude" kernel so the per-process byte volume
  // is exactly total/P and the device model's sqrt(P) contention is the
  // only I/O effect (with halos, tiny test grids add enough read
  // redundancy to mask it; Fig. 8 exercises the full picture at bench
  // scale).
  auto db = MakeTestDb(kN, 1, 1, 1);
  ASSERT_NE(db, nullptr);
  ThresholdQuery query = Vorticity(0, 1.0);
  QueryOptions options;
  options.use_cache = false;
  options.processes_per_node = 1;
  auto vort_one = db->Threshold(query, options);
  options.processes_per_node = 4;
  auto vort_four = db->Threshold(query, options);
  options.processes_per_node = 8;
  auto vort_eight = db->Threshold(query, options);
  ASSERT_TRUE(vort_one.ok());
  ASSERT_TRUE(vort_four.ok());
  ASSERT_TRUE(vort_eight.ok());
  // Compute: scales to 4 processes, saturates at 8 (4 effective cores).
  EXPECT_LT(vort_four->time.compute_s, vort_one->time.compute_s / 2.0);
  EXPECT_NEAR(vort_eight->time.compute_s, vort_four->time.compute_s,
              0.25 * vort_four->time.compute_s);

  query.derived_field = "magnitude";
  query.threshold = 0.5;
  options.processes_per_node = 1;
  auto one = db->Threshold(query, options);
  options.processes_per_node = 4;
  auto four = db->Threshold(query, options);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  // I/O transfer: (bytes/4) * sqrt(4) = half the single-process time;
  // the per-scan seek (8 ms) does not divide, so bound directionally.
  EXPECT_LT(four->time.io_s, one->time.io_s);
  EXPECT_GT(four->time.io_s, one->time.io_s / 4.0);
}

TEST(ClusterTest, CacheMissAddsOnlySmallOverhead) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  QueryOptions no_cache;
  no_cache.use_cache = false;
  auto baseline = db->Threshold(Vorticity(0, 1.5), no_cache);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(db->DropCache("iso", "velocity", "vorticity", 0).ok());
  auto miss = db->Threshold(Vorticity(0, 1.5));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->all_cache_hits);
  // The paper reports < 3% overhead from interrogating the cache first.
  EXPECT_LT(miss->time.Total(), 1.03 * baseline->time.Total());
}

TEST(ClusterTest, FieldStatsMatchPdfMoments) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  FieldStatsQuery stats_query;
  stats_query.dataset = "iso";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.timestep = 0;
  stats_query.box = Box3::WholeGrid(kN, kN, kN);
  auto stats = db->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->count, static_cast<uint64_t>(kN * kN * kN));
  EXPECT_GT(stats->rms, stats->mean * 0.5);
  EXPECT_GT(stats->max, stats->rms);

  // All mass in the PDF below the max, none above it.
  PdfQuery pdf_query;
  pdf_query.dataset = "iso";
  pdf_query.raw_field = "velocity";
  pdf_query.derived_field = "vorticity";
  pdf_query.timestep = 0;
  pdf_query.box = stats_query.box;
  pdf_query.bin_width = stats->max + 1.0;
  pdf_query.num_bins = 1;
  auto pdf = db->Pdf(pdf_query);
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->counts[0], stats->count);
  EXPECT_EQ(pdf->counts[1], 0u);
}

TEST(ClusterTest, SubBoxQueryTouchesOnlyOwningNodes) {
  auto db = MakeTestDb(kN, 4, 1, 1);
  ASSERT_NE(db, nullptr);
  // A single atom's box: only one node owns it.
  ThresholdQuery query = Vorticity(0, 0.0);
  query.box = Box3(0, 0, 0, 8, 8, 8);
  QueryOptions options;
  options.use_cache = false;
  options.max_result_points = 10000;
  auto result = db->Threshold(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->node_stats.size(), 1u);
  EXPECT_EQ(result->points.size(), 512u);
}

TEST(ClusterTest, HigherFdOrderComputesMoreFlops) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  QueryOptions options;
  options.use_cache = false;
  ThresholdQuery query = Vorticity(0, 1.0);
  query.fd_order = 2;
  auto low = db->Threshold(query, options);
  query.fd_order = 8;
  auto high = db->Threshold(query, options);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GT(high->time.compute_s, low->time.compute_s);
}

TEST(ClusterTest, CacheKeySeparatesFdOrders) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  ThresholdQuery query = Vorticity(0, 1.5);
  query.fd_order = 4;
  ASSERT_TRUE(db->Threshold(query).ok());
  // Same query at order 8 must NOT be served from the order-4 entry.
  query.fd_order = 8;
  auto other = db->Threshold(query);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->all_cache_hits);
}

TEST(ClusterTest, FilteredFieldThresholdHasFewerExtremes) {
  // Box filtering damps small-scale intensity, so at the same threshold
  // the filtered field has (weakly) fewer points above it — and the
  // filtered query works through the whole cache/halo machinery.
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  ThresholdQuery raw_query = Vorticity(0, 0.0);
  raw_query.derived_field = "magnitude";
  raw_query.threshold = 1.8;
  QueryOptions options;
  options.use_cache = false;
  auto raw = db->Threshold(raw_query, options);
  ASSERT_TRUE(raw.ok());
  ThresholdQuery filtered_query = raw_query;
  filtered_query.derived_field = "box_filter";
  auto filtered = db->Threshold(filtered_query, options);
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_LE(filtered->points.size(), raw->points.size());
  // And the filtered results cache like any other derived field.
  auto warm = db->Threshold(filtered_query);
  ASSERT_TRUE(warm.ok());
  auto hit = db->Threshold(filtered_query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->all_cache_hits);
}

TEST(ClusterTest, DuplicateDatasetRejected) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->CreateDataset(MakeIsotropicDataset("iso", kN, 1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ClusterTest, PdfOverSubBoxCountsOnlyThatBox) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  PdfQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3(4, 8, 2, 20, 24, 30);
  query.bin_width = 100.0;  // Everything lands in bin 0.
  query.num_bins = 1;
  auto pdf = db->Pdf(query);
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->total_points,
            static_cast<uint64_t>(query.box.Volume()));
}

// A bin width so small that norm / width passes INT_MAX: the bin is
// clamped to the overflow bin in double, so the run neither crashes nor
// loses a point (the int conversion used to index outside the
// histogram).
TEST(ClusterTest, PdfWithATinyBinWidthKeepsEveryPoint) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  PdfQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3::WholeGrid(kN, kN, kN);
  query.bin_width = 1e-12;
  query.num_bins = 9;
  auto pdf = db->Pdf(query);
  ASSERT_TRUE(pdf.ok()) << pdf.status();
  ASSERT_EQ(pdf->counts.size(), 10u);
  uint64_t total = 0;
  for (uint64_t count : pdf->counts) total += count;
  EXPECT_EQ(total, static_cast<uint64_t>(kN * kN * kN));
  EXPECT_EQ(pdf->total_points, total);
  EXPECT_GT(pdf->counts.back(), 0u);
}

TEST(ClusterTest, WallTimeIsMeasured) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  auto result = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->wall_seconds, 0.0);
}

}  // namespace
}  // namespace turbdb
