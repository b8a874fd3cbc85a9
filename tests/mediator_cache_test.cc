#include "cache/mediator_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "cluster/mediator.h"
#include "test_util.h"
#include "wire/serializer.h"

namespace turbdb {
namespace {

using testing::SmallTestSpec;

std::vector<ThresholdPoint> MakePoints(int count, float base_norm,
                                       uint32_t offset = 0) {
  std::vector<ThresholdPoint> points;
  points.reserve(count);
  for (int i = 0; i < count; ++i) {
    points.push_back(MakeThresholdPoint(offset + i, offset + i, offset + i,
                                        base_norm + i));
  }
  return points;
}

class MediatorCacheTest : public ::testing::Test {
 protected:
  MediatorCacheTest() : cache_(1 << 20) {}

  MediatorCache cache_;
  const Box3 whole_ = Box3::WholeGrid(64, 64, 64);
};

TEST_F(MediatorCacheTest, MissOnEmptyCache) {
  auto lookup = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0);
  EXPECT_FALSE(lookup.hit);
  EXPECT_TRUE(lookup.points.empty());
  EXPECT_EQ(cache_.stats().misses, 1u);
}

TEST_F(MediatorCacheTest, DisabledCacheNeverHits) {
  MediatorCache disabled(0);
  EXPECT_FALSE(disabled.enabled());
  disabled.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                  MakePoints(5, 12.0f), disabled.epoch());
  auto lookup = disabled.Lookup("mhd", "velocity:vorticity", 4, 0, whole_,
                                10.0);
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(disabled.stats().entries, 0u);
}

TEST_F(MediatorCacheTest, ExactRepeatIsAHitNotASubsumption) {
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(8, 12.0f), cache_.epoch());
  auto lookup = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0);
  ASSERT_TRUE(lookup.hit);
  EXPECT_FALSE(lookup.subsumed);
  EXPECT_EQ(lookup.points.size(), 8u);
  const MediatorCacheStats stats = cache_.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.subsumption_hits, 0u);
}

// Satellite edge case: a query whose threshold is *exactly* the stored
// threshold must hit — the entry holds all points with norm >= t, which
// is precisely the answer set. Strictly below must miss.
TEST_F(MediatorCacheTest, ThresholdExactlyEqualHits) {
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(20, 10.0f), cache_.epoch());
  auto equal = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0);
  ASSERT_TRUE(equal.hit);
  EXPECT_EQ(equal.points.size(), 20u);
  auto below = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_,
                             10.0 - 1e-9);
  EXPECT_FALSE(below.hit);
  auto above = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 15.0);
  ASSERT_TRUE(above.hit);
  EXPECT_TRUE(above.subsumed);
  // Stored norms are 10..29; 15 qualify at threshold 15.
  EXPECT_EQ(above.points.size(), 15u);
  for (const ThresholdPoint& point : above.points) {
    EXPECT_GE(point.norm, 15.0f);
  }
}

// Satellite edge case: a query region sharing a face with the cached
// region. Boxes are half-open, so the neighbor on the far side of the
// face shares no points and must miss; a sub-box flush against the face
// from the inside is contained and must hit.
TEST_F(MediatorCacheTest, FaceSharingRegionSemantics) {
  const Box3 left(0, 0, 0, 32, 64, 64);
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, left, 10.0,
                MakePoints(16, 12.0f), cache_.epoch());
  // Neighbor sharing the x=32 face: outside the cached region.
  auto right = cache_.Lookup("mhd", "velocity:vorticity", 4, 0,
                             Box3(32, 0, 0, 64, 64, 64), 10.0);
  EXPECT_FALSE(right.hit);
  // Overlapping the face from both sides: not contained either.
  auto straddle = cache_.Lookup("mhd", "velocity:vorticity", 4, 0,
                                Box3(16, 0, 0, 48, 64, 64), 10.0);
  EXPECT_FALSE(straddle.hit);
  // Flush against the face from the inside: contained, so a hit, and the
  // box filter keeps only points with x < 32 (points 0..15 all qualify).
  auto inside = cache_.Lookup("mhd", "velocity:vorticity", 4, 0,
                              Box3(16, 0, 0, 32, 64, 64), 10.0);
  ASSERT_TRUE(inside.hit);
  EXPECT_TRUE(inside.subsumed);
  for (const ThresholdPoint& point : inside.points) {
    uint32_t x = 0, y = 0, z = 0;
    point.Coords(&x, &y, &z);
    EXPECT_GE(x, 16u);
    EXPECT_LT(x, 32u);
  }
}

TEST_F(MediatorCacheTest, KeyFieldsDiscriminate) {
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(4, 12.0f), cache_.epoch());
  EXPECT_FALSE(
      cache_.Lookup("iso", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:strain", 4, 0, whole_, 10.0).hit);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:vorticity", 6, 0, whole_, 10.0).hit);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:vorticity", 4, 1, whole_, 10.0).hit);
}

// Satellite edge case: an entry computed before an ingest must not be
// committed after it. The ingest bumps the epoch; the insert carries the
// pre-dispatch snapshot and is discarded as stale.
TEST_F(MediatorCacheTest, EpochBumpMidQueryDiscardsInsert) {
  const uint64_t before = cache_.epoch();
  // Ingest lands while the query is in flight.
  cache_.InvalidateRawField("mhd", "velocity", 0);
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(8, 12.0f), before);
  const MediatorCacheStats stats = cache_.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.stale_inserts, 1u);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
}

TEST_F(MediatorCacheTest, InvalidateDropsMatchingTimestepOnly) {
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(4, 12.0f), cache_.epoch());
  cache_.Insert("mhd", "velocity:vorticity", 4, 1, whole_, 10.0,
                MakePoints(4, 12.0f), cache_.epoch());
  EXPECT_EQ(cache_.Invalidate("mhd", "velocity:vorticity", 0), 1u);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  EXPECT_TRUE(
      cache_.Lookup("mhd", "velocity:vorticity", 4, 1, whole_, 10.0).hit);
}

TEST_F(MediatorCacheTest, InvalidateRawFieldSweepsDerivedEntries) {
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(4, 12.0f), cache_.epoch());
  cache_.Insert("mhd", "velocity:strain", 4, 0, whole_, 10.0,
                MakePoints(4, 12.0f), cache_.epoch());
  cache_.Insert("mhd", "magnetic:current", 4, 0, whole_, 10.0,
                MakePoints(4, 12.0f), cache_.epoch());
  EXPECT_EQ(cache_.InvalidateRawField("mhd", "velocity", -1), 2u);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "velocity:strain", 4, 0, whole_, 10.0).hit);
  EXPECT_TRUE(
      cache_.Lookup("mhd", "magnetic:current", 4, 0, whole_, 10.0).hit);
}

// Satellite edge case: two queries racing to insert the same key commit
// exactly one entry (first-committer-wins), never duplicates.
TEST_F(MediatorCacheTest, ConcurrentSameKeyInsertCommitsOnce) {
  const std::vector<ThresholdPoint> points = MakePoints(32, 12.0f);
  const uint64_t epoch = cache_.epoch();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0, points,
                    epoch);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const MediatorCacheStats stats = cache_.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  auto lookup = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0);
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.points.size(), points.size());
}

TEST_F(MediatorCacheTest, LowerThresholdReplacesSameRegionEntry) {
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(10, 10.0f), cache_.epoch());
  // A superset answer (lower threshold) for the same region replaces it.
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 5.0,
                MakePoints(15, 5.0f), cache_.epoch());
  EXPECT_EQ(cache_.stats().entries, 1u);
  auto lookup = cache_.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 5.0);
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.points.size(), 15u);
}

TEST_F(MediatorCacheTest, LruEvictionUnderBytePressure) {
  // Capacity fits roughly two entries of 1000 points each.
  const uint64_t entry_bytes =
      MediatorCache::kEntryOverhead + 1000 * MediatorCache::kBytesPerPoint;
  MediatorCache small(2 * entry_bytes + entry_bytes / 2);
  small.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
               MakePoints(1000, 12.0f), small.epoch());
  small.Insert("mhd", "velocity:vorticity", 4, 1, whole_, 10.0,
               MakePoints(1000, 12.0f), small.epoch());
  // Touch timestep 0 so timestep 1 is the LRU victim.
  ASSERT_TRUE(
      small.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  small.Insert("mhd", "velocity:vorticity", 4, 2, whole_, 10.0,
               MakePoints(1000, 12.0f), small.epoch());
  const MediatorCacheStats stats = small.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, small.capacity_bytes());
  EXPECT_TRUE(
      small.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  EXPECT_FALSE(
      small.Lookup("mhd", "velocity:vorticity", 4, 1, whole_, 10.0).hit);
  EXPECT_TRUE(
      small.Lookup("mhd", "velocity:vorticity", 4, 2, whole_, 10.0).hit);
}

TEST_F(MediatorCacheTest, PinExemptsFromEvictionButNotInvalidation) {
  const uint64_t entry_bytes =
      MediatorCache::kEntryOverhead + 1000 * MediatorCache::kBytesPerPoint;
  MediatorCache small(2 * entry_bytes + entry_bytes / 2);
  small.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
               MakePoints(1000, 12.0f), small.epoch());
  EXPECT_EQ(small.Pin("mhd", "velocity:vorticity", 0), 1u);
  EXPECT_EQ(small.stats().pinned_entries, 1u);
  // Fill past capacity: the pinned entry must survive, later ones churn.
  small.Insert("mhd", "velocity:vorticity", 4, 1, whole_, 10.0,
               MakePoints(1000, 12.0f), small.epoch());
  small.Insert("mhd", "velocity:vorticity", 4, 2, whole_, 10.0,
               MakePoints(1000, 12.0f), small.epoch());
  EXPECT_TRUE(
      small.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  // Invalidation always wins over a pin.
  EXPECT_EQ(small.Invalidate("mhd", "velocity:vorticity", 0), 1u);
  EXPECT_FALSE(
      small.Lookup("mhd", "velocity:vorticity", 4, 0, whole_, 10.0).hit);
  EXPECT_EQ(small.stats().pinned_entries, 0u);
  // Unpin on a gone entry is a no-op.
  EXPECT_EQ(small.Unpin("mhd", "velocity:vorticity", 0), 0u);
}

TEST_F(MediatorCacheTest, ResidentBytesChargedToAttachedLedger) {
  ResourceGovernor governor(64, 1 << 20);
  cache_.AttachLedger(&governor);
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(100, 12.0f), cache_.epoch());
  const MediatorCacheStats stats = cache_.stats();
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(governor.bytes_in_use(), stats.bytes);
  cache_.Clear();
  EXPECT_EQ(governor.bytes_in_use(), 0u);
  cache_.AttachLedger(nullptr);
}

TEST_F(MediatorCacheTest, LedgerPressureSkipsCachingInsteadOfBlocking) {
  // A ledger too small for even one entry: the insert must give up
  // (best-effort), never block or die.
  ResourceGovernor governor(64, 64);
  cache_.AttachLedger(&governor);
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, whole_, 10.0,
                MakePoints(1000, 12.0f), cache_.epoch());
  EXPECT_EQ(cache_.stats().entries, 0u);
  EXPECT_EQ(governor.bytes_in_use(), 0u);
  cache_.AttachLedger(nullptr);
}

// --- Integration: the cache wired into the mediator ---------------------

constexpr int64_t kN = 32;

std::unique_ptr<TurbDB> MakeCachedDb(
    int nodes, uint64_t mediator_cache_bytes = 32ull << 20) {
  TurbDBConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.processes_per_node = 2;
  config.cluster.mediator_cache_bytes = mediator_cache_bytes;
  auto db = TurbDB::Open(config);
  if (!db.ok()) return nullptr;
  if (!(*db)->CreateDataset(MakeIsotropicDataset("iso", kN, 2)).ok()) {
    return nullptr;
  }
  if (!(*db)
           ->IngestSyntheticField("iso", "velocity", SmallTestSpec(7), 0, 2)
           .ok()) {
    return nullptr;
  }
  return std::move(db).value();
}

ThresholdQuery Vorticity(int32_t timestep, double threshold,
                         const Box3& box = Box3::WholeGrid(kN, kN, kN)) {
  ThresholdQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = timestep;
  query.box = box;
  query.threshold = threshold;
  return query;
}

void ExpectSamePoints(const std::vector<ThresholdPoint>& a,
                      const std::vector<ThresholdPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].zindex, b[i].zindex) << "point " << i;
    EXPECT_EQ(a[i].norm, b[i].norm) << "point " << i;
  }
}

// The tentpole acceptance test: a repeat query is served entirely from
// the mediator cache — zero node Execute RPCs — and is byte-identical
// to the uncached answer.
TEST(MediatorCacheIntegrationTest, RepeatQueryCostsZeroNodeExecutes) {
  auto db = MakeCachedDb(4);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();
  ASSERT_TRUE(mediator.result_cache().enabled());

  // Uncached reference for the same query.
  QueryOptions no_cache;
  no_cache.use_cache = false;
  auto reference = db->Threshold(Vorticity(0, 1.0), no_cache);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->points.empty());

  auto cold = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(cold.ok());
  ExpectSamePoints(cold->points, reference->points);

  const uint64_t executes_after_cold = mediator.node_executes();
  auto warm = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(mediator.node_executes(), executes_after_cold)
      << "repeat query must not reach any node";
  EXPECT_TRUE(warm->all_cache_hits);
  ExpectSamePoints(warm->points, reference->points);

  const MediatorCacheStats stats = mediator.result_cache().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

// A strictly-subsumed query (sub-box, higher threshold) is also served
// with zero node RPCs, byte-identical to its own uncached evaluation.
TEST(MediatorCacheIntegrationTest, SubsumedQueryCostsZeroNodeExecutes) {
  auto db = MakeCachedDb(4);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();

  // Warm the cache with the whole grid at a low threshold.
  auto cold = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(cold.ok());

  const Box3 sub(4, 4, 4, 24, 24, 24);
  // Uncached reference of the subsumed query (counts executes; snapshot
  // the counter after it).
  QueryOptions no_cache;
  no_cache.use_cache = false;
  auto reference = db->Threshold(Vorticity(0, 2.0, sub), no_cache);
  ASSERT_TRUE(reference.ok());

  const uint64_t executes_before = mediator.node_executes();
  auto subsumed = db->Threshold(Vorticity(0, 2.0, sub));
  ASSERT_TRUE(subsumed.ok());
  EXPECT_EQ(mediator.node_executes(), executes_before)
      << "subsumed query must not reach any node";
  EXPECT_TRUE(subsumed->all_cache_hits);
  ExpectSamePoints(subsumed->points, reference->points);
  EXPECT_GE(mediator.result_cache().stats().subsumption_hits, 1u);
}

// One threshold predicate: with the threshold on a stored norm, or one
// double ulp either side of it, the uncached, node-cache-subsumed and
// mediator-cache-subsumed answers hold exactly the same points. Both
// caches can only judge the float they store, so the node must judge the
// float it returns, not the double it computed.
TEST(MediatorCacheIntegrationTest, ThresholdOnAStoredNormAgreesOnEveryPath) {
  auto mediator_tier = MakeCachedDb(2);
  auto node_tier = MakeCachedDb(2, /*mediator_cache_bytes=*/0);
  ASSERT_NE(mediator_tier, nullptr);
  ASSERT_NE(node_tier, nullptr);
  ASSERT_FALSE(node_tier->mediator().result_cache().enabled());

  // Warm both tiers with one entry that subsumes every probe below.
  constexpr double kWarm = 1.0;
  QueryOptions no_cache;
  no_cache.use_cache = false;
  auto warm = node_tier->Threshold(Vorticity(0, kWarm), no_cache);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_GE(warm->points.size(), 64u);
  ASSERT_TRUE(mediator_tier->Threshold(Vorticity(0, kWarm)).ok());
  ASSERT_TRUE(node_tier->Threshold(Vorticity(0, kWarm)).ok());

  std::vector<float> norms;
  for (const ThresholdPoint& point : warm->points) norms.push_back(point.norm);
  std::sort(norms.begin(), norms.end());
  Mediator& mediator = mediator_tier->mediator();
  for (size_t i = 0; i < norms.size(); i += norms.size() / 24) {
    const double stored = norms[i];
    for (double threshold : {std::nextafter(stored, 0.0), stored,
                             std::nextafter(stored, HUGE_VAL)}) {
      if (threshold < kWarm) continue;
      auto uncached = node_tier->Threshold(Vorticity(0, threshold), no_cache);
      ASSERT_TRUE(uncached.ok()) << uncached.status();
      auto node_cached = node_tier->Threshold(Vorticity(0, threshold));
      ASSERT_TRUE(node_cached.ok()) << node_cached.status();
      EXPECT_TRUE(node_cached->all_cache_hits);
      const uint64_t executes = mediator.node_executes();
      auto mediator_cached = mediator_tier->Threshold(Vorticity(0, threshold));
      ASSERT_TRUE(mediator_cached.ok()) << mediator_cached.status();
      EXPECT_EQ(mediator.node_executes(), executes);

      const std::vector<uint8_t> expected =
          EncodePointsBinary(uncached->points);
      EXPECT_EQ(EncodePointsBinary(node_cached->points), expected)
          << "node cache, threshold " << threshold;
      EXPECT_EQ(EncodePointsBinary(mediator_cached->points), expected)
          << "mediator cache, threshold " << threshold;
    }
  }
}

// The streamed path: a repeat streamed query re-chunks the cached entry
// (zero node RPCs) and the reassembled points are byte-identical to the
// buffered answer.
TEST(MediatorCacheIntegrationTest, StreamedRepeatServedFromCache) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();

  auto buffered = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(buffered.ok());
  ASSERT_FALSE(buffered->points.empty());

  auto stream_once = [&]() -> std::vector<ThresholdPoint> {
    std::vector<ThresholdPoint> collected;
    Mediator::ThresholdChunkSink sink =
        [&](std::vector<ThresholdPoint> points,
            uint64_t /*total*/) -> Result<uint64_t> {
      collected.insert(collected.end(), points.begin(), points.end());
      return static_cast<uint64_t>(points.size()) *
             MediatorCache::kBytesPerPoint;
    };
    auto summary = mediator.GetThresholdStreaming(Vorticity(0, 1.0),
                                                  QueryOptions{}, CallBudget{},
                                                  64, sink);
    EXPECT_TRUE(summary.ok());
    if (summary.ok()) {
      EXPECT_TRUE(summary->points.empty());
    }
    std::sort(collected.begin(), collected.end(),
              [](const ThresholdPoint& a, const ThresholdPoint& b) {
                return a.zindex < b.zindex;
              });
    return collected;
  };

  // First streamed run is a hit already (the buffered run populated the
  // cache); its chunks must reassemble to the buffered answer with no
  // node work.
  const uint64_t executes_before = mediator.node_executes();
  std::vector<ThresholdPoint> streamed = stream_once();
  EXPECT_EQ(mediator.node_executes(), executes_before);
  ExpectSamePoints(streamed, buffered->points);
}

// A streamed *miss* populates the cache, so the next buffered run hits.
TEST(MediatorCacheIntegrationTest, StreamedMissPopulatesCache) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();

  std::vector<ThresholdPoint> collected;
  Mediator::ThresholdChunkSink sink =
      [&](std::vector<ThresholdPoint> points,
          uint64_t /*total*/) -> Result<uint64_t> {
    collected.insert(collected.end(), points.begin(), points.end());
    return static_cast<uint64_t>(points.size()) *
           MediatorCache::kBytesPerPoint;
  };
  auto summary = mediator.GetThresholdStreaming(
      Vorticity(1, 1.0), QueryOptions{}, CallBudget{}, 64, sink);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(mediator.result_cache().stats().entries, 1u);

  const uint64_t executes_before = mediator.node_executes();
  auto warm = db->Threshold(Vorticity(1, 1.0));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(mediator.node_executes(), executes_before);
  EXPECT_TRUE(warm->all_cache_hits);
  std::sort(collected.begin(), collected.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  ExpectSamePoints(warm->points, collected);
}

// An ingest into a timestep invalidates the cached results built on it
// — even when the ingest itself fails partway (the storage layer may
// reject it, but some atoms may already have landed, so serving the old
// cached answer would be wrong). The next query recomputes (node
// executes grow) instead of serving a possibly-stale entry.
// A NaN threshold is refused before it runs. Accepted, it cached an
// empty answer that no threshold comparison rules out, and that entry
// then answered every later query on its key with zero points.
TEST(MediatorCacheIntegrationTest, NanThresholdCannotPoisonTheCache) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  QueryOptions no_cache;
  no_cache.use_cache = false;
  auto reference = db->Threshold(Vorticity(0, 1.0), no_cache);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->points.empty());

  auto nan = db->Threshold(
      Vorticity(0, std::numeric_limits<double>::quiet_NaN()));
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument)
      << nan.status();

  auto after = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->all_cache_hits);
  ExpectSamePoints(after->points, reference->points);
}

TEST(MediatorCacheIntegrationTest, IngestInvalidatesCachedResults) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();

  auto cold = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(cold.ok());
  ASSERT_GE(mediator.result_cache().stats().entries, 1u);

  // Attempt to re-ingest timestep 0. Whether the storage layer accepts
  // the overwrite or rejects the duplicate, the cache entry must go.
  (void)db->IngestSyntheticField("iso", "velocity", SmallTestSpec(99), 0, 1);
  EXPECT_EQ(mediator.result_cache().stats().entries, 0u);

  const uint64_t executes_before = mediator.node_executes();
  auto recomputed = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(recomputed.ok());
  // The query went back to the nodes (which may still answer from their
  // own node-local tier — that tier's staleness is the node's concern).
  EXPECT_GT(mediator.node_executes(), executes_before)
      << "post-ingest query must recompute, not serve stale cache";
}

// DropCacheEntries clears the mediator tier (and reports how much).
TEST(MediatorCacheIntegrationTest, DropCacheClearsMediatorTier) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();

  ASSERT_TRUE(db->Threshold(Vorticity(0, 1.0)).ok());
  ASSERT_GE(mediator.result_cache().stats().entries, 1u);

  uint64_t dropped = 0;
  ASSERT_TRUE(mediator
                  .DropCacheEntries("iso", "velocity", "vorticity", -1,
                                    &dropped)
                  .ok());
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(mediator.result_cache().stats().entries, 0u);

  const uint64_t executes_before = mediator.node_executes();
  auto recomputed = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(recomputed.ok());
  EXPECT_GT(mediator.node_executes(), executes_before);
}

// WarmThresholdCache primes an entry without returning points; the next
// query is then free.
TEST(MediatorCacheIntegrationTest, WarmThenQueryHitsWithoutNodeWork) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();

  auto warmed = mediator.WarmThresholdCache(Vorticity(0, 1.0));
  ASSERT_TRUE(warmed.ok());
  EXPECT_FALSE(warmed->already_cached);
  EXPECT_GT(warmed->points, 0u);

  auto again = mediator.WarmThresholdCache(Vorticity(0, 1.0));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->already_cached);

  const uint64_t executes_before = mediator.node_executes();
  auto hit = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(mediator.node_executes(), executes_before);
  EXPECT_TRUE(hit->all_cache_hits);
}

}  // namespace
}  // namespace turbdb
