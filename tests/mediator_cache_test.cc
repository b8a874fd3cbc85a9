#include "cache/mediator_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "cluster/mediator.h"
#include "common/rng.h"
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

// --- Range lookup against a brute-force filter ---------------------------

/// About a third of the points of `region`, z-sorted, with norms on a
/// coarse grid of values so that many rows share a norm.
std::vector<ThresholdPoint> EntryPoints(const Box3& region, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ThresholdPoint> points;
  for (int64_t z = region.lo[2]; z < region.hi[2]; ++z) {
    for (int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      for (int64_t x = region.lo[0]; x < region.hi[0]; ++x) {
        if (rng.NextBounded(3) != 0) continue;
        const float norm = 1.0f + static_cast<float>(rng.NextBounded(900)) /
                                      100.0f;
        points.push_back(MakeThresholdPoint(static_cast<uint32_t>(x),
                                            static_cast<uint32_t>(y),
                                            static_cast<uint32_t>(z), norm));
      }
    }
  }
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  return points;
}

/// The answer by definition: every point in the box passing the threshold,
/// in z order.
std::vector<ThresholdPoint> BruteForce(const std::vector<ThresholdPoint>& all,
                                       const Box3& box, double threshold) {
  std::vector<ThresholdPoint> out;
  for (const ThresholdPoint& point : all) {
    uint32_t x = 0, y = 0, z = 0;
    point.Coords(&x, &y, &z);
    if (PassesThreshold(point.norm, threshold) && box.ContainsPoint(x, y, z)) {
      out.push_back(point);
    }
  }
  return out;
}

/// The threshold probes around one stored norm: the norm and one float ulp
/// either side of it.
std::vector<double> ProbesAround(float norm) {
  return {static_cast<double>(std::nextafter(norm, 0.0f)),
          static_cast<double>(norm),
          static_cast<double>(std::nextafter(norm, HUGE_VALF))};
}

/// Looks `box` up at each probe around a few stored norms of the box's
/// answer (and at the entry's own threshold) and compares the hit with the
/// brute-force filter: the same points in z order, and their XML size.
void ExpectLookupsMatchBruteForce(MediatorCache& cache, const Box3& region,
                                  const std::vector<ThresholdPoint>& all,
                                  const Box3& box) {
  const std::vector<ThresholdPoint> in_box = BruteForce(all, box, 0.0);
  std::vector<double> thresholds = {1.0};
  for (size_t i = 0; i < in_box.size(); i += 1 + in_box.size() / 4) {
    for (double probe : ProbesAround(in_box[i].norm)) {
      if (probe >= 1.0) thresholds.push_back(probe);
    }
  }
  for (double threshold : thresholds) {
    const MediatorCacheLookup lookup =
        cache.Lookup("mhd", "velocity:vorticity", 4, 0, box, threshold);
    ASSERT_TRUE(lookup.hit) << box.ToString();
    EXPECT_EQ(lookup.subsumed, !(box == region) || threshold > 1.0);
    const std::vector<ThresholdPoint> expected =
        BruteForce(all, box, threshold);
    EXPECT_EQ(lookup.points, expected)
        << box.ToString() << " threshold " << threshold;
    EXPECT_EQ(lookup.xml_bytes, PointsXmlSize(lookup.points))
        << box.ToString() << " threshold " << threshold;
  }
}

// The range walk visits only the rows of the 8^3 cells a box touches; it
// must keep exactly the points a filter of every row keeps, on the boxes
// where a cell cover and a box differ: face-sharing halves, a single
// point, a single cell, boxes not aligned to 8, boxes flush with the
// region's faces, the region itself and an empty box.
TEST_F(MediatorCacheTest, RangeLookupMatchesBruteForceFilter) {
  const Box3 region(3, 8, 17, 61, 64, 50);
  std::vector<ThresholdPoint> all = EntryPoints(region, 26);
  ASSERT_GT(all.size(), 10000u);
  // Inserted out of order: the cache z-sorts its rows itself.
  std::vector<ThresholdPoint> shuffled = all;
  std::reverse(shuffled.begin(), shuffled.end());
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, region, 1.0, shuffled,
                cache_.epoch());

  uint32_t px = 0, py = 0, pz = 0;
  all[all.size() / 2].Coords(&px, &py, &pz);
  const std::vector<Box3> boxes = {
      region,
      // Two halves sharing the face x = 29, and two sharing y = 40.
      Box3(3, 8, 17, 29, 64, 50), Box3(29, 8, 17, 61, 64, 50),
      Box3(3, 8, 17, 61, 40, 50), Box3(3, 40, 17, 61, 64, 50),
      // A single stored point, and the single point at the region's far
      // corner.
      Box3(px, py, pz, px + 1, py + 1, pz + 1),
      Box3(60, 63, 49, 61, 64, 50),
      // A single aligned 8^3 cell, and one straddling eight cells.
      Box3(8, 16, 24, 16, 24, 32), Box3(12, 20, 28, 20, 28, 36),
      // Not aligned to 8 on any side.
      Box3(5, 9, 19, 37, 41, 45), Box3(7, 13, 21, 8, 60, 22),
      // Flush with the region's faces, one axis at a time and all at once.
      Box3(3, 9, 18, 60, 63, 49), Box3(4, 8, 18, 60, 63, 49),
      Box3(4, 9, 18, 60, 63, 50), Box3(3, 8, 17, 11, 16, 25),
      Box3(53, 56, 42, 61, 64, 50),
      // Empty: contained in every region, holds nothing.
      Box3(10, 20, 30, 10, 40, 40),
  };
  for (const Box3& box : boxes) {
    ExpectLookupsMatchBruteForce(cache_, region, all, box);
  }
  // Face-sharing halves partition the region's answer.
  const double k = 4.5;
  EXPECT_EQ(cache_.Lookup("mhd", "velocity:vorticity", 4, 0, boxes[1], k)
                    .points.size() +
                cache_.Lookup("mhd", "velocity:vorticity", 4, 0, boxes[2], k)
                    .points.size(),
            BruteForce(all, region, k).size());

  // Seeded random sub-boxes of the region.
  SplitMix64 rng(2026);
  for (int i = 0; i < 60; ++i) {
    Box3 box;
    for (int d = 0; d < 3; ++d) {
      const uint64_t extent = static_cast<uint64_t>(region.Extent(d));
      const int64_t a =
          region.lo[d] + static_cast<int64_t>(rng.NextBounded(extent + 1));
      const int64_t b =
          region.lo[d] + static_cast<int64_t>(rng.NextBounded(extent + 1));
      box.lo[d] = std::min(a, b);
      box.hi[d] = std::max(a, b) + (a == b && b < region.hi[d] ? 1 : 0);
    }
    ExpectLookupsMatchBruteForce(cache_, region, all, box);
  }
}

// Points at the far end of the 21-bit coordinate space: the cell cover and
// the shifted range bounds stay inside the 63-bit code.
TEST_F(MediatorCacheTest, RangeLookupAtTheEdgeOfTheCodeSpace) {
  constexpr int64_t kEnd = int64_t{kMortonMaxCoord} + 1;
  const Box3 region(kEnd - 12, kEnd - 9, kEnd - 20, kEnd, kEnd, kEnd);
  const std::vector<ThresholdPoint> all = EntryPoints(region, 63);
  ASSERT_FALSE(all.empty());
  cache_.Insert("mhd", "velocity:vorticity", 4, 0, region, 1.0, all,
                cache_.epoch());
  for (const Box3& box :
       {region, Box3(kEnd - 5, kEnd - 9, kEnd - 20, kEnd, kEnd, kEnd),
        Box3(kEnd - 12, kEnd - 3, kEnd - 17, kEnd - 1, kEnd, kEnd - 2)}) {
    ExpectLookupsMatchBruteForce(cache_, region, all, box);
  }
}

// Lookups filter an entry's rows after releasing the shard lock, while
// inserts replace the entry, an invalidation drops it and inserts under
// other keys evict it. Every entry of the key holds the same points cut to
// its region and threshold, so every hit has one right answer whatever it
// raced.
TEST_F(MediatorCacheTest, LookupsRaceInsertInvalidateAndEviction) {
  const Box3 region(0, 0, 0, 24, 24, 24);
  const std::vector<ThresholdPoint> all = EntryPoints(region, 11);
  const Box3 half(0, 0, 0, 12, 24, 24);
  const Box3 cell(8, 8, 8, 16, 16, 16);
  // Room for two whole-region entries, filled below with two of other
  // keys (which no invalidation touches), so every later insert evicts.
  MediatorCache cache(2 * (MediatorCache::kEntryOverhead +
                           all.size() * MediatorCache::kBytesPerPoint) +
                      MediatorCache::kEntryOverhead);
  const std::string key_field = "velocity:vorticity";
  // Each entry's points, computed before any thread starts: an insert
  // reads the epoch just before it runs, so only an invalidation racing
  // the insert itself makes it stale.
  const std::vector<ThresholdPoint> above_two = BruteForce(all, region, 2.0);
  const std::vector<ThresholdPoint> half_points = BruteForce(all, half, 1.0);
  const std::vector<ThresholdPoint> cell_points = BruteForce(all, cell, 1.0);
  auto insert = [&](const std::string& field, const Box3& entry_region,
                    double threshold,
                    const std::vector<ThresholdPoint>& points) {
    cache.Insert("mhd", field, 4, 0, entry_region, threshold, points,
                 cache.epoch());
  };
  const std::vector<Box3> boxes = {region, half, Box3(3, 5, 7, 21, 22, 19),
                                   cell};
  const std::vector<double> thresholds = {2.0, 2.5, 7.25};

  insert("velocity:strain", region, 1.0, all);
  insert("magnetic:current", region, 1.0, all);
  ASSERT_EQ(cache.stats().entries, 2u);

  std::atomic<bool> invalidated{false};
  std::atomic<bool> readers_done{false};
  std::atomic<int> mismatches{0};
  std::thread inserter([&]() {
    do {
      insert(key_field, region, 2.0, above_two);
      insert("velocity:strain", region, 1.0, all);
      insert(key_field, half, 1.0, half_points);
      insert(key_field, region, 1.0, all);
      insert("magnetic:current", region, 1.0, all);
    } while (!readers_done.load());
  });
  std::thread invalidator([&]() {
    for (int i = 0; i < 40; ++i) {
      insert(key_field, cell, 1.0, cell_points);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      cache.Invalidate("mhd", key_field, 0);
    }
    invalidated.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t]() {
      // Until the invalidations are over and this reader has seen a hit;
      // the bound only guards against a hang.
      int hits = 0;
      for (int i = 0;
           i < 1000000 && (i < 200 || !invalidated.load() || hits == 0);
           ++i) {
        const Box3& box = boxes[(i + t) % boxes.size()];
        const double threshold = thresholds[i % thresholds.size()];
        const MediatorCacheLookup lookup =
            cache.Lookup("mhd", key_field, 4, 0, box, threshold);
        if (!lookup.hit) continue;
        ++hits;
        if (lookup.points != BruteForce(all, box, threshold) ||
            lookup.xml_bytes != PointsXmlSize(lookup.points)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  invalidator.join();
  for (std::thread& reader : readers) reader.join();
  readers_done.store(true);
  inserter.join();

  EXPECT_EQ(mismatches.load(), 0);
  const MediatorCacheStats stats = cache.stats();
  EXPECT_GE(stats.hits, 2u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.invalidations, 0u);
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

/// Streams `query` in 64-point chunks; the summary comes back holding the
/// streamed points in the order they arrived.
Result<ThresholdResult> StreamIn64PointChunks(Mediator& mediator,
                                              const ThresholdQuery& query) {
  std::vector<ThresholdPoint> collected;
  size_t chunks = 0;
  Mediator::ThresholdChunkSink sink =
      [&](std::vector<ThresholdPoint> points,
          uint64_t /*total*/) -> Result<uint64_t> {
    ++chunks;
    collected.insert(collected.end(), points.begin(), points.end());
    return static_cast<uint64_t>(points.size()) *
           MediatorCache::kBytesPerPoint;
  };
  TURBDB_ASSIGN_OR_RETURN(
      ThresholdResult summary,
      mediator.GetThresholdStreaming(query, QueryOptions{}, CallBudget{}, 64,
                                     sink));
  if (chunks < 4) return Status::InvalidArgument("fewer than 4 chunks");
  summary.points = std::move(collected);
  return summary;
}

bool ZSorted(const std::vector<ThresholdPoint>& points) {
  return std::is_sorted(points.begin(), points.end(),
                        [](const ThresholdPoint& a, const ThresholdPoint& b) {
                          return a.zindex < b.zindex;
                        });
}

// A streamed summary charges the whole answer's XML size once, not one
// document per chunk: its result_bytes_xml and WAN term equal the
// buffered answer's, for a multi-chunk miss, a repeat hit and a subsumed
// hit. A hit streams in z order.
TEST(MediatorCacheIntegrationTest, StreamedSummarySizesEqualTheBufferedAnswer) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();
  QueryOptions no_cache;
  no_cache.use_cache = false;

  const ThresholdQuery whole = Vorticity(0, 1.0);
  const ThresholdQuery sub = Vorticity(0, 1.5, Box3(3, 5, 7, 29, 27, 30));
  struct Case {
    const char* name;
    ThresholdQuery query;
    bool hit;
  };
  for (const Case& c : {Case{"miss", whole, false}, Case{"repeat", whole, true},
                        Case{"subsumed", sub, true}}) {
    SCOPED_TRACE(c.name);
    auto buffered = mediator.GetThreshold(c.query, no_cache);
    ASSERT_TRUE(buffered.ok()) << buffered.status();
    ASSERT_EQ(buffered->result_bytes_xml, PointsXmlSize(buffered->points));

    const uint64_t hits = mediator.result_cache().stats().hits;
    auto streamed = StreamIn64PointChunks(mediator, c.query);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(mediator.result_cache().stats().hits, hits + (c.hit ? 1 : 0));
    EXPECT_EQ(streamed->all_cache_hits, c.hit);
    if (c.hit) {
      EXPECT_TRUE(ZSorted(streamed->points));
    }
    std::sort(streamed->points.begin(), streamed->points.end(),
              [](const ThresholdPoint& a, const ThresholdPoint& b) {
                return a.zindex < b.zindex;
              });
    EXPECT_EQ(streamed->points, buffered->points);
    EXPECT_EQ(streamed->result_bytes_xml, buffered->result_bytes_xml);
    EXPECT_EQ(streamed->time.mediator_user_comm_s,
              buffered->time.mediator_user_comm_s);
  }
}

// A node answering from its semantic cache returns its points in the
// entry's stored z order, with no sort of its own. A streamed query
// passes each shard's piece on as the node sent it, so the stream is
// z-sorted within every shard.
TEST(MediatorCacheIntegrationTest, NodeCacheHitsStreamEachShardInZOrder) {
  constexpr int kNodes = 2;
  auto db = MakeCachedDb(kNodes, /*mediator_cache_bytes=*/0);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Threshold(Vorticity(0, 1.0)).ok());
  for (const ThresholdQuery& query :
       {Vorticity(0, 1.0), Vorticity(0, 1.5, Box3(3, 5, 7, 29, 27, 30))}) {
    auto streamed = StreamIn64PointChunks(db->mediator(), query);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_TRUE(streamed->all_cache_hits);
    int descents = 0;
    for (size_t i = 1; i < streamed->points.size(); ++i) {
      if (streamed->points[i].zindex < streamed->points[i - 1].zindex) {
        ++descents;
      }
    }
    EXPECT_LT(descents, kNodes);
  }
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
  const MediatorCache& cache = mediator.result_cache();

  // One cache lookup per warm: a cold warm misses once, a resident warm
  // hits once.
  const MediatorCacheStats before = cache.stats();
  auto warmed = mediator.WarmThresholdCache(Vorticity(0, 1.0));
  ASSERT_TRUE(warmed.ok());
  EXPECT_FALSE(warmed->already_cached);
  EXPECT_GT(warmed->points, 0u);
  const MediatorCacheStats cold = cache.stats();
  EXPECT_EQ(cold.misses - before.misses, 1u);
  EXPECT_EQ(cold.hits - before.hits, 0u);

  auto again = mediator.WarmThresholdCache(Vorticity(0, 1.0));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->already_cached);
  EXPECT_EQ(again->points, warmed->points);
  const MediatorCacheStats resident = cache.stats();
  EXPECT_EQ(resident.hits - cold.hits, 1u);
  EXPECT_EQ(resident.misses - cold.misses, 0u);

  const uint64_t executes_before = mediator.node_executes();
  auto hit = db->Threshold(Vorticity(0, 1.0));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(mediator.node_executes(), executes_before);
  EXPECT_TRUE(hit->all_cache_hits);
}

void ExpectSameTime(const TimeBreakdown& actual, const TimeBreakdown& expected) {
  EXPECT_EQ(actual.cache_lookup_s, expected.cache_lookup_s);
  EXPECT_EQ(actual.io_s, expected.io_s);
  EXPECT_EQ(actual.compute_s, expected.compute_s);
  EXPECT_EQ(actual.mediator_db_comm_s, expected.mediator_db_comm_s);
  EXPECT_EQ(actual.mediator_user_comm_s, expected.mediator_user_comm_s);
}

// A FoF query is its threshold answer clustered once, so it shares the
// answer's caches: a resident threshold answer serves it with zero node
// executes and the clusters of an uncached run. Its modeled time on a
// miss is the node phases plus ModelMediatorComm(sub-queries,
// 6 * points + 16, reply bytes); a hit keeps only the WAN term.
TEST(MediatorCacheIntegrationTest, FofSharesTheThresholdAnswersCaches) {
  auto db = MakeCachedDb(2);
  ASSERT_NE(db, nullptr);
  Mediator& mediator = db->mediator();
  FieldStatsQuery stats_query;
  stats_query.dataset = "iso";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kN, kN, kN);
  auto stats = db->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // High enough that the answer splits into many clusters.
  const ThresholdQuery query = Vorticity(0, 2.0 * stats->rms);
  constexpr uint64_t kBatchBytes = 1000;  // Reported by the sink per batch.

  struct FofRun {
    std::vector<DistributedFofCluster> clusters;
    DistributedFofSummary summary;
    uint64_t reply_bytes = 0;
  };
  auto fof = [&](const QueryOptions& options) {
    FofRun run;
    auto summary = mediator.GetFof(
        query, options, /*linking_length=*/2.0, /*min_cluster_size=*/1,
        CallBudget{}, /*chunk_points=*/64,
        [&](std::vector<DistributedFofCluster> batch,
            uint64_t) -> Result<uint64_t> {
          for (DistributedFofCluster& cluster : batch) {
            run.clusters.push_back(std::move(cluster));
          }
          run.reply_bytes += kBatchBytes;
          return kBatchBytes;
        });
    EXPECT_TRUE(summary.ok()) << summary.status();
    if (summary.ok()) run.summary = *summary;
    return run;
  };

  ASSERT_TRUE(mediator.GetThreshold(query).ok());
  const uint64_t executes_before = mediator.node_executes();
  const FofRun cached = fof(QueryOptions{});
  EXPECT_EQ(mediator.node_executes(), executes_before)
      << "the resident threshold answer must serve the FoF query";

  QueryOptions no_cache;
  no_cache.use_cache = false;
  const FofRun uncached = fof(no_cache);
  EXPECT_GT(mediator.node_executes(), executes_before);
  ASSERT_GT(uncached.clusters.size(), 1u);
  ASSERT_EQ(cached.clusters.size(), uncached.clusters.size());
  for (size_t i = 0; i < uncached.clusters.size(); ++i) {
    const DistributedFofCluster& a = cached.clusters[i];
    const DistributedFofCluster& b = uncached.clusters[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.size(), b.size()) << i;
    ExpectSamePoints(a.members, b.members);
  }

  auto reference = mediator.GetThreshold(query, no_cache);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const CostModelConfig& cost = mediator.config().cost;
  TimeBreakdown miss;
  for (const NodeExecutionStats& node : reference->node_stats) {
    miss = miss.MaxWith(node.time);
  }
  miss.mediator_db_comm_s =
      static_cast<double>(reference->node_stats.size()) *
          (cost.mediator_dispatch_s + cost.lan.latency_s) +
      static_cast<double>(reference->points.size() * 6 + 16) /
          cost.lan.bandwidth_bps;
  miss.mediator_user_comm_s = cost.wan.TransferCost(uncached.reply_bytes);
  ExpectSameTime(uncached.summary.time, miss);

  TimeBreakdown hit;
  hit.mediator_user_comm_s = cost.wan.TransferCost(cached.reply_bytes);
  ExpectSameTime(cached.summary.time, hit);
}

}  // namespace
}  // namespace turbdb
