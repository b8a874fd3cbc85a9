// ClusterThresholdPoints unit tests: a FoF query clusters the threshold
// answer its shards returned, and must reproduce the in-process
// FriendsOfFriends partition exactly — including links across a shard
// boundary, links that wrap the periodic boundary between shards and
// clusters hugging one shard's boundary — and its cluster ids must not
// depend on the order in which the shards' points arrived.

#include "analysis/fof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "array/point.h"

namespace turbdb {
namespace {

/// A 16^3 periodic grid of 8-wide atoms: 2 atoms per axis, 8 atoms
/// total, ownership split on the x axis (atom-x 0 -> shard 0, 1 ->
/// shard 1).
FofParams Grid16Params(double linking_length = 2.0) {
  FofParams params;
  params.linking_length = linking_length;
  params.periodic_extent = {16.0, 16.0, 16.0};
  return params;
}

int OwnerByAtomX(int64_t ax, int64_t, int64_t) {
  return ax == 0 ? 0 : 1;
}

/// The canonical partition a clustering produced: the set of per-cluster
/// z-index sets, independent of cluster order and id scheme.
std::set<std::vector<uint64_t>> Partition(
    const std::vector<DistributedFofCluster>& clusters) {
  std::set<std::vector<uint64_t>> partition;
  for (const DistributedFofCluster& cluster : clusters) {
    std::vector<uint64_t> members;
    members.reserve(cluster.members.size());
    for (const ThresholdPoint& point : cluster.members) {
      members.push_back(point.zindex);
    }
    std::sort(members.begin(), members.end());
    partition.insert(std::move(members));
  }
  return partition;
}

/// Reference partition from the in-process FriendsOfFriends over the
/// same points (periodic 16^3, same linking length).
std::set<std::vector<uint64_t>> ReferencePartition(
    const std::vector<ThresholdPoint>& points, double linking_length,
    double extent) {
  FofParams params;
  params.linking_length = linking_length;
  params.periodic_extent = {extent, extent, extent};
  auto clusters = FriendsOfFriends(ToFofPoints(points, 0), params);
  EXPECT_TRUE(clusters.ok()) << clusters.status();
  std::set<std::vector<uint64_t>> partition;
  for (const FofCluster& cluster : *clusters) {
    std::vector<uint64_t> members;
    for (const size_t index : cluster.members) {
      members.push_back(points[index].zindex);
    }
    std::sort(members.begin(), members.end());
    partition.insert(std::move(members));
  }
  return partition;
}

/// Splits points across shards with the given owner function (the same
/// atom-granular split the mediator performs).
std::map<int, std::vector<ThresholdPoint>> SplitByOwner(
    const std::vector<ThresholdPoint>& points, int64_t atom_width) {
  std::map<int, std::vector<ThresholdPoint>> shards;
  for (const ThresholdPoint& point : points) {
    uint32_t x, y, z;
    point.Coords(&x, &y, &z);
    shards[OwnerByAtomX(x / atom_width, y / atom_width, z / atom_width)]
        .push_back(point);
  }
  return shards;
}

/// The threshold answer as the mediator gathers it: the shards' points,
/// one shard after the other.
std::vector<ThresholdPoint> Gather(
    const std::map<int, std::vector<ThresholdPoint>>& shards) {
  std::vector<ThresholdPoint> answer;
  for (const auto& [shard, batch] : shards) {
    answer.insert(answer.end(), batch.begin(), batch.end());
  }
  return answer;
}

TEST(DistributedFofTest, RejectsNonPositiveLinkingLength) {
  auto clusters = ClusterThresholdPoints({}, Grid16Params(0.0), 1);
  ASSERT_FALSE(clusters.ok());
  EXPECT_EQ(clusters.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckFofLinkingLength(0.0, 8).code(),
            StatusCode::kInvalidArgument);
}

TEST(DistributedFofTest, RejectsLinkingLengthWiderThanHalo) {
  // A FoF query links points at most one atom apart; a wider linking
  // length is refused with a typed error before any node work.
  const Status status = CheckFofLinkingLength(9.0, 8);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("halo"), std::string::npos) << status;
}

TEST(DistributedFofTest, EmptyInputYieldsNoClusters) {
  auto clusters = ClusterThresholdPoints({}, Grid16Params(), 1);
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  EXPECT_TRUE(clusters->empty());
}

TEST(DistributedFofTest, StitchesClusterAcrossShardBoundary) {
  // Two points straddling the x = 8 shard boundary, one per shard; the
  // gathered answer links them.
  const std::vector<ThresholdPoint> points = {
      MakeThresholdPoint(7, 4, 4, 1.0f), MakeThresholdPoint(8, 4, 4, 2.0f)};
  auto clusters =
      ClusterThresholdPoints(Gather(SplitByOwner(points, 8)), Grid16Params(), 1);
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  ASSERT_EQ(clusters->size(), 1u);
  EXPECT_EQ(clusters->front().members.size(), 2u);
  EXPECT_FLOAT_EQ(clusters->front().max_norm, 2.0f);
  EXPECT_EQ(Partition(*clusters), ReferencePartition(points, 2.0, 16.0));
}

TEST(DistributedFofTest, PeriodicWrapLinksAcrossShardBoundary) {
  // x = 0 (shard 0) and x = 15 (shard 1): periodic distance 1, direct
  // distance 15. The link exists only through the wrap, and it crosses
  // shards.
  const std::vector<ThresholdPoint> points = {
      MakeThresholdPoint(0, 4, 4, 1.0f), MakeThresholdPoint(15, 4, 4, 1.5f)};
  auto clusters =
      ClusterThresholdPoints(Gather(SplitByOwner(points, 8)), Grid16Params(), 1);
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  ASSERT_EQ(clusters->size(), 1u);
  EXPECT_EQ(clusters->front().members.size(), 2u);
  EXPECT_EQ(Partition(*clusters), ReferencePartition(points, 2.0, 16.0));

  // Without periodicity the same points stay apart.
  FofParams open = Grid16Params();
  open.periodic_extent = {0.0, 0.0, 0.0};
  auto open_clusters =
      ClusterThresholdPoints(Gather(SplitByOwner(points, 8)), open, 1);
  ASSERT_TRUE(open_clusters.ok()) << open_clusters.status();
  EXPECT_EQ(open_clusters->size(), 2u);
}

TEST(DistributedFofTest, ClusterEntirelyInsideOneShardsHalo) {
  // A chain hugging the boundary on shard 0's side only: every point is
  // within the linking length of shard 1's atoms, but no cross-shard
  // edge exists. The cluster must be neither split nor duplicated.
  const std::vector<ThresholdPoint> points = {
      MakeThresholdPoint(7, 2, 2, 1.0f), MakeThresholdPoint(7, 3, 2, 1.0f),
      MakeThresholdPoint(7, 4, 2, 3.0f), MakeThresholdPoint(7, 5, 2, 1.0f)};
  auto clusters = ClusterThresholdPoints(Gather({{0, points}, {1, {}}}),
                                         Grid16Params(), 1);
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  ASSERT_EQ(clusters->size(), 1u);
  EXPECT_EQ(clusters->front().members.size(), 4u);
  EXPECT_FLOAT_EQ(clusters->front().max_norm, 3.0f);
  EXPECT_EQ(Partition(*clusters), ReferencePartition(points, 2.0, 16.0));
}

TEST(DistributedFofTest, MinClusterSizeFiltersSmallClusters) {
  const std::vector<ThresholdPoint> points = {
      MakeThresholdPoint(1, 1, 1, 1.0f), MakeThresholdPoint(2, 1, 1, 1.0f),
      MakeThresholdPoint(12, 12, 12, 1.0f)};  // Singleton.
  auto clusters = ClusterThresholdPoints(Gather(SplitByOwner(points, 8)),
                                         Grid16Params(), 2);
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  ASSERT_EQ(clusters->size(), 1u);
  EXPECT_EQ(clusters->front().members.size(), 2u);
}

TEST(DistributedFofTest, DeterministicIdsUnderShuffledJoinOrder) {
  // A pseudo-random point cloud split over both shards; gathering the
  // shards in either order (and each shard's points in two batches)
  // must yield identical clusters: same ids, same sizes, same members,
  // same order.
  std::vector<ThresholdPoint> points;
  uint64_t state = 12345;
  for (int i = 0; i < 300; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t x = static_cast<uint32_t>((state >> 33) % 16);
    const uint32_t y = static_cast<uint32_t>((state >> 17) % 16);
    const uint32_t z = static_cast<uint32_t>((state >> 5) % 16);
    points.push_back(
        MakeThresholdPoint(x, y, z, 1.0f + static_cast<float>(i % 7)));
  }
  auto shards = SplitByOwner(points, 8);
  ASSERT_EQ(shards.size(), 2u);

  auto run = [&](bool reversed, bool split_batches)
      -> std::vector<DistributedFofCluster> {
    std::vector<ThresholdPoint> answer;
    std::vector<int> order = {0, 1};
    if (reversed) std::swap(order[0], order[1]);
    for (const int shard : order) {
      const std::vector<ThresholdPoint>& batch = shards[shard];
      if (split_batches) {
        // Gather the shard in two pieces, reversed, to prove batch
        // boundaries and arrival order inside a shard don't matter.
        const size_t half = batch.size() / 2;
        answer.insert(answer.end(), batch.begin() + half, batch.end());
        answer.insert(answer.end(), batch.begin(), batch.begin() + half);
      } else {
        answer.insert(answer.end(), batch.begin(), batch.end());
      }
    }
    auto clusters = ClusterThresholdPoints(std::move(answer), Grid16Params(), 1);
    EXPECT_TRUE(clusters.ok()) << clusters.status();
    return std::move(clusters).value();
  };

  const auto baseline = run(false, false);
  ASSERT_GT(baseline.size(), 1u);
  for (const bool reversed : {false, true}) {
    for (const bool split : {false, true}) {
      if (!reversed && !split) continue;
      const auto other = run(reversed, split);
      ASSERT_EQ(other.size(), baseline.size());
      for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(other[i].id, baseline[i].id) << i;
        ASSERT_EQ(other[i].members.size(), baseline[i].members.size()) << i;
        for (size_t j = 0; j < baseline[i].members.size(); ++j) {
          EXPECT_EQ(other[i].members[j].zindex,
                    baseline[i].members[j].zindex);
          EXPECT_EQ(other[i].members[j].norm, baseline[i].members[j].norm);
        }
        EXPECT_EQ(other[i].max_norm, baseline[i].max_norm) << i;
        EXPECT_EQ(other[i].peak_zindex, baseline[i].peak_zindex) << i;
      }
    }
  }

  // And the partition matches the in-process reference run.
  EXPECT_EQ(Partition(baseline), ReferencePartition(points, 2.0, 16.0));

  // Ids are content-derived: each is its cluster's smallest member
  // z-index.
  for (const DistributedFofCluster& cluster : baseline) {
    uint64_t smallest = cluster.members.front().zindex;
    for (const ThresholdPoint& member : cluster.members) {
      smallest = std::min(smallest, member.zindex);
    }
    EXPECT_EQ(cluster.id, smallest);
  }
}

}  // namespace
}  // namespace turbdb
