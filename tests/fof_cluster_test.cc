// Distributed FoF end-to-end: real turbdb_node processes in two R=2
// replica groups, a mediator scatter-gathering over TCP, a front-end
// server streaming kFofChunk frames, and a user Client reassembling
// them. The acceptance bar is byte-identical cluster membership — and
// identical content-derived cluster ids — against the in-process
// FriendsOfFriends over the very same threshold points, including
// clusters whose links wrap the periodic boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fof.h"
#include "cluster/service.h"
#include "core/turbdb.h"
#include "net/client.h"
#include "net/server.h"
#include "wire/serializer.h"

#include "process_harness.h"
#include "test_util.h"

namespace turbdb {
namespace {

using testprocs::NodeProcessCluster;

constexpr int64_t kGrid = 32;
constexpr int32_t kTimesteps = 1;
constexpr uint64_t kSeed = 2015;
constexpr double kLinkingLength = 2.0;

ThresholdQuery VorticityQuery(double threshold) {
  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  query.threshold = threshold;
  query.fd_order = 4;
  return query;
}

Result<std::unique_ptr<TurbDB>> OpenDistributed(
    const ClusterTopology& topology) {
  TurbDBConfig config;
  config.cluster.topology = topology;
  config.cluster.processes_per_node = 2;
  config.cluster.remote.subquery_deadline_ms = 60000;
  config.cluster.remote.max_retries = 1;
  config.cluster.remote.backoff_initial_ms = 20;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

/// Reference clustering: the in-process FriendsOfFriends over the same
/// points with the same (periodic) parameters, regrouped into
/// id -> z-sorted members so it compares against the wire records.
std::map<uint64_t, std::vector<ThresholdPoint>> ReferenceClusters(
    const std::vector<ThresholdPoint>& points, uint64_t min_cluster_size) {
  FofParams params;
  params.linking_length = kLinkingLength;
  params.periodic_extent = {static_cast<double>(kGrid),
                            static_cast<double>(kGrid),
                            static_cast<double>(kGrid)};
  auto clusters = FriendsOfFriends(ToFofPoints(points, 0), params);
  EXPECT_TRUE(clusters.ok()) << clusters.status();
  std::map<uint64_t, std::vector<ThresholdPoint>> by_id;
  for (const FofCluster& cluster : *clusters) {
    if (cluster.members.size() < min_cluster_size) continue;
    std::vector<ThresholdPoint> members;
    members.reserve(cluster.members.size());
    for (const size_t index : cluster.members) {
      members.push_back(points[index]);
    }
    std::sort(members.begin(), members.end(),
              [](const ThresholdPoint& a, const ThresholdPoint& b) {
                return a.zindex < b.zindex;
              });
    by_id[members.front().zindex] = std::move(members);
  }
  return by_id;
}

TEST(FofClusterTest, DistributedFofMatchesInProcessOverReplicatedCluster) {
  const testing::ScopedTempDir storage("turbdb_fof_r2");
  auto procs = NodeProcessCluster::Launch(
      4, TURBDB_NODE_BINARY,
      {"--replication-factor", "2", "--storage-dir", storage.path()});
  ASSERT_TRUE(procs.ok()) << procs.status();

  ClusterTopology topology = (*procs)->topology();
  topology.replication_factor = 2;
  auto db = OpenDistributed(topology);
  ASSERT_TRUE(db.ok()) << db.status();

  // Small chunks so the reply spans several kFofChunk frames, and a
  // result-byte budget so the reservations are exercised too.
  net::ServerOptions front;
  front.num_workers = 2;
  front.stream_chunk_points = 256;
  front.result_budget_bytes = 64u << 10;
  auto server = ServeMediator(&(*db)->mediator(), front);
  ASSERT_TRUE(server.ok()) << server.status();

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  auto stats = (*db)->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok()) << stats.status();

  // A moderate threshold: plenty of points, many clusters, and — on a
  // periodic 32^3 box — wrap-crossing links with near certainty.
  const ThresholdQuery query = VorticityQuery(1.5 * stats->rms);
  auto points = (*db)->Threshold(query);
  ASSERT_TRUE(points.ok()) << points.status();
  ASSERT_GT(points->points.size(), 100u);

  net::FofRequest request;
  request.query = query;
  request.linking_length = kLinkingLength;
  request.min_cluster_size = 1;
  request.include_members = true;

  net::Client client("127.0.0.1", (*server)->port());
  auto fof = client.Fof(request);
  ASSERT_TRUE(fof.ok()) << fof.status();

  EXPECT_EQ(fof->summary.points, points->points.size());
  ASSERT_EQ(fof->summary.clusters, fof->clusters.size());
  ASSERT_GT(fof->clusters.size(), 1u);

  const auto reference = ReferenceClusters(points->points, 1);
  ASSERT_EQ(fof->clusters.size(), reference.size());
  uint64_t total_members = 0;
  for (const net::FofClusterRecord& record : fof->clusters) {
    const auto it = reference.find(record.id);
    ASSERT_NE(it, reference.end()) << "unknown cluster id " << record.id;
    // Byte-identical membership: the serialized member lists agree
    // exactly (z-indexes and norms).
    EXPECT_EQ(EncodePointsBinary(record.members),
              EncodePointsBinary(it->second))
        << "cluster " << record.id;
    EXPECT_EQ(record.size, it->second.size());
    total_members += record.size;
  }
  EXPECT_EQ(total_members, points->points.size());

  // Wire-level summary invariants.
  uint64_t largest = 0;
  for (const net::FofClusterRecord& record : fof->clusters) {
    largest = std::max(largest, record.size);
  }
  EXPECT_EQ(fof->summary.largest_cluster, largest);

  // The fixture really exercised the wrap: at least one cluster's
  // bounding box must span the periodic seam (touch both faces of some
  // axis), or the threshold was too high to be a meaningful fixture.
  bool wrap_seen = false;
  for (const net::FofClusterRecord& record : fof->clusters) {
    for (int axis = 0; axis < 3; ++axis) {
      if (record.bbox_lo[axis] == 0 &&
          record.bbox_hi[axis] == static_cast<uint64_t>(kGrid - 1) &&
          record.size < points->points.size()) {
        wrap_seen = true;
      }
    }
  }
  EXPECT_TRUE(wrap_seen);
}

TEST(FofClusterTest, MinClusterSizeAndSummaryOnlyReply) {
  auto procs = NodeProcessCluster::Launch(2, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();

  net::ServerOptions front;
  front.num_workers = 2;
  auto server = ServeMediator(&(*db)->mediator(), front);
  ASSERT_TRUE(server.ok()) << server.status();

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  auto stats = (*db)->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok()) << stats.status();

  const ThresholdQuery query = VorticityQuery(2.0 * stats->rms);
  auto points = (*db)->Threshold(query);
  ASSERT_TRUE(points.ok()) << points.status();

  net::FofRequest request;
  request.query = query;
  request.linking_length = kLinkingLength;
  request.min_cluster_size = 5;
  request.include_members = false;  // Summary rows only.

  net::Client client("127.0.0.1", (*server)->port());
  auto fof = client.Fof(request);
  ASSERT_TRUE(fof.ok()) << fof.status();

  const auto reference = ReferenceClusters(points->points, 5);
  ASSERT_EQ(fof->clusters.size(), reference.size());
  for (const net::FofClusterRecord& record : fof->clusters) {
    EXPECT_TRUE(record.members.empty());
    EXPECT_GE(record.size, 5u);
    const auto it = reference.find(record.id);
    ASSERT_NE(it, reference.end()) << "unknown cluster id " << record.id;
    EXPECT_EQ(record.size, it->second.size());
  }
}

TEST(FofClusterTest, LinkingLengthWiderThanHaloIsTypedError) {
  auto procs = NodeProcessCluster::Launch(2, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();

  net::ServerOptions front;
  front.num_workers = 2;
  auto server = ServeMediator(&(*db)->mediator(), front);
  ASSERT_TRUE(server.ok()) << server.status();

  net::FofRequest request;
  request.query = VorticityQuery(5.0);
  request.linking_length = 9.0;  // Wider than the 8-wide atoms.

  net::ClientOptions no_retry;
  no_retry.max_retries = 0;
  net::Client client("127.0.0.1", (*server)->port(), no_retry);
  auto fof = client.Fof(request);
  ASSERT_FALSE(fof.ok());
  EXPECT_EQ(fof.status().code(), StatusCode::kInvalidArgument)
      << fof.status();
  EXPECT_NE(fof.status().message().find("halo"), std::string::npos)
      << fof.status();
}

}  // namespace
}  // namespace turbdb
