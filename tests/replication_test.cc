// Replication integration tests: 4 real turbdb_node processes forming 2
// replica groups (R=2) over a shared durable storage directory. The
// contracts under test: a replicated cluster answers byte-identically to
// the in-process cluster of the same group count; killing a replica
// mid-query is a logged failover, not an error; restarting a node over
// its storage dir bumps its epoch, triggers a mediator re-sync and
// returns it to service.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/turbdb.h"
#include "wire/serializer.h"

#include "process_harness.h"
#include "test_util.h"

namespace turbdb {
namespace {

using testprocs::NodeProcessCluster;

constexpr int kPhysicalNodes = 4;
constexpr int kReplication = 2;
constexpr int kGroups = kPhysicalNodes / kReplication;
constexpr int64_t kGrid = 32;
constexpr int32_t kTimesteps = 1;
constexpr uint64_t kSeed = 2015;

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

Result<std::unique_ptr<NodeProcessCluster>> LaunchReplicated(
    const std::string& storage_dir) {
  return NodeProcessCluster::Launch(
      kPhysicalNodes, TURBDB_NODE_BINARY,
      {"--replication-factor", std::to_string(kReplication), "--storage-dir",
       storage_dir});
}

Result<std::unique_ptr<TurbDB>> OpenReplicated(ClusterTopology topology) {
  topology.replication_factor = kReplication;
  TurbDBConfig config;
  config.cluster.topology = std::move(topology);
  config.cluster.processes_per_node = 2;
  config.cluster.remote.subquery_deadline_ms = 10000;
  config.cluster.remote.max_retries = 1;
  config.cluster.remote.backoff_initial_ms = 20;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

/// The ground truth: an in-process cluster with one node per replica
/// group (replication is invisible to results).
Result<std::unique_ptr<TurbDB>> OpenInProcess() {
  TurbDBConfig config;
  config.cluster.num_nodes = kGroups;
  config.cluster.processes_per_node = 2;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

uint64_t TotalFailovers(Mediator& mediator) {
  uint64_t total = 0;
  for (const ClusterNodeStatus& row : mediator.ClusterStatus()) {
    total += row.failovers;
  }
  return total;
}

TEST(ReplicationTest, ReplicatedClusterMatchesInProcess) {
  const testing::ScopedTempDir scoped_dir("turbdb_replication");
  const std::string& storage_dir = scoped_dir.path();
  auto procs = LaunchReplicated(storage_dir);
  ASSERT_TRUE(procs.ok()) << procs.status();

  auto remote_db = OpenReplicated((*procs)->topology());
  ASSERT_TRUE(remote_db.ok()) << remote_db.status();
  auto local_db = OpenInProcess();
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  auto remote_stats = (*remote_db)->FieldStats(stats_query);
  ASSERT_TRUE(remote_stats.ok()) << remote_stats.status();
  auto local_stats = (*local_db)->FieldStats(stats_query);
  ASSERT_TRUE(local_stats.ok()) << local_stats.status();
  EXPECT_EQ(remote_stats->rms, local_stats->rms);
  EXPECT_EQ(remote_stats->count, local_stats->count);

  const ThresholdQuery query = VorticityQuery(2.0 * local_stats->rms);
  auto remote = (*remote_db)->Threshold(query);
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto local = (*local_db)->Threshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_GT(local->points.size(), 0u);
  EXPECT_EQ(EncodePointsBinary(remote->points),
            EncodePointsBinary(local->points));

  // One status row per physical node, all healthy, every R-th a primary.
  const auto status = (*remote_db)->mediator().ClusterStatus();
  ASSERT_EQ(status.size(), static_cast<size_t>(kPhysicalNodes));
  for (int i = 0; i < kPhysicalNodes; ++i) {
    EXPECT_EQ(status[i].node_id, i);
    EXPECT_EQ(status[i].shard, i / kReplication);
    EXPECT_EQ(status[i].primary, i % kReplication == 0);
    EXPECT_TRUE(status[i].healthy) << "node " << i;
    EXPECT_GT(status[i].epoch, 0u) << "node " << i;
    EXPECT_EQ(status[i].failovers, 0u) << "node " << i;
  }

}

TEST(ReplicationTest, KilledPrimaryFailsOverByteIdentically) {
  const testing::ScopedTempDir scoped_dir("turbdb_replication");
  const std::string& storage_dir = scoped_dir.path();
  auto procs = LaunchReplicated(storage_dir);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenReplicated((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();
  auto local_db = OpenInProcess();
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  QueryOptions options;
  options.use_cache = false;
  options.max_result_points = 10u << 20;
  const ThresholdQuery query = VorticityQuery(4.0);
  auto expected = (*local_db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GT(expected->points.size(), 0u);

  // Kill the primary of group 1 while a query is in flight. Whether the
  // kill lands mid-sub-query or between queries, every answer from now
  // on must come off the surviving replica, bit for bit.
  Result<ThresholdResult> in_flight = Status::Internal("query never ran");
  std::thread runner([&] {
    in_flight = (*db)->mediator().GetThreshold(query, options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*procs)->Kill(1 * kReplication, SIGKILL);
  runner.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status();
  EXPECT_EQ(EncodePointsBinary(in_flight->points),
            EncodePointsBinary(expected->points));

  // A second query deterministically exercises the dead primary's group.
  auto after = (*db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(EncodePointsBinary(after->points),
            EncodePointsBinary(expected->points));
  EXPECT_DOUBLE_EQ(after->time.Total(), expected->time.Total());

  EXPECT_GE(TotalFailovers((*db)->mediator()), 1u);
  const auto status = (*db)->mediator().ClusterStatus();
  ASSERT_EQ(status.size(), static_cast<size_t>(kPhysicalNodes));
  EXPECT_FALSE(status[1 * kReplication].healthy);

}

TEST(ReplicationTest, RestartedReplicaIsResyncedViaEpochDetection) {
  const testing::ScopedTempDir scoped_dir("turbdb_replication");
  const std::string& storage_dir = scoped_dir.path();
  auto procs = LaunchReplicated(storage_dir);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenReplicated((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();

  QueryOptions options;
  options.use_cache = false;
  options.max_result_points = 10u << 20;
  const ThresholdQuery query = VorticityQuery(4.0);
  auto baseline = (*db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(baseline->points.size(), 0u);

  const int victim = 1 * kReplication;  // Primary of group 1.
  uint64_t old_epoch = 0;
  for (const ClusterNodeStatus& row : (*db)->mediator().ClusterStatus()) {
    if (row.node_id == victim) old_epoch = row.epoch;
  }
  ASSERT_GT(old_epoch, 0u);

  // Kill it; the next query is served by the surviving replica.
  (*procs)->Kill(victim, SIGKILL);
  auto while_down = (*db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(while_down.ok()) << while_down.status();
  EXPECT_EQ(EncodePointsBinary(while_down->points),
            EncodePointsBinary(baseline->points));
  EXPECT_GE(TotalFailovers((*db)->mediator()), 1u);

  // Restart over the same storage dir (same port, bumped epoch file) and
  // let the health tracker's probe interval lapse. The next query probes
  // the node, detects the epoch change, re-syncs it from its healthy
  // peer and serves primary-preferred again.
  ASSERT_TRUE((*procs)->Restart(victim).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto after = (*db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(EncodePointsBinary(after->points),
            EncodePointsBinary(baseline->points));

  bool found = false;
  for (const ClusterNodeStatus& row : (*db)->mediator().ClusterStatus()) {
    if (row.node_id != victim) continue;
    found = true;
    EXPECT_TRUE(row.healthy);
    EXPECT_GT(row.epoch, old_epoch);
  }
  EXPECT_TRUE(found);

  // The recovered replica holds the full shard again.
  auto count = (*db)->mediator().StoredAtomCount("mhd", "velocity");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_GT(*count, 0u);

}

}  // namespace
}  // namespace turbdb
