// Multi-process integration tests: real turbdb_node processes, a
// distributed Mediator scatter-gathering over TCP, and the invariant the
// whole subsystem hangs on — a query answered by remote nodes is
// byte-identical to the same query on the classic in-process cluster.
// Also the failure side: a killed node must surface as a typed error
// naming that node within the configured deadline, never a hang.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "cluster/service.h"
#include "core/turbdb.h"
#include "net/client.h"
#include "net/server.h"
#include "wire/serializer.h"

#include "process_harness.h"

namespace turbdb {
namespace {

using testprocs::NodeProcessCluster;

constexpr int kNodes = 3;
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

/// Opens a TurbDB whose mediator scatter-gathers over `topology` and
/// ingests the demo data through the remote nodes.
Result<std::unique_ptr<TurbDB>> OpenDistributed(
    const ClusterTopology& topology, uint64_t subquery_deadline_ms = 60000) {
  TurbDBConfig config;
  config.cluster.topology = topology;
  config.cluster.processes_per_node = 2;
  config.cluster.remote.subquery_deadline_ms = subquery_deadline_ms;
  config.cluster.remote.max_retries = 1;
  config.cluster.remote.backoff_initial_ms = 20;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db,
                          TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

Result<std::unique_ptr<TurbDB>> OpenInProcess() {
  TurbDBConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.processes_per_node = 2;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db,
                          TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

TEST(NodeClusterTest, DistributedThresholdIsByteIdenticalToInProcess) {
  auto procs = NodeProcessCluster::Launch(kNodes, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();

  auto remote_db = OpenDistributed((*procs)->topology());
  ASSERT_TRUE(remote_db.ok()) << remote_db.status();
  auto local_db = OpenInProcess();
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  // The RMS must agree first (it is itself a distributed aggregate).
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
  EXPECT_EQ(remote_stats->mean, local_stats->mean);
  EXPECT_EQ(remote_stats->max, local_stats->max);
  EXPECT_EQ(remote_stats->count, local_stats->count);

  const ThresholdQuery query = VorticityQuery(2.0 * local_stats->rms);
  auto remote = (*remote_db)->Threshold(query);
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto local = (*local_db)->Threshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_GT(local->points.size(), 0u);

  // The acceptance bar: same point set, z-index for z-index and norm for
  // norm — the serialized forms agree byte for byte.
  ASSERT_EQ(remote->points.size(), local->points.size());
  for (size_t i = 0; i < local->points.size(); ++i) {
    EXPECT_EQ(remote->points[i].zindex, local->points[i].zindex);
    EXPECT_EQ(remote->points[i].norm, local->points[i].norm);
  }
  EXPECT_EQ(EncodePointsBinary(remote->points),
            EncodePointsBinary(local->points));

  // The modeled cost is part of the contract too: the remote path ships
  // the same flops/cores/LAN parameters, so the numbers are identical.
  EXPECT_DOUBLE_EQ(remote->time.Total(), local->time.Total());
}

TEST(NodeClusterTest, StreamedThresholdByteIdenticalOverReplicatedCluster) {
  // The full streamed path across every hop: 4 turbdb_node processes in
  // two R=2 replica groups stream their sub-replies to the mediator,
  // whose front-end server re-streams the joined result to the user
  // client in tiny budgeted chunks. The reassembled point set must equal
  // the buffered distributed query byte for byte.
  std::string storage_templ = (std::filesystem::temp_directory_path() /
                               "turbdb_stream_r2_XXXXXX")
                                  .string();
  ASSERT_NE(::mkdtemp(storage_templ.data()), nullptr);
  auto procs = NodeProcessCluster::Launch(
      4, TURBDB_NODE_BINARY,
      {"--replication-factor", "2", "--storage-dir", storage_templ});
  ASSERT_TRUE(procs.ok()) << procs.status();

  ClusterTopology topology = (*procs)->topology();
  topology.replication_factor = 2;
  auto db = OpenDistributed(topology);
  ASSERT_TRUE(db.ok()) << db.status();

  net::ServerOptions front;
  front.num_workers = 2;
  front.stream_chunk_points = 64;
  front.result_budget_bytes = 8u << 10;
  auto server = ServeMediator(&(*db)->mediator(), front);
  ASSERT_TRUE(server.ok()) << server.status();

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  auto stats = (*db)->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok()) << stats.status();

  const ThresholdQuery query = VorticityQuery(1.0 * stats->rms);
  auto buffered = (*db)->Threshold(query);
  ASSERT_TRUE(buffered.ok()) << buffered.status();
  ASSERT_GT(buffered->points.size(), 0u);

  net::Client client("127.0.0.1", (*server)->port());
  auto streamed = client.ThresholdStreamed(query);
  ASSERT_TRUE(streamed.ok()) << streamed.status();

  ASSERT_EQ(streamed->points.size(), buffered->points.size());
  for (size_t i = 0; i < buffered->points.size(); ++i) {
    ASSERT_EQ(streamed->points[i].zindex, buffered->points[i].zindex) << i;
    ASSERT_EQ(streamed->points[i].norm, buffered->points[i].norm) << i;
  }
  EXPECT_EQ(EncodePointsBinary(streamed->points),
            EncodePointsBinary(buffered->points));

  const auto server_stats = (*server)->stats();
  EXPECT_GT(server_stats.result_bytes_peak, 0u);
  EXPECT_LE(server_stats.result_bytes_peak, front.result_budget_bytes);
  EXPECT_EQ(server_stats.result_bytes_in_use, 0u);
}

TEST(NodeClusterTest, RemoteCacheHitAndDropCacheRoundTrip) {
  auto procs = NodeProcessCluster::Launch(kNodes, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();

  const ThresholdQuery query = VorticityQuery(9.0);
  auto miss = (*db)->Threshold(query);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->all_cache_hits);

  // Second run is answered from the nodes' semantic caches.
  auto hit = (*db)->Threshold(query);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->all_cache_hits);
  EXPECT_EQ(EncodePointsBinary(hit->points),
            EncodePointsBinary(miss->points));

  // Dropping the cached entries over RPC reverts to the miss path.
  ASSERT_TRUE((*db)->mediator()
                  .DropCacheEntries("mhd", "velocity", "vorticity", -1)
                  .ok());
  auto after_drop = (*db)->Threshold(query);
  ASSERT_TRUE(after_drop.ok()) << after_drop.status();
  EXPECT_FALSE(after_drop->all_cache_hits);
}

TEST(NodeClusterTest, DeadNodeYieldsTypedErrorNamingIt) {
  auto procs = NodeProcessCluster::Launch(kNodes, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(),
                            /*subquery_deadline_ms=*/5000);
  ASSERT_TRUE(db.ok()) << db.status();

  // Warm check, then kill node 1 outright (no graceful drain).
  ASSERT_TRUE((*db)->Threshold(VorticityQuery(9.0)).ok());
  (*procs)->Kill(1, SIGKILL);

  const auto started = std::chrono::steady_clock::now();
  auto result = (*db)->Threshold(VorticityQuery(8.0));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnreachable)
      << result.status();
  EXPECT_NE(result.status().message().find("node 1"), std::string::npos)
      << result.status();
  // Fail fast: bounded by connect timeout + one retry, nowhere near a
  // hang (and well inside the per-test timeout).
  EXPECT_LT(elapsed, 30.0);
}

TEST(NodeClusterTest, KillMidQueryNamesTheLostNode) {
  auto procs = NodeProcessCluster::Launch(kNodes, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(),
                            /*subquery_deadline_ms=*/10000);
  ASSERT_TRUE(db.ok()) << db.status();

  // Fire the query on a separate thread and kill node 2 once its own
  // stats report the sub-query admitted, so the kill lands mid-execution
  // however fast the query runs.
  Result<ThresholdResult> result = Status::Internal("query never ran");
  QueryOptions options;
  options.use_cache = false;
  options.max_result_points = 10u << 20;
  const NodeAddress& node2 = (*procs)->topology().nodes[2];
  net::Client stats_client(node2.host, node2.port);
  std::thread runner([&] {
    result = (*db)->mediator().GetThreshold(VorticityQuery(0.0), options);
  });
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  bool in_flight = false;
  while (!in_flight && std::chrono::steady_clock::now() < give_up) {
    auto stats = stats_client.ServerStats();
    in_flight = stats.ok() && stats->queries_in_flight >= 1;
  }
  (*procs)->Kill(2, SIGKILL);
  runner.join();
  ASSERT_TRUE(in_flight) << "node 2 never reported the sub-query in flight";

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnreachable)
      << result.status();
  EXPECT_NE(result.status().message().find("node 2"), std::string::npos)
      << result.status();
}

TEST(NodeClusterTest, BringUpFailsFastWhenANodeIsMissing) {
  auto procs = NodeProcessCluster::Launch(kNodes, TURBDB_NODE_BINARY);
  ASSERT_TRUE(procs.ok()) << procs.status();
  ClusterTopology topology = (*procs)->topology();
  (*procs)->Kill(0, SIGKILL);

  // The handshake at Mediator::Create must name the dead node instead of
  // deferring the surprise to the first query.
  TurbDBConfig config;
  config.cluster.topology = topology;
  config.cluster.remote.connect_timeout_ms = 1000;
  config.cluster.remote.max_retries = 0;
  auto db = TurbDB::Open(config);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kUnreachable) << db.status();
  EXPECT_NE(db.status().message().find("node 0"), std::string::npos)
      << db.status();
}

}  // namespace
}  // namespace turbdb
