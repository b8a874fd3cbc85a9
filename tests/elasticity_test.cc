// Elasticity integration tests over real processes: (1) a node killed
// with SIGKILL after acknowledged ingest restarts, detects the unclean
// shutdown, replays its write-ahead log and answers byte-identically to
// an uninterrupted in-process run; (2) a clean SIGTERM restart keeps the
// incarnation epoch while a SIGKILL restart bumps it; (3) a third node
// joins a running 2-shard cluster through `turbdb_node --join`, a live
// rebalance moves ranges onto it under concurrent queries with zero
// failures, and a decommission drains it again — results byte-identical
// throughout, friends-of-friends clusters included.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/turbdb.h"
#include "net/client.h"
#include "net/socket.h"
#include "wire/serializer.h"

#include "process_harness.h"

namespace turbdb {
namespace {

using testprocs::NodeProcessCluster;

constexpr int kBaseNodes = 2;
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

std::string MakeStorageDir() {
  std::string templ = (std::filesystem::temp_directory_path() /
                       "turbdb_elasticity_XXXXXX")
                          .string();
  char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

/// Reserves an ephemeral loopback port (bind + close, the same
/// milliseconds-wide race the node harness accepts).
uint16_t ReservePort() {
  auto listener = net::TcpListen("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok());
  auto port = net::LocalPort(*listener);
  EXPECT_TRUE(port.ok());
  listener->Close();
  return *port;
}

/// fork/exec one auxiliary process (turbdb_server, or a joining
/// turbdb_node whose command line the node harness cannot express).
pid_t Spawn(const std::string& binary, std::vector<std::string> args) {
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

void KillAndReap(pid_t pid, int sig) {
  if (pid <= 0) return;
  ::kill(pid, sig);
  int ignored = 0;
  ::waitpid(pid, &ignored, 0);
}

/// Polls until `port` accepts a TCP connection; fails the test when the
/// process exits or the budget runs out.
bool WaitListening(uint16_t port, pid_t pid, int budget_ms = 30000) {
  for (int waited = 0; waited < budget_ms; waited += 50) {
    auto conn = net::TcpConnect("127.0.0.1", port, net::Deadline::After(250));
    if (conn.ok()) {
      conn->Close();
      return true;
    }
    int wstatus = 0;
    if (pid > 0 && ::waitpid(pid, &wstatus, WNOHANG) > 0) return false;
    ::usleep(50 * 1000);
  }
  return false;
}

Result<std::unique_ptr<TurbDB>> OpenRemote(ClusterTopology topology) {
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

/// Ground truth: the same data in one process, no networking, no WAL.
Result<std::unique_ptr<TurbDB>> OpenInProcess() {
  TurbDBConfig config;
  config.cluster.num_nodes = kBaseNodes;
  config.cluster.processes_per_node = 2;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

/// (id, size) of every friends-of-friends cluster, in reply order.
using ClusterSizes = std::vector<std::pair<uint64_t, uint64_t>>;

/// Thresholds whose FoF clusters touch the ranges the rebalance moves:
/// a halo pass that judged ownership by the base partitioning alone
/// split some of them.
constexpr double kFofThresholds[] = {6.0, 8.0, 10.0};
constexpr double kLinkingLength = 2.0;

ClusterSizes InProcessFof(Mediator& mediator, const ThresholdQuery& query) {
  ClusterSizes sizes;
  auto summary = mediator.GetFof(
      query, QueryOptions{}, kLinkingLength, /*min_cluster_size=*/1,
      CallBudget{}, /*chunk_points=*/0,
      [&](std::vector<DistributedFofCluster> clusters,
          uint64_t) -> Result<uint64_t> {
        for (const DistributedFofCluster& cluster : clusters) {
          sizes.emplace_back(cluster.id, cluster.size());
        }
        return 0;
      });
  EXPECT_TRUE(summary.ok()) << summary.status();
  return sizes;
}

ClusterSizes RemoteFof(net::Client& client, const ThresholdQuery& query) {
  net::FofRequest request;
  request.query = query;
  request.linking_length = kLinkingLength;
  request.min_cluster_size = 1;
  auto fof = client.Fof(request);
  EXPECT_TRUE(fof.ok()) << fof.status();
  ClusterSizes sizes;
  if (!fof.ok()) return sizes;
  for (const net::FofClusterRecord& record : fof->clusters) {
    sizes.emplace_back(record.id, record.size);
  }
  return sizes;
}

Result<net::NodeStatsReply> NodeWideStats(const NodeAddress& address) {
  net::Client client(address.host, address.port);
  net::NodeStatsRequest request;  // Empty dataset/field: node-wide row.
  return client.NodeStats(request);
}

TEST(ElasticityTest, KillNineAfterIngestReplaysWalByteIdentically) {
  const std::string storage_dir = MakeStorageDir();
  auto procs = NodeProcessCluster::Launch(kBaseNodes, TURBDB_NODE_BINARY,
                                          {"--storage-dir", storage_dir});
  ASSERT_TRUE(procs.ok()) << procs.status();

  auto remote_db = OpenRemote((*procs)->topology());
  ASSERT_TRUE(remote_db.ok()) << remote_db.status();
  auto local_db = OpenInProcess();
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  // Every acknowledged ingest batch sits in the WAL: the demo dataset is
  // far below the checkpoint threshold, so nothing was truncated yet.
  auto before = NodeWideStats((*procs)->topology().nodes[0]);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_GT(before->wal_pending_records, 0u);
  const uint64_t old_epoch = before->epoch;
  ASSERT_GT(old_epoch, 0u);

  // kill -9: no drain, no checkpoint — the stale lock marker and the
  // pending WAL tail are all the restart has to go on.
  (*procs)->Kill(0, SIGKILL);
  ASSERT_TRUE((*procs)->Restart(0).ok());

  auto after = NodeWideStats((*procs)->topology().nodes[0]);
  ASSERT_TRUE(after.ok()) << after.status();
  // Unclean shutdown detected: epoch bumped (mediators re-sync), WAL
  // replayed into the stores and checkpointed.
  EXPECT_GT(after->epoch, old_epoch);
  EXPECT_EQ(after->wal_pending_records, 0u);
  EXPECT_GT(after->stored_atoms, 0u);

  // Give the mediator's health probe time to notice the bounce.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  auto stats = (*local_db)->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok()) << stats.status();

  const ThresholdQuery query = VorticityQuery(2.0 * stats->rms);
  auto remote = (*remote_db)->Threshold(query);
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto local = (*local_db)->Threshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_GT(local->points.size(), 0u);
  EXPECT_EQ(EncodePointsBinary(remote->points),
            EncodePointsBinary(local->points));

  std::filesystem::remove_all(storage_dir);
}

TEST(ElasticityTest, CleanRestartKeepsEpochUncleanRestartBumpsIt) {
  const std::string storage_dir = MakeStorageDir();
  auto procs = NodeProcessCluster::Launch(1, TURBDB_NODE_BINARY,
                                          {"--storage-dir", storage_dir});
  ASSERT_TRUE(procs.ok()) << procs.status();
  const NodeAddress address = (*procs)->topology().nodes[0];

  auto boot = NodeWideStats(address);
  ASSERT_TRUE(boot.ok()) << boot.status();
  const uint64_t boot_epoch = boot->epoch;
  ASSERT_GT(boot_epoch, 0u);

  // SIGTERM drains cleanly and removes the lock marker: the restart is
  // the same incarnation, no silent epoch bump, no spurious re-sync.
  (*procs)->Kill(0, SIGTERM);
  ASSERT_TRUE((*procs)->Restart(0).ok());
  auto clean = NodeWideStats(address);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->epoch, boot_epoch);

  // SIGKILL leaves the marker behind: the next boot must notice and
  // bump so mediators know to re-sync.
  (*procs)->Kill(0, SIGKILL);
  ASSERT_TRUE((*procs)->Restart(0).ok());
  auto unclean = NodeWideStats(address);
  ASSERT_TRUE(unclean.ok()) << unclean.status();
  EXPECT_GT(unclean->epoch, boot_epoch);

  std::filesystem::remove_all(storage_dir);
}

TEST(ElasticityTest, JoinRebalanceAndDecommissionUnderLiveQueries) {
  const std::string storage_dir = MakeStorageDir();
  auto procs = NodeProcessCluster::Launch(kBaseNodes, TURBDB_NODE_BINARY,
                                          {"--storage-dir", storage_dir});
  ASSERT_TRUE(procs.ok()) << procs.status();

  // The mediator tier: a real turbdb_server fronting the two shards. It
  // ingests the demo dataset before it starts listening. The mediator
  // cache is off so every query really scatters across the shards.
  const uint16_t server_port = ReservePort();
  const pid_t server_pid = Spawn(
      TURBDB_SERVER_BINARY,
      {"--bind", "127.0.0.1", "--port", std::to_string(server_port),
       "--n", std::to_string(kGrid), "--timesteps",
       std::to_string(kTimesteps), "--seed", std::to_string(kSeed),
       "--topology", (*procs)->topology().ToString(), "--storage-dir",
       storage_dir, "--mediator-cache-mb", "0"});
  ASSERT_TRUE(WaitListening(server_port, server_pid))
      << "turbdb_server did not start";

  auto local_db = OpenInProcess();
  ASSERT_TRUE(local_db.ok()) << local_db.status();
  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  auto stats = (*local_db)->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const ThresholdQuery query = VorticityQuery(2.0 * stats->rms);
  auto local = (*local_db)->Threshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_GT(local->points.size(), 0u);
  const std::vector<uint8_t> expected = EncodePointsBinary(local->points);
  std::vector<ClusterSizes> expected_fof;
  for (const double threshold : kFofThresholds) {
    expected_fof.push_back(
        InProcessFof((*local_db)->mediator(), VorticityQuery(threshold)));
    ASSERT_GT(expected_fof.back().size(), 1u);
  }

  // The open-loop query thread: in-flight queries across join, cutover
  // and decommission must all succeed with byte-identical results.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatched{0};
  std::thread querier([&]() {
    net::Client client("127.0.0.1", server_port);
    QueryOptions options;
    options.use_cache = false;
    options.max_result_points = 10u << 20;
    while (!stop.load(std::memory_order_acquire)) {
      auto result = client.Threshold(query, options);
      if (!result.ok()) {
        ++failed;
        ADD_FAILURE() << "query failed mid-elasticity: " << result.status();
      } else {
        ++completed;
        if (EncodePointsBinary(result->points) != expected) ++mismatched;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // A third node joins the running cluster: admit, WAL recovery,
  // self-registration from the catalog, activate. No cluster restart.
  const uint16_t joiner_port = ReservePort();
  const pid_t joiner_pid = Spawn(
      TURBDB_NODE_BINARY,
      {"--join", "127.0.0.1:" + std::to_string(server_port), "--bind",
       "127.0.0.1", "--port", std::to_string(joiner_port), "--storage-dir",
       storage_dir, "--uuid", "joiner-1"});
  ASSERT_TRUE(WaitListening(joiner_port, joiner_pid))
      << "joining turbdb_node did not start";

  net::Client admin("127.0.0.1", server_port);
  // Distributed FoF must cluster exactly as the in-process reference,
  // whichever shard owns which range.
  auto expect_same_fof = [&](const char* phase) {
    for (size_t i = 0; i < std::size(kFofThresholds); ++i) {
      EXPECT_EQ(RemoteFof(admin, VorticityQuery(kFofThresholds[i])),
                expected_fof[i])
          << phase << ", vorticity >= " << kFofThresholds[i];
    }
  };
  // Wait for the activation to land in the membership.
  int joiner_node_id = -1;
  int joiner_shard = -1;
  uint64_t join_generation = 0;
  for (int waited = 0; waited < 30000; waited += 100) {
    auto membership = admin.MembershipGet();
    ASSERT_TRUE(membership.ok()) << membership.status();
    const NodeRecord* record = membership->view.FindByUuid("joiner-1");
    if (record != nullptr && record->role == NodeRole::kShard) {
      joiner_node_id = record->node_id;
      joiner_shard = record->shard;
      join_generation = membership->view.generation;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_EQ(joiner_node_id, kBaseNodes);
  ASSERT_EQ(joiner_shard, kBaseNodes);
  ASSERT_GT(join_generation, 1u);

  // Live rebalance: ranges cut over onto the joined shard while the
  // query thread keeps hitting the cluster.
  net::RebalanceRequest rebalance;
  rebalance.to_shard = joiner_shard;
  rebalance.max_ranges = 4;
  auto moved = admin.Rebalance(rebalance);
  ASSERT_TRUE(moved.ok()) << moved.status();
  ASSERT_GE(moved->moved.size(), 1u);
  EXPECT_GT(moved->atoms_copied, 0u);
  EXPECT_GT(moved->generation, join_generation);
  for (const RangeOverride& range : moved->moved) {
    EXPECT_EQ(range.shard, joiner_shard);
  }

  // The joined node genuinely serves its ranges from its own storage.
  auto joiner_stats = NodeWideStats(NodeAddress{"127.0.0.1", joiner_port});
  ASSERT_TRUE(joiner_stats.ok()) << joiner_stats.status();
  EXPECT_GT(joiner_stats->stored_atoms, 0u);
  EXPECT_GE(joiner_stats->generation, moved->generation);
  expect_same_fof("after the rebalance");

  // Let queries run against the 3-shard layout for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Decommission drains the joiner: its ranges move back to the base
  // shards, again without disturbing the query stream.
  net::LeaveRequest leave;
  leave.node_id = joiner_node_id;
  auto left = admin.Leave(leave);
  ASSERT_TRUE(left.ok()) << left.status();
  EXPECT_GE(left->ranges_moved, 1u);
  const NodeRecord* drained = left->view.FindByUuid("joiner-1");
  ASSERT_NE(drained, nullptr);
  EXPECT_EQ(drained->role, NodeRole::kDraining);
  expect_same_fof("after the decommission");

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  querier.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(mismatched.load(), 0u);
  EXPECT_GT(completed.load(), 0u);

  KillAndReap(joiner_pid, SIGTERM);
  KillAndReap(server_pid, SIGTERM);
  std::filesystem::remove_all(storage_dir);
}

}  // namespace
}  // namespace turbdb
