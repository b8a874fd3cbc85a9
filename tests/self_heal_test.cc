// Self-healing end-to-end drill (TURBDB_FAULTS builds): 4 real
// turbdb_node processes (R=2) where one replica's store suffers genuine
// on-disk bit rot via the store.bit_flip fault site. The contracts
// under test: every query still answers byte-identically to the
// in-process ground truth (kCorruption fails over to the healthy
// sibling, never serves bad bytes); the mediator counts the corruption
// failovers; a triggered scrub detects the damage and repairs it from
// the healthy peer over the Merkle/RepairRange flow; and afterwards the
// siblings' Merkle roots converge with nothing left in quarantine. A
// range copy (the SyncRange paging of a rebalance or a decommission)
// fails over off the rot like every other read.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/turbdb.h"
#include "net/client.h"
#include "replication/replica_group.h"
#include "replication/sync.h"
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
/// The replica whose disk rots: the primary of group 0, so reads prefer
/// it and the corruption is guaranteed to surface on the query path.
constexpr int kVictim = 0;

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

Result<std::unique_ptr<TurbDB>> OpenInProcess() {
  TurbDBConfig config;
  config.cluster.num_nodes = kGroups;
  config.cluster.processes_per_node = 2;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, kTimesteps, kSeed));
  return db;
}

net::ClientOptions NodeClientOptions() {
  net::ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.read_timeout_ms = 60000;
  options.deadline_ms = 60000;
  options.max_retries = 0;
  return options;
}

Result<uint64_t> MerkleRoot(const ClusterTopology& topology, int node) {
  const NodeAddress& address = topology.nodes[static_cast<size_t>(node)];
  net::Client client(address.host, address.port, NodeClientOptions());
  net::NodeMerkleRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  TURBDB_ASSIGN_OR_RETURN(net::NodeMerkleReply reply, client.Call(request));
  return reply.tree.root;
}

TEST(SelfHealTest, BitRotFailsOverByteIdenticallyAndScrubRepairs) {
  const testing::ScopedTempDir scoped_dir("turbdb_self_heal");
  const std::string& storage_dir = scoped_dir.path();
  // Arm three on-disk payload flips on the victim: the next three
  // record reads each XOR a stored byte before reading it back, so the
  // checksum path faces genuine media damage, not a simulated error.
  auto procs = NodeProcessCluster::Launch(
      kPhysicalNodes, TURBDB_NODE_BINARY,
      {"--replication-factor", std::to_string(kReplication), "--storage-dir",
       storage_dir},
      [](int i) -> std::vector<std::string> {
        if (i != kVictim) return {};
        return {"--faults", "store.bit_flip=delay:3:3"};
      });
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
  const std::vector<uint8_t> expected_bytes = EncodePointsBinary(expected->points);

  // Every query during the rot must succeed and answer byte-identically
  // — the replica group serves corruption-free answers off the healthy
  // sibling while the victim's reads keep tripping the armed flips and
  // then its quarantine.
  for (int round = 0; round < 6; ++round) {
    auto got = (*db)->mediator().GetThreshold(query, options);
    ASSERT_TRUE(got.ok()) << "round " << round << ": " << got.status();
    EXPECT_EQ(EncodePointsBinary(got->points), expected_bytes)
        << "round " << round;
  }
  EXPECT_GE((*db)->mediator().corruption_failovers(), 1u);

  // Trigger a scrub pass on the victim: it re-verifies every atom,
  // quarantines what rotted, and heals from its replica sibling over
  // the Merkle diff + RepairRange flow. Poll briefly — the mediator's
  // background read-repair may have healed some of it already, which is
  // equally acceptable; what matters is convergence.
  const ClusterTopology& topology = (*procs)->topology();
  const NodeAddress& victim = topology.nodes[kVictim];
  bool converged = false;
  uint64_t quarantined = ~0ull;
  for (int attempt = 0; attempt < 40 && !converged; ++attempt) {
    net::Client scrub_client(victim.host, victim.port, NodeClientOptions());
    net::NodeScrubRequest request;
    request.trigger = true;
    auto reply = scrub_client.Call(request);
    ASSERT_TRUE(reply.ok()) << reply.status();
    quarantined = 0;
    for (const Scrubber::StoreStats& row : reply->stores) {
      quarantined += row.atoms_quarantined;
    }
    auto victim_root = MerkleRoot(topology, kVictim);
    auto sibling_root = MerkleRoot(topology, kVictim + 1);
    ASSERT_TRUE(victim_root.ok()) << victim_root.status();
    ASSERT_TRUE(sibling_root.ok()) << sibling_root.status();
    converged = quarantined == 0 && *victim_root != 0 &&
                *victim_root == *sibling_root;
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  }
  EXPECT_TRUE(converged) << "quarantined=" << quarantined;

  // Healed for real: the victim answers again and the whole cluster
  // still matches the ground truth bit for bit.
  auto after = (*db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(EncodePointsBinary(after->points), expected_bytes);

  // The scrubber's lifetime counters saw the damage (directly or via a
  // quarantine left by the failed reads).
  net::Client stats_client(victim.host, victim.port, NodeClientOptions());
  auto stats = stats_client.Call(net::NodeStatsRequest{});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->atoms_quarantined, 0u);

}

TEST(SelfHealTest, RepairRangeRpcConvergesDivergentReplica) {
  const testing::ScopedTempDir scoped_dir("turbdb_self_heal");
  const std::string& storage_dir = scoped_dir.path();
  // One flip, armed on the victim; consumed by the first query read.
  auto procs = NodeProcessCluster::Launch(
      kPhysicalNodes, TURBDB_NODE_BINARY,
      {"--replication-factor", std::to_string(kReplication), "--storage-dir",
       storage_dir},
      [](int i) -> std::vector<std::string> {
        if (i != kVictim) return {};
        return {"--faults", "store.bit_flip=delay:7:1"};
      });
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenReplicated((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();

  QueryOptions options;
  options.use_cache = false;
  options.max_result_points = 10u << 20;
  const ThresholdQuery query = VorticityQuery(4.0);
  auto first = (*db)->mediator().GetThreshold(query, options);
  ASSERT_TRUE(first.ok()) << first.status();

  // Order the victim to repair the store from its siblings directly —
  // the RPC a peer (or operator) uses for targeted anti-entropy.
  const ClusterTopology& topology = (*procs)->topology();
  const NodeAddress& victim = topology.nodes[kVictim];
  net::Client client(victim.host, victim.port, NodeClientOptions());
  net::NodeRepairRangeRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  auto reply = client.Call(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->node_id, kVictim);

  // However the race between the background read-repair and this RPC
  // resolved, the end state is convergence: identical non-zero roots.
  bool converged = false;
  for (int attempt = 0; attempt < 40 && !converged; ++attempt) {
    auto victim_root = MerkleRoot(topology, kVictim);
    auto sibling_root = MerkleRoot(topology, kVictim + 1);
    ASSERT_TRUE(victim_root.ok()) << victim_root.status();
    ASSERT_TRUE(sibling_root.ok()) << sibling_root.status();
    converged = *victim_root != 0 && *victim_root == *sibling_root;
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      auto again = client.Call(request);
      ASSERT_TRUE(again.ok()) << again.status();
    }
  }
  EXPECT_TRUE(converged);

}

// A rebalance or a decommission copies each range by paging the donor
// shard's SyncRange. The donor's primary has rotted: the copy fails over
// to the sibling's good bytes instead of failing the move.
TEST(SelfHealTest, RangeCopyFailsOverOffARottenPrimary) {
  const testing::ScopedTempDir scoped_dir("turbdb_self_heal");
  const std::string& storage_dir = scoped_dir.path();
  // One flip, armed on the victim; consumed by the copy's first read.
  auto procs = NodeProcessCluster::Launch(
      kPhysicalNodes, TURBDB_NODE_BINARY,
      {"--replication-factor", std::to_string(kReplication), "--storage-dir",
       storage_dir},
      [](int i) -> std::vector<std::string> {
        if (i != kVictim) return {};
        return {"--faults", "store.bit_flip=delay:7:1"};
      });
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenReplicated((*procs)->topology());
  ASSERT_TRUE(db.ok()) << db.status();
  auto local_db = OpenInProcess();
  ASSERT_TRUE(local_db.ok()) << local_db.status();
  const uint64_t expected =
      (*local_db)->mediator().node(0).StoredAtomCount("mhd", "velocity");
  ASSERT_GT(expected, 0u);

  Mediator& mediator = (*db)->mediator();
  auto* donor = dynamic_cast<ReplicaGroup*>(&mediator.backend(0));
  ASSERT_NE(donor, nullptr);
  net::NodeSyncRangeRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  request.timestep = 0;
  request.max_atoms = 256;
  uint64_t copied = 0;
  const Status paged = PageSyncRange(
      request,
      [donor](const net::NodeSyncRangeRequest& page) {
        return donor->SyncRange(page);
      },
      [&](std::vector<Atom>& atoms) {
        copied += atoms.size();
        return Status::OK();
      });
  ASSERT_TRUE(paged.ok()) << paged;
  EXPECT_EQ(copied, expected);
  EXPECT_GE(mediator.corruption_failovers(), 1u);

}

}  // namespace
}  // namespace turbdb
