// Fault-injection (chaos) drills for the distributed query path. Only
// built under -DTURBDB_FAULTS=ON: the turbdb::fault registry arms
// deterministic failures — stalled replies, mid-frame truncation,
// injected handler errors — at named sites inside net::Server, and these
// tests assert the cluster's typed, bounded reactions:
//
//   (a) a stalled shard burns the query's deadline budget, surfaces as
//       kDeadlineExceeded (not a generic transport error) within the
//       budget, and the mediator cancels the healthy shards' in-flight
//       sub-queries instead of letting them run for a result nobody
//       will merge;
//   (b) a replica that truncates its replies mid-frame is failed over,
//       and the answer off the surviving replica is byte-identical to
//       the in-process mediator's;
//   (c) a flapping replica — probes fine, fails every real request —
//       trips the circuit breaker and stops being dialed at all until
//       its quarantine elapses;
//   (d) a client that vanishes mid-stream aborts the query on the
//       server: the broken reply stream cancels the sub-queries not yet
//       joined and every reserved result byte is returned to the budget;
//   (e) a chunk frame truncated mid-stream (server crash signature) is a
//       transport failure the client retries from scratch — chunks of
//       the torn attempt never leak into the retried one;
//   (f) a query routed while a rebalance cutover is half committed —
//       donor and recipient already took the cutover, the registry
//       still routes by the old view — is evaluated and read by the view
//       it was routed under, and answers byte-identically at once;
//   (g) the same holds for a buffered query whose scatter spans a shard
//       untouched by the move and the move's donor, (h) for a streamed
//       threshold and a distributed friends-of-friends query in that
//       window, and (i) for a repeat after the commit with the node
//       cache on: the donor never caches an answer routed before it;
//   (j) a base node that was never told of a joined shard still reads a
//       range moved onto that shard from there: the sub-query names the
//       joined shard's address, and nodes hold no view of their own;
//   (k) a point-sample query shares the scatter of every other query:
//       one shard failing hard cancels the sub-query still running on
//       the other instead of waiting out its stall, and the cancel waits
//       for no reply.
//
// The node services are hosted in this process over real TCP sockets
// (in_process_cluster.h: one net::Server each, with per-server fault
// scopes "n0.", "n1.", ...) so a test can arm a fault at the exact
// moment it wants, on the exact server it means, and reset between
// scenarios. The same sites are reachable in the real binaries via
// `turbdb_node --faults` / the TURBDB_FAULTS environment variable.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/service.h"
#include "common/fault.h"
#include "core/turbdb.h"
#include "net/client.h"
#include "replication/replica_group.h"
#include "wire/serializer.h"

#include "in_process_cluster.h"

namespace turbdb {
namespace {

using testcluster::InProcessNodeCluster;
using testcluster::kGrid;
using testcluster::kSeed;
using testcluster::OpenDistributed;

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

QueryOptions NoCacheOptions() {
  QueryOptions options;
  options.use_cache = false;
  options.max_result_points = 10u << 20;
  return options;
}

/// Ground truth: the in-process cluster with one node per shard.
Result<std::unique_ptr<TurbDB>> OpenInProcess(int num_shards) {
  TurbDBConfig config;
  config.cluster.num_nodes = num_shards;
  config.cluster.processes_per_node = 2;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      EnsureMhdDemoData(db.get(), "mhd", kGrid, /*timesteps=*/1, kSeed));
  return db;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

// (a) One shard's server executes the sub-query but stalls its reply far
// past the query budget. The client burns its remaining budget, the
// failure comes back typed as kDeadlineExceeded well within the stall
// time, and the mediator fans CancelQuery to the shards it had not yet
// joined.
TEST_F(ChaosTest, StalledShardIsADeadlineErrorAndCancelsTheRest) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();

  // Stall every reply of node 0 (shard 0, joined first) for 60 s — far
  // beyond the 1.5 s budget below. A high count matters: node 0 also
  // serves halo fetches for node 1, and whichever of those replies goes
  // out first must stall too, or the drill would race.
  const std::string site = InProcessNodeCluster::Scope(0) +
                           "server.reply.delay";
  fault::Arm(site, fault::Action::kDelay, /*arg=*/60000, /*count=*/1000);

  CallBudget budget;
  budget.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(1500);
  const auto started = std::chrono::steady_clock::now();
  auto result = (*db)->mediator().GetThreshold(VorticityQuery(4.0),
                                               NoCacheOptions(), budget);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  EXPECT_NE(result.status().message().find("budget"), std::string::npos)
      << result.status();
  // Typed and prompt: bounded by the budget (plus slack), not the stall.
  EXPECT_LT(elapsed_s, 10.0);
  EXPECT_GE(fault::Fired(site), 1u);
  // The healthy shard's in-flight sub-query was cancelled, not merged.
  EXPECT_GE((*db)->mediator().cancels_issued(), 1u);
}

// (b) The primary of shard 0 truncates every reply mid-frame (the wire
// signature of a crash between send() calls). The client sees a torn
// stream, the replica group fails over, and the surviving replica's
// answer matches the in-process mediator byte for byte.
TEST_F(ChaosTest, TruncatedPrimaryFailsOverByteIdentically) {
  constexpr int kPhysical = 4;
  constexpr int kReplication = 2;
  auto procs = InProcessNodeCluster::Launch(kPhysical, kReplication);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), kReplication);
  ASSERT_TRUE(db.ok()) << db.status();
  auto local_db = OpenInProcess(kPhysical / kReplication);
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  const ThresholdQuery query = VorticityQuery(4.0);
  auto expected = (*local_db)->mediator().GetThreshold(query,
                                                       NoCacheOptions());
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GT(expected->points.size(), 0u);

  // Cut every reply of node 0 (primary of shard 0) 8 bytes in — a high
  // count so the client's retries see the same torn stream and the
  // failure escalates to the replica group instead of being retried
  // away.
  const std::string site = InProcessNodeCluster::Scope(0) +
                           "server.reply.truncate";
  fault::Arm(site, fault::Action::kTruncate, /*arg=*/8, /*count=*/100);

  auto result = (*db)->mediator().GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(EncodePointsBinary(result->points),
            EncodePointsBinary(expected->points));
  // The client retried the torn stream at least once before failing over.
  EXPECT_GE(fault::Fired(site), 2u);

  uint64_t failovers = 0;
  bool primary_down = false;
  for (const ClusterNodeStatus& row : (*db)->mediator().ClusterStatus()) {
    failovers += row.failovers;
    if (row.node_id == 0) primary_down = !row.healthy;
  }
  EXPECT_GE(failovers, 1u);
  EXPECT_TRUE(primary_down);
}

// (c) A flapping replica: its Hello probe succeeds (the transport is
// fine) but every handler-delegated request fails, so without a breaker
// each query pays probe + failed execute + failover. After
// HealthTracker::kBreakerTripFailures such cycles the breaker
// quarantines it — no probes, no dials, fault counter frozen — until the
// quarantine elapses on the (injected) clock, after which one probe
// proves it and it serves again.
TEST_F(ChaosTest, FlappingReplicaTripsTheBreakerUntilQuarantineElapses) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/2);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/2);
  ASSERT_TRUE(db.ok()) << db.status();
  auto local_db = OpenInProcess(/*num_shards=*/1);
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  const ThresholdQuery query = VorticityQuery(4.0);
  auto expected = (*local_db)->mediator().GetThreshold(query,
                                                       NoCacheOptions());
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto* group =
      dynamic_cast<ReplicaGroup*>(&(*db)->mediator().backend(0));
  ASSERT_NE(group, nullptr);
  HealthTracker& primary = group->member_health(0);

  // Drive the breaker's clock by hand so quarantine is stepped through,
  // not slept through. Defaults: trip after 3 failures within 30 s,
  // quarantine 5 s.
  int64_t fake_ms = 1000000;
  primary.set_clock([&fake_ms] { return fake_ms; });

  // Every handler-delegated request on node 0 now fails with a
  // transport-class error; Hello probes keep succeeding (the flap).
  const std::string site = InProcessNodeCluster::Scope(0) +
                           "server.handler.error";
  fault::Arm(site, fault::Action::kError,
             static_cast<uint64_t>(StatusCode::kIOError), /*count=*/1000000);

  // Three flap cycles: probe up, execute fails, mark down. Each answer
  // still comes off the healthy replica, each pays a failover.
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto result = (*db)->mediator().GetThreshold(query, NoCacheOptions());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(EncodePointsBinary(result->points),
              EncodePointsBinary(expected->points));
    fake_ms += 100;  // Well inside the failure-decay window.
  }
  EXPECT_EQ(primary.breaker_trips(), 1u);
  EXPECT_TRUE(primary.quarantined());

  // Quarantined: the member is not probed and not dialed at all — the
  // injected-fault counter and the failover counter both freeze.
  const uint64_t fired_at_trip = fault::Fired(site);
  const uint64_t failovers_at_trip = group->failover_count();
  for (int i = 0; i < 3; ++i) {
    auto result = (*db)->mediator().GetThreshold(query, NoCacheOptions());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(EncodePointsBinary(result->points),
              EncodePointsBinary(expected->points));
    fake_ms += 100;
  }
  EXPECT_EQ(fault::Fired(site), fired_at_trip);
  EXPECT_EQ(group->failover_count(), failovers_at_trip);
  EXPECT_TRUE(primary.quarantined());

  // Heal the node and let the quarantine elapse: the next query gets one
  // half-open probe, the member proves itself and serves primary again.
  fault::Disarm(site);
  fake_ms += 6000;
  EXPECT_FALSE(primary.quarantined());
  auto healed = (*db)->mediator().GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(EncodePointsBinary(healed->points),
            EncodePointsBinary(expected->points));
  EXPECT_TRUE(primary.healthy());
  EXPECT_EQ(fault::Fired(site), fired_at_trip);  // Fault is gone; no refire.
  EXPECT_EQ(primary.breaker_trips(), 1u);        // And no re-trip.
}

// (d) The user client hangs up after the first streamed chunk. The
// mediator front-end's next chunk write fails, which must abort the
// query like a hard shard failure: CancelQuery fans out to the shards
// not yet joined, and the governor's reply-byte ledger drains back to
// zero — a vanished reader never strands budget or keeps shards busy.
TEST_F(ChaosTest, MidStreamDisconnectCancelsShardsAndFreesBudget) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();

  // Front-end server over the distributed mediator; unscoped (the node
  // servers own "n0."/"n1.", so plain sites hit only this one). Tiny
  // chunks: the disconnect must land while most of the stream is still
  // unsent, so the server reliably observes the broken pipe mid-query.
  net::ServerOptions front;
  front.num_workers = 2;
  front.stream_chunk_points = 64;
  front.result_budget_bytes = 64u << 10;
  auto server = ServeMediator(&(*db)->mediator(), front);
  ASSERT_TRUE(server.ok()) << server.status();

  const uint64_t cancels_before = (*db)->mediator().cancels_issued();

  // Sever the user client's connection after the first consumed chunk.
  // The site is scoped "user." so the mediator's own node channels —
  // which share the client chunk-read loop — can never consume it.
  const std::string site = "user.client.disconnect_mid_stream";
  fault::Arm(site, fault::Action::kError, /*arg=*/0, /*count=*/1);

  net::ClientOptions user;
  user.fault_scope = "user.";
  user.max_retries = 0;  // Surface the torn stream instead of retrying.
  net::Client client("127.0.0.1", (*server)->port(), user);

  // Threshold 0 selects every grid point: hundreds of 64-point chunks,
  // far more than loopback socket buffers absorb before the RST lands.
  ThresholdQuery query = VorticityQuery(0.0);
  QueryOptions options = NoCacheOptions();
  auto result = client.ThresholdStreamed(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError() ||
              result.status().code() == StatusCode::kUnreachable)
      << result.status();
  EXPECT_EQ(fault::Fired(site), 1u);

  // The server notices the broken stream asynchronously (its next chunk
  // write fails); poll for the two recovery guarantees instead of racing
  // the handler thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats = (*server)->stats();
    if ((*db)->mediator().cancels_issued() > cancels_before &&
        stats.queries_in_flight == 0 && stats.result_bytes_in_use == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The shard not yet joined when the stream broke was cancelled, not
  // left running for a reader that is gone.
  EXPECT_GT((*db)->mediator().cancels_issued(), cancels_before);
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.queries_in_flight, 0u);
  // Every chunk reservation was released: the budget is whole again.
  EXPECT_EQ(stats.result_bytes_in_use, 0u);
  EXPECT_GT(stats.result_bytes_peak, 0u);
}

// (e) The server tears a chunk frame mid-write (the wire signature of a
// crash between send() calls). The client sees a transport failure, its
// retry restarts the stream from scratch, and the retried answer is
// byte-identical to the in-process ground truth — no chunk of the torn
// attempt survives into the merged result.
TEST_F(ChaosTest, TruncatedChunkIsRetriedFromScratchByteIdentically) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();
  auto local_db = OpenInProcess(/*num_shards=*/2);
  ASSERT_TRUE(local_db.ok()) << local_db.status();

  const ThresholdQuery query = VorticityQuery(4.0);
  auto expected =
      (*local_db)->mediator().GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GT(expected->points.size(), 0u);

  net::ServerOptions front;
  front.num_workers = 2;
  front.stream_chunk_points = 16;  // Several chunks even at this threshold.
  auto server = ServeMediator(&(*db)->mediator(), front);
  ASSERT_TRUE(server.ok()) << server.status();

  // Cut one chunk frame 8 bytes in, once. The client's first attempt
  // dies on the torn frame; the armed count is spent, so the retry
  // streams clean.
  fault::Arm("server.chunk_truncate", fault::Action::kTruncate, /*arg=*/8,
             /*count=*/1);

  net::Client client("127.0.0.1", (*server)->port());
  auto streamed = client.ThresholdStreamed(query, NoCacheOptions());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(fault::Fired("server.chunk_truncate"), 1u);

  // Byte-identical despite the mid-stream restart: the partial chunks of
  // the torn attempt were discarded, not merged.
  ASSERT_EQ(streamed->points.size(), expected->points.size());
  EXPECT_EQ(EncodePointsBinary(streamed->points),
            EncodePointsBinary(expected->points));
}

// (f) A cutover reaches donor and recipient, then commits the new view
// to the registry that Dispatch routes by. The
// membership.commit site holds that commit for 300 ms. A query routed in
// the window carries the old view to every shard, and donor and
// recipient evaluate and read by it, so it answers exactly as before the
// rebalance.
TEST_F(ChaosTest, QueryDuringACutoverWaitsForTheRegistryCommit) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();
  Mediator& mediator = (*db)->mediator();

  const ThresholdQuery query = VorticityQuery(4.0);
  auto before = mediator.GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_GT(before->points.size(), 0u);

  auto joined = (*procs)->Join(mediator);
  ASSERT_TRUE(joined.ok()) << joined.status();

  const std::string site = "membership.commit";
  fault::Arm(site, fault::Action::kDelay, /*arg=*/300, /*count=*/1);
  net::RebalanceRequest rebalance;
  rebalance.to_shard = *joined;
  rebalance.max_ranges = 1;
  auto moved = std::async(std::launch::async,
                          [&] { return mediator.Rebalance(rebalance); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (fault::Fired(site) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fault::Fired(site), 1u);

  // Routed by the old view while both nodes already run the new one.
  const uint64_t generation = mediator.generation();
  auto during = mediator.GetThreshold(query, NoCacheOptions());
  auto reply = moved.get();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->moved.size(), 1u);
  EXPECT_GT(reply->generation, generation);
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(EncodePointsBinary(during->points),
            EncodePointsBinary(before->points));
}

/// The window of (g)-(i). Joins a third shard and moves one range of
/// shard 0 onto it (both base shards are equally loaded, so the planner's
/// tie rule picks shard 0), then starts a second move whose cutover holds
/// the registry commit for `hold_ms` at the membership.commit site.
/// Returns that second Rebalance once the hold has begun: donor and
/// recipient already run the new view, the registry still routes by the
/// old one.
Result<std::future<Result<net::RebalanceReply>>> HoldSecondCutover(
    Mediator& mediator, InProcessNodeCluster& procs, uint64_t hold_ms) {
  TURBDB_ASSIGN_OR_RETURN(const int joined, procs.Join(mediator));
  net::RebalanceRequest rebalance;
  rebalance.to_shard = joined;
  rebalance.max_ranges = 1;
  TURBDB_ASSIGN_OR_RETURN(const net::RebalanceReply first,
                          mediator.Rebalance(rebalance));
  if (first.moved.size() != 1) {
    return Status::Internal("the first rebalance moved " +
                            std::to_string(first.moved.size()) + " ranges");
  }
  const std::string site = "membership.commit";
  fault::Arm(site, fault::Action::kDelay, hold_ms, /*count=*/1);
  auto second = std::async(std::launch::async, [&mediator, rebalance] {
    return mediator.Rebalance(rebalance);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (fault::Fired(site) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (fault::Fired(site) != 1) {
    return Status::Internal("the second cutover never reached its commit");
  }
  return second;
}

/// Checks the second move of HoldSecondCutover: at 32^3 (64 atoms, 32 per
/// base shard) the donor is shard 1, which gives up the top of its range.
void ExpectSecondMove(Result<net::RebalanceReply> reply) {
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->moved.size(), 1u);
  EXPECT_EQ(reply->moved[0].begin, 56u);
  EXPECT_EQ(reply->moved[0].end, 64u);
}

/// Every friends-of-friends cluster of `query`'s points at linking length
/// 2, in reply order: the cluster id followed by its member z-indices.
Result<std::vector<std::vector<uint64_t>>> FofClusters(
    Mediator& mediator, const ThresholdQuery& query) {
  std::vector<std::vector<uint64_t>> clusters;
  TURBDB_RETURN_NOT_OK(
      mediator
          .GetFof(query, NoCacheOptions(), /*linking_length=*/2.0,
                  /*min_cluster_size=*/1, CallBudget{}, /*chunk_points=*/0,
                  [&](std::vector<DistributedFofCluster> batch,
                      uint64_t /*total_clusters*/) -> Result<uint64_t> {
                    for (const DistributedFofCluster& cluster : batch) {
                      std::vector<uint64_t> row{cluster.id};
                      for (const ThresholdPoint& member : cluster.members) {
                        row.push_back(member.zindex);
                      }
                      clusters.push_back(std::move(row));
                    }
                    return uint64_t{0};
                  })
          .status());
  return clusters;
}

// (g) As (f), but the scatter spans a shard the move leaves alone: the
// second cutover's donor is shard 1, while shard 0 still owns its
// ranges. Every shard evaluates the view the query was routed under, so
// the buffered answer is exactly the one from before the join.
TEST_F(ChaosTest, BufferedQueryDuringACutoverRetriesAfterAnEarlierShardAnswered) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();
  Mediator& mediator = (*db)->mediator();

  const ThresholdQuery query = VorticityQuery(4.0);
  auto before = mediator.GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_GT(before->points.size(), 0u);

  auto second = HoldSecondCutover(mediator, **procs, /*hold_ms=*/300);
  ASSERT_TRUE(second.ok()) << second.status();
  auto during = mediator.GetThreshold(query, NoCacheOptions());
  ExpectSecondMove(second->get());
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(EncodePointsBinary(during->points),
            EncodePointsBinary(before->points));
}

// (h) In the window of (g), a streamed threshold query and a distributed
// friends-of-friends query hand shard 0's points on before shard 1 (the
// donor) answers. Both carry the old view to every shard, answer exactly
// as before the join, and return while the commit is still held.
TEST_F(ChaosTest,
       StreamedAndFofQueriesDuringACutoverAnswerUnderTheRoutedView) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();
  Mediator& mediator = (*db)->mediator();

  const ThresholdQuery query = VorticityQuery(4.0);
  auto before = mediator.GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_GT(before->points.size(), 0u);
  const ThresholdQuery fof_query = VorticityQuery(8.0);
  auto fof_before = FofClusters(mediator, fof_query);
  ASSERT_TRUE(fof_before.ok()) << fof_before.status();
  ASSERT_FALSE(fof_before->empty());

  auto second = HoldSecondCutover(mediator, **procs, /*hold_ms=*/1000);
  ASSERT_TRUE(second.ok()) << second.status();
  const uint64_t generation = mediator.generation();
  std::vector<ThresholdPoint> streamed;
  auto summary = mediator.GetThresholdStreaming(
      query, NoCacheOptions(), CallBudget{}, /*chunk_points=*/512,
      [&](std::vector<ThresholdPoint> points,
          uint64_t /*total_points*/) -> Result<uint64_t> {
        streamed.insert(streamed.end(), points.begin(), points.end());
        return uint64_t{0};
      });
  auto fof_during = FofClusters(mediator, fof_query);
  // Neither query waited for the commit.
  EXPECT_EQ(mediator.generation(), generation);
  ExpectSecondMove(second->get());

  ASSERT_TRUE(summary.ok()) << summary.status();
  std::sort(streamed.begin(), streamed.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  EXPECT_EQ(EncodePointsBinary(streamed), EncodePointsBinary(before->points));
  ASSERT_TRUE(fof_during.ok()) << fof_during.status();
  EXPECT_EQ(*fof_during, *fof_before);
}

// (i) The node cache is on. In the window of (g), the donor evaluates a
// query routed under the old view over the atoms it is giving up. That
// answer must not enter its cache, which holds answers for the
// ownership it runs now: a repeat after the commit, when the recipient
// answers for atoms 56-63, would otherwise get those points twice. The
// box [0,32)x[16,32)x[16,32) covers atoms 48-63, which the move splits.
TEST_F(ChaosTest, NodeCacheIgnoresAnswersRoutedBeforeACutover) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();
  Mediator& mediator = (*db)->mediator();

  ThresholdQuery query = VorticityQuery(4.0);
  query.box = Box3(0, 16, 16, 32, 32, 32);
  QueryOptions cached;
  cached.max_result_points = 10u << 20;
  ASSERT_TRUE(cached.use_cache);
  auto before = mediator.GetThreshold(query, cached);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_GT(before->points.size(), 0u);

  auto second = HoldSecondCutover(mediator, **procs, /*hold_ms=*/1000);
  ASSERT_TRUE(second.ok()) << second.status();
  auto during = mediator.GetThreshold(query, cached);
  ExpectSecondMove(second->get());
  auto after = mediator.GetThreshold(query, cached);

  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(EncodePointsBinary(during->points),
            EncodePointsBinary(before->points));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->points.size(), before->points.size());
  EXPECT_EQ(EncodePointsBinary(after->points),
            EncodePointsBinary(before->points));
}

// (j) The cluster grows while node 1 is neither the donor nor the
// recipient of the move (the donor is shard 0, see HoldSecondCutover),
// so nothing tells node 1 of the joined shard. A step ingested
// afterwards lies in the moved range on the joined shard only, and
// shard 1's halo needs some of it.
TEST_F(ChaosTest, BaseNodeReadsAJoinedShardItWasNeverToldOf) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1,
                            /*timesteps=*/2);
  ASSERT_TRUE(db.ok()) << db.status();
  Mediator& mediator = (*db)->mediator();

  auto joined = (*procs)->Join(mediator);
  ASSERT_TRUE(joined.ok()) << joined.status();
  net::RebalanceRequest rebalance;
  rebalance.to_shard = *joined;
  rebalance.max_ranges = 1;
  auto moved = mediator.Rebalance(rebalance);
  ASSERT_TRUE(moved.ok()) << moved.status();
  ASSERT_EQ(moved->moved.size(), 1u);
  // Node 1 took part in no cutover.
  EXPECT_EQ((*procs)->service(1).generation(), 0u);
  ASSERT_TRUE(testcluster::IngestMhdStep(db->get(), 1).ok());

  TurbDBConfig reference_config;
  reference_config.cluster.num_nodes = 1;
  reference_config.cluster.processes_per_node = 2;
  auto reference = TurbDB::Open(reference_config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(EnsureMhdDemoData(reference->get(), "mhd", kGrid,
                                /*timesteps=*/2, kSeed)
                  .ok());
  ThresholdQuery query = VorticityQuery(4.0);
  query.timestep = 1;
  auto expected = (*reference)->Threshold(query, NoCacheOptions());
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto actual = mediator.GetThreshold(query, NoCacheOptions());
  ASSERT_TRUE(actual.ok()) << actual.status();
  EXPECT_EQ(EncodePointsBinary(actual->points),
            EncodePointsBinary(expected->points));
}

// (k) Point samples go through the same scatter as every other query.
// Node 0 refuses every request at once while node 1 stalls its replies
// far past the 1.5 s budget. The query fails with node 0's error, and
// the mediator cancels node 1's sub-query instead of waiting it out. The
// cancel is sent without awaiting node 1's (stalled) reply, so the call
// returns once node 1's sub-query reaches the budget.
TEST_F(ChaosTest, SampleQueryCancelsTheRestAfterAHardShardFailure) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = OpenDistributed((*procs)->topology(), /*replication_factor=*/1);
  ASSERT_TRUE(db.ok()) << db.status();
  Mediator& mediator = (*db)->mediator();
  auto info = mediator.GetDataset("mhd");
  ASSERT_TRUE(info.ok()) << info.status();
  const GridGeometry& geometry = (*info)->geometry;

  // One target in shard 0's first atom, one in shard 1's last.
  SampleQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.timestep = 0;
  for (const double node : {2.3, static_cast<double>(kGrid) - 3.7}) {
    query.positions.push_back({geometry.Spacing(0) * node,
                               geometry.Spacing(1) * node,
                               geometry.Spacing(2) * node});
  }

  const std::string failing =
      InProcessNodeCluster::Scope(0) + "server.handler.error";
  fault::Arm(failing, fault::Action::kError,
             static_cast<uint64_t>(StatusCode::kInternal), /*count=*/1000);
  fault::Arm(InProcessNodeCluster::Scope(1) + "server.reply.delay",
             fault::Action::kDelay, /*arg=*/60000, /*count=*/1000);
  const uint64_t cancels_before = mediator.cancels_issued();

  CallBudget budget;
  const auto started = std::chrono::steady_clock::now();
  budget.deadline = started + std::chrono::milliseconds(1500);
  auto result = mediator.GetSamples(query, budget);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
  EXPECT_GE(fault::Fired(failing), 1u);
  EXPECT_GT(mediator.cancels_issued(), cancels_before);
  EXPECT_LT(elapsed, 2.0);
}

}  // namespace
}  // namespace turbdb
