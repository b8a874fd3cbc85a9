// Reads follow the membership view a query was routed under. A time-step
// ingested after a live range move lands only on the move's recipient
// (ingest routes by the view), so every read of it must go there too:
// the recipient evaluates its moved atoms from its own store, the other
// shards fetch their halo from it, and point samples inside the moved
// range are routed to it. A node dials the joined shard at the address
// the sub-query names, also after that shard moved to a new port. The
// node services run in this process over loopback TCP
// (in_process_cluster.h). A node also refuses a routed view whose
// overrides it could not look owners up in, and a halo fetch from a
// shard its peer list does not name.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/morton.h"
#include "cluster/node_service.h"
#include "cluster/partitioner.h"
#include "core/turbdb.h"
#include "datagen/turbulence.h"
#include "net/protocol.h"
#include "wire/serializer.h"

#include "in_process_cluster.h"

namespace turbdb {
namespace {

using testcluster::InProcessNodeCluster;
using testcluster::kGrid;
using testcluster::kSeed;

/// The node sub-query of a whole-grid vorticity threshold at `timestep`.
net::NodeExecuteRequest VorticitySubQuery(int32_t timestep) {
  net::NodeExecuteRequest request;
  net::NodeQuerySpec& spec = request.spec;
  spec.mode = static_cast<int32_t>(NodeQuery::Mode::kThreshold);
  spec.dataset = "mhd";
  spec.raw_field = "velocity";
  spec.derived_field = "vorticity";
  spec.timestep = timestep;
  spec.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  spec.fd_order = 4;
  spec.threshold = 4.0;
  spec.processes = 2;
  spec.options.use_cache = false;
  return request;
}

Result<NodeOutcome> Execute(NodeService& service,
                            const net::NodeExecuteRequest& request) {
  return net::DecodeNodeExecuteResponse(
      service.Handle(net::EncodeRequest(request), net::CallContext{}));
}

TEST(RoutedViewTest, StepIngestedAfterARangeMoveAnswersLikeOneNode) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = testcluster::OpenDistributed((*procs)->topology(),
                                         /*replication_factor=*/1,
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
  const RangeOverride range = moved->moved[0];
  ASSERT_TRUE(testcluster::IngestMhdStep(db->get(), 1).ok());

  TurbDBConfig reference_config;
  reference_config.cluster.num_nodes = 1;
  reference_config.cluster.processes_per_node = 2;
  auto reference = TurbDB::Open(reference_config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(EnsureMhdDemoData(reference->get(), "mhd", kGrid,
                                /*timesteps=*/2, kSeed)
                  .ok());

  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 1;
  query.box = Box3::WholeGrid(kGrid, kGrid, kGrid);
  query.threshold = 4.0;
  query.fd_order = 4;
  QueryOptions options;
  options.use_cache = false;
  auto expected = (*reference)->Threshold(query, options);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GT(expected->points.size(), 0u);
  auto actual = mediator.GetThreshold(query, options);
  ASSERT_TRUE(actual.ok()) << actual.status();
  EXPECT_EQ(EncodePointsBinary(actual->points),
            EncodePointsBinary(expected->points));
  uint64_t recipient_local_reads = 0;
  for (const NodeExecutionStats& stats : actual->node_stats) {
    if (stats.node_id == *joined) {
      recipient_local_reads += stats.io.atoms_read_local;
    }
  }
  EXPECT_GT(recipient_local_reads, 0u);

  // One sample inside each moved atom, off its grid nodes.
  auto info = mediator.GetDataset("mhd");
  ASSERT_TRUE(info.ok()) << info.status();
  const GridGeometry& geometry = (*info)->geometry;
  SampleQuery samples;
  samples.dataset = "mhd";
  samples.raw_field = "velocity";
  samples.timestep = 1;
  for (uint64_t code = range.begin; code < range.end; ++code) {
    uint32_t atom[3];
    MortonDecode3(code, &atom[0], &atom[1], &atom[2]);
    std::array<double, 3> position;
    for (int d = 0; d < 3; ++d) {
      position[d] = geometry.Spacing(d) *
                    (static_cast<double>(atom[d] * geometry.atom_width()) +
                     2.3 + 0.7 * d);
    }
    samples.positions.push_back(position);
  }
  auto sampled_reference = (*reference)->Sample(samples);
  ASSERT_TRUE(sampled_reference.ok()) << sampled_reference.status();
  auto sampled = mediator.GetSamples(samples);
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  ASSERT_EQ(sampled->values.size(), samples.positions.size());
  for (size_t i = 0; i < samples.positions.size(); ++i) {
    EXPECT_EQ(sampled->values[i], sampled_reference->values[i])
        << "sample " << i;
  }
}

// The overrides of a routed view arrive off the network, and ownership
// lookups binary-search them: a node refuses an empty range, an
// unsorted list and overlapping ranges before it evaluates anything.
TEST(RoutedViewTest, NodeRejectsMalformedRoutedOverrides) {
  NodeService service(NodeServiceConfig{});
  auto execute = [&](std::vector<RangeOverride> overrides) {
    net::NodeExecuteRequest request;
    request.spec.dataset = "mhd";
    request.rpc.generation = 2;
    request.overrides = std::move(overrides);
    return Execute(service, request).status();
  };
  EXPECT_EQ(execute({{8, 8, 1}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(execute({{16, 24, 1}, {8, 12, 2}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(execute({{8, 16, 1}, {12, 20, 2}}).code(),
            StatusCode::kInvalidArgument);
  // A well-formed list gets past the check to the dataset lookup.
  EXPECT_EQ(execute({{8, 12, 1}, {12, 20, 2}}).code(), StatusCode::kNotFound);
}

// A base shard's halo atoms are fetched from the peers the node was
// started with, and the shard count comes off the network with the
// dataset's registration. Node 0 here has no peer list at all and a
// dataset of two shards: fetching shard 1's halo is refused typed.
TEST(RoutedViewTest, HaloFromAShardBeyondThePeerListIsInvalidArgument) {
  NodeService service(NodeServiceConfig{});
  net::WireDatasetRegistration registration;
  registration.info = MakeMhdDataset("mhd", kGrid, /*timesteps=*/1);
  registration.num_nodes = 2;
  ASSERT_TRUE(service.RegisterDatasetSpec(registration).ok());
  auto partitioner =
      MortonPartitioner::Create(registration.info.geometry, /*num_nodes=*/2);
  ASSERT_TRUE(partitioner.ok()) << partitioner.status();
  SyntheticField generator(DefaultMhdSpec(kSeed),
                           registration.info.geometry, /*ncomp=*/3);
  net::NodeIngestRequest ingest;
  ingest.dataset = "mhd";
  ingest.field = "velocity";
  for (uint64_t code : partitioner->NodeAtoms(0)) {
    auto atom = generator.GenerateAtom(0, code);
    ASSERT_TRUE(atom.ok()) << atom.status();
    ingest.atoms.push_back(std::move(*atom));
  }
  ASSERT_TRUE(net::DecodeAckResponse(
                  service.Handle(net::EncodeRequest(ingest),
                                 net::CallContext{}),
                  net::MsgType::kNodeIngestResponse)
                  .ok());

  auto reply = Execute(service, VorticitySubQuery(/*timestep=*/0));
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument)
      << reply.status();
  EXPECT_NE(reply.status().message().find("no such shard 1"),
            std::string::npos)
      << reply.status();
}

// A joined shard is dialed at the address its record in the sub-query
// names. After a range of shard 0 moved to the joined shard and a step
// was ingested there, shard 1's halo needs it; when the joined node
// moves to a new port, a sub-query naming the old port fails and one
// naming the new port answers as before.
TEST(RoutedViewTest, HaloFetchDialsAJoinedShardAtTheAddressItsViewNames) {
  auto procs = InProcessNodeCluster::Launch(/*num_nodes=*/2,
                                            /*replication_factor=*/1);
  ASSERT_TRUE(procs.ok()) << procs.status();
  auto db = testcluster::OpenDistributed((*procs)->topology(),
                                         /*replication_factor=*/1,
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
  ASSERT_TRUE(testcluster::IngestMhdStep(db->get(), 1).ok());

  const MembershipView view = mediator.Membership();
  net::NodeExecuteRequest request = VorticitySubQuery(/*timestep=*/1);
  request.rpc.generation = view.generation;
  request.overrides = view.overrides;
  for (const NodeRecord& record : view.nodes) {
    if (record.shard == *joined) request.joined.push_back(record);
  }
  ASSERT_EQ(request.joined.size(), 1u);
  const uint16_t old_port = request.joined[0].port;
  NodeService& shard1 = (*procs)->service(1);
  auto first = Execute(shard1, request);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->points.size(), 0u);

  auto new_port = (*procs)->Rebind(request.joined[0].node_id);
  ASSERT_TRUE(new_port.ok()) << new_port.status();
  ASSERT_NE(*new_port, old_port);
  auto stale = Execute(shard1, request);
  EXPECT_EQ(stale.status().code(), StatusCode::kUnreachable)
      << stale.status();
  request.joined[0].port = *new_port;
  auto again = Execute(shard1, request);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(EncodePointsBinary(again->points),
            EncodePointsBinary(first->points));
}

}  // namespace
}  // namespace turbdb
