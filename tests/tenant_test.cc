// Multi-tenant fair admission, end to end: the governor's per-tenant
// ledger, the v5 wire plumbing that carries a tenant name in every
// request header (and the FoF message family introduced alongside it),
// and a live server drill proving a flooding tenant is shed while a
// nominal tenant keeps its slot — with the per-tenant counters visible
// in the server-stats reply.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace turbdb {
namespace {

// ---- Governor unit tests ------------------------------------------------

TEST(TenantGovernorTest, FlatPerTenantCapShedsWithinGlobalRoom) {
  ResourceGovernor governor(/*max_concurrent=*/8, /*max_bytes=*/0);
  governor.SetTenantPolicy(/*default_max_in_flight=*/2, {});

  ResourceGovernor::AdmitTicket a1, a2, a3, b1;
  EXPECT_TRUE(governor.TryAdmit("alice", &a1).ok());
  EXPECT_TRUE(governor.TryAdmit("alice", &a2).ok());
  // Alice is at her cap; the global budget (8) still has room, but she
  // is shed anyway.
  Status shed = governor.TryAdmit("alice", &a3);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // A different tenant is unaffected.
  EXPECT_TRUE(governor.TryAdmit("bob", &b1).ok());

  const auto stats = governor.tenant_stats();
  ASSERT_EQ(stats.size(), 2u);  // Sorted by name: alice, bob.
  EXPECT_EQ(stats[0].name, "alice");
  EXPECT_EQ(stats[0].in_flight, 2u);
  EXPECT_EQ(stats[0].admitted, 2u);
  EXPECT_EQ(stats[0].shed, 1u);
  EXPECT_EQ(stats[0].cap, 2u);
  EXPECT_EQ(stats[1].name, "bob");
  EXPECT_EQ(stats[1].admitted, 1u);
  EXPECT_EQ(stats[1].shed, 0u);

  // Releasing a slot readmits.
  a1.Release();
  EXPECT_TRUE(governor.TryAdmit("alice", &a3).ok());
}

TEST(TenantGovernorTest, WeightedSharesOfTheGlobalBudget) {
  ResourceGovernor governor(/*max_concurrent=*/10, /*max_bytes=*/0);
  governor.SetTenantPolicy(0, {{"gold", 3.0}, {"bronze", 1.0}});

  // gold: max(1, 10 * 3/4) = 7; bronze: max(1, 10 * 1/4) = 2.
  std::vector<ResourceGovernor::AdmitTicket> gold(8), bronze(3);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(governor.TryAdmit("gold", &gold[i]).ok()) << i;
  }
  EXPECT_FALSE(governor.TryAdmit("gold", &gold[7]).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(governor.TryAdmit("bronze", &bronze[i]).ok()) << i;
  }
  EXPECT_FALSE(governor.TryAdmit("bronze", &bronze[2]).ok());

  for (const auto& tenant : governor.tenant_stats()) {
    if (tenant.name == "gold") {
      EXPECT_EQ(tenant.cap, 7u);
    }
    if (tenant.name == "bronze") {
      EXPECT_EQ(tenant.cap, 2u);
    }
  }
}

TEST(TenantGovernorTest, EmptyTenantBillsTheDefaultBucketOncePolicySet) {
  ResourceGovernor governor(/*max_concurrent=*/4, /*max_bytes=*/0);
  // No policy: anonymous admission keeps zero per-tenant bookkeeping.
  ResourceGovernor::AdmitTicket anonymous;
  EXPECT_TRUE(governor.TryAdmit("", &anonymous).ok());
  EXPECT_TRUE(governor.tenant_stats().empty());
  anonymous.Release();

  governor.SetTenantPolicy(/*default_max_in_flight=*/1, {});
  ResourceGovernor::AdmitTicket d1, d2;
  EXPECT_TRUE(governor.TryAdmit("", &d1).ok());
  EXPECT_FALSE(governor.TryAdmit("", &d2).ok());
  const auto stats = governor.tenant_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "default");
  EXPECT_EQ(stats[0].admitted, 1u);
  EXPECT_EQ(stats[0].shed, 1u);
}

TEST(TenantGovernorTest, GlobalShedIsAttributedToTheTenant) {
  ResourceGovernor governor(/*max_concurrent=*/1, /*max_bytes=*/0);
  governor.SetTenantPolicy(/*default_max_in_flight=*/5, {});
  ResourceGovernor::AdmitTicket a, b;
  EXPECT_TRUE(governor.TryAdmit("alice", &a).ok());
  // Bob is under his own cap but the global budget is full; the shed
  // still lands on *his* counters.
  EXPECT_FALSE(governor.TryAdmit("bob", &b).ok());
  for (const auto& tenant : governor.tenant_stats()) {
    if (tenant.name == "bob") {
      EXPECT_EQ(tenant.admitted, 0u);
      EXPECT_EQ(tenant.shed, 1u);
    }
  }
}

// ---- Wire round-trips (v5: tenant header + FoF family) ------------------

TEST(TenantWireTest, FofRequestRoundTripsWithTenant) {
  net::FofRequest request;
  request.query.dataset = "mhd";
  request.query.raw_field = "velocity";
  request.query.derived_field = "vorticity";
  request.query.timestep = 3;
  request.query.box = Box3::WholeGrid(64, 64, 64);
  request.query.threshold = 4.25;
  request.query.fd_order = 6;
  request.options.use_cache = false;
  request.linking_length = 2.5;
  request.min_cluster_size = 7;
  request.include_members = true;
  // (deadline_ms rides in the frame header, not the payload, so it is
  // not part of this round trip.)
  request.rpc.query_id = 42;
  request.rpc.tenant = "simulation-lab";

  auto decoded = net::Decode<net::FofRequest>(net::Encode(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const net::FofRequest& round = *decoded;
  EXPECT_EQ(round.query.dataset, "mhd");
  EXPECT_EQ(round.query.derived_field, "vorticity");
  EXPECT_EQ(round.query.timestep, 3);
  EXPECT_DOUBLE_EQ(round.query.threshold, 4.25);
  EXPECT_FALSE(round.options.use_cache);
  EXPECT_DOUBLE_EQ(round.linking_length, 2.5);
  EXPECT_EQ(round.min_cluster_size, 7u);
  EXPECT_TRUE(round.include_members);
  EXPECT_EQ(round.rpc.query_id, 42u);
  EXPECT_EQ(round.rpc.tenant, "simulation-lab");
}

TEST(TenantWireTest, EveryRequestTypeCarriesTheTenant) {
  net::ThresholdRequest threshold;
  threshold.query.dataset = "mhd";
  threshold.query.raw_field = "velocity";
  threshold.query.box = Box3::WholeGrid(8, 8, 8);
  threshold.rpc.tenant = "team-a";
  auto decoded = net::Decode<net::ThresholdRequest>(net::Encode(threshold));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->rpc.tenant, "team-a");

  net::PdfRequest pdf;
  pdf.query.dataset = "mhd";
  pdf.query.raw_field = "velocity";
  pdf.query.box = Box3::WholeGrid(8, 8, 8);
  pdf.rpc.tenant = "team-b";
  auto decoded_pdf = net::Decode<net::PdfRequest>(net::Encode(pdf));
  ASSERT_TRUE(decoded_pdf.ok()) << decoded_pdf.status();
  EXPECT_EQ(decoded_pdf->rpc.tenant, "team-b");

  // An absent tenant stays absent (the pre-tenant behavior).
  net::ServerStatsRequest stats;
  auto decoded_stats =
      net::Decode<net::ServerStatsRequest>(net::Encode(stats));
  ASSERT_TRUE(decoded_stats.ok()) << decoded_stats.status();
  EXPECT_TRUE(decoded_stats->rpc.tenant.empty());
}

TEST(TenantWireTest, FofChunkAndResponseRoundTrip) {
  net::FofChunk chunk;
  chunk.seq = 2;
  chunk.total_clusters = 9;
  net::FofClusterRecord record;
  record.id = 123456;
  record.size = 3;
  record.bbox_lo = {1, 2, 3};
  record.bbox_hi = {10, 20, 30};
  record.centroid = {5.5, 10.25, 15.75};
  record.max_norm = 7.5f;
  record.peak_zindex = 123460;
  record.members = {MakeThresholdPoint(1, 2, 3, 1.0f),
                    MakeThresholdPoint(4, 5, 6, 7.5f),
                    MakeThresholdPoint(7, 8, 9, 2.0f)};
  chunk.clusters.push_back(record);
  net::FofClusterRecord bare;  // Summary-only row (no members).
  bare.id = 999;
  bare.size = 40;
  chunk.clusters.push_back(bare);

  auto decoded = net::Decode<net::FofChunk>(net::Encode(chunk));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->seq, 2u);
  EXPECT_EQ(decoded->total_clusters, 9u);
  ASSERT_EQ(decoded->clusters.size(), 2u);
  EXPECT_TRUE(decoded->clusters[0] == record);
  EXPECT_TRUE(decoded->clusters[1] == bare);

  DistributedFofSummary reply;
  reply.clusters = 9;
  reply.points = 1234;
  reply.largest_cluster = 777;
  reply.time.io_s = 0.25;
  reply.time.compute_s = 1.5;
  auto reply_decoded = net::Decode<DistributedFofSummary>(net::Encode(reply));
  ASSERT_TRUE(reply_decoded.ok()) << reply_decoded.status();
  EXPECT_EQ(reply_decoded->clusters, 9u);
  EXPECT_EQ(reply_decoded->points, 1234u);
  EXPECT_EQ(reply_decoded->largest_cluster, 777u);
  EXPECT_DOUBLE_EQ(reply_decoded->time.io_s, 0.25);
  EXPECT_DOUBLE_EQ(reply_decoded->time.compute_s, 1.5);
}

TEST(TenantWireTest, ServerStatsCarriesPerTenantCounters) {
  net::ServerStatsReply reply;
  reply.requests_ok = 10;
  net::ServerStatsReply::TenantStats tenant;
  tenant.name = "flooder";
  tenant.in_flight = 1;
  tenant.peak_in_flight = 4;
  tenant.admitted = 50;
  tenant.shed = 200;
  tenant.cap = 2;
  reply.tenants.push_back(tenant);
  tenant = {};
  tenant.name = "nominal";
  tenant.admitted = 30;
  reply.tenants.push_back(tenant);

  auto decoded = net::Decode<net::ServerStatsReply>(net::Encode(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->requests_ok, 10u);
  ASSERT_EQ(decoded->tenants.size(), 2u);
  EXPECT_EQ(decoded->tenants[0].name, "flooder");
  EXPECT_EQ(decoded->tenants[0].in_flight, 1u);
  EXPECT_EQ(decoded->tenants[0].peak_in_flight, 4u);
  EXPECT_EQ(decoded->tenants[0].admitted, 50u);
  EXPECT_EQ(decoded->tenants[0].shed, 200u);
  EXPECT_EQ(decoded->tenants[0].cap, 2u);
  EXPECT_EQ(decoded->tenants[1].name, "nominal");
  EXPECT_EQ(decoded->tenants[1].admitted, 30u);
}

// ---- Live-server fairness drill -----------------------------------------

TEST(TenantFairnessTest, FloodingTenantIsShedWhileNominalTenantIsServed) {
  // A parked handler holds each admitted request until released; caps:
  // 4 global slots, 1 per tenant. The flooder's first request occupies
  // its slot; its second is shed. The nominal tenant still gets in.
  std::atomic<int> entered{0};
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  net::Server::Handler handler =
      [&](const std::vector<uint8_t>&, const net::CallContext&) {
        ++entered;
        release.wait();
        return net::EncodeErrorResponse(Status::NotFound("drained"));
      };
  net::ServerOptions options;
  options.num_workers = 4;
  options.max_concurrent_queries = 4;
  options.per_tenant_max_queries = 1;
  auto server = net::Server::Start(handler, options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  FieldStatsQuery query;  // Decodable; the parked handler never reads it.
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.box = Box3::WholeGrid(8, 8, 8);

  net::ClientOptions flooder_options;
  flooder_options.tenant = "flooder";
  flooder_options.max_retries = 0;
  Status occupant_status;
  std::thread occupant([&] {
    net::Client client("127.0.0.1", port, flooder_options);
    occupant_status = client.FieldStats(query).status();
  });
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Second flooder request: shed by the per-tenant cap even though 3 of
  // the 4 global slots are free.
  net::Client flooder("127.0.0.1", port, flooder_options);
  auto shed = flooder.FieldStats(query);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status();
  EXPECT_EQ(entered.load(), 1);

  // The nominal tenant is admitted (its request parks in the handler).
  net::ClientOptions nominal_options;
  nominal_options.tenant = "nominal";
  nominal_options.max_retries = 0;
  Status nominal_status;
  std::thread nominal_runner([&] {
    net::Client client("127.0.0.1", port, nominal_options);
    nominal_status = client.FieldStats(query).status();
  });
  while (entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Per-tenant counters, over the wire, while both requests are parked.
  net::Client stats_client("127.0.0.1", port);
  auto stats = stats_client.Call(net::ServerStatsRequest{});
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->tenants.size(), 2u);  // Sorted: flooder, nominal.
  EXPECT_EQ(stats->tenants[0].name, "flooder");
  EXPECT_EQ(stats->tenants[0].in_flight, 1u);
  EXPECT_EQ(stats->tenants[0].admitted, 1u);
  EXPECT_EQ(stats->tenants[0].shed, 1u);
  EXPECT_EQ(stats->tenants[0].cap, 1u);
  EXPECT_EQ(stats->tenants[1].name, "nominal");
  EXPECT_EQ(stats->tenants[1].in_flight, 1u);
  EXPECT_EQ(stats->tenants[1].admitted, 1u);
  EXPECT_EQ(stats->tenants[1].shed, 0u);

  release_promise.set_value();
  occupant.join();
  nominal_runner.join();
  EXPECT_EQ(occupant_status.code(), StatusCode::kNotFound);
  EXPECT_EQ(nominal_status.code(), StatusCode::kNotFound);

  // After draining, nothing is left in flight.
  auto drained = stats_client.Call(net::ServerStatsRequest{});
  ASSERT_TRUE(drained.ok()) << drained.status();
  for (const auto& tenant : drained->tenants) {
    EXPECT_EQ(tenant.in_flight, 0u) << tenant.name;
  }
}

}  // namespace
}  // namespace turbdb
