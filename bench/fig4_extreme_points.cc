// Reproduces Figure 4 and the Sec. 4 sizing facts: the set of points
// with vorticity norms above 7x (and 8x) the RMS value in one time-step.
// Paper (1024^3 MHD): ~2.4e5 points above 7x RMS (~0.02% of the grid);
// values above 8x RMS are ~25% of the maximum and ~2.6e5 points fit a
// 1e6-point cap comfortably. The shape to reproduce: multiples of the
// RMS between 4x and 8x select sparse sets (1e-5..1e-3 of all points),
// and the maximum sits tens of RMS above the mean.

// TCP mode: with TURBDB_TOPOLOGY="host:port" pointing at a running
// turbdb_server, the same sweep runs over the wire (TURBDB_BENCH_N must
// match the server's --n, default 64) — the live-cluster smoke for the
// whole-grid threshold path.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "cluster/topology.h"
#include "net/client.h"

int main() {
  using namespace turbdb;
  using namespace turbdb::bench;

  std::unique_ptr<net::Client> client;
  int64_t n = BenchGridN();
  if (const char* topology_spec = std::getenv("TURBDB_TOPOLOGY")) {
    auto topology = ParseTopology(topology_spec);
    if (!topology.ok() || topology->size() == 0) {
      std::fprintf(stderr, "bad TURBDB_TOPOLOGY: %s\n", topology_spec);
      return 1;
    }
    const NodeAddress& address = topology->nodes.front();
    n = 64;  // turbdb_server's --n default; TURBDB_BENCH_N overrides.
    if (const char* env = std::getenv("TURBDB_BENCH_N")) {
      const long value = std::strtol(env, nullptr, 10);
      if (value >= 16) n = value;
    }
    client = std::make_unique<net::Client>(address.host, address.port);
    if (!client->Call(net::PingRequest{}).ok()) {
      std::fprintf(stderr, "server %s unreachable\n",
                   address.ToString().c_str());
      return 3;
    }
  }

  PrintHeader("Figure 4: points above multiples of the RMS vorticity");
  std::unique_ptr<TurbDB> db;
  if (client == nullptr) {
    db = MakeMhdBenchDb(4, 4, n, 1);
    if (!db) return 1;
  } else {
    std::printf("(over TCP, grid %lld^3)\n", static_cast<long long>(n));
  }

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.timestep = 0;
  stats_query.box = Box3::WholeGrid(n, n, n);
  auto stats = client != nullptr ? client->FieldStats(stats_query)
                                 : db->FieldStats(stats_query);
  if (!stats.ok()) {
    std::fprintf(stderr, "FieldStats failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("RMS = %.3f, max = %.3f (max/RMS = %.1f; paper: ~32)\n",
              stats->rms, stats->max, stats->max / stats->rms);

  const double total =
      static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);
  std::printf("\n%-12s %-12s %12s %12s %14s\n", "threshold", "(x RMS)",
              "points", "fraction", "paper fraction");
  const double paper_fraction[] = {8.47e-4, 8.1e-5, 2.3e-5, 4e-6};
  const double multiples[] = {4.4, 6.0, 7.0, 8.0};
  for (int i = 0; i < 4; ++i) {
    const double threshold = multiples[i] * stats->rms;
    ThresholdQuery query;
    query.dataset = "mhd";
    query.raw_field = "velocity";
    query.derived_field = "vorticity";
    query.timestep = 0;
    query.box = Box3::WholeGrid(n, n, n);
    query.threshold = threshold;
    QueryOptions options;
    options.use_cache = false;
    auto result = client != nullptr ? client->Threshold(query, options)
                                    : db->Threshold(query, options);
    if (!result.ok()) {
      std::fprintf(stderr, "threshold failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12.2f %-12.1f %12zu %12.3e %14.1e\n", threshold,
                multiples[i], result->points.size(),
                static_cast<double>(result->points.size()) / total,
                paper_fraction[i]);
  }
  std::printf("\n(paper fractions: 44.0->0.0847%%, 60.0->0.0081%%, "
              "7xRMS->2.4e5/1024^3, 80.0->0.0004%% of points)\n");
  return 0;
}
