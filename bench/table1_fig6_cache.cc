// Reproduces Table 1 / Figure 6: effectiveness of the application-aware
// cache. For vorticity thresholds at three levels (high/medium/low,
// chosen as the RMS multiples that reproduce the paper's result-set
// fractions), compares:
//   - "no cache":   the cache is bypassed entirely;
//   - "cache miss": entries for the queried time-step are dropped first,
//                   so the query pays lookup + raw evaluation + insert;
//   - "cache hit":  the same query again, served from the cache.
// Paper findings to reproduce: miss overhead < 3% of the no-cache time,
// and hits over an order of magnitude faster (97.1 / 100.2 / 0.5 s etc.).
//
// TCP mode: with TURBDB_TOPOLOGY="host:port" pointing at a running
// turbdb_server (the mediator endpoint), the same cold / warm / subsumed
// cycle runs over the wire with real wall-clock timing — cold pays node
// dispatch + kernel evaluation, warm is served from the mediator-tier
// result cache, subsumed (sub-box, higher threshold) from the same entry
// by containment. Results land in BENCH_cache.json (override the path
// with TURBDB_BENCH_JSON). TURBDB_BENCH_N must match the server's --n
// (default 64).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench_json.h"
#include "bench_util.h"
#include "cluster/topology.h"
#include "net/client.h"

namespace {

using namespace turbdb;
using namespace turbdb::bench;

double WallMs(const std::function<bool()>& call) {
  const auto start = std::chrono::steady_clock::now();
  if (!call()) return -1.0;
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// The cold / warm / subsumed measurement cycle against a live
/// turbdb_server, emitting BENCH_cache.json.
int RunOverTcp(const char* topology_spec) {
  auto topology = ParseTopology(topology_spec);
  if (!topology.ok() || topology->size() == 0) {
    std::fprintf(stderr, "bad TURBDB_TOPOLOGY: %s\n", topology_spec);
    return 1;
  }
  const NodeAddress& address = topology->nodes.front();
  // The server's demo grid defaults to --n 64; TURBDB_BENCH_N overrides.
  int64_t n = 64;
  if (const char* env = std::getenv("TURBDB_BENCH_N")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value >= 16) n = value;
  }
  PrintHeader("Mediator cache over TCP: cold / warm / subsumed");
  std::printf("server %s, grid %lld^3 (set TURBDB_BENCH_N to the server's "
              "--n)\n\n",
              address.ToString().c_str(), static_cast<long long>(n));

  net::Client client(address.host, address.port);
  if (!client.Call(net::PingRequest{}).ok()) {
    std::fprintf(stderr, "server %s unreachable\n",
                 address.ToString().c_str());
    return 3;
  }

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.timestep = 0;
  stats_query.box = Box3::WholeGrid(n, n, n);
  auto field_stats = client.FieldStats(stats_query);
  if (!field_stats.ok()) {
    std::fprintf(stderr,
                 "FieldStats failed (TURBDB_BENCH_N mismatch with the "
                 "server's --n?): %s\n",
                 field_stats.status().ToString().c_str());
    return 1;
  }
  const double rms = field_stats->rms;

  const struct {
    const char* label;
    double multiple;
  } kLevels[] = {{"high", 8.0}, {"medium", 6.0}, {"low", 4.4}};

  struct LevelRow {
    const char* label;
    double threshold = 0.0;
    size_t points = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    double subsumed_ms = 0.0;
  };
  LevelRow rows[3];

  std::printf("%-8s %9s %12s %12s %12s %9s %9s\n", "level", "points",
              "cold(ms)", "warm(ms)", "subsumed(ms)", "warm-x", "sub-x");
  for (int i = 0; i < 3; ++i) {
    ThresholdQuery query;
    query.dataset = "mhd";
    query.raw_field = "velocity";
    query.derived_field = "vorticity";
    query.timestep = 0;
    query.box = Box3::WholeGrid(n, n, n);
    query.threshold = kLevels[i].multiple * rms;

    // Cold: both cache tiers dropped first, so the query pays node
    // dispatch + raw reads + kernel evaluation.
    net::DropCacheRequest drop;
    drop.dataset = "mhd";
    drop.raw_field = "velocity";
    drop.derived_field = "vorticity";
    drop.timestep = -1;
    if (!client.Call(drop).ok()) {
      std::fprintf(stderr, "DropCache failed\n");
      return 1;
    }
    Result<ThresholdResult> last = Status::Internal("not run");
    auto run = [&](const ThresholdQuery& q) {
      return WallMs([&]() {
        last = client.Threshold(q);
        return last.ok();
      });
    };
    const double cold_ms = run(query);
    if (cold_ms < 0) {
      std::fprintf(stderr, "cold query failed: %s\n",
                   last.status().ToString().c_str());
      return 1;
    }
    const size_t points = last->points.size();

    // Warm: the identical query, now a mediator-cache hit (min of 3).
    double warm_ms = -1.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double ms = run(query);
      if (ms < 0) return 1;
      if (warm_ms < 0 || ms < warm_ms) warm_ms = ms;
    }

    // Subsumed: a sub-box at a higher threshold, answered from the same
    // whole-grid entry by containment.
    ThresholdQuery sub = query;
    sub.box = Box3(n / 8, n / 8, n / 8, 5 * n / 8, 5 * n / 8, 5 * n / 8);
    sub.threshold = query.threshold * 1.25;
    double subsumed_ms = -1.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double ms = run(sub);
      if (ms < 0) return 1;
      if (subsumed_ms < 0 || ms < subsumed_ms) subsumed_ms = ms;
    }

    rows[i] = {kLevels[i].label, query.threshold, points,
               cold_ms,          warm_ms,         subsumed_ms};
    std::printf("%-8s %9zu %12.2f %12.2f %12.2f %8.1fx %8.1fx\n",
                kLevels[i].label, points, cold_ms, warm_ms, subsumed_ms,
                cold_ms / warm_ms, cold_ms / subsumed_ms);
  }

  auto cache_reply = client.Call(net::CacheStatsRequest{});
  auto server_stats = client.Call(net::ServerStatsRequest{});
  if (!cache_reply.ok() || !server_stats.ok()) {
    std::fprintf(stderr, "stats RPC failed\n");
    return 1;
  }
  const MediatorCacheStats* cache_stats = &cache_reply->stats;
  if (cache_stats->hits == 0) {
    std::fprintf(stderr, "server reports no cache hits — is the mediator "
                         "cache enabled (--mediator-cache-mb)?\n");
    return 1;
  }
  std::printf("\ncache: %llu hits (%llu subsumed) / %llu misses, "
              "%llu entries, %llu bytes (governor in-use %llu)\n",
              static_cast<unsigned long long>(cache_stats->hits),
              static_cast<unsigned long long>(cache_stats->subsumption_hits),
              static_cast<unsigned long long>(cache_stats->misses),
              static_cast<unsigned long long>(cache_stats->entries),
              static_cast<unsigned long long>(cache_stats->bytes),
              static_cast<unsigned long long>(
                  server_stats->result_bytes_in_use));

  const char* json_path = std::getenv("TURBDB_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_cache.json";
  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json, "{\n");
  WriteProvenance(json, address.ToString());
  std::fprintf(json, "  \"mode\": \"tcp\",\n  \"server\": \"%s\",\n"
               "  \"grid_n\": %lld,\n  \"levels\": [\n",
               address.ToString().c_str(), static_cast<long long>(n));
  for (int i = 0; i < 3; ++i) {
    const LevelRow& row = rows[i];
    std::fprintf(
        json,
        "    {\"label\": \"%s\", \"threshold\": %.6f, \"points\": %zu, "
        "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"subsumed_ms\": %.3f, "
        "\"warm_speedup\": %.2f, \"subsumed_speedup\": %.2f}%s\n",
        row.label, row.threshold, row.points, row.cold_ms, row.warm_ms,
        row.subsumed_ms, row.cold_ms / row.warm_ms,
        row.cold_ms / row.subsumed_ms, i + 1 < 3 ? "," : "");
  }
  std::fprintf(
      json,
      "  ],\n  \"cache\": {\"hits\": %llu, \"subsumption_hits\": %llu, "
      "\"misses\": %llu, \"entries\": %llu, \"bytes\": %llu},\n"
      "  \"governor\": {\"result_bytes_in_use\": %llu, "
      "\"cache_bytes\": %llu}\n}\n",
      static_cast<unsigned long long>(cache_stats->hits),
      static_cast<unsigned long long>(cache_stats->subsumption_hits),
      static_cast<unsigned long long>(cache_stats->misses),
      static_cast<unsigned long long>(cache_stats->entries),
      static_cast<unsigned long long>(cache_stats->bytes),
      static_cast<unsigned long long>(server_stats->result_bytes_in_use),
      static_cast<unsigned long long>(server_stats->cache_bytes));
  std::fclose(json);
  std::printf("wrote %s\n", json_path);
  return 0;
}

}  // namespace

int main() {
  using namespace turbdb;
  using namespace turbdb::bench;

  // TCP mode: measure the live server instead of the in-process model.
  if (const char* topology = std::getenv("TURBDB_TOPOLOGY")) {
    return RunOverTcp(topology);
  }

  const int64_t n = BenchGridN();
  const double factor = PaperScaleFactor(n);
  PrintHeader("Table 1 / Figure 6: cache effectiveness (vorticity)");
  std::printf("grid %lld^3, 4 nodes x 4 processes; times are modeled "
              "seconds projected to the paper's 1024^3 scale (x%.0f)\n",
              static_cast<long long>(n), factor);

  auto db = MakeMhdBenchDb(4, 4, n, 1);
  if (!db) return 1;
  const ClusterConfig& config = db->mediator().config();
  const double rms =
      MeasureRms(db.get(), "mhd", "velocity", "vorticity", 0, n);

  // Warm the cache with unrelated queries so lookups scan a realistic
  // cacheInfo table (the paper pre-populates with several hundred
  // unrelated entries).
  for (double multiple : {5.0, 5.5, 6.5, 7.5}) {
    ThresholdQuery query;
    query.dataset = "mhd";
    query.raw_field = "magnetic";
    query.derived_field = "current";
    query.timestep = 0;
    query.box = Box3::WholeGrid(n, n, n);
    query.threshold = multiple * rms;
    (void)db->Threshold(query);
  }

  const struct {
    const char* label;
    double multiple;
    const char* paper;
  } kLevels[] = {
      {"high   (80.0)", 8.0, "97.1 / 100.2 /  0.5 s, 4247 pts"},
      {"medium (60.0)", 6.0, "113.7 / 115.9 /  1.2 s, 86580 pts"},
      {"low    (44.0)", 4.4, "111.6 / 115.0 /  9.1 s, 909274 pts"},
  };

  std::printf("\n%-15s %9s %12s %12s %12s %10s %9s\n", "threshold", "points",
              "no-cache(s)", "miss(s)", "hit(s)", "overhead%", "speedup");
  for (const auto& level : kLevels) {
    ThresholdQuery query;
    query.dataset = "mhd";
    query.raw_field = "velocity";
    query.derived_field = "vorticity";
    query.timestep = 0;
    query.box = Box3::WholeGrid(n, n, n);
    query.threshold = level.multiple * rms;

    constexpr int kReps = 3;
    double no_cache_s = 0.0;
    double miss_s = 0.0;
    double hit_s = 0.0;
    size_t points = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      QueryOptions no_cache;
      no_cache.use_cache = false;
      auto baseline = db->Threshold(query, no_cache);
      if (!baseline.ok()) {
        std::fprintf(stderr, "no-cache failed: %s\n",
                     baseline.status().ToString().c_str());
        return 1;
      }
      no_cache_s +=
          ProjectToPaperScale(*baseline, config, factor).Total();

      // Drop this time-step's entries to force a miss (paper Sec. 5.2).
      if (!db->DropCache("mhd", "velocity", "vorticity", 0).ok()) return 1;
      auto miss = db->Threshold(query);
      if (!miss.ok()) return 1;
      if (miss->all_cache_hits) {
        std::fprintf(stderr, "expected a cache miss\n");
        return 1;
      }
      miss_s += ProjectToPaperScale(*miss, config, factor).Total();

      auto hit = db->Threshold(query);
      if (!hit.ok()) return 1;
      if (!hit->all_cache_hits) {
        std::fprintf(stderr, "expected a cache hit\n");
        return 1;
      }
      hit_s += ProjectToPaperScale(*hit, config, factor).Total();
      points = hit->points.size();
    }
    no_cache_s /= kReps;
    miss_s /= kReps;
    hit_s /= kReps;
    std::printf("%-15s %9zu %12.1f %12.1f %12.2f %9.1f%% %8.1fx\n",
                level.label, points, no_cache_s, miss_s, hit_s,
                100.0 * (miss_s - no_cache_s) / no_cache_s,
                miss_s / hit_s);
    std::printf("%-15s paper: %s\n", "", level.paper);
  }
  std::printf("\nshape checks: miss overhead < 3%%; hit speedup > 10x.\n");
  return 0;
}
