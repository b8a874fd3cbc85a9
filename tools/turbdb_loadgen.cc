// turbdb_loadgen — multi-tenant open-loop load harness for a running
// turbdb_server.
//
// Drives a fixed-rate, mixed query workload (buffered threshold,
// streamed threshold, distributed FoF) from N named tenants over many
// concurrent connections, and reports per-tenant latency percentiles
// (p50/p99/p999), throughput and error/shed rates into BENCH_load.json.
//
// The generator is OPEN-LOOP: each tenant's k-th request is due at
// `start + k/rate` regardless of whether earlier requests have finished,
// so a slow or overloaded server faces a growing backlog instead of the
// coordinated-omission relief a closed-loop (request-after-reply) driver
// would grant it. Workers race to claim the next arrival slot with an
// atomic counter; a worker that claims a slot already in the past fires
// immediately (the lateness is the backlog, and the measured latency
// still starts at the *scheduled* arrival, so queueing delay is charged
// to the server — the standard HdrHistogram-style correction).
//
// Typical two-tenant fairness drill (one flooder, one nominal):
//   turbdb_loadgen --connect 127.0.0.1:7878 --tenant nominal=20
//     --tenant flooder=400 --connections 8 --duration-s 10
//
// Exit codes: 0 = ran clean (sheds are expected under overload and do
// NOT fail the run); 1 = protocol errors (corruption / version
// mismatch), no successful requests, or bad usage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_json.h"
#include "net/client.h"

using namespace turbdb;

namespace {

struct TenantSpec {
  std::string name;
  double rate = 0.0;  ///< Arrivals per second.
};

struct LoadgenOptions {
  std::string connect;
  std::vector<TenantSpec> tenants;
  int connections = 8;       ///< Concurrent connections per tenant.
  double duration_s = 10.0;  ///< Open-loop generation window.
  int64_t n = 64;            ///< Server demo-grid edge.
  int64_t box = 32;          ///< Threshold query sub-box edge.
  /// Workload mix in percent; the remainder (to 100) is FoF.
  int threshold_pct = 45;
  int streamed_pct = 45;
  double threshold_rms = 2.0;  ///< Threshold level, in measured RMS.
  double fof_rms = 3.5;        ///< FoF threshold level (smaller sets).
  double linking_length = 2.0;
  int64_t deadline_ms = 0;
  std::string json_path = "BENCH_load.json";
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: turbdb_loadgen --connect H:P --tenant NAME=RATE [...] "
      "[options]\n"
      "\n"
      "options:\n"
      "  --connect H:P        turbdb_server endpoint (required)\n"
      "  --tenant NAME=RATE   add a tenant issuing RATE requests/s\n"
      "                       (open-loop; repeatable, >= 1 required)\n"
      "  --connections N      concurrent connections per tenant\n"
      "                       (default 8)\n"
      "  --duration-s S       generation window in seconds (default 10)\n"
      "  --n N                server demo-grid edge (default 64)\n"
      "  --box B              threshold sub-box edge (default 32)\n"
      "  --mix T:S            workload mix in percent: T buffered\n"
      "                       threshold, S streamed threshold, the\n"
      "                       remainder FoF (default 45:45)\n"
      "  --threshold-rms X    threshold level in RMS units (default 2.0)\n"
      "  --fof-rms X          FoF threshold level in RMS units\n"
      "                       (default 3.5)\n"
      "  --linking-length L   FoF linking length (default 2.0)\n"
      "  --deadline-ms D      per-request deadline budget (default none)\n"
      "  --json PATH          result file (default BENCH_load.json)\n"
      "  --help               this message\n");
}

bool ParseArgs(int argc, char** argv, LoadgenOptions* options,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_str = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = "option " + arg + " requires a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    auto next_num = [&](double* out) {
      std::string spec;
      if (!next_str(&spec)) return false;
      char* end = nullptr;
      *out = std::strtod(spec.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        *error = "option " + arg + " expects a number, got '" + spec + "'";
        return false;
      }
      return true;
    };
    double value = 0.0;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
    } else if (arg == "--connect") {
      if (!next_str(&options->connect)) return false;
    } else if (arg == "--tenant") {
      std::string spec;
      if (!next_str(&spec)) return false;
      const size_t eq = spec.find('=');
      TenantSpec tenant;
      char* end = nullptr;
      if (eq != std::string::npos && eq != 0) {
        tenant.name = spec.substr(0, eq);
        tenant.rate = std::strtod(spec.c_str() + eq + 1, &end);
      }
      if (tenant.name.empty() || end == nullptr || *end != '\0' ||
          tenant.rate <= 0.0) {
        *error = "--tenant expects NAME=RATE with RATE > 0, got '" + spec +
                 "'";
        return false;
      }
      options->tenants.push_back(std::move(tenant));
    } else if (arg == "--connections") {
      if (!next_num(&value)) return false;
      options->connections = static_cast<int>(value);
      if (options->connections < 1) {
        *error = "--connections must be >= 1";
        return false;
      }
    } else if (arg == "--duration-s") {
      if (!next_num(&options->duration_s)) return false;
      if (options->duration_s <= 0.0) {
        *error = "--duration-s must be positive";
        return false;
      }
    } else if (arg == "--n") {
      if (!next_num(&value)) return false;
      options->n = static_cast<int64_t>(value);
    } else if (arg == "--box") {
      if (!next_num(&value)) return false;
      options->box = static_cast<int64_t>(value);
    } else if (arg == "--mix") {
      std::string spec;
      if (!next_str(&spec)) return false;
      const size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        *error = "--mix expects T:S percentages";
        return false;
      }
      options->threshold_pct =
          static_cast<int>(std::strtol(spec.c_str(), nullptr, 10));
      options->streamed_pct = static_cast<int>(
          std::strtol(spec.c_str() + colon + 1, nullptr, 10));
      if (options->threshold_pct < 0 || options->streamed_pct < 0 ||
          options->threshold_pct + options->streamed_pct > 100) {
        *error = "--mix percentages must be >= 0 and sum to <= 100";
        return false;
      }
    } else if (arg == "--threshold-rms") {
      if (!next_num(&options->threshold_rms)) return false;
    } else if (arg == "--fof-rms") {
      if (!next_num(&options->fof_rms)) return false;
    } else if (arg == "--linking-length") {
      if (!next_num(&options->linking_length)) return false;
    } else if (arg == "--deadline-ms") {
      if (!next_num(&value)) return false;
      options->deadline_ms = static_cast<int64_t>(value);
    } else if (arg == "--json") {
      if (!next_str(&options->json_path)) return false;
    } else {
      *error = "unknown option " + arg;
      return false;
    }
  }
  if (options->connect.empty()) {
    *error = "--connect is required";
    return false;
  }
  if (options->tenants.empty()) {
    *error = "at least one --tenant NAME=RATE is required";
    return false;
  }
  if (options->box > options->n) options->box = options->n;
  return true;
}

/// Per-tenant outcome tallies; latencies in ms from the *scheduled*
/// arrival time, so server-side queueing under overload is charged.
struct TenantResults {
  std::vector<double> latencies_ms;  ///< Successful requests only.
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t unreachable = 0;
  uint64_t protocol_errors = 0;    ///< Version mismatch / framing.
  uint64_t corruption_errors = 0;  ///< kCorruption served to a client.
  uint64_t other_errors = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// Cheap deterministic per-request hash (splitmix64 finalizer) for the
/// workload-mix draw and query-box placement.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int Run(const LoadgenOptions& options) {
  auto host_port = net::ParseHostPort(options.connect);
  if (!host_port.ok()) {
    std::fprintf(stderr, "turbdb_loadgen: %s\n",
                 host_port.status().ToString().c_str());
    return 1;
  }

  // One RMS probe up front (shared by every tenant) to turn the RMS
  // multiples into absolute thresholds.
  double rms = 0.0;
  {
    net::ClientOptions probe_options;
    net::Client probe(host_port->first, host_port->second, probe_options);
    FieldStatsQuery stats_query;
    stats_query.dataset = "mhd";
    stats_query.raw_field = "velocity";
    stats_query.derived_field = "vorticity";
    stats_query.timestep = 0;
    stats_query.box = Box3::WholeGrid(options.n, options.n, options.n);
    auto stats = probe.FieldStats(stats_query);
    if (!stats.ok()) {
      std::fprintf(stderr, "turbdb_loadgen: RMS probe failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    rms = stats->rms;
  }
  const double threshold = options.threshold_rms * rms;
  const double fof_threshold = options.fof_rms * rms;

  std::printf("loadgen: %zu tenant(s) x %d connection(s), %.1f s window, "
              "mix %d%% threshold / %d%% streamed / %d%% fof "
              "(|vorticity| >= %.4f, fof >= %.4f)\n",
              options.tenants.size(), options.connections,
              options.duration_s, options.threshold_pct,
              options.streamed_pct,
              100 - options.threshold_pct - options.streamed_pct, threshold,
              fof_threshold);

  const auto start = std::chrono::steady_clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.duration_s));

  std::vector<TenantResults> results(options.tenants.size());
  std::vector<std::mutex> result_mu(options.tenants.size());
  // Next open-loop arrival slot per tenant, raced by its workers.
  std::vector<std::atomic<uint64_t>> next_slot(options.tenants.size());
  // The first status of each failing bucket, printed after the run so a
  // failed drill names its cause.
  std::mutex failure_mu;
  std::map<std::string, std::string> first_failure;
  auto note_failure = [&](const char* bucket, const Status& status) {
    std::lock_guard<std::mutex> lock(failure_mu);
    first_failure.emplace(bucket, status.ToString());
  };

  std::vector<std::thread> workers;
  workers.reserve(options.tenants.size() *
                  static_cast<size_t>(options.connections));
  for (size_t t = 0; t < options.tenants.size(); ++t) {
    for (int c = 0; c < options.connections; ++c) {
      workers.emplace_back([&, t, c]() {
        const TenantSpec& spec = options.tenants[t];
        net::ClientOptions client_options;
        client_options.tenant = spec.name;
        // Sheds and typed errors must surface per-request, not burn the
        // whole window in backoff.
        client_options.max_retries = 0;
        if (options.deadline_ms > 0) {
          client_options.deadline_ms =
              static_cast<uint64_t>(options.deadline_ms);
          client_options.read_timeout_ms =
              static_cast<int>(options.deadline_ms + 2000);
        }
        net::Client client(host_port->first, host_port->second,
                           client_options);

        TenantResults local;
        const uint64_t tenant_salt = Mix64(t * 7919 + 17);
        while (true) {
          const uint64_t k = next_slot[t].fetch_add(1);
          const auto due =
              start +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      static_cast<double>(k) / spec.rate));
          if (due >= stop_at) break;
          const auto now = std::chrono::steady_clock::now();
          if (due > now) std::this_thread::sleep_until(due);

          const uint64_t draw = Mix64(k ^ tenant_salt);
          const int op = static_cast<int>(draw % 100);
          // Deterministic sub-box placement; boxes from distinct draws
          // dodge the mediator result cache often enough to keep the
          // server doing real work.
          const int64_t span = options.n - options.box;
          const int64_t ox = span > 0 ? static_cast<int64_t>(
                                            (draw >> 8) % (span + 1))
                                      : 0;
          const int64_t oy = span > 0 ? static_cast<int64_t>(
                                            (draw >> 24) % (span + 1))
                                      : 0;
          const int64_t oz = span > 0 ? static_cast<int64_t>(
                                            (draw >> 40) % (span + 1))
                                      : 0;

          ThresholdQuery query;
          query.dataset = "mhd";
          query.raw_field = "velocity";
          query.derived_field = "vorticity";
          query.timestep = 0;
          // Box3's hi bound is exclusive.
          query.box = Box3(ox, oy, oz, ox + options.box, oy + options.box,
                           oz + options.box);
          query.threshold = threshold;

          Status status = Status::OK();
          if (op < options.threshold_pct) {
            auto r = client.Threshold(query);
            status = r.status();
          } else if (op < options.threshold_pct + options.streamed_pct) {
            auto r = client.ThresholdStreamed(query);
            status = r.status();
          } else {
            net::FofRequest request;
            request.query = query;
            request.query.box =
                Box3::WholeGrid(options.n, options.n, options.n);
            request.query.threshold = fof_threshold;
            request.linking_length = options.linking_length;
            request.include_members = false;
            auto r = client.Fof(request);
            status = r.status();
          }
          const auto done = std::chrono::steady_clock::now();

          ++local.issued;
          if (status.ok()) {
            ++local.ok;
            // Latency from the scheduled arrival: backlog counts.
            local.latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(done - due)
                    .count());
          } else if (status.IsResourceExhausted()) {
            ++local.shed;
          } else if (status.IsDeadlineExceeded()) {
            ++local.deadline;
          } else if (status.IsUnreachable()) {
            ++local.unreachable;
            note_failure("unreachable", status);
          } else if (status.IsCorruption()) {
            // A corrupt atom reached a client read: replication-level
            // read-repair should have failed the query over to a clean
            // replica, so any count here is a self-healing gap.
            ++local.corruption_errors;
            note_failure("corruption", status);
          } else if (status.IsVersionMismatch()) {
            ++local.protocol_errors;
            note_failure("protocol", status);
          } else {
            ++local.other_errors;
            note_failure("other", status);
          }
        }

        std::lock_guard<std::mutex> lock(result_mu[t]);
        TenantResults& out = results[t];
        out.issued += local.issued;
        out.ok += local.ok;
        out.shed += local.shed;
        out.deadline += local.deadline;
        out.unreachable += local.unreachable;
        out.protocol_errors += local.protocol_errors;
        out.corruption_errors += local.corruption_errors;
        out.other_errors += local.other_errors;
        out.latencies_ms.insert(out.latencies_ms.end(),
                                local.latencies_ms.begin(),
                                local.latencies_ms.end());
        (void)c;
      });
    }
  }
  for (std::thread& worker : workers) worker.join();
  for (const auto& [bucket, message] : first_failure) {
    std::fprintf(stderr, "turbdb_loadgen: first %s error: %s\n",
                 bucket.c_str(), message.c_str());
  }
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

  // Per-tenant admission counters as the server saw them (best-effort;
  // mirrored into the JSON so the fairness drill is self-contained).
  std::vector<net::ServerStatsReply::TenantStats> server_tenants;
  {
    net::ClientOptions stats_options;
    net::Client stats_client(host_port->first, host_port->second,
                             stats_options);
    auto stats = stats_client.ServerStats();
    if (stats.ok()) server_tenants = std::move(stats->tenants);
  }

  FILE* json = std::fopen(options.json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "turbdb_loadgen: cannot write %s\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::WriteProvenance(json, options.connect);
  std::fprintf(json,
               "  \"duration_s\": %.3f,\n  \"connections_per_tenant\": %d,\n"
               "  \"mix\": {\"threshold_pct\": %d, \"streamed_pct\": %d, "
               "\"fof_pct\": %d},\n  \"tenants\": [\n",
               elapsed_s, options.connections, options.threshold_pct,
               options.streamed_pct,
               100 - options.threshold_pct - options.streamed_pct);

  uint64_t total_protocol_errors = 0;
  uint64_t total_corruption_errors = 0;
  uint64_t total_ok = 0;
  std::printf("\n%-16s %9s %9s %9s %9s %9s %9s %9s %9s\n", "tenant",
              "issued", "ok", "shed", "errors", "qps", "p50ms", "p99ms",
              "p999ms");
  for (size_t t = 0; t < options.tenants.size(); ++t) {
    TenantResults& r = results[t];
    std::sort(r.latencies_ms.begin(), r.latencies_ms.end());
    const double p50 = Percentile(r.latencies_ms, 0.50);
    const double p99 = Percentile(r.latencies_ms, 0.99);
    const double p999 = Percentile(r.latencies_ms, 0.999);
    const double qps = static_cast<double>(r.ok) / elapsed_s;
    const uint64_t errors = r.deadline + r.unreachable + r.protocol_errors +
                            r.corruption_errors + r.other_errors;
    const double shed_rate =
        r.issued > 0
            ? static_cast<double>(r.shed) / static_cast<double>(r.issued)
            : 0.0;
    total_protocol_errors += r.protocol_errors;
    total_corruption_errors += r.corruption_errors;
    total_ok += r.ok;
    std::printf("%-16s %9llu %9llu %9llu %9llu %9.1f %9.2f %9.2f %9.2f\n",
                options.tenants[t].name.c_str(),
                static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(errors), qps, p50, p99,
                p999);
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"target_rate\": %.1f, \"issued\": %llu, "
        "\"ok\": %llu, \"shed\": %llu, \"shed_rate\": %.4f, "
        "\"deadline\": %llu, \"unreachable\": %llu, "
        "\"protocol_errors\": %llu, \"other_errors\": %llu, "
        "\"throughput_qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"p999_ms\": %.3f, \"corruption_errors\": %llu}%s\n",
        options.tenants[t].name.c_str(), options.tenants[t].rate,
        static_cast<unsigned long long>(r.issued),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.shed), shed_rate,
        static_cast<unsigned long long>(r.deadline),
        static_cast<unsigned long long>(r.unreachable),
        static_cast<unsigned long long>(r.protocol_errors),
        static_cast<unsigned long long>(r.other_errors), qps, p50, p99,
        p999, static_cast<unsigned long long>(r.corruption_errors),
        t + 1 < options.tenants.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"server_tenants\": [");
  for (size_t i = 0; i < server_tenants.size(); ++i) {
    const auto& tenant = server_tenants[i];
    std::fprintf(json,
                 "%s\n    {\"name\": \"%s\", \"admitted\": %llu, "
                 "\"shed\": %llu, \"peak_in_flight\": %llu, \"cap\": %llu}",
                 i == 0 ? "" : ",", tenant.name.c_str(),
                 static_cast<unsigned long long>(tenant.admitted),
                 static_cast<unsigned long long>(tenant.shed),
                 static_cast<unsigned long long>(tenant.peak_in_flight),
                 static_cast<unsigned long long>(tenant.cap));
  }
  std::fprintf(json,
               "%s],\n  \"protocol_errors\": %llu,\n"
               "  \"corruption_errors\": %llu\n}\n",
               server_tenants.empty() ? "" : "\n  ",
               static_cast<unsigned long long>(total_protocol_errors),
               static_cast<unsigned long long>(total_corruption_errors));
  std::fclose(json);
  std::printf("\nwrote %s\n", options.json_path.c_str());

  if (total_protocol_errors > 0) {
    std::fprintf(stderr, "turbdb_loadgen: %llu protocol error(s)\n",
                 static_cast<unsigned long long>(total_protocol_errors));
    return 1;
  }
  if (total_corruption_errors > 0) {
    // Self-healing failed open: a rotted atom was served to a client
    // instead of failing over to a clean replica.
    std::fprintf(stderr, "turbdb_loadgen: %llu corruption error(s)\n",
                 static_cast<unsigned long long>(total_corruption_errors));
    return 1;
  }
  if (total_ok == 0) {
    std::fprintf(stderr, "turbdb_loadgen: no request succeeded\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "turbdb_loadgen: %s\n\n", error.c_str());
    PrintUsage();
    return 1;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }
  return Run(options);
}
