// turbdb_server — TCP front end to the threshold-query engine.
//
// Builds (or reopens, with --storage-dir) an in-process cluster over the
// demo MHD dataset and serves the query RPCs (threshold, pdf, topk,
// stats) over the framed binary protocol of src/net/. Point turbdb_cli
// at it with --connect:
//
//   turbdb_server --port 7878 --n 64 --nodes 4 &
//   turbdb_cli --connect 127.0.0.1:7878 threshold vorticity 4.5rms
//
// SIGINT/SIGTERM drain in-flight requests and exit cleanly, printing the
// final request counters.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "cluster/service.h"
#include "cluster/topology.h"
#include "common/fault.h"
#include "core/turbdb.h"
#include "net/server.h"

using namespace turbdb;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

struct ServerCliOptions {
  std::string bind = "0.0.0.0";
  int port = 7878;
  int64_t n = 64;
  int nodes = 4;
  int processes = 4;
  int32_t timesteps = 2;
  uint64_t seed = 2015;
  int workers = 8;
  int max_frame_mb = 64;
  int64_t deadline_ms = 60000;
  std::string storage_dir;
  std::string topology;       ///< "host:port,host:port,..."
  std::string topology_file;  ///< One host:port per line.
  int replication_factor = 1;
  bool fsync_ingest = true;
  std::string faults;
  /// Admission control: queries beyond this many in flight are shed with
  /// kResourceExhausted (0 = unlimited).
  int64_t max_concurrent_queries = 0;
  /// Admission control: buffered reply bytes across all in-flight
  /// streamed queries, in MiB (0 = unlimited).
  int64_t result_budget_mb = 0;
  /// Points per streamed chunk frame.
  int64_t stream_chunk_points = 32768;
  /// Per-tenant fair admission: flat in-flight cap for tenants without an
  /// explicit weight (0 = tenants share only the global budget).
  int64_t per_tenant_max_queries = 0;
  /// Weighted tenant shares of the global concurrency budget.
  std::map<std::string, double> tenant_weights;
  /// Mediator-tier semantic result cache capacity in MiB (0 disables).
  int64_t mediator_cache_mb = 64;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: turbdb_server [options]\n"
      "\n"
      "Serves the demo MHD dataset over the turbdb binary TCP protocol.\n"
      "\n"
      "options:\n"
      "  --port P         listen port (default 7878; 0 = ephemeral)\n"
      "  --bind ADDR      bind address (default 0.0.0.0)\n"
      "  --n N            grid edge (default 64)\n"
      "  --nodes N        database nodes (default 4)\n"
      "  --procs N        processes per node (default 4)\n"
      "  --timesteps N    steps to ingest (default 2)\n"
      "  --seed S         generator seed (default 2015)\n"
      "  --workers N      connection-handling threads (default 8)\n"
      "  --max-frame-mb M largest accepted frame payload (default 64)\n"
      "  --deadline-ms D  default per-request budget (default 60000)\n"
      "  --storage-dir D  durable atom files (reopened across runs)\n"
      "  --topology T     comma-separated host:port list of turbdb_node\n"
      "                   processes; switches the mediator to remote\n"
      "                   scatter-gather (--nodes is then ignored)\n"
      "  --topology-file F  same, one host:port per line\n"
      "  --replication-factor R\n"
      "                   group consecutive topology entries into replica\n"
      "                   groups of R (default 1 = unreplicated)\n"
      "  --max-concurrent-queries N\n"
      "                   admission budget: queries beyond N in flight\n"
      "                   are shed fast with ResourceExhausted (exit 5\n"
      "                   at the CLI) instead of queueing (default 0 =\n"
      "                   unlimited)\n"
      "  --result-budget-mb M\n"
      "                   reply-memory budget: at most M MiB of encoded\n"
      "                   result buffered across all in-flight streamed\n"
      "                   queries; producers block (backpressure) at the\n"
      "                   cap (default 0 = unlimited)\n"
      "  --stream-chunk-points N\n"
      "                   points per streamed reply chunk (default 32768)\n"
      "  --per-tenant-max-queries N\n"
      "                   per-tenant fair admission: each tenant without\n"
      "                   an explicit weight may have at most N queries in\n"
      "                   flight; a tenant over its cap is shed while the\n"
      "                   others keep their slots (default 0 = tenants\n"
      "                   share only the global budget)\n"
      "  --tenant-weight NAME=W\n"
      "                   weighted tenant share (repeatable): NAME gets\n"
      "                   max(1, max-concurrent-queries * W / total W)\n"
      "                   in-flight slots\n"
      "  --mediator-cache-mb M\n"
      "                   mediator-tier semantic result cache: completed\n"
      "                   threshold results are kept at the mediator and\n"
      "                   repeat or subsumed queries answer with zero\n"
      "                   node RPCs (default 64; 0 disables the tier)\n"
      "  --no-fsync       skip the per-batch fsync of durable ingest\n"
      "  --faults SPEC    arm deterministic fault injection, e.g.\n"
      "                   server.reply.delay=delay:5000:1 (needs a build\n"
      "                   with -DTURBDB_FAULTS=ON; TURBDB_FAULTS env var\n"
      "                   works too)\n"
      "  --help           this message\n");
}

bool ParseArgs(int argc, char** argv, ServerCliOptions* options,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](int64_t* out) {
      if (i + 1 >= argc) {
        *error = "option " + arg + " requires a value";
        return false;
      }
      char* end = nullptr;
      *out = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        *error = "option " + arg + " expects a number, got '" +
                 std::string(argv[i]) + "'";
        return false;
      }
      return true;
    };
    int64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
    } else if (arg == "--port") {
      if (!next(&value)) return false;
      if (value < 0 || value > 65535) {
        *error = "port out of range";
        return false;
      }
      options->port = static_cast<int>(value);
    } else if (arg == "--bind") {
      if (i + 1 >= argc) {
        *error = "option --bind requires a value";
        return false;
      }
      options->bind = argv[++i];
    } else if (arg == "--n") {
      if (!next(&value)) return false;
      options->n = value;
    } else if (arg == "--nodes") {
      if (!next(&value)) return false;
      options->nodes = static_cast<int>(value);
    } else if (arg == "--procs") {
      if (!next(&value)) return false;
      options->processes = static_cast<int>(value);
    } else if (arg == "--timesteps") {
      if (!next(&value)) return false;
      options->timesteps = static_cast<int32_t>(value);
    } else if (arg == "--seed") {
      if (!next(&value)) return false;
      options->seed = static_cast<uint64_t>(value);
    } else if (arg == "--workers") {
      if (!next(&value)) return false;
      options->workers = static_cast<int>(value);
    } else if (arg == "--max-frame-mb") {
      if (!next(&value)) return false;
      if (value <= 0 || value > 1024) {
        *error = "--max-frame-mb out of range (1..1024)";
        return false;
      }
      options->max_frame_mb = static_cast<int>(value);
    } else if (arg == "--deadline-ms") {
      if (!next(&value)) return false;
      options->deadline_ms = value;
    } else if (arg == "--storage-dir") {
      if (i + 1 >= argc) {
        *error = "option --storage-dir requires a value";
        return false;
      }
      options->storage_dir = argv[++i];
    } else if (arg == "--topology") {
      if (i + 1 >= argc) {
        *error = "option --topology requires a value";
        return false;
      }
      options->topology = argv[++i];
    } else if (arg == "--topology-file") {
      if (i + 1 >= argc) {
        *error = "option --topology-file requires a value";
        return false;
      }
      options->topology_file = argv[++i];
    } else if (arg == "--replication-factor") {
      if (!next(&value)) return false;
      if (value < 1) {
        *error = "--replication-factor must be >= 1";
        return false;
      }
      options->replication_factor = static_cast<int>(value);
    } else if (arg == "--max-concurrent-queries") {
      if (!next(&value)) return false;
      if (value < 0) {
        *error = "--max-concurrent-queries must be non-negative";
        return false;
      }
      options->max_concurrent_queries = value;
    } else if (arg == "--result-budget-mb") {
      if (!next(&value)) return false;
      if (value < 0) {
        *error = "--result-budget-mb must be non-negative";
        return false;
      }
      options->result_budget_mb = value;
    } else if (arg == "--stream-chunk-points") {
      if (!next(&value)) return false;
      if (value <= 0) {
        *error = "--stream-chunk-points must be positive";
        return false;
      }
      options->stream_chunk_points = value;
    } else if (arg == "--per-tenant-max-queries") {
      if (!next(&value)) return false;
      if (value < 0) {
        *error = "--per-tenant-max-queries must be non-negative";
        return false;
      }
      options->per_tenant_max_queries = value;
    } else if (arg == "--tenant-weight") {
      if (i + 1 >= argc) {
        *error = "option --tenant-weight requires NAME=WEIGHT";
        return false;
      }
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      char* end = nullptr;
      const double weight =
          eq == std::string::npos ? 0.0 : std::strtod(spec.c_str() + eq + 1,
                                                      &end);
      if (eq == std::string::npos || eq == 0 || end == nullptr ||
          *end != '\0' || weight <= 0.0) {
        *error = "--tenant-weight expects NAME=WEIGHT with positive WEIGHT, "
                 "got '" + spec + "'";
        return false;
      }
      options->tenant_weights[spec.substr(0, eq)] = weight;
    } else if (arg == "--mediator-cache-mb") {
      if (!next(&value)) return false;
      if (value < 0) {
        *error = "--mediator-cache-mb must be non-negative";
        return false;
      }
      options->mediator_cache_mb = value;
    } else if (arg == "--no-fsync") {
      options->fsync_ingest = false;
    } else if (arg == "--faults") {
      if (i + 1 >= argc) {
        *error = "option --faults requires a value";
        return false;
      }
      options->faults = argv[++i];
    } else {
      *error = "unknown option " + arg;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerCliOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "turbdb_server: %s\n\n", error.c_str());
    PrintUsage();
    return 2;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }

  // A client that vanishes mid-reply must surface as a typed write error
  // on that one connection, not kill the whole process with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  Status fault_status = fault::InitFromEnv();
  if (fault_status.ok() && !options.faults.empty()) {
    fault_status = fault::Configure(options.faults);
  }
  if (!fault_status.ok()) {
    std::fprintf(stderr, "turbdb_server: bad fault spec: %s\n",
                 fault_status.ToString().c_str());
    return 2;
  }

  TurbDBConfig config;
  config.cluster.num_nodes = options.nodes;
  config.cluster.processes_per_node = options.processes;
  config.cluster.storage_dir = options.storage_dir;
  config.cluster.fsync_ingest = options.fsync_ingest;
  config.cluster.mediator_cache_bytes =
      static_cast<uint64_t>(options.mediator_cache_mb) << 20;
  if (!options.topology.empty() || !options.topology_file.empty()) {
    if (!options.topology.empty() && !options.topology_file.empty()) {
      std::fprintf(stderr,
                   "pass either --topology or --topology-file, not both\n");
      return 2;
    }
    auto topology_or = options.topology.empty()
                           ? LoadTopologyFile(options.topology_file)
                           : ParseTopology(options.topology);
    if (!topology_or.ok()) {
      std::fprintf(stderr, "bad topology: %s\n",
                   topology_or.status().ToString().c_str());
      return 2;
    }
    config.cluster.topology = std::move(topology_or).value();
    config.cluster.topology.replication_factor = options.replication_factor;
    std::fprintf(stderr,
                 "[distributed mediator over %zu nodes (replication %d): %s]\n",
                 config.cluster.topology.size(), options.replication_factor,
                 config.cluster.topology.ToString().c_str());
  }
  auto db_or = TurbDB::Open(config);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TurbDB> db = std::move(db_or).value();

  std::fprintf(stderr, "[preparing %lld^3 x %d steps ...]\n",
               static_cast<long long>(options.n), options.timesteps);
  Status status = EnsureMhdDemoData(db.get(), "mhd", options.n,
                                    options.timesteps, options.seed);
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
    return 1;
  }

  net::ServerOptions server_options;
  server_options.bind_address = options.bind;
  server_options.port = static_cast<uint16_t>(options.port);
  server_options.num_workers = options.workers;
  server_options.max_frame_bytes =
      static_cast<uint32_t>(options.max_frame_mb) << 20;
  server_options.default_deadline_ms =
      static_cast<uint64_t>(options.deadline_ms);
  server_options.max_concurrent_queries =
      static_cast<uint64_t>(options.max_concurrent_queries);
  server_options.result_budget_bytes =
      static_cast<uint64_t>(options.result_budget_mb) << 20;
  server_options.stream_chunk_points =
      static_cast<uint64_t>(options.stream_chunk_points);
  server_options.per_tenant_max_queries =
      static_cast<uint64_t>(options.per_tenant_max_queries);
  server_options.tenant_weights = options.tenant_weights;
  auto server_or = ServeMediator(&db->mediator(), server_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::Server> server = std::move(server_or).value();
  std::printf("turbdb_server listening on %s:%u\n", options.bind.c_str(),
              server->port());
  std::fflush(stdout);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::fprintf(stderr, "[shutting down ...]\n");
  server->Stop();
  const net::ServerStatsReply stats = server->stats();
  std::fprintf(stderr,
               "served %llu ok / %llu errors over %llu connections; "
               "%llu bytes in, %llu bytes out; p50 %.2f ms, p99 %.2f ms; "
               "%llu admitted, %llu shed, peak result bytes %llu\n",
               static_cast<unsigned long long>(stats.requests_ok),
               static_cast<unsigned long long>(stats.requests_error),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.bytes_in),
               static_cast<unsigned long long>(stats.bytes_out),
               stats.p50_latency_ms, stats.p99_latency_ms,
               static_cast<unsigned long long>(stats.queries_admitted),
               static_cast<unsigned long long>(stats.queries_shed),
               static_cast<unsigned long long>(stats.result_bytes_peak));
  std::fprintf(stderr,
               "mediator cache: %llu hits (%llu subsumed) / %llu misses, "
               "%llu evictions\n",
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_subsumption_hits),
               static_cast<unsigned long long>(stats.cache_misses),
               static_cast<unsigned long long>(stats.cache_evictions));
  return 0;
}
