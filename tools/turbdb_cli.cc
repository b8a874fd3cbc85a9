// turbdb_cli — command-line front end to the threshold-query engine.
//
// By default builds (or reopens, with --storage-dir) an in-process
// cluster over a synthetic dataset and runs the service's query types
// from the shell. With --connect host:port the same commands run as RPCs
// against a turbdb_server instead.
//
// Examples:
//   turbdb_cli --n 64 --nodes 4 stats vorticity
//   turbdb_cli --n 64 threshold vorticity 4.5rms
//   turbdb_cli --n 64 threshold q_criterion 25.0 --timestep 1
//   turbdb_cli --n 64 pdf vorticity
//   turbdb_cli --n 64 topk current 10
//   turbdb_cli --n 64 --storage-dir /tmp/turbdb threshold vorticity 5rms
//   turbdb_cli --connect 127.0.0.1:7878 threshold vorticity 4.5rms
//   turbdb_cli --connect 127.0.0.1:7878 server-stats
//
// The first local run against a --storage-dir ingests and persists the
// data; later runs reopen it (and demonstrate the cache + durable
// stores).

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "core/turbdb.h"
#include "net/client.h"

using namespace turbdb;

namespace {

struct CliOptions {
  int64_t n = 64;
  int nodes = 4;
  int processes = 4;
  int32_t timesteps = 2;
  int32_t timestep = 0;
  /// True when --timestep was passed explicitly; the cache-control
  /// commands treat an unstated timestep as "all timesteps" (-1).
  bool timestep_set = false;
  uint64_t seed = 2015;
  int fd_order = 4;
  std::string storage_dir;
  std::string connect;   ///< host:port of a turbdb_server; empty = local.
  std::string topology;  ///< host:port list of turbdb_node processes.
  int replication_factor = 1;
  /// Per-query budget in ms (--connect only; 0 = the client default).
  /// Carried in every request frame; exhaustion exits 4.
  int64_t deadline_ms = 0;
  /// Threshold replies arrive chunked (--connect only).
  bool stream = false;
  /// Tenant name stamped into every request (--connect only); the server
  /// bills admission to this tenant's fairness bucket.
  std::string tenant;
  /// Machine-readable output (server-stats, cluster-status).
  bool json = false;
  /// FoF linking length in grid units (fof command).
  double linking_length = 2.0;
  /// Clusters smaller than this are dropped (fof command).
  int64_t min_cluster_size = 1;
  /// Ship each cluster's member points, not just the summary rows.
  bool members = false;
  /// Rebalance target shard (-1 = least-loaded) and move budget.
  int to_shard = -1;
  int64_t max_ranges = 1;
  bool help = false;
  std::string command;
  std::vector<std::string> args;
  /// The parsed <value> argument (see ParseValue): a threshold, scaled
  /// by the measured RMS when `value_rms`, or top-k's `k`.
  double value = 0.0;
  bool value_rms = false;
  uint64_t k = 0;
};

void PrintUsage() {
  std::printf(
      "usage: turbdb_cli [options] <command> [command args]\n"
      "\n"
      "commands:\n"
      "  stats <field>              mean/RMS/max of the field norm\n"
      "  threshold <field> <k>      locations with norm >= k; suffix 'rms'\n"
      "                             scales by the measured RMS (e.g. 4.5rms)\n"
      "  pdf <field>                histogram of the norm (RMS-wide bins)\n"
      "  topk <field> <k>           the k strongest locations\n"
      "  fof <field> <k>            friends-of-friends clusters of the\n"
      "                             threshold set (--connect only); see\n"
      "                             --linking-length, --min-cluster-size,\n"
      "                             --members\n"
      "  fields                     list available derived fields (local)\n"
      "  ping                       round-trip probe (--connect only)\n"
      "  server-stats               server request counters, governor and\n"
      "                             mediator-cache gauges (--connect only)\n"
      "  cluster-status             per-node id/epoch/health/role/atoms\n"
      "                             (--topology only)\n"
      "  scrub                      trigger a synchronous scrub pass on\n"
      "                             every node and report per-store\n"
      "                             verify/corrupt/repair counters and\n"
      "                             Merkle roots (--topology only)\n"
      "  drop-cache <field>         clear the mediator-tier result cache\n"
      "                             and every node-local cache for the\n"
      "                             field (all timesteps unless --timestep)\n"
      "  cache-stats                mediator cache counters (--connect only)\n"
      "  cache-warm <field> <k>     run the threshold query solely to\n"
      "                             populate the mediator cache\n"
      "                             (--connect only)\n"
      "  cache-pin <field>          exempt the field's cached entries from\n"
      "                             LRU eviction (--connect only)\n"
      "  cache-unpin <field>        undo cache-pin (--connect only)\n"
      "  membership                 the mediator's membership view: nodes,\n"
      "                             roles, range overrides, generation\n"
      "                             (--connect only)\n"
      "  decommission <node-id>     drain the node's shard (live range\n"
      "                             moves) and remove it from routing\n"
      "                             (--connect only)\n"
      "  rebalance                  plan and execute up to --max-ranges\n"
      "                             live range moves toward --to-shard or\n"
      "                             the least-loaded shard (--connect only)\n"
      "\n"
      "options:\n"
      "  --n N            grid edge / query-box size (default 64)\n"
      "  --nodes N        database nodes (default 4, local mode)\n"
      "  --procs N        processes per node (default 4, local mode)\n"
      "  --timesteps N    steps to ingest (default 2, local mode)\n"
      "  --timestep T     step to query (default 0)\n"
      "  --order P        finite-difference order 2/4/6/8 (default 4)\n"
      "  --seed S         generator seed (default 2015, local mode)\n"
      "  --storage-dir D  durable atom files (reopened across runs)\n"
      "  --connect H:P    run commands against a turbdb_server\n"
      "  --deadline-ms D  per-query time budget (--connect only); the\n"
      "                   remaining budget rides in every request frame\n"
      "                   and bounds retries, backoff and server work\n"
      "  --stream         threshold replies arrive as bounded chunk\n"
      "                   frames instead of one buffered response\n"
      "                   (--connect only); same points, bounded server\n"
      "                   memory\n"
      "  --tenant NAME    bill requests to this tenant's fairness bucket\n"
      "                   (--connect only); default is the shared\n"
      "                   \"default\" bucket\n"
      "  --json           machine-readable output with stable keys\n"
      "                   (server-stats, cluster-status)\n"
      "  --linking-length L\n"
      "                   FoF linking length in grid units (default 2.0);\n"
      "                   must not exceed the dataset's atom width\n"
      "  --min-cluster-size M\n"
      "                   drop FoF clusters smaller than M points\n"
      "                   (default 1)\n"
      "  --members        stream each FoF cluster's member points, not\n"
      "                   just its summary row\n"
      "  --topology T     comma-separated host:port list of turbdb_node\n"
      "                   processes (cluster-status)\n"
      "  --to-shard S     rebalance target shard (default -1 = the\n"
      "                   least-loaded active shard)\n"
      "  --max-ranges N   rebalance move budget (default 1)\n"
      "  --replication-factor R\n"
      "                   replica-group width of the topology (default 1)\n"
      "  --help           this message\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  query error (server answered with a typed failure)\n"
      "  2  usage error (bad flags or command arguments)\n"
      "  3  unreachable (transport retries exhausted, endpoint down)\n"
      "  4  deadline exceeded (the --deadline-ms budget ran out)\n"
      "  5  resource exhausted (server shed the query under overload;\n"
      "     safe to retry later)\n"
      "\n"
      "the dataset is MHD-like: raw fields 'velocity' and 'magnetic';\n"
      "derived fields include vorticity, current, q_criterion,\n"
      "r_invariant, magnitude, box_filter, divergence.\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options,
               std::string* error) {
  int i = 1;
  for (; i < argc; ++i) {
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
    auto next_str = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = "option " + arg + " requires a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    int64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
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
    } else if (arg == "--timestep") {
      if (!next(&value)) return false;
      options->timestep = static_cast<int32_t>(value);
      options->timestep_set = true;
    } else if (arg == "--order") {
      if (!next(&value)) return false;
      options->fd_order = static_cast<int>(value);
    } else if (arg == "--seed") {
      if (!next(&value)) return false;
      options->seed = static_cast<uint64_t>(value);
    } else if (arg == "--storage-dir") {
      if (!next_str(&options->storage_dir)) return false;
    } else if (arg == "--connect") {
      if (!next_str(&options->connect)) return false;
    } else if (arg == "--topology") {
      if (!next_str(&options->topology)) return false;
    } else if (arg == "--replication-factor") {
      if (!next(&value)) return false;
      if (value < 1) {
        *error = "--replication-factor must be >= 1";
        return false;
      }
      options->replication_factor = static_cast<int>(value);
    } else if (arg == "--stream") {
      options->stream = true;
    } else if (arg == "--tenant") {
      if (!next_str(&options->tenant)) return false;
    } else if (arg == "--json") {
      options->json = true;
    } else if (arg == "--linking-length") {
      std::string spec;
      if (!next_str(&spec)) return false;
      char* end = nullptr;
      options->linking_length = std::strtod(spec.c_str(), &end);
      if (end == nullptr || *end != '\0' || options->linking_length <= 0.0) {
        *error = "--linking-length expects a positive number, got '" + spec +
                 "'";
        return false;
      }
    } else if (arg == "--min-cluster-size") {
      if (!next(&value)) return false;
      if (value < 1) {
        *error = "--min-cluster-size must be >= 1";
        return false;
      }
      options->min_cluster_size = value;
    } else if (arg == "--members") {
      options->members = true;
    } else if (arg == "--to-shard") {
      if (!next(&value)) return false;
      options->to_shard = static_cast<int>(value);
    } else if (arg == "--max-ranges") {
      if (!next(&value)) return false;
      if (value < 1) {
        *error = "--max-ranges must be >= 1";
        return false;
      }
      options->max_ranges = value;
    } else if (arg == "--deadline-ms") {
      if (!next(&value)) return false;
      if (value < 0) {
        *error = "--deadline-ms must be non-negative";
        return false;
      }
      options->deadline_ms = value;
    } else if (arg.rfind("--", 0) == 0 || (arg.size() > 1 && arg[0] == '-')) {
      *error = "unknown option " + arg;
      return false;
    } else if (options->command.empty()) {
      options->command = arg;
    } else {
      // Keep scanning after the command so trailing flags work too
      // (`server-stats --json`, `fof vorticity 3rms --members`).
      options->args.push_back(arg);
    }
  }
  if (options->command.empty()) {
    *error = "missing command";
    return false;
  }
  return true;
}

/// Minimal JSON string escaping for the --json output modes (tenant
/// names and addresses are the only free-form strings we emit).
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The raw field a derived field is computed from on this dataset.
std::string RawFieldFor(const std::string& derived) {
  if (derived == "current") return "magnetic";
  return "velocity";
}

/// Parses the <value> argument `text` of `options->command` into
/// `options`: top-k takes a positive integer; threshold, fof and
/// cache-warm take a finite number, optionally followed by exactly
/// "rms" (a multiple of the measured RMS). Anything else is a usage
/// error, caught before any ingest or dial.
bool ParseValue(const std::string& text, CliOptions* options,
                std::string* error) {
  const std::string& cmd = options->command;
  errno = 0;
  if (cmd == "topk") {
    const bool digits = !text.empty() &&
                        text.find_first_not_of("0123456789") == std::string::npos;
    options->k = digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (options->k == 0 || errno == ERANGE) {
      *error = "topk: <k> must be a positive integer; got '" + text + "'";
      return false;
    }
    return true;
  }
  // strtod alone would skip leading blanks and accept "inf" and "nan".
  const bool leading_blank =
      !text.empty() && std::isspace(static_cast<unsigned char>(text[0]));
  char* end = nullptr;
  options->value = std::strtod(text.c_str(), &end);
  const std::string rest(end);
  options->value_rms = rest == "rms";
  if (leading_blank || end == text.c_str() ||
      !(rest.empty() || options->value_rms) ||
      !std::isfinite(options->value)) {
    *error = cmd + ": <value> must be a number, optionally followed by 'rms'; "
                   "got '" + text + "'";
    return false;
  }
  return true;
}

/// Reports a failed query and picks the exit code (see the table in
/// --help). A deadline failure exits 4 and restates the exhausted
/// budget; transport-retry exhaustion (the server, or one of its
/// database nodes, stayed unreachable through the client's retry
/// budget) exits 3 so scripts can tell a dead endpoint from a bad
/// query (1) or bad usage (2).
int ReportFailure(const Status& status, int64_t deadline_ms = 0) {
  if (status.IsDeadlineExceeded()) {
    if (deadline_ms > 0) {
      std::fprintf(stderr, "deadline exceeded (budget %lld ms): %s\n",
                   static_cast<long long>(deadline_ms),
                   status.ToString().c_str());
    } else {
      std::fprintf(stderr, "deadline exceeded: %s\n",
                   status.ToString().c_str());
    }
    return 4;
  }
  if (status.IsUnreachable()) {
    std::fprintf(stderr, "unreachable: %s\n", status.ToString().c_str());
    return 3;
  }
  if (status.IsResourceExhausted()) {
    // The server shed the query at admission rather than queueing it;
    // the overload is transient, so a later retry may well succeed.
    std::fprintf(stderr, "resource exhausted: %s\n",
                 status.ToString().c_str());
    return 5;
  }
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Uniform access to the query engine, local or remote; the command
/// implementations below do not care which.
struct Backend {
  std::function<Result<FieldStatsResult>(const FieldStatsQuery&)> stats;
  std::function<Result<ThresholdResult>(const ThresholdQuery&)> threshold;
  std::function<Result<PdfResult>(const PdfQuery&)> pdf;
  std::function<Result<TopKResult>(const TopKQuery&)> topk;
};

int RunCommand(const CliOptions& options, const Backend& backend) {
  const std::string derived = options.args.empty() ? "" : options.args[0];
  const std::string raw = RawFieldFor(derived);
  const Box3 whole = Box3::WholeGrid(options.n, options.n, options.n);

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = raw;
  stats_query.derived_field = derived;
  stats_query.timestep = options.timestep;
  stats_query.box = whole;
  stats_query.fd_order = options.fd_order;
  auto stats = backend.stats(stats_query);
  if (!stats.ok()) return ReportFailure(stats.status(), options.deadline_ms);

  if (options.command == "stats") {
    std::printf("%s of %s @ t=%d: mean %.4f  rms %.4f  max %.4f  "
                "(%llu points)\n",
                derived.c_str(), raw.c_str(), options.timestep, stats->mean,
                stats->rms, stats->max,
                static_cast<unsigned long long>(stats->count));
    return 0;
  }

  if (options.command == "pdf") {
    PdfQuery query;
    query.dataset = "mhd";
    query.raw_field = raw;
    query.derived_field = derived;
    query.timestep = options.timestep;
    query.box = whole;
    query.fd_order = options.fd_order;
    query.bin_width = stats->rms;
    query.num_bins = 9;
    auto pdf = backend.pdf(query);
    if (!pdf.ok()) return ReportFailure(pdf.status(), options.deadline_ms);
    for (size_t bin = 0; bin < pdf->counts.size(); ++bin) {
      std::printf("[%4.1f rms, %s)  %10llu\n", static_cast<double>(bin),
                  bin + 1 < pdf->counts.size()
                      ? (std::to_string(bin + 1) + " rms").c_str()
                      : "inf",
                  static_cast<unsigned long long>(pdf->counts[bin]));
    }
    return 0;
  }

  if (options.command == "topk") {
    TopKQuery query;
    query.dataset = "mhd";
    query.raw_field = raw;
    query.derived_field = derived;
    query.timestep = options.timestep;
    query.box = whole;
    query.fd_order = options.fd_order;
    query.k = options.k;
    auto result = backend.topk(query);
    if (!result.ok()) return ReportFailure(result.status(), options.deadline_ms);
    for (const ThresholdPoint& point : result->points) {
      uint32_t x, y, z;
      point.Coords(&x, &y, &z);
      std::printf("(%4u, %4u, %4u)  %.4f  (%.2f rms)\n", x, y, z, point.norm,
                  point.norm / stats->rms);
    }
    return 0;
  }

  // threshold
  const double threshold =
      options.value_rms ? options.value * stats->rms : options.value;
  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = raw;
  query.derived_field = derived;
  query.timestep = options.timestep;
  query.box = whole;
  query.threshold = threshold;
  query.fd_order = options.fd_order;
  auto result = backend.threshold(query);
  if (!result.ok()) return ReportFailure(result.status(), options.deadline_ms);
  std::printf("%zu points with |%s| >= %.4f (%.2f rms)  [cache %s]\n",
              result->points.size(), derived.c_str(), threshold,
              threshold / stats->rms,
              result->all_cache_hits ? "hit" : "miss");
  std::printf("modeled time: %s\n", result->time.ToString().c_str());
  const size_t shown = std::min<size_t>(10, result->points.size());
  for (size_t i = 0; i < shown; ++i) {
    uint32_t x, y, z;
    result->points[i].Coords(&x, &y, &z);
    std::printf("  (%4u, %4u, %4u)  %.4f\n", x, y, z,
                result->points[i].norm);
  }
  if (result->points.size() > shown) {
    std::printf("  ... %zu more\n", result->points.size() - shown);
  }
  return 0;
}

/// Argument validation per command, which also parses the <value>
/// argument into `options`; true if OK.
bool ValidateCommand(CliOptions* options, std::string* error) {
  const std::string& cmd = options->command;
  if (cmd == "fields" || cmd == "ping" || cmd == "server-stats" ||
      cmd == "cache-stats" || cmd == "membership" || cmd == "rebalance") {
    return true;
  }
  if (cmd == "decommission") {
    if (options->args.empty()) {
      *error = "decommission needs a node-id argument";
      return false;
    }
    return true;
  }
  if (cmd == "drop-cache" || cmd == "cache-pin" || cmd == "cache-unpin") {
    if (options->args.empty()) {
      *error = cmd + " needs a derived-field argument";
      return false;
    }
    return true;
  }
  if (cmd == "cluster-status" || cmd == "scrub") {
    if (options->topology.empty()) {
      *error = cmd + " needs --topology";
      return false;
    }
    return true;
  }
  if (cmd == "stats" || cmd == "pdf") {
    if (options->args.empty()) {
      *error = cmd + " needs a derived-field argument";
      return false;
    }
    return true;
  }
  if (cmd == "threshold" || cmd == "topk" || cmd == "fof" ||
      cmd == "cache-warm") {
    if (options->args.size() < 2) {
      *error = cmd + " needs <derived-field> and <value> arguments";
      return false;
    }
    return ParseValue(options->args[1], options, error);
  }
  *error = "unknown command '" + cmd + "'";
  return false;
}

/// Dials every turbdb_node in the topology directly and prints one row
/// per node: id, replica role, health, epoch and stored atom count.
int RunClusterStatus(const CliOptions& options) {
  auto topology_or = ParseTopology(options.topology);
  if (!topology_or.ok()) {
    std::fprintf(stderr, "bad topology: %s\n",
                 topology_or.status().ToString().c_str());
    return 2;
  }
  ClusterTopology topology = std::move(topology_or).value();
  const int replication = options.replication_factor;
  if (topology.size() % static_cast<size_t>(replication) != 0) {
    std::fprintf(stderr,
                 "topology of %zu nodes does not divide by replication "
                 "factor %d\n",
                 topology.size(), replication);
    return 2;
  }
  if (!options.json) {
    std::printf("%-4s %-21s %-6s %-8s %-6s %-12s %-10s %-8s %-6s %s\n",
                "node", "address", "shard", "role", "state", "epoch", "atoms",
                "gen", "quar", "wal-lag");
  }
  int down = 0;
  std::string json_rows;
  for (size_t i = 0; i < topology.size(); ++i) {
    const NodeAddress& address = topology.nodes[i];
    const int shard = static_cast<int>(i) / replication;
    const char* role =
        (static_cast<int>(i) % replication == 0) ? "primary" : "replica";
    net::ClientOptions client_options;
    client_options.connect_timeout_ms = 2000;
    client_options.read_timeout_ms = 5000;
    client_options.max_retries = 0;
    net::Client client(address.host, address.port, client_options);
    auto hello = client.Call(net::HelloRequest{});
    uint64_t epoch = 0;
    uint64_t atoms = 0;
    uint64_t generation = 0;
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t scrub_passes = 0;
    uint64_t scrub_corrupt = 0;
    uint64_t scrub_repaired = 0;
    uint64_t quarantined = 0;
    const bool up = hello.ok();
    if (!up) {
      ++down;
    } else {
      epoch = hello->epoch;
      auto stores = client.Call(net::NodeListStoresRequest{});
      if (stores.ok()) {
        for (const StoreListing& store : stores->stores) atoms += store.atoms;
      }
      // Empty names: the node-wide row.
      auto node_stats = client.Call(net::NodeStatsRequest{});
      if (node_stats.ok()) {
        generation = node_stats->generation;
        wal_records = node_stats->wal_pending_records;
        wal_bytes = node_stats->wal_pending_bytes;
        scrub_passes = node_stats->scrub_passes;
        scrub_corrupt = node_stats->scrub_atoms_corrupt;
        scrub_repaired = node_stats->scrub_atoms_repaired;
        quarantined = node_stats->atoms_quarantined;
      }
    }
    if (options.json) {
      // Stable keys (append-only): node, address, shard, role, state,
      // epoch, atoms, generation, wal_pending_records, wal_pending_bytes,
      // scrub_passes, scrub_atoms_corrupt, scrub_atoms_repaired,
      // atoms_quarantined.
      char row[512];
      std::snprintf(row, sizeof(row),
                    "%s\n    {\"node\": %zu, \"address\": \"%s\", "
                    "\"shard\": %d, \"role\": \"%s\", \"state\": \"%s\", "
                    "\"epoch\": %llu, \"atoms\": %llu, "
                    "\"generation\": %llu, \"wal_pending_records\": %llu, "
                    "\"wal_pending_bytes\": %llu, \"scrub_passes\": %llu, "
                    "\"scrub_atoms_corrupt\": %llu, "
                    "\"scrub_atoms_repaired\": %llu, "
                    "\"atoms_quarantined\": %llu}",
                    json_rows.empty() ? "" : ",", i,
                    JsonEscape(address.ToString()).c_str(), shard, role,
                    up ? "up" : "down",
                    static_cast<unsigned long long>(epoch),
                    static_cast<unsigned long long>(atoms),
                    static_cast<unsigned long long>(generation),
                    static_cast<unsigned long long>(wal_records),
                    static_cast<unsigned long long>(wal_bytes),
                    static_cast<unsigned long long>(scrub_passes),
                    static_cast<unsigned long long>(scrub_corrupt),
                    static_cast<unsigned long long>(scrub_repaired),
                    static_cast<unsigned long long>(quarantined));
      json_rows += row;
    } else if (!up) {
      std::printf("%-4zu %-21s %-6d %-8s %-6s %-12s %-10s %-8s %-6s %s\n", i,
                  address.ToString().c_str(), shard, role, "down", "-", "-",
                  "-", "-", "-");
    } else {
      char wal_lag[48];
      std::snprintf(wal_lag, sizeof(wal_lag), "%llu rec/%llu B",
                    static_cast<unsigned long long>(wal_records),
                    static_cast<unsigned long long>(wal_bytes));
      std::printf(
          "%-4zu %-21s %-6d %-8s %-6s %-12llu %-10llu %-8llu %-6llu %s\n", i,
          address.ToString().c_str(), shard, role, "up",
          static_cast<unsigned long long>(epoch),
          static_cast<unsigned long long>(atoms),
          static_cast<unsigned long long>(generation),
          static_cast<unsigned long long>(quarantined), wal_lag);
    }
  }
  if (options.json) {
    std::printf(
        "{\n  \"replication_factor\": %d,\n  \"nodes_down\": %d,\n"
        "  \"nodes\": [%s%s]\n}\n",
        replication, down, json_rows.c_str(), json_rows.empty() ? "" : "\n  ");
  }
  return down == 0 ? 0 : 3;
}

/// Dials every turbdb_node in the topology, triggers a synchronous scrub
/// pass on each, and reports the per-store verify/corrupt/repair
/// counters and Merkle roots. Exit 3 if any node is unreachable.
int RunScrub(const CliOptions& options) {
  auto topology_or = ParseTopology(options.topology);
  if (!topology_or.ok()) {
    std::fprintf(stderr, "bad topology: %s\n",
                 topology_or.status().ToString().c_str());
    return 2;
  }
  ClusterTopology topology = std::move(topology_or).value();
  int down = 0;
  std::string json_rows;
  if (!options.json) {
    std::printf("%-4s %-24s %-10s %-9s %-9s %-6s %s\n", "node",
                "store", "verified", "corrupt", "repaired", "quar",
                "merkle-root");
  }
  for (size_t i = 0; i < topology.size(); ++i) {
    const NodeAddress& address = topology.nodes[i];
    net::ClientOptions client_options;
    client_options.connect_timeout_ms = 2000;
    // A scrub pass reads every stored byte; give it a generous window.
    client_options.read_timeout_ms = 120000;
    client_options.deadline_ms = 120000;
    client_options.max_retries = 0;
    net::Client client(address.host, address.port, client_options);
    net::NodeScrubRequest request;
    request.trigger = true;
    auto reply = client.Call(request);
    if (!reply.ok()) {
      ++down;
      if (options.json) {
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s\n    {\"node\": %zu, \"address\": \"%s\", "
                      "\"state\": \"down\", \"stores\": []}",
                      json_rows.empty() ? "" : ",", i,
                      JsonEscape(address.ToString()).c_str());
        json_rows += row;
      } else {
        std::printf("%-4zu %-24s %s\n", i, "(down)",
                    reply.status().ToString().c_str());
      }
      continue;
    }
    if (options.json) {
      // Stable keys (append-only): node, address, state, passes,
      // atoms_verified, atoms_corrupt, atoms_repaired, last_pass_unix_ms,
      // stores[{dataset,field,atoms_verified,atoms_corrupt,atoms_repaired,
      // atoms_quarantined,bytes_verified,passes,merkle_root}].
      char head[384];
      std::snprintf(head, sizeof(head),
                    "%s\n    {\"node\": %zu, \"address\": \"%s\", "
                    "\"state\": \"up\", \"passes\": %llu, "
                    "\"atoms_verified\": %llu, \"atoms_corrupt\": %llu, "
                    "\"atoms_repaired\": %llu, \"last_pass_unix_ms\": %llu, "
                    "\"stores\": [",
                    json_rows.empty() ? "" : ",", i,
                    JsonEscape(address.ToString()).c_str(),
                    static_cast<unsigned long long>(reply->passes),
                    static_cast<unsigned long long>(reply->atoms_verified),
                    static_cast<unsigned long long>(reply->atoms_corrupt),
                    static_cast<unsigned long long>(reply->atoms_repaired),
                    static_cast<unsigned long long>(reply->last_pass_unix_ms));
      json_rows += head;
      for (size_t s = 0; s < reply->stores.size(); ++s) {
        const Scrubber::StoreStats& store = reply->stores[s];
        char row[512];
        std::snprintf(
            row, sizeof(row),
            "%s\n      {\"dataset\": \"%s\", \"field\": \"%s\", "
            "\"atoms_verified\": %llu, \"atoms_corrupt\": %llu, "
            "\"atoms_repaired\": %llu, \"atoms_quarantined\": %llu, "
            "\"bytes_verified\": %llu, \"passes\": %llu, "
            "\"merkle_root\": %llu}",
            s == 0 ? "" : ",", JsonEscape(store.dataset).c_str(),
            JsonEscape(store.field).c_str(),
            static_cast<unsigned long long>(store.atoms_verified),
            static_cast<unsigned long long>(store.atoms_corrupt),
            static_cast<unsigned long long>(store.atoms_repaired),
            static_cast<unsigned long long>(store.atoms_quarantined),
            static_cast<unsigned long long>(store.bytes_verified),
            static_cast<unsigned long long>(store.passes),
            static_cast<unsigned long long>(store.merkle_root));
        json_rows += row;
      }
      json_rows += reply->stores.empty() ? "]}" : "\n    ]}";
    } else {
      for (const Scrubber::StoreStats& store : reply->stores) {
        const std::string name = store.dataset + "/" + store.field;
        std::printf("%-4zu %-24s %-10llu %-9llu %-9llu %-6llu %016llx\n", i,
                    name.c_str(),
                    static_cast<unsigned long long>(store.atoms_verified),
                    static_cast<unsigned long long>(store.atoms_corrupt),
                    static_cast<unsigned long long>(store.atoms_repaired),
                    static_cast<unsigned long long>(store.atoms_quarantined),
                    static_cast<unsigned long long>(store.merkle_root));
      }
      if (reply->stores.empty()) {
        std::printf("%-4zu %-24s (no stores)\n", i, "-");
      }
    }
  }
  if (options.json) {
    std::printf("{\n  \"nodes_down\": %d,\n  \"nodes\": [%s%s]\n}\n", down,
                json_rows.c_str(), json_rows.empty() ? "" : "\n  ");
  }
  return down == 0 ? 0 : 3;
}

/// The threshold the <value> argument names for `derived`: the number
/// itself, or the number times the field's RMS, which one FieldStats RPC
/// measures (`rms` receives it; it stays 0 otherwise).
Result<double> ThresholdOverRpc(net::Client& client, const CliOptions& options,
                                const std::string& derived, double* rms) {
  if (!options.value_rms) return options.value;
  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = RawFieldFor(derived);
  stats_query.derived_field = derived;
  stats_query.timestep = options.timestep;
  stats_query.box = Box3::WholeGrid(options.n, options.n, options.n);
  stats_query.fd_order = options.fd_order;
  TURBDB_ASSIGN_OR_RETURN(FieldStatsResult stats,
                          client.FieldStats(stats_query));
  *rms = stats.rms;
  return options.value * stats.rms;
}

int RunRemote(const CliOptions& options) {
  auto host_port = net::ParseHostPort(options.connect);
  if (!host_port.ok()) {
    std::fprintf(stderr, "turbdb_cli: %s\n",
                 host_port.status().ToString().c_str());
    return 2;
  }
  net::ClientOptions client_options;
  client_options.tenant = options.tenant;
  if (options.deadline_ms > 0) {
    client_options.deadline_ms = static_cast<uint64_t>(options.deadline_ms);
    // Let the response frame outlive the budget, so exhaustion surfaces
    // as the typed deadline error rather than a read timeout.
    client_options.read_timeout_ms =
        static_cast<int>(options.deadline_ms + 2000);
  }
  net::Client client(host_port->first, host_port->second, client_options);

  if (options.command == "fields") {
    std::fprintf(stderr,
                 "turbdb_cli: 'fields' is not available over --connect\n");
    return 2;
  }
  if (options.command == "ping") {
    Status status = client.Call(net::PingRequest{}).status();
    if (!status.ok()) return ReportFailure(status, options.deadline_ms);
    std::printf("pong from %s:%u\n", client.host().c_str(), client.port());
    return 0;
  }
  if (options.command == "server-stats") {
    auto stats = client.Call(net::ServerStatsRequest{});
    if (!stats.ok()) return ReportFailure(stats.status(), options.deadline_ms);
    if (options.json) {
      // Stable keys: scripts (tools/check.sh, the load harness) parse
      // this, so keys are append-only — never renamed or removed.
      std::printf("{\n");
      std::printf("  \"requests_ok\": %llu,\n",
                  static_cast<unsigned long long>(stats->requests_ok));
      std::printf("  \"requests_error\": %llu,\n",
                  static_cast<unsigned long long>(stats->requests_error));
      std::printf("  \"bytes_in\": %llu,\n",
                  static_cast<unsigned long long>(stats->bytes_in));
      std::printf("  \"bytes_out\": %llu,\n",
                  static_cast<unsigned long long>(stats->bytes_out));
      std::printf("  \"connections_accepted\": %llu,\n",
                  static_cast<unsigned long long>(stats->connections_accepted));
      std::printf("  \"active_connections\": %llu,\n",
                  static_cast<unsigned long long>(stats->active_connections));
      std::printf("  \"p50_latency_ms\": %.3f,\n", stats->p50_latency_ms);
      std::printf("  \"p99_latency_ms\": %.3f,\n", stats->p99_latency_ms);
      std::printf("  \"queries_in_flight\": %llu,\n",
                  static_cast<unsigned long long>(stats->queries_in_flight));
      std::printf("  \"queries_admitted\": %llu,\n",
                  static_cast<unsigned long long>(stats->queries_admitted));
      std::printf("  \"queries_shed\": %llu,\n",
                  static_cast<unsigned long long>(stats->queries_shed));
      std::printf("  \"result_bytes_in_use\": %llu,\n",
                  static_cast<unsigned long long>(stats->result_bytes_in_use));
      std::printf("  \"result_bytes_peak\": %llu,\n",
                  static_cast<unsigned long long>(stats->result_bytes_peak));
      std::printf("  \"cache_hits\": %llu,\n",
                  static_cast<unsigned long long>(stats->cache_hits));
      std::printf("  \"cache_misses\": %llu,\n",
                  static_cast<unsigned long long>(stats->cache_misses));
      std::printf(
          "  \"cache_subsumption_hits\": %llu,\n",
          static_cast<unsigned long long>(stats->cache_subsumption_hits));
      std::printf("  \"cache_evictions\": %llu,\n",
                  static_cast<unsigned long long>(stats->cache_evictions));
      std::printf("  \"cache_entries\": %llu,\n",
                  static_cast<unsigned long long>(stats->cache_entries));
      std::printf("  \"cache_bytes\": %llu,\n",
                  static_cast<unsigned long long>(stats->cache_bytes));
      std::printf("  \"cache_pinned_bytes\": %llu,\n",
                  static_cast<unsigned long long>(stats->cache_pinned_bytes));
      std::printf("  \"tenants\": [");
      for (size_t i = 0; i < stats->tenants.size(); ++i) {
        const auto& tenant = stats->tenants[i];
        std::printf(
            "%s\n    {\"name\": \"%s\", \"in_flight\": %llu, "
            "\"peak_in_flight\": %llu, \"admitted\": %llu, "
            "\"shed\": %llu, \"cap\": %llu}",
            i == 0 ? "" : ",", JsonEscape(tenant.name).c_str(),
            static_cast<unsigned long long>(tenant.in_flight),
            static_cast<unsigned long long>(tenant.peak_in_flight),
            static_cast<unsigned long long>(tenant.admitted),
            static_cast<unsigned long long>(tenant.shed),
            static_cast<unsigned long long>(tenant.cap));
      }
      std::printf("%s],\n", stats->tenants.empty() ? "" : "\n  ");
      std::printf(
          "  \"membership_generation\": %llu,\n",
          static_cast<unsigned long long>(stats->membership_generation));
      std::printf(
          "  \"corruption_failovers\": %llu,\n",
          static_cast<unsigned long long>(stats->corruption_failovers));
      std::printf("  \"read_repairs\": %llu\n}\n",
                  static_cast<unsigned long long>(stats->read_repairs));
      return 0;
    }
    std::printf(
        "requests ok       %llu\n"
        "requests error    %llu\n"
        "bytes in          %llu\n"
        "bytes out         %llu\n"
        "connections       %llu (%llu active)\n"
        "latency p50       %.2f ms\n"
        "latency p99       %.2f ms\n"
        "queries in flight %llu\n"
        "queries admitted  %llu\n"
        "queries shed      %llu\n"
        "result bytes held %llu (peak %llu)\n",
        static_cast<unsigned long long>(stats->requests_ok),
        static_cast<unsigned long long>(stats->requests_error),
        static_cast<unsigned long long>(stats->bytes_in),
        static_cast<unsigned long long>(stats->bytes_out),
        static_cast<unsigned long long>(stats->connections_accepted),
        static_cast<unsigned long long>(stats->active_connections),
        stats->p50_latency_ms, stats->p99_latency_ms,
        static_cast<unsigned long long>(stats->queries_in_flight),
        static_cast<unsigned long long>(stats->queries_admitted),
        static_cast<unsigned long long>(stats->queries_shed),
        static_cast<unsigned long long>(stats->result_bytes_in_use),
        static_cast<unsigned long long>(stats->result_bytes_peak));
    std::printf(
        "cache hits        %llu (%llu subsumed)\n"
        "cache misses      %llu\n"
        "cache evictions   %llu\n"
        "cache entries     %llu (%llu bytes, %llu pinned bytes)\n",
        static_cast<unsigned long long>(stats->cache_hits),
        static_cast<unsigned long long>(stats->cache_subsumption_hits),
        static_cast<unsigned long long>(stats->cache_misses),
        static_cast<unsigned long long>(stats->cache_evictions),
        static_cast<unsigned long long>(stats->cache_entries),
        static_cast<unsigned long long>(stats->cache_bytes),
        static_cast<unsigned long long>(stats->cache_pinned_bytes));
    std::printf("membership gen    %llu\n",
                static_cast<unsigned long long>(stats->membership_generation));
    std::printf(
        "corruption        %llu failovers, %llu read repairs\n",
        static_cast<unsigned long long>(stats->corruption_failovers),
        static_cast<unsigned long long>(stats->read_repairs));
    if (!stats->tenants.empty()) {
      std::printf("%-16s %9s %9s %9s %9s %9s\n", "tenant", "inflight",
                  "peak", "admitted", "shed", "cap");
      for (const auto& tenant : stats->tenants) {
        std::printf("%-16s %9llu %9llu %9llu %9llu %9llu\n",
                    tenant.name.c_str(),
                    static_cast<unsigned long long>(tenant.in_flight),
                    static_cast<unsigned long long>(tenant.peak_in_flight),
                    static_cast<unsigned long long>(tenant.admitted),
                    static_cast<unsigned long long>(tenant.shed),
                    static_cast<unsigned long long>(tenant.cap));
      }
    }
    return 0;
  }
  if (options.command == "membership") {
    auto reply = client.Call(net::MembershipGetRequest{});
    if (!reply.ok()) return ReportFailure(reply.status(), options.deadline_ms);
    const MembershipView& view = reply->view;
    if (options.json) {
      // Stable keys (append-only): generation, replication, base_shards,
      // nodes[{node,uuid,address,shard,role,joined_generation}],
      // overrides[{begin,end,shard}].
      std::printf("{\n  \"generation\": %llu,\n  \"replication\": %d,\n"
                  "  \"base_shards\": %d,\n  \"nodes\": [",
                  static_cast<unsigned long long>(view.generation),
                  view.replication, view.base_shards);
      for (size_t i = 0; i < view.nodes.size(); ++i) {
        const NodeRecord& node = view.nodes[i];
        std::printf("%s\n    {\"node\": %d, \"uuid\": \"%s\", "
                    "\"address\": \"%s\", \"shard\": %d, \"role\": \"%s\", "
                    "\"joined_generation\": %llu}",
                    i == 0 ? "" : ",", node.node_id,
                    JsonEscape(node.uuid).c_str(),
                    JsonEscape(node.Address()).c_str(), node.shard,
                    NodeRoleName(node.role),
                    static_cast<unsigned long long>(node.joined_generation));
      }
      std::printf("%s],\n  \"overrides\": [",
                  view.nodes.empty() ? "" : "\n  ");
      for (size_t i = 0; i < view.overrides.size(); ++i) {
        const RangeOverride& ov = view.overrides[i];
        std::printf("%s\n    {\"begin\": %llu, \"end\": %llu, \"shard\": %d}",
                    i == 0 ? "" : ",",
                    static_cast<unsigned long long>(ov.begin),
                    static_cast<unsigned long long>(ov.end), ov.shard);
      }
      std::printf("%s]\n}\n", view.overrides.empty() ? "" : "\n  ");
      return 0;
    }
    std::printf("generation %llu  replication %d  base shards %d\n",
                static_cast<unsigned long long>(view.generation),
                view.replication, view.base_shards);
    std::printf("%-4s %-21s %-6s %-9s %-10s %s\n", "node", "address", "shard",
                "role", "joined", "uuid");
    for (const NodeRecord& node : view.nodes) {
      std::printf("%-4d %-21s %-6d %-9s %-10llu %s\n", node.node_id,
                  node.Address().c_str(), node.shard, NodeRoleName(node.role),
                  static_cast<unsigned long long>(node.joined_generation),
                  node.uuid.c_str());
    }
    for (const RangeOverride& ov : view.overrides) {
      std::printf("override [%llu, %llu) -> shard %d\n",
                  static_cast<unsigned long long>(ov.begin),
                  static_cast<unsigned long long>(ov.end), ov.shard);
    }
    return 0;
  }
  if (options.command == "decommission") {
    char* end = nullptr;
    const long node_id = std::strtol(options.args[0].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || node_id < 0) {
      std::fprintf(stderr,
                   "decommission expects a non-negative node id, got '%s'\n",
                   options.args[0].c_str());
      return 2;
    }
    net::LeaveRequest request;
    request.node_id = static_cast<int32_t>(node_id);
    auto reply = client.Call(request);
    if (!reply.ok()) return ReportFailure(reply.status(), options.deadline_ms);
    std::printf("node %ld decommissioned: %llu ranges moved (%llu atoms "
                "copied), now at generation %llu\n",
                node_id,
                static_cast<unsigned long long>(reply->ranges_moved),
                static_cast<unsigned long long>(reply->atoms_copied),
                static_cast<unsigned long long>(reply->view.generation));
    return 0;
  }
  if (options.command == "rebalance") {
    net::RebalanceRequest request;
    request.to_shard = options.to_shard;
    request.max_ranges = static_cast<uint64_t>(options.max_ranges);
    auto reply = client.Call(request);
    if (!reply.ok()) return ReportFailure(reply.status(), options.deadline_ms);
    if (reply->moved.empty()) {
      std::printf("already balanced (generation %llu)\n",
                  static_cast<unsigned long long>(reply->generation));
      return 0;
    }
    for (const RangeOverride& move : reply->moved) {
      std::printf("moved [%llu, %llu) -> shard %d\n",
                  static_cast<unsigned long long>(move.begin),
                  static_cast<unsigned long long>(move.end), move.shard);
    }
    std::printf("%zu ranges (%llu atoms copied), now at generation %llu\n",
                reply->moved.size(),
                static_cast<unsigned long long>(reply->atoms_copied),
                static_cast<unsigned long long>(reply->generation));
    return 0;
  }
  if (options.command == "fof") {
    const std::string derived = options.args[0];
    double rms = 0.0;
    auto threshold_or = ThresholdOverRpc(client, options, derived, &rms);
    if (!threshold_or.ok()) {
      return ReportFailure(threshold_or.status(), options.deadline_ms);
    }
    const double threshold = *threshold_or;
    net::FofRequest request;
    request.query.dataset = "mhd";
    request.query.raw_field = RawFieldFor(derived);
    request.query.derived_field = derived;
    request.query.timestep = options.timestep;
    request.query.box = Box3::WholeGrid(options.n, options.n, options.n);
    request.query.threshold = threshold;
    request.query.fd_order = options.fd_order;
    request.linking_length = options.linking_length;
    request.min_cluster_size =
        static_cast<uint64_t>(options.min_cluster_size);
    request.include_members = options.members;
    auto result = client.Fof(request);
    if (!result.ok()) return ReportFailure(result.status(), options.deadline_ms);
    std::printf("%llu clusters over %llu points with |%s| >= %.4f "
                "(linking length %.2f, min size %llu)\n",
                static_cast<unsigned long long>(result->summary.clusters),
                static_cast<unsigned long long>(result->summary.points),
                derived.c_str(), threshold, options.linking_length,
                static_cast<unsigned long long>(options.min_cluster_size));
    std::printf("largest cluster: %llu points\n",
                static_cast<unsigned long long>(
                    result->summary.largest_cluster));
    std::printf("modeled time: %s\n", result->summary.time.ToString().c_str());
    const size_t shown = std::min<size_t>(10, result->clusters.size());
    if (shown > 0) {
      std::printf("%-12s %8s %-20s %10s %s\n", "id", "size", "centroid",
                  "peak", rms > 0.0 ? "(rms)" : "");
    }
    for (size_t i = 0; i < shown; ++i) {
      const net::FofClusterRecord& cluster = result->clusters[i];
      char centroid[64];
      std::snprintf(centroid, sizeof(centroid), "(%.1f, %.1f, %.1f)",
                    cluster.centroid[0], cluster.centroid[1],
                    cluster.centroid[2]);
      if (rms > 0.0) {
        std::printf("%-12llu %8llu %-20s %10.4f (%.2f rms)\n",
                    static_cast<unsigned long long>(cluster.id),
                    static_cast<unsigned long long>(cluster.size), centroid,
                    cluster.max_norm, cluster.max_norm / rms);
      } else {
        std::printf("%-12llu %8llu %-20s %10.4f\n",
                    static_cast<unsigned long long>(cluster.id),
                    static_cast<unsigned long long>(cluster.size), centroid,
                    cluster.max_norm);
      }
    }
    if (result->clusters.size() > shown) {
      std::printf("  ... %zu more\n", result->clusters.size() - shown);
    }
    return 0;
  }
  if (options.command == "drop-cache") {
    const std::string derived = options.args[0];
    net::DropCacheRequest request;
    request.dataset = "mhd";
    request.raw_field = RawFieldFor(derived);
    request.derived_field = derived;
    request.timestep = options.timestep_set ? options.timestep : -1;
    auto reply = client.Call(request);
    if (!reply.ok()) return ReportFailure(reply.status(), options.deadline_ms);
    std::printf("cleared: mediator tier (%llu entries), node-local caches%s\n",
                static_cast<unsigned long long>(reply->mediator_entries),
                reply->node_tier_cleared ? "" : " (node tier NOT cleared)");
    return 0;
  }
  if (options.command == "cache-stats") {
    auto reply = client.Call(net::CacheStatsRequest{});
    if (!reply.ok()) return ReportFailure(reply.status(), options.deadline_ms);
    const MediatorCacheStats& stats = reply->stats;
    std::printf(
        "enabled           %s (capacity %llu bytes)\n"
        "entries           %llu (%llu bytes)\n"
        "pinned            %llu entries (%llu bytes)\n"
        "hits              %llu (%llu by subsumption)\n"
        "misses            %llu\n"
        "insertions        %llu (%llu stale discarded)\n"
        "evictions         %llu\n"
        "invalidations     %llu\n",
        reply->enabled ? "yes" : "no",
        static_cast<unsigned long long>(stats.capacity_bytes),
        static_cast<unsigned long long>(stats.entries),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.pinned_entries),
        static_cast<unsigned long long>(stats.pinned_bytes),
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.subsumption_hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.insertions),
        static_cast<unsigned long long>(stats.stale_inserts),
        static_cast<unsigned long long>(stats.evictions),
        static_cast<unsigned long long>(stats.invalidations));
    return 0;
  }
  if (options.command == "cache-warm") {
    const std::string derived = options.args[0];
    double rms = 0.0;
    auto threshold_or = ThresholdOverRpc(client, options, derived, &rms);
    if (!threshold_or.ok()) {
      return ReportFailure(threshold_or.status(), options.deadline_ms);
    }
    const double threshold = *threshold_or;
    net::CacheWarmRequest request;
    ThresholdQuery& query = request.query;
    query.dataset = "mhd";
    query.raw_field = RawFieldFor(derived);
    query.derived_field = derived;
    query.timestep = options.timestep;
    query.box = Box3::WholeGrid(options.n, options.n, options.n);
    query.threshold = threshold;
    query.fd_order = options.fd_order;
    auto reply = client.Call(request);
    if (!reply.ok()) return ReportFailure(reply.status(), options.deadline_ms);
    std::printf("%s: %llu points resident for |%s| >= %.4f\n",
                reply->already_cached ? "already cached" : "warmed",
                static_cast<unsigned long long>(reply->points),
                derived.c_str(), threshold);
    return 0;
  }
  if (options.command == "cache-pin" || options.command == "cache-unpin") {
    const std::string derived = options.args[0];
    const bool pin = options.command == "cache-pin";
    // Pin and unpin share one key selector and one reply shape.
    auto run = [&](auto request) -> Result<uint64_t> {
      request.dataset = "mhd";
      request.raw_field = RawFieldFor(derived);
      request.derived_field = derived;
      request.timestep = options.timestep_set ? options.timestep : -1;
      TURBDB_ASSIGN_OR_RETURN(auto reply, client.Call(std::move(request)));
      return reply.entries;
    };
    auto entries = pin ? run(net::CachePinRequest{})
                       : run(net::CacheUnpinRequest{});
    if (!entries.ok()) {
      return ReportFailure(entries.status(), options.deadline_ms);
    }
    std::printf("%s %llu entries\n", pin ? "pinned" : "unpinned",
                static_cast<unsigned long long>(*entries));
    return 0;
  }

  Backend backend;
  backend.stats = [&](const FieldStatsQuery& q) { return client.FieldStats(q); };
  backend.threshold = [&](const ThresholdQuery& q) {
    return options.stream ? client.ThresholdStreamed(q)
                          : client.Threshold(q);
  };
  backend.pdf = [&](const PdfQuery& q) { return client.Pdf(q); };
  backend.topk = [&](const TopKQuery& q) { return client.TopK(q); };
  return RunCommand(options, backend);
}

int RunLocal(const CliOptions& options) {
  if (options.command == "ping" || options.command == "server-stats" ||
      options.command == "cache-stats" || options.command == "cache-warm" ||
      options.command == "cache-pin" || options.command == "cache-unpin" ||
      options.command == "fof" || options.command == "membership" ||
      options.command == "decommission" || options.command == "rebalance") {
    std::fprintf(stderr, "turbdb_cli: '%s' requires --connect\n",
                 options.command.c_str());
    return 2;
  }

  TurbDBConfig config;
  config.cluster.num_nodes = options.nodes;
  config.cluster.processes_per_node = options.processes;
  config.cluster.storage_dir = options.storage_dir;
  auto db_or = TurbDB::Open(config);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TurbDB> db = std::move(db_or).value();

  if (options.command == "fields") {
    for (const std::string& name :
         db->mediator().catalog().registry().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  std::fprintf(stderr, "[preparing %lld^3 x %d steps ...]\n",
               static_cast<long long>(options.n), options.timesteps);
  Status status = EnsureMhdDemoData(db.get(), "mhd", options.n,
                                    options.timesteps, options.seed);
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
    return 1;
  }

  if (options.command == "drop-cache") {
    const std::string derived = options.args[0];
    uint64_t mediator_dropped = 0;
    Status dropped = db->mediator().DropCacheEntries(
        "mhd", RawFieldFor(derived), derived,
        options.timestep_set ? options.timestep : -1, &mediator_dropped);
    if (!dropped.ok()) return ReportFailure(dropped);
    std::printf("cleared: mediator tier (%llu entries), node-local caches\n",
                static_cast<unsigned long long>(mediator_dropped));
    return 0;
  }

  Backend backend;
  backend.stats = [&](const FieldStatsQuery& q) { return db->FieldStats(q); };
  backend.threshold = [&](const ThresholdQuery& q) {
    return db->Threshold(q);
  };
  backend.pdf = [&](const PdfQuery& q) { return db->Pdf(q); };
  backend.topk = [&](const TopKQuery& q) { return db->TopK(q); };
  return RunCommand(options, backend);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "turbdb_cli: %s\n\n", error.c_str());
    PrintUsage();
    return 2;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }
  if (!ValidateCommand(&options, &error)) {
    std::fprintf(stderr, "turbdb_cli: %s\n\n", error.c_str());
    PrintUsage();
    return 2;
  }
  if (options.command == "cluster-status") return RunClusterStatus(options);
  if (options.command == "scrub") return RunScrub(options);
  if (!options.connect.empty()) return RunRemote(options);
  return RunLocal(options);
}
