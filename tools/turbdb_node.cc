// turbdb_node — one database node of a distributed turbdb cluster.
//
// Serves the node-scoped RPCs (dataset registration, ingest, sub-query
// execution, halo fetches, cache drop, stats) for a single DatabaseNode
// over the framed binary protocol of src/net/. A distributed mediator
// (turbdb_server --topology, or a Mediator created with a non-empty
// ClusterConfig::topology) scatter-gathers queries across a set of these
// processes; the nodes fetch halo atoms from each other directly via
// --peers.
//
//   turbdb_node --node-id 0 --port 8600 --peers 127.0.0.1:8600,127.0.0.1:8601 &
//   turbdb_node --node-id 1 --port 8601 --peers 127.0.0.1:8600,127.0.0.1:8601 &
//   turbdb_server --topology 127.0.0.1:8600,127.0.0.1:8601
//
// SIGINT/SIGTERM drain in-flight requests and exit cleanly. With
// --port 0 the kernel picks a port; --port-file writes the bound port to
// a file so a launcher (the multi-process tests) can discover it.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "cluster/node_service.h"
#include "cluster/topology.h"
#include "common/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/epoch.h"

using namespace turbdb;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

struct NodeCliOptions {
  int node_id = 0;
  std::string bind = "127.0.0.1";
  int port = 0;
  std::string peers;
  std::string peers_file;
  std::string storage_dir;
  std::string port_file;
  int workers = 4;
  int node_workers = 0;
  int max_frame_mb = 64;
  int64_t deadline_ms = 60000;
  int replication_factor = 1;
  bool fsync_ingest = true;
  std::string join;  ///< Mediator host:port to join a running cluster.
  std::string uuid;  ///< Stable instance identity for --join re-admits.
  int scrub_interval_s = 0;
  int scrub_rate_mb = 0;
  std::string faults;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: turbdb_node [options]\n"
      "\n"
      "Serves one database node of a distributed turbdb cluster.\n"
      "\n"
      "options:\n"
      "  --node-id I      this node's id in the cluster (default 0)\n"
      "  --port P         listen port (default 0 = ephemeral)\n"
      "  --bind ADDR      bind address (default 127.0.0.1)\n"
      "  --peers T        comma-separated host:port of every node in id\n"
      "                   order (for direct halo fetches between nodes)\n"
      "  --peers-file F   same, one host:port per line\n"
      "  --storage-dir D  durable atom files for this node\n"
      "  --port-file F    write the bound port here once listening\n"
      "  --workers N      connection-handling threads (default 4)\n"
      "  --node-workers N threads executing sub-query chunks\n"
      "                   (default: hardware concurrency)\n"
      "  --max-frame-mb M largest accepted frame payload (default 64)\n"
      "  --deadline-ms D  default per-request budget (default 60000)\n"
      "  --replication-factor R\n"
      "                   replica-group width: peers [g*R,(g+1)*R) all\n"
      "                   serve shard g (default 1 = unreplicated)\n"
      "  --no-fsync       skip the per-batch fsync of durable ingest\n"
      "  --join HOST:PORT join a running cluster through its mediator:\n"
      "                   the node id, shard and peer list come from the\n"
      "                   membership registry instead of the flags above\n"
      "  --uuid S         stable instance identity for --join (default:\n"
      "                   derived from bind address, pid and start time)\n"
      "  --scrub-interval-s S\n"
      "                   background scrub cadence in seconds (default 0\n"
      "                   = only on demand via `turbdb_cli scrub`)\n"
      "  --scrub-rate-mb M\n"
      "                   scrub read-rate budget in MB/s (default 0 =\n"
      "                   unthrottled)\n"
      "  --faults SPEC    arm deterministic fault injection, e.g.\n"
      "                   server.reply.truncate=truncate:8:1 (needs a\n"
      "                   build with -DTURBDB_FAULTS=ON; TURBDB_FAULTS\n"
      "                   env var works too)\n"
      "  --help           this message\n");
}

bool ParseArgs(int argc, char** argv, NodeCliOptions* options,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int64_t* out) {
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
    } else if (arg == "--node-id") {
      if (!next_int(&value)) return false;
      if (value < 0) {
        *error = "--node-id must be non-negative";
        return false;
      }
      options->node_id = static_cast<int>(value);
    } else if (arg == "--port") {
      if (!next_int(&value)) return false;
      if (value < 0 || value > 65535) {
        *error = "port out of range";
        return false;
      }
      options->port = static_cast<int>(value);
    } else if (arg == "--bind") {
      if (!next_str(&options->bind)) return false;
    } else if (arg == "--peers") {
      if (!next_str(&options->peers)) return false;
    } else if (arg == "--peers-file") {
      if (!next_str(&options->peers_file)) return false;
    } else if (arg == "--storage-dir") {
      if (!next_str(&options->storage_dir)) return false;
    } else if (arg == "--port-file") {
      if (!next_str(&options->port_file)) return false;
    } else if (arg == "--workers") {
      if (!next_int(&value)) return false;
      options->workers = static_cast<int>(value);
    } else if (arg == "--node-workers") {
      if (!next_int(&value)) return false;
      options->node_workers = static_cast<int>(value);
    } else if (arg == "--max-frame-mb") {
      if (!next_int(&value)) return false;
      if (value <= 0 || value > 1024) {
        *error = "--max-frame-mb out of range (1..1024)";
        return false;
      }
      options->max_frame_mb = static_cast<int>(value);
    } else if (arg == "--deadline-ms") {
      if (!next_int(&value)) return false;
      options->deadline_ms = value;
    } else if (arg == "--replication-factor") {
      if (!next_int(&value)) return false;
      if (value < 1) {
        *error = "--replication-factor must be >= 1";
        return false;
      }
      options->replication_factor = static_cast<int>(value);
    } else if (arg == "--no-fsync") {
      options->fsync_ingest = false;
    } else if (arg == "--join") {
      if (!next_str(&options->join)) return false;
    } else if (arg == "--uuid") {
      if (!next_str(&options->uuid)) return false;
    } else if (arg == "--scrub-interval-s") {
      if (!next_int(&value)) return false;
      if (value < 0) {
        *error = "--scrub-interval-s must be non-negative";
        return false;
      }
      options->scrub_interval_s = static_cast<int>(value);
    } else if (arg == "--scrub-rate-mb") {
      if (!next_int(&value)) return false;
      if (value < 0) {
        *error = "--scrub-rate-mb must be non-negative";
        return false;
      }
      options->scrub_rate_mb = static_cast<int>(value);
    } else if (arg == "--faults") {
      if (!next_str(&options->faults)) return false;
    } else {
      *error = "unknown option " + arg;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  NodeCliOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "turbdb_node: %s\n\n", error.c_str());
    PrintUsage();
    return 2;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }

  // A peer or mediator that vanishes mid-reply must surface as a typed
  // write error on that connection, not kill the node with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  Status fault_status = fault::InitFromEnv();
  if (fault_status.ok() && !options.faults.empty()) {
    fault_status = fault::Configure(options.faults);
  }
  if (!fault_status.ok()) {
    std::fprintf(stderr, "turbdb_node: bad fault spec: %s\n",
                 fault_status.ToString().c_str());
    return 2;
  }

  // --join: admit phase against the mediator. The node id, shard and
  // peer list come out of the membership registry; the activate phase
  // (after the server binds its real port) makes the mediator dial back
  // and start routing this shard.
  const bool joining = !options.join.empty();
  std::unique_ptr<net::Client> mediator_client;
  net::JoinReply join_reply;
  std::string join_uuid;
  if (joining) {
    if (!options.peers.empty() || !options.peers_file.empty()) {
      std::fprintf(stderr,
                   "--join derives the peer list from the mediator; drop "
                   "--peers/--peers-file\n");
      return 2;
    }
    auto mediator_or = ParseTopology(options.join);
    if (!mediator_or.ok() || mediator_or->nodes.size() != 1) {
      std::fprintf(stderr, "--join expects one mediator host:port\n");
      return 2;
    }
    join_uuid = options.uuid.empty()
                    ? options.bind + "-" + std::to_string(::getpid()) + "-" +
                          std::to_string(std::time(nullptr))
                    : options.uuid;
    mediator_client = std::make_unique<net::Client>(
        mediator_or->nodes[0].host, mediator_or->nodes[0].port);
    net::JoinRequest admit;
    admit.uuid = join_uuid;
    admit.host = options.bind;
    admit.port = static_cast<uint16_t>(options.port);
    admit.activate = false;
    auto reply_or = mediator_client->Join(admit);
    if (!reply_or.ok()) {
      std::fprintf(stderr, "join admit failed: %s\n",
                   reply_or.status().ToString().c_str());
      return 1;
    }
    join_reply = std::move(*reply_or);
    options.node_id = join_reply.record.node_id;
    std::printf("turbdb_node: admitted as node %d (shard %d) at generation "
                "%llu\n",
                join_reply.record.node_id, join_reply.record.shard,
                static_cast<unsigned long long>(join_reply.view.generation));
    std::fflush(stdout);
  }

  NodeServiceConfig config;
  config.node_id = options.node_id;
  config.storage_dir = options.storage_dir;
  config.worker_threads = options.node_workers;
  config.replication_factor = options.replication_factor;
  config.fsync_ingest = options.fsync_ingest;
  config.scrub_interval_s = options.scrub_interval_s;
  config.scrub_rate_mb = options.scrub_rate_mb;
  if (joining) {
    config.shard_override = join_reply.record.shard;
    config.replication_factor =
        join_reply.view.replication > 0 ? join_reply.view.replication : 1;
    int max_id = -1;
    for (const NodeRecord& record : join_reply.view.nodes) {
      max_id = std::max(max_id, record.node_id);
    }
    config.peers.nodes.assign(static_cast<size_t>(max_id + 1), NodeAddress{});
    for (const NodeRecord& record : join_reply.view.nodes) {
      config.peers.nodes[static_cast<size_t>(record.node_id)] =
          NodeAddress{record.host, record.port};
    }
    config.peers.replication_factor = config.replication_factor;
  }

  // Incarnation epoch. A first boot and a crash restart bump the
  // counter (the epoch change is what makes mediators re-sync this
  // node); a restart after a clean drain keeps it — the stores are
  // known consistent, so a silent bump would only trigger a pointless
  // re-sync and mask the distinction the lock marker exists to draw.
  uint64_t epoch = 0;
  if (options.storage_dir.empty()) {
    auto epoch_or = BumpEpochFile(options.storage_dir, options.node_id);
    if (!epoch_or.ok()) {
      std::fprintf(stderr, "cannot derive epoch: %s\n",
                   epoch_or.status().ToString().c_str());
      return 1;
    }
    epoch = *epoch_or;
  } else {
    auto marker_or = StartMarkerPresent(options.storage_dir, options.node_id);
    auto prev_or = ReadEpochFile(options.storage_dir, options.node_id);
    if (!marker_or.ok() || !prev_or.ok()) {
      std::fprintf(stderr, "cannot inspect storage dir: %s\n",
                   (!marker_or.ok() ? marker_or.status() : prev_or.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    const bool unclean = *marker_or;
    if (*prev_or != 0 && !unclean) {
      epoch = *prev_or;  // Clean shutdown: same incarnation.
    } else {
      auto epoch_or = BumpEpochFile(options.storage_dir, options.node_id);
      if (!epoch_or.ok()) {
        std::fprintf(stderr, "cannot bump epoch file: %s\n",
                     epoch_or.status().ToString().c_str());
        return 1;
      }
      epoch = *epoch_or;
      if (unclean) {
        std::fprintf(stderr,
                     "turbdb_node %d: unclean shutdown detected (stale "
                     "node%d.lock); replaying WAL and bumping epoch to %llu "
                     "so mediators re-sync this node\n",
                     options.node_id, options.node_id,
                     static_cast<unsigned long long>(epoch));
      }
    }
    auto marker_status = CreateStartMarker(options.storage_dir,
                                           options.node_id);
    if (!marker_status.ok()) {
      std::fprintf(stderr, "cannot create start marker: %s\n",
                   marker_status.ToString().c_str());
      return 1;
    }
  }
  config.epoch = epoch;
  if (!options.peers.empty() || !options.peers_file.empty()) {
    if (!options.peers.empty() && !options.peers_file.empty()) {
      std::fprintf(stderr, "pass either --peers or --peers-file, not both\n");
      return 2;
    }
    auto peers_or = options.peers.empty() ? LoadTopologyFile(options.peers_file)
                                          : ParseTopology(options.peers);
    if (!peers_or.ok()) {
      std::fprintf(stderr, "bad peers: %s\n",
                   peers_or.status().ToString().c_str());
      return 2;
    }
    config.peers = std::move(peers_or).value();
    if (static_cast<size_t>(options.node_id) >= config.peers.size()) {
      std::fprintf(stderr, "--node-id %d is outside the %zu-entry peer list\n",
                   options.node_id, config.peers.size());
      return 2;
    }
  }

  NodeService service(config);
  // Replay acknowledged-but-unapplied ingest batches before serving:
  // after a kill -9 mid-batch the WAL, not the store tail, is the
  // source of truth for what was acked.
  Status recover_status = service.RecoverWal();
  if (!recover_status.ok()) {
    std::fprintf(stderr, "WAL recovery failed: %s\n",
                 recover_status.ToString().c_str());
    return 1;
  }
  if (joining) {
    // Self-register the catalog, so the first query routed here after
    // activation finds its datasets.
    for (const net::WireDatasetRegistration& reg : join_reply.registrations) {
      Status status = service.RegisterDatasetSpec(reg);
      if (!status.ok()) {
        std::fprintf(stderr, "cannot register dataset %s: %s\n",
                     reg.info.name.c_str(), status.ToString().c_str());
        return 1;
      }
    }
  }

  net::ServerOptions server_options;
  server_options.bind_address = options.bind;
  server_options.port = static_cast<uint16_t>(options.port);
  server_options.num_workers = options.workers;
  server_options.max_frame_bytes =
      static_cast<uint32_t>(options.max_frame_mb) << 20;
  server_options.default_deadline_ms =
      static_cast<uint64_t>(options.deadline_ms);
  server_options.server_id = options.node_id;
  server_options.server_epoch = config.epoch;
  auto server_or = net::Server::Start(service.AsHandler(), server_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "node start failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::Server> server = std::move(server_or).value();
  std::printf("turbdb_node %d listening on %s:%u\n", options.node_id,
              options.bind.c_str(), server->port());
  std::fflush(stdout);
  if (!options.port_file.empty()) {
    // Write-then-rename so a polling launcher never reads a torn file.
    const std::string tmp = options.port_file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << server->port() << "\n";
    }
    if (std::rename(tmp.c_str(), options.port_file.c_str()) != 0) {
      std::fprintf(stderr, "cannot write --port-file %s\n",
                   options.port_file.c_str());
      return 1;
    }
  }

  if (joining) {
    // Activate phase: re-announce with the real bound port; the mediator
    // dials back, handshakes and starts routing this shard's ranges.
    net::JoinRequest activate;
    activate.uuid = join_uuid;
    activate.host = options.bind;
    activate.port = server->port();
    activate.activate = true;
    auto reply_or = mediator_client->Join(activate);
    if (!reply_or.ok()) {
      std::fprintf(stderr, "join activate failed: %s\n",
                   reply_or.status().ToString().c_str());
      server->Stop();
      return 1;
    }
    std::printf("turbdb_node %d active as shard %d at generation %llu\n",
                options.node_id, reply_or->record.shard,
                static_cast<unsigned long long>(reply_or->view.generation));
    std::fflush(stdout);
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "[node %d shutting down ...]\n", options.node_id);
  server->Stop();
  // Clean drain: drop the crash marker so the next start keeps this
  // incarnation's epoch instead of forcing a re-sync.
  Status marker_status = RemoveStartMarker(options.storage_dir,
                                           options.node_id);
  if (!marker_status.ok()) {
    std::fprintf(stderr, "cannot remove start marker: %s\n",
                 marker_status.ToString().c_str());
  }
  const net::ServerStatsReply stats = server->stats();
  std::fprintf(stderr,
               "node %d served %llu ok / %llu errors over %llu connections\n",
               options.node_id,
               static_cast<unsigned long long>(stats.requests_ok),
               static_cast<unsigned long long>(stats.requests_error),
               static_cast<unsigned long long>(stats.connections_accepted));
  return 0;
}
