#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace turbdb {

namespace net {
struct ClientOptions;
}  // namespace net

/// Network address of one turbdb_node process.
struct NodeAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
  bool operator==(const NodeAddress& other) const {
    return host == other.host && port == other.port;
  }
};

/// Where the cluster's database nodes live: entry i is physical node i.
/// An empty topology means the in-process deployment (every DatabaseNode
/// inside the mediator); a non-empty one switches the mediator to remote
/// scatter-gather over TCP.
///
/// `replication_factor` R groups the entries into replica groups of R
/// consecutive nodes: entries [g*R, (g+1)*R) all hold shard g's atom
/// range, the first of them being the group's preferred (primary) read
/// target. R=1 (the default) is the unreplicated layout where physical
/// node i IS shard i. The node count must divide evenly by R.
struct ClusterTopology {
  std::vector<NodeAddress> nodes;
  int replication_factor = 1;

  bool empty() const { return nodes.empty(); }
  size_t size() const { return nodes.size(); }

  /// Number of replica groups (= logical shards). With R=1 this equals
  /// the node count.
  int num_groups() const {
    const int factor = replication_factor > 0 ? replication_factor : 1;
    return static_cast<int>(nodes.size()) / factor;
  }

  /// "host:port,host:port,..." — the inverse of ParseTopology; also the
  /// format turbdb_node's --peers flag takes.
  std::string ToString() const;
};

/// How the mediator (and peer nodes) talk to remote turbdb_node
/// processes. Retries apply to transport failures only; a node that
/// stays unreachable after the attempts yields a typed kUnreachable
/// error naming it, never a hang.
struct RemoteNodeOptions {
  /// Per-sub-query execution budget on the remote node.
  uint64_t subquery_deadline_ms = 60000;
  /// Extra attempts after a transport failure (connect refused, reset,
  /// timeout).
  int max_retries = 1;
  int connect_timeout_ms = 5000;
  /// First retry backoff; doubles per attempt.
  int backoff_initial_ms = 50;
  /// Minimum spacing between health probes of a down replica (the
  /// circuit breaker for flapping replicas is replication/health.h's).
  int probe_interval_ms = 100;
};

/// The client policy of every channel toward a turbdb_node: the
/// mediator's and a peer's halo fetches alike. The read timeout outlasts
/// the sub-query budget, or the client would give up on sub-queries the
/// node still considers live.
net::ClientOptions NodeClientOptions(const RemoteNodeOptions& options);

/// Failures of the pipe rather than the request, worth trying the next
/// replica of the shard: the client's own kUnreachable once its retries
/// ran out, a torn connection, a timeout. Typed failures would reproduce
/// on every replica.
bool IsTransportFailure(const Status& status);

/// Parses "host:port,host:port,...". Whitespace around entries is
/// ignored; an empty spec yields an empty topology.
Result<ClusterTopology> ParseTopology(const std::string& spec);

/// Loads a topology file: one host:port per line, '#' starts a comment,
/// blank lines ignored. Line order assigns node ids.
Result<ClusterTopology> LoadTopologyFile(const std::string& path);

}  // namespace turbdb
