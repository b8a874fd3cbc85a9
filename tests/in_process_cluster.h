#pragma once

// Real node services hosted in the test process over loopback TCP (one
// net::Server each, with per-server fault scopes "n0.", "n1.", ...) and
// a distributed mediator over them. A test can arm a fault on the exact
// server it means, or join a shard the way `turbdb_node --join` does,
// without forking binaries.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node_service.h"
#include "core/turbdb.h"
#include "net/server.h"
#include "net/socket.h"

namespace turbdb {
namespace testcluster {

constexpr int64_t kGrid = 32;
constexpr uint64_t kSeed = 2015;

/// `num_nodes` real node services served over loopback TCP from this
/// process, each with fault scope "n<i>." so tests can arm failures on
/// one specific node.
class InProcessNodeCluster {
 public:
  static Result<std::unique_ptr<InProcessNodeCluster>> Launch(
      int num_nodes, int replication_factor) {
    auto cluster =
        std::unique_ptr<InProcessNodeCluster>(new InProcessNodeCluster());
    // Reserve one ephemeral port per node, then release them for the
    // servers to bind (the peer list must be complete before the first
    // service is constructed).
    {
      std::vector<net::Socket> listeners;
      for (int i = 0; i < num_nodes; ++i) {
        TURBDB_ASSIGN_OR_RETURN(net::Socket listener,
                                net::TcpListen("127.0.0.1", 0));
        TURBDB_ASSIGN_OR_RETURN(const uint16_t port,
                                net::LocalPort(listener));
        cluster->topology_.nodes.push_back(NodeAddress{"127.0.0.1", port});
        listeners.push_back(std::move(listener));
      }
      for (net::Socket& listener : listeners) listener.Close();
    }
    for (int i = 0; i < num_nodes; ++i) {
      NodeServiceConfig config;
      config.node_id = i;
      config.peers = cluster->topology_;
      config.replication_factor = replication_factor;
      config.epoch = static_cast<uint64_t>(i) + 1;
      auto node = std::make_unique<Node>();
      node->service = std::make_unique<NodeService>(config);

      net::ServerOptions options;
      options.bind_address = "127.0.0.1";
      options.port = cluster->topology_.nodes[static_cast<size_t>(i)].port;
      options.num_workers = 4;
      options.server_id = i;
      options.server_epoch = config.epoch;
      options.fault_scope = Scope(i);
      TURBDB_ASSIGN_OR_RETURN(node->server, net::Server::Start(
                                  node->service->AsHandler(), options));
      cluster->nodes_.push_back(std::move(node));
    }
    return cluster;
  }

  /// The fault-site prefix of node `i` ("n0.", "n1.", ...).
  static std::string Scope(int i) { return "n" + std::to_string(i) + "."; }

  /// Adds one more node service the way `turbdb_node --join` does: admit
  /// through the mediator, register the catalog, serve, then activate.
  /// Returns the joiner's shard.
  Result<int> Join(Mediator& mediator) {
    net::JoinRequest admit;
    admit.uuid = "in-process-joiner";
    admit.host = "127.0.0.1";
    TURBDB_ASSIGN_OR_RETURN(net::JoinReply admitted, mediator.Join(admit));
    NodeServiceConfig config;
    config.node_id = admitted.record.node_id;
    config.shard_override = admitted.record.shard;
    config.epoch = static_cast<uint64_t>(config.node_id) + 1;
    for (const NodeRecord& record : admitted.view.nodes) {
      config.peers.nodes.resize(
          std::max(config.peers.nodes.size(),
                   static_cast<size_t>(record.node_id) + 1));
      config.peers.nodes[static_cast<size_t>(record.node_id)] =
          NodeAddress{record.host, record.port};
    }
    auto node = std::make_unique<Node>();
    node->service = std::make_unique<NodeService>(config);
    for (const auto& registration : admitted.registrations) {
      TURBDB_RETURN_NOT_OK(node->service->RegisterDatasetSpec(registration));
    }

    net::ServerOptions options;
    options.bind_address = "127.0.0.1";
    options.num_workers = 4;
    options.server_id = config.node_id;
    options.server_epoch = config.epoch;
    options.fault_scope = Scope(config.node_id);
    TURBDB_ASSIGN_OR_RETURN(
        node->server,
        net::Server::Start(node->service->AsHandler(), options));
    net::JoinRequest activate = admit;
    activate.port = node->server->port();
    activate.activate = true;
    TURBDB_ASSIGN_OR_RETURN(net::JoinReply active, mediator.Join(activate));
    nodes_.push_back(std::move(node));
    return active.record.shard;
  }

  const ClusterTopology& topology() const { return topology_; }

  /// The service of node `i` (base nodes first, then joiners in order).
  NodeService& service(int i) {
    return *nodes_[static_cast<size_t>(i)]->service;
  }

  /// Moves node `i` to a new ephemeral port: a second server starts on
  /// its service before the first one stops, so the two ports differ.
  /// Returns the new port.
  Result<uint16_t> Rebind(int i) {
    Node& node = *nodes_[static_cast<size_t>(i)];
    net::ServerOptions options;
    options.bind_address = "127.0.0.1";
    options.num_workers = 4;
    options.server_id = i;
    options.fault_scope = Scope(i);
    TURBDB_ASSIGN_OR_RETURN(
        std::unique_ptr<net::Server> moved,
        net::Server::Start(node.service->AsHandler(), options));
    node.server = std::move(moved);
    return node.server->port();
  }

 private:
  struct Node {
    std::unique_ptr<NodeService> service;
    std::unique_ptr<net::Server> server;  // Stopped before the service dies.
  };

  InProcessNodeCluster() = default;

  ClusterTopology topology_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Ingests step `timestep` of both mhd raw fields through the mediator's
/// current view, generated exactly as EnsureMhdDemoData generates them.
inline Status IngestMhdStep(TurbDB* db, int32_t timestep) {
  TURBDB_RETURN_NOT_OK(db->IngestSyntheticField(
      "mhd", "velocity", DefaultMhdSpec(kSeed), timestep, timestep + 1));
  return db->IngestSyntheticField("mhd", "magnetic",
                                  DefaultMhdSpec(kSeed * 7919 + 13),
                                  timestep, timestep + 1);
}

/// A mediator over `topology` (replica groups of `replication_factor`)
/// holding the mhd demo dataset at kGrid^3 with `timesteps` steps, of
/// which step 0 is ingested.
inline Result<std::unique_ptr<TurbDB>> OpenDistributed(
    ClusterTopology topology, int replication_factor, int32_t timesteps = 1) {
  topology.replication_factor = replication_factor;
  TurbDBConfig config;
  config.cluster.topology = std::move(topology);
  config.cluster.processes_per_node = 2;
  config.cluster.remote.subquery_deadline_ms = 30000;
  config.cluster.remote.max_retries = 1;
  config.cluster.remote.backoff_initial_ms = 20;
  config.cluster.remote.probe_interval_ms = 0;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<TurbDB> db, TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(
      db->CreateDataset(MakeMhdDataset("mhd", kGrid, timesteps)));
  TURBDB_RETURN_NOT_OK(IngestMhdStep(db.get(), 0));
  return db;
}

}  // namespace testcluster
}  // namespace turbdb
