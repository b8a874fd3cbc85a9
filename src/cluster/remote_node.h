#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "cluster/node_backend.h"
#include "cluster/topology.h"
#include "net/client.h"

namespace turbdb {

/// A database node living in another process: implements NodeBackend by
/// speaking the node-scoped RPCs to a `turbdb_node` over `net::Client`.
///
/// Every wire wait is deadline-bounded and transport failures are
/// retried a bounded number of times (the client's policy); a node that
/// cannot be reached surfaces as kUnreachable *naming this node*, which
/// is what the mediator propagates so a dead node fails the query fast
/// instead of hanging it. The underlying client drives one connection
/// and is not thread-safe, so calls are serialized on a mutex — the
/// cluster's parallelism is across nodes, not within one node's channel.
class RemoteNode : public NodeBackend {
 public:
  /// `shard` is the logical shard whose atom range this node serves;
  /// under replication several physical nodes share one shard. Negative
  /// (the default) means "same as the physical id" — the unreplicated
  /// layout.
  RemoteNode(int id, const NodeAddress& address,
             const RemoteNodeOptions& options, int shard = -1);

  /// Verifies the node answers, speaks this protocol version and
  /// identifies as the expected node id; returns the node's incarnation
  /// epoch. Called by the mediator at cluster bring-up (so
  /// misconfiguration fails at Create, not mid-query) and again by the
  /// replica layer when probing a node it saw go down — an epoch higher
  /// than the one recorded means the process restarted.
  Result<uint64_t> Handshake();

  int id() const override { return id_; }
  int shard() const { return shard_; }
  const NodeAddress& address() const { return address_; }
  std::string DebugName() const override {
    return "node " + std::to_string(id_) + " (" + address_.ToString() + ")";
  }

  Status CreateDataset(const DatasetInfo& info, int num_shards,
                       PartitionStrategy strategy) override;
  Status IngestAtoms(const std::string& dataset, const std::string& field,
                     const std::vector<Atom>& atoms) override;
  Result<NodeOutcome> Execute(const NodeQuery& query) override;

  /// Fire-and-forget cancel of an Execute in flight on this node: the
  /// CancelRequest frame goes out on a one-shot connection (the main
  /// channel's mutex is held by the very Execute being cancelled), which
  /// is closed without awaiting the reply, so a node that stalls its
  /// replies cannot hold the caller.
  void Cancel(uint64_t query_id) override;
  Status DropCacheEntries(const std::string& dataset,
                          const std::string& field,
                          int32_t timestep) override;
  Result<uint64_t> StoredAtomCount(const std::string& dataset,
                                   const std::string& field) override;

  /// IngestAtoms with `skip_existing`: duplicate keys are silently kept
  /// as-is on the node. The re-sync path uses it to push ranges that may
  /// overlap atoms a restarted node already recovered from disk.
  Status IngestSkippingExisting(const std::string& dataset,
                                const std::string& field,
                                const std::vector<Atom>& atoms);

  /// One page of a replica sync: atoms of (dataset, field, timestep) in
  /// [begin_code, end_code), at most max_atoms of them.
  Result<net::NodeSyncRangeReply> SyncRange(
      const net::NodeSyncRangeRequest& request);

  /// Every (dataset, field) store the node has open, with atom counts.
  Result<net::NodeListStoresReply> ListStores();

  /// The node's full stats row (epoch, WAL lag, last cutover generation).
  Result<net::NodeStatsReply> Stats(const std::string& dataset,
                                    const std::string& field);

  /// Self-healing RPCs (v7): a store's Merkle digest, a synchronous
  /// scrub pass (or counter read), and an anti-entropy repair of one
  /// store from the node's replica siblings.
  Result<net::NodeMerkleReply> Merkle(const net::NodeMerkleRequest& request);
  Result<net::NodeScrubReply> Scrub(const net::NodeScrubRequest& request);
  Result<net::NodeRepairRangeReply> RepairRange(
      const net::NodeRepairRangeRequest& request);

  /// Tells the node a range move it takes part in commits (v6
  /// elasticity control plane; see net::CutoverRequest).
  Status Cutover(const net::CutoverRequest& request);

 private:
  /// Prefixes a failure with this node's identity (code preserved).
  Status Named(const Status& status) const;

  Status IngestBatches(const std::string& dataset, const std::string& field,
                       const std::vector<Atom>& atoms, bool skip_existing);

  int id_;
  int shard_;
  NodeAddress address_;
  RemoteNodeOptions options_;

  std::mutex mutex_;
  net::Client client_;
};

/// The wire form of a NodeQuery: its by-value parameters, its mode and
/// its dataset's name. The receiving node's `Catalog::Resolve` turns it
/// back into the same NodeQuery.
net::NodeQuerySpec ToSpec(const NodeQuery& query);

}  // namespace turbdb
