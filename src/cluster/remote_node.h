#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/topology.h"
#include "net/client.h"

namespace turbdb {

/// A database node living in another process: speaks the node-scoped
/// RPCs to a `turbdb_node` over `net::Client`. The mediator reaches it
/// through a ReplicaGroup (replication/replica_group.h), the NodeBackend
/// of one shard, R=1 included.
///
/// Every wire wait is deadline-bounded and transport failures are
/// retried a bounded number of times (the client's policy); a node that
/// cannot be reached surfaces as kUnreachable *naming this node*, which
/// is what the mediator propagates so a dead node fails the query fast
/// instead of hanging it. The underlying client drives one connection
/// and is not thread-safe, so calls are serialized on a mutex — the
/// cluster's parallelism is across nodes, not within one node's channel.
class RemoteNode {
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

  int id() const { return id_; }
  int shard() const { return shard_; }
  const NodeAddress& address() const { return address_; }
  std::string DebugName() const {
    return "node " + std::to_string(id_) + " (" + address_.ToString() + ")";
  }

  /// One node-scoped RPC on this node's channel; a failure names the
  /// node.
  template <class Req>
  Result<net::ReplyOf<Req>> Call(Req request) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto reply = client_.Call(std::move(request));
    if (!reply.ok()) return Named(reply.status());
    return reply;
  }

  /// Registers a dataset, split into `num_shards` base shards by
  /// `strategy`, in the node's catalog as this node's shard.
  Status CreateDataset(const DatasetInfo& info, int num_shards,
                       PartitionStrategy strategy);

  /// Stores atoms of (dataset, field) in batches that keep frames far
  /// below the cap. With `skip_existing`, keys the node already holds
  /// are kept as they are: re-sync and range copies push ranges that may
  /// overlap what a restarted node recovered from disk.
  Status IngestAtoms(const std::string& dataset, const std::string& field,
                     const std::vector<Atom>& atoms,
                     bool skip_existing = false);

  /// Runs this node's part of a query under the view it was routed by.
  Result<NodeOutcome> Execute(const NodeQuery& query);

  /// Fire-and-forget cancel of an Execute in flight on this node: the
  /// CancelRequest frame goes out on a one-shot connection (the main
  /// channel's mutex is held by the very Execute being cancelled), which
  /// is closed without awaiting the reply, so a node that stalls its
  /// replies cannot hold the caller.
  void Cancel(uint64_t query_id);

 private:
  /// Prefixes a failure with this node's identity (code preserved).
  Status Named(const Status& status) const;

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
