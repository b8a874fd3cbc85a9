#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"

namespace turbdb {

/// What the mediator needs from a database node, abstracted over *where*
/// the node runs. `LocalNode` wraps an in-process `DatabaseNode` (the
/// original single-process deployment); `RemoteNode` (remote_node.h)
/// speaks the node-scoped RPCs to a `turbdb_node` process. The mediator
/// holds one backend per node and never assumes in-process execution.
class NodeBackend {
 public:
  virtual ~NodeBackend() = default;

  virtual int id() const = 0;

  /// Human-readable identity for error messages: "node 2 (in-process)"
  /// or "node 2 (127.0.0.1:4242)".
  virtual std::string DebugName() const = 0;

  /// Registers a dataset, split into `num_shards` base shards by
  /// `strategy`, with the node. A remote node registers it in its own
  /// catalog, which derives the same partitioning as the mediator's.
  /// Which atoms the node owns is not registered: each query carries its
  /// routed view.
  virtual Status CreateDataset(const DatasetInfo& info, int num_shards,
                               PartitionStrategy strategy) = 0;

  /// Stores a batch of atoms of (dataset, field). Creation path.
  virtual Status IngestAtoms(const std::string& dataset,
                             const std::string& field,
                             const std::vector<Atom>& atoms) = 0;

  /// Evaluates this node's part of a query. Must not hang: remote
  /// backends bound every wire wait with a deadline and return a typed
  /// error naming the node instead.
  virtual Result<NodeOutcome> Execute(const NodeQuery& query) = 0;

  /// Best-effort cancellation of an in-flight Execute registered under
  /// `query_id`. Fire-and-forget: the cancel is sent without awaiting a
  /// reply, and failures are swallowed (the query may already have
  /// finished). LocalNode needs no override — the mediator shares the
  /// cancel token pointer with the in-process query directly.
  virtual void Cancel(uint64_t /*query_id*/) {}

  /// Drops cache entries of (dataset, "<raw>:<derived>") for `timestep`
  /// (-1 = all).
  virtual Status DropCacheEntries(const std::string& dataset,
                                  const std::string& field,
                                  int32_t timestep) = 0;

  /// Number of atoms stored for (dataset, field).
  virtual Result<uint64_t> StoredAtomCount(const std::string& dataset,
                                           const std::string& field) = 0;
};

/// The in-process deployment: a thin adapter over `DatabaseNode`. The
/// node and the worker pool are owned by the mediator and outlive this.
class LocalNode : public NodeBackend {
 public:
  LocalNode(DatabaseNode* node, ThreadPool* workers)
      : node_(node), workers_(workers) {}

  int id() const override { return node_->id(); }

  std::string DebugName() const override {
    return "node " + std::to_string(node_->id()) + " (in-process)";
  }

  /// Nothing to register: the node reads the mediator's catalog through
  /// each query's pointers.
  Status CreateDataset(const DatasetInfo& /*info*/, int /*num_shards*/,
                       PartitionStrategy /*strategy*/) override {
    return Status::OK();
  }

  Status IngestAtoms(const std::string& dataset, const std::string& field,
                     const std::vector<Atom>& atoms) override {
    for (const Atom& atom : atoms) {
      TURBDB_RETURN_NOT_OK(node_->IngestAtom(dataset, field, atom));
    }
    // One fsync per batch (durable mode): atoms acknowledged here
    // survive a crash.
    return node_->FinishIngest(dataset, field);
  }

  Result<NodeOutcome> Execute(const NodeQuery& query) override {
    return node_->Execute(query, workers_);
  }

  Status DropCacheEntries(const std::string& dataset,
                          const std::string& field,
                          int32_t timestep) override {
    return node_->DropCacheEntries(dataset, field, timestep);
  }

  Result<uint64_t> StoredAtomCount(const std::string& dataset,
                                   const std::string& field) override {
    return node_->StoredAtomCount(dataset, field);
  }

 private:
  DatabaseNode* node_;
  ThreadPool* workers_;
};

}  // namespace turbdb
