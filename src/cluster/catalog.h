#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dataset.h"
#include "cluster/node.h"
#include "cluster/partitioner.h"
#include "fields/differentiator.h"
#include "fields/field_registry.h"
#include "fields/interpolator.h"
#include "net/protocol.h"

namespace turbdb {

/// The datasets a mediator or a turbdb_node serves, and the one place
/// where a node sub-query's names become what it executes with. The
/// mediator resolves the sub-queries of its in-process nodes and its
/// routing through its catalog; each turbdb_node resolves the spec it
/// receives through its own. So a remote sub-query executes exactly the
/// `NodeQuery` its in-process twin would.
///
/// Thread-safe. Entries are never removed, so the pointers that Find,
/// Entries and Resolve hand out live as long as the catalog.
class Catalog {
 public:
  /// One dataset: its schema and its base partitioning, the ownership
  /// that a membership view's range overrides re-home.
  struct Entry {
    DatasetInfo info;
    MortonPartitioner partitioner;
  };

  Catalog() : registry_(FieldRegistry::Default()) {}

  /// Registers `info`, split into `num_shards` base shards by `strategy`.
  /// Registering the same dataset again (a retried RPC) is OK; the same
  /// name with another schema or partitioning is kAlreadyExists. An
  /// empty name, a bad geometry or an unknown strategy is
  /// kInvalidArgument.
  Status Register(const DatasetInfo& info, int num_shards,
                  PartitionStrategy strategy);

  /// The entry named `name`, or kNotFound.
  Result<const Entry*> Find(const std::string& name) const;

  /// Every entry, in name order.
  std::vector<const Entry*> Entries() const;

  /// Resolves `spec` into the query a node executes: the dataset and its
  /// partitioner, the kernel and the shared differentiator (or, for a
  /// sample, the shared interpolator). It refuses an unknown dataset or
  /// raw field (kNotFound), a mode out of range, a box outside the grid,
  /// bad PDF bins, a threshold query's negative or NaN threshold and an
  /// order no differentiator supports (kInvalidArgument), and a
  /// timestep out of range (kOutOfRange). A box that straddles the grid
  /// is clipped to it; a sample spans the whole grid.
  Result<NodeQuery> Resolve(const net::NodeQuerySpec& spec);

  const FieldRegistry& registry() const { return registry_; }

 private:
  using CacheKey = std::pair<const Entry*, int>;

  /// The differentiator of `order` over `entry`'s grid, built once.
  Result<const Differentiator*> DifferentiatorOf(const Entry& entry,
                                                 int order);
  /// The Lagrange interpolator of `support` over `entry`'s grid, built
  /// once.
  Result<std::shared_ptr<const LagrangeInterpolator>> InterpolatorOf(
      const Entry& entry, int support);

  const FieldRegistry registry_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::map<CacheKey, std::unique_ptr<Differentiator>> differentiators_;
  std::map<CacheKey, std::shared_ptr<const LagrangeInterpolator>>
      interpolators_;
};

}  // namespace turbdb
