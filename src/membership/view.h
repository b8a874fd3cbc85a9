#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/box.h"
#include "array/morton.h"
#include "cluster/partitioner.h"
#include "common/status.h"

namespace turbdb {

/// Role of a node record within the cluster.
enum class NodeRole : int {
  kShard = 0,     ///< Active shard serving its owned ranges.
  kJoining = 1,   ///< Admitted, not yet activated (handshake pending).
  kDraining = 2,  ///< Decommissioned; ranges moved away, routing removed.
};

inline const char* NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kShard:
      return "shard";
    case NodeRole::kJoining:
      return "joining";
    case NodeRole::kDraining:
      return "draining";
  }
  return "unknown";
}

/// One row of the membership registry — the analogue of a tarantool
/// `_cluster` space tuple. `shard` is the logical shard this physical
/// node belongs to (nodes of the same shard are replicas).
struct NodeRecord {
  int node_id = -1;  ///< Physical node id (index into the wire topology).
  std::string uuid;  ///< Stable instance identity across restarts.
  std::string host;
  uint16_t port = 0;
  int shard = -1;
  NodeRole role = NodeRole::kShard;
  /// Membership generation at which this node joined the cluster.
  uint64_t joined_generation = 0;

  std::string Address() const {
    return host + ":" + std::to_string(port);
  }
};

/// A half-open Morton code interval whose ownership diverges from the
/// base partitioner assignment: codes in [begin, end) belong to `shard`
/// regardless of what the static partitioning says. Overrides are how
/// live rebalancing re-homes ranges without re-creating partitioners.
struct RangeOverride {
  uint64_t begin = 0;
  uint64_t end = 0;
  int shard = -1;

  bool Contains(uint64_t code) const { return code >= begin && code < end; }
  bool operator==(const RangeOverride& other) const {
    return begin == other.begin && end == other.end && shard == other.shard;
  }
};

/// A consistent snapshot of cluster membership, versioned by a monotonic
/// generation. The mediator owns the authoritative copy (persisted to
/// disk) and routes each query by one snapshot of it; every node
/// sub-query carries that snapshot's generation, range overrides and
/// records of joined shards, and the node evaluates and reads by exactly
/// them. Nodes hold no copy of their own.
///
/// Ownership of a Morton code is resolved in two steps: the static
/// MortonPartitioner (built for `base_shards` shards at dataset-creation
/// time) gives the base owner, then the sorted disjoint `overrides` list
/// re-homes any code falling inside an override range. Shards with id >=
/// base_shards (joined after the dataset was created) own nothing except
/// what overrides assign them.
struct MembershipView {
  uint64_t generation = 0;
  int replication = 1;
  /// Shard count the datasets' partitioners were built with.
  int base_shards = 0;
  std::vector<NodeRecord> nodes;
  /// Sorted by `begin`, pairwise disjoint.
  std::vector<RangeOverride> overrides;

  /// Effective owner of `code` given its base (partitioner) owner.
  int OwnerOf(uint64_t code, int base_owner) const {
    const RangeOverride* ov = FindOverride(code);
    return ov != nullptr ? ov->shard : base_owner;
  }

  /// The override covering `code`, or nullptr.
  const RangeOverride* FindOverride(uint64_t code) const {
    if (overrides.empty()) return nullptr;
    auto it = std::upper_bound(
        overrides.begin(), overrides.end(), code,
        [](uint64_t c, const RangeOverride& o) { return c < o.begin; });
    if (it == overrides.begin()) return nullptr;
    --it;
    return it->Contains(code) ? &*it : nullptr;
  }

  /// Splices a new override into the sorted list, splitting or trimming
  /// any existing overrides it overlaps and merging with adjacent
  /// overrides of the same shard. An override handing a range back to
  /// its base owner still needs an entry only while it differs from the
  /// base assignment; callers pass the winning shard either way and the
  /// list stays an exact record of divergence-by-construction (the
  /// planner only moves ranges away from their current owner).
  void ApplyOverride(uint64_t begin, uint64_t end, int shard) {
    if (begin >= end) return;
    std::vector<RangeOverride> next;
    next.reserve(overrides.size() + 2);
    for (const RangeOverride& o : overrides) {
      if (o.end <= begin || o.begin >= end) {
        next.push_back(o);
        continue;
      }
      // Overlap: keep the non-overlapping fragments of the old override.
      if (o.begin < begin) next.push_back({o.begin, begin, o.shard});
      if (o.end > end) next.push_back({end, o.end, o.shard});
    }
    next.push_back({begin, end, shard});
    std::sort(next.begin(), next.end(),
              [](const RangeOverride& a, const RangeOverride& b) {
                return a.begin < b.begin;
              });
    // Coalesce adjacent ranges owned by the same shard.
    overrides.clear();
    for (const RangeOverride& o : next) {
      if (!overrides.empty() && overrides.back().shard == o.shard &&
          overrides.back().end == o.begin) {
        overrides.back().end = o.end;
      } else {
        overrides.push_back(o);
      }
    }
  }

  /// Number of logical shards routable in this view (base shards plus
  /// any later-joined, still-active shards).
  int NumShards() const {
    int max_shard = base_shards - 1;
    for (const NodeRecord& n : nodes) {
      if (n.role != NodeRole::kDraining) max_shard = std::max(max_shard, n.shard);
    }
    return max_shard + 1;
  }

  const NodeRecord* FindByUuid(const std::string& uuid) const {
    for (const NodeRecord& n : nodes) {
      if (n.uuid == uuid) return &n;
    }
    return nullptr;
  }

  const NodeRecord* FindByNodeId(int node_id) const {
    for (const NodeRecord& n : nodes) {
      if (n.node_id == node_id) return &n;
    }
    return nullptr;
  }
};

/// The view of a cluster that never changes shape (the in-process
/// deployment): generation 0, no records and no overrides, so ownership
/// is the partitioner's. One shared instance, never null.
const std::shared_ptr<const MembershipView>& StaticView();

/// Ownership lookups binary-search `overrides`, so each range must be
/// non-empty and the list sorted and disjoint. Overrides arrive off the
/// network (a routed sub-query) and off disk (the registry file); both
/// are checked here. kInvalidArgument names the first offending range.
Status ValidateOverrides(const std::vector<RangeOverride>& overrides);

/// Sorted z-indices of the atoms shard `shard` effectively owns under
/// `view`, restricted to `atom_box`. Fast path: with no overrides this
/// is exactly the partitioner's assignment (and shards the partitioner
/// does not know own nothing).
std::vector<uint64_t> OwnedAtomsInBox(const MortonPartitioner& partitioner,
                                      const MembershipView& view, int shard,
                                      const Box3& atom_box);

/// All atoms shard `shard` effectively owns under `view` (sorted).
std::vector<uint64_t> OwnedAtoms(const MortonPartitioner& partitioner,
                                 const MembershipView& view, int shard);

}  // namespace turbdb
