#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "cluster/topology.h"
#include "common/result.h"
#include "membership/view.h"

namespace turbdb {

/// The mediator's authoritative membership registry (the analogue of
/// tarantool's `_cluster` space plus its replicaset config): node records
/// and range overrides, versioned by a monotonic generation that every
/// mutation bumps, persisted to `<dir>/membership.txt` with the usual
/// write-temp + fsync + rename discipline. The mediator routes each
/// query by a snapshot (MembershipView) that its sub-queries carry, and
/// clients fetch one with MembershipGet; the registry itself never
/// leaves the mediator process. A file that does not parse into a view
/// every consumer accepts fails the open as kCorruption.
///
/// Thread-safe; every method takes the internal mutex.
class MembershipRegistry {
 public:
  /// `dir` may be empty (ephemeral registry: nothing persisted). When a
  /// persisted file exists it wins over `seed`; otherwise the registry is
  /// seeded from the static boot topology at generation 1, one record
  /// per topology entry (shard = index / replication_factor).
  static Result<std::unique_ptr<MembershipRegistry>> Open(
      const std::string& dir, const ClusterTopology& seed);

  /// Current membership snapshot.
  MembershipView Snapshot() const;

  uint64_t generation() const;

  /// Admits a joining node: assigns the next free node id and a fresh
  /// shard id (joined nodes form new single-replica shards), records it
  /// with role kJoining, bumps the generation, persists. Re-admitting a
  /// known uuid (a joiner retrying after a crash) returns the existing
  /// record unchanged. The new shard owns no ranges until rebalanced.
  Result<NodeRecord> Admit(const std::string& uuid, const std::string& host,
                           uint16_t port);

  /// Flips an admitted node to active (role kShard) once it is serving.
  Result<NodeRecord> Activate(const std::string& uuid);

  /// Marks a node draining: its shard disappears from routing once its
  /// ranges have been moved away. Bumps the generation, persists.
  Result<NodeRecord> Decommission(int node_id);

  /// Re-homes [begin, end) to `shard` (the rebalance cutover). Bumps the
  /// generation, persists.
  Result<uint64_t> ApplyOverride(uint64_t begin, uint64_t end, int shard);

 private:
  MembershipRegistry(std::string path, MembershipView view)
      : path_(std::move(path)), view_(std::move(view)) {}

  /// Writes the registry to path_ (temp + fsync + rename). Caller holds
  /// mutex_.
  Status Persist() const;

  std::string path_;  ///< Empty = ephemeral.
  mutable std::mutex mutex_;
  MembershipView view_;
};

}  // namespace turbdb
