#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node_backend.h"
#include "cluster/remote_node.h"
#include "replication/health.h"
#include "replication/sync.h"

namespace turbdb {

/// One logical shard served by R physical nodes. The mediator holds one
/// ReplicaGroup per shard instead of one RemoteNode per node; the group
/// fronts its members so a single dead node becomes a logged failover,
/// not a query error:
///
///  - Reads (Execute, StoredAtomCount, SyncRange) go to the primary
///    (member 0) and fail over to the next live member on transport
///    error, or on kCorruption, which also queues a read-repair.
///  - Writes (CreateDataset, IngestAtoms, DropCacheEntries) fan out to
///    every member; a down member is skipped with its missed-writes flag
///    set, and the write succeeds as long as one member accepted it.
///  - A member that went down is probed (rate-limited) on later reads;
///    if its Hello epoch moved — the process restarted — it is re-synced
///    from a healthy sibling (see ResyncReplica) before rejoining; the
///    datasets it re-registers are the mediator catalog's entries.
///
/// With R=1 the group degenerates to its single RemoteNode: bring-up
/// fails fast, and every failure surfaces verbatim with the node's name.
/// Every RemoteNode the mediator builds sits in a group.
class ReplicaGroup : public NodeBackend {
 public:
  struct MemberStatus {
    int node_id = 0;
    std::string address;
    bool primary = false;
    bool healthy = false;
    uint64_t epoch = 0;
    uint64_t failovers = 0;
  };

  /// `catalog` is the mediator's, which outlives the group; `options`
  /// supplies the members' probe interval.
  ReplicaGroup(int group_id, std::vector<std::unique_ptr<RemoteNode>> members,
               const Catalog* catalog, const RemoteNodeOptions& options = {});
  ~ReplicaGroup() override;

  /// Handshakes every member and records their epochs. OK as long as at
  /// least one member answers; a single-member group propagates its
  /// handshake failure (the unreplicated fail-fast bring-up).
  Status BringUp();

  int id() const override { return group_id_; }
  std::string DebugName() const override;

  Status CreateDataset(const DatasetInfo& info, int num_shards,
                       PartitionStrategy strategy) override;
  Status IngestAtoms(const std::string& dataset, const std::string& field,
                     const std::vector<Atom>& atoms) override;
  Result<NodeOutcome> Execute(const NodeQuery& query) override;

  /// Fans the cancellation to every member: Execute may have failed over
  /// mid-flight, so any of them could be running the sub-query.
  void Cancel(uint64_t query_id) override;

  Status DropCacheEntries(const std::string& dataset,
                          const std::string& field,
                          int32_t timestep) override;
  Result<uint64_t> StoredAtomCount(const std::string& dataset,
                                   const std::string& field) override;

  int num_members() const { return static_cast<int>(members_.size()); }

  /// Health bookkeeping of member `r` (tests inject fake clocks and read
  /// breaker state through this).
  HealthTracker& member_health(int r) {
    return members_[static_cast<size_t>(r)]->health;
  }

  /// Total reads re-routed off a failed member (test observability).
  uint64_t failover_count() const;

  /// Reads that failed over because a member answered kCorruption (its
  /// store is rotting, not its transport — the member stays up and a
  /// read-repair is queued for it instead of tripping the breaker).
  uint64_t corruption_failovers() const {
    return corruption_failovers_.load(std::memory_order_relaxed);
  }

  /// Read-repairs completed by the background worker (each one an
  /// anti-entropy RepairRange driven on the corrupt member).
  uint64_t read_repairs() const {
    return read_repairs_.load(std::memory_order_relaxed);
  }

  /// Per-member snapshot for cluster-status style reporting.
  std::vector<MemberStatus> Snapshot() const;

  /// Direct access to physical member `r` (stats rows). The group keeps
  /// ownership.
  RemoteNode* member_node(int r) {
    return members_[static_cast<size_t>(r)]->node.get();
  }

  /// One page of a live range move or a decommission, read off the
  /// first member that answers (primary-preferred, with the failover of
  /// every read).
  Result<net::NodeSyncRangeReply> SyncRange(
      const net::NodeSyncRangeRequest& request);

  /// Skip-existing ingest fanned out to *every* member. Unlike
  /// IngestAtoms this does not tolerate down members: a rebalance copy
  /// must land on all replicas of the recipient shard or fail loudly.
  Status IngestSkippingExisting(const std::string& dataset,
                                const std::string& field,
                                const std::vector<Atom>& atoms);

  /// Cutover fan-out to every member.
  Status Cutover(const net::CutoverRequest& request);

 private:
  struct Member {
    Member(std::unique_ptr<RemoteNode> remote, int probe_interval_ms)
        : node(std::move(remote)), health(probe_interval_ms) {}
    std::unique_ptr<RemoteNode> node;
    HealthTracker health;
  };

  /// One read by `fn` off the first usable member, primary first. A
  /// member that fails in transport is marked down; one that answers
  /// kCorruption stays up and gets a read-repair of (dataset, field)
  /// queued. Either way the read fails over to the next member; any
  /// other failure is returned as is.
  template <class T>
  Result<T> Read(const std::string& dataset, const std::string& field,
                 const std::function<Result<T>(Member*)>& fn);

  /// True if the member may serve right now: already healthy, or just
  /// probed back to life (re-synced first if its epoch moved or it
  /// missed writes).
  bool EnsureUsable(Member* member);

  /// One write to every member (CreateDataset, IngestAtoms,
  /// DropCacheEntries): a member that is down, or fails with a transport
  /// error, is skipped with its missed-writes flag set; a typed failure
  /// is returned as is. OK once one member accepted the write.
  Status FanOutWrite(const std::function<Status(RemoteNode*)>& write);

  /// Marks the member down after `failure` and counts the failover.
  void FailMember(Member* member, const Status& failure);

  /// Re-syncs `member` (which answers at `new_epoch`) from a healthy
  /// sibling, then marks it up. Serialized: one recovery at a time.
  Status Recover(Member* member, uint64_t new_epoch);

  /// If the member's typed failure is explained by a restart we have not
  /// noticed yet (its epoch moved), recover it and return true so the
  /// caller retries.
  bool TryRecoverStale(Member* member);

  /// One queued read-repair: member `member` served kCorruption for
  /// (dataset, field) and should heal itself from a sibling.
  struct RepairTask {
    std::string dataset;
    std::string field;
    size_t member = 0;
  };

  /// Queues a read-repair of member `member` (deduplicated against
  /// queued work) and lazily starts the repair worker.
  void EnqueueRepair(const std::string& dataset, const std::string& field,
                     size_t member);
  void RepairLoop();

  int group_id_;
  std::vector<std::unique_ptr<Member>> members_;
  const Catalog* catalog_;

  std::mutex recovery_mutex_;

  std::atomic<uint64_t> corruption_failovers_{0};
  std::atomic<uint64_t> read_repairs_{0};
  /// Read-repair worker: lazily started on the first corrupt read,
  /// joined by the destructor. Guarded by repair_mutex_.
  std::mutex repair_mutex_;
  std::condition_variable repair_wake_;
  std::deque<RepairTask> repair_queue_;
  bool repair_stop_ = false;
  std::thread repair_thread_;
};

}  // namespace turbdb
