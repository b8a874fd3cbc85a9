#include "replication/replica_group.h"

#include "common/logging.h"

namespace turbdb {

ReplicaGroup::ReplicaGroup(int group_id,
                           std::vector<std::unique_ptr<RemoteNode>> members,
                           const Catalog* catalog,
                           const RemoteNodeOptions& options)
    : group_id_(group_id), catalog_(catalog) {
  members_.reserve(members.size());
  for (auto& node : members) {
    members_.push_back(
        std::make_unique<Member>(std::move(node), options.probe_interval_ms));
  }
}

ReplicaGroup::~ReplicaGroup() {
  {
    std::lock_guard<std::mutex> lock(repair_mutex_);
    repair_stop_ = true;
  }
  repair_wake_.notify_all();
  if (repair_thread_.joinable()) repair_thread_.join();
}

void ReplicaGroup::EnqueueRepair(const std::string& dataset,
                                 const std::string& field, size_t member) {
  std::lock_guard<std::mutex> lock(repair_mutex_);
  if (repair_stop_) return;
  for (const RepairTask& queued : repair_queue_) {
    if (queued.dataset == dataset && queued.field == field &&
        queued.member == member) {
      return;  // Same repair already pending.
    }
  }
  repair_queue_.push_back({dataset, field, member});
  if (!repair_thread_.joinable()) {
    repair_thread_ = std::thread([this] { RepairLoop(); });
  }
  repair_wake_.notify_one();
}

void ReplicaGroup::RepairLoop() {
  for (;;) {
    RepairTask task;
    {
      std::unique_lock<std::mutex> lock(repair_mutex_);
      repair_wake_.wait(
          lock, [this] { return repair_stop_ || !repair_queue_.empty(); });
      if (repair_stop_) return;
      task = std::move(repair_queue_.front());
      repair_queue_.pop_front();
    }
    Member* member = members_[task.member].get();
    net::NodeRepairRangeRequest request;
    request.dataset = task.dataset;
    request.field = task.field;
    auto reply = member->node->Call(std::move(request));
    if (!reply.ok()) {
      TURBDB_LOG(Warning) << DebugName() << ": read-repair of "
                          << task.dataset << "/" << task.field << " on "
                          << member->node->DebugName()
                          << " failed: " << reply.status().ToString();
      continue;
    }
    read_repairs_.fetch_add(1, std::memory_order_relaxed);
    TURBDB_LOG(Warning) << DebugName() << ": read-repair of " << task.dataset
                        << "/" << task.field << " on "
                        << member->node->DebugName() << " rewrote "
                        << reply->atoms_repaired << " atom(s) across "
                        << reply->ranges_diverged << " divergent range(s)";
  }
}

std::string ReplicaGroup::DebugName() const {
  if (members_.size() == 1) return members_.front()->node->DebugName();
  std::string name = "shard " + std::to_string(group_id_) + " (nodes";
  for (const auto& member : members_) {
    name += " " + std::to_string(member->node->id());
  }
  return name + ")";
}

Status ReplicaGroup::BringUp() {
  Status last;
  int live = 0;
  for (auto& member : members_) {
    auto epoch = member->node->Handshake();
    if (epoch.ok()) {
      member->health.MarkUp(*epoch);
      ++live;
    } else {
      last = epoch.status();
      member->health.MarkDown();
      if (members_.size() > 1) {
        TURBDB_LOG(Warning) << DebugName() << ": "
                            << member->node->DebugName()
                            << " down at bring-up: " << last.ToString();
      }
    }
  }
  if (live == 0) return last;
  return Status::OK();
}

void ReplicaGroup::FailMember(Member* member, const Status& failure) {
  member->health.MarkDown();
  member->health.NoteFailover();
  TURBDB_LOG(Warning) << DebugName() << ": failing over off "
                      << member->node->DebugName() << ": "
                      << failure.ToString();
}

Status ReplicaGroup::Recover(Member* member, uint64_t new_epoch) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  // Another query may have finished the same recovery while we waited.
  if (member->health.healthy() &&
      member->health.epoch() == new_epoch) {
    return Status::OK();
  }
  Member* donor = nullptr;
  for (auto& candidate : members_) {
    if (candidate.get() != member && candidate->health.healthy()) {
      donor = candidate.get();
      break;
    }
  }
  if (donor == nullptr) {
    if (members_.size() > 1) {
      return Status::Unavailable(DebugName() +
                                 ": no healthy donor to re-sync " +
                                 member->node->DebugName());
    }
    // A single-replica shard has no donor — and needs none: its durable
    // stores plus the write-ahead-log replay it ran at startup already
    // hold every acknowledged atom (and nothing could have been written
    // while the sole member was down). Only the volatile dataset catalog
    // is gone; re-register it and the node serves from its own disk.
    TURBDB_LOG(Warning) << DebugName() << ": " << member->node->DebugName()
                        << " restarted (epoch " << new_epoch
                        << "); re-registering its catalog (no donor, "
                        << "self-recovery from durable stores)";
    TURBDB_RETURN_NOT_OK(RegisterCatalog(member->node.get(), *catalog_));
    member->health.MarkUp(new_epoch);
    return Status::OK();
  }
  TURBDB_LOG(Warning) << DebugName() << ": " << member->node->DebugName()
                      << " restarted (epoch " << new_epoch
                      << "); re-syncing from " << donor->node->DebugName();
  auto report =
      ResyncReplica(member->node.get(), donor->node.get(), *catalog_);
  if (!report.ok()) return report.status();
  member->health.MarkUp(new_epoch);
  return Status::OK();
}

bool ReplicaGroup::EnsureUsable(Member* member) {
  if (member->health.healthy()) return true;
  if (!member->health.ShouldProbe()) return false;
  auto epoch = member->node->Handshake();
  if (!epoch.ok()) return false;
  if (*epoch != member->health.epoch() || member->health.missed_writes()) {
    Status recovered = Recover(member, *epoch);
    if (!recovered.ok()) {
      TURBDB_LOG(Warning) << DebugName() << ": cannot re-sync "
                          << member->node->DebugName() << ": "
                          << recovered.ToString();
      return false;
    }
  }
  member->health.MarkUp(*epoch);
  return true;
}

bool ReplicaGroup::TryRecoverStale(Member* member) {
  auto epoch = member->node->Handshake();
  if (!epoch.ok()) return false;
  if (*epoch == member->health.epoch()) return false;
  Status recovered = Recover(member, *epoch);
  if (!recovered.ok()) {
    TURBDB_LOG(Warning) << DebugName() << ": cannot re-sync "
                        << member->node->DebugName() << ": "
                        << recovered.ToString();
    return false;
  }
  return true;
}

Status ReplicaGroup::FanOutWrite(
    const std::function<Status(RemoteNode*)>& write) {
  Status last;
  int accepted = 0;
  for (auto& member : members_) {
    if (!EnsureUsable(member.get())) {
      member->health.NoteMissedWrite();
      continue;
    }
    Status status = write(member->node.get());
    if (status.ok()) {
      ++accepted;
      continue;
    }
    if (!IsTransportFailure(status)) return status;
    FailMember(member.get(), status);
    member->health.NoteMissedWrite();
    last = status;
  }
  if (accepted == 0) {
    return last.ok() ? Status::Unreachable(DebugName() + ": all replicas down")
                     : last;
  }
  return Status::OK();
}

Status ReplicaGroup::CreateDataset(const DatasetInfo& info, int num_shards,
                                   PartitionStrategy strategy) {
  return FanOutWrite([&](RemoteNode* node) {
    return node->CreateDataset(info, num_shards, strategy);
  });
}

Status ReplicaGroup::IngestAtoms(const std::string& dataset,
                                 const std::string& field,
                                 const std::vector<Atom>& atoms) {
  return FanOutWrite([&](RemoteNode* node) {
    return node->IngestAtoms(dataset, field, atoms);
  });
}

Status ReplicaGroup::DropCacheEntries(const std::string& dataset,
                                      const std::string& field,
                                      int32_t timestep) {
  net::NodeDropCacheRequest request;
  request.dataset = dataset;
  request.field = field;
  request.timestep = timestep;
  return FanOutWrite(
      [&](RemoteNode* node) { return node->Call(request).status(); });
}

template <class T>
Result<T> ReplicaGroup::Read(const std::string& dataset,
                             const std::string& field,
                             const std::function<Result<T>(Member*)>& fn) {
  Status last = Status::Unreachable(DebugName() + ": all replicas down");
  for (size_t index = 0; index < members_.size(); ++index) {
    Member* member = members_[index].get();
    if (!EnsureUsable(member)) continue;
    Result<T> result = fn(member);
    if (result.ok()) return result;
    last = result.status();
    if (last.code() == StatusCode::kCorruption) {
      // The member's store is rotting, not its transport: the node stays
      // up (no breaker trip), the read fails over to a sibling, and a
      // background read-repair is queued so the rot heals instead of
      // being re-served.
      corruption_failovers_.fetch_add(1, std::memory_order_relaxed);
      TURBDB_LOG(Warning) << DebugName() << ": corrupt read on "
                          << member->node->DebugName()
                          << "; failing over and queueing read-repair: "
                          << last.ToString();
      EnqueueRepair(dataset, field, index);
      continue;
    }
    if (IsTransportFailure(last)) {
      FailMember(member, last);
      continue;
    }
    return last;
  }
  return last;
}

Result<NodeOutcome> ReplicaGroup::Execute(const NodeQuery& query) {
  auto outcome = Read<NodeOutcome>(
      query.dataset->name, query.raw_field,
      [&](Member* member) -> Result<NodeOutcome> {
        auto first = member->node->Execute(query);
        if (first.ok()) return first;
        // A typed error from a member that restarted under us (and whose
        // datasets are therefore unregistered) deserves one re-sync and
        // retry. An expired or cancelled query says nothing about a
        // restart, and re-syncing would dial a possibly stalled member on
        // a fresh deadline.
        const StatusCode code = first.status().code();
        if (IsTransportFailure(first.status()) ||
            code == StatusCode::kCorruption ||
            code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kCancelled || !TryRecoverStale(member)) {
          return first;
        }
        return member->node->Execute(query);
      });
  if (outcome.ok()) outcome->node_id = group_id_;
  return outcome;
}

void ReplicaGroup::Cancel(uint64_t query_id) {
  for (auto& member : members_) {
    // Quarantined or down members are skipped: nothing of ours runs
    // there, and dialing them is what the breaker exists to avoid.
    if (!member->health.healthy()) continue;
    member->node->Cancel(query_id);
  }
}

Result<uint64_t> ReplicaGroup::StoredAtomCount(const std::string& dataset,
                                               const std::string& field) {
  return Read<uint64_t>(dataset, field, [&](Member* member) {
    return StoredAtoms(member->node.get(), dataset, field);
  });
}

uint64_t ReplicaGroup::failover_count() const {
  uint64_t total = 0;
  for (const auto& member : members_) total += member->health.failovers();
  return total;
}

Result<net::NodeSyncRangeReply> ReplicaGroup::SyncRange(
    const net::NodeSyncRangeRequest& request) {
  return Read<net::NodeSyncRangeReply>(
      request.dataset, request.field,
      [&](Member* member) { return member->node->Call(request); });
}

Status ReplicaGroup::IngestSkippingExisting(const std::string& dataset,
                                            const std::string& field,
                                            const std::vector<Atom>& atoms) {
  for (auto& member : members_) {
    TURBDB_RETURN_NOT_OK(member->node->IngestAtoms(dataset, field, atoms,
                                                   /*skip_existing=*/true));
  }
  return Status::OK();
}

Status ReplicaGroup::Cutover(const net::CutoverRequest& request) {
  for (auto& member : members_) {
    TURBDB_RETURN_NOT_OK(member->node->Call(request).status());
  }
  return Status::OK();
}

std::vector<ReplicaGroup::MemberStatus> ReplicaGroup::Snapshot() const {
  std::vector<MemberStatus> statuses;
  statuses.reserve(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member& member = *members_[i];
    MemberStatus status;
    status.node_id = member.node->id();
    status.address = member.node->address().ToString();
    status.primary = i == 0;
    status.healthy = member.health.healthy();
    status.epoch = member.health.epoch();
    status.failovers = member.health.failovers();
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace turbdb
