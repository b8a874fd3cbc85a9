#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "txn/txn_manager.h"

namespace turbdb {

/// An ordered key-value table with multi-version concurrency control,
/// providing snapshot-isolation semantics when accessed through
/// Transaction handles issued by a TransactionManager.
///
/// - Readers never block: Get/Scan resolve against the newest version
///   committed at or before the transaction's begin timestamp, plus the
///   transaction's own buffered writes.
/// - Writers buffer into a per-transaction write set; at commit the
///   TransactionManager calls back into the table to run the
///   first-committer-wins conflict check and install the versions.
/// - Superseded versions are reclaimed by GarbageCollect(horizon).
/// - A key's first version is stored inline in its map node; only keys
///   that are updated or deleted allocate room for later versions (most
///   cache rows are written once and never change).
///
/// This is the storage substrate for the semantic cache's cacheInfo and
/// slot tables (the paper keeps its cache tables in SQL Server under
/// snapshot isolation; see Sec. 4).
template <typename K, typename V>
class VersionedTable {
 public:
  VersionedTable() = default;
  VersionedTable(const VersionedTable&) = delete;
  VersionedTable& operator=(const VersionedTable&) = delete;

  /// Buffers an insert/update of `key` in `txn`'s write set.
  void Put(Transaction* txn, const K& key, V value) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    PendingSet& pending = GetPendingLocked(txn);
    pending.writes[key] = PendingWrite{false, std::move(value)};
  }

  /// Buffers a deletion of `key` in `txn`'s write set.
  void Delete(Transaction* txn, const K& key) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    PendingSet& pending = GetPendingLocked(txn);
    pending.writes[key] = PendingWrite{true, V{}};
  }

  /// Snapshot read of `key` (own buffered writes win over the snapshot).
  Result<V> Get(Transaction* txn, const K& key) const {
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      auto pending_it = pending_.find(txn->id());
      if (pending_it != pending_.end()) {
        auto write_it = pending_it->second->writes.find(key);
        if (write_it != pending_it->second->writes.end()) {
          if (write_it->second.deleted) return Status::NotFound("deleted");
          return write_it->second.value;
        }
      }
    }
    std::shared_lock lock(versions_mutex_);
    auto it = versions_.find(key);
    if (it == versions_.end()) return Status::NotFound("no such key");
    const Version* version = ResolveVisible(it->second, txn->begin_ts());
    if (version == nullptr || version->deleted) {
      return Status::NotFound("no visible version");
    }
    return version->value;
  }

  /// Ordered snapshot scan over [lo, hi); `fn` may return false to stop.
  void Scan(Transaction* txn, const K& lo, const K& hi,
            const std::function<bool(const K&, const V&)>& fn) const {
    // Snapshot the transaction's own writes in range first.
    std::map<K, PendingWrite> own;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      auto pending_it = pending_.find(txn->id());
      if (pending_it != pending_.end()) {
        auto it = pending_it->second->writes.lower_bound(lo);
        for (; it != pending_it->second->writes.end() && it->first < hi; ++it) {
          own.emplace(it->first, it->second);
        }
      }
    }
    std::shared_lock lock(versions_mutex_);
    auto committed = versions_.lower_bound(lo);
    auto own_it = own.begin();
    // Merge the committed snapshot with the transaction's own writes.
    while (committed != versions_.end() && committed->first < hi) {
      while (own_it != own.end() && own_it->first < committed->first) {
        if (!own_it->second.deleted) {
          if (!fn(own_it->first, own_it->second.value)) return;
        }
        ++own_it;
      }
      if (own_it != own.end() && own_it->first == committed->first) {
        if (!own_it->second.deleted) {
          if (!fn(own_it->first, own_it->second.value)) return;
        }
        ++own_it;
      } else {
        const Version* version =
            ResolveVisible(committed->second, txn->begin_ts());
        if (version != nullptr && !version->deleted) {
          if (!fn(committed->first, version->value)) return;
        }
      }
      ++committed;
    }
    for (; own_it != own.end(); ++own_it) {
      if (!own_it->second.deleted) {
        if (!fn(own_it->first, own_it->second.value)) return;
      }
    }
  }

  /// Number of keys with at least one visible-to-latest version.
  /// (Intended for tests and metrics, not query planning.)
  size_t LiveKeyCount(Timestamp as_of) const {
    std::shared_lock lock(versions_mutex_);
    size_t count = 0;
    for (const auto& [key, chain] : versions_) {
      const Version* version = ResolveVisible(chain, as_of);
      if (version != nullptr && !version->deleted) ++count;
    }
    return count;
  }

  /// Drops versions superseded as of `horizon` and empty chains.
  /// Returns the number of versions reclaimed.
  size_t GarbageCollect(Timestamp horizon) {
    std::unique_lock lock(versions_mutex_);
    size_t reclaimed = 0;
    for (auto it = versions_.begin(); it != versions_.end();) {
      Chain& chain = it->second;
      // Find the newest version at or before the horizon: everything
      // older than it is invisible to every current and future snapshot.
      size_t keep_from = 0;
      for (size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].commit_ts <= horizon) keep_from = i;
      }
      if (keep_from > 0) {
        reclaimed += keep_from;
        chain.DropOldest(keep_from);
      }
      if (chain.size() == 1 && chain[0].deleted &&
          chain[0].commit_ts <= horizon) {
        reclaimed += 1;
        it = versions_.erase(it);
      } else {
        ++it;
      }
    }
    return reclaimed;
  }

 private:
  struct Version {
    Timestamp commit_ts = 0;
    bool deleted = false;
    V value{};
  };
  struct PendingWrite {
    bool deleted = false;
    V value{};
  };

  /// One key's versions, oldest first: the first inline, later ones in a
  /// vector allocated on the first update (null or non-empty).
  struct Chain {
    explicit Chain(Version version) : first(std::move(version)) {}

    size_t size() const { return 1 + (later ? later->size() : 0); }
    const Version& operator[](size_t i) const {
      return i == 0 ? first : (*later)[i - 1];
    }
    const Version& back() const { return later ? later->back() : first; }

    void Append(Version version) {
      if (!later) later = std::make_unique<std::vector<Version>>();
      later->push_back(std::move(version));
    }

    /// Drops the `count` oldest versions; `count` < size().
    void DropOldest(size_t count) {
      first = std::move((*later)[count - 1]);
      later->erase(later->begin(), later->begin() + count);
      if (later->empty()) later.reset();
    }

    Version first;
    std::unique_ptr<std::vector<Version>> later;
  };

  /// Per-transaction buffered writes; registered with the transaction as
  /// a TxnParticipant so commit/abort flow back into the table.
  struct PendingSet : public TxnParticipant {
    PendingSet(VersionedTable* t, uint64_t id) : table(t), txn_id(id) {}

    Status CheckWriteConflicts(Timestamp begin_ts) override {
      std::shared_lock lock(table->versions_mutex_);
      for (const auto& [key, write] : writes) {
        auto it = table->versions_.find(key);
        if (it == table->versions_.end()) continue;
        if (it->second.back().commit_ts > begin_ts) {
          return Status::Aborted("write-write conflict");
        }
      }
      return Status::OK();
    }

    void ApplyWrites(Timestamp commit_ts) override {
      {
        std::unique_lock lock(table->versions_mutex_);
        for (auto& [key, write] : writes) {
          Version version{commit_ts, write.deleted, std::move(write.value)};
          // try_emplace leaves `version` alone when the key exists.
          auto [it, inserted] =
              table->versions_.try_emplace(key, std::move(version));
          if (!inserted) it->second.Append(std::move(version));
        }
      }
      table->ErasePending(txn_id);
    }

    void DiscardWrites() override { table->ErasePending(txn_id); }

    VersionedTable* table;
    uint64_t txn_id;
    std::map<K, PendingWrite> writes;
  };

  PendingSet& GetPendingLocked(Transaction* txn) {
    auto it = pending_.find(txn->id());
    if (it == pending_.end()) {
      auto pending = std::make_unique<PendingSet>(this, txn->id());
      PendingSet* raw = pending.get();
      pending_.emplace(txn->id(), std::move(pending));
      txn->AddParticipant(raw);
      return *raw;
    }
    return *it->second;
  }

  void ErasePending(uint64_t txn_id) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.erase(txn_id);
  }

  static const Version* ResolveVisible(const Chain& chain, Timestamp as_of) {
    const Version* visible = nullptr;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].commit_ts <= as_of) visible = &chain[i];
    }
    return visible;
  }

  mutable std::shared_mutex versions_mutex_;
  std::map<K, Chain> versions_;

  mutable std::mutex pending_mutex_;
  std::map<uint64_t, std::unique_ptr<PendingSet>> pending_;
};

}  // namespace turbdb
