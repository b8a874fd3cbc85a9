#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "array/box.h"
#include "array/point.h"
#include "common/profile.h"
#include "common/result.h"
#include "storage/device.h"
#include "txn/txn_manager.h"
#include "txn/versioned_table.h"

namespace turbdb {

/// Primary key of the cacheInfo table. The natural-key prefix
/// (dataset, field, fd_order, timestep) lets a lookup range-scan exactly
/// the entries that can possibly serve a query — the analogue of the
/// paper's index on (dataset, field, timestep). The FD order participates
/// in the key because different stencil orders produce different derived
/// values, so their results must never be substituted for each other.
/// The owning cache interns (dataset, field) to `field_id`, so a key is
/// 24 bytes and allocates nothing; within a prefix, entries scan by
/// ordinal.
struct CacheInfoKey {
  uint32_t field_id = 0;
  int32_t fd_order = 4;
  int32_t timestep = 0;
  uint64_t ordinal = 0;

  bool operator<(const CacheInfoKey& other) const {
    return std::tie(field_id, fd_order, timestep, ordinal) <
           std::tie(other.field_id, other.fd_order, other.timestep,
                    other.ordinal);
  }
  bool operator==(const CacheInfoKey& other) const {
    return !(*this < other) && !(other < *this);
  }
};

/// Metadata of one cached threshold-query result (a cacheInfo row):
/// the spatial region examined and the threshold used, which together
/// define the semantic description the containment test runs against.
struct CacheInfoRecord {
  Box3 region;
  double threshold = 0.0;
  uint64_t num_points = 0;
};

/// Key of the slot table: the full semantic identity of an entry
/// including its region. Every insert writes its slot row, so two
/// transactions caching the same region concurrently collide on this key
/// and snapshot isolation's first-committer-wins serializes them —
/// otherwise both would commit under distinct ordinals and duplicate the
/// entry.
struct CacheSlotKey {
  uint32_t field_id = 0;  ///< Interned (dataset, field), as in CacheInfoKey.
  int32_t fd_order = 4;
  int32_t timestep = 0;
  Box3 region;

  bool operator<(const CacheSlotKey& other) const {
    const auto lhs = std::tie(field_id, fd_order, timestep);
    const auto rhs = std::tie(other.field_id, other.fd_order, other.timestep);
    if (lhs != rhs) return lhs < rhs;
    return std::tie(region.lo, region.hi) <
           std::tie(other.region.lo, other.region.hi);
  }
  bool operator==(const CacheSlotKey& other) const {
    return !(*this < other) && !(other < *this);
  }
};

/// Primary key of the cacheData table; clustered by (ordinal, zindex) so
/// one entry's points are retrieved with a single range scan.
struct CacheDataKey {
  uint64_t ordinal = 0;
  uint64_t zindex = 0;

  bool operator<(const CacheDataKey& other) const {
    return std::tie(ordinal, zindex) < std::tie(other.ordinal, other.zindex);
  }
  bool operator==(const CacheDataKey& other) const {
    return ordinal == other.ordinal && zindex == other.zindex;
  }
};

/// Outcome of a cache interrogation.
struct CacheLookup {
  bool hit = false;
  std::vector<ThresholdPoint> points;  ///< Filtered to box and threshold.
  double lookup_cost_s = 0.0;          ///< Modeled SSD time.
  IoCounters io;
};

/// The application-aware semantic cache for threshold-query results
/// (Sec. 4 of the paper, Algorithm 1 lines 4-25).
///
/// One instance lives on each database node; its two tables reside on the
/// node's SSD (by cost model). A query with box q and threshold k hits if
/// some entry for the same (dataset, field, FD order, time-step) has
/// region ⊇ q and stored threshold ks <= k: the cached points, filtered
/// to q and k, are then exactly the correct answer, because every point
/// of q whose norm >= k >= ks was recorded when the entry was built.
///
/// All reads and updates run in snapshot-isolation transactions, so
/// concurrent queries never see a cacheInfo row without its cacheData
/// rows, and never deadlock (the paper relies on SQL Server snapshot
/// isolation for the same reasons). Replacement is least-recently-used
/// across all entries; the LRU clock is kept outside the versioned
/// tables so that read-only lookups do not create write conflicts.
class SemanticCache {
 public:
  /// `capacity_bytes` bounds the modeled on-SSD footprint (the paper's
  /// ~200 GB of SSD per node); 0 disables caching entirely ("no cache"
  /// baseline in Fig. 6).
  SemanticCache(TransactionManager* txn_manager, DeviceSpec ssd_spec,
                uint64_t capacity_bytes);

  /// Algorithm 1, lines 4-28: interrogate the cache for (dataset, field,
  /// timestep, fd_order, box, threshold).
  Result<CacheLookup> Lookup(const std::string& dataset,
                             const std::string& field, int32_t timestep,
                             int fd_order, const Box3& box, double threshold);

  /// Algorithm 1, line 37: record a freshly computed result. `region` is
  /// the full region that was examined (typically the node's portion of
  /// the time-step); `points` are all points in `region` with norm >=
  /// `threshold`. Replaces any existing entry for the same semantic key
  /// whose region equals `region` (the stored-threshold-too-high update
  /// path), and evicts LRU entries until the new entry fits. Retries
  /// internally on snapshot conflicts; if capacity is too small for the
  /// entry, stores nothing and returns OK (caching is best-effort).
  /// If `cost_s` is non-null, the modeled SSD write time is added to it.
  Status Insert(const std::string& dataset, const std::string& field,
                int32_t timestep, int fd_order, const Box3& region,
                double threshold, const std::vector<ThresholdPoint>& points,
                double* cost_s = nullptr);

  /// Drops every entry for the given time-step (used by the benchmarks to
  /// force cache misses exactly as the paper's experiments drop cache
  /// entries for the queried time-step). A timestep of -1 drops all.
  Status Evict(const std::string& dataset, const std::string& field,
               int32_t timestep);

  uint64_t entry_count() const;
  uint64_t used_bytes() const { return used_bytes_.load(); }

  /// Reclaims MVCC versions superseded before every active snapshot.
  /// Runs automatically every kGcInterval successful inserts; exposed
  /// for tests and maintenance. Returns the number of versions dropped.
  size_t GarbageCollect();
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  bool enabled() const { return capacity_bytes_ > 0; }

  /// Modeled on-SSD footprint of one cached point, including index and
  /// row overhead (~40 bytes: the paper sizes 1e6 points at ~40 MB).
  static constexpr uint64_t kBytesPerPoint = 40;
  /// Modeled footprint of one cacheInfo row.
  static constexpr uint64_t kBytesPerInfoRecord = 128;

 private:
  /// Per-entry bookkeeping kept outside the versioned tables.
  struct EntryMeta {
    CacheInfoKey key;
    uint64_t bytes = 0;
    uint64_t tick = 0;  ///< LRU clock at the entry's last use.
  };

  /// The field id of (dataset, field), assigned on first use.
  uint32_t Intern(const std::string& dataset, const std::string& field);
  /// The field id of (dataset, field), or 0 if none was assigned.
  uint32_t FindFieldId(const std::string& dataset,
                       const std::string& field) const;

  Status InsertOnce(uint32_t field_id, int32_t timestep, int fd_order,
                    const Box3& region, double threshold,
                    const std::vector<ThresholdPoint>& points);

  /// Deletes one entry's rows inside `txn`; caller commits.
  void DeleteEntryInTxn(Transaction* txn, const CacheInfoKey& key,
                        const CacheInfoRecord& record);

  void TouchLru(uint64_t ordinal);

  TransactionManager* txn_manager_;
  DeviceModel ssd_;
  uint64_t capacity_bytes_;

  VersionedTable<CacheInfoKey, CacheInfoRecord> cache_info_;
  VersionedTable<CacheDataKey, float> cache_data_;
  VersionedTable<CacheSlotKey, uint64_t> cache_slots_;

  /// Successful inserts between automatic GC passes.
  static constexpr uint64_t kGcInterval = 64;

  std::atomic<uint64_t> next_ordinal_{1};
  std::atomic<uint64_t> used_bytes_{0};
  std::atomic<uint64_t> inserts_since_gc_{0};

  /// (dataset, field) -> field id; ids are never reused.
  mutable std::mutex field_ids_mutex_;
  std::map<std::pair<std::string, std::string>, uint32_t> field_ids_;

  /// LRU bookkeeping, maintained outside the versioned tables so that
  /// read-only lookups never create snapshot write conflicts. Guarded by
  /// lru_mutex_; updated only after a successful commit.
  mutable std::mutex lru_mutex_;
  std::map<uint64_t, EntryMeta> meta_;  ///< ordinal -> key, size, tick.
  std::atomic<uint64_t> lru_clock_{0};
};

}  // namespace turbdb
