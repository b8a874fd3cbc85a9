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
#include "common/governor.h"
#include "common/result.h"

namespace turbdb {

/// Aggregate counters of the mediator-tier result cache, snapshotted for
/// the CacheStats RPC and the server-stats reply.
struct MediatorCacheStats {
  uint64_t hits = 0;              ///< Lookups answered from the cache.
  uint64_t misses = 0;            ///< Lookups that found no subsuming entry.
  uint64_t subsumption_hits = 0;  ///< Hits by a strictly larger entry.
  uint64_t insertions = 0;        ///< Entries committed.
  uint64_t evictions = 0;         ///< Entries removed by LRU pressure.
  uint64_t invalidations = 0;     ///< Entries removed by ingest/drop.
  uint64_t stale_inserts = 0;     ///< Inserts rejected by an epoch bump.
  uint64_t entries = 0;           ///< Resident entries right now.
  uint64_t bytes = 0;             ///< Resident bytes right now.
  uint64_t pinned_entries = 0;    ///< Entries exempt from eviction.
  uint64_t pinned_bytes = 0;      ///< Their bytes.
  uint64_t capacity_bytes = 0;    ///< Configured ceiling (0 = disabled).
};

/// Outcome of a mediator-cache interrogation.
struct MediatorCacheLookup {
  bool hit = false;
  /// True when the serving entry was strictly larger than the query
  /// (bigger region or lower stored threshold) — i.e. a subsumption
  /// answer rather than an exact repeat.
  bool subsumed = false;
  /// Cached points filtered to the query box and threshold, in z order.
  std::vector<ThresholdPoint> points;
  /// PointsXmlSize(points), summed from the element sizes the entry keeps
  /// per row, so a hit does no per-point size math.
  uint64_t xml_bytes = 0;
};

/// The mediator-tier semantic result cache: an in-memory, mutex-sharded
/// cache of completed threshold-query results, keyed by (dataset, field,
/// FD order, time-step) and answered by subsumption — an entry with
/// region R and stored threshold ks serves any query with box q ⊆ R and
/// threshold k ≥ ks, by filtering the cached points to q and norm ≥ k
/// (the same containment semantics as the node-local `SemanticCache`,
/// Sec. 4 of the paper, lifted to the cluster entry point so a repeat
/// query pays zero node RPCs).
///
/// Lookup cost: an entry's rows are z-sorted, so a query box maps to the
/// Morton ranges of the 8^3 cells it touches, each one contiguous run of
/// rows; a hit visits only those runs (a box equal to the entry's region
/// visits every row and tests the threshold alone).
///
/// Concurrency: the key space is hash-sharded over `kNumShards`
/// independently locked shards; lookups and inserts for different keys
/// never contend. An entry's rows are immutable and shared: a lookup
/// picks its entry under the shard lock and filters the rows after
/// releasing it, so an invalidation or eviction racing the filter only
/// drops the cache's reference. Replacement is least-recently-used
/// across all shards (a global atomic tick orders recency; eviction scans
/// shards one lock at a time, so no two shard locks are ever held
/// together). Entries can be pinned, which exempts them from LRU
/// eviction — but never from invalidation: an ingest or explicit drop
/// always wins over a pin, because serving stale data is worse than
/// re-computing.
///
/// First-committer-wins: two queries racing to insert the same
/// (key, region) collide under the shard lock and the second insert is
/// dropped (or, when it carries a strictly lower threshold and therefore
/// a superset of the points, replaces the first) — mirroring the
/// CacheSlotKey conflict rule of the node-local cache, so concurrent
/// identical queries never duplicate an entry.
///
/// Staleness: every mutation that changes what the backing store would
/// answer (ingest, drop-cache) bumps a global epoch. Callers snapshot
/// `epoch()` before dispatching the query and pass it to `Insert`; an
/// insert whose epoch is stale is discarded, so a result computed before
/// an ingest can never be cached after it.
///
/// Accounting: every resident byte is charged to a `ResourceGovernor`
/// ledger via an RAII reservation held by the entry. By default that is
/// a private unlimited governor (pure bookkeeping); `AttachLedger` points
/// new reservations at a shared governor — the server attaches its
/// result-byte governor so cache residency competes with in-flight
/// results and shows up in `server-stats`. Reservations are fail-fast:
/// when the ledger is under pressure the cache first evicts its own LRU
/// entries, then gives up and skips caching (best-effort, like the
/// node-local cache) — it never blocks a query.
class MediatorCache {
 public:
  /// `capacity_bytes` bounds resident entry bytes; 0 disables the cache
  /// entirely (every Lookup misses, every Insert is a no-op).
  explicit MediatorCache(uint64_t capacity_bytes);

  MediatorCache(const MediatorCache&) = delete;
  MediatorCache& operator=(const MediatorCache&) = delete;

  bool enabled() const { return capacity_bytes_ > 0; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Routes new reservations through `governor` (nullptr restores the
  /// internal ledger). Existing entries keep their original reservation,
  /// which releases against whichever governor issued it — call this at
  /// startup, before the cache holds anything, for exact accounting.
  void AttachLedger(ResourceGovernor* governor);

  /// Interrogates the cache for (dataset, field, fd_order, timestep,
  /// box, threshold). `field` is the derived-field cache key
  /// ("<raw>:<derived>"). A hit returns the cached points filtered to
  /// the box and threshold, in z order — exactly the uncached answer —
  /// and their XML size.
  MediatorCacheLookup Lookup(const std::string& dataset,
                             const std::string& field, int fd_order,
                             int32_t timestep, const Box3& box,
                             double threshold);

  /// Records a completed result: `points` are all points of `region`
  /// with norm >= `threshold`, z-sorted (sorted here if they are not).
  /// `as_of_epoch` must be the `epoch()` observed before the query
  /// dispatched; a mismatch means the data changed mid-query and the
  /// insert is discarded. Best effort: evicts LRU entries to make room,
  /// and stores nothing when the entry cannot fit (capacity or ledger
  /// pressure).
  void Insert(const std::string& dataset, const std::string& field,
              int fd_order, int32_t timestep, const Box3& region,
              double threshold, const std::vector<ThresholdPoint>& points,
              uint64_t as_of_epoch);

  /// The current invalidation epoch; snapshot before dispatching.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Drops every entry for (dataset, field [, timestep]); timestep -1
  /// matches all time-steps. Bumps the epoch. Returns entries dropped.
  uint64_t Invalidate(const std::string& dataset, const std::string& field,
                      int32_t timestep);

  /// Drops every entry whose derived field was computed from
  /// `raw_field` (field keys "<raw_field>:*") for `timestep` (-1 = all).
  /// The ingest path calls this: new raw data invalidates every derived
  /// result built from it. Bumps the epoch.
  uint64_t InvalidateRawField(const std::string& dataset,
                              const std::string& raw_field, int32_t timestep);

  /// Drops everything and bumps the epoch. Returns entries dropped.
  uint64_t Clear();

  /// Pins (exempts from LRU eviction) every entry for (dataset, field
  /// [, timestep]); -1 matches all. Returns entries affected. Pinned
  /// entries are still removed by Invalidate/Clear.
  uint64_t Pin(const std::string& dataset, const std::string& field,
               int32_t timestep);
  uint64_t Unpin(const std::string& dataset, const std::string& field,
                 int32_t timestep);

  MediatorCacheStats stats() const;

  /// Resident-byte charge of one cached point (the in-memory row).
  static constexpr uint64_t kBytesPerPoint = sizeof(ThresholdPoint);
  /// Fixed per-entry charge (key strings, region, bookkeeping).
  static constexpr uint64_t kEntryOverhead = 256;

 private:
  /// Semantic identity of a cacheable result set, minus the region.
  struct Key {
    std::string dataset;
    std::string field;
    int32_t fd_order = 4;
    int32_t timestep = 0;

    bool operator<(const Key& other) const {
      return std::tie(dataset, field, fd_order, timestep) <
             std::tie(other.dataset, other.field, other.fd_order,
                      other.timestep);
    }
  };

  /// One cached point: a ThresholdPoint's fields, with the size of its
  /// XML element (PointXmlSize) in what is ThresholdPoint's padding.
  struct Row {
    uint64_t zindex = 0;
    float norm = 0.0f;
    uint32_t xml_bytes = 0;
  };
  static_assert(sizeof(Row) == kBytesPerPoint);

  struct Entry {
    Box3 region;
    double threshold = 0.0;
    /// Z-sorted and never modified once inserted: lookups filter it
    /// outside the shard lock.
    std::shared_ptr<const std::vector<Row>> rows;
    uint64_t bytes = 0;
    uint64_t tick = 0;  ///< Last-use recency; unique (global counter).
    bool pinned = false;
    ResourceGovernor::ByteReservation reservation;
  };

  static constexpr int kNumShards = 16;

  struct Shard {
    mutable std::mutex mutex;
    std::map<Key, std::vector<Entry>> entries;
  };

  Shard& ShardFor(const Key& key);

  /// Evicts LRU unpinned entries until resident bytes + `needed` fit the
  /// capacity. Never holds two shard locks at once.
  void EvictUntilFits(uint64_t needed);

  /// Evicts the globally-oldest unpinned entry; false when none exist.
  bool EvictOldest();

  /// Removes entries matching the predicate in every shard, bumps the
  /// epoch, counts them as invalidations. `drop` decides per entry.
  template <typename Pred>
  uint64_t InvalidateMatching(const Pred& pred);

  /// Sets the pinned flag on matching entries; returns entries changed.
  uint64_t SetPinned(const std::string& dataset, const std::string& field,
                     int32_t timestep, bool pinned);

  const uint64_t capacity_bytes_;

  /// Internal no-limit ledger used until AttachLedger provides one.
  ResourceGovernor internal_ledger_;
  std::atomic<ResourceGovernor*> ledger_;

  Shard shards_[kNumShards];

  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> total_entries_{0};
  std::atomic<uint64_t> pinned_bytes_{0};
  std::atomic<uint64_t> pinned_entries_{0};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> subsumption_hits_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> stale_inserts_{0};
};

}  // namespace turbdb
