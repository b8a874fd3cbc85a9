#include "cache/semantic_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace turbdb {

namespace {
constexpr int kInsertRetries = 5;
constexpr uint64_t kMaxOrdinal = UINT64_MAX;
}  // namespace

SemanticCache::SemanticCache(TransactionManager* txn_manager,
                             DeviceSpec ssd_spec, uint64_t capacity_bytes)
    : txn_manager_(txn_manager), ssd_(std::move(ssd_spec)),
      capacity_bytes_(capacity_bytes) {}

Result<CacheLookup> SemanticCache::Lookup(const std::string& dataset,
                                          const std::string& field,
                                          int32_t timestep, int fd_order,
                                          const Box3& box, double threshold) {
  CacheLookup lookup;
  if (!enabled()) return lookup;

  auto txn = txn_manager_->Begin();

  // Find a semantically sufficient entry: region containment plus
  // threshold subsumption (Algorithm 1, line 12). A (dataset, field)
  // never inserted has no field id and no entries.
  bool found = false;
  CacheInfoKey match_key;
  CacheInfoRecord match_record;
  uint64_t info_rows_scanned = 0;
  const uint32_t field_id = FindFieldId(dataset, field);
  if (field_id != 0) {
    cache_info_.Scan(
        txn.get(), CacheInfoKey{field_id, fd_order, timestep, 0},
        CacheInfoKey{field_id, fd_order, timestep, kMaxOrdinal},
        [&](const CacheInfoKey& key, const CacheInfoRecord& rec) {
          ++info_rows_scanned;
          if (rec.threshold <= threshold && rec.region.ContainsBox(box)) {
            found = true;
            match_key = key;
            match_record = rec;
            return false;
          }
          return true;
        });
  }
  lookup.io.cache_records_scanned += info_rows_scanned;
  lookup.io.cache_bytes_scanned += info_rows_scanned * kBytesPerInfoRecord;
  // The cacheInfo probe is a clustered-index lookup on the SSD.
  lookup.lookup_cost_s += ssd_.ChargeRead(
      info_rows_scanned * kBytesPerInfoRecord, /*ops=*/1, /*concurrent=*/1);

  if (!found) {
    TURBDB_CHECK_OK(txn_manager_->Commit(txn.get()));
    return lookup;
  }

  // Retrieve the entry's points with one range scan of cacheData
  // (Algorithm 1, lines 13-22), filtering to the query box and threshold.
  const CacheDataKey data_lo{match_key.ordinal, 0};
  const CacheDataKey data_hi{match_key.ordinal, UINT64_MAX};
  uint64_t data_rows = 0;
  cache_data_.Scan(txn.get(), data_lo, data_hi,
                   [&](const CacheDataKey& key, const float& norm) {
                     ++data_rows;
                     if (PassesThreshold(norm, threshold)) {
                       uint32_t x, y, z;
                       MortonDecode3(key.zindex, &x, &y, &z);
                       if (box.ContainsPoint(x, y, z)) {
                         lookup.points.push_back(
                             ThresholdPoint{key.zindex, norm});
                       }
                     }
                     return true;
                   });
  TURBDB_CHECK_OK(txn_manager_->Commit(txn.get()));

  lookup.hit = true;
  lookup.io.cache_records_scanned += data_rows;
  lookup.io.cache_bytes_scanned += data_rows * kBytesPerPoint;
  lookup.lookup_cost_s +=
      ssd_.ChargeRead(data_rows * kBytesPerPoint, /*ops=*/1, /*concurrent=*/1);
  TouchLru(match_key.ordinal);
  return lookup;
}

Status SemanticCache::Insert(const std::string& dataset,
                             const std::string& field, int32_t timestep,
                             int fd_order, const Box3& region,
                             double threshold,
                             const std::vector<ThresholdPoint>& points,
                             double* cost_s) {
  if (!enabled()) return Status::OK();
  const uint64_t needed =
      points.size() * kBytesPerPoint + kBytesPerInfoRecord;
  if (cost_s != nullptr) {
    // SSD writes of the new entry (sequential append, one positioning op
    // per table).
    *cost_s += ssd_.ChargeRead(needed, /*ops=*/2, /*concurrent=*/1);
  }
  if (needed > capacity_bytes_) {
    TURBDB_LOG(Info) << "cache entry of " << needed
                     << " bytes exceeds cache capacity; not cached";
    return Status::OK();
  }
  const uint32_t field_id = Intern(dataset, field);
  Status status;
  for (int attempt = 0; attempt < kInsertRetries; ++attempt) {
    status = InsertOnce(field_id, timestep, fd_order, region, threshold,
                        points);
    if (status.ok() &&
        inserts_since_gc_.fetch_add(1) + 1 >= kGcInterval) {
      inserts_since_gc_.store(0);
      GarbageCollect();
    }
    if (!status.IsAborted()) return status;
  }
  TURBDB_LOG(Warning) << "cache insert kept conflicting; giving up: "
                      << status.ToString();
  return Status::OK();  // Caching is best-effort; the query still succeeded.
}

Status SemanticCache::InsertOnce(uint32_t field_id, int32_t timestep,
                                 int fd_order, const Box3& region,
                                 double threshold,
                                 const std::vector<ThresholdPoint>& points) {
  const uint64_t needed =
      points.size() * kBytesPerPoint + kBytesPerInfoRecord;
  auto txn = txn_manager_->Begin();

  uint64_t freed = 0;
  std::vector<uint64_t> deleted_ordinals;

  // Replacement path: an entry for the same semantic key and region whose
  // stored threshold no longer serves (or is simply being refreshed) is
  // superseded by this insert.
  {
    const CacheInfoKey range_lo{field_id, fd_order, timestep, 0};
    const CacheInfoKey range_hi{field_id, fd_order, timestep, kMaxOrdinal};
    std::vector<std::pair<CacheInfoKey, CacheInfoRecord>> to_replace;
    cache_info_.Scan(txn.get(), range_lo, range_hi,
                     [&](const CacheInfoKey& key, const CacheInfoRecord& rec) {
                       if (rec.region == region) to_replace.push_back({key, rec});
                       return true;
                     });
    for (const auto& [key, rec] : to_replace) {
      DeleteEntryInTxn(txn.get(), key, rec);
      freed += rec.num_points * kBytesPerPoint + kBytesPerInfoRecord;
      deleted_ordinals.push_back(key.ordinal);
    }
  }

  // The LRU/meta bookkeeping mutex is held from here through the commit:
  // otherwise a concurrent transaction that replaces or evicts the entry
  // we are about to register could update the books first, leaving a
  // stale meta record behind (observed as a duplicate-entry overcount
  // under the concurrent-insert stress test).
  std::lock_guard<std::mutex> lru_lock(lru_mutex_);

  // LRU eviction until the new entry fits (Algorithm 1's "space is freed
  // up by removing the least recently used data across all quantities").
  {
    auto by_age = [&]() {
      uint64_t best_ordinal = 0;
      uint64_t best_tick = UINT64_MAX;
      for (const auto& [ordinal, meta] : meta_) {
        if (std::find(deleted_ordinals.begin(), deleted_ordinals.end(),
                      ordinal) != deleted_ordinals.end()) {
          continue;
        }
        if (meta.tick < best_tick) {
          best_tick = meta.tick;
          best_ordinal = ordinal;
        }
      }
      return best_ordinal;
    };
    while (used_bytes_.load() + needed > capacity_bytes_ + freed) {
      const uint64_t victim = by_age();
      if (victim == 0) break;  // Nothing left to evict.
      auto meta_it = meta_.find(victim);
      TURBDB_CHECK(meta_it != meta_.end());
      // Re-read the record under the transaction for the authoritative
      // point count (meta_ carries the key).
      auto record = cache_info_.Get(txn.get(), meta_it->second.key);
      if (record.ok()) {
        DeleteEntryInTxn(txn.get(), meta_it->second.key, record.value());
        freed += meta_it->second.bytes;
      }
      deleted_ordinals.push_back(victim);
    }
  }

  // Install the new entry. The slot row serializes concurrent inserts of
  // the same semantic region (see CacheSlotKey).
  const uint64_t ordinal = next_ordinal_.fetch_add(1);
  cache_slots_.Put(txn.get(),
                   CacheSlotKey{field_id, fd_order, timestep, region},
                   ordinal);
  const CacheInfoKey key{field_id, fd_order, timestep, ordinal};
  CacheInfoRecord record;
  record.region = region;
  record.threshold = threshold;
  record.num_points = points.size();
  cache_info_.Put(txn.get(), key, record);
  for (const ThresholdPoint& point : points) {
    cache_data_.Put(txn.get(), CacheDataKey{ordinal, point.zindex},
                    point.norm);
  }

  TURBDB_RETURN_NOT_OK(txn_manager_->Commit(txn.get()));

  // Commit succeeded: update the byte accounting and LRU bookkeeping
  // (still under lru_mutex_, see above).
  for (uint64_t dead : deleted_ordinals) meta_.erase(dead);
  meta_[ordinal] = EntryMeta{key, needed, lru_clock_.fetch_add(1) + 1};
  uint64_t bytes = used_bytes_.load();
  while (!used_bytes_.compare_exchange_weak(bytes, bytes + needed - freed)) {
  }
  return Status::OK();
}

void SemanticCache::DeleteEntryInTxn(Transaction* txn, const CacheInfoKey& key,
                                     const CacheInfoRecord& record) {
  cache_info_.Delete(txn, key);
  cache_slots_.Delete(txn, CacheSlotKey{key.field_id, key.fd_order,
                                        key.timestep, record.region});
  std::vector<CacheDataKey> data_keys;
  data_keys.reserve(record.num_points);
  cache_data_.Scan(txn, CacheDataKey{key.ordinal, 0},
                   CacheDataKey{key.ordinal, UINT64_MAX},
                   [&](const CacheDataKey& data_key, const float&) {
                     data_keys.push_back(data_key);
                     return true;
                   });
  for (const CacheDataKey& data_key : data_keys) {
    cache_data_.Delete(txn, data_key);
  }
}

Status SemanticCache::Evict(const std::string& dataset,
                            const std::string& field, int32_t timestep) {
  if (!enabled()) return Status::OK();
  for (int attempt = 0; attempt < kInsertRetries; ++attempt) {
    auto txn = txn_manager_->Begin();
    // lru_mutex_ is held through the commit so the bookkeeping can never
    // race a concurrent insert's (see InsertOnce). Every entry in meta_
    // had its field id assigned before it was registered there.
    std::lock_guard<std::mutex> lru_lock(lru_mutex_);
    std::vector<uint32_t> field_ids;
    if (!field.empty()) {
      const uint32_t field_id = FindFieldId(dataset, field);
      if (field_id != 0) field_ids.push_back(field_id);
    } else {
      std::lock_guard<std::mutex> lock(field_ids_mutex_);
      for (auto it = field_ids_.lower_bound({dataset, ""});
           it != field_ids_.end() && it->first.first == dataset; ++it) {
        field_ids.push_back(it->second);
      }
    }
    std::vector<std::pair<CacheInfoKey, CacheInfoRecord>> victims;
    for (const auto& [ordinal, meta] : meta_) {
      const CacheInfoKey& key = meta.key;
      if (std::find(field_ids.begin(), field_ids.end(), key.field_id) ==
          field_ids.end()) {
        continue;
      }
      if (timestep >= 0 && key.timestep != timestep) continue;
      auto record = cache_info_.Get(txn.get(), key);
      if (record.ok()) victims.push_back({key, record.value()});
    }
    uint64_t freed = 0;
    for (const auto& [key, record] : victims) {
      DeleteEntryInTxn(txn.get(), key, record);
      freed += record.num_points * kBytesPerPoint + kBytesPerInfoRecord;
    }
    Status status = txn_manager_->Commit(txn.get());
    if (status.IsAborted()) continue;
    TURBDB_RETURN_NOT_OK(status);
    for (const auto& [key, record] : victims) meta_.erase(key.ordinal);
    uint64_t bytes = used_bytes_.load();
    while (!used_bytes_.compare_exchange_weak(
        bytes, bytes >= freed ? bytes - freed : 0)) {
    }
    return Status::OK();
  }
  return Status::Aborted("cache eviction kept conflicting");
}

size_t SemanticCache::GarbageCollect() {
  const Timestamp horizon = txn_manager_->GcHorizon();
  size_t reclaimed = cache_info_.GarbageCollect(horizon);
  reclaimed += cache_data_.GarbageCollect(horizon);
  reclaimed += cache_slots_.GarbageCollect(horizon);
  return reclaimed;
}

uint64_t SemanticCache::entry_count() const {
  std::lock_guard<std::mutex> lru_lock(lru_mutex_);
  return meta_.size();
}

void SemanticCache::TouchLru(uint64_t ordinal) {
  std::lock_guard<std::mutex> lru_lock(lru_mutex_);
  auto it = meta_.find(ordinal);
  if (it != meta_.end()) it->second.tick = lru_clock_.fetch_add(1) + 1;
}

uint32_t SemanticCache::Intern(const std::string& dataset,
                               const std::string& field) {
  std::lock_guard<std::mutex> lock(field_ids_mutex_);
  // Ids start at 1: FindFieldId's 0 means "never inserted".
  return field_ids_
      .try_emplace({dataset, field},
                   static_cast<uint32_t>(field_ids_.size() + 1))
      .first->second;
}

uint32_t SemanticCache::FindFieldId(const std::string& dataset,
                                    const std::string& field) const {
  std::lock_guard<std::mutex> lock(field_ids_mutex_);
  auto it = field_ids_.find({dataset, field});
  return it == field_ids_.end() ? 0 : it->second;
}

}  // namespace turbdb
