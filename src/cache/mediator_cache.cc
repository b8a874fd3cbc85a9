#include "cache/mediator_cache.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

namespace turbdb {

namespace {

/// Resident charge of one entry: fixed overhead plus the point rows.
uint64_t EntryBytes(size_t num_points) {
  return MediatorCache::kEntryOverhead +
         static_cast<uint64_t>(num_points) * MediatorCache::kBytesPerPoint;
}

}  // namespace

MediatorCache::MediatorCache(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes), ledger_(&internal_ledger_) {}

void MediatorCache::AttachLedger(ResourceGovernor* governor) {
  ledger_.store(governor != nullptr ? governor : &internal_ledger_,
                std::memory_order_release);
}

MediatorCache::Shard& MediatorCache::ShardFor(const Key& key) {
  size_t h = std::hash<std::string>{}(key.dataset);
  h = h * 1000003 + std::hash<std::string>{}(key.field);
  h = h * 1000003 + static_cast<size_t>(key.fd_order);
  h = h * 1000003 + static_cast<size_t>(key.timestep);
  return shards_[h % kNumShards];
}

MediatorCacheLookup MediatorCache::Lookup(const std::string& dataset,
                                          const std::string& field,
                                          int fd_order, int32_t timestep,
                                          const Box3& box, double threshold) {
  MediatorCacheLookup out;
  if (!enabled()) {
    return out;  // Disabled tier: silent miss, no counter noise.
  }
  const Key key{dataset, field, fd_order, timestep};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Among the subsuming entries prefer the one with the fewest points:
    // it is the cheapest to filter, and an exact-region repeat naturally
    // wins over a whole-domain superset.
    Entry* best = nullptr;
    for (Entry& entry : it->second) {
      if (entry.threshold > threshold) continue;
      if (!entry.region.ContainsBox(box)) continue;
      if (best == nullptr || entry.points.size() < best->points.size()) {
        best = &entry;
      }
    }
    if (best != nullptr) {
      best->tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
      out.hit = true;
      out.subsumed = !(best->region == box) || best->threshold < threshold;
      // The node's and SemanticCache::Lookup's predicate, so a
      // mediator-tier answer is byte-identical to the uncached and the
      // node-tier cached answers for the same query.
      out.points.reserve(best->points.size());
      const bool whole_region = best->region == box;
      for (const ThresholdPoint& point : best->points) {
        if (!PassesThreshold(point.norm, threshold)) continue;
        if (!whole_region) {
          uint32_t x = 0;
          uint32_t y = 0;
          uint32_t z = 0;
          point.Coords(&x, &y, &z);
          if (!box.ContainsPoint(x, y, z)) continue;
        }
        out.points.push_back(point);
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (out.subsumed) {
        subsumption_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      return out;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void MediatorCache::Insert(const std::string& dataset,
                           const std::string& field, int fd_order,
                           int32_t timestep, const Box3& region,
                           double threshold,
                           const std::vector<ThresholdPoint>& points,
                           uint64_t as_of_epoch) {
  if (!enabled()) return;
  if (epoch() != as_of_epoch) {
    // The data changed while the result was being computed; caching it
    // would serve a pre-ingest answer forever.
    stale_inserts_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t bytes = EntryBytes(points.size());
  if (bytes > capacity_bytes_) return;  // Can never fit; best effort.
  EvictUntilFits(bytes);
  if (total_bytes_.load(std::memory_order_relaxed) + bytes >
      capacity_bytes_) {
    return;  // Everything evictable was evicted and it still won't fit.
  }
  // Charge the ledger before committing. Under ledger pressure (shared
  // budget held by in-flight results) the cache yields its own LRU
  // entries first, then gives up — a query must never be blocked by its
  // own cache insert.
  ResourceGovernor::ByteReservation reservation;
  ResourceGovernor* ledger = ledger_.load(std::memory_order_acquire);
  while (!ledger->TryReserve(bytes, &reservation).ok()) {
    if (!EvictOldest()) return;
  }

  const Key key{dataset, field, fd_order, timestep};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (epoch() != as_of_epoch) {
    // Invalidation bumps the epoch before sweeping the shards, so any
    // insert that got past the first check is caught here, under the
    // shard lock the sweep must also take.
    stale_inserts_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::vector<Entry>& slot = shard.entries[key];
  for (size_t i = 0; i < slot.size(); ++i) {
    if (!(slot[i].region == region)) continue;
    if (slot[i].threshold <= threshold) {
      // First committer wins: the resident entry already answers every
      // query the new one could. Drop the new result, no duplicate.
      return;
    }
    // The new result has a strictly lower threshold — a superset of the
    // resident points for the same region. Replace (the
    // stored-threshold-too-high refresh path of the node-local cache).
    const Entry& old = slot[i];
    total_bytes_.fetch_sub(old.bytes, std::memory_order_relaxed);
    total_entries_.fetch_sub(1, std::memory_order_relaxed);
    if (old.pinned) {
      pinned_bytes_.fetch_sub(old.bytes, std::memory_order_relaxed);
      pinned_entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    slot.erase(slot.begin() + static_cast<long>(i));
    break;
  }
  Entry entry;
  entry.region = region;
  entry.threshold = threshold;
  entry.points = points;
  entry.bytes = bytes;
  entry.tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  entry.reservation = std::move(reservation);
  slot.push_back(std::move(entry));
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  total_entries_.fetch_add(1, std::memory_order_relaxed);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void MediatorCache::EvictUntilFits(uint64_t needed) {
  // Bounded so a logic error can degrade to "don't cache", never hang.
  for (int attempt = 0; attempt < 1 << 20; ++attempt) {
    if (total_bytes_.load(std::memory_order_relaxed) + needed <=
        capacity_bytes_) {
      return;
    }
    if (!EvictOldest()) return;
  }
}

bool MediatorCache::EvictOldest() {
  // Pass 1: find the globally-oldest unpinned tick, one shard lock at a
  // time (never two at once). Ticks are unique, so pass 2 can identify
  // the entry by tick alone; a concurrent touch simply makes this an
  // approximate LRU, which is all that is promised.
  uint64_t oldest_tick = std::numeric_limits<uint64_t>::max();
  int oldest_shard = -1;
  for (int s = 0; s < kNumShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    for (const auto& [key, slot] : shards_[s].entries) {
      for (const Entry& entry : slot) {
        if (entry.pinned) continue;
        if (entry.tick < oldest_tick) {
          oldest_tick = entry.tick;
          oldest_shard = s;
        }
      }
    }
  }
  if (oldest_shard < 0) return false;

  // Pass 2: re-find by tick and erase. If a racing lookup touched it
  // away, report progress anyway — the caller loops.
  Shard& shard = shards_[oldest_shard];
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
    std::vector<Entry>& slot = it->second;
    for (size_t i = 0; i < slot.size(); ++i) {
      if (slot[i].tick != oldest_tick || slot[i].pinned) continue;
      total_bytes_.fetch_sub(slot[i].bytes, std::memory_order_relaxed);
      total_entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      slot.erase(slot.begin() + static_cast<long>(i));
      if (slot.empty()) shard.entries.erase(it);
      return true;
    }
  }
  return true;
}

template <typename Pred>
uint64_t MediatorCache::InvalidateMatching(const Pred& pred) {
  // Epoch first: a racing insert either observes the new epoch and
  // discards itself, or commits before the sweep below reaches its
  // shard and is swept. Either way no stale entry survives.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      std::vector<Entry>& slot = it->second;
      for (size_t i = 0; i < slot.size();) {
        if (pred(it->first, slot[i])) {
          total_bytes_.fetch_sub(slot[i].bytes, std::memory_order_relaxed);
          total_entries_.fetch_sub(1, std::memory_order_relaxed);
          if (slot[i].pinned) {
            pinned_bytes_.fetch_sub(slot[i].bytes,
                                    std::memory_order_relaxed);
            pinned_entries_.fetch_sub(1, std::memory_order_relaxed);
          }
          slot.erase(slot.begin() + static_cast<long>(i));
          ++dropped;
        } else {
          ++i;
        }
      }
      it = slot.empty() ? shard.entries.erase(it) : std::next(it);
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

uint64_t MediatorCache::Invalidate(const std::string& dataset,
                                   const std::string& field,
                                   int32_t timestep) {
  if (!enabled()) return 0;
  return InvalidateMatching([&](const Key& key, const Entry&) {
    return key.dataset == dataset && key.field == field &&
           (timestep < 0 || key.timestep == timestep);
  });
}

uint64_t MediatorCache::InvalidateRawField(const std::string& dataset,
                                           const std::string& raw_field,
                                           int32_t timestep) {
  if (!enabled()) return 0;
  const std::string prefix = raw_field + ":";
  return InvalidateMatching([&](const Key& key, const Entry&) {
    return key.dataset == dataset &&
           key.field.compare(0, prefix.size(), prefix) == 0 &&
           (timestep < 0 || key.timestep == timestep);
  });
}

uint64_t MediatorCache::Clear() {
  if (!enabled()) return 0;
  return InvalidateMatching([](const Key&, const Entry&) { return true; });
}

uint64_t MediatorCache::SetPinned(const std::string& dataset,
                                  const std::string& field, int32_t timestep,
                                  bool pinned) {
  if (!enabled()) return 0;
  uint64_t changed = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [key, slot] : shard.entries) {
      if (key.dataset != dataset || key.field != field) continue;
      if (timestep >= 0 && key.timestep != timestep) continue;
      for (Entry& entry : slot) {
        if (entry.pinned == pinned) continue;
        entry.pinned = pinned;
        if (pinned) {
          pinned_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
          pinned_entries_.fetch_add(1, std::memory_order_relaxed);
        } else {
          pinned_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
          pinned_entries_.fetch_sub(1, std::memory_order_relaxed);
        }
        ++changed;
      }
    }
  }
  return changed;
}

uint64_t MediatorCache::Pin(const std::string& dataset,
                            const std::string& field, int32_t timestep) {
  return SetPinned(dataset, field, timestep, true);
}

uint64_t MediatorCache::Unpin(const std::string& dataset,
                              const std::string& field, int32_t timestep) {
  return SetPinned(dataset, field, timestep, false);
}

MediatorCacheStats MediatorCache::stats() const {
  MediatorCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.subsumption_hits = subsumption_hits_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.stale_inserts = stale_inserts_.load(std::memory_order_relaxed);
  out.entries = total_entries_.load(std::memory_order_relaxed);
  out.bytes = total_bytes_.load(std::memory_order_relaxed);
  out.pinned_entries = pinned_entries_.load(std::memory_order_relaxed);
  out.pinned_bytes = pinned_bytes_.load(std::memory_order_relaxed);
  out.capacity_bytes = capacity_bytes_;
  return out;
}

}  // namespace turbdb
