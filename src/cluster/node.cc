#include "cluster/node.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <future>
#include <queue>

#include "common/logging.h"
#include "storage/file_atom_store.h"

namespace turbdb {

namespace {

/// Per-chunk slab memory guard; chunks whose gather region would exceed
/// this are split and processed in halves.
constexpr uint64_t kMaxSlabBytes = 256ULL * 1024 * 1024;

/// Gap (in atom codes) the clustered-index read-ahead absorbs without a
/// new positioning operation. The data tables are scanned in Morton
/// order; skipping a few hundred 6 KB records is cheaper for a RAID
/// array than re-seeking, and SQL Server read-ahead does exactly that.
constexpr uint64_t kReadAheadGap = 256;

/// Counts the distinct range scans (seeks) a sorted code list costs on
/// the clustered (timestep, zindex) index, merging runs whose gaps are
/// within the read-ahead window.
uint64_t CountRuns(const std::vector<uint64_t>& sorted_codes) {
  if (sorted_codes.empty()) return 0;
  uint64_t runs = 1;
  for (size_t i = 1; i < sorted_codes.size(); ++i) {
    if (sorted_codes[i] > sorted_codes[i - 1] + kReadAheadGap) ++runs;
  }
  return runs;
}

struct TopKHeapCompare {
  bool operator()(const ThresholdPoint& a, const ThresholdPoint& b) const {
    return a.norm > b.norm;  // Min-heap on norm.
  }
};

/// Cooperative interruption point: a cancelled query wins over an
/// expired one (cancellation means nobody wants the answer at all).
Status CheckInterrupts(const NodeQuery& query) {
  if (query.cancel != nullptr &&
      query.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query " + std::to_string(query.query_id) +
                             " cancelled");
  }
  if (query.deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= query.deadline) {
    return Status::DeadlineExceeded("query budget exhausted mid-evaluation");
  }
  return Status::OK();
}

}  // namespace

DatabaseNode::DatabaseNode(int id, const CostModelConfig& cost,
                           std::string storage_dir)
    : id_(id), shard_id_(id), storage_dir_(std::move(storage_dir)),
      hdd_(cost.hdd),
      cache_(&txn_manager_, cost.ssd, cost.cache_capacity_bytes) {}

AtomStore* DatabaseNode::FindStore(const std::string& dataset,
                                   const std::string& field) const {
  {
    std::lock_guard<std::mutex> lock(stores_mutex_);
    auto it = stores_.find({dataset, field});
    if (it != stores_.end()) return it->second.get();
  }
  // Durable mode: a store file persisted by an earlier cluster instance
  // is recovered on first touch.
  if (!storage_dir_.empty()) {
    const std::string path = storage_dir_ + "/node" + std::to_string(id_) +
                             "_" + dataset + "_" + field + ".tatm";
    if (::access(path.c_str(), F_OK) == 0) {
      return const_cast<DatabaseNode*>(this)->GetOrCreateStore(dataset, field);
    }
  }
  return nullptr;
}

AtomStore* DatabaseNode::GetOrCreateStore(const std::string& dataset,
                                          const std::string& field) {
  std::lock_guard<std::mutex> lock(stores_mutex_);
  auto& slot = stores_[{dataset, field}];
  if (!slot) {
    if (storage_dir_.empty()) {
      slot = std::make_unique<InMemoryAtomStore>();
    } else {
      const std::string path = storage_dir_ + "/node" + std::to_string(id_) +
                               "_" + dataset + "_" + field + ".tatm";
      auto store = FileAtomStore::Open(path);
      if (!store.ok()) {
        TURBDB_LOG(Error) << "cannot open " << path << ": "
                          << store.status().ToString()
                          << "; falling back to memory";
        slot = std::make_unique<InMemoryAtomStore>();
      } else {
        slot = std::move(store).value();
      }
    }
  }
  return slot.get();
}

Status DatabaseNode::IngestAtom(const std::string& dataset,
                                const std::string& field, const Atom& atom) {
  return GetOrCreateStore(dataset, field)->Put(atom);
}

Status DatabaseNode::FinishIngest(const std::string& dataset,
                                  const std::string& field) {
  if (!fsync_on_ingest_ || storage_dir_.empty()) return Status::OK();
  AtomStore* store = FindStore(dataset, field);
  if (store == nullptr) return Status::OK();
  return store->Sync();
}

std::vector<StoreListing> DatabaseNode::ListStores() const {
  std::vector<StoreListing> listings;
  std::lock_guard<std::mutex> lock(stores_mutex_);
  for (const auto& [key, store] : stores_) {
    listings.push_back({key.first, key.second, store->AtomCount()});
  }
  return listings;
}

Status DatabaseNode::CollectRange(const std::string& dataset,
                                  const std::string& field, int32_t timestep,
                                  uint64_t begin, uint64_t end,
                                  uint64_t max_atoms, std::vector<Atom>* atoms,
                                  uint64_t* next_code, bool* done) const {
  const AtomStore* store = FindStore(dataset, field);
  if (store == nullptr) {
    return Status::NotFound("node " + std::to_string(id_) +
                            " stores no field '" + field + "'");
  }
  atoms->clear();
  *next_code = end;
  *done = true;
  // Scan cannot stop early; past the page limit we only record where the
  // next page starts and skip the payload copies.
  TURBDB_RETURN_NOT_OK(store->Scan(
      timestep, MortonRange{begin, end}, [&](const Atom& atom) {
        if (atoms->size() < max_atoms) {
          atoms->push_back(atom);
        } else if (*done) {
          *done = false;
          *next_code = atom.key.zindex;
        }
      }));
  return Status::OK();
}

uint64_t DatabaseNode::StoredAtomCount(const std::string& dataset,
                                       const std::string& field) const {
  const AtomStore* store = FindStore(dataset, field);
  return store == nullptr ? 0 : store->AtomCount();
}

std::vector<DatabaseNode::StoreHandle> DatabaseNode::OpenStores() {
  std::vector<StoreHandle> handles;
  std::lock_guard<std::mutex> lock(stores_mutex_);
  for (const auto& [key, store] : stores_) {
    handles.push_back({key.first, key.second, store.get()});
  }
  return handles;
}

Status DatabaseNode::StoreDigestRows(const std::string& dataset,
                                     const std::string& field,
                                     std::vector<AtomDigest>* rows) const {
  const AtomStore* store = FindStore(dataset, field);
  if (store == nullptr) {
    return Status::NotFound("node " + std::to_string(id_) +
                            " stores no field '" + field + "'");
  }
  return store->DigestRows(rows);
}

Status DatabaseNode::RepairAtom(const std::string& dataset,
                                const std::string& field, const Atom& atom) {
  return GetOrCreateStore(dataset, field)->Repair(atom);
}

Result<Atom> DatabaseNode::ReadStoredAtom(const std::string& dataset,
                                          const std::string& field,
                                          const AtomKey& key) const {
  const AtomStore* store = FindStore(dataset, field);
  if (store == nullptr) {
    return Status::NotFound("node " + std::to_string(id_) +
                            " stores no field '" + field + "'");
  }
  return store->Get(key);
}

Result<std::vector<Atom>> DatabaseNode::ServeAtoms(
    const std::string& dataset, const std::string& field, int32_t timestep,
    const std::vector<uint64_t>& codes, int concurrent, double* cost_s,
    uint64_t* bytes_out) {
  AtomStore* store = FindStore(dataset, field);
  if (store == nullptr) {
    return Status::NotFound("node " + std::to_string(id_) +
                            " stores no field '" + field + "'");
  }
  std::vector<Atom> atoms;
  atoms.reserve(codes.size());
  uint64_t bytes = 0;
  for (uint64_t code : codes) {
    TURBDB_ASSIGN_OR_RETURN(Atom atom, store->Get(AtomKey{timestep, code}));
    bytes += atom.SizeBytes();
    atoms.push_back(std::move(atom));
  }
  const double cost = hdd_.ChargeRead(bytes, CountRuns(codes), concurrent);
  if (cost_s != nullptr) *cost_s += cost;
  if (bytes_out != nullptr) *bytes_out += bytes;
  return atoms;
}

Result<NodeOutcome> DatabaseNode::Execute(const NodeQuery& query,
                                          ThreadPool* workers) {
  if (query.mode == NodeQuery::Mode::kSample) {
    return ExecuteSample(query, workers);
  }
  const bool threshold_mode = query.mode == NodeQuery::Mode::kThreshold;
  const bool cacheable =
      threshold_mode && query.options.use_cache && !query.options.io_only &&
      cache_.enabled();

  NodeOutcome outcome;
  if (cacheable) {
    // Algorithm 1 lines 4-25: interrogate the semantic cache first.
    TURBDB_ASSIGN_OR_RETURN(
        CacheLookup lookup,
        cache_.Lookup(query.dataset->name, query.cache_field_key,
                      query.timestep, query.fd_order, query.box,
                      query.threshold));
    outcome.time.cache_lookup_s += lookup.lookup_cost_s;
    outcome.io += lookup.io;
    if (lookup.hit) {
      outcome.cache_hit = true;
      outcome.points = std::move(lookup.points);  // Z-sorted by the scan.
      outcome.io.points_returned += outcome.points.size();
      return outcome;
    }
  }

  // Algorithm 1 lines 29-36: evaluate from the raw data.
  TURBDB_ASSIGN_OR_RETURN(NodeOutcome raw, ExecuteFromRaw(query, workers));
  raw.time.cache_lookup_s += outcome.time.cache_lookup_s;
  raw.io += outcome.io;

  if (cacheable) {
    // Algorithm 1 line 37: record the result for future queries.
    double insert_cost = 0.0;
    TURBDB_RETURN_NOT_OK(cache_.Insert(
        query.dataset->name, query.cache_field_key, query.timestep,
        query.fd_order, query.box, query.threshold, raw.points,
        &insert_cost));
    raw.time.cache_lookup_s += insert_cost;
  }
  return raw;
}

Result<NodeOutcome> DatabaseNode::ExecuteFromRaw(const NodeQuery& query,
                                                 ThreadPool* workers) {
  NodeOutcome outcome;
  outcome.histogram.assign(static_cast<size_t>(query.num_bins) + 1, 0);

  const GridGeometry& geometry = query.dataset->geometry;
  const Box3 atom_cover = geometry.AtomCover(query.box);
  // The evaluated atoms are this shard's effective ownership under the
  // routed view: the partitioner's assignment, re-homed by the view's
  // range overrides.
  const std::vector<uint64_t> atoms = OwnedAtomsInBox(
      *query.partitioner, *query.view, shard_id_, atom_cover);
  if (atoms.empty()) return outcome;

  // Data-parallel evaluation: split this node's atoms into one contiguous
  // morton run per worker process.
  const int processes = std::max(1, query.processes);
  const size_t num_chunks =
      std::min<size_t>(static_cast<size_t>(processes), atoms.size());
  std::vector<std::future<ChunkOutcome>> futures;
  futures.reserve(num_chunks);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const size_t begin = atoms.size() * chunk / num_chunks;
    const size_t end = atoms.size() * (chunk + 1) / num_chunks;
    std::vector<uint64_t> chunk_atoms(atoms.begin() + begin,
                                      atoms.begin() + end);
    futures.push_back(workers->Submit(
        [this, &query, chunk_atoms = std::move(chunk_atoms)]() {
          return ProcessChunk(query, chunk_atoms);
        }));
  }

  // The slowest worker determines the node's elapsed I/O and compute
  // time; byte and point counters accumulate across workers.
  Status failure;
  std::priority_queue<ThresholdPoint, std::vector<ThresholdPoint>,
                      TopKHeapCompare>
      topk;
  for (auto& future : futures) {
    ChunkOutcome chunk = future.get();
    if (!chunk.status.ok()) {
      if (failure.ok()) failure = chunk.status;
      continue;
    }
    outcome.time.io_s = std::max(outcome.time.io_s, chunk.io_s);
    outcome.time.compute_s = std::max(outcome.time.compute_s, chunk.compute_s);
    outcome.io += chunk.io;
    switch (query.mode) {
      case NodeQuery::Mode::kThreshold:
        outcome.points.insert(outcome.points.end(), chunk.points.begin(),
                              chunk.points.end());
        break;
      case NodeQuery::Mode::kPdf:
        for (size_t bin = 0; bin < chunk.histogram.size(); ++bin) {
          outcome.histogram[bin] += chunk.histogram[bin];
        }
        break;
      case NodeQuery::Mode::kTopK:
        for (const ThresholdPoint& point : chunk.points) {
          topk.push(point);
          if (topk.size() > query.k) topk.pop();
        }
        break;
      case NodeQuery::Mode::kMoments:
        outcome.norm_sum += chunk.norm_sum;
        outcome.norm_sum_sq += chunk.norm_sum_sq;
        outcome.norm_max = std::max(outcome.norm_max, chunk.norm_max);
        break;
      case NodeQuery::Mode::kSample:  // Answered by ExecuteSample.
        break;
    }
  }
  TURBDB_RETURN_NOT_OK(failure);

  // CPU saturation: beyond the node's effective core count, worker
  // processes time-share and compute time stops improving (the paper
  // observes little gain from 4 to 8 processes, Sec. 5.3).
  if (query.effective_cores > 0.0 &&
      static_cast<double>(processes) > query.effective_cores) {
    outcome.time.compute_s *=
        static_cast<double>(processes) / query.effective_cores;
  }

  if (query.mode == NodeQuery::Mode::kThreshold &&
      outcome.points.size() > query.options.max_result_points) {
    return Status::ThresholdTooLow(
        "threshold produced more than " +
        std::to_string(query.options.max_result_points) +
        " points on node " + std::to_string(id_) +
        "; raise the threshold or request the field directly");
  }
  if (query.mode == NodeQuery::Mode::kTopK) {
    outcome.points.reserve(topk.size());
    while (!topk.empty()) {
      outcome.points.push_back(topk.top());
      topk.pop();
    }
  }
  std::sort(outcome.points.begin(), outcome.points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  outcome.io.points_returned += outcome.points.size();
  return outcome;
}

Result<NodeOutcome> DatabaseNode::ExecuteSample(const NodeQuery& query,
                                                ThreadPool* workers) {
  NodeOutcome outcome;
  outcome.histogram.assign(static_cast<size_t>(query.num_bins) + 1, 0);
  if (query.targets.empty()) return outcome;
  TURBDB_CHECK(query.interpolator != nullptr);

  const int processes = std::max(1, query.processes);
  const size_t num_chunks =
      std::min<size_t>(static_cast<size_t>(processes), query.targets.size());
  std::vector<std::future<ChunkOutcome>> futures;
  futures.reserve(num_chunks);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const size_t begin = query.targets.size() * chunk / num_chunks;
    const size_t end = query.targets.size() * (chunk + 1) / num_chunks;
    std::vector<std::pair<uint32_t, std::array<double, 3>>> slice(
        query.targets.begin() + begin, query.targets.begin() + end);
    futures.push_back(
        workers->Submit([this, &query, slice = std::move(slice)]() {
          return ProcessSampleChunk(query, slice);
        }));
  }
  Status failure;
  for (auto& future : futures) {
    ChunkOutcome chunk = future.get();
    if (!chunk.status.ok()) {
      if (failure.ok()) failure = chunk.status;
      continue;
    }
    outcome.time.io_s = std::max(outcome.time.io_s, chunk.io_s);
    outcome.time.compute_s = std::max(outcome.time.compute_s, chunk.compute_s);
    outcome.io += chunk.io;
    outcome.samples.insert(outcome.samples.end(), chunk.samples.begin(),
                           chunk.samples.end());
  }
  TURBDB_RETURN_NOT_OK(failure);
  outcome.io.points_returned += outcome.samples.size();
  return outcome;
}

DatabaseNode::ChunkOutcome DatabaseNode::ProcessSampleChunk(
    const NodeQuery& query,
    const std::vector<std::pair<uint32_t, std::array<double, 3>>>& targets) {
  ChunkOutcome out;
  if (targets.empty()) return out;
  out.status = CheckInterrupts(query);
  if (!out.status.ok()) return out;
  const GridGeometry& geometry = query.dataset->geometry;
  const LagrangeInterpolator& interp = *query.interpolator;

  DestMap dest;
  for (const auto& [index, position] : targets) {
    InsertCover(geometry, geometry.AtomCover(interp.SupportBox(position)),
                &dest);
  }
  if (dest.empty()) return out;

  // Memory guard: widely scattered targets could span a huge bounding
  // box; split the batch until each gather fits.
  {
    Box3 bounds;
    bool first = true;
    for (const auto& [coord, code] : dest) {
      if (first) {
        bounds = Box3(coord[0], coord[1], coord[2], coord[0] + 1,
                      coord[1] + 1, coord[2] + 1);
        first = false;
      } else {
        for (int d = 0; d < 3; ++d) {
          bounds.lo[d] = std::min(bounds.lo[d], coord[d]);
          bounds.hi[d] = std::max(bounds.hi[d], coord[d] + 1);
        }
      }
    }
    const int64_t w = geometry.atom_width();
    const uint64_t slab_bytes = static_cast<uint64_t>(bounds.Volume()) * w *
                                w * w * query.raw_ncomp * sizeof(float);
    if (slab_bytes > kMaxSlabBytes && targets.size() > 1) {
      const size_t mid = targets.size() / 2;
      ChunkOutcome left = ProcessSampleChunk(
          query, {targets.begin(), targets.begin() + mid});
      if (!left.status.ok()) return left;
      ChunkOutcome right =
          ProcessSampleChunk(query, {targets.begin() + mid, targets.end()});
      if (!right.status.ok()) return right;
      right.samples.insert(right.samples.end(), left.samples.begin(),
                           left.samples.end());
      right.io_s += left.io_s;
      right.compute_s += left.compute_s;
      right.io += left.io;
      return right;
    }
  }

  Slab slab = GatherDest(query, dest, &out);
  if (!out.status.ok()) return out;

  double value[3] = {0.0, 0.0, 0.0};
  out.samples.reserve(targets.size());
  for (const auto& [index, position] : targets) {
    interp.At(slab, position, query.raw_ncomp, value);
    std::array<double, 3> sample = {0.0, 0.0, 0.0};
    for (int c = 0; c < query.raw_ncomp; ++c) {
      sample[static_cast<size_t>(c)] = value[c];
    }
    out.samples.push_back({index, sample});
  }
  out.io.points_evaluated += targets.size();
  const int s = interp.support();
  const double flops_per_sample =
      2.0 * s * s * s * query.raw_ncomp + 18.0 * s * s;
  out.compute_s += static_cast<double>(targets.size()) * flops_per_sample /
                   query.flops_per_process;
  return out;
}

void DatabaseNode::InsertCover(const GridGeometry& geometry, const Box3& cover,
                               DestMap* dest) {
  for (int64_t dz = cover.lo[2]; dz < cover.hi[2]; ++dz) {
    for (int64_t dy = cover.lo[1]; dy < cover.hi[1]; ++dy) {
      for (int64_t dx = cover.lo[0]; dx < cover.hi[0]; ++dx) {
        int64_t wrapped[3] = {dx, dy, dz};
        bool valid = true;
        for (int d = 0; d < 3; ++d) {
          const int64_t na = geometry.AtomsAlong(d);
          if (wrapped[d] < 0 || wrapped[d] >= na) {
            if (!geometry.periodic(d)) {
              valid = false;  // No data beyond a wall.
              break;
            }
            wrapped[d] = ((wrapped[d] % na) + na) % na;
          }
        }
        if (!valid) continue;
        (*dest)[{dx, dy, dz}] =
            MortonEncode3(static_cast<uint32_t>(wrapped[0]),
                          static_cast<uint32_t>(wrapped[1]),
                          static_cast<uint32_t>(wrapped[2]));
      }
    }
  }
}

Slab DatabaseNode::GatherDest(const NodeQuery& query, const DestMap& dest,
                              ChunkOutcome* out) {
  const int64_t w = query.dataset->geometry.atom_width();

  // The slab covers the bounding box of all destinations. It is
  // allocated first so that each atom is copied straight from the store
  // or the fetch reply into every destination it backs.
  Box3 slab_atoms;
  {
    bool first = true;
    for (const auto& [coord, code] : dest) {
      if (first) {
        slab_atoms = Box3(coord[0], coord[1], coord[2], coord[0] + 1,
                          coord[1] + 1, coord[2] + 1);
        first = false;
      } else {
        for (int d = 0; d < 3; ++d) {
          slab_atoms.lo[d] = std::min(slab_atoms.lo[d], coord[d]);
          slab_atoms.hi[d] = std::max(slab_atoms.hi[d], coord[d] + 1);
        }
      }
    }
  }
  Slab slab(Box3(slab_atoms.lo[0] * w, slab_atoms.lo[1] * w,
                 slab_atoms.lo[2] * w, slab_atoms.hi[0] * w,
                 slab_atoms.hi[1] * w, slab_atoms.hi[2] * w),
            query.raw_ncomp);

  // Destinations sorted by wrapped code: the same code can back several
  // periodic images; it is read once and copied to each.
  std::vector<std::pair<uint64_t, std::array<int64_t, 3>>> by_code;
  by_code.reserve(dest.size());
  for (const auto& [coord, code] : dest) by_code.push_back({code, coord});
  std::sort(by_code.begin(), by_code.end());
  // Copies `atom` to every destination it backs.
  auto place = [&](const Atom& atom) {
    auto it = std::lower_bound(
        by_code.begin(), by_code.end(), atom.key.zindex,
        [](const auto& entry, uint64_t code) { return entry.first < code; });
    for (; it != by_code.end() && it->first == atom.key.zindex; ++it) {
      const std::array<int64_t, 3>& c = it->second;
      slab.CopyAtom(atom, Box3(c[0] * w, c[1] * w, c[2] * w, (c[0] + 1) * w,
                               (c[1] + 1) * w, (c[2] + 1) * w));
    }
  };

  // Fetch plan: unique codes, split into local reads and per-peer
  // batches by their owner under the query's view.
  std::vector<uint64_t> local_codes;
  std::map<int, std::vector<uint64_t>> remote_codes;
  for (size_t i = 0; i < by_code.size(); ++i) {
    const uint64_t code = by_code[i].first;
    if (i > 0 && by_code[i - 1].first == code) continue;
    const int owner =
        query.view->OwnerOf(code, query.partitioner->OwnerOfAtom(code));
    if (owner == shard_id_) {
      local_codes.push_back(code);
    } else {
      remote_codes[owner].push_back(code);
    }
  }

  // Local reads: one clustered-index range scan per contiguous run.
  if (!local_codes.empty()) {
    AtomStore* store = FindStore(query.dataset->name, query.raw_field);
    if (store == nullptr) {
      out->status = Status::NotFound("field '" + query.raw_field +
                                     "' not ingested on node " +
                                     std::to_string(id_));
      return Slab();
    }
    uint64_t bytes = 0;
    for (size_t lo = 0; lo < local_codes.size();) {
      size_t hi = lo + 1;
      while (hi < local_codes.size() &&
             local_codes[hi] == local_codes[hi - 1] + 1) {
        ++hi;
      }
      size_t visited = 0;
      out->status = store->Scan(
          query.timestep, MortonRange{local_codes[lo], local_codes[hi - 1] + 1},
          [&](const Atom& atom) {
            ++visited;
            bytes += atom.SizeBytes();
            place(atom);
          });
      if (out->status.ok() && visited != hi - lo) {
        out->status = Status::NotFound("atom not found");
      }
      if (!out->status.ok()) return Slab();
      lo = hi;
    }
    out->io_s +=
        hdd_.ChargeRead(bytes, CountRuns(local_codes), query.processes);
    out->io.atoms_read_local += local_codes.size();
    out->io.bytes_read_local += bytes;
  }
  // Remote halo reads: one batched request per adjacent node. Each hop
  // re-checks cancellation/deadline first: a network fetch is the most
  // expensive thing to start for a query nobody is waiting on.
  for (const auto& [owner, codes] : remote_codes) {
    if (!remote_fetch_) {
      out->status = Status::Internal("remote fetch hook not wired");
      return Slab();
    }
    out->status = CheckInterrupts(query);
    if (!out->status.ok()) return Slab();
    double cost = 0.0;
    auto atoms = remote_fetch_(query, owner, query.dataset->name,
                               query.raw_field, query.timestep, codes,
                               query.processes, &cost);
    if (!atoms.ok()) {
      out->status = atoms.status();
      return Slab();
    }
    out->io_s += cost;
    // Atoms the request did not name are ignored; every one it named
    // must be there, in the shape this dataset stores.
    uint64_t bytes = 0;
    std::vector<bool> received(codes.size(), false);
    for (const Atom& atom : atoms.value()) {
      bytes += atom.SizeBytes();
      auto it = std::lower_bound(codes.begin(), codes.end(), atom.key.zindex);
      if (it == codes.end() || *it != atom.key.zindex) continue;
      if (atom.width != w || atom.ncomp != query.raw_ncomp) {
        out->status = Status::Internal(
            "halo reply from node " + std::to_string(owner) +
            " has atom " + std::to_string(atom.key.zindex) +
            " in the wrong shape");
        return Slab();
      }
      received[static_cast<size_t>(it - codes.begin())] = true;
      place(atom);
    }
    const auto missing = std::count(received.begin(), received.end(), false);
    if (missing > 0) {
      out->status = Status::Internal(
          "halo reply from node " + std::to_string(owner) + " lacks " +
          std::to_string(missing) + " of " + std::to_string(codes.size()) +
          " requested atoms");
      return Slab();
    }
    out->io.atoms_read_remote += codes.size();
    out->io.bytes_read_remote += bytes;
  }
  return slab;
}

DatabaseNode::ChunkOutcome DatabaseNode::ProcessChunk(
    const NodeQuery& query, const std::vector<uint64_t>& chunk_atoms) {
  ChunkOutcome out;
  out.histogram.assign(static_cast<size_t>(query.num_bins) + 1, 0);
  if (chunk_atoms.empty()) return out;
  out.status = CheckInterrupts(query);
  if (!out.status.ok()) return out;

  const GridGeometry& geometry = query.dataset->geometry;
  const int64_t w = geometry.atom_width();
  const int halo = query.kernel->HaloWidth(query.fd_order);

  // Memory guard: a contiguous morton run can have a large bounding box
  // on grids with non-power-of-two atom counts. Split oversized chunks.
  {
    Box3 rough;
    bool first = true;
    for (uint64_t code : chunk_atoms) {
      uint32_t ax, ay, az;
      MortonDecode3(code, &ax, &ay, &az);
      if (first) {
        rough = Box3(ax, ay, az, ax + 1, ay + 1, az + 1);
        first = false;
      } else {
        for (int d = 0; d < 3; ++d) {
          const int64_t coord = d == 0 ? ax : (d == 1 ? ay : az);
          rough.lo[d] = std::min(rough.lo[d], coord);
          rough.hi[d] = std::max(rough.hi[d], coord + 1);
        }
      }
    }
    const uint64_t slab_bytes = static_cast<uint64_t>(rough.Volume()) * w * w *
                                w * query.raw_ncomp * sizeof(float);
    if (slab_bytes > kMaxSlabBytes && chunk_atoms.size() > 1) {
      const size_t mid = chunk_atoms.size() / 2;
      ChunkOutcome left = ProcessChunk(
          query, {chunk_atoms.begin(), chunk_atoms.begin() + mid});
      if (!left.status.ok()) return left;
      ChunkOutcome right =
          ProcessChunk(query, {chunk_atoms.begin() + mid, chunk_atoms.end()});
      if (!right.status.ok()) return right;
      right.points.insert(right.points.end(), left.points.begin(),
                          left.points.end());
      for (size_t bin = 0; bin < right.histogram.size(); ++bin) {
        right.histogram[bin] += left.histogram[bin];
      }
      right.norm_sum += left.norm_sum;
      right.norm_sum_sq += left.norm_sum_sq;
      right.norm_max = std::max(right.norm_max, left.norm_max);
      right.io_s += left.io_s;
      right.compute_s += left.compute_s;
      right.io += left.io;
      return right;
    }
  }

  // ---- Gather phase -------------------------------------------------
  // Destination atom positions (in unwrapped atom coordinates, so
  // periodic halo images land outside [0, na)) -> wrapped atom code.
  DestMap dest;
  uint64_t interest_points = 0;
  for (uint64_t code : chunk_atoms) {
    uint32_t ax, ay, az;
    MortonDecode3(code, &ax, &ay, &az);
    const Box3 atom_box(ax * w, ay * w, az * w, (ax + 1) * w, (ay + 1) * w,
                        (az + 1) * w);
    const Box3 interest = atom_box.Intersection(query.box);
    if (interest.Empty()) continue;
    interest_points += static_cast<uint64_t>(interest.Volume());
    InsertCover(geometry, geometry.AtomCover(interest.Grown(halo)), &dest);
  }
  if (dest.empty()) return out;

  Slab slab = GatherDest(query, dest, &out);
  if (!out.status.ok()) return out;

  // Evaluated-point accounting happens here (rather than in the evaluate
  // loop) so that I/O-only runs still report the workload size — the
  // counters feed the paper-scale projections of Fig. 8.
  out.io.points_evaluated += interest_points;

  if (query.options.io_only) return out;

  // ---- Evaluate phase ------------------------------------------------
  // One kernel call per x row of each atom's interest box. Points are
  // consumed in atom -> z -> y -> x order: which of equal norms top-k
  // keeps, and where the point-cap exit stops, depend on it.
  std::priority_queue<ThresholdPoint, std::vector<ThresholdPoint>,
                      TopKHeapCompare>
      topk;
  std::vector<double> norms(static_cast<size_t>(w));
  uint64_t evaluated = 0;
  for (uint64_t code : chunk_atoms) {
    out.status = CheckInterrupts(query);
    if (!out.status.ok()) return out;
    uint32_t ax, ay, az;
    MortonDecode3(code, &ax, &ay, &az);
    const Box3 atom_box(ax * w, ay * w, az * w, (ax + 1) * w, (ay + 1) * w,
                        (az + 1) * w);
    const Box3 interest = atom_box.Intersection(query.box);
    if (interest.Empty()) continue;
    const int64_t x0 = interest.lo[0];
    const int64_t nx = interest.Extent(0);
    for (int64_t z = interest.lo[2]; z < interest.hi[2]; ++z) {
      for (int64_t y = interest.lo[1]; y < interest.hi[1]; ++y) {
        query.kernel->NormsRow(slab, *query.diff, x0, nx, y, z, norms.data());
        evaluated += static_cast<uint64_t>(nx);
        auto point = [&](int64_t i, double norm) {
          return MakeThresholdPoint(static_cast<uint32_t>(x0 + i),
                                    static_cast<uint32_t>(y),
                                    static_cast<uint32_t>(z),
                                    static_cast<float>(norm));
        };
        switch (query.mode) {
          case NodeQuery::Mode::kThreshold:
            for (int64_t i = 0; i < nx; ++i) {
              if (!PassesThreshold(static_cast<float>(norms[i]),
                                   query.threshold)) {
                continue;
              }
              out.points.push_back(point(i, norms[i]));
              if (out.points.size() > query.options.max_result_points) {
                // The global cap is already exceeded by this node
                // alone; computing further is pointless.
                out.status = Status::ThresholdTooLow(
                    "threshold too low: result exceeds the point cap");
                return out;
              }
            }
            break;
          case NodeQuery::Mode::kPdf:
            for (int64_t i = 0; i < nx; ++i) {
              // Clamp in double: a tiny width puts norm / width past
              // INT_MAX, where the conversion alone is undefined.
              const double scaled = norms[i] / query.bin_width;
              const int bin = scaled < query.num_bins
                                  ? static_cast<int>(scaled)
                                  : query.num_bins;
              ++out.histogram[static_cast<size_t>(bin)];
            }
            break;
          case NodeQuery::Mode::kMoments:
            for (int64_t i = 0; i < nx; ++i) {
              out.norm_sum += norms[i];
              out.norm_sum_sq += norms[i] * norms[i];
              out.norm_max = std::max(out.norm_max, norms[i]);
            }
            break;
          case NodeQuery::Mode::kTopK:
            for (int64_t i = 0; i < nx; ++i) {
              if (topk.size() < query.k) {
                topk.push(point(i, norms[i]));
              } else if (norms[i] > topk.top().norm) {
                topk.pop();
                topk.push(point(i, norms[i]));
              }
            }
            break;
          case NodeQuery::Mode::kSample:  // Answered by ExecuteSample.
            break;
        }
      }
    }
  }
  while (!topk.empty()) {
    out.points.push_back(topk.top());
    topk.pop();
  }
  out.compute_s += static_cast<double>(evaluated) *
                   query.kernel->FlopsPerPoint(query.fd_order) /
                   query.flops_per_process;
  return out;
}

}  // namespace turbdb
