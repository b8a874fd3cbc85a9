#include "cluster/node.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <future>
#include <limits>
#include <queue>

#include "common/logging.h"
#include "storage/file_atom_store.h"

namespace turbdb {

namespace {

/// Per-run slab memory guard: a run whose destination box would need a
/// bigger slab than this is split and evaluated in halves.
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

/// Whether the node answers `query` through its semantic cache: a
/// threshold query that asks for the cache, evaluates norms and finds the
/// cache enabled. Only such queries record and consult atom ceilings.
bool UsesCache(const NodeQuery& query, const SemanticCache& cache) {
  return query.mode == NodeQuery::Mode::kThreshold &&
         query.options.use_cache && !query.options.io_only && cache.enabled();
}

/// The grid-point box of atom `code`.
Box3 AtomBox(uint64_t code, const GridGeometry& geometry) {
  uint32_t ax, ay, az;
  MortonDecode3(code, &ax, &ay, &az);
  const int64_t w = geometry.atom_width();
  return Box3(ax * w, ay * w, az * w, (ax + 1) * w, (ay + 1) * w,
              (az + 1) * w);
}

/// Folds `from` into `into`: points and samples append; histogram bins,
/// moments and io counters add. Modeled seconds add for the halves of a
/// split run (one worker runs them in turn) and take the maximum across
/// runs (the slowest worker sets the node's time).
void Fold(const NodeOutcome& from, bool sequential, NodeOutcome* into) {
  into->points.insert(into->points.end(), from.points.begin(),
                      from.points.end());
  for (size_t bin = 0; bin < from.histogram.size(); ++bin) {
    into->histogram[bin] += from.histogram[bin];
  }
  into->norm_sum += from.norm_sum;
  into->norm_sum_sq += from.norm_sum_sq;
  into->norm_max = std::max(into->norm_max, from.norm_max);
  into->samples.insert(into->samples.end(), from.samples.begin(),
                       from.samples.end());
  if (sequential) {
    into->time.io_s += from.time.io_s;
    into->time.compute_s += from.time.compute_s;
  } else {
    into->time.io_s = std::max(into->time.io_s, from.time.io_s);
    into->time.compute_s = std::max(into->time.compute_s, from.time.compute_s);
  }
  into->io += from.io;
}

/// Data-parallel evaluation: splits `items` (owned atom codes, or sample
/// targets) into one contiguous run per worker process, evaluates the
/// runs on `workers` and folds their outcomes in submit order. Every run
/// is joined before the first failure in submit order is returned.
template <class Item, class EvaluateFn>
Result<NodeOutcome> FanOut(const NodeQuery& query,
                           const std::vector<Item>& items, ThreadPool* workers,
                           EvaluateFn evaluate) {
  NodeOutcome outcome;
  outcome.histogram.assign(static_cast<size_t>(query.num_bins) + 1, 0);
  const size_t runs = std::min<size_t>(
      static_cast<size_t>(std::max(1, query.processes)), items.size());
  std::vector<std::future<Result<NodeOutcome>>> futures;
  futures.reserve(runs);
  for (size_t run = 0; run < runs; ++run) {
    const size_t begin = items.size() * run / runs;
    const size_t end = items.size() * (run + 1) / runs;
    const std::span<const Item> slice(items.data() + begin, end - begin);
    futures.push_back(
        workers->Submit([&evaluate, slice] { return evaluate(slice); }));
  }
  Status failure;
  for (auto& future : futures) {
    Result<NodeOutcome> run = future.get();
    if (run.ok()) {
      Fold(run.value(), /*sequential=*/false, &outcome);
    } else if (failure.ok()) {
      failure = run.status();
    }
  }
  TURBDB_RETURN_NOT_OK(failure);
  return outcome;
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
    TURBDB_ASSIGN_OR_RETURN(
        NodeOutcome outcome,
        FanOut(query, query.targets, workers,
               [this, &query](std::span<const SampleTarget> run) {
                 return EvaluateRun(query, run);
               }));
    outcome.io.points_returned += outcome.samples.size();
    return outcome;
  }
  const bool cacheable = UsesCache(query, cache_);

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
  // The evaluated atoms are this shard's effective ownership under the
  // routed view: the partitioner's assignment, re-homed by the view's
  // range overrides. A cached threshold query skips every atom whose
  // recorded ceiling fails it, before the runs are cut, so the atoms
  // left stay evenly spread over the worker processes.
  std::vector<uint64_t> atoms =
      OwnedAtomsInBox(*query.partitioner, *query.view, shard_id_,
                      query.dataset->geometry.AtomCover(query.box));
  if (UsesCache(query, cache_)) {
    cache_.DropAtomsBelow(query.dataset->name, query.cache_field_key,
                          query.timestep, query.fd_order, query.threshold,
                          &atoms);
  }
  TURBDB_ASSIGN_OR_RETURN(
      NodeOutcome outcome,
      FanOut(query, atoms, workers,
             [this, &query](std::span<const uint64_t> run) {
               return EvaluateRun(query, run);
             }));

  // CPU saturation: beyond the node's effective core count, worker
  // processes time-share and compute time stops improving (the paper
  // observes little gain from 4 to 8 processes, Sec. 5.3).
  const int processes = std::max(1, query.processes);
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
    // One heap across the runs' candidates, taken in run order.
    std::priority_queue<ThresholdPoint, std::vector<ThresholdPoint>,
                        TopKHeapCompare>
        topk;
    for (const ThresholdPoint& point : outcome.points) {
      topk.push(point);
      if (topk.size() > query.k) topk.pop();
    }
    outcome.points.clear();
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

template <class Item>
Result<NodeOutcome> DatabaseNode::EvaluateRun(const NodeQuery& query,
                                              std::span<const Item> run) {
  NodeOutcome out;
  out.histogram.assign(static_cast<size_t>(query.num_bins) + 1, 0);
  TURBDB_RETURN_NOT_OK(CheckInterrupts(query));

  // Destination atom positions (in unwrapped atom coordinates, so
  // periodic halo images land outside [0, na)) -> wrapped atom code.
  DestMap dest;
  const uint64_t points = AddDestinations(query, run, &dest);
  if (dest.empty()) return out;

  // The slab covers the bounding box of all destinations.
  const std::array<int64_t, 3>& first = dest.begin()->first;
  Box3 box(first[0], first[1], first[2], first[0] + 1, first[1] + 1,
           first[2] + 1);
  for (const auto& [coord, code] : dest) {
    for (int d = 0; d < 3; ++d) {
      box.lo[d] = std::min(box.lo[d], coord[d]);
      box.hi[d] = std::max(box.hi[d], coord[d] + 1);
    }
  }
  // Memory guard: a contiguous Morton run on a grid with a
  // non-power-of-two atom count, widely scattered targets or wrapped
  // halos can span a huge box. Split the run until each slab fits; the
  // halves run in turn on this worker.
  const int64_t w = query.dataset->geometry.atom_width();
  const uint64_t slab_bytes = static_cast<uint64_t>(box.Volume()) * w * w *
                              w * query.raw_ncomp * sizeof(float);
  if (slab_bytes > kMaxSlabBytes && run.size() > 1) {
    const size_t mid = run.size() / 2;
    TURBDB_ASSIGN_OR_RETURN(NodeOutcome left,
                            EvaluateRun(query, run.first(mid)));
    TURBDB_ASSIGN_OR_RETURN(NodeOutcome right,
                            EvaluateRun(query, run.subspan(mid)));
    Fold(left, /*sequential=*/true, &right);
    return right;
  }

  TURBDB_ASSIGN_OR_RETURN(Slab slab, GatherDest(query, dest, box, &out));
  // Evaluated-point accounting happens here (rather than in the evaluate
  // loop) so that I/O-only runs still report the workload size — the
  // counters feed the paper-scale projections of Fig. 8.
  out.io.points_evaluated += points;
  TURBDB_RETURN_NOT_OK(Evaluate(query, run, slab, &out));
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

uint64_t DatabaseNode::AddDestinations(const NodeQuery& query,
                                       std::span<const uint64_t> atoms,
                                       DestMap* dest) {
  const GridGeometry& geometry = query.dataset->geometry;
  const int halo = query.kernel->HaloWidth(query.fd_order);
  uint64_t interest_points = 0;
  for (uint64_t code : atoms) {
    const Box3 interest = AtomBox(code, geometry).Intersection(query.box);
    if (interest.Empty()) continue;
    interest_points += static_cast<uint64_t>(interest.Volume());
    InsertCover(geometry, geometry.AtomCover(interest.Grown(halo)), dest);
  }
  return interest_points;
}

uint64_t DatabaseNode::AddDestinations(const NodeQuery& query,
                                       std::span<const SampleTarget> targets,
                                       DestMap* dest) {
  const GridGeometry& geometry = query.dataset->geometry;
  for (const auto& [index, position] : targets) {
    InsertCover(geometry,
                geometry.AtomCover(query.interpolator->SupportBox(position)),
                dest);
  }
  return targets.size();
}

Status DatabaseNode::Evaluate(const NodeQuery& query,
                              std::span<const uint64_t> atoms,
                              const Slab& slab, NodeOutcome* out) {
  if (query.options.io_only) return Status::OK();

  // One kernel call per x row of each atom's interest box. Points are
  // consumed in atom -> z -> y -> x order: which of equal norms top-k
  // keeps, and where the point-cap exit stops, depend on it.
  const int64_t w = query.dataset->geometry.atom_width();
  std::priority_queue<ThresholdPoint, std::vector<ThresholdPoint>,
                      TopKHeapCompare>
      topk;
  std::vector<double> norms(static_cast<size_t>(w));
  uint64_t evaluated = 0;
  // A cached threshold query records the ceiling of each atom it
  // evaluates whole: the largest float norm among its points.
  const bool record_ceilings = UsesCache(query, cache_);
  std::vector<AtomCeiling> ceilings;
  for (uint64_t code : atoms) {
    TURBDB_RETURN_NOT_OK(CheckInterrupts(query));
    const Box3 atom_box = AtomBox(code, query.dataset->geometry);
    const Box3 interest = atom_box.Intersection(query.box);
    if (interest.Empty()) continue;
    float ceiling = -std::numeric_limits<float>::infinity();
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
              const float norm = static_cast<float>(norms[i]);
              ceiling = std::max(ceiling, norm);
              if (!PassesThreshold(norm, query.threshold)) continue;
              out->points.push_back(point(i, norms[i]));
              if (out->points.size() > query.options.max_result_points) {
                // The global cap is already exceeded by this node
                // alone; computing further is pointless.
                return Status::ThresholdTooLow(
                    "threshold too low: result exceeds the point cap");
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
              ++out->histogram[static_cast<size_t>(bin)];
            }
            break;
          case NodeQuery::Mode::kMoments:
            for (int64_t i = 0; i < nx; ++i) {
              out->norm_sum += norms[i];
              out->norm_sum_sq += norms[i] * norms[i];
              out->norm_max = std::max(out->norm_max, norms[i]);
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
          case NodeQuery::Mode::kSample:  // Runs take the target overload.
            break;
        }
      }
    }
    if (record_ceilings && interest == atom_box) {
      ceilings.push_back(AtomCeiling{code, ceiling});
    }
  }
  cache_.RecordCeilings(query.dataset->name, query.cache_field_key,
                        query.timestep, query.fd_order, ceilings);
  while (!topk.empty()) {
    out->points.push_back(topk.top());
    topk.pop();
  }
  out->time.compute_s += static_cast<double>(evaluated) *
                         query.kernel->FlopsPerPoint(query.fd_order) /
                         query.flops_per_process;
  return Status::OK();
}

Status DatabaseNode::Evaluate(const NodeQuery& query,
                              std::span<const SampleTarget> targets,
                              const Slab& slab, NodeOutcome* out) {
  const LagrangeInterpolator& interp = *query.interpolator;
  out->samples.reserve(targets.size());
  for (const auto& [index, position] : targets) {
    std::array<double, 3> sample = {0.0, 0.0, 0.0};
    interp.At(slab, position, query.raw_ncomp, sample.data());
    out->samples.push_back({index, sample});
  }
  const int s = interp.support();
  const double flops_per_sample =
      2.0 * s * s * s * query.raw_ncomp + 18.0 * s * s;
  out->time.compute_s += static_cast<double>(targets.size()) *
                         flops_per_sample / query.flops_per_process;
  return Status::OK();
}

Result<Slab> DatabaseNode::GatherDest(const NodeQuery& query,
                                      const DestMap& dest, const Box3& box,
                                      NodeOutcome* out) {
  // The slab is allocated first so that each atom is copied straight
  // from the store or the fetch reply into every destination it backs.
  const int64_t w = query.dataset->geometry.atom_width();
  Slab slab(Box3(box.lo[0] * w, box.lo[1] * w, box.lo[2] * w, box.hi[0] * w,
                 box.hi[1] * w, box.hi[2] * w),
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
      return Status::NotFound("field '" + query.raw_field +
                              "' not ingested on node " + std::to_string(id_));
    }
    uint64_t bytes = 0;
    for (size_t lo = 0; lo < local_codes.size();) {
      size_t hi = lo + 1;
      while (hi < local_codes.size() &&
             local_codes[hi] == local_codes[hi - 1] + 1) {
        ++hi;
      }
      size_t visited = 0;
      TURBDB_RETURN_NOT_OK(store->Scan(
          query.timestep, MortonRange{local_codes[lo], local_codes[hi - 1] + 1},
          [&](const Atom& atom) {
            ++visited;
            bytes += atom.SizeBytes();
            place(atom);
          }));
      if (visited != hi - lo) return Status::NotFound("atom not found");
      lo = hi;
    }
    out->time.io_s +=
        hdd_.ChargeRead(bytes, CountRuns(local_codes), query.processes);
    out->io.atoms_read_local += local_codes.size();
    out->io.bytes_read_local += bytes;
  }
  // Remote halo reads: one batched request per adjacent node. Each hop
  // re-checks cancellation/deadline first: a network fetch is the most
  // expensive thing to start for a query nobody is waiting on.
  for (const auto& [owner, codes] : remote_codes) {
    if (!remote_fetch_) return Status::Internal("remote fetch hook not wired");
    TURBDB_RETURN_NOT_OK(CheckInterrupts(query));
    double cost = 0.0;
    TURBDB_ASSIGN_OR_RETURN(
        std::vector<Atom> atoms,
        remote_fetch_(query, owner, query.dataset->name, query.raw_field,
                      query.timestep, codes, query.processes, &cost));
    out->time.io_s += cost;
    // Atoms the request did not name are ignored; every one it named
    // must be there, in the shape this dataset stores.
    uint64_t bytes = 0;
    std::vector<bool> received(codes.size(), false);
    for (const Atom& atom : atoms) {
      bytes += atom.SizeBytes();
      auto it = std::lower_bound(codes.begin(), codes.end(), atom.key.zindex);
      if (it == codes.end() || *it != atom.key.zindex) continue;
      if (atom.width != w || atom.ncomp != query.raw_ncomp) {
        return Status::Internal("halo reply from node " +
                                std::to_string(owner) + " has atom " +
                                std::to_string(atom.key.zindex) +
                                " in the wrong shape");
      }
      received[static_cast<size_t>(it - codes.begin())] = true;
      place(atom);
    }
    const auto missing = std::count(received.begin(), received.end(), false);
    if (missing > 0) {
      return Status::Internal(
          "halo reply from node " + std::to_string(owner) + " lacks " +
          std::to_string(missing) + " of " + std::to_string(codes.size()) +
          " requested atoms");
    }
    out->io.atoms_read_remote += codes.size();
    out->io.bytes_read_remote += bytes;
  }
  return slab;
}

}  // namespace turbdb
