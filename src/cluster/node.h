#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "array/point.h"
#include "cache/semantic_cache.h"
#include "cluster/cost_model.h"
#include "cluster/dataset.h"
#include "cluster/partitioner.h"
#include "common/thread_pool.h"
#include "fields/derived_field.h"
#include "fields/differentiator.h"
#include "fields/interpolator.h"
#include "membership/view.h"
#include "query/query.h"
#include "storage/atom_store.h"
#include "txn/txn_manager.h"

namespace turbdb {

/// What a node is asked to evaluate: the by-value parameters plus what
/// they resolve to in this process. Built by `Catalog::Resolve`
/// (cluster/catalog.h) from a `net::NodeQuerySpec`; everything pointed
/// to outlives the call.
struct NodeQuery : NodeQueryParams {
  /// kMoments accumulates sum/sum-of-squares/max of the norm, which is
  /// how thresholds are chosen in practice (the paper expresses them as
  /// multiples of the field's RMS). kSample interpolates the raw field
  /// at arbitrary positions (the GetVelocity-style service calls).
  enum class Mode { kThreshold, kPdf, kTopK, kMoments, kSample };

  Mode mode = Mode::kThreshold;
  const DatasetInfo* dataset = nullptr;
  const MortonPartitioner* partitioner = nullptr;
  int raw_ncomp = 3;
  /// Cache identity of the derived quantity: "<raw>:<derived>", so that
  /// e.g. the curl of the velocity and the curl of the magnetic field
  /// occupy distinct cache entries.
  std::string cache_field_key;
  std::shared_ptr<const DerivedField> kernel;
  const Differentiator* diff = nullptr;
  /// kSample: the interpolator of `sample_support`.
  std::shared_ptr<const LagrangeInterpolator> interpolator;

  // Execution budget (not serialized — each hop derives its own from the
  // frame header). A default-constructed time_point means unbounded; a
  // null cancel pointer means not cancellable. Workers poll both at
  // chunk boundaries and between atoms of the evaluate loop, so a
  // cancelled or over-budget query stops burning cores within one atom's
  // worth of work. Plain std::chrono (not net::Deadline) so the core
  // node carries no dependency on the transport layer.
  std::chrono::steady_clock::time_point deadline{};
  const std::atomic<bool>* cancel = nullptr;
  /// Mediator-assigned id under which this query was registered for
  /// cancellation; 0 = unregistered. Carried so error messages and
  /// remote sub-queries can name the query being cancelled.
  uint64_t query_id = 0;
  /// The membership view the mediator routed this query under; never
  /// null. The node evaluates the view's *effective* ownership of its
  /// shard (base partitioner assignment re-homed by the view's range
  /// overrides) and reads every atom from its owner under the same view
  /// — this is what makes a live range move change query routing without
  /// rebuilding partitioners, and keeps a query racing a cutover
  /// consistent. In-process deployments route by StaticView().
  std::shared_ptr<const MembershipView> view = StaticView();
};

/// One database node of the analysis cluster: its shard of every
/// dataset's atoms (keyed by Morton range), its disks, and its local
/// semantic cache, mirroring Fig. 5. Every mode runs one pipeline: the
/// query's items (the atoms this shard owns in the box, or the sample
/// targets) are split into one contiguous run per worker process; each
/// run gathers the atoms it reads, its own plus the boundary band that
/// adjacent nodes serve through the fetch hook, into one slab (split in
/// halves while that slab would pass a 256 MiB guard) and evaluates
/// derived-field rows or interpolates over it; the runs' outcomes fold
/// into the node's in submit order.
class DatabaseNode {
 public:
  /// Batched halo fetch from a peer node: returns the atoms for `codes`
  /// (sorted) of (dataset, field, timestep) owned by node `owner`, and
  /// adds the modeled cost (peer disk + LAN) to `*cost_s`. `query` is
  /// the query the fetch serves; implementations deduct its remaining
  /// deadline budget before dialing, so a halo hop never outlives the
  /// query that needs it.
  using RemoteFetchFn = std::function<Result<std::vector<Atom>>(
      const NodeQuery& query, int owner, const std::string& dataset,
      const std::string& field, int32_t timestep,
      const std::vector<uint64_t>& codes, int concurrent, double* cost_s)>;

  /// `storage_dir` empty = in-memory stores; otherwise atoms persist in
  /// FileAtomStore files under that directory.
  DatabaseNode(int id, const CostModelConfig& cost,
               std::string storage_dir = "");

  int id() const { return id_; }

  /// The partition this node serves. Defaults to `id`; a replicated
  /// deployment sets it to id / replication-factor so that every replica
  /// of a group answers for the same slice of the Morton partitioning
  /// while keeping distinct physical ids (file names, error messages).
  void set_shard(int shard) { shard_id_ = shard; }
  int shard() const { return shard_id_; }

  void set_remote_fetch(RemoteFetchFn fn) { remote_fetch_ = std::move(fn); }

  /// Whether FinishIngest() fsyncs durable stores (default true). Benches
  /// that measure modeled — not physical — I/O turn it off (--no-fsync).
  void set_fsync_on_ingest(bool value) { fsync_on_ingest_ = value; }

  /// Stores one atom of (dataset, field). Creation path; not timed.
  Status IngestAtom(const std::string& dataset, const std::string& field,
                    const Atom& atom);

  /// Marks the end of an ingest batch for (dataset, field): flushes the
  /// store to stable storage (durable mode) so acknowledged atoms survive
  /// a crash. No-op when fsync-on-ingest is disabled or the store is
  /// volatile.
  Status FinishIngest(const std::string& dataset, const std::string& field);

  /// Every store currently open, with its atom count. A donor node uses
  /// it to tell a re-syncing replica what it can serve.
  std::vector<StoreListing> ListStores() const;

  /// Collects up to `max_atoms` atoms of (dataset, field, timestep) with
  /// z-index in [begin, end) into `*atoms`, in z order. `*next_code` is
  /// where the next page starts; `*done` is true when the range is
  /// exhausted. NotFound if this node has no such store.
  Status CollectRange(const std::string& dataset, const std::string& field,
                      int32_t timestep, uint64_t begin, uint64_t end,
                      uint64_t max_atoms, std::vector<Atom>* atoms,
                      uint64_t* next_code, bool* done) const;

  /// Point-reads `codes` (sorted) on behalf of a peer's halo gather,
  /// charging this node's disk; used by the mediator's fetch hook.
  Result<std::vector<Atom>> ServeAtoms(const std::string& dataset,
                                       const std::string& field,
                                       int32_t timestep,
                                       const std::vector<uint64_t>& codes,
                                       int concurrent, double* cost_s,
                                       uint64_t* bytes_out);

  /// Evaluates this node's part of a query (Algorithm 1 for thresholds),
  /// running its data-parallel runs on `workers`.
  Result<NodeOutcome> Execute(const NodeQuery& query, ThreadPool* workers);

  /// Drops cache entries and atom ceilings (benchmark hook; see
  /// SemanticCache::Evict).
  Status DropCacheEntries(const std::string& dataset, const std::string& field,
                          int32_t timestep) {
    return cache_.Evict(dataset, field, timestep);
  }

  SemanticCache& cache() { return cache_; }
  DeviceModel& hdd() { return hdd_; }

  /// Number of atoms this node stores for (dataset, field).
  uint64_t StoredAtomCount(const std::string& dataset,
                           const std::string& field) const;

  /// Every open store with the raw AtomStore pointer, for the scrubber's
  /// listing callback. Pointers stay valid for the node's lifetime
  /// (stores are never closed while the node runs).
  struct StoreHandle {
    std::string dataset;
    std::string field;
    AtomStore* store = nullptr;
  };
  std::vector<StoreHandle> OpenStores();

  /// Content digests of one store's atoms (for a Merkle build); NotFound
  /// if this node has no such store — but for a durable node the store
  /// is recovered from disk first, like CollectRange does.
  Status StoreDigestRows(const std::string& dataset, const std::string& field,
                         std::vector<AtomDigest>* rows) const;

  /// Overwrites (or inserts) the stored copy of `atom` with known-good
  /// bytes from a healthy replica, clearing any quarantine on the key.
  Status RepairAtom(const std::string& dataset, const std::string& field,
                    const Atom& atom);

  /// Looks up one atom directly in the store (no cache, no cost model):
  /// the repair driver uses it to compare a peer's copy against local
  /// bytes. NotFound when missing, kCorruption when quarantined or rotted.
  Result<Atom> ReadStoredAtom(const std::string& dataset,
                              const std::string& field,
                              const AtomKey& key) const;

 private:
  /// Destination atom position (unwrapped atom coords) -> wrapped code.
  using DestMap = std::map<std::array<int64_t, 3>, uint64_t>;
  /// A point sample's original index and position.
  using SampleTarget = std::pair<uint32_t, std::array<double, 3>>;

  AtomStore* FindStore(const std::string& dataset,
                       const std::string& field) const;
  AtomStore* GetOrCreateStore(const std::string& dataset,
                              const std::string& field);

  /// Threshold, PDF, top-k and moments against the raw data (Algorithm 1
  /// lines 29-38): this shard's atoms in the box (for a cached threshold
  /// query, less those whose recorded ceiling fails the threshold),
  /// evaluated in runs, then the node-level steps (effective-core
  /// scaling, point cap, one top-k heap across the runs, z order).
  Result<NodeOutcome> ExecuteFromRaw(const NodeQuery& query,
                                     ThreadPool* workers);

  /// Evaluates one worker's contiguous run of items (owned atom codes,
  /// or sample targets): builds the run's destination map, splits the
  /// run in halves while its destination box needs a slab past the
  /// memory guard, gathers the box once and evaluates the run over it.
  template <class Item>
  Result<NodeOutcome> EvaluateRun(const NodeQuery& query,
                                  std::span<const Item> run);

  /// Adds the atoms of `cover` (atom coordinates, possibly out of range)
  /// to `dest`, wrapping periodic axes and skipping beyond-wall entries.
  static void InsertCover(const GridGeometry& geometry, const Box3& cover,
                          DestMap* dest);

  /// Adds what a run reads to `dest`: each atom's part of the query box
  /// grown by the kernel's halo, or each target's interpolation support.
  /// Returns the number of points the run evaluates.
  static uint64_t AddDestinations(const NodeQuery& query,
                                  std::span<const uint64_t> atoms,
                                  DestMap* dest);
  static uint64_t AddDestinations(const NodeQuery& query,
                                  std::span<const SampleTarget> targets,
                                  DestMap* dest);

  /// The evaluate step over a gathered slab: the kernel at every owned
  /// grid point inside the query box (skipped for I/O-only runs), or the
  /// interpolated field at each target. A cached threshold query records
  /// the ceiling of every atom it evaluates whole in the semantic cache.
  Status Evaluate(const NodeQuery& query, std::span<const uint64_t> atoms,
                  const Slab& slab, NodeOutcome* out);
  static Status Evaluate(const NodeQuery& query,
                         std::span<const SampleTarget> targets,
                         const Slab& slab, NodeOutcome* out);

  /// Fetches every atom of `dest` (local reads from this node's store,
  /// batched reads from peers via remote_fetch_) into a slab over `box`
  /// (atom coordinates), charging the reads to `out`.
  Result<Slab> GatherDest(const NodeQuery& query, const DestMap& dest,
                          const Box3& box, NodeOutcome* out);

  int id_;
  int shard_id_;
  std::string storage_dir_;
  bool fsync_on_ingest_ = true;
  DeviceModel hdd_;
  TransactionManager txn_manager_;
  SemanticCache cache_;
  RemoteFetchFn remote_fetch_;

  mutable std::mutex stores_mutex_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<AtomStore>>
      stores_;
};

}  // namespace turbdb
