#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/fof.h"
#include "cache/mediator_cache.h"
#include "cluster/catalog.h"
#include "cluster/cost_model.h"
#include "cluster/dataset.h"
#include "cluster/node.h"
#include "cluster/node_backend.h"
#include "cluster/partitioner.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "membership/rebalance.h"
#include "membership/registry.h"
#include "net/protocol.h"
#include "query/query.h"

namespace turbdb {

class ReplicaGroup;

/// Cluster-level configuration (the paper's deployment: 4-8 database
/// nodes, 1-8 worker processes per node, Sec. 5.1).
struct ClusterConfig {
  int num_nodes = 4;
  int processes_per_node = 4;
  CostModelConfig cost;
  /// Host threads actually executing node work; defaults to the hardware
  /// concurrency. This affects only real wall time, never modeled time.
  int worker_threads = 0;
  /// How datasets are sharded across nodes (Morton, as in the JHTDB, or
  /// z-slabs for the partitioning ablation).
  PartitionStrategy partition_strategy = PartitionStrategy::kMorton;
  /// When non-empty, each node persists its atoms in checksummed
  /// append-only files under this directory (one file per node, dataset
  /// and field) instead of holding them in memory; reopening a cluster
  /// over the same directory recovers the data. Device *time* still
  /// comes from the cost models either way.
  std::string storage_dir;
  /// When non-empty, the database nodes are `turbdb_node` processes at
  /// these addresses (entry i = physical node i) and the mediator
  /// scatter-gathers over TCP; `num_nodes` is then the topology's group
  /// count (node count / replication factor). Empty = classic in-process
  /// deployment. The topology's `replication_factor` R fronts each shard
  /// with a ReplicaGroup of R consecutive nodes: primary-preferred reads
  /// with failover, write fan-out, and epoch-aware restart re-sync.
  ClusterTopology topology;
  /// Transport policy toward remote nodes (deadlines, retry budget).
  RemoteNodeOptions remote;
  /// Whether durable ingest fsyncs each (dataset, field) store at batch
  /// completion so acknowledged atoms survive a crash. Benches that only
  /// measure modeled time turn it off (--no-fsync).
  bool fsync_ingest = true;
  /// Capacity of the mediator-tier semantic result cache (see
  /// cache/mediator_cache.h): completed threshold results are kept at the
  /// cluster entry point and repeat (or subsumed) queries are answered
  /// with zero node RPCs. 0 (the default) disables the tier.
  uint64_t mediator_cache_bytes = 0;
};

/// Execution budget a transport front-end (cluster/service.h) attaches
/// to one query. `deadline` is an absolute wall-clock bound derived from
/// the client's frame budget (default-constructed = unbounded);
/// `cancel`, when non-null, is the serving layer's cancellation token
/// (flipped by a kCancelRequest). The mediator folds both into every
/// NodeQuery it dispatches, so a shard worker deep in an evaluate loop
/// observes the same budget the client stated.
struct CallBudget {
  std::chrono::steady_clock::time_point deadline{};
  const std::atomic<bool>* cancel = nullptr;
};

/// One physical node's row in Mediator::ClusterStatus().
struct ClusterNodeStatus {
  int node_id = 0;  ///< Physical id (topology index).
  int shard = 0;    ///< Replica group the node belongs to.
  bool primary = false;
  bool healthy = false;
  uint64_t epoch = 0;
  uint64_t failovers = 0;
  std::string address;
  // v6 elasticity/durability columns (append-only: earlier fields keep
  // their meaning and order for JSON consumers).
  uint64_t generation = 0;  ///< Generation of the node's last cutover.
  uint64_t wal_pending_records = 0;  ///< WAL records not yet checkpointed.
  uint64_t wal_pending_bytes = 0;    ///< WAL payload bytes pending.
  // v7 self-healing columns (append-only).
  uint64_t scrub_passes = 0;          ///< Scrub passes completed on the node.
  uint64_t scrub_atoms_corrupt = 0;   ///< Corrupt atoms scrubs ever found.
  uint64_t scrub_atoms_repaired = 0;  ///< Atoms healed via anti-entropy.
  uint64_t atoms_quarantined = 0;     ///< Atoms quarantined right now.
};

/// The front-end Web-server of Fig. 1: mediates between clients and the
/// database nodes. Splits each query along the spatial partitioning of
/// the data, submits the parts asynchronously to the owning nodes,
/// assembles their results and accounts the end-to-end (modeled) time.
class Mediator {
 public:
  static Result<std::unique_ptr<Mediator>> Create(const ClusterConfig& config);

  /// Registers a dataset and partitions its atoms across the nodes. A
  /// name the catalog holds already is kAlreadyExists; the catalog takes
  /// the dataset once every node accepted it.
  Status CreateDataset(const DatasetInfo& info);

  /// Ingests one (field, timestep) by materializing every atom through
  /// `generate` (in parallel) and storing it on its owner node.
  Status IngestTimestep(
      const std::string& dataset, const std::string& field, int32_t timestep,
      const std::function<Result<Atom>(int32_t, uint64_t)>& generate);

  /// Evaluates a threshold query (the paper's GetThreshold entry point):
  /// the buffered delivery of the one threshold pipeline, which returns
  /// the whole answer z-sorted in `points`. `budget` (optional, default
  /// unbounded) carries the caller's deadline and cancellation token;
  /// likewise for the other Get* entry points below.
  Result<ThresholdResult> GetThreshold(const ThresholdQuery& query,
                                       const QueryOptions& options = {},
                                       const CallBudget& budget = {});

  /// Consumes one chunk of a streamed threshold reply: the points of at
  /// most `chunk_points` joined results plus the running total delivered
  /// so far (including this chunk). Returns the encoded chunk size in
  /// bytes — fed back into the comm-time model — or an error, which
  /// aborts the query and cancels the not-yet-joined shards.
  using ThresholdChunkSink = std::function<Result<uint64_t>(
      std::vector<ThresholdPoint> points, uint64_t total_points)>;

  /// The streamed delivery of the same pipeline, with bounded memory:
  /// each joined sub-query outcome (or a mediator-cache hit) is sliced
  /// into chunks of at most `chunk_points` points and handed to `sink`
  /// *as it arrives*, instead of being gathered and globally sorted on
  /// the mediator. The returned result carries the summary (cache hits,
  /// modeled times, per-node stats, byte counters summed over the
  /// streamed chunks) with an *empty* point set; the consumer
  /// reassembles the points (z-order sort of the union) and gets a
  /// byte-identical set to the buffered delivery. A sink failure (client
  /// hung up) propagates out after the cancel fan-out.
  Result<ThresholdResult> GetThresholdStreaming(
      const ThresholdQuery& query, const QueryOptions& options,
      const CallBudget& budget, uint64_t chunk_points,
      const ThresholdChunkSink& sink);

  /// Consumes one batch of friends-of-friends clusters from GetFof,
  /// plus the total cluster count (known once the answer is clustered,
  /// so every batch carries it). Returns the encoded batch size in bytes
  /// — fed into the comm-time model — or an error, which aborts the
  /// reply.
  using FofClusterSink = std::function<Result<uint64_t>(
      std::vector<DistributedFofCluster> clusters, uint64_t total_clusters)>;

  /// Friends-of-friends clustering over the points a threshold query
  /// selects: the buffered threshold answer (mediator cache included,
  /// when `options.use_cache` is set), clustered once on the mediator by
  /// ClusterThresholdPoints (periodic wrap included), then streamed as
  /// cluster records through `sink` in batches of at most `chunk_points`
  /// member points. Cluster ids are deterministic (smallest member
  /// z-index) and the membership is byte-identical to running the
  /// in-process FriendsOfFriends over the same threshold answer. A
  /// linking length that is not positive or exceeds the dataset's atom
  /// width (CheckFofLinkingLength) fails typed before any node work.
  Result<DistributedFofSummary> GetFof(
      const ThresholdQuery& query, const QueryOptions& options,
      double linking_length, uint64_t min_cluster_size,
      const CallBudget& budget, uint64_t chunk_points,
      const FofClusterSink& sink);

  /// Histogram of the derived-field norm (Fig. 2).
  Result<PdfResult> GetPdf(const PdfQuery& query,
                           const CallBudget& budget = {});

  /// The k largest-norm locations.
  Result<TopKResult> GetTopK(const TopKQuery& query,
                             const CallBudget& budget = {});

  /// Mean/RMS/max of the derived-field norm.
  Result<FieldStatsResult> GetFieldStats(const FieldStatsQuery& query,
                                         const CallBudget& budget = {});

  /// Interpolates a stored field at arbitrary physical positions
  /// (Lag4/6/8), each evaluated on the node owning its grid cell — the
  /// GetVelocity-style service calls of Sec. 2. The per-shard parts go
  /// through the same scatter as every other query.
  Result<SampleResult> GetSamples(const SampleQuery& query,
                                  const CallBudget& budget = {});

  /// Drops cached results of (dataset, raw:derived) for `timestep`
  /// (-1 = all timesteps) on every node *and* in the mediator-tier
  /// result cache; benchmark hook matching the paper's procedure of
  /// dropping cache entries before cache-miss runs. `mediator_dropped`,
  /// when non-null, receives the mediator-tier entry count removed.
  Status DropCacheEntries(const std::string& dataset,
                          const std::string& raw_field,
                          const std::string& derived_field, int32_t timestep,
                          uint64_t* mediator_dropped = nullptr);

  /// Outcome of WarmThresholdCache.
  struct CacheWarmOutcome {
    uint64_t points = 0;        ///< Points now resident for the query.
    bool already_cached = false;  ///< True when no query had to run.
  };

  /// Runs `query` through the threshold pipeline solely to populate the
  /// mediator-tier cache, with one cache lookup: a resident entry that
  /// subsumes it answers with no node work (`already_cached`), otherwise
  /// the query executes and its completion inserts the entry. Fails when
  /// the cache tier is disabled.
  Result<CacheWarmOutcome> WarmThresholdCache(const ThresholdQuery& query,
                                              const CallBudget& budget = {});

  /// Logical shard count, including shards joined at runtime. Reads the
  /// atomic counter rather than backends_.size(): Join appends into
  /// reserved capacity and publishes through this counter, so the query
  /// path never races the vector's bookkeeping.
  int num_nodes() const {
    return static_cast<int>(backend_count_.load(std::memory_order_acquire));
  }
  /// True when the nodes are remote turbdb_node processes.
  bool distributed() const { return !config_.topology.empty(); }
  /// The in-process DatabaseNode `i` — local deployments only (tests and
  /// benchmarks reach into caches/stores through this).
  DatabaseNode& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  NodeBackend& backend(int i) { return *backends_[static_cast<size_t>(i)]; }
  const ClusterConfig& config() const { return config_; }
  /// The datasets and the resolver of every sub-query this mediator
  /// scatters.
  const Catalog& catalog() const { return catalog_; }

  /// Atoms node 0 stores for (dataset, field) — works in both
  /// deployments; used to probe whether data was already ingested.
  Result<uint64_t> StoredAtomCount(const std::string& dataset,
                                   const std::string& field);

  /// Health/epoch/failover snapshot of every physical node, one row per
  /// topology entry. Empty for the in-process deployment.
  std::vector<ClusterNodeStatus> ClusterStatus() const;

  /// Whether this mediator runs the membership registry (distributed
  /// deployments). Elasticity RPCs on a non-elastic mediator fail typed.
  bool elastic() const { return membership_ != nullptr; }

  /// Current membership snapshot (default-constructed when !elastic()).
  MembershipView Membership() const;

  /// Current membership generation (0 when !elastic()).
  uint64_t generation() const;

  /// Two-phase node join (the `turbdb_node --join` handshake). Phase 1
  /// (activate=false) admits the uuid: assigns node id and a fresh
  /// single-replica shard, returns the view plus this mediator's catalog
  /// entries, which the joiner self-registers. Phase 2 (activate=true) flips it to
  /// kShard and dials it as a new replica group; queries routed from then
  /// on carry its address. The joined shard owns no ranges until
  /// Rebalance() re-homes some to it — it serves immediately, with an
  /// empty slice.
  Result<net::JoinReply> Join(const net::JoinRequest& request);

  /// Decommissions `node_id`: every range its shard effectively owns is
  /// live-moved to the least-loaded remaining shard (copy, then
  /// cutover), and the record flips to kDraining. The drained node keeps
  /// its bytes (lazy drop), so queries routed before the drain still read
  /// them; it can be shut down afterwards.
  Result<net::LeaveReply> Leave(int node_id);

  /// Plans and executes up to `request.max_ranges` live range moves
  /// toward `request.to_shard` (-1 = least-loaded). Each move copies via
  /// SyncRange paging with skip-existing ingest, tells donor and
  /// recipient (Cutover), then commits on a registry generation bump. A
  /// query is answered under the view it was routed by, whichever side
  /// of a cutover its sub-queries land on: the donor keeps the moved
  /// range's bytes.
  Result<net::RebalanceReply> Rebalance(const net::RebalanceRequest& request);

  /// How many cancels Scatter has sent to not-yet-joined shards (after
  /// a hard failure, a tripped point cap, or an external cancellation).
  /// Observability/test hook.
  uint64_t cancels_issued() const { return cancels_issued_.load(); }

  /// The mediator-tier result cache; never null (disabled when
  /// `mediator_cache_bytes` was 0). The serving layer attaches the
  /// server's governor ledger and reads stats through this.
  MediatorCache& result_cache() { return *result_cache_; }

  /// How many node Execute sub-queries the scatter has submitted over
  /// this mediator's lifetime: every query's parts, point-sample parts
  /// included. A repeat threshold query answered by the mediator cache
  /// leaves this unchanged — the zero-node-RPC assertion hook for tests
  /// and benches.
  uint64_t node_executes() const { return node_executes_.load(); }

  /// Reads that failed over off a member answering kCorruption, and
  /// background read-repairs completed — summed over the replica groups
  /// (always 0 in-process). Surfaced through the ServerStats RPC (v7).
  uint64_t corruption_failovers() const;
  uint64_t read_repairs() const;

  Result<const DatasetInfo*> GetDataset(const std::string& name) const;

 private:
  explicit Mediator(const ClusterConfig& config);

  /// The spec every sub-query of a user query starts from: its mode,
  /// names, timestep and box (or sample support), with this cluster's
  /// process count and cost parameters. The caller adds its mode's
  /// parameters and resolves it through the catalog.
  template <class Query>
  net::NodeQuerySpec SpecOf(NodeQuery::Mode mode, const Query& query,
                            const QueryOptions& options) const;

  /// The one threshold pipeline (the paper's Algorithm 1) behind
  /// GetThreshold (`sink` null: buffered delivery, which GetFof and
  /// WarmThresholdCache run too) and GetThresholdStreaming (streamed in
  /// `chunk_points` chunks). Both deliveries take each shard's points as
  /// that shard joins.
  Result<ThresholdResult> RunThreshold(const ThresholdQuery& query,
                                       const QueryOptions& options,
                                       const CallBudget& budget,
                                       uint64_t chunk_points,
                                       const ThresholdChunkSink* sink);

  /// Receives a joined outcome's points.
  using OutcomeSink = std::function<Status(std::vector<ThresholdPoint> points)>;

  /// One node sub-query of a scatter.
  struct Part {
    int node_id = 0;
    NodeQuery query;
  };

  /// Routes `node_query` and scatters it: one part per node owning data
  /// in its box. The routing is done once, under one membership snapshot
  /// that every sub-query carries: each node evaluates and reads by that
  /// view, so no sub-query can be routed stale and nothing is
  /// re-scattered.
  Result<std::vector<NodeOutcome>> Dispatch(
      const NodeQuery& node_query, const CallBudget& budget,
      const OutcomeSink& point_sink = nullptr);

  /// Submits `parts` asynchronously, each carrying `view`, and joins the
  /// outcomes in order. Assigns the query a cluster-unique id, a cancel
  /// token and the tighter of the caller's deadline and the sub-query
  /// budget: when one part fails hard, the point cap trips, or
  /// `budget.cancel` flips, the token is set and the remaining in-flight
  /// sub-queries are cancelled instead of running to completion for a
  /// result nobody will merge.
  ///
  /// When `point_sink` is set, each outcome's points are *moved* into it
  /// as that outcome joins (the returned outcomes keep their metadata but
  /// empty point vectors), so the mediator never holds more than one
  /// outcome's points. A sink error aborts like a hard shard failure.
  Result<std::vector<NodeOutcome>> Scatter(
      std::vector<Part> parts,
      const std::shared_ptr<const MembershipView>& view,
      const CallBudget& budget, const OutcomeSink& point_sink = nullptr);

  /// Fresh shared snapshot of the membership view; StaticView() when
  /// !elastic(). Never null.
  std::shared_ptr<const MembershipView> ViewSnapshot() const;

  /// The replica group serving `shard`, or an error naming it.
  Result<ReplicaGroup*> Group(int shard) const;

  /// Dials the replica group of `shard` over `members` (physical id and
  /// address), brings it up, appends it to `backends_` and publishes the
  /// new `backend_count_`. Create and Join add every group through it.
  Status DialGroup(int shard,
                   const std::vector<std::pair<int, NodeAddress>>& members);

  /// Sorted codes each shard effectively owns under `view`, across every
  /// dataset (the shared Morton code space; see RebalancePlanner).
  std::vector<std::vector<uint64_t>> ComputeShardAtoms(
      const MembershipView& view) const;

  /// Copy + cutover of one planned move (caller holds
  /// membership_mutex_): donor and recipient take the cutover, then the
  /// registry commits it.
  Result<RangeMover::Outcome> ExecuteMoveLocked(const RangeMove& move);

  ClusterConfig config_;
  /// Declared before the backends: replica groups read it.
  Catalog catalog_;
  /// In-process nodes (empty in distributed mode); backends_ is the
  /// uniform view the query path uses, one entry per node either way.
  /// Capacity is reserved at Create for the base shards plus the join
  /// headroom, so Join's push_back never reallocates under a concurrent
  /// Dispatch; `backend_count_` publishes the readable prefix.
  std::vector<std::unique_ptr<DatabaseNode>> nodes_;
  std::vector<std::unique_ptr<NodeBackend>> backends_;
  std::atomic<size_t> backend_count_{0};

  /// Authoritative membership (distributed mode; null in-process). Admin
  /// mutations (join/leave/rebalance) serialize on membership_mutex_.
  std::unique_ptr<MembershipRegistry> membership_;
  std::mutex membership_mutex_;

  /// Runs per-node sub-queries (the asynchronous query scheduling layer).
  std::unique_ptr<ThreadPool> scheduler_;
  /// Runs the per-process chunks inside each node.
  std::unique_ptr<ThreadPool> workers_;

  /// Source of query ids, which cancels name: a counter mixed with this
  /// mediator's address, so two mediators over the same nodes cannot
  /// collide.
  std::atomic<uint64_t> query_counter_{1};
  std::atomic<uint64_t> cancels_issued_{0};
  std::atomic<uint64_t> node_executes_{0};

  /// Mediator-tier semantic result cache (capacity 0 = disabled).
  std::unique_ptr<MediatorCache> result_cache_;
};

}  // namespace turbdb
