#include "cluster/mediator.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>
#include <type_traits>

#include "cluster/remote_node.h"
#include "common/fault.h"
#include "common/governor.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "replication/replica_group.h"
#include "wire/serializer.h"

namespace turbdb {

namespace {

/// How many shards can join one mediator incarnation: the backends_
/// vector reserves this much extra capacity so runtime joins append
/// without reallocating under concurrent readers.
constexpr size_t kJoinHeadroom = 64;

/// Byte budget shared by every IngestTimestep worker for atoms
/// materialized but not yet shipped to their node. Workers page their
/// slice in bounded batches against it instead of materializing the
/// whole slice, so ingesting a timestep larger than RAM stays safe.
constexpr uint64_t kIngestBudgetBytes = 256u << 20;

}  // namespace

Mediator::Mediator(const ClusterConfig& config) : config_(config) {
  result_cache_ = std::make_unique<MediatorCache>(config.mediator_cache_bytes);
}

Result<std::unique_ptr<Mediator>> Mediator::Create(
    const ClusterConfig& config) {
  ClusterConfig effective = config;
  const int replication =
      std::max(1, effective.topology.replication_factor);
  if (!effective.topology.empty()) {
    // Distributed deployment: the topology is the physical node list;
    // the mediator's logical node count is the replica-group count.
    if (effective.topology.size() % static_cast<size_t>(replication) != 0) {
      return Status::InvalidArgument(
          "topology of " + std::to_string(effective.topology.size()) +
          " nodes does not divide by replication factor " +
          std::to_string(replication));
    }
    effective.num_nodes =
        static_cast<int>(effective.topology.size()) / replication;
  }
  if (effective.num_nodes <= 0) {
    return Status::InvalidArgument("need at least one database node");
  }
  if (effective.processes_per_node <= 0) {
    return Status::InvalidArgument("need at least one process per node");
  }
  auto mediator = std::unique_ptr<Mediator>(new Mediator(effective));
  const int worker_threads =
      effective.worker_threads > 0
          ? effective.worker_threads
          : static_cast<int>(std::thread::hardware_concurrency());
  mediator->scheduler_ = std::make_unique<ThreadPool>(effective.num_nodes);
  mediator->workers_ = std::make_unique<ThreadPool>(worker_threads);

  if (mediator->distributed()) {
    // The membership registry: seeded from the static topology, or
    // recovered from the persisted file when one exists (nodes joined in
    // a previous incarnation come back with it).
    TURBDB_ASSIGN_OR_RETURN(
        mediator->membership_,
        MembershipRegistry::Open(effective.storage_dir, effective.topology));
    // Reserve join headroom so runtime push_backs never reallocate under
    // a concurrent Dispatch (see backend_count_).
    mediator->backends_.reserve(static_cast<size_t>(effective.num_nodes) +
                                kJoinHeadroom);
    // Remote scatter-gather: one ReplicaGroup per shard, fronting the R
    // consecutive turbdb_node processes that hold the shard's atom
    // range. Bring-up handshakes every member now: with R=1 a dead or
    // misconfigured node fails the bring-up (not the first query); with
    // R>1 a group tolerates dead members as long as one answers.
    for (int g = 0; g < effective.num_nodes; ++g) {
      std::vector<std::unique_ptr<RemoteNode>> members;
      for (int r = 0; r < replication; ++r) {
        const int physical = g * replication + r;
        members.push_back(std::make_unique<RemoteNode>(
            physical,
            effective.topology.nodes[static_cast<size_t>(physical)],
            effective.remote, /*shard=*/g));
      }
      auto group = std::make_unique<ReplicaGroup>(
          g, std::move(members), &mediator->catalog_, effective.remote);
      TURBDB_RETURN_NOT_OK(group->BringUp());
      mediator->backends_.push_back(std::move(group));
    }
    // Shards joined in a previous mediator incarnation (registry file):
    // re-dial them as single-replica groups so their overridden ranges
    // stay served across a mediator restart.
    for (const NodeRecord& record : mediator->membership_->Snapshot().nodes) {
      if (record.shard < effective.num_nodes ||
          record.role != NodeRole::kShard) {
        continue;
      }
      std::vector<std::unique_ptr<RemoteNode>> members;
      members.push_back(std::make_unique<RemoteNode>(
          record.node_id, NodeAddress{record.host, record.port},
          effective.remote, record.shard));
      auto group = std::make_unique<ReplicaGroup>(
          record.shard, std::move(members), &mediator->catalog_,
          effective.remote);
      TURBDB_RETURN_NOT_OK(group->BringUp());
      mediator->backends_.push_back(std::move(group));
    }
    mediator->backend_count_.store(mediator->backends_.size(),
                                   std::memory_order_release);
    return mediator;
  }

  mediator->nodes_.reserve(static_cast<size_t>(effective.num_nodes));
  mediator->backends_.reserve(static_cast<size_t>(effective.num_nodes));
  for (int i = 0; i < effective.num_nodes; ++i) {
    mediator->nodes_.push_back(std::make_unique<DatabaseNode>(
        i, effective.cost, effective.storage_dir));
    mediator->nodes_.back()->set_fsync_on_ingest(effective.fsync_ingest);
  }
  // Wire the halo-exchange hook: a worker on one node fetches boundary
  // atoms by a batched read served from the owning node's disks plus a
  // LAN round trip. (Remote nodes do the same peer-to-peer over TCP.)
  Mediator* raw = mediator.get();
  for (auto& node : mediator->nodes_) {
    node->set_remote_fetch(
        [raw](const NodeQuery& /*query*/, int owner,
              const std::string& dataset, const std::string& field,
              int32_t timestep, const std::vector<uint64_t>& codes,
              int concurrent, double* cost_s) -> Result<std::vector<Atom>> {
          if (owner < 0 || owner >= raw->num_nodes()) {
            return Status::InvalidArgument("no such node");
          }
          uint64_t bytes = 0;
          TURBDB_ASSIGN_OR_RETURN(
              std::vector<Atom> atoms,
              raw->nodes_[static_cast<size_t>(owner)]->ServeAtoms(
                  dataset, field, timestep, codes, concurrent, cost_s,
                  &bytes));
          if (cost_s != nullptr) {
            *cost_s += raw->config_.cost.lan.TransferCost(bytes);
          }
          return atoms;
        });
    mediator->backends_.push_back(
        std::make_unique<LocalNode>(node.get(), mediator->workers_.get()));
  }
  mediator->backend_count_.store(mediator->backends_.size(),
                                 std::memory_order_release);
  return mediator;
}

Status Mediator::CreateDataset(const DatasetInfo& info) {
  if (catalog_.Find(info.name).ok()) {
    return Status::AlreadyExists("dataset '" + info.name +
                                 "' already exists");
  }
  for (auto& backend : backends_) {
    TURBDB_RETURN_NOT_OK(backend->CreateDataset(info, config_.num_nodes,
                                                config_.partition_strategy));
  }
  return catalog_.Register(info, config_.num_nodes,
                           config_.partition_strategy);
}

Result<const DatasetInfo*> Mediator::GetDataset(const std::string& name) const {
  TURBDB_ASSIGN_OR_RETURN(const Catalog::Entry* entry, catalog_.Find(name));
  return &entry->info;
}

Status Mediator::IngestTimestep(
    const std::string& dataset, const std::string& field, int32_t timestep,
    const std::function<Result<Atom>(int32_t, uint64_t)>& generate) {
  TURBDB_ASSIGN_OR_RETURN(const Catalog::Entry* entry, catalog_.Find(dataset));
  TURBDB_RETURN_NOT_OK(entry->info.FieldNcomp(field).status());
  // Materialized-but-unshipped atoms across all workers are charged to
  // this shared budget, so a timestep larger than RAM pages through in
  // bounded batches instead of being built whole. (The governor outlives
  // the futures: every one is joined below.)
  ResourceGovernor ingest_budget(0, kIngestBudgetBytes);
  std::vector<std::future<Status>> futures;
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(workers_->num_threads()));
  // Flush threshold per worker: a fraction of the shared budget so the
  // concurrent slices still batch RPCs without ganging up on the cap.
  const uint64_t flush_bytes =
      std::max<uint64_t>(1, kIngestBudgetBytes / (2 * slices));
  // Route each atom to the shard that *effectively* owns it: the static
  // partitioner assignment re-homed by the membership view, so ingest
  // lands on a joined shard's replicas once a rebalance moved ranges to
  // it. (A shard beyond the base partitioning owns atoms only through
  // overrides; OwnedAtoms handles both.)
  const std::shared_ptr<const MembershipView> view = ViewSnapshot();
  for (int node_id = 0; node_id < num_nodes(); ++node_id) {
    const std::vector<uint64_t> codes =
        OwnedAtoms(entry->partitioner, *view, node_id);
    // Slice each node's shard so ingestion saturates the worker pool.
    for (size_t s = 0; s < slices; ++s) {
      const size_t begin = codes.size() * s / slices;
      const size_t end = codes.size() * (s + 1) / slices;
      if (begin == end) continue;
      std::vector<uint64_t> slice(codes.begin() + begin, codes.begin() + end);
      NodeBackend* backend = backends_[static_cast<size_t>(node_id)].get();
      futures.push_back(workers_->Submit(
          [backend, &dataset, &field, timestep, &generate, &ingest_budget,
           flush_bytes, slice = std::move(slice)]() -> Status {
            // Page the slice in bounded batches: each batch still ships
            // as one RPC to a remote backend, but the batch size is
            // capped by the shared byte budget instead of the slice
            // length.
            std::vector<Atom> batch;
            std::vector<ResourceGovernor::ByteReservation> held;
            uint64_t batch_bytes = 0;
            auto flush = [&]() -> Status {
              if (batch.empty()) return Status::OK();
              Status shipped = backend->IngestAtoms(dataset, field, batch);
              batch.clear();
              held.clear();  // Returns the bytes to the budget.
              batch_bytes = 0;
              return shipped;
            };
            for (uint64_t code : slice) {
              auto atom = generate(timestep, code);
              if (!atom.ok()) return atom.status();
              const uint64_t atom_bytes =
                  atom->data.size() * sizeof(float) + sizeof(Atom);
              // Ship what we hold before blocking on a full budget, so a
              // waiting worker never deadlocks the others by sitting on
              // its own share (and the progress guarantee admits even a
              // single atom larger than the whole budget).
              ResourceGovernor::ByteReservation reservation;
              Status reserved =
                  ingest_budget.TryReserve(atom_bytes, &reservation);
              if (!reserved.ok()) {
                TURBDB_RETURN_NOT_OK(flush());
                reserved = ingest_budget.ReserveBlocking(atom_bytes,
                                                         &reservation);
                if (!reserved.ok()) return reserved;
              }
              held.push_back(std::move(reservation));
              batch.push_back(std::move(atom).value());
              batch_bytes += atom_bytes;
              if (batch_bytes >= flush_bytes) {
                TURBDB_RETURN_NOT_OK(flush());
              }
            }
            return flush();
          }));
    }
  }
  Status failure;
  for (auto& future : futures) {
    Status status = future.get();
    if (!status.ok() && failure.ok()) failure = status;
  }
  // New raw data invalidates every cached derived result built from it —
  // even on a failed ingest, since some atoms may already have shipped.
  // The epoch bump inside also poisons inserts of queries that dispatched
  // before this ingest.
  result_cache_->InvalidateRawField(dataset, field, timestep);
  return failure;
}

template <class Query>
net::NodeQuerySpec Mediator::SpecOf(NodeQuery::Mode mode, const Query& query,
                                    const QueryOptions& options) const {
  net::NodeQuerySpec spec;
  spec.mode = static_cast<int32_t>(mode);
  spec.dataset = query.dataset;
  spec.raw_field = query.raw_field;
  spec.timestep = query.timestep;
  if constexpr (std::is_same_v<Query, SampleQuery>) {
    spec.sample_support = query.support;
  } else {
    spec.derived_field = query.derived_field;
    spec.box = query.box;
    spec.fd_order = query.fd_order;
  }
  spec.processes = options.processes_per_node > 0
                       ? options.processes_per_node
                       : config_.processes_per_node;
  spec.options = options;
  spec.flops_per_process = config_.cost.flops_per_process;
  spec.effective_cores = config_.cost.effective_cores_per_node;
  return spec;
}

Result<std::vector<NodeOutcome>> Mediator::Dispatch(
    const NodeQuery& node_query, const CallBudget& budget,
    const OutcomeSink& point_sink,
    std::shared_ptr<const MembershipView>* routed_view) {
  // One ownership decision per query: the membership snapshot taken here.
  // Every sub-query carries it, and each node evaluates and reads by
  // exactly this view, so a cutover racing the scatter cannot change the
  // answer.
  const std::shared_ptr<const MembershipView> view = ViewSnapshot();
  if (routed_view != nullptr) *routed_view = view;
  // Split the query along the spatial layout and submit each part
  // asynchronously to the node storing the data (Fig. 1). The split
  // follows *effective* ownership: a shard participates iff the view
  // assigns it atoms inside the box, which is how joined shards enter
  // routing and moved ranges leave their donor.
  const Box3 cover =
      node_query.dataset->geometry.AtomCover(node_query.box);
  std::vector<Part> parts;
  for (int i = 0; i < num_nodes(); ++i) {
    if (!OwnedAtomsInBox(*node_query.partitioner, *view, i, cover).empty()) {
      parts.push_back({i, node_query});
    }
  }
  return Scatter(std::move(parts), view, budget, point_sink);
}

Result<std::vector<NodeOutcome>> Mediator::Scatter(
    std::vector<Part> parts, const std::shared_ptr<const MembershipView>& view,
    const CallBudget& budget, const OutcomeSink& point_sink) {
  // Interruption plumbing: one cancel token shared by every sub-query
  // (an external cancellation cascades into it), a cluster-unique id
  // under which remote nodes register the sub-queries, and the tighter
  // of the caller's deadline and the per-sub-query budget.
  uint64_t query_id = MixSeed(reinterpret_cast<uintptr_t>(this),
                              query_counter_.fetch_add(1));
  if (query_id == 0) query_id = 1;
  auto token = std::make_shared<std::atomic<bool>>(false);
  std::chrono::steady_clock::time_point deadline = budget.deadline;
  if (distributed()) {
    const auto sub_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.remote.subquery_deadline_ms);
    if (deadline == std::chrono::steady_clock::time_point{} ||
        sub_deadline < deadline) {
      deadline = sub_deadline;
    }
  }

  std::vector<std::future<Result<NodeOutcome>>> futures;
  futures.reserve(parts.size());
  node_executes_.fetch_add(parts.size(), std::memory_order_relaxed);
  for (Part& part : parts) {
    part.query.view = view;
    part.query.query_id = query_id;
    part.query.cancel = token.get();
    part.query.deadline = deadline;
    NodeBackend* backend = backends_[static_cast<size_t>(part.node_id)].get();
    const NodeQuery* query = &part.query;
    futures.push_back(scheduler_->Submit(
        [backend, query]() -> Result<NodeOutcome> {
          return backend->Execute(*query);
        }));
  }

  // Cancels every sub-query not yet joined: the shared token stops
  // in-process work, the cancel fan-out stops remote work.
  bool cancel_sent = false;
  auto cancel_rest = [&](size_t next) {
    if (cancel_sent) return;
    cancel_sent = true;
    token->store(true, std::memory_order_relaxed);
    for (size_t j = next; j < parts.size(); ++j) {
      backends_[static_cast<size_t>(parts[j].node_id)]->Cancel(query_id);
      cancels_issued_.fetch_add(1);
    }
  };

  // Join in submit order; every future must be joined before returning
  // (the sub-queries reference `parts`). The first *hard* failure — or a
  // tripped point cap, or an external cancellation — aborts the rest.
  std::vector<NodeOutcome> outcomes;
  outcomes.reserve(parts.size());
  Status failure;
  uint64_t total_points = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (budget.cancel != nullptr &&
        budget.cancel->load(std::memory_order_relaxed) && !cancel_sent) {
      if (failure.ok()) {
        failure = Status::Cancelled("query " + std::to_string(query_id) +
                                    " cancelled");
      }
      cancel_rest(i);
    }
    auto outcome = futures[i].get();
    if (!outcome.ok()) {
      // Our own cancellation echoing back is not a new failure.
      if (cancel_sent && outcome.status().code() == StatusCode::kCancelled) {
        continue;
      }
      if (failure.ok()) failure = outcome.status();
      cancel_rest(i + 1);
      continue;
    }
    const NodeQuery& query = parts[i].query;
    NodeOutcome value = std::move(outcome).value();
    value.io.points_returned = value.points.size();
    total_points += value.points.size();
    if (query.mode == NodeQuery::Mode::kThreshold && failure.ok() &&
        total_points > query.options.max_result_points) {
      failure = Status::ThresholdTooLow(
          "threshold produced more than " +
          std::to_string(query.options.max_result_points) +
          " points across nodes; raise the threshold or request the field "
          "directly");
      cancel_rest(i + 1);
      continue;
    }
    outcomes.push_back(std::move(value));
    outcomes.back().node_id = parts[i].node_id;
    if (point_sink != nullptr && failure.ok()) {
      // Streamed consumption: hand this outcome's points off while the
      // other shards are still running, keeping at most one outcome's
      // points resident. A sink failure (the client hung up) aborts the
      // tail exactly like a hard shard failure.
      Status sunk =
          point_sink(parts[i].node_id, std::move(outcomes.back().points));
      outcomes.back().points.clear();
      if (!sunk.ok()) {
        failure = sunk;
        cancel_rest(i + 1);
      }
    }
  }
  if (!failure.ok()) return failure;
  return outcomes;
}

namespace {

/// Elapsed node phase = component-wise max across nodes (they execute
/// concurrently); the mediator terms are added by the caller.
TimeBreakdown MergeNodeTimes(const std::vector<NodeOutcome>& outcomes) {
  TimeBreakdown merged;
  for (const NodeOutcome& outcome : outcomes) {
    merged = merged.MaxWith(outcome.time);
  }
  return merged;
}

/// The modeled mediator terms: `sub_queries` dispatches and LAN round
/// trips plus the LAN gather of `lan_bytes`, then the WAN delivery of
/// `wan_bytes` to the user. A zero count or size adds exactly +0.0, so
/// the paths that skip a term model the same seconds they always did.
void ModelMediatorComm(const CostModelConfig& cost, uint64_t sub_queries,
                       uint64_t lan_bytes, uint64_t wan_bytes,
                       TimeBreakdown* time) {
  time->mediator_db_comm_s =
      static_cast<double>(sub_queries) *
          (cost.mediator_dispatch_s + cost.lan.latency_s) +
      static_cast<double>(lan_bytes) / cost.lan.bandwidth_bps;
  time->mediator_user_comm_s = cost.wan.TransferCost(wan_bytes);
}

void FillNodeStats(const std::vector<NodeOutcome>& outcomes,
                   std::vector<NodeExecutionStats>* stats) {
  stats->reserve(outcomes.size());
  for (const NodeOutcome& outcome : outcomes) {
    NodeExecutionStats entry;
    entry.node_id = outcome.node_id;
    entry.cache_hit = outcome.cache_hit;
    entry.time = outcome.time;
    entry.io = outcome.io;
    stats->push_back(entry);
  }
}

}  // namespace

Result<NodeQuery> Mediator::BuildThresholdQuery(const ThresholdQuery& query,
                                                const QueryOptions& options) {
  TURBDB_RETURN_NOT_OK(ValidateThresholdQuery(query));
  net::NodeQuerySpec spec =
      SpecOf(NodeQuery::Mode::kThreshold, query, options);
  spec.threshold = query.threshold;
  return catalog_.Resolve(spec);
}

Result<ThresholdResult> Mediator::GetThreshold(const ThresholdQuery& query,
                                               const QueryOptions& options,
                                               const CallBudget& budget) {
  return RunThreshold(query, options, budget, /*chunk_points=*/0,
                      /*sink=*/nullptr);
}

Result<ThresholdResult> Mediator::GetThresholdStreaming(
    const ThresholdQuery& query, const QueryOptions& options,
    const CallBudget& budget, uint64_t chunk_points,
    const ThresholdChunkSink& sink) {
  return RunThreshold(query, options, budget, chunk_points, &sink);
}

Result<ThresholdResult> Mediator::RunThreshold(
    const ThresholdQuery& query, const QueryOptions& options,
    const CallBudget& budget, uint64_t chunk_points,
    const ThresholdChunkSink* sink) {
  Stopwatch watch;
  TURBDB_ASSIGN_OR_RETURN(NodeQuery node_query,
                          BuildThresholdQuery(query, options));
  const bool cacheable = options.use_cache && result_cache_->enabled();

  // The points held on the mediator. Buffered: the whole answer.
  // Streamed: a miss's cache-population accumulator only, bounded by the
  // cache capacity alone — deliberately NOT charged to the server
  // governor while accumulating: the chunk emitter may block on that same
  // budget in this very thread, and a cache-side ReserveBlocking here
  // would deadlock it. The governor charge happens at insert time,
  // fail-fast.
  std::vector<ThresholdPoint> gathered;
  bool accumulate = false;
  const uint64_t accumulate_cap =
      result_cache_->capacity_bytes() > MediatorCache::kEntryOverhead
          ? (result_cache_->capacity_bytes() - MediatorCache::kEntryOverhead) /
                MediatorCache::kBytesPerPoint
          : 0;

  // How a piece of the answer (a joined shard's points, or a
  // mediator-cache hit) reaches the caller. Buffered: the first piece is
  // moved in whole and later ones are kept aside, to be appended once
  // the scatter joined into an exactly sized vector (every point is
  // copied once). Streamed: cut into chunks of at most `chunk_points`
  // points and pushed through the sink as it arrives, so the mediator
  // never holds the union; the byte counters are the sums over the
  // chunks.
  ThresholdResult result;
  const uint64_t slice = chunk_points == 0 ? 32768 : chunk_points;
  uint64_t streamed_points = 0;
  std::vector<std::vector<ThresholdPoint>> later_pieces;
  auto deliver = [&](std::vector<ThresholdPoint> points) -> Status {
    if (sink == nullptr) {
      if (gathered.empty()) {
        gathered = std::move(points);
      } else {
        later_pieces.push_back(std::move(points));
      }
      return Status::OK();
    }
    if (accumulate) {
      if (gathered.size() + points.size() > accumulate_cap) {
        // The would-be entry cannot fit the cache; stop paying for it.
        accumulate = false;
        gathered.clear();
        gathered.shrink_to_fit();
      } else {
        gathered.insert(gathered.end(), points.begin(), points.end());
      }
    }
    for (size_t begin = 0; begin < points.size(); begin += slice) {
      std::vector<ThresholdPoint> part(
          points.begin() + begin,
          points.begin() + std::min<size_t>(points.size(), begin + slice));
      streamed_points += part.size();
      // The user-facing XML rendering happens on the consumer; account
      // its modeled transfer size here so the summary's WAN term matches
      // the buffered path.
      result.result_bytes_xml += PointsXmlSize(part);
      TURBDB_ASSIGN_OR_RETURN(const uint64_t chunk_bytes,
                              (*sink)(std::move(part), streamed_points));
      result.result_bytes_binary += chunk_bytes;
    }
    return Status::OK();
  };

  // Mediator-tier cache: a resident entry subsuming this query answers
  // it here, with zero node RPCs (entries are stored z-sorted). The
  // epoch is snapshotted *before* dispatch so a concurrent ingest
  // poisons the later insert, never the served data.
  MediatorCacheLookup cached;
  if (cacheable) {
    cached = result_cache_->Lookup(query.dataset, node_query.cache_field_key,
                                   query.fd_order, query.timestep,
                                   node_query.box, query.threshold);
  }
  std::vector<NodeOutcome> outcomes;  // None on a cache hit.
  if (cached.hit) {
    if (cached.points.size() > options.max_result_points) {
      return Status::ThresholdTooLow(
          "threshold produced " + std::to_string(cached.points.size()) +
          " points; the limit is " +
          std::to_string(options.max_result_points) +
          " (raise the threshold, or request the field values directly)");
    }
    TURBDB_RETURN_NOT_OK(deliver(std::move(cached.points)));
  } else {
    const uint64_t cache_epoch = cacheable ? result_cache_->epoch() : 0;
    accumulate = cacheable && sink != nullptr;
    // Each outcome is delivered as its shard joins; the point cap trips
    // inside Dispatch at join time, before a streamed client has seen
    // points it would have to throw away.
    TURBDB_ASSIGN_OR_RETURN(
        outcomes,
        Dispatch(node_query, budget,
                 [&](int /*node_id*/, std::vector<ThresholdPoint> points) {
                   return deliver(std::move(points));
                 }));
    if (!later_pieces.empty()) {
      size_t total = gathered.size();
      for (const auto& piece : later_pieces) total += piece.size();
      gathered.reserve(total);
      for (std::vector<ThresholdPoint>& piece : later_pieces) {
        gathered.insert(gathered.end(), piece.begin(), piece.end());
        std::vector<ThresholdPoint>().swap(piece);
      }
    }
    // Shards join in any order; z order is the answer's canonical order
    // (and a later lookup then returns the buffered answer's bytes).
    std::sort(gathered.begin(), gathered.end(),
              [](const ThresholdPoint& a, const ThresholdPoint& b) {
                return a.zindex < b.zindex;
              });
    if (cacheable && (sink == nullptr || accumulate)) {
      // Populate only on successful completion; the pre-dispatch epoch
      // makes the insert a no-op if an ingest raced the query.
      result_cache_->Insert(query.dataset, node_query.cache_field_key,
                            query.fd_order, query.timestep, node_query.box,
                            query.threshold, gathered, cache_epoch);
    }
  }

  result.all_cache_hits =
      cached.hit ||
      (!outcomes.empty() &&
       std::all_of(outcomes.begin(), outcomes.end(),
                   [](const NodeOutcome& o) { return o.cache_hit; }));
  if (sink == nullptr) {
    result.points = std::move(gathered);
    result.result_bytes_binary = PointsBinarySize(result.points);
    result.result_bytes_xml = PointsXmlSize(result.points);
  }
  // Modeled time: concurrent node phases, then the serial mediator work.
  // A cache hit has no node phase and no LAN scatter-gather: only the
  // WAN delivery of the answer remains.
  result.time = MergeNodeTimes(outcomes);
  ModelMediatorComm(config_.cost, outcomes.size(),
                    cached.hit ? 0 : result.result_bytes_binary,
                    result.result_bytes_xml, &result.time);
  FillNodeStats(outcomes, &result.node_stats);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<DistributedFofSummary> Mediator::GetFof(
    const ThresholdQuery& query, const QueryOptions& options,
    double linking_length, uint64_t min_cluster_size,
    const CallBudget& budget, uint64_t chunk_points,
    const FofClusterSink& sink) {
  TURBDB_ASSIGN_OR_RETURN(NodeQuery node_query,
                          BuildThresholdQuery(query, options));
  const GridGeometry& geometry = node_query.dataset->geometry;

  DistributedFofParams params;
  params.linking_length = linking_length;
  params.min_cluster_size = min_cluster_size == 0 ? 1 : min_cluster_size;
  params.atom_width = geometry.atom_width();
  for (int d = 0; d < 3; ++d) {
    params.grid_extent[d] = geometry.extent(d);
    params.periodic_extent[d] =
        geometry.periodic(d) ? static_cast<double>(geometry.extent(d)) : 0.0;
  }
  // The halo pass must judge ownership the way Dispatch attributed the
  // points: by the view the scatter routed under, overrides included.
  std::shared_ptr<const MembershipView> routed_view;
  TURBDB_ASSIGN_OR_RETURN(
      FofStitcher stitcher,
      FofStitcher::Create(params, [&](int64_t ax, int64_t ay, int64_t az) {
        const uint64_t code = MortonEncode3(static_cast<uint32_t>(ax),
                                            static_cast<uint32_t>(ay),
                                            static_cast<uint32_t>(az));
        return routed_view->OwnerOf(
            code, node_query.partitioner->OwnerOfAtom(code));
      }));

  // Fan the threshold sub-queries out; each shard's points feed the
  // stitcher as that shard joins, with the shard id attached so the
  // halo pass knows which territory is foreign. The mediator-tier
  // result cache is deliberately bypassed: a cached union has lost the
  // per-shard attribution.
  auto outcome_sink = [&](int node_id,
                          std::vector<ThresholdPoint> points) -> Status {
    stitcher.AddShard(node_id, std::move(points));
    return Status::OK();
  };
  TURBDB_ASSIGN_OR_RETURN(
      std::vector<NodeOutcome> outcomes,
      Dispatch(node_query, budget, outcome_sink, &routed_view));
  const uint64_t threshold_points = stitcher.num_points();
  TURBDB_ASSIGN_OR_RETURN(std::vector<DistributedFofCluster> clusters,
                          stitcher.Finish());

  DistributedFofSummary summary;
  summary.clusters = clusters.size();
  summary.largest_cluster =
      clusters.empty() ? 0 : clusters.front().members.size();
  for (const DistributedFofCluster& cluster : clusters) {
    summary.points += cluster.members.size();
  }

  // Stream the records out in batches bounded by member points, so a
  // million-point cluster set never sits encoded in one buffer.
  const uint64_t slice = chunk_points == 0 ? 32768 : chunk_points;
  uint64_t reply_bytes = 0;
  std::vector<DistributedFofCluster> batch;
  uint64_t batch_points = 0;
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    batch_points = 0;
    TURBDB_ASSIGN_OR_RETURN(uint64_t bytes,
                            sink(std::move(batch), summary.clusters));
    batch.clear();
    reply_bytes += bytes;
    return Status::OK();
  };
  for (DistributedFofCluster& cluster : clusters) {
    batch_points += cluster.members.size() + 1;
    batch.push_back(std::move(cluster));
    if (batch_points >= slice) TURBDB_RETURN_NOT_OK(flush());
  }
  TURBDB_RETURN_NOT_OK(flush());

  // Modeled time: concurrent node phases, then the LAN gather of the
  // shard results (~6 bytes/point delta-varint encoded) and the WAN
  // delivery of the cluster records actually streamed.
  summary.time = MergeNodeTimes(outcomes);
  ModelMediatorComm(config_.cost, outcomes.size(), threshold_points * 6 + 16,
                    reply_bytes, &summary.time);
  return summary;
}

Result<PdfResult> Mediator::GetPdf(const PdfQuery& query,
                                   const CallBudget& budget) {
  Stopwatch watch;
  TURBDB_RETURN_NOT_OK(ValidatePdfQuery(query));
  QueryOptions options;
  options.use_cache = false;  // Only threshold results are cached (Sec. 4).
  net::NodeQuerySpec spec = SpecOf(NodeQuery::Mode::kPdf, query, options);
  spec.bin_width = query.bin_width;
  spec.num_bins = query.num_bins;
  TURBDB_ASSIGN_OR_RETURN(NodeQuery node_query, catalog_.Resolve(spec));
  TURBDB_ASSIGN_OR_RETURN(std::vector<NodeOutcome> outcomes,
                          Dispatch(node_query, budget));

  PdfResult result;
  result.bin_width = query.bin_width;
  result.counts.assign(static_cast<size_t>(query.num_bins) + 1, 0);
  for (const NodeOutcome& outcome : outcomes) {
    for (size_t bin = 0; bin < outcome.histogram.size(); ++bin) {
      result.counts[bin] += outcome.histogram[bin];
    }
  }
  for (uint64_t count : result.counts) result.total_points += count;
  result.time = MergeNodeTimes(outcomes);
  const uint64_t result_bytes = result.counts.size() * 16;
  // XML-wrapped bins cost the user eight times the binary bytes.
  ModelMediatorComm(config_.cost, outcomes.size(), result_bytes,
                    result_bytes * 8, &result.time);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<TopKResult> Mediator::GetTopK(const TopKQuery& query,
                                     const CallBudget& budget) {
  Stopwatch watch;
  TURBDB_RETURN_NOT_OK(ValidateTopKQuery(query));
  QueryOptions options;
  options.use_cache = false;
  net::NodeQuerySpec spec = SpecOf(NodeQuery::Mode::kTopK, query, options);
  spec.k = query.k;
  TURBDB_ASSIGN_OR_RETURN(NodeQuery node_query, catalog_.Resolve(spec));
  TURBDB_ASSIGN_OR_RETURN(std::vector<NodeOutcome> outcomes,
                          Dispatch(node_query, budget));

  TopKResult result;
  for (NodeOutcome& outcome : outcomes) {
    result.points.insert(result.points.end(), outcome.points.begin(),
                         outcome.points.end());
  }
  std::sort(result.points.begin(), result.points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.norm > b.norm;
            });
  if (result.points.size() > query.k) result.points.resize(query.k);
  result.time = MergeNodeTimes(outcomes);
  const uint64_t bytes_binary = PointsBinarySize(result.points);
  const uint64_t bytes_xml = PointsXmlSize(result.points);
  ModelMediatorComm(config_.cost, outcomes.size(), bytes_binary, bytes_xml,
                    &result.time);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<FieldStatsResult> Mediator::GetFieldStats(const FieldStatsQuery& query,
                                                 const CallBudget& budget) {
  Stopwatch watch;
  ThresholdQuery probe;  // Reuse the common validation.
  probe.dataset = query.dataset;
  probe.raw_field = query.raw_field;
  probe.derived_field = query.derived_field;
  probe.timestep = query.timestep;
  probe.box = query.box;
  probe.threshold = 0.0;
  probe.fd_order = query.fd_order;
  TURBDB_RETURN_NOT_OK(ValidateThresholdQuery(probe));
  QueryOptions options;
  options.use_cache = false;
  TURBDB_ASSIGN_OR_RETURN(
      NodeQuery node_query,
      catalog_.Resolve(SpecOf(NodeQuery::Mode::kMoments, query, options)));
  TURBDB_ASSIGN_OR_RETURN(std::vector<NodeOutcome> outcomes,
                          Dispatch(node_query, budget));

  FieldStatsResult result;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const NodeOutcome& outcome : outcomes) {
    sum += outcome.norm_sum;
    sum_sq += outcome.norm_sum_sq;
    result.max = std::max(result.max, outcome.norm_max);
    result.count += outcome.io.points_evaluated;
  }
  if (result.count > 0) {
    result.mean = sum / static_cast<double>(result.count);
    result.rms = std::sqrt(sum_sq / static_cast<double>(result.count));
  }
  result.time = MergeNodeTimes(outcomes);
  ModelMediatorComm(config_.cost, outcomes.size(), 0, 256, &result.time);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<SampleResult> Mediator::GetSamples(const SampleQuery& query,
                                          const CallBudget& budget) {
  Stopwatch watch;
  TURBDB_RETURN_NOT_OK(ValidateSampleQuery(query));
  QueryOptions options;
  options.use_cache = false;
  TURBDB_ASSIGN_OR_RETURN(
      NodeQuery node_query,
      catalog_.Resolve(SpecOf(NodeQuery::Mode::kSample, query, options)));

  // Route each target to the node owning the atom of its containing grid
  // cell (the bulk of its stencil data lives there), under one membership
  // snapshot that every part also carries for its reads.
  const std::shared_ptr<const MembershipView> view = ViewSnapshot();
  const GridGeometry& geometry = node_query.dataset->geometry;
  std::map<int, std::vector<std::pair<uint32_t, std::array<double, 3>>>>
      per_node;
  for (size_t i = 0; i < query.positions.size(); ++i) {
    const std::array<double, 3>& position = query.positions[i];
    const int64_t bx = node_query.interpolator->BaseNode(0, position[0]);
    const int64_t by = node_query.interpolator->BaseNode(1, position[1]);
    const int64_t bz = node_query.interpolator->BaseNode(2, position[2]);
    const AtomKey key = AtomKeyForPoint(query.timestep, bx, by, bz,
                                        geometry.atom_width());
    const int owner = view->OwnerOf(
        key.zindex, node_query.partitioner->OwnerOfAtom(key.zindex));
    if (owner < 0 || owner >= num_nodes()) {
      return Status::Internal("target outside the partitioned domain");
    }
    per_node[owner].push_back({static_cast<uint32_t>(i), position});
  }

  // One part per owning shard, each with its share of the targets.
  std::vector<Part> parts;
  parts.reserve(per_node.size());
  for (auto& [node_id, targets] : per_node) {
    parts.push_back({node_id, node_query});
    parts.back().query.targets = std::move(targets);
  }
  TURBDB_ASSIGN_OR_RETURN(std::vector<NodeOutcome> outcomes,
                          Scatter(std::move(parts), view, budget));

  SampleResult result;
  result.ncomp = node_query.raw_ncomp;
  result.values.assign(query.positions.size(), {0.0, 0.0, 0.0});
  size_t filled = 0;
  for (const NodeOutcome& outcome : outcomes) {
    for (const auto& [index, value] : outcome.samples) {
      result.values[index] = value;
      ++filled;
    }
  }
  if (filled != query.positions.size()) {
    return Status::Internal("some sample targets were not evaluated");
  }
  result.time = MergeNodeTimes(outcomes);
  const uint64_t request_bytes = query.positions.size() * 24;
  const uint64_t reply_bytes = query.positions.size() * 12;
  // XML-wrapped component values back to the user (~30 B per scalar).
  ModelMediatorComm(config_.cost, outcomes.size(),
                    request_bytes + reply_bytes,
                    query.positions.size() *
                        static_cast<uint64_t>(node_query.raw_ncomp) * 30,
                    &result.time);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Status Mediator::DropCacheEntries(const std::string& dataset,
                                  const std::string& raw_field,
                                  const std::string& derived_field,
                                  int32_t timestep,
                                  uint64_t* mediator_dropped) {
  const std::string key = raw_field + ":" + derived_field;
  // Drop the mediator tier first: its epoch bump also poisons inserts of
  // queries already in flight, so a racing completion cannot repopulate
  // the entry this call was asked to remove.
  const uint64_t dropped = result_cache_->Invalidate(dataset, key, timestep);
  if (mediator_dropped != nullptr) *mediator_dropped = dropped;
  for (auto& backend : backends_) {
    TURBDB_RETURN_NOT_OK(backend->DropCacheEntries(dataset, key, timestep));
  }
  return Status::OK();
}

Result<Mediator::CacheWarmOutcome> Mediator::WarmThresholdCache(
    const ThresholdQuery& query, const CallBudget& budget) {
  if (!result_cache_->enabled()) {
    return Status::InvalidArgument(
        "mediator cache is disabled (--mediator-cache-mb 0)");
  }
  TURBDB_ASSIGN_OR_RETURN(NodeQuery node_query,
                          BuildThresholdQuery(query, QueryOptions{}));
  MediatorCacheLookup cached = result_cache_->Lookup(
      query.dataset, node_query.cache_field_key, query.fd_order,
      query.timestep, node_query.box, query.threshold);
  CacheWarmOutcome outcome;
  if (cached.hit) {
    outcome.points = cached.points.size();
    outcome.already_cached = true;
    return outcome;
  }
  TURBDB_ASSIGN_OR_RETURN(ThresholdResult result,
                          GetThreshold(query, QueryOptions{}, budget));
  outcome.points = result.points.size();
  outcome.already_cached = false;
  return outcome;
}

Result<uint64_t> Mediator::StoredAtomCount(const std::string& dataset,
                                           const std::string& field) {
  if (backends_.empty()) return Status::Internal("cluster has no nodes");
  return backends_.front()->StoredAtomCount(dataset, field);
}

uint64_t Mediator::corruption_failovers() const {
  uint64_t total = 0;
  for (const auto& backend : backends_) {
    const auto* group = dynamic_cast<const ReplicaGroup*>(backend.get());
    if (group != nullptr) total += group->corruption_failovers();
  }
  return total;
}

uint64_t Mediator::read_repairs() const {
  uint64_t total = 0;
  for (const auto& backend : backends_) {
    const auto* group = dynamic_cast<const ReplicaGroup*>(backend.get());
    if (group != nullptr) total += group->read_repairs();
  }
  return total;
}

std::vector<ClusterNodeStatus> Mediator::ClusterStatus() const {
  std::vector<ClusterNodeStatus> rows;
  const int total = num_nodes();
  for (int g = 0; g < total; ++g) {
    auto* group = const_cast<ReplicaGroup*>(dynamic_cast<const ReplicaGroup*>(
        backends_[static_cast<size_t>(g)].get()));
    if (group == nullptr) continue;  // In-process deployment.
    const std::vector<ReplicaGroup::MemberStatus> members = group->Snapshot();
    for (size_t r = 0; r < members.size(); ++r) {
      const ReplicaGroup::MemberStatus& member = members[r];
      ClusterNodeStatus row;
      row.node_id = member.node_id;
      row.shard = group->id();
      row.primary = member.primary;
      row.healthy = member.healthy;
      row.epoch = member.epoch;
      row.failovers = member.failovers;
      row.address = member.address;
      // Live stats row (WAL lag, generation): best-effort — a member
      // that does not answer keeps the zero defaults.
      if (member.healthy) {
        auto stats = group->member_node(static_cast<int>(r))
                         ->Call(net::NodeStatsRequest{});
        if (stats.ok()) {
          row.generation = stats->generation;
          row.wal_pending_records = stats->wal_pending_records;
          row.wal_pending_bytes = stats->wal_pending_bytes;
          row.scrub_passes = stats->scrub_passes;
          row.scrub_atoms_corrupt = stats->scrub_atoms_corrupt;
          row.scrub_atoms_repaired = stats->scrub_atoms_repaired;
          row.atoms_quarantined = stats->atoms_quarantined;
        }
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Elasticity: membership, join/leave, live range moves (v6)
// ---------------------------------------------------------------------------

MembershipView Mediator::Membership() const {
  if (membership_ == nullptr) return MembershipView{};
  return membership_->Snapshot();
}

uint64_t Mediator::generation() const {
  return membership_ == nullptr ? 0 : membership_->generation();
}

std::shared_ptr<const MembershipView> Mediator::ViewSnapshot() const {
  if (membership_ == nullptr) return StaticView();
  return std::make_shared<const MembershipView>(membership_->Snapshot());
}

Result<ReplicaGroup*> Mediator::Group(int shard) const {
  if (shard < 0 || shard >= num_nodes()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard));
  }
  auto* group = dynamic_cast<ReplicaGroup*>(
      backends_[static_cast<size_t>(shard)].get());
  if (group == nullptr) {
    return Status::NotSupported("shard " + std::to_string(shard) +
                                " is not a remote replica group");
  }
  return group;
}

std::vector<std::vector<uint64_t>> Mediator::ComputeShardAtoms(
    const MembershipView& view) const {
  std::vector<std::vector<uint64_t>> shard_atoms(
      static_cast<size_t>(num_nodes()));
  for (const Catalog::Entry* entry : catalog_.Entries()) {
    const MortonPartitioner& partitioner = entry->partitioner;
    for (int b = 0; b < partitioner.num_nodes(); ++b) {
      for (uint64_t code : partitioner.NodeAtoms(b)) {
        const int owner = view.OwnerOf(code, b);
        if (owner >= 0 && owner < static_cast<int>(shard_atoms.size())) {
          shard_atoms[static_cast<size_t>(owner)].push_back(code);
        }
      }
    }
  }
  for (auto& codes : shard_atoms) {
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  }
  return shard_atoms;
}

Result<RangeMover::Outcome> Mediator::ExecuteMoveLocked(
    const RangeMove& move) {
  TURBDB_ASSIGN_OR_RETURN(ReplicaGroup * donor, Group(move.from_shard));
  TURBDB_ASSIGN_OR_RETURN(ReplicaGroup * recipient, Group(move.to_shard));
  RangeMoverHooks hooks;
  hooks.copy_range = [&](const RangeMove& m) -> Result<uint64_t> {
    // Page every (dataset, field, timestep) slice of the range from the
    // donor group into every replica of the recipient, skip-existing so
    // a retried move (crash between copy and cutover) converges.
    uint64_t copied = 0;
    for (const Catalog::Entry* entry : catalog_.Entries()) {
      const DatasetInfo& info = entry->info;
      for (const auto& field : info.raw_fields) {
        for (int32_t ts = 0; ts < info.num_timesteps; ++ts) {
          net::NodeSyncRangeRequest request;
          request.dataset = info.name;
          request.field = field.name;
          request.timestep = ts;
          request.begin_code = m.begin;
          request.end_code = m.end;
          request.max_atoms = 256;
          uint64_t pages = 0;
          Status paged = PageSyncRange(
              request,
              [donor](const net::NodeSyncRangeRequest& page) {
                return donor->SyncRange(page);
              },
              [&](std::vector<Atom>& atoms) -> Status {
                ++pages;
                if (atoms.empty()) return Status::OK();
                TURBDB_RETURN_NOT_OK(recipient->IngestSkippingExisting(
                    info.name, field.name, atoms));
                copied += atoms.size();
                return Status::OK();
              });
          // A first page that is kNotFound: the donor never opened this
          // (dataset, field) store, so nothing of it to move.
          if (paged.code() == StatusCode::kNotFound && pages == 0) continue;
          TURBDB_RETURN_NOT_OK(paged);
        }
      }
    }
    return copied;
  };
  hooks.cutover = [&](const RangeMove& m) -> Result<uint64_t> {
    net::CutoverRequest request;
    request.begin = m.begin;
    request.end = m.end;
    request.from_shard = m.from_shard;
    request.to_shard = m.to_shard;
    // The generation the move commits at: the registry's ApplyOverride
    // bumps it by one, and admin mutations serialize on
    // membership_mutex_, which the caller holds.
    request.generation = membership_->generation() + 1;
    // A move changes the ownership of its donor and recipient only, and
    // both hear of it before the registry commits it, because Dispatch
    // routes by the registry. A sub-query is evaluated under the view it
    // carries either way; the order keeps their semantic caches right: by
    // the time a sub-query is routed at the new generation, both dropped
    // the answers of their old ownership, and sub-queries routed at the
    // old one bypass the cache. No other node holds ownership state.
    TURBDB_RETURN_NOT_OK(donor->Cutover(request));
    TURBDB_RETURN_NOT_OK(recipient->Cutover(request));
    // membership.commit: chaos hook holding the commit for `arg` ms, so a
    // test can route a query by the old view after the two nodes already
    // took the cutover.
    if (auto injected = fault::Check("membership.commit")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(injected.arg));
    }
    TURBDB_ASSIGN_OR_RETURN(
        const uint64_t new_generation,
        membership_->ApplyOverride(m.begin, m.end, m.to_shard));
    TURBDB_LOG(Info) << "range [" << m.begin << ", " << m.end
                     << ") cut over from shard " << m.from_shard
                     << " to shard " << m.to_shard << " at generation "
                     << new_generation;
    return new_generation;
  };
  return RangeMover::Execute(move, hooks);
}

Result<net::JoinReply> Mediator::Join(const net::JoinRequest& request) {
  if (!elastic()) {
    return Status::NotSupported(
        "membership join requires a distributed mediator");
  }
  // The admit phase may announce port 0 (the joiner has not bound yet);
  // the activate phase must carry the real port, since it is what the
  // mediator dials and persists for post-restart re-dial.
  if (request.uuid.empty() || request.host.empty() ||
      (request.activate && request.port == 0)) {
    return Status::InvalidArgument("join needs a uuid, host and port");
  }
  std::lock_guard<std::mutex> lock(membership_mutex_);
  net::JoinReply reply;
  if (!request.activate) {
    TURBDB_ASSIGN_OR_RETURN(
        reply.record,
        membership_->Admit(request.uuid, request.host, request.port));
    reply.view = membership_->Snapshot();
    // The catalog the joiner self-registers; the partitioners stay
    // base-sized (the view's overrides re-home codes, never the
    // partitioning itself).
    for (const Catalog::Entry* entry : catalog_.Entries()) {
      net::WireDatasetRegistration reg;
      reg.info = entry->info;
      reg.num_nodes = entry->partitioner.num_nodes();
      reg.strategy = static_cast<int32_t>(entry->partitioner.strategy());
      reply.registrations.push_back(std::move(reg));
    }
    return reply;
  }
  // Re-admit first: idempotent, and it refreshes the persisted address
  // when the joiner bound an ephemeral port after the admit phase.
  TURBDB_RETURN_NOT_OK(
      membership_->Admit(request.uuid, request.host, request.port).status());
  TURBDB_ASSIGN_OR_RETURN(reply.record, membership_->Activate(request.uuid));
  if (reply.record.shard >= num_nodes()) {
    if (backends_.size() == backends_.capacity()) {
      return Status::Unavailable(
          "join headroom exhausted: this mediator incarnation already "
          "admitted " +
          std::to_string(kJoinHeadroom) + " shards");
    }
    std::vector<std::unique_ptr<RemoteNode>> members;
    members.push_back(std::make_unique<RemoteNode>(
        reply.record.node_id, NodeAddress{request.host, request.port},
        config_.remote, reply.record.shard));
    auto group = std::make_unique<ReplicaGroup>(
        reply.record.shard, std::move(members), &catalog_, config_.remote);
    TURBDB_RETURN_NOT_OK(group->BringUp());
    backends_.push_back(std::move(group));
    backend_count_.store(backends_.size(), std::memory_order_release);
  }
  reply.view = membership_->Snapshot();
  TURBDB_LOG(Info) << "node " << reply.record.node_id << " ("
                   << request.host << ":" << request.port
                   << ") joined as shard " << reply.record.shard
                   << " at generation " << reply.view.generation;
  return reply;
}

Result<net::LeaveReply> Mediator::Leave(int node_id) {
  if (!elastic()) {
    return Status::NotSupported(
        "decommission requires a distributed mediator");
  }
  std::lock_guard<std::mutex> lock(membership_mutex_);
  MembershipView view = membership_->Snapshot();
  const NodeRecord* record = view.FindByNodeId(node_id);
  if (record == nullptr) {
    return Status::NotFound("no node " + std::to_string(node_id) +
                            " in the membership");
  }
  const int shard = record->shard;
  net::LeaveReply reply;
  // Drain the shard: move every contiguous run of codes it effectively
  // owns to the least-loaded remaining active shard, one live move per
  // run (copy, then cutover).
  while (true) {
    view = membership_->Snapshot();
    const std::vector<std::vector<uint64_t>> shard_atoms =
        ComputeShardAtoms(view);
    if (shard >= static_cast<int>(shard_atoms.size()) ||
        shard_atoms[static_cast<size_t>(shard)].empty()) {
      break;
    }
    // Least-loaded active shard other than the leaver.
    int target = -1;
    uint64_t target_load = UINT64_MAX;
    for (const NodeRecord& n : view.nodes) {
      if (n.shard == shard || n.role == NodeRole::kDraining) continue;
      const uint64_t load =
          n.shard < static_cast<int>(shard_atoms.size())
              ? shard_atoms[static_cast<size_t>(n.shard)].size()
              : 0;
      if (load < target_load) {
        target_load = load;
        target = n.shard;
      }
    }
    if (target < 0) {
      return Status::InvalidArgument(
          "cannot decommission node " + std::to_string(node_id) +
          ": no other active shard to take its ranges");
    }
    // The first maximal run of the leaver's codes with no other shard's
    // code inside it: ownership sweep over the merged code space.
    std::vector<std::pair<uint64_t, int>> owners;
    for (size_t s = 0; s < shard_atoms.size(); ++s) {
      for (uint64_t code : shard_atoms[s]) {
        owners.emplace_back(code, static_cast<int>(s));
      }
    }
    std::sort(owners.begin(), owners.end());
    RangeMove move;
    move.from_shard = shard;
    move.to_shard = target;
    for (const auto& [code, owner] : owners) {
      if (owner == shard) {
        if (move.end == 0) move.begin = code;
        move.end = code + 1;
        ++move.estimated_atoms;
      } else if (move.end != 0) {
        break;  // Run ended at a foreign code.
      }
    }
    TURBDB_ASSIGN_OR_RETURN(const RangeMover::Outcome outcome,
                            ExecuteMoveLocked(move));
    ++reply.ranges_moved;
    reply.atoms_copied += outcome.atoms_copied;
  }
  TURBDB_RETURN_NOT_OK(membership_->Decommission(node_id).status());
  reply.view = membership_->Snapshot();
  TURBDB_LOG(Info) << "node " << node_id << " (shard " << shard
                   << ") decommissioned at generation "
                   << reply.view.generation << " after moving "
                   << reply.ranges_moved << " range(s)";
  return reply;
}

Result<net::RebalanceReply> Mediator::Rebalance(
    const net::RebalanceRequest& request) {
  if (!elastic()) {
    return Status::NotSupported("rebalance requires a distributed mediator");
  }
  std::lock_guard<std::mutex> lock(membership_mutex_);
  net::RebalanceReply reply;
  const int rounds = static_cast<int>(std::max<uint64_t>(1, request.max_ranges));
  for (int i = 0; i < rounds; ++i) {
    const MembershipView view = membership_->Snapshot();
    auto move = RebalancePlanner::PlanOne(view, ComputeShardAtoms(view),
                                          request.to_shard);
    if (!move.ok()) {
      // "Nothing left worth moving" ends a multi-round rebalance
      // normally; on the first round it is the caller's answer.
      if (move.status().code() == StatusCode::kNotFound && i > 0) break;
      return move.status();
    }
    TURBDB_ASSIGN_OR_RETURN(const RangeMover::Outcome outcome,
                            ExecuteMoveLocked(*move));
    reply.generation = outcome.generation;
    reply.atoms_copied += outcome.atoms_copied;
    reply.moved.push_back(
        RangeOverride{move->begin, move->end, move->to_shard});
  }
  if (reply.generation == 0) reply.generation = membership_->generation();
  return reply;
}

}  // namespace turbdb
