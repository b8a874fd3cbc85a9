#include "cluster/node_service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <set>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "net/protocol.h"
#include "replication/sync.h"
#include "storage/merkle.h"

namespace turbdb {

namespace {

/// Checkpoint threshold of the write-ahead log (durable mode only): each
/// acknowledged ingest batch is logged and synced before the ack, so a
/// kill -9 mid-batch or a torn store tail replays from the log on
/// restart. Once the log holds this many payload bytes, the batch-end
/// path fsyncs every store and truncates the log.
constexpr uint64_t kWalCheckpointBytes = 64ull << 20;

}  // namespace

NodeService::NodeService(const NodeServiceConfig& config)
    : config_(config),
      node_(config.node_id, config.cost, config.storage_dir),
      workers_(config.worker_threads > 0
                   ? config.worker_threads
                   : static_cast<int>(std::thread::hardware_concurrency())) {
  node_.set_fsync_on_ingest(config.fsync_ingest);
  node_.set_shard(shard());
  node_.set_remote_fetch(
      [this](const NodeQuery& query, int owner, const std::string& dataset,
             const std::string& field, int32_t timestep,
             const std::vector<uint64_t>& codes, int concurrent,
             double* cost_s) -> Result<std::vector<Atom>> {
        return FetchFromPeer(query, owner, dataset, field, timestep, codes,
                             concurrent, cost_s);
      });
  Scrubber::Options scrub;
  scrub.interval_s = config.scrub_interval_s;
  scrub.rate_mb = config.scrub_rate_mb;
  scrubber_ = std::make_unique<Scrubber>(
      std::move(scrub),
      [this]() {
        std::vector<Scrubber::StoreRef> refs;
        for (const DatabaseNode::StoreHandle& handle : node_.OpenStores()) {
          refs.push_back({handle.dataset, handle.field, handle.store});
        }
        return refs;
      },
      [this](const std::string& dataset,
             const std::string& field) -> uint64_t {
        auto repaired = RepairStoreFromSiblings(dataset, field, /*timestep=*/0,
                                                /*begin_code=*/0,
                                                /*end_code=*/0);
        if (!repaired.ok()) {
          TURBDB_LOG(Warning)
              << "node " << config_.node_id << ": anti-entropy repair of "
              << dataset << "/" << field
              << " found no healthy sibling: " << repaired.status().ToString();
          return 0;
        }
        return repaired->atoms_repaired;
      });
  scrubber_->Start();
  dispatcher_
      .On<net::NodeCreateDatasetRequest>(
          std::bind_front(&NodeService::CreateDataset, this))
      .On<net::NodeIngestRequest>(std::bind_front(&NodeService::Ingest, this))
      .On<net::NodeExecuteRequest>(
          std::bind_front(&NodeService::Execute, this))
      .On<net::NodeFetchAtomsRequest>(
          std::bind_front(&NodeService::FetchAtoms, this))
      .On<net::NodeDropCacheRequest>(
          std::bind_front(&NodeService::DropCache, this))
      .On<net::NodeStatsRequest>(std::bind_front(&NodeService::Stats, this))
      .On<net::NodeSyncRangeRequest>(
          std::bind_front(&NodeService::SyncRange, this))
      .On<net::NodeListStoresRequest>(
          std::bind_front(&NodeService::ListStores, this))
      .On<net::CutoverRequest>(std::bind_front(&NodeService::Cutover, this))
      .On<net::NodeMerkleRequest>(std::bind_front(&NodeService::Merkle, this))
      .On<net::NodeScrubRequest>(std::bind_front(&NodeService::Scrub, this))
      .On<net::NodeRepairRangeRequest>(
          std::bind_front(&NodeService::RepairRange, this));
}

net::Server::Handler NodeService::AsHandler() {
  return [this](const std::vector<uint8_t>& payload,
                const net::CallContext& ctx) {
    return Handle(payload, ctx);
  };
}

std::vector<uint8_t> NodeService::Handle(const std::vector<uint8_t>& payload,
                                         const net::CallContext& ctx) const {
  return dispatcher_(payload, ctx);
}

std::shared_ptr<NodeService::PeerChannel> NodeService::GetPeerChannel(
    int physical, const NodeAddress& address) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  std::shared_ptr<PeerChannel>& channel = peers_[physical];
  if (channel == nullptr || !(channel->address == address)) {
    channel = std::make_shared<PeerChannel>();
    channel->address = address;
    channel->client = std::make_unique<net::Client>(
        address.host, address.port, NodeClientOptions(config_.remote));
  }
  return channel;
}

Result<std::vector<Atom>> NodeService::FetchFromPeer(
    const NodeQuery& query, int owner, const std::string& dataset,
    const std::string& field, int32_t timestep,
    const std::vector<uint64_t>& codes, int concurrent, double* cost_s) {
  // `owner` is a shard id; any replica of that shard can serve its halo
  // atoms, so a dead primary is a failover, not an error. A base shard's
  // replicas are peers [owner*R, (owner+1)*R); a shard joined later is
  // dialed at the addresses of its records in the routed view. Both come
  // from outside this node (the peer list from its flags, the shard ids
  // from the request), so neither is trusted to name a known shard.
  if (owner == shard()) {
    return Status::Internal("halo fetch routed to the local node");
  }
  std::vector<std::pair<int, NodeAddress>> replicas;
  if (owner >= 0 && owner < query.partitioner->num_nodes()) {
    const int replication = std::max(1, config_.replication_factor);
    for (int physical = owner * replication;
         physical < (owner + 1) * replication &&
         physical < static_cast<int>(config_.peers.size());
         ++physical) {
      replicas.emplace_back(physical,
                            config_.peers.nodes[static_cast<size_t>(physical)]);
    }
  } else {
    for (const NodeRecord& record : query.view->nodes) {
      if (record.shard == owner) {
        replicas.emplace_back(record.node_id,
                              NodeAddress{record.host, record.port});
      }
    }
  }
  if (replicas.empty()) {
    return Status::InvalidArgument("no such shard " + std::to_string(owner));
  }
  net::NodeFetchAtomsRequest request;
  request.dataset = dataset;
  request.field = field;
  request.timestep = timestep;
  request.concurrent = concurrent;
  request.codes = codes;
  // Forward the remaining budget so the peer sizes its work to it; an
  // already-expired budget fails typed here instead of paying a dial.
  if (query.deadline != std::chrono::steady_clock::time_point{}) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            query.deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return Status::DeadlineExceeded(
          "query budget exhausted before the halo fetch from shard " +
          std::to_string(owner));
    }
    request.rpc.deadline_ms = static_cast<uint64_t>(remaining.count());
  }
  Status last;
  for (size_t r = 0; r < replicas.size(); ++r) {
    const int physical = replicas[r].first;
    std::shared_ptr<PeerChannel> channel =
        GetPeerChannel(physical, replicas[r].second);
    Result<net::NodeFetchAtomsReply> reply = Status::OK();
    {
      std::lock_guard<std::mutex> lock(channel->mutex);
      reply = channel->client->Call(request);
    }
    if (reply.ok()) {
      if (cost_s != nullptr) {
        *cost_s +=
            reply->cost_s + config_.cost.lan.TransferCost(reply->bytes_out);
      }
      return std::move(reply->atoms);
    }
    last = Status(reply.status().code(),
                  "halo fetch from node " + std::to_string(physical) + ": " +
                      reply.status().message());
    // A corrupt store on the peer is as failover-worthy as a dead peer:
    // its replica sibling holds the same atoms, uncorrupted. The owner
    // heals itself (scrub / read-repair); this read just routes around.
    if (!IsTransportFailure(last) &&
        last.code() != StatusCode::kCorruption) {
      return last;
    }
    if (r + 1 < replicas.size()) {
      TURBDB_LOG(Warning) << "node " << config_.node_id
                          << ": halo fetch failing over off node " << physical
                          << ": " << last.ToString();
    }
  }
  return last;
}

Result<net::Ack<net::NodeCreateDatasetRequest>> NodeService::CreateDataset(
    const net::NodeCreateDatasetRequest& request, const net::CallContext&) {
  if (request.node_id != shard()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(request.node_id) +
        " addressed to node " + std::to_string(config_.node_id) +
        ", which serves shard " + std::to_string(shard()));
  }
  TURBDB_RETURN_NOT_OK(
      catalog_.Register(request.info, request.num_nodes,
                        static_cast<PartitionStrategy>(request.strategy)));
  return net::Ack<net::NodeCreateDatasetRequest>{};
}

Status NodeService::RegisterDatasetSpec(
    const net::WireDatasetRegistration& reg) {
  return catalog_.Register(reg.info, reg.num_nodes,
                           static_cast<PartitionStrategy>(reg.strategy));
}

Result<net::Ack<net::NodeIngestRequest>> NodeService::Ingest(
    const net::NodeIngestRequest& request, const net::CallContext&) {
  for (const Atom& atom : request.atoms) {
    Status status = node_.IngestAtom(request.dataset, request.field, atom);
    if (!status.ok() &&
        !(request.skip_existing &&
          status.code() == StatusCode::kAlreadyExists)) {
      return status;
    }
    // Apply-then-log: atoms the store accepted are framed into the WAL
    // (duplicates skipped above never are). The log, not the store file,
    // is what the ack below promises — a kill -9 between here and the
    // store fsync replays from it on restart.
    if (status.ok() && wal_ != nullptr) {
      TURBDB_RETURN_NOT_OK(
          wal_->Append(request.dataset, request.field, atom));
    }
  }
  // Durability order: the log is synced before the batch is acknowledged,
  // then the store flush runs. A crash between the two leaves
  // acknowledged atoms recoverable from the log.
  if (wal_ != nullptr) TURBDB_RETURN_NOT_OK(wal_->Sync());
  TURBDB_RETURN_NOT_OK(node_.FinishIngest(request.dataset, request.field));
  TURBDB_RETURN_NOT_OK(WalBatchEnd());
  return net::Ack<net::NodeIngestRequest>{};
}

Status NodeService::WalBatchEnd() {
  if (wal_ == nullptr || wal_->pending_bytes() < kWalCheckpointBytes) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (wal_->pending_bytes() < kWalCheckpointBytes) {
    return Status::OK();
  }
  // Checkpoint: every store the log may cover is flushed to stable
  // storage, after which the log's records are redundant and it resets.
  for (const StoreListing& listing : node_.ListStores()) {
    TURBDB_RETURN_NOT_OK(node_.FinishIngest(listing.dataset, listing.field));
  }
  return wal_->Truncate();
}

Status NodeService::RecoverWal() {
  if (config_.storage_dir.empty()) return Status::OK();
  const std::string path = config_.storage_dir + "/node" +
                           std::to_string(config_.node_id) + ".wal";
  TURBDB_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(path));
  if (wal_->pending_records() == 0) return Status::OK();
  TURBDB_LOG(Warning) << "node " << config_.node_id << ": replaying "
                      << wal_->pending_records()
                      << " write-ahead-log records into the stores";
  std::set<std::pair<std::string, std::string>> touched;
  TURBDB_RETURN_NOT_OK(
      wal_->Replay([&](const WriteAheadLog::Record& record) -> Status {
        Status status =
            node_.IngestAtom(record.dataset, record.field, record.atom);
        // Already-persisted atoms are the expected case for the prefix
        // of the log the store flush did cover — replay is idempotent.
        if (!status.ok() &&
            status.code() != StatusCode::kAlreadyExists) {
          return status;
        }
        touched.insert({record.dataset, record.field});
        return Status::OK();
      }));
  for (const auto& df : touched) {
    TURBDB_RETURN_NOT_OK(node_.FinishIngest(df.first, df.second));
  }
  return wal_->Truncate();
}

uint64_t NodeService::generation() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return cutover_generation_;
}

Result<NodeOutcome> NodeService::Execute(
    const net::NodeExecuteRequest& request, const net::CallContext& ctx) {
  TURBDB_RETURN_NOT_OK(ValidateOverrides(request.overrides));
  TURBDB_ASSIGN_OR_RETURN(NodeQuery query, catalog_.Resolve(request.spec));
  // The sub-query is evaluated and read under the view the mediator
  // routed it by; the node holds no view of its own.
  auto routed = std::make_shared<MembershipView>();
  routed->generation = request.rpc.generation;
  routed->overrides = request.overrides;
  routed->nodes = request.joined;
  query.view = std::move(routed);
  {
    // The semantic cache holds answers for this node's ownership since
    // its last cutover only: a sub-query routed before that cutover
    // neither reads nor fills it.
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (request.rpc.generation < cutover_generation_) {
      query.options.use_cache = false;
    }
  }
  // Thread the transport-level budget into the evaluation: the workers
  // poll the deadline and the cancellation token between atoms, and the
  // remaining budget rides along on peer halo fetches.
  if (!ctx.deadline.infinite()) {
    query.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(ctx.deadline.PollTimeoutMs());
  }
  query.cancel = ctx.cancelled.get();
  query.query_id = request.rpc.query_id;
  TURBDB_ASSIGN_OR_RETURN(NodeOutcome outcome,
                          node_.Execute(query, &workers_));
  if (request.stream && ctx.emit != nullptr) {
    // Streamed sub-reply: the points leave as bounded kThresholdChunk
    // frames (each reserved against the node server's result budget),
    // the terminating NodeOutcome carries only the counters — so a
    // sub-reply is never limited by the frame cap and the encoded bytes
    // in flight stay bounded.
    const uint64_t slice = ctx.chunk_points == 0 ? 32768 : ctx.chunk_points;
    uint64_t seq = 0;
    uint64_t total = 0;
    size_t begin = 0;
    while (begin < outcome.points.size()) {
      const size_t end = std::min(outcome.points.size(),
                                  begin + static_cast<size_t>(slice));
      net::ThresholdChunk chunk;
      chunk.seq = seq++;
      chunk.points.assign(
          std::make_move_iterator(outcome.points.begin() +
                                  static_cast<ptrdiff_t>(begin)),
          std::make_move_iterator(outcome.points.begin() +
                                  static_cast<ptrdiff_t>(end)));
      begin = end;
      total += chunk.points.size();
      chunk.total_points = total;
      TURBDB_RETURN_NOT_OK(
          net::EmitChunk(ctx, chunk,
                         chunk.points.size() * net::kStreamedBytesPerPoint)
              .status());
    }
    outcome.points.clear();
  }
  return outcome;
}

Result<net::NodeFetchAtomsReply> NodeService::FetchAtoms(
    const net::NodeFetchAtomsRequest& request, const net::CallContext&) {
  net::NodeFetchAtomsReply reply;
  TURBDB_ASSIGN_OR_RETURN(
      reply.atoms,
      node_.ServeAtoms(request.dataset, request.field, request.timestep,
                       request.codes, request.concurrent, &reply.cost_s,
                       &reply.bytes_out));
  return reply;
}

Result<net::Ack<net::NodeDropCacheRequest>> NodeService::DropCache(
    const net::NodeDropCacheRequest& request, const net::CallContext&) {
  TURBDB_RETURN_NOT_OK(node_.DropCacheEntries(request.dataset, request.field,
                                              request.timestep));
  return net::Ack<net::NodeDropCacheRequest>{};
}

Result<net::NodeStatsReply> NodeService::Stats(
    const net::NodeStatsRequest& request, const net::CallContext&) {
  net::NodeStatsReply reply;
  reply.node_id = config_.node_id;
  if (request.dataset.empty() && request.field.empty()) {
    // The node-wide row: atoms across every open store.
    for (const StoreListing& listing : node_.ListStores()) {
      reply.stored_atoms += listing.atoms;
    }
  } else {
    reply.stored_atoms = node_.StoredAtomCount(request.dataset, request.field);
  }
  reply.epoch = config_.epoch;
  if (wal_ != nullptr) {
    reply.wal_pending_records = wal_->pending_records();
    reply.wal_pending_bytes = wal_->pending_bytes();
  }
  reply.generation = generation();
  const Scrubber::Totals scrub = scrubber_->totals();
  reply.scrub_passes = scrub.passes;
  reply.scrub_atoms_verified = scrub.atoms_verified;
  reply.scrub_atoms_corrupt = scrub.atoms_corrupt;
  reply.scrub_atoms_repaired = scrub.atoms_repaired;
  for (const DatabaseNode::StoreHandle& handle : node_.OpenStores()) {
    reply.atoms_quarantined += handle.store->QuarantinedCount();
  }
  return reply;
}

Result<net::Ack<net::CutoverRequest>> NodeService::Cutover(
    const net::CutoverRequest& request, const net::CallContext&) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    cutover_generation_ = std::max(cutover_generation_, request.generation);
  }
  // Cached point sets were computed under the old ownership; a query
  // routed at or after the move must not be answered from them.
  for (const Catalog::Entry* entry : catalog_.Entries()) {
    TURBDB_RETURN_NOT_OK(node_.DropCacheEntries(entry->info.name, "", -1));
  }
  TURBDB_LOG(Info) << "node " << config_.node_id << ": cutover of ["
                   << request.begin << ", " << request.end << ") from shard "
                   << request.from_shard << " to shard " << request.to_shard
                   << " at generation " << request.generation;
  return net::Ack<net::CutoverRequest>{};
}

Result<net::NodeSyncRangeReply> NodeService::SyncRange(
    const net::NodeSyncRangeRequest& request, const net::CallContext&) {
  const uint64_t end =
      request.end_code == 0 ? UINT64_MAX : request.end_code;
  const uint64_t max_atoms = request.max_atoms == 0 ? 512 : request.max_atoms;
  net::NodeSyncRangeReply reply;
  TURBDB_RETURN_NOT_OK(node_.CollectRange(
      request.dataset, request.field, request.timestep, request.begin_code,
      end, max_atoms, &reply.atoms, &reply.next_code, &reply.done));
  return reply;
}

Result<net::NodeListStoresReply> NodeService::ListStores(
    const net::NodeListStoresRequest&, const net::CallContext&) {
  return net::NodeListStoresReply{node_.ListStores()};
}

Result<net::NodeMerkleReply> NodeService::Merkle(
    const net::NodeMerkleRequest& request, const net::CallContext&) {
  std::vector<AtomDigest> rows;
  Status status = node_.StoreDigestRows(request.dataset, request.field, &rows);
  // An unknown store answers as an empty tree (root 0): anti-entropy
  // between replicas where one side has not opened the store yet is a
  // full divergence, not an error.
  if (!status.ok() && status.code() != StatusCode::kNotFound) return status;
  return net::NodeMerkleReply{config_.node_id,
                              BuildMerkleTree(rows, request.leaf_shift)};
}

Result<net::NodeScrubReply> NodeService::Scrub(
    const net::NodeScrubRequest& request, const net::CallContext&) {
  if (request.trigger) (void)scrubber_->RunPass();
  net::NodeScrubReply reply;
  reply.node_id = config_.node_id;
  const Scrubber::Totals totals = scrubber_->totals();
  reply.passes = totals.passes;
  reply.atoms_verified = totals.atoms_verified;
  reply.atoms_corrupt = totals.atoms_corrupt;
  reply.atoms_repaired = totals.atoms_repaired;
  reply.last_pass_unix_ms = totals.last_pass_unix_ms;
  reply.stores = scrubber_->Snapshot();
  return reply;
}

Result<net::NodeRepairRangeReply> NodeService::RepairRange(
    const net::NodeRepairRangeRequest& request, const net::CallContext&) {
  return RepairStoreFromSiblings(request.dataset, request.field,
                                 request.timestep, request.begin_code,
                                 request.end_code);
}

Result<net::NodeRepairRangeReply> NodeService::RepairStoreFromSiblings(
    const std::string& dataset, const std::string& field, int32_t timestep,
    uint64_t begin_code, uint64_t end_code) {
  net::NodeRepairRangeReply reply;
  reply.node_id = config_.node_id;
  // The local tree; an unopened store diffs as empty (pull everything).
  std::vector<AtomDigest> rows;
  Status status = node_.StoreDigestRows(dataset, field, &rows);
  if (!status.ok() && status.code() != StatusCode::kNotFound) return status;
  const MerkleTree mine = BuildMerkleTree(rows);

  const int replication = std::max(1, config_.replication_factor);
  // Replica siblings are grouped by physical id, not the logical shard
  // override: group g is physicals [g*R, (g+1)*R).
  const int group = config_.node_id / replication;
  Status last = Status::NotFound(
      "node " + std::to_string(config_.node_id) +
      " has no replica siblings to repair from (replication factor " +
      std::to_string(replication) + ")");
  for (int r = 0; r < replication; ++r) {
    const int physical = group * replication + r;
    if (physical == config_.node_id) continue;
    if (physical < 0 || physical >= static_cast<int>(config_.peers.size())) {
      continue;
    }
    std::shared_ptr<PeerChannel> channel = GetPeerChannel(
        physical, config_.peers.nodes[static_cast<size_t>(physical)]);

    net::NodeMerkleRequest merkle_request;
    merkle_request.dataset = dataset;
    merkle_request.field = field;
    merkle_request.leaf_shift = kDefaultMerkleLeafShift;
    Result<net::NodeMerkleReply> peer_tree = Status::OK();
    {
      std::lock_guard<std::mutex> lock(channel->mutex);
      peer_tree = channel->client->Call(merkle_request);
    }
    if (!peer_tree.ok()) {
      last = Status(peer_tree.status().code(),
                    "merkle fetch from node " + std::to_string(physical) +
                        ": " + peer_tree.status().message());
      continue;  // Sick sibling; try the next one.
    }

    std::vector<MerkleRange> diverged = DiffMerkleTrees(mine, peer_tree->tree);
    // Optional confinement to the requested [begin_code, end_code) of
    // one timestep (begin == end == 0 repairs whatever the diff found).
    if (!(begin_code == 0 && end_code == 0)) {
      std::vector<MerkleRange> confined;
      for (MerkleRange& range : diverged) {
        if (range.timestep != timestep) continue;
        range.begin = std::max(range.begin, begin_code);
        range.end = std::min(range.end, end_code);
        if (range.begin < range.end) confined.push_back(range);
      }
      diverged = std::move(confined);
    }
    reply.ranges_diverged = diverged.size();

    for (const MerkleRange& range : diverged) {
      net::NodeSyncRangeRequest sync;
      sync.dataset = dataset;
      sync.field = field;
      sync.timestep = range.timestep;
      sync.begin_code = range.begin;
      sync.end_code = range.end;
      sync.max_atoms = 256;
      // Paging the sibling's copy failed mid-repair: surface it (what has
      // been rewritten so far is already durable and re-verified by the
      // next pass — repair is idempotent).
      TURBDB_RETURN_NOT_OK(PageSyncRange(
          sync,
          [&channel](const net::NodeSyncRangeRequest& page) {
            std::lock_guard<std::mutex> lock(channel->mutex);
            return channel->client->Call(page);
          },
          [&](std::vector<Atom>& atoms) -> Status {
            for (const Atom& atom : atoms) {
              ++reply.atoms_examined;
              Result<Atom> local =
                  node_.ReadStoredAtom(dataset, field, atom.key);
              const bool rewrite =
                  !local.ok() || local->width != atom.width ||
                  local->ncomp != atom.ncomp || local->data != atom.data;
              if (!rewrite) continue;
              TURBDB_RETURN_NOT_OK(node_.RepairAtom(dataset, field, atom));
              ++reply.atoms_repaired;
            }
            return Status::OK();
          }));
    }

    if (reply.atoms_repaired > 0) {
      TURBDB_LOG(Warning) << "node " << config_.node_id << ": repaired "
                          << reply.atoms_repaired << " atom(s) of " << dataset
                          << "/" << field << " from node " << physical << " ("
                          << reply.ranges_diverged << " divergent range(s))";
    }
    // One healthy sibling is enough; recompute the local root so the
    // caller can assert convergence against the peer's.
    rows.clear();
    status = node_.StoreDigestRows(dataset, field, &rows);
    if (!status.ok() && status.code() != StatusCode::kNotFound) return status;
    reply.root = BuildMerkleTree(rows).root;
    return reply;
  }
  if (replication < 2) {
    // Unreplicated: nothing to diff against. Answer with the local root
    // rather than failing — the scrub RPC path treats this as "healthy
    // by definition of having no peer".
    reply.root = mine.root;
    return reply;
  }
  return last;
}

}  // namespace turbdb
