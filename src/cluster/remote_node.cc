#include "cluster/remote_node.h"

#include <algorithm>
#include <chrono>

#include "net/frame.h"

namespace turbdb {

namespace {

/// Atoms per ingest RPC: keeps frames far below the 64 MiB cap.
constexpr size_t kIngestBatchAtoms = 512;

/// Bound on dialing a node and writing one cancel frame to it.
constexpr int64_t kCancelBudgetMs = 2000;

}  // namespace

net::NodeQuerySpec ToSpec(const NodeQuery& query) {
  net::NodeQuerySpec spec;
  static_cast<NodeQueryParams&>(spec) = query;
  spec.mode = static_cast<int32_t>(query.mode);
  spec.dataset = query.dataset->name;
  return spec;
}

RemoteNode::RemoteNode(int id, const NodeAddress& address,
                       const RemoteNodeOptions& options, int shard)
    : id_(id), shard_(shard >= 0 ? shard : id), address_(address),
      options_(options),
      client_(address.host, address.port, NodeClientOptions(options)) {}

Status RemoteNode::Named(const Status& status) const {
  if (status.ok()) return status;
  return Status(status.code(), DebugName() + ": " + status.message());
}

Result<uint64_t> RemoteNode::Handshake() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto hello = client_.Hello();
  if (!hello.ok()) return Named(hello.status());
  if (hello->protocol_version != net::kProtocolVersion) {
    // Normally unreachable — the frame layer rejects other versions —
    // but kept for a future where frames stay stable and semantics move.
    return Named(Status::VersionMismatch(
        "speaks protocol v" + std::to_string(hello->protocol_version) +
        ", this mediator speaks v" + std::to_string(net::kProtocolVersion)));
  }
  if (hello->server_id != id_) {
    return Named(Status::InvalidArgument(
        "identifies as node " + std::to_string(hello->server_id) +
        " — topology misconfigured?"));
  }
  return hello->epoch;
}

Status RemoteNode::CreateDataset(const DatasetInfo& info, int num_shards,
                                 PartitionStrategy strategy) {
  net::NodeCreateDatasetRequest request;
  request.info = info;
  request.num_nodes = num_shards;
  request.node_id = shard_;
  request.strategy = static_cast<int32_t>(strategy);
  std::lock_guard<std::mutex> lock(mutex_);
  return Named(client_.NodeCreateDataset(request));
}

Status RemoteNode::IngestBatches(const std::string& dataset,
                                 const std::string& field,
                                 const std::vector<Atom>& atoms,
                                 bool skip_existing) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t begin = 0; begin < atoms.size(); begin += kIngestBatchAtoms) {
    const size_t end = std::min(atoms.size(), begin + kIngestBatchAtoms);
    net::NodeIngestRequest request;
    request.dataset = dataset;
    request.field = field;
    request.skip_existing = skip_existing;
    request.atoms.assign(atoms.begin() + static_cast<ptrdiff_t>(begin),
                         atoms.begin() + static_cast<ptrdiff_t>(end));
    TURBDB_RETURN_NOT_OK(Named(client_.NodeIngest(request)));
  }
  return Status::OK();
}

Status RemoteNode::IngestAtoms(const std::string& dataset,
                               const std::string& field,
                               const std::vector<Atom>& atoms) {
  return IngestBatches(dataset, field, atoms, /*skip_existing=*/false);
}

Status RemoteNode::IngestSkippingExisting(const std::string& dataset,
                                          const std::string& field,
                                          const std::vector<Atom>& atoms) {
  return IngestBatches(dataset, field, atoms, /*skip_existing=*/true);
}

Result<net::NodeSyncRangeReply> RemoteNode::SyncRange(
    const net::NodeSyncRangeRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto reply = client_.NodeSyncRange(request);
  if (!reply.ok()) return Named(reply.status());
  return reply;
}

Result<net::NodeListStoresReply> RemoteNode::ListStores() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto reply = client_.NodeListStores();
  if (!reply.ok()) return Named(reply.status());
  return reply;
}

Result<NodeOutcome> RemoteNode::Execute(const NodeQuery& query) {
  net::NodeExecuteRequest request;
  request.spec = ToSpec(query);
  // Threshold sub-replies stream back as bounded chunk frames, so a
  // large sub-result is neither capped by the frame limit nor buffered
  // whole on the node's encoder.
  request.stream = query.mode == NodeQuery::Mode::kThreshold;
  // Each hop carries the *remaining* budget: the sub-query deadline,
  // tightened by whatever is left of the caller's overall deadline.
  uint64_t budget_ms = options_.subquery_deadline_ms;
  if (query.deadline != std::chrono::steady_clock::time_point{}) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        query.deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return Named(Status::DeadlineExceeded(
          "query budget exhausted before dispatching the sub-query"));
    }
    budget_ms = std::min<uint64_t>(
        budget_ms, static_cast<uint64_t>(remaining.count()));
  }
  request.rpc.deadline_ms = budget_ms;
  request.rpc.query_id = query.query_id;
  // The routed view rides along: the node evaluates and reads by it,
  // and dials the shards joined since the datasets were created at the
  // addresses it names.
  request.rpc.generation = query.view->generation;
  request.overrides = query.view->overrides;
  for (const NodeRecord& record : query.view->nodes) {
    if (record.shard >= query.partitioner->num_nodes()) {
      request.joined.push_back(record);
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  auto outcome = client_.NodeExecute(request);
  lock.unlock();
  if (!outcome.ok()) return Named(outcome.status());
  outcome->node_id = id_;
  return outcome;
}

void RemoteNode::Cancel(uint64_t query_id) {
  if (query_id == 0) return;
  // The main channel is busy with the Execute being cancelled, so the
  // cancel goes out on a one-shot connection, closed without awaiting
  // the reply: the node flips the query's token when it reads the frame,
  // and its reply write then fails harmlessly. A stalled node cannot
  // hold the caller. Cancellation is advisory: a node too sick to take
  // the frame is not doing useful work anyway.
  const net::Deadline deadline = net::Deadline::After(kCancelBudgetMs);
  auto conn = net::TcpConnect(address_.host, address_.port, deadline);
  if (!conn.ok()) return;
  net::CancelRequest request;
  request.rpc.query_id = query_id;
  (void)net::WriteFrame(*conn, net::EncodeRequest(request), deadline);
}

Status RemoteNode::DropCacheEntries(const std::string& dataset,
                                    const std::string& field,
                                    int32_t timestep) {
  net::NodeDropCacheRequest request;
  request.dataset = dataset;
  request.field = field;
  request.timestep = timestep;
  std::lock_guard<std::mutex> lock(mutex_);
  return Named(client_.NodeDropCache(request));
}

Result<uint64_t> RemoteNode::StoredAtomCount(const std::string& dataset,
                                             const std::string& field) {
  net::NodeStatsRequest request;
  request.dataset = dataset;
  request.field = field;
  std::lock_guard<std::mutex> lock(mutex_);
  auto stats = client_.NodeStats(request);
  if (!stats.ok()) return Named(stats.status());
  return stats->stored_atoms;
}

Result<net::NodeStatsReply> RemoteNode::Stats(const std::string& dataset,
                                              const std::string& field) {
  net::NodeStatsRequest request;
  request.dataset = dataset;
  request.field = field;
  std::lock_guard<std::mutex> lock(mutex_);
  auto stats = client_.NodeStats(request);
  if (!stats.ok()) return Named(stats.status());
  return stats;
}

Result<net::NodeMerkleReply> RemoteNode::Merkle(
    const net::NodeMerkleRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto reply = client_.NodeMerkle(request);
  if (!reply.ok()) return Named(reply.status());
  return reply;
}

Result<net::NodeScrubReply> RemoteNode::Scrub(
    const net::NodeScrubRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto reply = client_.NodeScrub(request);
  if (!reply.ok()) return Named(reply.status());
  return reply;
}

Result<net::NodeRepairRangeReply> RemoteNode::RepairRange(
    const net::NodeRepairRangeRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto reply = client_.NodeRepairRange(request);
  if (!reply.ok()) return Named(reply.status());
  return reply;
}

Status RemoteNode::Cutover(const net::CutoverRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Named(client_.Cutover(request));
}

}  // namespace turbdb
