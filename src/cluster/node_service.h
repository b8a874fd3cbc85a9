#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/cost_model.h"
#include "cluster/node.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "membership/view.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/scrub.h"
#include "storage/wal.h"

namespace turbdb {

/// Configuration of one turbdb_node process.
struct NodeServiceConfig {
  int node_id = 0;  ///< Physical id (index into `peers`).
  CostModelConfig cost;
  /// Empty = in-memory atom stores; otherwise FileAtomStore files live
  /// under this directory.
  std::string storage_dir;
  /// Threads executing this node's data-parallel chunks; 0 = hardware
  /// concurrency.
  int worker_threads = 0;
  /// Peer addresses (entry i = physical node i) for direct halo fetches.
  /// The entry of this node itself is ignored.
  ClusterTopology peers;
  /// Transport policy for peer fetches.
  RemoteNodeOptions remote;
  /// Replica-group width R: physical nodes [g*R, (g+1)*R) all serve
  /// shard g. This node's shard is node_id / R; halo fetches address a
  /// shard and fail over across its replicas. 1 = unreplicated.
  int replication_factor = 1;
  /// fsync each (dataset, field) store at ingest-batch completion
  /// (durable mode). --no-fsync turns it off for benches.
  bool fsync_ingest = true;
  /// This process's incarnation counter (bumped at start, persisted
  /// beside the storage dir); reported through Hello and Stats.
  uint64_t epoch = 0;
  /// Logical shard override for nodes admitted into a running cluster
  /// (v6 join). -1 = derive from node_id / replication_factor; joined
  /// nodes get a fresh shard id from the mediator that the static
  /// formula cannot produce.
  int shard_override = -1;
  /// Background scrub cadence in seconds; 0 disables the thread (scrub
  /// passes then run only via the NodeScrub RPC).
  int scrub_interval_s = 0;
  /// Scrub read-rate budget in MB/s; 0 = unthrottled.
  int scrub_rate_mb = 0;
};

/// Serves one `DatabaseNode` over the node-scoped RPCs: the process body
/// of `tools/turbdb_node`. Its `Catalog` is the same resolver the
/// mediator uses for in-process nodes: the datasets arrive by
/// CreateDataset (or a joiner's registrations), and each sub-query's
/// spec resolves through it, so a remote sub-query executes exactly the
/// `NodeQuery` its in-process twin would.
///
/// Halo exchange goes node-to-node: a sub-query needing boundary atoms
/// owned by a peer dials that peer's NodeFetchAtoms directly (no
/// mediator round-trip), adding the modeled LAN cost locally just as the
/// in-process fetch hook does.
///
/// Ownership is not node state: each sub-query carries the view it was
/// routed under, and the node evaluates and reads by it. The node keeps
/// one number, the generation of the last cutover it took part in,
/// which guards its semantic cache.
class NodeService {
 public:
  explicit NodeService(const NodeServiceConfig& config);

  /// The request handler to mount on a net::Server. The service must
  /// outlive the server.
  net::Server::Handler AsHandler();

  /// Decodes and executes one node-scoped request payload; any other
  /// request type is kNotSupported. `ctx` carries the request's deadline
  /// (derived from the frame's budget field) and cancellation token;
  /// Execute threads both into the evaluation loop.
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& payload,
                              const net::CallContext& ctx) const;

  DatabaseNode& node() { return node_; }
  int node_id() const { return config_.node_id; }

  /// The logical shard this node serves: the join-time override when
  /// set, else node_id / replication factor.
  int shard() const {
    return config_.shard_override >= 0
               ? config_.shard_override
               : config_.node_id / std::max(1, config_.replication_factor);
  }

  /// Opens the write-ahead log and replays any records it holds into the
  /// stores (idempotent: atoms already persisted are skipped), then
  /// truncates it. Call once after construction, before serving and
  /// before any epoch-driven re-sync — the log is the source of truth
  /// for acknowledged-but-torn batches. No-op for in-memory configs.
  Status RecoverWal();

  /// Registers a dataset from its wire form without the node_id check of
  /// the CreateDataset RPC — the self-registration path of a node that
  /// joined a running cluster and received the catalog in its JoinReply.
  /// Like the RPC, an identical re-registration is OK and the same name
  /// with another shape is kAlreadyExists.
  Status RegisterDatasetSpec(const net::WireDatasetRegistration& reg);

  /// Generation of the last cutover this node took part in (0 = none):
  /// sub-queries routed below it bypass the semantic cache, which holds
  /// answers for the ownership since that cutover only.
  uint64_t generation() const;

  /// The node's background scrubber (always constructed; the thread only
  /// runs when scrub_interval_s > 0). Tests trigger passes through it.
  Scrubber& scrubber() { return *scrubber_; }

 private:
  /// One serialized channel per peer (net::Client is not thread-safe;
  /// worker chunks of one sub-query may fetch concurrently).
  struct PeerChannel {
    NodeAddress address;  ///< What `client` dials.
    std::mutex mutex;
    std::unique_ptr<net::Client> client;
  };

  /// Batch-end durability: when the log has outgrown the checkpoint
  /// threshold, fsyncs every store and truncates it.
  Status WalBatchEnd();

  /// Batched halo fetch from a replica of shard `owner` (a base shard's
  /// replicas by the peer list, a joined shard by its records in the
  /// view `query` was routed under), bounded by whatever remains of
  /// `query`'s deadline budget (a fetch for an already-expired query
  /// fails typed without dialing).
  Result<std::vector<Atom>> FetchFromPeer(
      const NodeQuery& query, int owner, const std::string& dataset,
      const std::string& field, int32_t timestep,
      const std::vector<uint64_t>& codes, int concurrent, double* cost_s);

  /// The serialized channel to physical peer node `physical` at
  /// `address`: created on first use, and replaced when the peer's
  /// address changed (a joined shard re-admitted on a new port). A call
  /// still running on a replaced channel keeps it alive until it returns.
  std::shared_ptr<PeerChannel> GetPeerChannel(int physical,
                                              const NodeAddress& address);

  // The node-scoped RPCs, each registered in `dispatcher_`.
  Result<net::Ack<net::NodeCreateDatasetRequest>> CreateDataset(
      const net::NodeCreateDatasetRequest& request, const net::CallContext&);
  Result<net::Ack<net::NodeIngestRequest>> Ingest(
      const net::NodeIngestRequest& request, const net::CallContext&);
  Result<NodeOutcome> Execute(const net::NodeExecuteRequest& request,
                              const net::CallContext& ctx);
  Result<net::NodeFetchAtomsReply> FetchAtoms(
      const net::NodeFetchAtomsRequest& request, const net::CallContext&);
  Result<net::Ack<net::NodeDropCacheRequest>> DropCache(
      const net::NodeDropCacheRequest& request, const net::CallContext&);
  Result<net::NodeStatsReply> Stats(const net::NodeStatsRequest& request,
                                    const net::CallContext&);
  Result<net::NodeSyncRangeReply> SyncRange(
      const net::NodeSyncRangeRequest& request, const net::CallContext&);
  Result<net::NodeListStoresReply> ListStores(
      const net::NodeListStoresRequest& request, const net::CallContext&);
  Result<net::Ack<net::CutoverRequest>> Cutover(
      const net::CutoverRequest& request, const net::CallContext&);
  Result<net::NodeMerkleReply> Merkle(const net::NodeMerkleRequest& request,
                                      const net::CallContext&);
  Result<net::NodeScrubReply> Scrub(const net::NodeScrubRequest& request,
                                    const net::CallContext&);
  Result<net::NodeRepairRangeReply> RepairRange(
      const net::NodeRepairRangeRequest& request, const net::CallContext&);

  /// Anti-entropy driver: fetches a replica sibling's Merkle tree for
  /// (dataset, field), diffs it against the local one, pages only the
  /// divergent z-ranges over SyncRange, and rewrites atoms that are
  /// missing, quarantined or byte-different locally. Stops after the
  /// first sibling that answers. `begin_code == end_code == 0` means
  /// "whatever the diff finds"; otherwise the repair is confined to
  /// [begin_code, end_code) of `timestep`. Repair is pull-only: atoms
  /// this node holds that the sibling lacks are left alone (the
  /// sibling's own scrubber pulls them in the other direction).
  Result<net::NodeRepairRangeReply> RepairStoreFromSiblings(
      const std::string& dataset, const std::string& field, int32_t timestep,
      uint64_t begin_code, uint64_t end_code);

  NodeServiceConfig config_;
  DatabaseNode node_;
  Catalog catalog_;
  ThreadPool workers_;

  /// Write-ahead log (opened by RecoverWal; null until then or in
  /// memory). The log itself is internally synchronized; checkpointing
  /// (store fsyncs + truncate) serializes on wal_mutex_.
  std::unique_ptr<WriteAheadLog> wal_;
  std::mutex wal_mutex_;

  mutable std::mutex state_mutex_;
  /// See generation(). Guarded by state_mutex_.
  uint64_t cutover_generation_ = 0;

  std::map<int, std::shared_ptr<PeerChannel>> peers_;
  std::mutex peers_mutex_;

  net::Dispatcher dispatcher_{"turbdb_node"};

  /// Declared last so its thread stops before any state it scrubs or
  /// repairs through (node_, peers_) is torn down.
  std::unique_ptr<Scrubber> scrubber_;
};

}  // namespace turbdb
