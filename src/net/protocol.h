#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/distributed_fof.h"
#include "array/atom.h"
#include "cache/mediator_cache.h"
#include "cluster/dataset.h"
#include "common/profile.h"
#include "common/result.h"
#include "membership/view.h"
#include "query/query.h"
#include "storage/merkle.h"
#include "storage/scrub.h"

namespace turbdb {
namespace net {

/// Message discriminator, the first varint of every frame payload.
/// Requests and responses share the numbering space; responses are the
/// request value + 64, errors are 127. Types 1-6 are the mediator-facing
/// (user) RPCs; 7 is the handshake; 8 is cooperative cancellation
/// (answered inline by every server); 10-14 are the mediator cache
/// controls (9 is skipped: 9 + 64 is the kThresholdChunk slot); 15 is
/// the distributed friends-of-friends query (v5); 16-23 are the
/// node-scoped RPCs the mediator (and peer nodes) issue to `turbdb_node`
/// processes.
enum class MsgType : uint8_t {
  kThresholdRequest = 1,
  kPdfRequest = 2,
  kTopKRequest = 3,
  kFieldStatsRequest = 4,
  kServerStatsRequest = 5,
  kPingRequest = 6,
  kHelloRequest = 7,
  kCancelRequest = 8,
  kDropCacheRequest = 10,
  kCacheStatsRequest = 11,
  kCacheWarmRequest = 12,
  kCachePinRequest = 13,
  kCacheUnpinRequest = 14,
  kFofRequest = 15,

  kNodeCreateDatasetRequest = 16,
  kNodeIngestRequest = 17,
  kNodeExecuteRequest = 18,
  kNodeFetchAtomsRequest = 19,
  kNodeDropCacheRequest = 20,
  kNodeStatsRequest = 21,
  kNodeSyncRangeRequest = 22,
  kNodeListStoresRequest = 23,

  // Elasticity RPCs (v6). 24 is skipped: 24 + 64 is the kFofChunk slot.
  kJoinRequest = 25,
  kLeaveRequest = 26,
  kMembershipGetRequest = 27,
  // 28 (and 92) carried MembershipUpdate in v6-v9.
  // 29 (and 93) carried BeginHandoff in v6-v8.
  kCutoverRequest = 30,
  kRebalanceRequest = 31,

  // Self-healing RPCs (v7): Merkle digests, scrub control and targeted
  // range repair, all node-scoped.
  kNodeMerkleRequest = 32,
  kNodeScrubRequest = 33,
  kNodeRepairRangeRequest = 34,

  kThresholdResponse = 65,
  kPdfResponse = 66,
  kTopKResponse = 67,
  kFieldStatsResponse = 68,
  kServerStatsResponse = 69,
  kPingResponse = 70,
  kHelloResponse = 71,
  kCancelResponse = 72,
  /// One slice of a streamed threshold reply (v4). A streamed request is
  /// answered by zero or more chunk frames followed by a terminating
  /// kThresholdResponse (summary, empty point set) or kErrorResponse.
  kThresholdChunk = 73,
  kDropCacheResponse = 74,
  kCacheStatsResponse = 75,
  kCacheWarmResponse = 76,
  kCachePinResponse = 77,
  kCacheUnpinResponse = 78,

  /// Terminator of a streamed friends-of-friends reply (v5): summary
  /// counters, preceded by zero or more kFofChunk frames.
  kFofResponse = 79,

  kNodeCreateDatasetResponse = 80,
  kNodeIngestResponse = 81,
  kNodeExecuteResponse = 82,
  kNodeFetchAtomsResponse = 83,
  kNodeDropCacheResponse = 84,
  kNodeStatsResponse = 85,
  kNodeSyncRangeResponse = 86,
  kNodeListStoresResponse = 87,
  /// One slice of a streamed friends-of-friends reply (v5): a batch of
  /// whole clusters (summary row each, member points when requested).
  kFofChunk = 88,

  kJoinResponse = 89,
  kLeaveResponse = 90,
  kMembershipGetResponse = 91,
  kCutoverResponse = 94,
  kRebalanceResponse = 95,

  kNodeMerkleResponse = 96,
  kNodeScrubResponse = 97,
  kNodeRepairRangeResponse = 98,

  kErrorResponse = 127,
};

/// Options every request carries. `deadline_ms` is the client's
/// *remaining* budget for the request measured from the moment the
/// server reads it off the wire; 0 means "use the server default". Since
/// frame v3 the budget travels in the frame header (each hop re-stamps
/// the remainder before forwarding), so this field is populated from the
/// header on decode and never serialized into the payload. The server
/// refuses to start (and refuses to *reply* with data) once the budget
/// is exhausted, so an expired request costs one small typed
/// DeadlineExceeded error frame, not a result dump.
///
/// `query_id` names the query for cooperative cancellation: a server
/// registers every in-flight request with a non-zero id, and a later
/// CancelRequest for the same id flips that request's cancel token. 0
/// means "not cancellable".
///
/// `tenant` (v5) names the principal the request is billed to, so the
/// server's ResourceGovernor can admit fairly across tenants instead of
/// letting one flood starve everyone; empty means the default bucket.
///
/// `generation` (v6) is the sender's membership generation — the version
/// of the cluster ownership view the request was routed with. A node
/// sub-query carries that view's range overrides beside it (v9,
/// NodeExecuteRequest::overrides) and is evaluated under exactly that
/// view; the node only uses the generation to tell whether the view
/// predates the last cutover the node took part in, and then bypasses
/// its semantic cache. 0 is the view of a cluster that never changed
/// shape (and what admin RPCs send).
struct RpcOptions {
  uint64_t deadline_ms = 0;
  uint64_t query_id = 0;
  std::string tenant;
  uint64_t generation = 0;
};

struct ThresholdRequest {
  ThresholdQuery query;
  QueryOptions options;
  RpcOptions rpc;
  /// Asks the server to stream the reply as a sequence of
  /// `kThresholdChunk` frames terminated by a summary (or error) frame,
  /// so neither side ever holds the full result set in one buffer. A
  /// server always honors the flag; a false value keeps the single-frame
  /// v3 behavior.
  bool stream = false;
};

/// One slice of a streamed threshold reply. Chunks carry consecutive
/// `seq` numbers starting at 0 and a running `total_points` (points
/// delivered up to and including this chunk) so the consumer can detect
/// a torn stream; each chunk rides in its own CRC-checked frame.
struct ThresholdChunk {
  uint64_t seq = 0;
  std::vector<ThresholdPoint> points;
  uint64_t total_points = 0;
};

struct PdfRequest {
  PdfQuery query;
  RpcOptions rpc;
};

struct TopKRequest {
  TopKQuery query;
  RpcOptions rpc;
};

struct FieldStatsRequest {
  FieldStatsQuery query;
  RpcOptions rpc;
};

/// Asks for the server's own request counters (the `stats` RPC).
struct ServerStatsRequest {
  RpcOptions rpc;
};

/// Liveness probe. `delay_ms` makes the server sleep before answering —
/// used by tests (and operators) to exercise deadline handling.
struct PingRequest {
  uint64_t delay_ms = 0;
  RpcOptions rpc;
};

// -- Mediator cache controls (v4 message-layer additions) ----------------

/// Clears cached threshold results for (dataset, raw:derived field
/// [, timestep]) in *both* tiers: the mediator's in-memory result cache
/// and every node's local semantic cache. timestep -1 matches all.
struct DropCacheRequest {
  std::string dataset;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = -1;
  RpcOptions rpc;
};

struct DropCacheReply {
  uint64_t mediator_entries = 0;  ///< Mediator-tier entries dropped.
  bool node_tier_cleared = false; ///< Node-local caches were also swept.
};

/// Asks for the mediator-tier cache counters.
struct CacheStatsRequest {
  RpcOptions rpc;
};

struct CacheStatsReply {
  bool enabled = false;
  MediatorCacheStats stats;
};

/// Runs a threshold query solely to populate the mediator cache; the
/// reply carries the point count, never the points.
struct CacheWarmRequest {
  ThresholdQuery query;
  RpcOptions rpc;
};

struct CacheWarmReply {
  uint64_t points = 0;
  bool already_cached = false;  ///< The cache could already answer it.
};

/// Pins (exempts from LRU eviction) every mediator-tier entry for
/// (dataset, raw:derived field [, timestep]); -1 matches all.
struct CachePinRequest {
  std::string dataset;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = -1;
  RpcOptions rpc;
};

/// Reverses CachePin for the same key selector.
struct CacheUnpinRequest {
  std::string dataset;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = -1;
  RpcOptions rpc;
};

/// Entries affected by a pin or an unpin. One type per request, so that
/// each reply keeps its own tag in the wire table.
template <class Request>
struct PinReply {
  uint64_t entries = 0;
};
using CachePinReply = PinReply<CachePinRequest>;
using CacheUnpinReply = PinReply<CacheUnpinRequest>;

/// A reply with no body, acknowledging one request type (create-dataset,
/// ingest, drop-cache, cutover, ping). One type per request, as above.
template <class Request>
struct Ack {};

// -- Distributed friends-of-friends (v5) ---------------------------------

/// Runs a threshold query and clusters the resulting points with the
/// friends-of-friends rule (two points are friends iff their periodic
/// distance is at most `linking_length` grid units), merged across shard
/// boundaries by the mediator. The reply is always streamed: zero or
/// more kFofChunk frames carrying whole clusters, then a terminating
/// kFofResponse summary (or kErrorResponse).
struct FofRequest {
  ThresholdQuery query;
  QueryOptions options;
  double linking_length = 2.0;     ///< In grid units.
  uint64_t min_cluster_size = 1;   ///< Smaller clusters are dropped.
  /// True = chunks carry each cluster's member points; false = summary
  /// rows only (size/bbox/centroid/peak), which keeps replies tiny.
  bool include_members = false;
  RpcOptions rpc;
};

/// One cluster row of a streamed FoF reply. `id` is the smallest member
/// z-index — a content-derived name, so ids are identical no matter how
/// shards were joined or which replicas answered.
struct FofClusterRecord {
  uint64_t id = 0;
  uint64_t size = 0;
  std::array<uint64_t, 3> bbox_lo{0, 0, 0};  ///< Grid coords, inclusive.
  std::array<uint64_t, 3> bbox_hi{0, 0, 0};
  std::array<double, 3> centroid{0.0, 0.0, 0.0};
  float max_norm = 0.0f;
  uint64_t peak_zindex = 0;  ///< z-index of the max-norm member.
  /// Z-sorted members; empty unless the request set include_members.
  std::vector<ThresholdPoint> members;

  bool operator==(const FofClusterRecord& other) const {
    return id == other.id && size == other.size &&
           bbox_lo == other.bbox_lo && bbox_hi == other.bbox_hi &&
           centroid == other.centroid && max_norm == other.max_norm &&
           peak_zindex == other.peak_zindex && members == other.members;
  }
};

/// One slice of a streamed FoF reply: whole clusters only (a cluster is
/// never split across chunks), consecutive `seq` from 0 and a running
/// `total_clusters` so the consumer detects a torn stream. The stream's
/// terminator is the mediator's DistributedFofSummary.
struct FofChunk {
  uint64_t seq = 0;
  std::vector<FofClusterRecord> clusters;
  uint64_t total_clusters = 0;
};

/// Cooperative cancellation: asks the server to flip the cancel token of
/// the in-flight request whose RpcOptions named `rpc.query_id`. Answered
/// inline by the server (never queued behind the victim), so a cancel
/// lands even while every worker is busy.
struct CancelRequest {
  RpcOptions rpc;
};

struct CancelReply {
  bool found = false;  ///< True if the id named an in-flight request.
};

/// Version/identity handshake. Framing already rejects a wrong protocol
/// version (the frame header carries it), so a Hello that decodes at all
/// proves compatibility; the reply's id lets a dialer confirm it reached
/// the process it meant to (a mediator is -1, a turbdb_node its node id).
struct HelloRequest {
  RpcOptions rpc;
};

struct HelloReply {
  uint32_t protocol_version = 0;
  int32_t server_id = -1;
  /// Incarnation counter: a turbdb_node bumps it on every start (persisted
  /// beside its storage dir), so a dialer that remembers the last epoch can
  /// tell a reconnect from a restart. A mediator reports 0.
  uint64_t epoch = 0;
};

// -- Node-scoped messages (mediator -> turbdb_node) ----------------------

/// Registers a dataset on a node and tells it which shard of the
/// partitioning it owns. Every node derives the same partitioner from
/// (geometry, num_nodes, strategy), so only those parameters travel.
struct NodeCreateDatasetRequest {
  DatasetInfo info;
  int32_t num_nodes = 1;
  int32_t node_id = 0;   ///< Which shard the receiving node owns.
  int32_t strategy = 0;  ///< PartitionStrategy as int.
  RpcOptions rpc;
};

/// Stores a batch of atoms of (dataset, field) on the node.
/// `skip_existing` makes duplicate keys a silent no-op instead of an
/// error — replica re-sync pushes ranges that may partially overlap what
/// a restarted node already recovered from durable storage.
struct NodeIngestRequest {
  std::string dataset;
  std::string field;
  std::vector<Atom> atoms;
  bool skip_existing = false;
  RpcOptions rpc;
};

/// The wire form of a `NodeQuery`: its by-value parameters plus the
/// mode and the dataset name, from which the receiving node's catalog
/// resolves the rest (`Catalog::Resolve`, cluster/catalog.h) exactly as
/// the mediator's does for an in-process node.
struct NodeQuerySpec : NodeQueryParams {
  int32_t mode = 0;  ///< NodeQuery::Mode as int.
  std::string dataset;
};

struct NodeExecuteRequest {
  NodeQuerySpec spec;
  RpcOptions rpc;
  /// v4: ask the node for a *streamed* sub-reply — threshold points
  /// arrive as kThresholdChunk frames, the terminating NodeOutcome
  /// carries everything else with an empty point set. Decouples the
  /// sub-reply size from the frame cap and keeps the node's encoded
  /// reply bounded.
  bool stream = false;
  /// v9: the range overrides of the membership view the mediator routed
  /// this sub-query under (generation in `rpc`). The node evaluates and
  /// reads by exactly this view, whatever view it has installed itself,
  /// and rejects a list that is not sorted, disjoint and non-empty per
  /// range (kInvalidArgument).
  std::vector<RangeOverride> overrides;
  /// v9: that view's records of the shards joined after the datasets
  /// were created (shard ids at or above the base partitioning's): the
  /// addresses the node dials for halo atoms the overrides re-homed to
  /// them. Base shards are dialed through the node's peer list.
  std::vector<NodeRecord> joined;
};

/// Peer-to-peer halo fetch: the batched `ServeAtoms` read a node issues
/// against the owner of boundary atoms it does not store.
struct NodeFetchAtomsRequest {
  std::string dataset;
  std::string field;
  int32_t timestep = 0;
  int32_t concurrent = 1;
  std::vector<uint64_t> codes;  ///< Sorted z-indices.
  RpcOptions rpc;
};

struct NodeFetchAtomsReply {
  std::vector<Atom> atoms;
  double cost_s = 0.0;       ///< Modeled disk cost on the serving node.
  uint64_t bytes_out = 0;    ///< Payload bytes (for the LAN cost model).
};

struct NodeDropCacheRequest {
  std::string dataset;
  std::string field;  ///< Cache key, "<raw>:<derived>".
  int32_t timestep = -1;
  RpcOptions rpc;
};

struct NodeStatsRequest {
  std::string dataset;
  std::string field;
  RpcOptions rpc;
};

struct NodeStatsReply {
  int32_t node_id = 0;
  uint64_t stored_atoms = 0;
  uint64_t epoch = 0;  ///< Same incarnation counter the Hello reply carries.
  // WAL lag (v6): ingest records not yet checkpointed into fsynced
  // stores, and the generation of the last cutover the node took part
  // in (0 if none; nodes hold no membership view).
  uint64_t wal_pending_records = 0;
  uint64_t wal_pending_bytes = 0;
  uint64_t generation = 0;
  // Scrub health (v7): lifetime counters of the node's background
  // scrubber plus the count of atoms currently quarantined as corrupt.
  uint64_t scrub_passes = 0;
  uint64_t scrub_atoms_verified = 0;
  uint64_t scrub_atoms_corrupt = 0;
  uint64_t scrub_atoms_repaired = 0;
  uint64_t atoms_quarantined = 0;
};

/// Replica sync: pages atoms of (dataset, field, timestep) inside a
/// half-open Morton range off a healthy donor. The caller walks the range
/// with `begin_code` cursors; the reply's `next_code` is where the next
/// page starts and `done` says the range is exhausted.
struct NodeSyncRangeRequest {
  std::string dataset;
  std::string field;
  int32_t timestep = 0;
  uint64_t begin_code = 0;
  uint64_t end_code = 0;   ///< Half-open; 0 means "to the end".
  uint64_t max_atoms = 0;  ///< Page size; 0 means server default (512).
  RpcOptions rpc;
};

struct NodeSyncRangeReply {
  std::vector<Atom> atoms;
  uint64_t next_code = 0;
  bool done = false;
};

/// Lists every (dataset, field) store a node currently has open, with its
/// atom count — the sync driver uses it to learn what a donor can serve.
struct NodeListStoresRequest {
  RpcOptions rpc;
};

struct NodeListStoresReply {
  std::vector<StoreListing> stores;
};

// -- Self-healing messages (v7) ------------------------------------------

/// Asks a node for the Morton-range Merkle digest of one store, the
/// anti-entropy exchange: the caller diffs the leaves against its own
/// tree and repairs only the divergent ranges.
struct NodeMerkleRequest {
  std::string dataset;
  std::string field;
  /// Leaf bucket width as a shift (leaf = zindex >> leaf_shift); both
  /// sides must agree for the diff to line up.
  uint32_t leaf_shift = 10;
  RpcOptions rpc;
};

/// The store's tree: root 0 (no leaves) iff the store is empty or
/// unknown.
struct NodeMerkleReply {
  int32_t node_id = 0;
  MerkleTree tree;
};

/// Triggers a synchronous scrub pass (trigger == true) or just reads
/// the scrubber's counters.
struct NodeScrubRequest {
  bool trigger = true;
  RpcOptions rpc;
};

struct NodeScrubReply {
  int32_t node_id = 0;
  uint64_t passes = 0;  ///< Full passes completed.
  uint64_t atoms_verified = 0;
  uint64_t atoms_corrupt = 0;
  uint64_t atoms_repaired = 0;
  uint64_t last_pass_unix_ms = 0;
  /// Per-store results of the node's most recent scrub pass.
  std::vector<Scrubber::StoreStats> stores;
};

/// Orders a node to repair one store from its replica siblings: it
/// diffs Merkle trees against a healthy peer, pages only the divergent
/// ranges over the existing SyncRange flow, and rewrites what differs.
/// A non-empty range ([begin_code, end_code) of `timestep`) confines
/// the repair; begin == end == 0 means "whatever the diff finds".
struct NodeRepairRangeRequest {
  std::string dataset;
  std::string field;
  int32_t timestep = 0;
  uint64_t begin_code = 0;
  uint64_t end_code = 0;
  RpcOptions rpc;
};

struct NodeRepairRangeReply {
  int32_t node_id = 0;
  uint64_t ranges_diverged = 0;  ///< Divergent leaves found in the diff.
  uint64_t atoms_examined = 0;   ///< Peer atoms compared against local.
  uint64_t atoms_repaired = 0;   ///< Rewritten (missing/corrupt/different).
  uint64_t root = 0;             ///< Local Merkle root after the repair.
};

// -- Elasticity messages (v6) --------------------------------------------

/// The dataset-registration parameters a joining node needs to serve:
/// what CreateDataset carried, minus the shard id (the joiner derives
/// its ownership from the membership view instead).
struct WireDatasetRegistration {
  DatasetInfo info;
  int32_t num_nodes = 1;   ///< Base shard count the partitioner was built with.
  int32_t strategy = 0;    ///< PartitionStrategy as int.
};

/// `turbdb_node --join` sent to the mediator. The two-phase dance:
/// `activate == false` asks for admission (the mediator assigns a node
/// id and a fresh shard id, records the node as kJoining, and returns
/// the view plus every dataset registration so the joiner can start
/// serving); once the joiner is listening it repeats the request with
/// `activate == true` and the mediator dials it and flips it to kShard.
/// Queries routed from then on carry its address to the other nodes.
struct JoinRequest {
  std::string uuid;
  std::string host;
  uint16_t port = 0;
  bool activate = false;
  RpcOptions rpc;
};

struct JoinReply {
  NodeRecord record;  ///< The joiner's assigned registry row.
  MembershipView view;
  std::vector<WireDatasetRegistration> registrations;
};

/// `turbdb_cli decommission`: drains `node_id` — its owned ranges are
/// moved to the remaining shards, then it is removed from routing.
struct LeaveRequest {
  int32_t node_id = -1;
  RpcOptions rpc;
};

struct LeaveReply {
  MembershipView view;       ///< View after the drain completed.
  uint64_t ranges_moved = 0;
  uint64_t atoms_copied = 0;
};

/// Fetches the mediator's current membership view (`turbdb_cli
/// membership` prints it).
struct MembershipGetRequest {
  RpcOptions rpc;
};

struct MembershipGetReply {
  MembershipView view;
};

/// Mediator -> the move's donor and recipient: the copy of the half-open
/// Morton range [begin, end) from `from_shard` to `to_shard` caught up,
/// and the move commits at membership `generation` (v10). Each drops
/// its semantic cache, whose answers belong to the old ownership, and
/// from then on bypasses it for sub-queries routed below `generation`.
/// The donor keeps the range's bytes, so sub-queries routed under an
/// older view still read them.
struct CutoverRequest {
  uint64_t begin = 0;
  uint64_t end = 0;
  int32_t from_shard = -1;
  int32_t to_shard = -1;
  uint64_t generation = 0;
  RpcOptions rpc;
};

/// `turbdb_cli rebalance`: asks the mediator to plan and execute up to
/// `max_ranges` live range moves, toward `to_shard` (or the least-loaded
/// shard when -1). Synchronous: the reply arrives after cutover.
struct RebalanceRequest {
  int32_t to_shard = -1;
  uint64_t max_ranges = 1;
  RpcOptions rpc;
};

struct RebalanceReply {
  uint64_t generation = 0;  ///< After the last cutover.
  std::vector<RangeOverride> moved;
  uint64_t atoms_copied = 0;
};

/// Server-side request counters surfaced through the stats RPC.
struct ServerStatsReply {
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;
  uint64_t bytes_in = 0;        ///< Frame bytes read (headers + payloads).
  uint64_t bytes_out = 0;       ///< Frame bytes written.
  uint64_t connections_accepted = 0;
  uint64_t active_connections = 0;
  double p50_latency_ms = 0.0;  ///< Over the most recent served requests.
  double p99_latency_ms = 0.0;
  // Admission-control counters (v4). All zero on servers running without
  // budgets (the governor treats 0 limits as unlimited).
  uint64_t queries_in_flight = 0;     ///< Currently admitted queries.
  uint64_t queries_admitted = 0;      ///< Total admitted since start.
  uint64_t queries_shed = 0;          ///< Rejected with kResourceExhausted.
  uint64_t result_bytes_in_use = 0;   ///< Reply bytes currently buffered.
  uint64_t result_bytes_peak = 0;     ///< High-water mark of the above.
  // Mediator-tier result-cache counters (all zero when the cache is
  // disabled or the server fronts no mediator).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_subsumption_hits = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;           ///< Charged to the governor ledger.
  uint64_t cache_pinned_bytes = 0;
  // Per-tenant admission counters (v5). Empty until a request carried a
  // tenant id (or a tenant cap/weight was configured); sorted by name.
  struct TenantStats {
    std::string name;
    uint64_t in_flight = 0;
    uint64_t peak_in_flight = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t cap = 0;  ///< Effective in-flight cap; 0 = global only.
  };
  std::vector<TenantStats> tenants;
  /// Membership generation of the mediator behind this server (v6);
  /// 0 when the mediator runs without a membership registry.
  uint64_t membership_generation = 0;
  // Self-healing counters (v7), summed over the mediator's replica
  // groups. Zero under R=1 (no sibling to fail over to or repair from).
  uint64_t corruption_failovers = 0;  ///< kCorruption reads retried on a
                                      ///< sibling replica.
  uint64_t read_repairs = 0;          ///< Repairs enqueued for the loser.
};


// -- The wire table ------------------------------------------------------
//
// Every message once. An RPC row names the request, its tag, the reply a
// server answers it with and that reply's tag; a STREAM row names a
// message that only travels inside a streamed reply, ahead of the
// reply's terminating frame. `Wire<Msg>`, `ReplyOf<Req>`, `Encode` and
// `Decode` are all instantiated from these rows, so a new message is its
// struct, one row here, its Fields() in protocol.cc, a handler a server
// registers (Dispatcher, server.h) and a golden frame.
#define TURBDB_NET_WIRE_TABLE(RPC, STREAM)                                     \
  RPC(ThresholdRequest, kThresholdRequest, ThresholdResult,                    \
      kThresholdResponse)                                                      \
  RPC(PdfRequest, kPdfRequest, PdfResult, kPdfResponse)                        \
  RPC(TopKRequest, kTopKRequest, TopKResult, kTopKResponse)                    \
  RPC(FieldStatsRequest, kFieldStatsRequest, FieldStatsResult,                 \
      kFieldStatsResponse)                                                     \
  RPC(ServerStatsRequest, kServerStatsRequest, ServerStatsReply,               \
      kServerStatsResponse)                                                    \
  RPC(PingRequest, kPingRequest, Ack<PingRequest>, kPingResponse)              \
  RPC(HelloRequest, kHelloRequest, HelloReply, kHelloResponse)                 \
  RPC(CancelRequest, kCancelRequest, CancelReply, kCancelResponse)             \
  RPC(DropCacheRequest, kDropCacheRequest, DropCacheReply, kDropCacheResponse) \
  RPC(CacheStatsRequest, kCacheStatsRequest, CacheStatsReply,                  \
      kCacheStatsResponse)                                                     \
  RPC(CacheWarmRequest, kCacheWarmRequest, CacheWarmReply, kCacheWarmResponse) \
  RPC(CachePinRequest, kCachePinRequest, CachePinReply, kCachePinResponse)     \
  RPC(CacheUnpinRequest, kCacheUnpinRequest, CacheUnpinReply,                  \
      kCacheUnpinResponse)                                                     \
  RPC(FofRequest, kFofRequest, DistributedFofSummary, kFofResponse)            \
  RPC(NodeCreateDatasetRequest, kNodeCreateDatasetRequest,                     \
      Ack<NodeCreateDatasetRequest>, kNodeCreateDatasetResponse)               \
  RPC(NodeIngestRequest, kNodeIngestRequest, Ack<NodeIngestRequest>,           \
      kNodeIngestResponse)                                                     \
  RPC(NodeExecuteRequest, kNodeExecuteRequest, NodeOutcome,                    \
      kNodeExecuteResponse)                                                    \
  RPC(NodeFetchAtomsRequest, kNodeFetchAtomsRequest, NodeFetchAtomsReply,      \
      kNodeFetchAtomsResponse)                                                 \
  RPC(NodeDropCacheRequest, kNodeDropCacheRequest, Ack<NodeDropCacheRequest>,  \
      kNodeDropCacheResponse)                                                  \
  RPC(NodeStatsRequest, kNodeStatsRequest, NodeStatsReply, kNodeStatsResponse) \
  RPC(NodeSyncRangeRequest, kNodeSyncRangeRequest, NodeSyncRangeReply,         \
      kNodeSyncRangeResponse)                                                  \
  RPC(NodeListStoresRequest, kNodeListStoresRequest, NodeListStoresReply,      \
      kNodeListStoresResponse)                                                 \
  RPC(JoinRequest, kJoinRequest, JoinReply, kJoinResponse)                     \
  RPC(LeaveRequest, kLeaveRequest, LeaveReply, kLeaveResponse)                 \
  RPC(MembershipGetRequest, kMembershipGetRequest, MembershipGetReply,         \
      kMembershipGetResponse)                                                  \
  RPC(CutoverRequest, kCutoverRequest, Ack<CutoverRequest>, kCutoverResponse)  \
  RPC(RebalanceRequest, kRebalanceRequest, RebalanceReply, kRebalanceResponse) \
  RPC(NodeMerkleRequest, kNodeMerkleRequest, NodeMerkleReply,                  \
      kNodeMerkleResponse)                                                     \
  RPC(NodeScrubRequest, kNodeScrubRequest, NodeScrubReply, kNodeScrubResponse) \
  RPC(NodeRepairRangeRequest, kNodeRepairRangeRequest, NodeRepairRangeReply,   \
      kNodeRepairRangeResponse)                                                \
  STREAM(ThresholdChunk, kThresholdChunk)                                      \
  STREAM(FofChunk, kFofChunk)

/// A message's row: its tag and, for a request, `Reply`.
template <class Msg>
struct Wire;

#define TURBDB_NET_WIRE_RPC(Request, RequestType, ReplyMsg, ReplyType) \
  template <>                                                          \
  struct Wire<Request> {                                               \
    static constexpr MsgType kType = MsgType::RequestType;             \
    using Reply = ReplyMsg;                                            \
  };                                                                   \
  template <>                                                          \
  struct Wire<ReplyMsg> {                                              \
    static constexpr MsgType kType = MsgType::ReplyType;               \
  };
#define TURBDB_NET_WIRE_STREAM(Msg, Type)               \
  template <>                                           \
  struct Wire<Msg> {                                    \
    static constexpr MsgType kType = MsgType::Type;     \
  };
TURBDB_NET_WIRE_TABLE(TURBDB_NET_WIRE_RPC, TURBDB_NET_WIRE_STREAM)
#undef TURBDB_NET_WIRE_RPC
#undef TURBDB_NET_WIRE_STREAM

/// A struct with a row in the wire table.
template <class Msg>
concept WireMessage = requires { Wire<Msg>::kType; };

/// The reply a server answers request type `Req` with.
template <class Req>
using ReplyOf = typename Wire<Req>::Reply;

// -- Codec ---------------------------------------------------------------

/// The payload of `message`: its tag, then its Fields().
template <WireMessage Msg>
std::vector<uint8_t> Encode(const Msg& message);

/// Decodes a payload of type `Msg`. An error frame decodes into the
/// Status the server sent; any other type, a malformed body or trailing
/// bytes are Corruption. A request's deadline budget rides in the frame
/// header, so `rpc.deadline_ms` decodes as 0. Wall-clock and per-node
/// stats are not carried over the wire: `wall_seconds` is 0 and
/// `node_stats` empty in decoded results.
template <WireMessage Msg>
Result<Msg> Decode(const std::vector<uint8_t>& payload);

/// Encodes a failed request. `status` must be non-OK.
std::vector<uint8_t> EncodeErrorResponse(const Status& status);

/// Reads just the leading type varint of a response payload so a
/// stream consumer can route a frame (chunk vs terminator) without
/// decoding the body twice. Does not validate the value beyond varint
/// well-formedness.
Result<MsgType> PeekResponseType(const std::vector<uint8_t>& payload);

/// The shared prefix of every request payload: its type and RpcOptions
/// (whose deadline budget rides in the frame header instead).
struct RequestHeader {
  MsgType type;
  RpcOptions rpc;
};

/// Reads just the request header, leaving the body untouched — the
/// server uses it to route the payload and register the query id for
/// cancellation without decoding the (possibly large) body twice.
Result<RequestHeader> PeekRequestHeader(const std::vector<uint8_t>& payload);

// -- Forwards kept for the benchmark harness -----------------------------
//
// perfbench/ times the reply codecs through these names; the next change
// to the benchmark moves it onto Encode/Decode and deletes this block.

inline std::vector<uint8_t> EncodeResponse(const ThresholdResult& result) {
  return Encode(result);
}
inline std::vector<uint8_t> EncodeResponse(const PdfResult& result) {
  return Encode(result);
}
inline std::vector<uint8_t> EncodeResponse(const TopKResult& result) {
  return Encode(result);
}
inline std::vector<uint8_t> EncodeResponse(const FieldStatsResult& result) {
  return Encode(result);
}
inline std::vector<uint8_t> EncodeThresholdChunk(const ThresholdChunk& chunk) {
  return Encode(chunk);
}
inline std::vector<uint8_t> EncodeFofChunk(const FofChunk& chunk) {
  return Encode(chunk);
}
inline std::vector<uint8_t> EncodeFofResponse(
    const DistributedFofSummary& summary) {
  return Encode(summary);
}
inline Result<ThresholdResult> DecodeThresholdResponse(
    const std::vector<uint8_t>& payload) {
  return Decode<ThresholdResult>(payload);
}
inline Result<PdfResult> DecodePdfResponse(
    const std::vector<uint8_t>& payload) {
  return Decode<PdfResult>(payload);
}
inline Result<TopKResult> DecodeTopKResponse(
    const std::vector<uint8_t>& payload) {
  return Decode<TopKResult>(payload);
}
inline Result<FieldStatsResult> DecodeFieldStatsResponse(
    const std::vector<uint8_t>& payload) {
  return Decode<FieldStatsResult>(payload);
}
inline Result<ThresholdChunk> DecodeThresholdChunk(
    const std::vector<uint8_t>& payload) {
  return Decode<ThresholdChunk>(payload);
}
inline Result<FofChunk> DecodeFofChunk(const std::vector<uint8_t>& payload) {
  return Decode<FofChunk>(payload);
}
inline Result<DistributedFofSummary> DecodeFofResponse(
    const std::vector<uint8_t>& payload) {
  return Decode<DistributedFofSummary>(payload);
}

}  // namespace net
}  // namespace turbdb
