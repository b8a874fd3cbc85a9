// Golden frames and a seeded mutation fuzzer for every message type of
// the wire protocol (net/protocol.h).
//
// The golden table holds one payload per message type with every field
// set to a distinct non-default value. Its hex was captured once from the
// encoder and is edited only with the protocol version that changes the
// message: a codec change that moves a byte, drops a field or swaps two
// fields fails here, not in a multi-process test. The
// fuzzer mutates each golden payload and feeds the mutants to the type's
// decoder and to the shared peeks: no call may crash, and whatever
// decodes must re-encode to a payload that decodes again. Every message
// goes through the one typed codec, net::Encode and net::Decode<Msg>.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"

namespace turbdb {
namespace {

using Bytes = std::vector<uint8_t>;

/// Decodes a payload with its type's decoder and encodes the result again.
using RoundTrip = std::function<Result<Bytes>(const Bytes&)>;

std::string Hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

Bytes FromHex(const std::string& hex) {
  Bytes out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// -- Decode-then-encode round trips ------------------------------------

template <class Msg>
RoundTrip Via() {
  return [](const Bytes& payload) -> Result<Bytes> {
    TURBDB_ASSIGN_OR_RETURN(Msg message, net::Decode<Msg>(payload));
    return net::Encode(message);
  };
}

/// An error frame decodes, through any response decoder, to the status
/// it carries.
RoundTrip ViaErrorStatus() {
  return [](const Bytes& payload) -> Result<Bytes> {
    TURBDB_ASSIGN_OR_RETURN(const net::MsgType type,
                            net::PeekResponseType(payload));
    if (type != net::MsgType::kErrorResponse) {
      return Status::Corruption("not an error frame");
    }
    return net::EncodeErrorResponse(
        net::Decode<net::Ack<net::PingRequest>>(payload).status());
  };
}

// -- Golden field values -------------------------------------------------

net::RpcOptions GoldenRpc() {
  net::RpcOptions rpc;
  rpc.query_id = 0xFEEDFACECAFEBEEFull;
  rpc.tenant = "tenant-7";
  rpc.generation = 300;
  return rpc;
}

template <class Q>
Q GoldenQuery() {
  Q query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = -3;
  query.box = Box3(-1, 2, -4, 5, -6, 7);
  query.fd_order = -8;
  return query;
}

QueryOptions GoldenOptions() {
  QueryOptions options;
  options.use_cache = false;
  options.io_only = true;
  options.processes_per_node = -9;
  options.max_result_points = 123456;
  return options;
}

std::vector<ThresholdPoint> GoldenPoints() {
  return {
      ThresholdPoint{0, 0.0f},
      ThresholdPoint{1, 1.5f},
      ThresholdPoint{127, 123.456f},
      ThresholdPoint{128, 1e-5f},
      ThresholdPoint{1ULL << 40, -2.0f},
  };
}

TimeBreakdown GoldenTime() {
  TimeBreakdown time;
  time.cache_lookup_s = 0.125;
  time.io_s = 1.0 / 3.0;
  time.compute_s = 2.5e-7;
  time.mediator_db_comm_s = 42.0;
  time.mediator_user_comm_s = 1e-300;
  return time;
}

IoCounters GoldenIo() {
  IoCounters io;
  io.atoms_read_local = 1;
  io.atoms_read_remote = 2;
  io.bytes_read_local = 3000;
  io.bytes_read_remote = 4;
  io.cache_records_scanned = 5;
  io.cache_bytes_scanned = 6;
  io.points_evaluated = 262144;
  io.points_returned = 7;
  return io;
}

std::vector<std::pair<uint32_t, std::array<double, 3>>> GoldenTargets() {
  return {{7u, {1.0, -2.0, 0.5}}, {9u, {-0.25, 3.0, 4.75}}};
}

std::vector<Atom> GoldenAtoms() {
  Atom a(AtomKey{-1, 5}, /*w=*/1, /*nc=*/2);
  a.data = {1.5f, -2.25f};
  Atom b(AtomKey{-2, 1ULL << 33}, /*w=*/2, /*nc=*/1);
  b.data = {0.5f, 1.0f, 2.0f, 4.0f, -8.0f, 16.0f, 32.0f, 1e-3f};
  return {a, b};
}

/// Wall-bounded in y with explicit stretched coordinates.
GridGeometry GoldenGeometry() {
  return GridGeometry::FromParts({4, 2, 6}, {6.5, 2.0, 3.25},
                                 {true, false, true}, /*atom_width=*/2,
                                 {-1.0, 0.75});
}

DatasetInfo GoldenInfo() {
  DatasetInfo info;
  info.name = "channel";
  info.geometry = GoldenGeometry();
  info.raw_fields = {{"velocity", 3}, {"pressure", -1}};
  info.num_timesteps = -5;
  return info;
}

NodeRecord GoldenRecord(int i, NodeRole role) {
  NodeRecord record;
  record.node_id = -10 - i;
  record.uuid = "uuid-" + std::to_string(i);
  record.host = "10.0.0." + std::to_string(i);
  record.port = static_cast<uint16_t>(7001 + i);
  record.shard = -20 - i;
  record.role = role;
  record.joined_generation = 50 + static_cast<uint64_t>(i);
  return record;
}

/// Holds a record of every NodeRole.
MembershipView GoldenView() {
  MembershipView view;
  view.generation = 42;
  view.replication = -2;
  view.base_shards = -3;
  view.nodes = {GoldenRecord(0, NodeRole::kShard),
                GoldenRecord(1, NodeRole::kJoining),
                GoldenRecord(2, NodeRole::kDraining)};
  view.overrides = {RangeOverride{100, 200, -1}, RangeOverride{300, 400, -2}};
  return view;
}

// -- Golden requests -----------------------------------------------------

net::ThresholdRequest GoldenThresholdRequest() {
  net::ThresholdRequest request;
  request.query = GoldenQuery<ThresholdQuery>();
  request.query.threshold = 42.5;
  request.options = GoldenOptions();
  request.rpc = GoldenRpc();
  request.stream = true;
  return request;
}

net::PdfRequest GoldenPdfRequest() {
  net::PdfRequest request;
  request.query = GoldenQuery<PdfQuery>();
  request.query.bin_width = 1.5;
  request.query.num_bins = -12;
  request.rpc = GoldenRpc();
  return request;
}

net::TopKRequest GoldenTopKRequest() {
  net::TopKRequest request;
  request.query = GoldenQuery<TopKQuery>();
  request.query.k = 99;
  request.rpc = GoldenRpc();
  return request;
}

net::FieldStatsRequest GoldenFieldStatsRequest() {
  net::FieldStatsRequest request;
  request.query = GoldenQuery<FieldStatsQuery>();
  request.rpc = GoldenRpc();
  return request;
}

net::PingRequest GoldenPingRequest() {
  net::PingRequest request;
  request.delay_ms = 250;
  request.rpc = GoldenRpc();
  return request;
}

template <class R>
R GoldenCacheKeyRequest(const std::string& derived_field, int32_t timestep) {
  R request;
  request.dataset = "mhd";
  request.raw_field = "velocity";
  request.derived_field = derived_field;
  request.timestep = timestep;
  request.rpc = GoldenRpc();
  return request;
}

net::CacheWarmRequest GoldenCacheWarmRequest() {
  net::CacheWarmRequest request;
  request.query = GoldenQuery<ThresholdQuery>();
  request.query.threshold = 3.25;
  request.rpc = GoldenRpc();
  return request;
}

net::FofRequest GoldenFofRequest() {
  net::FofRequest request;
  request.query = GoldenQuery<ThresholdQuery>();
  request.query.threshold = 2.75;
  request.options = GoldenOptions();
  request.linking_length = 1.75;
  request.min_cluster_size = 11;
  request.include_members = true;
  request.rpc = GoldenRpc();
  return request;
}

template <class R>
R GoldenRpcOnly() {
  R request;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeCreateDatasetRequest GoldenNodeCreateDatasetRequest() {
  net::NodeCreateDatasetRequest request;
  request.info = GoldenInfo();
  request.num_nodes = -13;
  request.node_id = -14;
  request.strategy = -15;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeIngestRequest GoldenNodeIngestRequest() {
  net::NodeIngestRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  request.atoms = GoldenAtoms();
  request.skip_existing = true;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeExecuteRequest GoldenNodeExecuteRequest() {
  net::NodeExecuteRequest request;
  net::NodeQuerySpec& spec = request.spec;
  spec.mode = -1;
  spec.dataset = "mhd";
  spec.raw_field = "velocity";
  spec.derived_field = "vorticity";
  spec.timestep = -3;
  spec.box = Box3(-1, 2, -4, 5, -6, 7);
  spec.fd_order = -8;
  spec.threshold = 4.5;
  spec.bin_width = 0.625;
  spec.num_bins = -17;
  spec.k = 33;
  spec.processes = -18;
  spec.options = GoldenOptions();
  spec.sample_support = -19;
  spec.targets = GoldenTargets();
  spec.flops_per_process = 2.5e8;
  spec.effective_cores = 6.5;
  request.rpc = GoldenRpc();
  request.stream = true;
  request.overrides = GoldenView().overrides;
  request.joined = GoldenView().nodes;
  return request;
}

net::NodeFetchAtomsRequest GoldenNodeFetchAtomsRequest() {
  net::NodeFetchAtomsRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  request.timestep = -3;
  request.concurrent = -4;
  request.codes = {5, 130, 1ULL << 40};
  request.rpc = GoldenRpc();
  return request;
}

net::NodeDropCacheRequest GoldenNodeDropCacheRequest() {
  net::NodeDropCacheRequest request;
  request.dataset = "mhd";
  request.field = "velocity:vorticity";
  request.timestep = -21;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeStatsRequest GoldenNodeStatsRequest() {
  net::NodeStatsRequest request;
  request.dataset = "mhd";
  request.field = "magnetic";
  request.rpc = GoldenRpc();
  return request;
}

net::NodeSyncRangeRequest GoldenNodeSyncRangeRequest() {
  net::NodeSyncRangeRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  request.timestep = -22;
  request.begin_code = 512;
  request.end_code = 4096;
  request.max_atoms = 64;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeMerkleRequest GoldenNodeMerkleRequest() {
  net::NodeMerkleRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  request.leaf_shift = 12;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeScrubRequest GoldenNodeScrubRequest() {
  net::NodeScrubRequest request;
  request.trigger = false;
  request.rpc = GoldenRpc();
  return request;
}

net::NodeRepairRangeRequest GoldenNodeRepairRangeRequest() {
  net::NodeRepairRangeRequest request;
  request.dataset = "mhd";
  request.field = "velocity";
  request.timestep = -23;
  request.begin_code = 1024;
  request.end_code = 2048;
  request.rpc = GoldenRpc();
  return request;
}

net::JoinRequest GoldenJoinRequest() {
  net::JoinRequest request;
  request.uuid = "joiner-1";
  request.host = "10.0.0.9";
  request.port = 7070;
  request.activate = true;
  request.rpc = GoldenRpc();
  return request;
}

net::LeaveRequest GoldenLeaveRequest() {
  net::LeaveRequest request;
  request.node_id = -24;
  request.rpc = GoldenRpc();
  return request;
}

net::CutoverRequest GoldenCutoverRequest() {
  net::CutoverRequest request;
  request.begin = 4096;
  request.end = 8192;
  request.from_shard = -25;
  request.to_shard = -26;
  request.generation = GoldenView().generation;
  request.rpc = GoldenRpc();
  return request;
}

net::RebalanceRequest GoldenRebalanceRequest() {
  net::RebalanceRequest request;
  request.to_shard = -27;
  request.max_ranges = 4;
  request.rpc = GoldenRpc();
  return request;
}

// -- Golden responses ----------------------------------------------------

ThresholdResult GoldenThresholdResult() {
  ThresholdResult result;
  result.points = GoldenPoints();
  result.all_cache_hits = true;
  result.result_bytes_binary = 57;
  result.result_bytes_xml = 1234567;
  result.time = GoldenTime();
  return result;
}

PdfResult GoldenPdfResult() {
  PdfResult result;
  result.counts = {5, 300};
  result.bin_width = 2.5;
  result.total_points = 309;
  result.time = GoldenTime();
  return result;
}

TopKResult GoldenTopKResult() {
  // Norm-sorted, so the z-index deltas wrap mod 2^64.
  TopKResult result;
  result.points = {ThresholdPoint{5000, 9.0f}, ThresholdPoint{12, 8.0f}};
  result.time = GoldenTime();
  return result;
}

FieldStatsResult GoldenFieldStatsResult() {
  FieldStatsResult result;
  result.count = 262144;
  result.mean = -1.5;
  result.rms = 2.25;
  result.max = 30.5;
  result.time = GoldenTime();
  return result;
}

net::ServerStatsReply GoldenServerStatsReply() {
  net::ServerStatsReply reply;
  reply.requests_ok = 101;
  reply.requests_error = 102;
  reply.bytes_in = 103;
  reply.bytes_out = 104;
  reply.connections_accepted = 105;
  reply.active_connections = 106;
  reply.p50_latency_ms = 1.25;
  reply.p99_latency_ms = 77.5;
  reply.queries_in_flight = 107;
  reply.queries_admitted = 108;
  reply.queries_shed = 109;
  reply.result_bytes_in_use = 110;
  reply.result_bytes_peak = 111;
  reply.cache_hits = 112;
  reply.cache_misses = 113;
  reply.cache_subsumption_hits = 114;
  reply.cache_evictions = 115;
  reply.cache_entries = 116;
  reply.cache_bytes = 117;
  reply.cache_pinned_bytes = 118;
  reply.tenants = {{"alpha", 119, 120, 121, 122, 123},
                   {"beta", 124, 125, 126, 127, 128}};
  reply.membership_generation = 129;
  reply.corruption_failovers = 130;
  reply.read_repairs = 131;
  return reply;
}

net::HelloReply GoldenHelloReply() {
  net::HelloReply reply;
  reply.protocol_version = 7;
  reply.server_id = -3;
  reply.epoch = 12;
  return reply;
}

net::ThresholdChunk GoldenThresholdChunk() {
  net::ThresholdChunk chunk;
  chunk.seq = 300;
  chunk.points = GoldenPoints();
  chunk.total_points = 70000;
  return chunk;
}

net::CacheStatsReply GoldenCacheStatsReply() {
  net::CacheStatsReply cache;
  cache.enabled = true;
  MediatorCacheStats& reply = cache.stats;
  reply.capacity_bytes = 1ULL << 30;
  reply.entries = 201;
  reply.bytes = 202;
  reply.hits = 203;
  reply.misses = 204;
  reply.subsumption_hits = 205;
  reply.insertions = 206;
  reply.evictions = 207;
  reply.invalidations = 208;
  reply.stale_inserts = 209;
  reply.pinned_entries = 210;
  reply.pinned_bytes = 211;
  return cache;
}

DistributedFofSummary GoldenFofReply() {
  DistributedFofSummary reply;
  reply.clusters = 2;
  reply.points = 4;
  reply.largest_cluster = 3;
  reply.time = GoldenTime();
  return reply;
}

net::FofChunk GoldenFofChunk() {
  net::FofClusterRecord with_members;
  with_members.id = 1;
  with_members.size = 3;
  with_members.bbox_lo = {10, 11, 12};
  with_members.bbox_hi = {13, 14, 15};
  with_members.centroid = {0.5, -0.25, 1.0};
  with_members.max_norm = 123.456f;
  with_members.peak_zindex = 127;
  with_members.members = {ThresholdPoint{1, 1.5f},
                          ThresholdPoint{127, 123.456f},
                          ThresholdPoint{128, 1e-5f}};
  net::FofClusterRecord summary_only;
  summary_only.id = 16384;
  summary_only.size = 1;
  summary_only.bbox_lo = {20, 21, 22};
  summary_only.bbox_hi = {23, 24, 25};
  summary_only.centroid = {2.0, 4.0, -32.0};
  summary_only.max_norm = 7.25e8f;
  summary_only.peak_zindex = 16385;
  net::FofChunk chunk;
  chunk.seq = 9;
  chunk.clusters = {with_members, summary_only};
  chunk.total_clusters = 17;
  return chunk;
}

NodeOutcome GoldenNodeOutcome() {
  NodeOutcome result;
  result.points = GoldenPoints();
  result.histogram = {0, 200, 70000};
  result.norm_sum = 12.5;
  result.norm_sum_sq = 99.75;
  result.norm_max = -7.0;
  result.samples = GoldenTargets();
  result.cache_hit = true;
  result.time = GoldenTime();
  result.io = GoldenIo();
  return result;
}

net::NodeFetchAtomsReply GoldenNodeFetchAtomsReply() {
  net::NodeFetchAtomsReply reply;
  reply.atoms = GoldenAtoms();
  reply.cost_s = 0.015625;
  reply.bytes_out = 2048;
  return reply;
}

net::NodeStatsReply GoldenNodeStatsReply() {
  net::NodeStatsReply reply;
  reply.node_id = -2;
  reply.stored_atoms = 301;
  reply.epoch = 302;
  reply.wal_pending_records = 303;
  reply.wal_pending_bytes = 304;
  reply.generation = 305;
  reply.scrub_passes = 306;
  reply.scrub_atoms_verified = 307;
  reply.scrub_atoms_corrupt = 308;
  reply.scrub_atoms_repaired = 309;
  reply.atoms_quarantined = 310;
  return reply;
}

net::NodeSyncRangeReply GoldenNodeSyncRangeReply() {
  net::NodeSyncRangeReply reply;
  reply.atoms = GoldenAtoms();
  reply.next_code = 777;
  reply.done = true;
  return reply;
}

net::NodeListStoresReply GoldenNodeListStoresReply() {
  net::NodeListStoresReply reply;
  reply.stores = {{"mhd", "velocity", 401}, {"iso", "pressure", 402}};
  return reply;
}

net::JoinReply GoldenJoinReply() {
  net::JoinReply reply;
  reply.record = GoldenRecord(3, NodeRole::kJoining);
  reply.view = GoldenView();
  net::WireDatasetRegistration first;
  first.info = GoldenInfo();
  first.num_nodes = -30;
  first.strategy = -31;
  net::WireDatasetRegistration second;
  second.info = GoldenInfo();
  second.info.name = "mhd";
  second.num_nodes = -32;
  second.strategy = -33;
  reply.registrations = {first, second};
  return reply;
}

net::LeaveReply GoldenLeaveReply() {
  net::LeaveReply reply;
  reply.view = GoldenView();
  reply.ranges_moved = 3;
  reply.atoms_copied = 96;
  return reply;
}

net::RebalanceReply GoldenRebalanceReply() {
  net::RebalanceReply reply;
  reply.generation = 9;
  reply.moved = {RangeOverride{500, 600, -4}, RangeOverride{700, 800, -5}};
  reply.atoms_copied = 128;
  return reply;
}

net::NodeMerkleReply GoldenNodeMerkleReply() {
  net::NodeMerkleReply reply;
  reply.node_id = -3;
  reply.tree.leaf_shift = 12;
  reply.tree.root = 0xABCDEF;
  reply.tree.leaves = {MerkleLeaf{-6, 501, 502, 503},
                       MerkleLeaf{-7, 504, 505, 506}};
  return reply;
}

net::NodeScrubReply GoldenNodeScrubReply() {
  net::NodeScrubReply reply;
  reply.node_id = -4;
  reply.passes = 601;
  reply.atoms_verified = 602;
  reply.atoms_corrupt = 603;
  reply.atoms_repaired = 604;
  reply.last_pass_unix_ms = 1700000000000;
  reply.stores = {
      {"mhd", "velocity", 605, 606, 607, 608, 609, 610, 611},
      {"iso", "pressure", 612, 613, 614, 615, 616, 617, 618}};
  return reply;
}

net::NodeRepairRangeReply GoldenNodeRepairRangeReply() {
  net::NodeRepairRangeReply reply;
  reply.node_id = -5;
  reply.ranges_diverged = 701;
  reply.atoms_examined = 702;
  reply.atoms_repaired = 703;
  reply.root = 704;
  return reply;
}

// -- The golden table ----------------------------------------------------

struct GoldenFrame {
  template <class Msg>
  GoldenFrame(std::string name, const Msg& message, std::string hex)
      : GoldenFrame(std::move(name), net::Encode(message), Via<Msg>(),
                    std::move(hex)) {}
  GoldenFrame(std::string name, Bytes payload, RoundTrip round_trip,
              std::string hex)
      : name(std::move(name)),
        payload(std::move(payload)),
        round_trip(std::move(round_trip)),
        hex(std::move(hex)) {}

  std::string name;
  Bytes payload;         ///< What the encoder emits for the golden message.
  RoundTrip round_trip;  ///< The type's decoder, then its encoder.
  std::string hex;       ///< Captured from the encoder; never edited.
};

std::vector<GoldenFrame> GoldenFrames() {
  return {
      // Requests.
      {"ThresholdRequest", GoldenThresholdRequest(),
       "01effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747909766f72746963697479050104070a0b0e0f0000000000404540000111"
       "c0c40701"},
      {"PdfRequest", GoldenPdfRequest(),
       "02effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747909766f72746963697479050104070a0b0e0f000000000000f83f17"},
      {"TopKRequest", GoldenTopKRequest(),
       "03effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747909766f72746963697479050104070a0b0e0f63"},
      {"FieldStatsRequest", GoldenFieldStatsRequest(),
       "04effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747909766f72746963697479050104070a0b0e0f"},
      {"ServerStatsRequest", GoldenRpcOnly<net::ServerStatsRequest>(),
       "05effdfad7ecd9fef6fe010874656e616e742d37ac02"},
      {"PingRequest", GoldenPingRequest(),
       "06effdfad7ecd9fef6fe010874656e616e742d37ac02fa01"},
      {"HelloRequest", GoldenRpcOnly<net::HelloRequest>(),
       "07effdfad7ecd9fef6fe010874656e616e742d37ac02"},
      {"CancelRequest", GoldenRpcOnly<net::CancelRequest>(),
       "08effdfad7ecd9fef6fe010874656e616e742d37ac02"},
      {"DropCacheRequest",
       GoldenCacheKeyRequest<net::DropCacheRequest>("current", -2),
       "0aeffdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "6974790763757272656e7403"},
      {"CacheStatsRequest", GoldenRpcOnly<net::CacheStatsRequest>(),
       "0beffdfad7ecd9fef6fe010874656e616e742d37ac02"},
      {"CacheWarmRequest", GoldenCacheWarmRequest(),
       "0ceffdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747909766f72746963697479050104070a0b0e0f0000000000000a40"},
      {"CachePinRequest",
       GoldenCacheKeyRequest<net::CachePinRequest>("q_criterion", -5),
       "0deffdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "6974790b715f637269746572696f6e09"},
      {"CacheUnpinRequest",
       GoldenCacheKeyRequest<net::CacheUnpinRequest>("magnitude", -6),
       "0eeffdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "697479096d61676e69747564650b"},
      {"FofRequest", GoldenFofRequest(),
       "0feffdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747909766f72746963697479050104070a0b0e0f0000000000000640000111"
       "c0c407000000000000fc3f0b01"},
      {"NodeCreateDatasetRequest", GoldenNodeCreateDatasetRequest(),
       "10effdfad7ecd9fef6fe010874656e616e742d37ac02076368616e6e656c0804"
       "0c0000000000001a4000000000000000400000000000000a4001000104020000"
       "00000000f0bf000000000000e83f020876656c6f636974790608707265737375"
       "72650109191b1d"},
      {"NodeIngestRequest", GoldenNodeIngestRequest(),
       "11effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "69747902010502040000c03f000010c003808080802004020000003f0000803f"
       "0000004000008040000000c100008041000000426f12833a01"},
      {"NodeExecuteRequest", GoldenNodeExecuteRequest(),
       "12effdfad7ecd9fef6fe010874656e616e742d37ac0201036d68640876656c6f"
       "6369747909766f72746963697479050104070a0b0e0f00000000000012400000"
       "00000000e43f212123000111c0c407250207000000000000f03f000000000000"
       "00c0000000000000e03f09000000000000d0bf00000000000008400000000000"
       "0013400000000065cdad410000000000001a40010264c80101ac029003030313"
       "06757569642d300831302e302e302e30d9362700321506757569642d31083130"
       "2e302e302e31da362902331706757569642d320831302e302e302e32db362b04"
       "34"},
      {"NodeFetchAtomsRequest", GoldenNodeFetchAtomsRequest(),
       "13effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "697479050703057dfefeffffff1f"},
      {"NodeDropCacheRequest", GoldenNodeDropCacheRequest(),
       "14effdfad7ecd9fef6fe010874656e616e742d37ac02036d68641276656c6f63"
       "6974793a766f7274696369747929"},
      {"NodeStatsRequest", GoldenNodeStatsRequest(),
       "15effdfad7ecd9fef6fe010874656e616e742d37ac02036d6864086d61676e65"
       "746963"},
      {"NodeSyncRangeRequest", GoldenNodeSyncRangeRequest(),
       "16effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "6974792b8004802040"},
      {"NodeListStoresRequest", GoldenRpcOnly<net::NodeListStoresRequest>(),
       "17effdfad7ecd9fef6fe010874656e616e742d37ac02"},
      {"JoinRequest", GoldenJoinRequest(),
       "19effdfad7ecd9fef6fe010874656e616e742d37ac02086a6f696e65722d3108"
       "31302e302e302e399e3701"},
      {"LeaveRequest", GoldenLeaveRequest(),
       "1aeffdfad7ecd9fef6fe010874656e616e742d37ac022f"},
      {"MembershipGetRequest", GoldenRpcOnly<net::MembershipGetRequest>(),
       "1beffdfad7ecd9fef6fe010874656e616e742d37ac02"},
      {"CutoverRequest", GoldenCutoverRequest(),
       "1eeffdfad7ecd9fef6fe010874656e616e742d37ac028020804031332a"},
      {"RebalanceRequest", GoldenRebalanceRequest(),
       "1feffdfad7ecd9fef6fe010874656e616e742d37ac023504"},
      {"NodeMerkleRequest", GoldenNodeMerkleRequest(),
       "20effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "6974790c"},
      {"NodeScrubRequest", GoldenNodeScrubRequest(),
       "21effdfad7ecd9fef6fe010874656e616e742d37ac0200"},
      {"NodeRepairRangeRequest", GoldenNodeRepairRangeRequest(),
       "22effdfad7ecd9fef6fe010874656e616e742d37ac02036d68640876656c6f63"
       "6974792d80088010"},

      // Responses.
      {"ThresholdResponse", GoldenThresholdResult(),
       "4124d3a8c1a205050000000000010000c03f7e79e9f64201acc5273780ffffff"
       "ff1f000000c0013987ad4b000000000000c03f555555555555d53f8dedb5a0f7"
       "c6903e000000000000454059f3f8c21f6ea501"},
      {"PdfResponse", GoldenPdfResult(),
       "420205ac020000000000000440b502000000000000c03f555555555555d53f8d"
       "edb5a0f7c6903e000000000000454059f3f8c21f6ea501"},
      {"TopKResponse", GoldenTopKResult(),
       "431ad3a8c1a2050288270000104184d9ffffffffffffff010000004100000000"
       "0000c03f555555555555d53f8dedb5a0f7c6903e000000000000454059f3f8c2"
       "1f6ea501"},
      {"FieldStatsResponse", GoldenFieldStatsResult(),
       "44808010000000000000f8bf00000000000002400000000000803e4000000000"
       "0000c03f555555555555d53f8dedb5a0f7c6903e000000000000454059f3f8c2"
       "1f6ea501"},
      {"ServerStatsResponse", GoldenServerStatsReply(),
       "4565666768696a000000000000f43f00000000006053406b6c6d6e6f70717273"
       "7475760205616c7068617778797a7b04626574617c7d7e7f8001810182018301"},
      {"PingResponse", net::Ack<net::PingRequest>{},
       "46"},
      {"HelloResponse", GoldenHelloReply(),
       "4707050c"},
      {"CancelResponse", net::CancelReply{true},
       "4801"},
      {"ThresholdChunk", GoldenThresholdChunk(),
       "49ac0224d3a8c1a205050000000000010000c03f7e79e9f64201acc5273780ff"
       "ffffff1f000000c0f0a204"},
      {"DropCacheResponse", net::DropCacheReply{17, true},
       "4a1101"},
      {"CacheStatsResponse", GoldenCacheStatsReply(),
       "4b018080808004c901ca01cb01cc01cd01ce01cf01d001d101d201d301"},
      {"CacheWarmResponse", net::CacheWarmReply{4242, true},
       "4c922101"},
      {"CachePinResponse", net::CachePinReply{3},
       "4d03"},
      {"CacheUnpinResponse", net::CacheUnpinReply{5},
       "4e05"},
      {"FofResponse", GoldenFofReply(),
       "4f020403000000000000c03f555555555555d53f8dedb5a0f7c6903e00000000"
       "0000454059f3f8c21f6ea501"},
      {"FofChunk", GoldenFofChunk(),
       "58090201030a0b0c0d0e0f000000000000e03f000000000000d0bf0000000000"
       "00f03f79e9f6427f15d3a8c1a20503010000c03f7e79e9f64201acc527378080"
       "01011415161718190000000000000040000000000000104000000000000040c0"
       "7dda2c4e81800106d3a8c1a2050011"},
      {"NodeCreateDatasetResponse", net::Ack<net::NodeCreateDatasetRequest>{},
       "50"},
      {"NodeIngestResponse", net::Ack<net::NodeIngestRequest>{},
       "51"},
      {"NodeExecuteResponse", GoldenNodeOutcome(),
       "5224d3a8c1a205050000000000010000c03f7e79e9f64201acc5273780ffffff"
       "ff1f000000c00300c801f0a20400000000000029400000000000f05840000000"
       "0000001cc00207000000000000f03f00000000000000c0000000000000e03f09"
       "000000000000d0bf0000000000000840000000000000134001000000000000c0"
       "3f555555555555d53f8dedb5a0f7c6903e000000000000454059f3f8c21f6ea5"
       "010102b81704050680801007"},
      {"NodeFetchAtomsResponse", GoldenNodeFetchAtomsReply(),
       "5302010502040000c03f000010c003808080802004020000003f0000803f0000"
       "004000008040000000c100008041000000426f12833a000000000000903f8010"},
      {"NodeDropCacheResponse", net::Ack<net::NodeDropCacheRequest>{},
       "54"},
      {"NodeStatsResponse", GoldenNodeStatsReply(),
       "5503ad02ae02af02b002b102b202b302b402b502b602"},
      {"NodeSyncRangeResponse", GoldenNodeSyncRangeReply(),
       "5602010502040000c03f000010c003808080802004020000003f0000803f0000"
       "004000008040000000c100008041000000426f12833a890601"},
      {"NodeListStoresResponse", GoldenNodeListStoresReply(),
       "5702036d68640876656c6f6369747991030369736f0870726573737572659203"},
      {"JoinResponse", GoldenJoinReply(),
       "591906757569642d330831302e302e302e33dc362d02352a0305031306757569"
       "642d300831302e302e302e30d9362700321506757569642d310831302e302e30"
       "2e31da362902331706757569642d320831302e302e302e32db362b04340264c8"
       "0101ac0290030302076368616e6e656c08040c0000000000001a400000000000"
       "0000400000000000000a400100010402000000000000f0bf000000000000e83f"
       "020876656c6f636974790608707265737375726501093b3d036d686408040c00"
       "00000000001a4000000000000000400000000000000a40010001040200000000"
       "0000f0bf000000000000e83f020876656c6f6369747906087072657373757265"
       "01093f41"},
      {"LeaveResponse", GoldenLeaveReply(),
       "5a2a0305031306757569642d300831302e302e302e30d9362700321506757569"
       "642d310831302e302e302e31da362902331706757569642d320831302e302e30"
       "2e32db362b04340264c80101ac029003030360"},
      {"MembershipGetResponse", net::MembershipGetReply{GoldenView()},
       "5b2a0305031306757569642d300831302e302e302e30d9362700321506757569"
       "642d310831302e302e302e31da362902331706757569642d320831302e302e30"
       "2e32db362b04340264c80101ac02900303"},
      {"CutoverResponse", net::Ack<net::CutoverRequest>{},
       "5e"},
      {"RebalanceResponse", GoldenRebalanceReply(),
       "5f0902f403d80407bc05a006098001"},
      {"NodeMerkleResponse", GoldenNodeMerkleReply(),
       "60050cef9baf05020bf503f603f7030df803f903fa03"},
      {"NodeScrubResponse", GoldenNodeScrubReply(),
       "6107d904da04db04dc0480d095ffbc3102036d68640876656c6f63697479dd04"
       "de04df04e004e104e204e3040369736f087072657373757265e404e504e604e7"
       "04e804e904ea04"},
      {"NodeRepairRangeResponse", GoldenNodeRepairRangeReply(),
       "6209bd05be05bf05c005"},

      // The error frame.
      {"ErrorResponse",
       net::EncodeErrorResponse(Status(StatusCode::kWrongOwner,
                                       "ownership of 'mhd' changed")),
       ViaErrorStatus(),
       "7f121a6f776e657273686970206f6620276d686427206368616e676564"},
  };
}

/// Every MsgType value: 30 requests, 32 responses and the error frame.
std::set<uint64_t> AllMessageTypes() {
  std::set<uint64_t> types;
  for (uint64_t t = 1; t <= 34; ++t) {
    if (t != 9 && t != 24 && t != 28 && t != 29) types.insert(t);
  }
  for (uint64_t t = 65; t <= 98; ++t) {
    if (t != 92 && t != 93) types.insert(t);
  }
  types.insert(127);
  return types;
}

TEST(ProtocolTest, EveryMessageTypeMatchesGoldenBytes) {
  std::set<uint64_t> covered;
  for (const GoldenFrame& frame : GoldenFrames()) {
    SCOPED_TRACE(frame.name);
    ASSERT_FALSE(frame.payload.empty());
    covered.insert(frame.payload[0]);
    EXPECT_EQ(Hex(frame.payload), frame.hex);
    // The captured bytes decode and encode back to themselves.
    auto again = frame.round_trip(FromHex(frame.hex));
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(Hex(*again), frame.hex);
  }
  EXPECT_EQ(covered, AllMessageTypes());
}

// -- Mutation fuzzer -----------------------------------------------------

/// One random edit of `payload`: a bit flip, a byte overwrite, a
/// truncation, an inserted or deleted byte, or an inserted maximal
/// (10-byte) varint.
Bytes Mutate(const Bytes& payload, SplitMix64* rng) {
  Bytes mutant = payload;
  const size_t size = mutant.size();
  const size_t inside = static_cast<size_t>(rng->NextBounded(size));
  const auto gap = static_cast<std::ptrdiff_t>(rng->NextBounded(size + 1));
  switch (rng->NextBounded(6)) {
    case 0:
      mutant[inside] ^= static_cast<uint8_t>(1u << rng->NextBounded(8));
      break;
    case 1:
      mutant[inside] = static_cast<uint8_t>(rng->NextBounded(256));
      break;
    case 2:
      mutant.resize(static_cast<size_t>(gap));
      break;
    case 3:
      mutant.insert(mutant.begin() + gap,
                    static_cast<uint8_t>(rng->NextBounded(256)));
      break;
    case 4:
      mutant.erase(mutant.begin() + static_cast<std::ptrdiff_t>(inside));
      break;
    default: {
      static constexpr uint8_t kMaxVarint[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                               0xff, 0xff, 0xff, 0xff, 0x01};
      mutant.insert(mutant.begin() + gap, std::begin(kMaxVarint),
                    std::end(kMaxVarint));
      break;
    }
  }
  return mutant;
}

TEST(ProtocolFuzzTest, MutatedPayloadsNeverCrashAnyDecoder) {
  constexpr int kMutationsPerPayload = 1000;
  SplitMix64 rng(2015);
  for (const GoldenFrame& frame : GoldenFrames()) {
    SCOPED_TRACE(frame.name);
    int rejected = 0;
    for (int i = 0; i < kMutationsPerPayload; ++i) {
      const Bytes mutant = Mutate(frame.payload, &rng);
      EXPECT_NO_THROW({
        (void)net::PeekRequestHeader(mutant);
        (void)net::PeekResponseType(mutant);
        auto decoded = frame.round_trip(mutant);
        if (decoded.ok()) {
          auto again = frame.round_trip(*decoded);
          EXPECT_TRUE(again.ok())
              << "mutant " << Hex(mutant) << " decoded, but its re-encoding "
              << Hex(*decoded) << " did not: " << again.status();
        } else {
          ++rejected;
        }
      });
    }
    // The decoder checks something: truncations alone fail it.
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
}  // namespace turbdb
