#include "net/protocol.h"

#include <bit>
#include <cstdint>
#include <type_traits>

#include "wire/serializer.h"

namespace turbdb {
namespace net {

namespace {

using Bytes = std::vector<uint8_t>;

// -- Archives ------------------------------------------------------------
//
// Every message's wire layout is one `template <class Ar> void
// Fields(Ar&, Msg&)` below: the Writer runs it to encode, the Reader to
// decode. Only the Reader checks; the Writer ignores the bounds and
// messages passed for it. Integers are LEB128 varints (zigzag-coded when
// signed), doubles and floats little-endian IEEE, bools one 0/1 byte,
// strings and lists count-prefixed.

/// The little-endian `Bits` at `data`, reinterpreted as a `Value`.
template <class Bits, class Value>
Value Load(const uint8_t* data) {
  Bits bits = 0;
  for (size_t i = 0; i < sizeof(Bits); ++i) {
    bits |= static_cast<Bits>(data[i]) << (8 * i);
  }
  return std::bit_cast<Value>(bits);
}

/// Appends fields to a payload. It only reads them: Fields takes its
/// message mutable so that one definition serves both archives.
class Writer {
 public:
  explicit Writer(Bytes* out) : out_(out) {}

  template <class T, class... ReaderBounds>
  void Varint(const T& value, const ReaderBounds&...) {
    PutVarint64(out_, static_cast<uint64_t>(value));
  }

  template <class T, class... ReaderBounds>
  void ZigZag(const T& value, const ReaderBounds&...) {
    const auto signed_value = static_cast<int64_t>(value);
    Varint((static_cast<uint64_t>(signed_value) << 1) ^
           static_cast<uint64_t>(signed_value >> 63));
  }

  /// A sorted code as its distance from `*previous`, which it becomes.
  void Delta(uint64_t value, uint64_t* previous) {
    Varint(value - *previous);
    *previous = value;
  }

  void Double(double value) { Put<uint64_t>(value); }
  void Float(float value) { Put<uint32_t>(value); }

  /// `values` back to back with no count: the reader derives it.
  void Floats(const std::vector<float>& values, size_t /*count*/,
              const char* /*what*/) {
    out_->reserve(out_->size() + values.size() * sizeof(float));
    for (float value : values) Float(value);
  }

  void Bool(bool value) { out_->push_back(value ? 1 : 0); }

  void String(const std::string& value) {
    Varint(value.size());
    out_->insert(out_->end(), value.begin(), value.end());
  }

  /// A length-prefixed EncodePointsBinary blob, encoded in place. Its
  /// delta coding is mod-2^64, so it round-trips any order (top-k results
  /// are norm-sorted, not z-sorted); sorted input just compresses best.
  void Points(const std::vector<ThresholdPoint>& points) {
    Varint(PointsBinarySize(points));
    AppendPointsBinary(points, out_);
  }

  /// A count, then each item's fields.
  template <class T, class ItemFields>
  void List(std::vector<T>& items, const char* /*what*/,
            ItemFields&& item_fields) {
    Varint(items.size());
    for (T& item : items) item_fields(item);
  }

  void Check(bool /*condition*/, const char* /*what*/) {}

 private:
  /// Appends `value`'s bits as a little-endian `Bits`.
  template <class Bits, class Value>
  void Put(Value value) {
    const auto bits = std::bit_cast<Bits>(value);
    for (size_t i = 0; i < sizeof(bits); ++i) {
      out_->push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }

  Bytes* out_;
};

/// Reads fields off a payload. The first failure sticks: every later read
/// is a no-op, and status() reports that failure.
class Reader {
 public:
  explicit Reader(const Bytes& bytes) : bytes_(bytes) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void Fail(Status status) {
    if (ok()) status_ = std::move(status);
  }
  void Check(bool condition, const char* what) {
    if (!condition) Fail(Status::Corruption(what));
  }

  /// The payload must end where the message does.
  Status Finish() {
    Check(pos_ == bytes_.size(), "trailing bytes in message");
    return status_;
  }

  /// Fails with `what` above `max`, before narrowing the value.
  template <class T>
  void Varint(T& value, uint64_t max = UINT64_MAX, const char* what = "") {
    const uint64_t raw = ReadVarint();
    Check(raw <= max, what);
    if (ok()) value = static_cast<T>(raw);
  }

  /// Fails with `what` outside [lo, hi], before narrowing the value.
  template <class T>
  void ZigZag(T& value, int64_t lo = INT64_MIN, int64_t hi = INT64_MAX,
              const char* what = "") {
    const int64_t raw = ReadZigZag();
    Check(raw >= lo && raw <= hi, what);
    if (ok()) value = static_cast<T>(raw);
  }

  void Delta(uint64_t& value, uint64_t* previous) {
    value = *previous + ReadVarint();
    *previous = value;
  }

  void Double(double& value) { Fixed<uint64_t>(value, "truncated double"); }
  void Float(float& value) { Fixed<uint32_t>(value, "truncated float"); }

  void Floats(std::vector<float>& values, size_t count, const char* what) {
    const uint8_t* data = Take(count * sizeof(float), what);
    if (!ok()) return;
    values.resize(count);
    for (size_t i = 0; i < count; ++i) {
      values[i] = Load<uint32_t, float>(data + i * sizeof(float));
    }
  }

  void Bool(bool& value) {
    const uint8_t* byte = Take(1, "truncated bool");
    if (!ok()) return;
    Check(*byte <= 1, "bad bool value");
    value = *byte == 1;
  }

  void String(std::string& value) {
    const uint64_t length = ReadVarint();
    const uint8_t* data = Take(length, "truncated string");
    if (ok()) value.assign(reinterpret_cast<const char*>(data), length);
  }

  /// Decoded where it lies: the blob's bounds, not the payload's, stop
  /// every read inside it.
  void Points(std::vector<ThresholdPoint>& points) {
    const uint64_t length = ReadVarint();
    const uint8_t* blob = Take(length, "truncated point blob");
    if (!ok()) return;
    auto decoded = DecodePointsBinary(blob, static_cast<size_t>(length));
    if (!decoded.ok()) return Fail(decoded.status());
    points = std::move(decoded).value();
  }

  /// A count, then each item's fields. Every item takes a byte or more:
  /// a count past the payload end is corrupt (`what`), not a reservation.
  template <class T, class ItemFields>
  void List(std::vector<T>& items, const char* what,
            ItemFields&& item_fields) {
    const uint64_t count = ReadVarint();
    Check(count <= remaining(), what);
    if (!ok()) return;
    items.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count && ok(); ++i) {
      item_fields(items.emplace_back());
    }
  }

 private:
  size_t remaining() const { return bytes_.size() - pos_; }

  /// The next `length` bytes; null, failing with `truncated`, past the end.
  const uint8_t* Take(uint64_t length, const char* truncated) {
    Check(length <= remaining(), truncated);
    if (!ok()) return nullptr;
    const uint8_t* data = bytes_.data() + pos_;
    pos_ += static_cast<size_t>(length);
    return data;
  }

  template <class Bits, class Value>
  void Fixed(Value& value, const char* truncated) {
    const uint8_t* data = Take(sizeof(Bits), truncated);
    if (ok()) value = Load<Bits, Value>(data);
  }

  uint64_t ReadVarint() {
    if (!ok()) return 0;
    auto value = GetVarint64(bytes_, &pos_);
    if (!value.ok()) Fail(value.status());
    return value.ValueOr(0);
  }

  int64_t ReadZigZag() {
    const uint64_t encoded = ReadVarint();
    return static_cast<int64_t>((encoded >> 1) ^ (~(encoded & 1) + 1));
  }

  const Bytes& bytes_;
  size_t pos_ = 0;
  Status status_;
};

/// True when T is one of Ts, so one Fields serves a shared layout.
template <class T, class... Ts>
constexpr bool kOneOf = (std::is_same_v<T, Ts> || ...);

// -- Shared blocks -------------------------------------------------------

// The request header, after the type. The deadline budget rides in the
// frame header (v3); the tenant arrived in v5, the generation in v6.
template <class Ar>
void Fields(Ar& ar, RpcOptions& rpc) {
  ar.Varint(rpc.query_id);
  ar.String(rpc.tenant);
  ar.Varint(rpc.generation);
}

template <class Ar>
void Fields(Ar& ar, TimeBreakdown& time) {
  ar.Double(time.cache_lookup_s);
  ar.Double(time.io_s);
  ar.Double(time.compute_s);
  ar.Double(time.mediator_db_comm_s);
  ar.Double(time.mediator_user_comm_s);
}

template <class Ar>
void Fields(Ar& ar, IoCounters& io) {
  ar.Varint(io.atoms_read_local);
  ar.Varint(io.atoms_read_remote);
  ar.Varint(io.bytes_read_local);
  ar.Varint(io.bytes_read_remote);
  ar.Varint(io.cache_records_scanned);
  ar.Varint(io.cache_bytes_scanned);
  ar.Varint(io.points_evaluated);
  ar.Varint(io.points_returned);
}

/// What every query starts with: the user queries and NodeQuerySpec.
template <class Ar, class Query>
void QueryCommon(Ar& ar, Query& query) {
  ar.String(query.dataset);
  ar.String(query.raw_field);
  ar.String(query.derived_field);
  ar.ZigZag(query.timestep);
  for (int64_t& lo : query.box.lo) ar.ZigZag(lo);
  for (int64_t& hi : query.box.hi) ar.ZigZag(hi);
  ar.ZigZag(query.fd_order);
}

template <class Ar>
void Fields(Ar& ar, ThresholdQuery& query) {
  QueryCommon(ar, query);
  ar.Double(query.threshold);
}

template <class Ar>
void Fields(Ar& ar, PdfQuery& query) {
  QueryCommon(ar, query);
  ar.Double(query.bin_width);
  ar.ZigZag(query.num_bins);
}

template <class Ar>
void Fields(Ar& ar, TopKQuery& query) {
  QueryCommon(ar, query);
  ar.Varint(query.k);
}

template <class Ar>
void Fields(Ar& ar, FieldStatsQuery& query) {
  QueryCommon(ar, query);
}

template <class Ar>
void Fields(Ar& ar, QueryOptions& options) {
  ar.Bool(options.use_cache);
  ar.Bool(options.io_only);
  ar.ZigZag(options.processes_per_node);
  ar.Varint(options.max_result_points);
}

/// Sample targets (and results): index, then position.
using Targets = std::vector<std::pair<uint32_t, std::array<double, 3>>>;

template <class Ar>
void Fields(Ar& ar, Targets& targets) {
  ar.List(targets, "implausible target count", [&](auto& target) {
    ar.Varint(target.first);
    for (double& x : target.second) ar.Double(x);
  });
}

template <class Ar>
void Fields(Ar& ar, Atom& atom) {
  ar.ZigZag(atom.key.timestep);
  ar.Varint(atom.key.zindex);
  ar.ZigZag(atom.width, 1, 256, "implausible atom shape");
  ar.ZigZag(atom.ncomp, 1, 64, "implausible atom shape");
  const auto width = static_cast<size_t>(atom.width);
  ar.Floats(atom.data, width * width * width * static_cast<size_t>(atom.ncomp),
            "truncated atom data");
}

template <class Ar>
void Fields(Ar& ar, std::vector<Atom>& atoms) {
  ar.List(atoms, "implausible atom count",
          [&](Atom& atom) { Fields(ar, atom); });
}

/// GridGeometry keeps its members private: they travel through its
/// getters and FromParts, and the reader validates what it rebuilt.
template <class Ar>
void Fields(Ar& ar, GridGeometry& geometry) {
  std::array<int64_t, 3> extent{};
  std::array<double, 3> length{};
  std::array<bool, 3> periodic{};
  for (int d = 0; d < 3; ++d) {
    extent[static_cast<size_t>(d)] = geometry.extent(d);
    length[static_cast<size_t>(d)] = geometry.domain_length(d);
    periodic[static_cast<size_t>(d)] = geometry.periodic(d);
  }
  int64_t atom_width = geometry.atom_width();
  std::vector<double> stretched_y = geometry.stretched_y();
  for (int64_t& e : extent) ar.ZigZag(e);
  for (double& l : length) ar.Double(l);
  for (bool& p : periodic) ar.Bool(p);
  ar.ZigZag(atom_width);
  ar.List(stretched_y, "implausible stretched-y size",
          [&](double& y) { ar.Double(y); });
  if constexpr (std::is_same_v<Ar, Reader>) {
    if (!ar.ok()) return;
    geometry = GridGeometry::FromParts(extent, length, periodic, atom_width,
                                       std::move(stretched_y));
    ar.Fail(geometry.Validate());
  }
}

template <class Ar>
void Fields(Ar& ar, DatasetInfo& info) {
  ar.String(info.name);
  Fields(ar, info.geometry);
  ar.List(info.raw_fields, "implausible raw-field count",
          [&](RawFieldSpec& spec) {
            ar.String(spec.name);
            ar.ZigZag(spec.ncomp);
          });
  ar.ZigZag(info.num_timesteps);
}

template <class Ar>
void Fields(Ar& ar, NodeRecord& record) {
  ar.ZigZag(record.node_id);
  ar.String(record.uuid);
  ar.String(record.host);
  ar.Varint(record.port);
  ar.ZigZag(record.shard);
  ar.ZigZag(record.role, 0, static_cast<int64_t>(NodeRole::kDraining),
            "implausible node role");
  ar.Varint(record.joined_generation);
}

template <class Ar>
void Fields(Ar& ar, RangeOverride& range) {
  ar.Varint(range.begin);
  ar.Varint(range.end);
  ar.ZigZag(range.shard);
}

template <class Ar>
void Fields(Ar& ar, MembershipView& view) {
  ar.Varint(view.generation);
  ar.ZigZag(view.replication);
  ar.ZigZag(view.base_shards);
  ar.List(view.nodes, "implausible node-record count",
          [&](NodeRecord& record) { Fields(ar, record); });
  ar.List(view.overrides, "implausible override count",
          [&](RangeOverride& range) { Fields(ar, range); });
}

template <class Ar, class Request>
void Fields(Ar& /*ar*/, Ack<Request>& /*ack*/) {}

/// The body of an error frame: the failed request's Status.
struct ErrorBody {
  uint64_t code = 0;
  std::string message;
};

template <class Ar>
void Fields(Ar& ar, ErrorBody& error) {
  ar.Varint(error.code);
  ar.String(error.message);
  ar.Check(error.code != 0 &&
               error.code <= static_cast<uint64_t>(StatusCode::kWrongOwner),
           "error frame with bad status code");
}

// -- User-facing messages ------------------------------------------------

template <class Ar>
void Fields(Ar& ar, ThresholdRequest& request) {
  Fields(ar, request.rpc);
  Fields(ar, request.query);
  Fields(ar, request.options);
  ar.Bool(request.stream);
}

/// Requests whose body is their query.
template <class Ar, class Request>
  requires kOneOf<Request, PdfRequest, TopKRequest, FieldStatsRequest,
                  CacheWarmRequest>
void Fields(Ar& ar, Request& request) {
  Fields(ar, request.rpc);
  Fields(ar, request.query);
}

template <class Ar>
void Fields(Ar& ar, PingRequest& request) {
  Fields(ar, request.rpc);
  ar.Varint(request.delay_ms);
}

/// Requests whose body is the header alone.
template <class Ar, class Request>
  requires kOneOf<Request, ServerStatsRequest, CacheStatsRequest, HelloRequest,
                  CancelRequest, NodeListStoresRequest, MembershipGetRequest>
void Fields(Ar& ar, Request& request) {
  Fields(ar, request.rpc);
}

/// DropCache, CachePin and CacheUnpin share one key-selector layout.
template <class Ar, class Request>
  requires kOneOf<Request, DropCacheRequest, CachePinRequest,
                  CacheUnpinRequest>
void Fields(Ar& ar, Request& request) {
  Fields(ar, request.rpc);
  ar.String(request.dataset);
  ar.String(request.raw_field);
  ar.String(request.derived_field);
  ar.ZigZag(request.timestep);
}

template <class Ar>
void Fields(Ar& ar, FofRequest& request) {
  Fields(ar, request.rpc);
  Fields(ar, request.query);
  Fields(ar, request.options);
  ar.Double(request.linking_length);
  ar.Varint(request.min_cluster_size);
  ar.Bool(request.include_members);
}

template <class Ar>
void Fields(Ar& ar, ThresholdResult& result) {
  ar.Points(result.points);
  ar.Bool(result.all_cache_hits);
  ar.Varint(result.result_bytes_binary);
  ar.Varint(result.result_bytes_xml);
  Fields(ar, result.time);
}

template <class Ar>
void Fields(Ar& ar, PdfResult& result) {
  ar.List(result.counts, "implausible bin count",
          [&](uint64_t& count) { ar.Varint(count); });
  ar.Double(result.bin_width);
  ar.Varint(result.total_points);
  Fields(ar, result.time);
}

template <class Ar>
void Fields(Ar& ar, TopKResult& result) {
  ar.Points(result.points);
  Fields(ar, result.time);
}

template <class Ar>
void Fields(Ar& ar, FieldStatsResult& result) {
  ar.Varint(result.count);
  ar.Double(result.mean);
  ar.Double(result.rms);
  ar.Double(result.max);
  Fields(ar, result.time);
}

template <class Ar>
void Fields(Ar& ar, ServerStatsReply& reply) {
  ar.Varint(reply.requests_ok);
  ar.Varint(reply.requests_error);
  ar.Varint(reply.bytes_in);
  ar.Varint(reply.bytes_out);
  ar.Varint(reply.connections_accepted);
  ar.Varint(reply.active_connections);
  ar.Double(reply.p50_latency_ms);
  ar.Double(reply.p99_latency_ms);
  ar.Varint(reply.queries_in_flight);
  ar.Varint(reply.queries_admitted);
  ar.Varint(reply.queries_shed);
  ar.Varint(reply.result_bytes_in_use);
  ar.Varint(reply.result_bytes_peak);
  ar.Varint(reply.cache_hits);
  ar.Varint(reply.cache_misses);
  ar.Varint(reply.cache_subsumption_hits);
  ar.Varint(reply.cache_evictions);
  ar.Varint(reply.cache_entries);
  ar.Varint(reply.cache_bytes);
  ar.Varint(reply.cache_pinned_bytes);
  ar.List(reply.tenants, "implausible tenant count",
          [&](ServerStatsReply::TenantStats& tenant) {
            ar.String(tenant.name);
            ar.Varint(tenant.in_flight);
            ar.Varint(tenant.peak_in_flight);
            ar.Varint(tenant.admitted);
            ar.Varint(tenant.shed);
            ar.Varint(tenant.cap);
          });
  ar.Varint(reply.membership_generation);
  ar.Varint(reply.corruption_failovers);
  ar.Varint(reply.read_repairs);
}

template <class Ar>
void Fields(Ar& ar, HelloReply& reply) {
  ar.Varint(reply.protocol_version);
  ar.ZigZag(reply.server_id);
  ar.Varint(reply.epoch);
}

template <class Ar>
void Fields(Ar& ar, CancelReply& reply) {
  ar.Bool(reply.found);
}

template <class Ar>
void Fields(Ar& ar, DropCacheReply& reply) {
  ar.Varint(reply.mediator_entries);
  ar.Bool(reply.node_tier_cleared);
}

template <class Ar>
void Fields(Ar& ar, CacheStatsReply& reply) {
  MediatorCacheStats& stats = reply.stats;
  ar.Bool(reply.enabled);
  ar.Varint(stats.capacity_bytes);
  ar.Varint(stats.entries);
  ar.Varint(stats.bytes);
  ar.Varint(stats.hits);
  ar.Varint(stats.misses);
  ar.Varint(stats.subsumption_hits);
  ar.Varint(stats.insertions);
  ar.Varint(stats.evictions);
  ar.Varint(stats.invalidations);
  ar.Varint(stats.stale_inserts);
  ar.Varint(stats.pinned_entries);
  ar.Varint(stats.pinned_bytes);
}

template <class Ar>
void Fields(Ar& ar, CacheWarmReply& reply) {
  ar.Varint(reply.points);
  ar.Bool(reply.already_cached);
}

template <class Ar, class Request>
void Fields(Ar& ar, PinReply<Request>& reply) {
  ar.Varint(reply.entries);
}

template <class Ar>
void Fields(Ar& ar, ThresholdChunk& chunk) {
  ar.Varint(chunk.seq);
  ar.Points(chunk.points);
  ar.Varint(chunk.total_points);
}

template <class Ar>
void Fields(Ar& ar, FofClusterRecord& cluster) {
  ar.Varint(cluster.id);
  ar.Varint(cluster.size);
  for (uint64_t& lo : cluster.bbox_lo) ar.Varint(lo);
  for (uint64_t& hi : cluster.bbox_hi) ar.Varint(hi);
  for (double& c : cluster.centroid) ar.Double(c);
  ar.Float(cluster.max_norm);
  ar.Varint(cluster.peak_zindex);
  ar.Points(cluster.members);
}

template <class Ar>
void Fields(Ar& ar, FofChunk& chunk) {
  ar.Varint(chunk.seq);
  ar.List(chunk.clusters, "implausible cluster count",
          [&](FofClusterRecord& cluster) { Fields(ar, cluster); });
  ar.Varint(chunk.total_clusters);
}

template <class Ar>
void Fields(Ar& ar, DistributedFofSummary& summary) {
  ar.Varint(summary.clusters);
  ar.Varint(summary.points);
  ar.Varint(summary.largest_cluster);
  Fields(ar, summary.time);
}

// -- Node-scoped messages ------------------------------------------------

/// Node requests addressed to one store: the header, then the store's
/// dataset and field.
template <class Ar, class Request>
void StoreHeader(Ar& ar, Request& request) {
  Fields(ar, request.rpc);
  ar.String(request.dataset);
  ar.String(request.field);
}

template <class Ar>
void Fields(Ar& ar, NodeCreateDatasetRequest& request) {
  Fields(ar, request.rpc);
  Fields(ar, request.info);
  ar.ZigZag(request.num_nodes);
  ar.ZigZag(request.node_id);
  ar.ZigZag(request.strategy);
}

template <class Ar>
void Fields(Ar& ar, NodeIngestRequest& request) {
  StoreHeader(ar, request);
  Fields(ar, request.atoms);
  ar.Bool(request.skip_existing);
}

template <class Ar>
void Fields(Ar& ar, NodeQuerySpec& spec) {
  ar.ZigZag(spec.mode);
  QueryCommon(ar, spec);
  ar.Double(spec.threshold);
  ar.Double(spec.bin_width);
  ar.ZigZag(spec.num_bins);
  ar.Varint(spec.k);
  ar.ZigZag(spec.processes);
  Fields(ar, spec.options);
  ar.ZigZag(spec.sample_support);
  Fields(ar, spec.targets);
  ar.Double(spec.flops_per_process);
  ar.Double(spec.effective_cores);
}

template <class Ar>
void Fields(Ar& ar, NodeExecuteRequest& request) {
  Fields(ar, request.rpc);
  Fields(ar, request.spec);
  ar.Bool(request.stream);
  ar.List(request.overrides, "implausible override count",
          [&](RangeOverride& range) { Fields(ar, range); });
  ar.List(request.joined, "implausible node-record count",
          [&](NodeRecord& record) { Fields(ar, record); });
}

template <class Ar>
void Fields(Ar& ar, NodeFetchAtomsRequest& request) {
  StoreHeader(ar, request);
  ar.ZigZag(request.timestep);
  ar.ZigZag(request.concurrent);
  // Codes arrive sorted; delta coding keeps halo requests tiny.
  uint64_t previous = 0;
  ar.List(request.codes, "implausible code count",
          [&](uint64_t& code) { ar.Delta(code, &previous); });
}

template <class Ar>
void Fields(Ar& ar, NodeDropCacheRequest& request) {
  StoreHeader(ar, request);
  ar.ZigZag(request.timestep);
}

template <class Ar>
void Fields(Ar& ar, NodeStatsRequest& request) {
  StoreHeader(ar, request);
}

template <class Ar>
void Fields(Ar& ar, NodeSyncRangeRequest& request) {
  StoreHeader(ar, request);
  ar.ZigZag(request.timestep);
  ar.Varint(request.begin_code);
  ar.Varint(request.end_code);
  ar.Varint(request.max_atoms);
}

// `node_id` does not travel: the mediator assigns it.
template <class Ar>
void Fields(Ar& ar, NodeOutcome& outcome) {
  ar.Points(outcome.points);
  ar.List(outcome.histogram, "implausible histogram size",
          [&](uint64_t& count) { ar.Varint(count); });
  ar.Double(outcome.norm_sum);
  ar.Double(outcome.norm_sum_sq);
  ar.Double(outcome.norm_max);
  Fields(ar, outcome.samples);
  ar.Bool(outcome.cache_hit);
  Fields(ar, outcome.time);
  Fields(ar, outcome.io);
}

template <class Ar>
void Fields(Ar& ar, NodeFetchAtomsReply& reply) {
  Fields(ar, reply.atoms);
  ar.Double(reply.cost_s);
  ar.Varint(reply.bytes_out);
}

template <class Ar>
void Fields(Ar& ar, NodeStatsReply& reply) {
  ar.ZigZag(reply.node_id);
  ar.Varint(reply.stored_atoms);
  ar.Varint(reply.epoch);
  ar.Varint(reply.wal_pending_records);
  ar.Varint(reply.wal_pending_bytes);
  ar.Varint(reply.generation);
  ar.Varint(reply.scrub_passes);
  ar.Varint(reply.scrub_atoms_verified);
  ar.Varint(reply.scrub_atoms_corrupt);
  ar.Varint(reply.scrub_atoms_repaired);
  ar.Varint(reply.atoms_quarantined);
}

template <class Ar>
void Fields(Ar& ar, NodeSyncRangeReply& reply) {
  Fields(ar, reply.atoms);
  ar.Varint(reply.next_code);
  ar.Bool(reply.done);
}

template <class Ar>
void Fields(Ar& ar, NodeListStoresReply& reply) {
  ar.List(reply.stores, "implausible store count", [&](StoreListing& store) {
    ar.String(store.dataset);
    ar.String(store.field);
    ar.Varint(store.atoms);
  });
}

// -- Self-healing messages (v7) ------------------------------------------

template <class Ar>
void Fields(Ar& ar, NodeMerkleRequest& request) {
  StoreHeader(ar, request);
  ar.Varint(request.leaf_shift, 63, "implausible leaf shift");
}

template <class Ar>
void Fields(Ar& ar, NodeScrubRequest& request) {
  Fields(ar, request.rpc);
  ar.Bool(request.trigger);
}

template <class Ar>
void Fields(Ar& ar, NodeRepairRangeRequest& request) {
  StoreHeader(ar, request);
  ar.ZigZag(request.timestep);
  ar.Varint(request.begin_code);
  ar.Varint(request.end_code);
}

template <class Ar>
void Fields(Ar& ar, NodeMerkleReply& reply) {
  MerkleTree& tree = reply.tree;
  ar.ZigZag(reply.node_id);
  ar.Varint(tree.leaf_shift, 63, "implausible leaf shift");
  ar.Varint(tree.root);
  ar.List(tree.leaves, "implausible leaf count", [&](MerkleLeaf& leaf) {
    ar.ZigZag(leaf.timestep);
    ar.Varint(leaf.leaf);
    ar.Varint(leaf.digest);
    ar.Varint(leaf.atoms);
  });
}

template <class Ar>
void Fields(Ar& ar, NodeScrubReply& reply) {
  ar.ZigZag(reply.node_id);
  ar.Varint(reply.passes);
  ar.Varint(reply.atoms_verified);
  ar.Varint(reply.atoms_corrupt);
  ar.Varint(reply.atoms_repaired);
  ar.Varint(reply.last_pass_unix_ms);
  ar.List(reply.stores, "implausible store count",
          [&](Scrubber::StoreStats& store) {
            ar.String(store.dataset);
            ar.String(store.field);
            ar.Varint(store.atoms_verified);
            ar.Varint(store.atoms_corrupt);
            ar.Varint(store.atoms_repaired);
            ar.Varint(store.atoms_quarantined);
            ar.Varint(store.bytes_verified);
            ar.Varint(store.passes);
            ar.Varint(store.merkle_root);
          });
}

template <class Ar>
void Fields(Ar& ar, NodeRepairRangeReply& reply) {
  ar.ZigZag(reply.node_id);
  ar.Varint(reply.ranges_diverged);
  ar.Varint(reply.atoms_examined);
  ar.Varint(reply.atoms_repaired);
  ar.Varint(reply.root);
}

// -- Elasticity messages (v6) --------------------------------------------

template <class Ar>
void Fields(Ar& ar, JoinRequest& request) {
  Fields(ar, request.rpc);
  ar.String(request.uuid);
  ar.String(request.host);
  ar.Varint(request.port);
  ar.Bool(request.activate);
}

template <class Ar>
void Fields(Ar& ar, JoinReply& reply) {
  Fields(ar, reply.record);
  Fields(ar, reply.view);
  ar.List(reply.registrations, "implausible registration count",
          [&](WireDatasetRegistration& registration) {
            Fields(ar, registration.info);
            ar.ZigZag(registration.num_nodes);
            ar.ZigZag(registration.strategy);
          });
}

template <class Ar>
void Fields(Ar& ar, LeaveRequest& request) {
  Fields(ar, request.rpc);
  ar.ZigZag(request.node_id);
}

template <class Ar>
void Fields(Ar& ar, LeaveReply& reply) {
  Fields(ar, reply.view);
  ar.Varint(reply.ranges_moved);
  ar.Varint(reply.atoms_copied);
}

template <class Ar>
void Fields(Ar& ar, MembershipGetReply& reply) {
  Fields(ar, reply.view);
}

template <class Ar>
void Fields(Ar& ar, CutoverRequest& request) {
  Fields(ar, request.rpc);
  ar.Varint(request.begin);
  ar.Varint(request.end);
  ar.ZigZag(request.from_shard);
  ar.ZigZag(request.to_shard);
  ar.Varint(request.generation);
}

template <class Ar>
void Fields(Ar& ar, RebalanceRequest& request) {
  Fields(ar, request.rpc);
  ar.ZigZag(request.to_shard);
  ar.Varint(request.max_ranges);
}

template <class Ar>
void Fields(Ar& ar, RebalanceReply& reply) {
  ar.Varint(reply.generation);
  ar.List(reply.moved, "implausible moved-range count",
          [&](RangeOverride& range) { Fields(ar, range); });
  ar.Varint(reply.atoms_copied);
}


/// The Status an error frame's body carries, or the reader's failure.
Status ReadError(Reader& reader) {
  ErrorBody error;
  Fields(reader, error);
  TURBDB_RETURN_NOT_OK(reader.status());
  return Status(static_cast<StatusCode>(error.code), std::move(error.message));
}

/// Reads the message type; an error frame in its place fails the reader
/// with the Status it carries, any other type with Corruption.
void ExpectType(Reader& reader, MsgType expected) {
  uint64_t raw = 0;
  reader.Varint(raw);
  if (!reader.ok() || raw == static_cast<uint64_t>(expected)) return;
  if (raw != static_cast<uint64_t>(MsgType::kErrorResponse)) {
    return reader.Fail(
        Status::Corruption("unexpected message type " + std::to_string(raw)));
  }
  reader.Fail(ReadError(reader));
}

template <class Msg>
Bytes EncodeAs(MsgType type, const Msg& message) {
  Bytes out;
  Writer writer(&out);
  writer.Varint(type);
  Fields(writer, const_cast<Msg&>(message));
  return out;
}

}  // namespace

template <WireMessage Msg>
Bytes Encode(const Msg& message) {
  return EncodeAs(Wire<Msg>::kType, message);
}

template <WireMessage Msg>
Result<Msg> Decode(const Bytes& payload) {
  Reader reader(payload);
  ExpectType(reader, Wire<Msg>::kType);
  Msg message;
  Fields(reader, message);
  TURBDB_RETURN_NOT_OK(reader.Finish());
  return message;
}

// Encode and Decode exist for exactly the messages of the wire table.
#define TURBDB_NET_CODEC(Msg)                    \
  template Bytes Encode<Msg>(const Msg&);        \
  template Result<Msg> Decode<Msg>(const Bytes&);
#define TURBDB_NET_CODEC_RPC(Request, RequestType, ReplyMsg, ReplyType) \
  TURBDB_NET_CODEC(Request)                                            \
  TURBDB_NET_CODEC(ReplyMsg)
#define TURBDB_NET_CODEC_STREAM(Msg, Type) TURBDB_NET_CODEC(Msg)
TURBDB_NET_WIRE_TABLE(TURBDB_NET_CODEC_RPC, TURBDB_NET_CODEC_STREAM)
#undef TURBDB_NET_CODEC_STREAM
#undef TURBDB_NET_CODEC_RPC
#undef TURBDB_NET_CODEC

Bytes EncodeErrorResponse(const Status& status) {
  ErrorBody error{static_cast<uint64_t>(status.code()), status.message()};
  return EncodeAs(MsgType::kErrorResponse, error);
}

Result<MsgType> PeekResponseType(const Bytes& payload) {
  size_t pos = 0;
  TURBDB_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(payload, &pos));
  return static_cast<MsgType>(raw);
}

Result<RequestHeader> PeekRequestHeader(const Bytes& payload) {
  Reader reader(payload);
  uint64_t raw = 0;
  reader.Varint(raw);
  TURBDB_RETURN_NOT_OK(reader.status());
  if (raw == 0 || raw >= static_cast<uint64_t>(MsgType::kThresholdResponse)) {
    return Status::Corruption("payload is not a request (type " +
                              std::to_string(raw) + ")");
  }
  RequestHeader header;
  header.type = static_cast<MsgType>(raw);
  Fields(reader, header.rpc);
  TURBDB_RETURN_NOT_OK(reader.status());
  return header;
}

}  // namespace net
}  // namespace turbdb
