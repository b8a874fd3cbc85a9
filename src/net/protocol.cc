#include "net/protocol.h"

#include <cstring>

#include "wire/serializer.h"

namespace turbdb {
namespace net {

namespace {

// -- Primitive put/get helpers on top of the wire varint ----------------

void PutZigZag64(std::vector<uint8_t>* out, int64_t value) {
  const uint64_t encoded =
      (static_cast<uint64_t>(value) << 1) ^
      static_cast<uint64_t>(value >> 63);
  PutVarint64(out, encoded);
}

Result<int64_t> GetZigZag64(const std::vector<uint8_t>& bytes, size_t* pos) {
  TURBDB_ASSIGN_OR_RETURN(uint64_t encoded, GetVarint64(bytes, pos));
  return static_cast<int64_t>((encoded >> 1) ^ (~(encoded & 1) + 1));
}

void PutDouble(std::vector<uint8_t>* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

Result<double> GetDouble(const std::vector<uint8_t>& bytes, size_t* pos) {
  if (*pos + 8 > bytes.size()) return Status::Corruption("truncated double");
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(bytes[*pos + static_cast<size_t>(i)])
            << (8 * i);
  }
  *pos += 8;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void PutString(std::vector<uint8_t>* out, const std::string& str) {
  PutVarint64(out, str.size());
  out->insert(out->end(), str.begin(), str.end());
}

Result<std::string> GetString(const std::vector<uint8_t>& bytes,
                              size_t* pos) {
  TURBDB_ASSIGN_OR_RETURN(uint64_t length, GetVarint64(bytes, pos));
  if (length > bytes.size() - *pos) {
    return Status::Corruption("truncated string");
  }
  std::string out(reinterpret_cast<const char*>(bytes.data() + *pos),
                  static_cast<size_t>(length));
  *pos += static_cast<size_t>(length);
  return out;
}

void PutBool(std::vector<uint8_t>* out, bool value) {
  out->push_back(value ? 1 : 0);
}

Result<bool> GetBool(const std::vector<uint8_t>& bytes, size_t* pos) {
  if (*pos >= bytes.size()) return Status::Corruption("truncated bool");
  const uint8_t byte = bytes[(*pos)++];
  if (byte > 1) return Status::Corruption("bad bool value");
  return byte == 1;
}

/// Point sets ride as a length-prefixed nested EncodePointsBinary blob,
/// encoded straight into the message and decoded where it lies.
/// The delta coding there is mod-2^64, so it round-trips any ordering
/// (top-k results are norm-sorted, not z-sorted); sorted input just
/// compresses best.
void PutPoints(std::vector<uint8_t>* out,
               const std::vector<ThresholdPoint>& points) {
  PutVarint64(out, PointsBinarySize(points));
  AppendPointsBinary(points, out);
}

Result<std::vector<ThresholdPoint>> GetPoints(
    const std::vector<uint8_t>& bytes, size_t* pos) {
  TURBDB_ASSIGN_OR_RETURN(uint64_t length, GetVarint64(bytes, pos));
  if (length > bytes.size() - *pos) {
    return Status::Corruption("truncated point blob");
  }
  const uint8_t* blob = bytes.data() + *pos;
  *pos += static_cast<size_t>(length);
  return DecodePointsBinary(blob, static_cast<size_t>(length));
}

void PutTime(std::vector<uint8_t>* out, const TimeBreakdown& time) {
  PutDouble(out, time.cache_lookup_s);
  PutDouble(out, time.io_s);
  PutDouble(out, time.compute_s);
  PutDouble(out, time.mediator_db_comm_s);
  PutDouble(out, time.mediator_user_comm_s);
}

Result<TimeBreakdown> GetTime(const std::vector<uint8_t>& bytes,
                              size_t* pos) {
  TimeBreakdown time;
  TURBDB_ASSIGN_OR_RETURN(time.cache_lookup_s, GetDouble(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(time.io_s, GetDouble(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(time.compute_s, GetDouble(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(time.mediator_db_comm_s, GetDouble(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(time.mediator_user_comm_s, GetDouble(bytes, pos));
  return time;
}

// -- Shared query-field layout ------------------------------------------

void PutQueryCommon(std::vector<uint8_t>* out, const std::string& dataset,
                    const std::string& raw_field,
                    const std::string& derived_field, int32_t timestep,
                    const Box3& box, int fd_order) {
  PutString(out, dataset);
  PutString(out, raw_field);
  PutString(out, derived_field);
  PutZigZag64(out, timestep);
  for (int d = 0; d < 3; ++d) PutZigZag64(out, box.lo[static_cast<size_t>(d)]);
  for (int d = 0; d < 3; ++d) PutZigZag64(out, box.hi[static_cast<size_t>(d)]);
  PutZigZag64(out, fd_order);
}

template <typename Q>
Status GetQueryCommon(const std::vector<uint8_t>& bytes, size_t* pos,
                      Q* query) {
  TURBDB_ASSIGN_OR_RETURN(query->dataset, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(query->raw_field, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(query->derived_field, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(bytes, pos));
  query->timestep = static_cast<int32_t>(timestep);
  for (int d = 0; d < 3; ++d) {
    TURBDB_ASSIGN_OR_RETURN(query->box.lo[static_cast<size_t>(d)],
                            GetZigZag64(bytes, pos));
  }
  for (int d = 0; d < 3; ++d) {
    TURBDB_ASSIGN_OR_RETURN(query->box.hi[static_cast<size_t>(d)],
                            GetZigZag64(bytes, pos));
  }
  TURBDB_ASSIGN_OR_RETURN(int64_t fd_order, GetZigZag64(bytes, pos));
  query->fd_order = static_cast<int>(fd_order);
  return Status::OK();
}

// The deadline budget travels in the frame header (v3), so the payload
// header carries the type, the cancellation query id, (v5) the tenant
// the request is billed to, and (v6) the sender's membership generation
// for stale-routing detection.
void PutHeader(std::vector<uint8_t>* out, MsgType type,
               const RpcOptions& rpc) {
  PutVarint64(out, static_cast<uint64_t>(type));
  PutVarint64(out, rpc.query_id);
  PutString(out, rpc.tenant);
  PutVarint64(out, rpc.generation);
}

/// Reads the post-type portion of the shared request header (the inverse
/// of PutHeader minus the type varint, which callers consume first).
Status GetRpc(const std::vector<uint8_t>& bytes, size_t* pos,
              RpcOptions* rpc) {
  TURBDB_ASSIGN_OR_RETURN(rpc->query_id, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(rpc->tenant, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(rpc->generation, GetVarint64(bytes, pos));
  return Status::OK();
}

/// Reads the message type and, when it is an error frame, the carried
/// Status; any other unexpected type is Corruption.
Status ExpectType(const std::vector<uint8_t>& bytes, size_t* pos,
                  MsgType expected) {
  TURBDB_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(bytes, pos));
  if (raw == static_cast<uint64_t>(expected)) return Status::OK();
  if (raw == static_cast<uint64_t>(MsgType::kErrorResponse)) {
    TURBDB_ASSIGN_OR_RETURN(uint64_t code, GetVarint64(bytes, pos));
    TURBDB_ASSIGN_OR_RETURN(std::string message, GetString(bytes, pos));
    if (code == 0 || code > static_cast<uint64_t>(StatusCode::kWrongOwner)) {
      return Status::Corruption("error frame with bad status code");
    }
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  return Status::Corruption("unexpected message type " +
                            std::to_string(raw));
}

Status CheckConsumed(const std::vector<uint8_t>& bytes, size_t pos) {
  if (pos != bytes.size()) {
    return Status::Corruption("trailing bytes in message");
  }
  return Status::OK();
}

// -- Node-message building blocks ---------------------------------------

void PutFloat(std::vector<uint8_t>* out, float value) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

Result<float> GetFloat(const std::vector<uint8_t>& bytes, size_t* pos) {
  if (*pos + 4 > bytes.size()) return Status::Corruption("truncated float");
  uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    bits |= static_cast<uint32_t>(bytes[*pos + static_cast<size_t>(i)])
            << (8 * i);
  }
  *pos += 4;
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void PutAtom(std::vector<uint8_t>* out, const Atom& atom) {
  PutZigZag64(out, atom.key.timestep);
  PutVarint64(out, atom.key.zindex);
  PutZigZag64(out, atom.width);
  PutZigZag64(out, atom.ncomp);
  for (float f : atom.data) PutFloat(out, f);
}

Result<Atom> GetAtom(const std::vector<uint8_t>& bytes, size_t* pos) {
  Atom atom;
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(bytes, pos));
  atom.key.timestep = static_cast<int32_t>(timestep);
  TURBDB_ASSIGN_OR_RETURN(atom.key.zindex, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t width, GetZigZag64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t ncomp, GetZigZag64(bytes, pos));
  if (width <= 0 || width > 256 || ncomp <= 0 || ncomp > 64) {
    return Status::Corruption("implausible atom shape");
  }
  atom.width = static_cast<int32_t>(width);
  atom.ncomp = static_cast<int32_t>(ncomp);
  const size_t values = static_cast<size_t>(width) * static_cast<size_t>(width) *
                        static_cast<size_t>(width) * static_cast<size_t>(ncomp);
  if (values * 4 > bytes.size() - *pos) {
    return Status::Corruption("truncated atom data");
  }
  atom.data.resize(values);
  for (size_t i = 0; i < values; ++i) {
    TURBDB_ASSIGN_OR_RETURN(atom.data[i], GetFloat(bytes, pos));
  }
  return atom;
}

void PutAtoms(std::vector<uint8_t>* out, const std::vector<Atom>& atoms) {
  PutVarint64(out, atoms.size());
  for (const Atom& atom : atoms) PutAtom(out, atom);
}

Result<std::vector<Atom>> GetAtoms(const std::vector<uint8_t>& bytes,
                                   size_t* pos) {
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(bytes, pos));
  if (count > bytes.size() - *pos) {
    return Status::Corruption("implausible atom count");
  }
  std::vector<Atom> atoms;
  atoms.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    TURBDB_ASSIGN_OR_RETURN(Atom atom, GetAtom(bytes, pos));
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

void PutGeometry(std::vector<uint8_t>* out, const GridGeometry& geometry) {
  for (int d = 0; d < 3; ++d) PutZigZag64(out, geometry.extent(d));
  for (int d = 0; d < 3; ++d) PutDouble(out, geometry.domain_length(d));
  for (int d = 0; d < 3; ++d) PutBool(out, geometry.periodic(d));
  PutZigZag64(out, geometry.atom_width());
  PutVarint64(out, geometry.stretched_y().size());
  for (double y : geometry.stretched_y()) PutDouble(out, y);
}

Result<GridGeometry> GetGeometry(const std::vector<uint8_t>& bytes,
                                 size_t* pos) {
  std::array<int64_t, 3> extent;
  std::array<double, 3> length;
  std::array<bool, 3> periodic;
  for (int d = 0; d < 3; ++d) {
    TURBDB_ASSIGN_OR_RETURN(extent[static_cast<size_t>(d)],
                            GetZigZag64(bytes, pos));
  }
  for (int d = 0; d < 3; ++d) {
    TURBDB_ASSIGN_OR_RETURN(length[static_cast<size_t>(d)],
                            GetDouble(bytes, pos));
  }
  for (int d = 0; d < 3; ++d) {
    TURBDB_ASSIGN_OR_RETURN(periodic[static_cast<size_t>(d)],
                            GetBool(bytes, pos));
  }
  TURBDB_ASSIGN_OR_RETURN(int64_t atom_width, GetZigZag64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t stretched, GetVarint64(bytes, pos));
  if (stretched > bytes.size() - *pos) {
    return Status::Corruption("implausible stretched-y size");
  }
  std::vector<double> stretched_y;
  stretched_y.reserve(static_cast<size_t>(stretched));
  for (uint64_t i = 0; i < stretched; ++i) {
    TURBDB_ASSIGN_OR_RETURN(double y, GetDouble(bytes, pos));
    stretched_y.push_back(y);
  }
  GridGeometry geometry = GridGeometry::FromParts(
      extent, length, periodic, atom_width, std::move(stretched_y));
  TURBDB_RETURN_NOT_OK(geometry.Validate());
  return geometry;
}

void PutDatasetInfo(std::vector<uint8_t>* out, const DatasetInfo& info) {
  PutString(out, info.name);
  PutGeometry(out, info.geometry);
  PutVarint64(out, info.raw_fields.size());
  for (const RawFieldSpec& spec : info.raw_fields) {
    PutString(out, spec.name);
    PutZigZag64(out, spec.ncomp);
  }
  PutZigZag64(out, info.num_timesteps);
}

Result<DatasetInfo> GetDatasetInfo(const std::vector<uint8_t>& bytes,
                                   size_t* pos) {
  DatasetInfo info;
  TURBDB_ASSIGN_OR_RETURN(info.name, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(info.geometry, GetGeometry(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t fields, GetVarint64(bytes, pos));
  if (fields > bytes.size() - *pos) {
    return Status::Corruption("implausible raw-field count");
  }
  info.raw_fields.reserve(static_cast<size_t>(fields));
  for (uint64_t i = 0; i < fields; ++i) {
    RawFieldSpec spec;
    TURBDB_ASSIGN_OR_RETURN(spec.name, GetString(bytes, pos));
    TURBDB_ASSIGN_OR_RETURN(int64_t ncomp, GetZigZag64(bytes, pos));
    spec.ncomp = static_cast<int>(ncomp);
    info.raw_fields.push_back(std::move(spec));
  }
  TURBDB_ASSIGN_OR_RETURN(int64_t timesteps, GetZigZag64(bytes, pos));
  info.num_timesteps = static_cast<int32_t>(timesteps);
  return info;
}

void PutTargets(
    std::vector<uint8_t>* out,
    const std::vector<std::pair<uint32_t, std::array<double, 3>>>& targets) {
  PutVarint64(out, targets.size());
  for (const auto& [index, position] : targets) {
    PutVarint64(out, index);
    for (int d = 0; d < 3; ++d) PutDouble(out, position[static_cast<size_t>(d)]);
  }
}

Result<std::vector<std::pair<uint32_t, std::array<double, 3>>>> GetTargets(
    const std::vector<uint8_t>& bytes, size_t* pos) {
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(bytes, pos));
  if (count > bytes.size() - *pos) {
    return Status::Corruption("implausible target count");
  }
  std::vector<std::pair<uint32_t, std::array<double, 3>>> targets;
  targets.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    TURBDB_ASSIGN_OR_RETURN(uint64_t index, GetVarint64(bytes, pos));
    std::array<double, 3> position;
    for (int d = 0; d < 3; ++d) {
      TURBDB_ASSIGN_OR_RETURN(position[static_cast<size_t>(d)],
                              GetDouble(bytes, pos));
    }
    targets.push_back({static_cast<uint32_t>(index), position});
  }
  return targets;
}

void PutIo(std::vector<uint8_t>* out, const IoCounters& io) {
  PutVarint64(out, io.atoms_read_local);
  PutVarint64(out, io.atoms_read_remote);
  PutVarint64(out, io.bytes_read_local);
  PutVarint64(out, io.bytes_read_remote);
  PutVarint64(out, io.cache_records_scanned);
  PutVarint64(out, io.cache_bytes_scanned);
  PutVarint64(out, io.points_evaluated);
  PutVarint64(out, io.points_returned);
}

Result<IoCounters> GetIo(const std::vector<uint8_t>& bytes, size_t* pos) {
  IoCounters io;
  TURBDB_ASSIGN_OR_RETURN(io.atoms_read_local, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.atoms_read_remote, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.bytes_read_local, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.bytes_read_remote, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.cache_records_scanned, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.cache_bytes_scanned, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.points_evaluated, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(io.points_returned, GetVarint64(bytes, pos));
  return io;
}

}  // namespace

// -- Requests ------------------------------------------------------------

std::vector<uint8_t> EncodeRequest(const ThresholdRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kThresholdRequest, request.rpc);
  PutQueryCommon(&out, request.query.dataset, request.query.raw_field,
                 request.query.derived_field, request.query.timestep,
                 request.query.box, request.query.fd_order);
  PutDouble(&out, request.query.threshold);
  PutBool(&out, request.options.use_cache);
  PutBool(&out, request.options.io_only);
  PutZigZag64(&out, request.options.processes_per_node);
  PutVarint64(&out, request.options.max_result_points);
  PutBool(&out, request.stream);
  return out;
}

std::vector<uint8_t> EncodeRequest(const PdfRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kPdfRequest, request.rpc);
  PutQueryCommon(&out, request.query.dataset, request.query.raw_field,
                 request.query.derived_field, request.query.timestep,
                 request.query.box, request.query.fd_order);
  PutDouble(&out, request.query.bin_width);
  PutZigZag64(&out, request.query.num_bins);
  return out;
}

std::vector<uint8_t> EncodeRequest(const TopKRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kTopKRequest, request.rpc);
  PutQueryCommon(&out, request.query.dataset, request.query.raw_field,
                 request.query.derived_field, request.query.timestep,
                 request.query.box, request.query.fd_order);
  PutVarint64(&out, request.query.k);
  return out;
}

std::vector<uint8_t> EncodeRequest(const FieldStatsRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kFieldStatsRequest, request.rpc);
  PutQueryCommon(&out, request.query.dataset, request.query.raw_field,
                 request.query.derived_field, request.query.timestep,
                 request.query.box, request.query.fd_order);
  return out;
}

std::vector<uint8_t> EncodeRequest(const ServerStatsRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kServerStatsRequest, request.rpc);
  return out;
}

std::vector<uint8_t> EncodeRequest(const PingRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kPingRequest, request.rpc);
  PutVarint64(&out, request.delay_ms);
  return out;
}

std::vector<uint8_t> EncodeRequest(const DropCacheRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kDropCacheRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.raw_field);
  PutString(&out, request.derived_field);
  PutZigZag64(&out, request.timestep);
  return out;
}

std::vector<uint8_t> EncodeRequest(const CacheStatsRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kCacheStatsRequest, request.rpc);
  return out;
}

std::vector<uint8_t> EncodeRequest(const CacheWarmRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kCacheWarmRequest, request.rpc);
  PutQueryCommon(&out, request.query.dataset, request.query.raw_field,
                 request.query.derived_field, request.query.timestep,
                 request.query.box, request.query.fd_order);
  PutDouble(&out, request.query.threshold);
  return out;
}

namespace {

/// Pin and Unpin share one field layout; only the type differs.
template <typename R>
std::vector<uint8_t> EncodeCacheKeyRequest(const R& request, MsgType type) {
  std::vector<uint8_t> out;
  PutHeader(&out, type, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.raw_field);
  PutString(&out, request.derived_field);
  PutZigZag64(&out, request.timestep);
  return out;
}

template <typename R>
Status GetCacheKeyRequestBody(const std::vector<uint8_t>& payload,
                              size_t* pos, R* request) {
  TURBDB_ASSIGN_OR_RETURN(request->dataset, GetString(payload, pos));
  TURBDB_ASSIGN_OR_RETURN(request->raw_field, GetString(payload, pos));
  TURBDB_ASSIGN_OR_RETURN(request->derived_field, GetString(payload, pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(payload, pos));
  request->timestep = static_cast<int32_t>(timestep);
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeRequest(const CachePinRequest& request) {
  return EncodeCacheKeyRequest(request, MsgType::kCachePinRequest);
}

std::vector<uint8_t> EncodeRequest(const CacheUnpinRequest& request) {
  return EncodeCacheKeyRequest(request, MsgType::kCacheUnpinRequest);
}

std::vector<uint8_t> EncodeRequest(const FofRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kFofRequest, request.rpc);
  PutQueryCommon(&out, request.query.dataset, request.query.raw_field,
                 request.query.derived_field, request.query.timestep,
                 request.query.box, request.query.fd_order);
  PutDouble(&out, request.query.threshold);
  PutBool(&out, request.options.use_cache);
  PutBool(&out, request.options.io_only);
  PutZigZag64(&out, request.options.processes_per_node);
  PutVarint64(&out, request.options.max_result_points);
  PutDouble(&out, request.linking_length);
  PutVarint64(&out, request.min_cluster_size);
  PutBool(&out, request.include_members);
  return out;
}

Result<Request> DecodeRequest(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(payload, &pos));
  RpcOptions rpc;
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &rpc));
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kThresholdRequest: {
      ThresholdRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(
          GetQueryCommon(payload, &pos, &request.query));
      TURBDB_ASSIGN_OR_RETURN(request.query.threshold,
                              GetDouble(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.options.use_cache,
                              GetBool(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.options.io_only,
                              GetBool(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(int64_t processes, GetZigZag64(payload, &pos));
      request.options.processes_per_node = static_cast<int>(processes);
      TURBDB_ASSIGN_OR_RETURN(request.options.max_result_points,
                              GetVarint64(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.stream, GetBool(payload, &pos));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kPdfRequest: {
      PdfRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(
          GetQueryCommon(payload, &pos, &request.query));
      TURBDB_ASSIGN_OR_RETURN(request.query.bin_width,
                              GetDouble(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(int64_t num_bins, GetZigZag64(payload, &pos));
      request.query.num_bins = static_cast<int>(num_bins);
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kTopKRequest: {
      TopKRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(
          GetQueryCommon(payload, &pos, &request.query));
      TURBDB_ASSIGN_OR_RETURN(request.query.k, GetVarint64(payload, &pos));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kFieldStatsRequest: {
      FieldStatsRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(
          GetQueryCommon(payload, &pos, &request.query));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kServerStatsRequest: {
      ServerStatsRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(request);
    }
    case MsgType::kPingRequest: {
      PingRequest request;
      request.rpc = rpc;
      TURBDB_ASSIGN_OR_RETURN(request.delay_ms, GetVarint64(payload, &pos));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(request);
    }
    case MsgType::kDropCacheRequest: {
      DropCacheRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(GetCacheKeyRequestBody(payload, &pos, &request));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kCacheStatsRequest: {
      CacheStatsRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(request);
    }
    case MsgType::kCacheWarmRequest: {
      CacheWarmRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(GetQueryCommon(payload, &pos, &request.query));
      TURBDB_ASSIGN_OR_RETURN(request.query.threshold,
                              GetDouble(payload, &pos));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kCachePinRequest: {
      CachePinRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(GetCacheKeyRequestBody(payload, &pos, &request));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kCacheUnpinRequest: {
      CacheUnpinRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(GetCacheKeyRequestBody(payload, &pos, &request));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    case MsgType::kFofRequest: {
      FofRequest request;
      request.rpc = rpc;
      TURBDB_RETURN_NOT_OK(GetQueryCommon(payload, &pos, &request.query));
      TURBDB_ASSIGN_OR_RETURN(request.query.threshold,
                              GetDouble(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.options.use_cache,
                              GetBool(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.options.io_only,
                              GetBool(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(int64_t processes, GetZigZag64(payload, &pos));
      request.options.processes_per_node = static_cast<int>(processes);
      TURBDB_ASSIGN_OR_RETURN(request.options.max_result_points,
                              GetVarint64(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.linking_length,
                              GetDouble(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.min_cluster_size,
                              GetVarint64(payload, &pos));
      TURBDB_ASSIGN_OR_RETURN(request.include_members,
                              GetBool(payload, &pos));
      TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
      return Request(std::move(request));
    }
    default:
      return Status::Corruption("unknown request type " +
                                std::to_string(raw));
  }
}

// -- Responses -----------------------------------------------------------

std::vector<uint8_t> EncodeErrorResponse(const Status& status) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kErrorResponse));
  PutVarint64(&out, static_cast<uint64_t>(status.code()));
  PutString(&out, status.message());
  return out;
}

std::vector<uint8_t> EncodeResponse(const ThresholdResult& result) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kThresholdResponse));
  PutPoints(&out, result.points);
  PutBool(&out, result.all_cache_hits);
  PutVarint64(&out, result.result_bytes_binary);
  PutVarint64(&out, result.result_bytes_xml);
  PutTime(&out, result.time);
  return out;
}

std::vector<uint8_t> EncodeResponse(const PdfResult& result) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kPdfResponse));
  PutVarint64(&out, result.counts.size());
  for (uint64_t count : result.counts) PutVarint64(&out, count);
  PutDouble(&out, result.bin_width);
  PutVarint64(&out, result.total_points);
  PutTime(&out, result.time);
  return out;
}

std::vector<uint8_t> EncodeResponse(const TopKResult& result) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kTopKResponse));
  PutPoints(&out, result.points);
  PutTime(&out, result.time);
  return out;
}

std::vector<uint8_t> EncodeResponse(const FieldStatsResult& result) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kFieldStatsResponse));
  PutVarint64(&out, result.count);
  PutDouble(&out, result.mean);
  PutDouble(&out, result.rms);
  PutDouble(&out, result.max);
  PutTime(&out, result.time);
  return out;
}

std::vector<uint8_t> EncodeResponse(const ServerStatsReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kServerStatsResponse));
  PutVarint64(&out, reply.requests_ok);
  PutVarint64(&out, reply.requests_error);
  PutVarint64(&out, reply.bytes_in);
  PutVarint64(&out, reply.bytes_out);
  PutVarint64(&out, reply.connections_accepted);
  PutVarint64(&out, reply.active_connections);
  PutDouble(&out, reply.p50_latency_ms);
  PutDouble(&out, reply.p99_latency_ms);
  PutVarint64(&out, reply.queries_in_flight);
  PutVarint64(&out, reply.queries_admitted);
  PutVarint64(&out, reply.queries_shed);
  PutVarint64(&out, reply.result_bytes_in_use);
  PutVarint64(&out, reply.result_bytes_peak);
  PutVarint64(&out, reply.cache_hits);
  PutVarint64(&out, reply.cache_misses);
  PutVarint64(&out, reply.cache_subsumption_hits);
  PutVarint64(&out, reply.cache_evictions);
  PutVarint64(&out, reply.cache_entries);
  PutVarint64(&out, reply.cache_bytes);
  PutVarint64(&out, reply.cache_pinned_bytes);
  PutVarint64(&out, reply.tenants.size());
  for (const ServerStatsReply::TenantStats& tenant : reply.tenants) {
    PutString(&out, tenant.name);
    PutVarint64(&out, tenant.in_flight);
    PutVarint64(&out, tenant.peak_in_flight);
    PutVarint64(&out, tenant.admitted);
    PutVarint64(&out, tenant.shed);
    PutVarint64(&out, tenant.cap);
  }
  PutVarint64(&out, reply.membership_generation);
  PutVarint64(&out, reply.corruption_failovers);
  PutVarint64(&out, reply.read_repairs);
  return out;
}

std::vector<uint8_t> EncodePingResponse() {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kPingResponse));
  return out;
}

Result<ThresholdResult> DecodeThresholdResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kThresholdResponse));
  ThresholdResult result;
  TURBDB_ASSIGN_OR_RETURN(result.points, GetPoints(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.all_cache_hits, GetBool(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.result_bytes_binary,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.result_bytes_xml,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.time, GetTime(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return result;
}

Result<PdfResult> DecodePdfResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kPdfResponse));
  PdfResult result;
  TURBDB_ASSIGN_OR_RETURN(uint64_t bins, GetVarint64(payload, &pos));
  if (bins > payload.size() - pos) {
    return Status::Corruption("implausible bin count");
  }
  result.counts.reserve(static_cast<size_t>(bins));
  for (uint64_t i = 0; i < bins; ++i) {
    TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
    result.counts.push_back(count);
  }
  TURBDB_ASSIGN_OR_RETURN(result.bin_width, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.total_points, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.time, GetTime(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return result;
}

Result<TopKResult> DecodeTopKResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kTopKResponse));
  TopKResult result;
  TURBDB_ASSIGN_OR_RETURN(result.points, GetPoints(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.time, GetTime(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return result;
}

Result<FieldStatsResult> DecodeFieldStatsResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kFieldStatsResponse));
  FieldStatsResult result;
  TURBDB_ASSIGN_OR_RETURN(result.count, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.mean, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.rms, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.max, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.time, GetTime(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return result;
}

Result<ServerStatsReply> DecodeServerStatsResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kServerStatsResponse));
  ServerStatsReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.requests_ok, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.requests_error, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.bytes_in, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.bytes_out, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.connections_accepted,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.active_connections,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.p50_latency_ms, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.p99_latency_ms, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.queries_in_flight, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.queries_admitted, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.queries_shed, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.result_bytes_in_use,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.result_bytes_peak,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_hits, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_misses, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_subsumption_hits,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_evictions, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_entries, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_bytes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cache_pinned_bytes,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t tenants, GetVarint64(payload, &pos));
  if (tenants > payload.size() - pos) {
    return Status::Corruption("implausible tenant count");
  }
  reply.tenants.reserve(static_cast<size_t>(tenants));
  for (uint64_t i = 0; i < tenants; ++i) {
    ServerStatsReply::TenantStats tenant;
    TURBDB_ASSIGN_OR_RETURN(tenant.name, GetString(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(tenant.in_flight, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(tenant.peak_in_flight,
                            GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(tenant.admitted, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(tenant.shed, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(tenant.cap, GetVarint64(payload, &pos));
    reply.tenants.push_back(std::move(tenant));
  }
  TURBDB_ASSIGN_OR_RETURN(reply.membership_generation,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.corruption_failovers,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.read_repairs, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

Status DecodePingResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kPingResponse));
  return CheckConsumed(payload, pos);
}

// -- Mediator cache-control responses ------------------------------------

std::vector<uint8_t> EncodeDropCacheResponse(const DropCacheReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kDropCacheResponse));
  PutVarint64(&out, reply.mediator_entries);
  PutBool(&out, reply.node_tier_cleared);
  return out;
}

Result<DropCacheReply> DecodeDropCacheResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kDropCacheResponse));
  DropCacheReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.mediator_entries, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.node_tier_cleared, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeCacheStatsResponse(const CacheStatsReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kCacheStatsResponse));
  PutBool(&out, reply.enabled);
  PutVarint64(&out, reply.capacity_bytes);
  PutVarint64(&out, reply.entries);
  PutVarint64(&out, reply.bytes);
  PutVarint64(&out, reply.hits);
  PutVarint64(&out, reply.misses);
  PutVarint64(&out, reply.subsumption_hits);
  PutVarint64(&out, reply.insertions);
  PutVarint64(&out, reply.evictions);
  PutVarint64(&out, reply.invalidations);
  PutVarint64(&out, reply.stale_inserts);
  PutVarint64(&out, reply.pinned_entries);
  PutVarint64(&out, reply.pinned_bytes);
  PutBool(&out, reply.affinity_enabled);
  PutVarint64(&out, reply.affinity_routes);
  return out;
}

Result<CacheStatsReply> DecodeCacheStatsResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kCacheStatsResponse));
  CacheStatsReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.enabled, GetBool(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.capacity_bytes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.entries, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.bytes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.hits, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.misses, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.subsumption_hits, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.insertions, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.evictions, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.invalidations, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.stale_inserts, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.pinned_entries, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.pinned_bytes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.affinity_enabled, GetBool(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.affinity_routes, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeCacheWarmResponse(const CacheWarmReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kCacheWarmResponse));
  PutVarint64(&out, reply.points);
  PutBool(&out, reply.already_cached);
  return out;
}

Result<CacheWarmReply> DecodeCacheWarmResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kCacheWarmResponse));
  CacheWarmReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.points, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.already_cached, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeCachePinResponse(const CachePinReply& reply,
                                            MsgType type) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(type));
  PutVarint64(&out, reply.entries);
  return out;
}

Result<CachePinReply> DecodeCachePinResponse(
    const std::vector<uint8_t>& payload, MsgType type) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, type));
  CachePinReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.entries, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

// -- Streamed threshold replies ------------------------------------------

std::vector<uint8_t> EncodeThresholdChunk(const ThresholdChunk& chunk) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kThresholdChunk));
  PutVarint64(&out, chunk.seq);
  PutPoints(&out, chunk.points);
  PutVarint64(&out, chunk.total_points);
  return out;
}

Result<ThresholdChunk> DecodeThresholdChunk(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kThresholdChunk));
  ThresholdChunk chunk;
  TURBDB_ASSIGN_OR_RETURN(chunk.seq, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(chunk.points, GetPoints(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(chunk.total_points, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return chunk;
}

// -- Streamed friends-of-friends replies ---------------------------------

std::vector<uint8_t> EncodeFofChunk(const FofChunk& chunk) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kFofChunk));
  PutVarint64(&out, chunk.seq);
  PutVarint64(&out, chunk.clusters.size());
  for (const FofClusterRecord& cluster : chunk.clusters) {
    PutVarint64(&out, cluster.id);
    PutVarint64(&out, cluster.size);
    for (int d = 0; d < 3; ++d) {
      PutVarint64(&out, cluster.bbox_lo[static_cast<size_t>(d)]);
    }
    for (int d = 0; d < 3; ++d) {
      PutVarint64(&out, cluster.bbox_hi[static_cast<size_t>(d)]);
    }
    for (int d = 0; d < 3; ++d) {
      PutDouble(&out, cluster.centroid[static_cast<size_t>(d)]);
    }
    PutFloat(&out, cluster.max_norm);
    PutVarint64(&out, cluster.peak_zindex);
    PutPoints(&out, cluster.members);
  }
  PutVarint64(&out, chunk.total_clusters);
  return out;
}

Result<FofChunk> DecodeFofChunk(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kFofChunk));
  FofChunk chunk;
  TURBDB_ASSIGN_OR_RETURN(chunk.seq, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible cluster count");
  }
  chunk.clusters.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    FofClusterRecord cluster;
    TURBDB_ASSIGN_OR_RETURN(cluster.id, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(cluster.size, GetVarint64(payload, &pos));
    for (int d = 0; d < 3; ++d) {
      TURBDB_ASSIGN_OR_RETURN(cluster.bbox_lo[static_cast<size_t>(d)],
                              GetVarint64(payload, &pos));
    }
    for (int d = 0; d < 3; ++d) {
      TURBDB_ASSIGN_OR_RETURN(cluster.bbox_hi[static_cast<size_t>(d)],
                              GetVarint64(payload, &pos));
    }
    for (int d = 0; d < 3; ++d) {
      TURBDB_ASSIGN_OR_RETURN(cluster.centroid[static_cast<size_t>(d)],
                              GetDouble(payload, &pos));
    }
    TURBDB_ASSIGN_OR_RETURN(cluster.max_norm, GetFloat(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(cluster.peak_zindex, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(cluster.members, GetPoints(payload, &pos));
    chunk.clusters.push_back(std::move(cluster));
  }
  TURBDB_ASSIGN_OR_RETURN(chunk.total_clusters, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return chunk;
}

std::vector<uint8_t> EncodeFofResponse(const FofReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kFofResponse));
  PutVarint64(&out, reply.clusters);
  PutVarint64(&out, reply.points);
  PutVarint64(&out, reply.largest_cluster);
  PutTime(&out, reply.time);
  return out;
}

Result<FofReply> DecodeFofResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kFofResponse));
  FofReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.clusters, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.points, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.largest_cluster, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.time, GetTime(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

Result<MsgType> PeekResponseType(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(payload, &pos));
  return static_cast<MsgType>(raw);
}

Status PeekErrorStatus(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  auto raw = GetVarint64(payload, &pos);
  if (!raw.ok() || *raw != static_cast<uint64_t>(MsgType::kErrorResponse)) {
    return Status::OK();
  }
  TURBDB_ASSIGN_OR_RETURN(uint64_t code, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(std::string message, GetString(payload, &pos));
  if (code == 0 || code > static_cast<uint64_t>(StatusCode::kWrongOwner)) {
    return Status::Corruption("error frame with bad status code");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// -- Request header peek -------------------------------------------------

Result<RequestHeader> PeekRequestHeader(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(payload, &pos));
  if (raw == 0 || raw >= static_cast<uint64_t>(MsgType::kThresholdResponse)) {
    return Status::Corruption("payload is not a request (type " +
                              std::to_string(raw) + ")");
  }
  RequestHeader header;
  header.type = static_cast<MsgType>(raw);
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &header.rpc));
  return header;
}

// -- Handshake -----------------------------------------------------------

std::vector<uint8_t> EncodeRequest(const HelloRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kHelloRequest, request.rpc);
  return out;
}

std::vector<uint8_t> EncodeHelloResponse(const HelloReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kHelloResponse));
  PutVarint64(&out, reply.protocol_version);
  PutZigZag64(&out, reply.server_id);
  PutVarint64(&out, reply.epoch);
  return out;
}

Result<HelloReply> DecodeHelloResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kHelloResponse));
  HelloReply reply;
  TURBDB_ASSIGN_OR_RETURN(uint64_t version, GetVarint64(payload, &pos));
  reply.protocol_version = static_cast<uint32_t>(version);
  TURBDB_ASSIGN_OR_RETURN(int64_t id, GetZigZag64(payload, &pos));
  reply.server_id = static_cast<int32_t>(id);
  TURBDB_ASSIGN_OR_RETURN(reply.epoch, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

// -- Cancellation --------------------------------------------------------

std::vector<uint8_t> EncodeRequest(const CancelRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kCancelRequest, request.rpc);
  return out;
}

std::vector<uint8_t> EncodeCancelResponse(const CancelReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kCancelResponse));
  PutBool(&out, reply.found);
  return out;
}

Result<CancelReply> DecodeCancelResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kCancelResponse));
  CancelReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.found, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

// -- Node-scoped requests ------------------------------------------------

std::vector<uint8_t> EncodeRequest(const NodeCreateDatasetRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeCreateDatasetRequest, request.rpc);
  PutDatasetInfo(&out, request.info);
  PutZigZag64(&out, request.num_nodes);
  PutZigZag64(&out, request.node_id);
  PutZigZag64(&out, request.strategy);
  return out;
}

Result<NodeCreateDatasetRequest> DecodeNodeCreateDatasetRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeCreateDatasetRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeCreateDatasetRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.info, GetDatasetInfo(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t num_nodes, GetZigZag64(payload, &pos));
  request.num_nodes = static_cast<int32_t>(num_nodes);
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(payload, &pos));
  request.node_id = static_cast<int32_t>(node_id);
  TURBDB_ASSIGN_OR_RETURN(int64_t strategy, GetZigZag64(payload, &pos));
  request.strategy = static_cast<int32_t>(strategy);
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeIngestRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeIngestRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  PutAtoms(&out, request.atoms);
  PutBool(&out, request.skip_existing);
  return out;
}

Result<NodeIngestRequest> DecodeNodeIngestRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeIngestRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kNodeIngestRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.atoms, GetAtoms(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.skip_existing, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeExecuteRequest& request) {
  const NodeQuerySpec& spec = request.spec;
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeExecuteRequest, request.rpc);
  PutZigZag64(&out, spec.mode);
  PutQueryCommon(&out, spec.dataset, spec.raw_field, spec.derived_field,
                 spec.timestep, spec.box, spec.fd_order);
  PutDouble(&out, spec.threshold);
  PutDouble(&out, spec.bin_width);
  PutZigZag64(&out, spec.num_bins);
  PutVarint64(&out, spec.k);
  PutZigZag64(&out, spec.processes);
  PutBool(&out, spec.options.use_cache);
  PutBool(&out, spec.options.io_only);
  PutZigZag64(&out, spec.options.processes_per_node);
  PutVarint64(&out, spec.options.max_result_points);
  PutZigZag64(&out, spec.sample_support);
  PutTargets(&out, spec.targets);
  PutDouble(&out, spec.flops_per_process);
  PutDouble(&out, spec.effective_cores);
  PutBool(&out, request.stream);
  return out;
}

Result<NodeExecuteRequest> DecodeNodeExecuteRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeExecuteRequest request;
  NodeQuerySpec& spec = request.spec;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeExecuteRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(int64_t mode, GetZigZag64(payload, &pos));
  spec.mode = static_cast<int32_t>(mode);
  struct CommonView {
    std::string dataset, raw_field, derived_field;
    int32_t timestep;
    Box3 box;
    int fd_order;
  } common;
  TURBDB_RETURN_NOT_OK(GetQueryCommon(payload, &pos, &common));
  spec.dataset = std::move(common.dataset);
  spec.raw_field = std::move(common.raw_field);
  spec.derived_field = std::move(common.derived_field);
  spec.timestep = common.timestep;
  spec.box = common.box;
  spec.fd_order = common.fd_order;
  TURBDB_ASSIGN_OR_RETURN(spec.threshold, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(spec.bin_width, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t num_bins, GetZigZag64(payload, &pos));
  spec.num_bins = static_cast<int32_t>(num_bins);
  TURBDB_ASSIGN_OR_RETURN(spec.k, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t processes, GetZigZag64(payload, &pos));
  spec.processes = static_cast<int32_t>(processes);
  TURBDB_ASSIGN_OR_RETURN(spec.options.use_cache, GetBool(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(spec.options.io_only, GetBool(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t opt_processes, GetZigZag64(payload, &pos));
  spec.options.processes_per_node = static_cast<int>(opt_processes);
  TURBDB_ASSIGN_OR_RETURN(spec.options.max_result_points,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t support, GetZigZag64(payload, &pos));
  spec.sample_support = static_cast<int32_t>(support);
  TURBDB_ASSIGN_OR_RETURN(spec.targets, GetTargets(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(spec.flops_per_process, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(spec.effective_cores, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.stream, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeFetchAtomsRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeFetchAtomsRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  PutZigZag64(&out, request.timestep);
  PutZigZag64(&out, request.concurrent);
  PutVarint64(&out, request.codes.size());
  // Codes arrive sorted; delta coding keeps halo requests tiny.
  uint64_t previous = 0;
  for (uint64_t code : request.codes) {
    PutVarint64(&out, code - previous);
    previous = code;
  }
  return out;
}

Result<NodeFetchAtomsRequest> DecodeNodeFetchAtomsRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeFetchAtomsRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeFetchAtomsRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(payload, &pos));
  request.timestep = static_cast<int32_t>(timestep);
  TURBDB_ASSIGN_OR_RETURN(int64_t concurrent, GetZigZag64(payload, &pos));
  request.concurrent = static_cast<int32_t>(concurrent);
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible code count");
  }
  request.codes.reserve(static_cast<size_t>(count));
  uint64_t previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TURBDB_ASSIGN_OR_RETURN(uint64_t delta, GetVarint64(payload, &pos));
    previous += delta;
    request.codes.push_back(previous);
  }
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeDropCacheRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeDropCacheRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  PutZigZag64(&out, request.timestep);
  return out;
}

Result<NodeDropCacheRequest> DecodeNodeDropCacheRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeDropCacheRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeDropCacheRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(payload, &pos));
  request.timestep = static_cast<int32_t>(timestep);
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeStatsRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeStatsRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  return out;
}

Result<NodeStatsRequest> DecodeNodeStatsRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeStatsRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kNodeStatsRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeSyncRangeRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeSyncRangeRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  PutZigZag64(&out, request.timestep);
  PutVarint64(&out, request.begin_code);
  PutVarint64(&out, request.end_code);
  PutVarint64(&out, request.max_atoms);
  return out;
}

Result<NodeSyncRangeRequest> DecodeNodeSyncRangeRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeSyncRangeRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeSyncRangeRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(payload, &pos));
  request.timestep = static_cast<int32_t>(timestep);
  TURBDB_ASSIGN_OR_RETURN(request.begin_code, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.end_code, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.max_atoms, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeListStoresRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeListStoresRequest, request.rpc);
  return out;
}

Result<NodeListStoresRequest> DecodeNodeListStoresRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeListStoresRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeListStoresRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

// -- Node-scoped responses -----------------------------------------------

std::vector<uint8_t> EncodeAckResponse(MsgType type) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(type));
  return out;
}

Status DecodeAckResponse(const std::vector<uint8_t>& payload, MsgType type) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, type));
  return CheckConsumed(payload, pos);
}

std::vector<uint8_t> EncodeNodeExecuteResponse(const NodeResult& result) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeExecuteResponse));
  PutPoints(&out, result.points);
  PutVarint64(&out, result.histogram.size());
  for (uint64_t count : result.histogram) PutVarint64(&out, count);
  PutDouble(&out, result.norm_sum);
  PutDouble(&out, result.norm_sum_sq);
  PutDouble(&out, result.norm_max);
  PutTargets(&out, result.samples);
  PutBool(&out, result.cache_hit);
  PutTime(&out, result.time);
  PutIo(&out, result.io);
  return out;
}

Result<NodeResult> DecodeNodeExecuteResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeExecuteResponse));
  NodeResult result;
  TURBDB_ASSIGN_OR_RETURN(result.points, GetPoints(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t bins, GetVarint64(payload, &pos));
  if (bins > payload.size() - pos) {
    return Status::Corruption("implausible histogram size");
  }
  result.histogram.reserve(static_cast<size_t>(bins));
  for (uint64_t i = 0; i < bins; ++i) {
    TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
    result.histogram.push_back(count);
  }
  TURBDB_ASSIGN_OR_RETURN(result.norm_sum, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.norm_sum_sq, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.norm_max, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.samples, GetTargets(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.cache_hit, GetBool(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.time, GetTime(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(result.io, GetIo(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return result;
}

std::vector<uint8_t> EncodeNodeFetchAtomsResponse(
    const NodeFetchAtomsReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeFetchAtomsResponse));
  PutAtoms(&out, reply.atoms);
  PutDouble(&out, reply.cost_s);
  PutVarint64(&out, reply.bytes_out);
  return out;
}

Result<NodeFetchAtomsReply> DecodeNodeFetchAtomsResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeFetchAtomsResponse));
  NodeFetchAtomsReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.atoms, GetAtoms(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.cost_s, GetDouble(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.bytes_out, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeNodeStatsResponse(const NodeStatsReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeStatsResponse));
  PutZigZag64(&out, reply.node_id);
  PutVarint64(&out, reply.stored_atoms);
  PutVarint64(&out, reply.epoch);
  PutVarint64(&out, reply.wal_pending_records);
  PutVarint64(&out, reply.wal_pending_bytes);
  PutVarint64(&out, reply.generation);
  PutVarint64(&out, reply.scrub_passes);
  PutVarint64(&out, reply.scrub_atoms_verified);
  PutVarint64(&out, reply.scrub_atoms_corrupt);
  PutVarint64(&out, reply.scrub_atoms_repaired);
  PutVarint64(&out, reply.atoms_quarantined);
  return out;
}

Result<NodeStatsReply> DecodeNodeStatsResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kNodeStatsResponse));
  NodeStatsReply reply;
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(payload, &pos));
  reply.node_id = static_cast<int32_t>(node_id);
  TURBDB_ASSIGN_OR_RETURN(reply.stored_atoms, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.epoch, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.wal_pending_records, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.wal_pending_bytes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.generation, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.scrub_passes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.scrub_atoms_verified,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.scrub_atoms_corrupt,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.scrub_atoms_repaired,
                          GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_quarantined, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeNodeSyncRangeResponse(
    const NodeSyncRangeReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeSyncRangeResponse));
  PutAtoms(&out, reply.atoms);
  PutVarint64(&out, reply.next_code);
  PutBool(&out, reply.done);
  return out;
}

Result<NodeSyncRangeReply> DecodeNodeSyncRangeResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeSyncRangeResponse));
  NodeSyncRangeReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.atoms, GetAtoms(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.next_code, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.done, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeNodeListStoresResponse(
    const NodeListStoresReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeListStoresResponse));
  PutVarint64(&out, reply.stores.size());
  for (const NodeStoreInfo& store : reply.stores) {
    PutString(&out, store.dataset);
    PutString(&out, store.field);
    PutVarint64(&out, store.atoms);
  }
  return out;
}

Result<NodeListStoresReply> DecodeNodeListStoresResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeListStoresResponse));
  NodeListStoresReply reply;
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible store count");
  }
  reply.stores.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    NodeStoreInfo store;
    TURBDB_ASSIGN_OR_RETURN(store.dataset, GetString(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.field, GetString(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.atoms, GetVarint64(payload, &pos));
    reply.stores.push_back(std::move(store));
  }
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

// -- Self-healing messages (v7) ------------------------------------------

std::vector<uint8_t> EncodeRequest(const NodeMerkleRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeMerkleRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  PutVarint64(&out, request.leaf_shift);
  return out;
}

Result<NodeMerkleRequest> DecodeNodeMerkleRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeMerkleRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kNodeMerkleRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t shift, GetVarint64(payload, &pos));
  if (shift > 63) return Status::Corruption("implausible leaf shift");
  request.leaf_shift = static_cast<uint32_t>(shift);
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeScrubRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeScrubRequest, request.rpc);
  PutBool(&out, request.trigger);
  return out;
}

Result<NodeScrubRequest> DecodeNodeScrubRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeScrubRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kNodeScrubRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.trigger, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const NodeRepairRangeRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kNodeRepairRangeRequest, request.rpc);
  PutString(&out, request.dataset);
  PutString(&out, request.field);
  PutZigZag64(&out, request.timestep);
  PutVarint64(&out, request.begin_code);
  PutVarint64(&out, request.end_code);
  return out;
}

Result<NodeRepairRangeRequest> DecodeNodeRepairRangeRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  NodeRepairRangeRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeRepairRangeRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.dataset, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.field, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(payload, &pos));
  request.timestep = static_cast<int32_t>(timestep);
  TURBDB_ASSIGN_OR_RETURN(request.begin_code, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.end_code, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeNodeMerkleResponse(const NodeMerkleReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeMerkleResponse));
  PutZigZag64(&out, reply.node_id);
  PutVarint64(&out, reply.leaf_shift);
  PutVarint64(&out, reply.root);
  PutVarint64(&out, reply.leaves.size());
  for (const WireMerkleLeaf& leaf : reply.leaves) {
    PutZigZag64(&out, leaf.timestep);
    PutVarint64(&out, leaf.leaf);
    PutVarint64(&out, leaf.digest);
    PutVarint64(&out, leaf.atoms);
  }
  return out;
}

Result<NodeMerkleReply> DecodeNodeMerkleResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeMerkleResponse));
  NodeMerkleReply reply;
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(payload, &pos));
  reply.node_id = static_cast<int32_t>(node_id);
  TURBDB_ASSIGN_OR_RETURN(uint64_t shift, GetVarint64(payload, &pos));
  if (shift > 63) return Status::Corruption("implausible leaf shift");
  reply.leaf_shift = static_cast<uint32_t>(shift);
  TURBDB_ASSIGN_OR_RETURN(reply.root, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible leaf count");
  }
  reply.leaves.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireMerkleLeaf leaf;
    TURBDB_ASSIGN_OR_RETURN(int64_t timestep, GetZigZag64(payload, &pos));
    leaf.timestep = static_cast<int32_t>(timestep);
    TURBDB_ASSIGN_OR_RETURN(leaf.leaf, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(leaf.digest, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(leaf.atoms, GetVarint64(payload, &pos));
    reply.leaves.push_back(leaf);
  }
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeNodeScrubResponse(const NodeScrubReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeScrubResponse));
  PutZigZag64(&out, reply.node_id);
  PutVarint64(&out, reply.passes);
  PutVarint64(&out, reply.atoms_verified);
  PutVarint64(&out, reply.atoms_corrupt);
  PutVarint64(&out, reply.atoms_repaired);
  PutVarint64(&out, reply.last_pass_unix_ms);
  PutVarint64(&out, reply.stores.size());
  for (const ScrubStoreRow& store : reply.stores) {
    PutString(&out, store.dataset);
    PutString(&out, store.field);
    PutVarint64(&out, store.atoms_verified);
    PutVarint64(&out, store.atoms_corrupt);
    PutVarint64(&out, store.atoms_repaired);
    PutVarint64(&out, store.atoms_quarantined);
    PutVarint64(&out, store.bytes_verified);
    PutVarint64(&out, store.passes);
    PutVarint64(&out, store.merkle_root);
  }
  return out;
}

Result<NodeScrubReply> DecodeNodeScrubResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kNodeScrubResponse));
  NodeScrubReply reply;
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(payload, &pos));
  reply.node_id = static_cast<int32_t>(node_id);
  TURBDB_ASSIGN_OR_RETURN(reply.passes, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_verified, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_corrupt, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_repaired, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.last_pass_unix_ms, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible store count");
  }
  reply.stores.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    ScrubStoreRow store;
    TURBDB_ASSIGN_OR_RETURN(store.dataset, GetString(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.field, GetString(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.atoms_verified, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.atoms_corrupt, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.atoms_repaired, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.atoms_quarantined,
                            GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.bytes_verified, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.passes, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(store.merkle_root, GetVarint64(payload, &pos));
    reply.stores.push_back(std::move(store));
  }
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeNodeRepairRangeResponse(
    const NodeRepairRangeReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kNodeRepairRangeResponse));
  PutZigZag64(&out, reply.node_id);
  PutVarint64(&out, reply.ranges_diverged);
  PutVarint64(&out, reply.atoms_examined);
  PutVarint64(&out, reply.atoms_repaired);
  PutVarint64(&out, reply.root);
  return out;
}

Result<NodeRepairRangeReply> DecodeNodeRepairRangeResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kNodeRepairRangeResponse));
  NodeRepairRangeReply reply;
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(payload, &pos));
  reply.node_id = static_cast<int32_t>(node_id);
  TURBDB_ASSIGN_OR_RETURN(reply.ranges_diverged, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_examined, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_repaired, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.root, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

// -- Elasticity messages (v6) --------------------------------------------

namespace {

void PutNodeRecord(std::vector<uint8_t>* out, const NodeRecord& record) {
  PutZigZag64(out, record.node_id);
  PutString(out, record.uuid);
  PutString(out, record.host);
  PutVarint64(out, record.port);
  PutZigZag64(out, record.shard);
  PutZigZag64(out, static_cast<int64_t>(record.role));
  PutVarint64(out, record.joined_generation);
}

Result<NodeRecord> GetNodeRecord(const std::vector<uint8_t>& bytes,
                                 size_t* pos) {
  NodeRecord record;
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(bytes, pos));
  record.node_id = static_cast<int>(node_id);
  TURBDB_ASSIGN_OR_RETURN(record.uuid, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(record.host, GetString(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t port, GetVarint64(bytes, pos));
  record.port = static_cast<uint16_t>(port);
  TURBDB_ASSIGN_OR_RETURN(int64_t shard, GetZigZag64(bytes, pos));
  record.shard = static_cast<int>(shard);
  TURBDB_ASSIGN_OR_RETURN(int64_t role, GetZigZag64(bytes, pos));
  if (role < 0 || role > static_cast<int64_t>(NodeRole::kDraining)) {
    return Status::Corruption("implausible node role");
  }
  record.role = static_cast<NodeRole>(role);
  TURBDB_ASSIGN_OR_RETURN(record.joined_generation, GetVarint64(bytes, pos));
  return record;
}

void PutView(std::vector<uint8_t>* out, const MembershipView& view) {
  PutVarint64(out, view.generation);
  PutZigZag64(out, view.replication);
  PutZigZag64(out, view.base_shards);
  PutVarint64(out, view.nodes.size());
  for (const NodeRecord& record : view.nodes) PutNodeRecord(out, record);
  PutVarint64(out, view.overrides.size());
  for (const RangeOverride& o : view.overrides) {
    PutVarint64(out, o.begin);
    PutVarint64(out, o.end);
    PutZigZag64(out, o.shard);
  }
}

Result<MembershipView> GetView(const std::vector<uint8_t>& bytes,
                               size_t* pos) {
  MembershipView view;
  TURBDB_ASSIGN_OR_RETURN(view.generation, GetVarint64(bytes, pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t replication, GetZigZag64(bytes, pos));
  view.replication = static_cast<int>(replication);
  TURBDB_ASSIGN_OR_RETURN(int64_t base_shards, GetZigZag64(bytes, pos));
  view.base_shards = static_cast<int>(base_shards);
  TURBDB_ASSIGN_OR_RETURN(uint64_t node_count, GetVarint64(bytes, pos));
  if (node_count > bytes.size() - *pos) {
    return Status::Corruption("implausible node-record count");
  }
  view.nodes.reserve(static_cast<size_t>(node_count));
  for (uint64_t i = 0; i < node_count; ++i) {
    TURBDB_ASSIGN_OR_RETURN(NodeRecord record, GetNodeRecord(bytes, pos));
    view.nodes.push_back(std::move(record));
  }
  TURBDB_ASSIGN_OR_RETURN(uint64_t override_count, GetVarint64(bytes, pos));
  if (override_count > bytes.size() - *pos) {
    return Status::Corruption("implausible override count");
  }
  view.overrides.reserve(static_cast<size_t>(override_count));
  for (uint64_t i = 0; i < override_count; ++i) {
    RangeOverride o;
    TURBDB_ASSIGN_OR_RETURN(o.begin, GetVarint64(bytes, pos));
    TURBDB_ASSIGN_OR_RETURN(o.end, GetVarint64(bytes, pos));
    TURBDB_ASSIGN_OR_RETURN(int64_t shard, GetZigZag64(bytes, pos));
    o.shard = static_cast<int>(shard);
    view.overrides.push_back(o);
  }
  return view;
}

}  // namespace

std::vector<uint8_t> EncodeRequest(const JoinRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kJoinRequest, request.rpc);
  PutString(&out, request.uuid);
  PutString(&out, request.host);
  PutVarint64(&out, request.port);
  PutBool(&out, request.activate);
  return out;
}

Result<JoinRequest> DecodeJoinRequest(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  JoinRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kJoinRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.uuid, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.host, GetString(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t port, GetVarint64(payload, &pos));
  request.port = static_cast<uint16_t>(port);
  TURBDB_ASSIGN_OR_RETURN(request.activate, GetBool(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeJoinResponse(const JoinReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kJoinResponse));
  PutNodeRecord(&out, reply.record);
  PutView(&out, reply.view);
  PutVarint64(&out, reply.registrations.size());
  for (const WireDatasetRegistration& reg : reply.registrations) {
    PutDatasetInfo(&out, reg.info);
    PutZigZag64(&out, reg.num_nodes);
    PutZigZag64(&out, reg.strategy);
  }
  return out;
}

Result<JoinReply> DecodeJoinResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kJoinResponse));
  JoinReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.record, GetNodeRecord(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.view, GetView(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible registration count");
  }
  reply.registrations.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireDatasetRegistration reg;
    TURBDB_ASSIGN_OR_RETURN(reg.info, GetDatasetInfo(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(int64_t num_nodes, GetZigZag64(payload, &pos));
    reg.num_nodes = static_cast<int32_t>(num_nodes);
    TURBDB_ASSIGN_OR_RETURN(int64_t strategy, GetZigZag64(payload, &pos));
    reg.strategy = static_cast<int32_t>(strategy);
    reply.registrations.push_back(std::move(reg));
  }
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeRequest(const LeaveRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kLeaveRequest, request.rpc);
  PutZigZag64(&out, request.node_id);
  return out;
}

Result<LeaveRequest> DecodeLeaveRequest(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  LeaveRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kLeaveRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(int64_t node_id, GetZigZag64(payload, &pos));
  request.node_id = static_cast<int32_t>(node_id);
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeLeaveResponse(const LeaveReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kLeaveResponse));
  PutView(&out, reply.view);
  PutVarint64(&out, reply.ranges_moved);
  PutVarint64(&out, reply.atoms_copied);
  return out;
}

Result<LeaveReply> DecodeLeaveResponse(const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kLeaveResponse));
  LeaveReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.view, GetView(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.ranges_moved, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_copied, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeRequest(const MembershipGetRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kMembershipGetRequest, request.rpc);
  return out;
}

Result<MembershipGetRequest> DecodeMembershipGetRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  MembershipGetRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kMembershipGetRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeMembershipGetResponse(
    const MembershipGetReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kMembershipGetResponse));
  PutView(&out, reply.view);
  return out;
}

Result<MembershipGetReply> DecodeMembershipGetResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kMembershipGetResponse));
  MembershipGetReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.view, GetView(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

std::vector<uint8_t> EncodeRequest(const MembershipUpdateRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kMembershipUpdateRequest, request.rpc);
  PutView(&out, request.view);
  return out;
}

Result<MembershipUpdateRequest> DecodeMembershipUpdateRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  MembershipUpdateRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kMembershipUpdateRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.view, GetView(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const BeginHandoffRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kBeginHandoffRequest, request.rpc);
  PutVarint64(&out, request.begin);
  PutVarint64(&out, request.end);
  PutZigZag64(&out, request.from_shard);
  PutZigZag64(&out, request.to_shard);
  return out;
}

Result<BeginHandoffRequest> DecodeBeginHandoffRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  BeginHandoffRequest request;
  TURBDB_RETURN_NOT_OK(
      ExpectType(payload, &pos, MsgType::kBeginHandoffRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.begin, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.end, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t from_shard, GetZigZag64(payload, &pos));
  request.from_shard = static_cast<int32_t>(from_shard);
  TURBDB_ASSIGN_OR_RETURN(int64_t to_shard, GetZigZag64(payload, &pos));
  request.to_shard = static_cast<int32_t>(to_shard);
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const CutoverRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kCutoverRequest, request.rpc);
  PutVarint64(&out, request.begin);
  PutVarint64(&out, request.end);
  PutZigZag64(&out, request.from_shard);
  PutZigZag64(&out, request.to_shard);
  PutView(&out, request.view);
  return out;
}

Result<CutoverRequest> DecodeCutoverRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  CutoverRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kCutoverRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(request.begin, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(request.end, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(int64_t from_shard, GetZigZag64(payload, &pos));
  request.from_shard = static_cast<int32_t>(from_shard);
  TURBDB_ASSIGN_OR_RETURN(int64_t to_shard, GetZigZag64(payload, &pos));
  request.to_shard = static_cast<int32_t>(to_shard);
  TURBDB_ASSIGN_OR_RETURN(request.view, GetView(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRequest(const RebalanceRequest& request) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgType::kRebalanceRequest, request.rpc);
  PutZigZag64(&out, request.to_shard);
  PutVarint64(&out, request.max_ranges);
  return out;
}

Result<RebalanceRequest> DecodeRebalanceRequest(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  RebalanceRequest request;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kRebalanceRequest));
  TURBDB_RETURN_NOT_OK(GetRpc(payload, &pos, &request.rpc));
  TURBDB_ASSIGN_OR_RETURN(int64_t to_shard, GetZigZag64(payload, &pos));
  request.to_shard = static_cast<int32_t>(to_shard);
  TURBDB_ASSIGN_OR_RETURN(request.max_ranges, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return request;
}

std::vector<uint8_t> EncodeRebalanceResponse(const RebalanceReply& reply) {
  std::vector<uint8_t> out;
  PutVarint64(&out, static_cast<uint64_t>(MsgType::kRebalanceResponse));
  PutVarint64(&out, reply.generation);
  PutVarint64(&out, reply.moved.size());
  for (const RangeOverride& o : reply.moved) {
    PutVarint64(&out, o.begin);
    PutVarint64(&out, o.end);
    PutZigZag64(&out, o.shard);
  }
  PutVarint64(&out, reply.atoms_copied);
  return out;
}

Result<RebalanceReply> DecodeRebalanceResponse(
    const std::vector<uint8_t>& payload) {
  size_t pos = 0;
  TURBDB_RETURN_NOT_OK(ExpectType(payload, &pos, MsgType::kRebalanceResponse));
  RebalanceReply reply;
  TURBDB_ASSIGN_OR_RETURN(reply.generation, GetVarint64(payload, &pos));
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(payload, &pos));
  if (count > payload.size() - pos) {
    return Status::Corruption("implausible moved-range count");
  }
  reply.moved.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    RangeOverride o;
    TURBDB_ASSIGN_OR_RETURN(o.begin, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(o.end, GetVarint64(payload, &pos));
    TURBDB_ASSIGN_OR_RETURN(int64_t shard, GetZigZag64(payload, &pos));
    o.shard = static_cast<int>(shard);
    reply.moved.push_back(o);
  }
  TURBDB_ASSIGN_OR_RETURN(reply.atoms_copied, GetVarint64(payload, &pos));
  TURBDB_RETURN_NOT_OK(CheckConsumed(payload, pos));
  return reply;
}

}  // namespace net
}  // namespace turbdb
