// The traced run: replays one connection's op sequence and splits each
// op's time across the layers.
//
// For every op a root span times the net::Client call. Child spans then
// time direct calls into each layer's public functions that redo that
// op's work (the in-process Mediator call, the slowest shard's node
// execute, its I/O-only gather, the store reads, the kernel over a
// gathered slab, the cache calls and the wire codecs). A child redoes a
// part of its parent's work after the parent, so spans nest logically,
// not in time: a span's self time is its duration minus the durations of
// its children. Spans stay in memory and are written as JSON lines when
// the run ends.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <set>

#include "bench.h"
#include "cluster/node.h"
#include "cluster/remote_node.h"
#include "common/thread_pool.h"
#include "datagen/turbulence.h"
#include "fields/differentiator.h"
#include "membership/view.h"
#include "storage/atom_store.h"
#include "wire/serializer.h"

namespace perfbench {

using turbdb::Atom;
using turbdb::AtomKey;
using turbdb::AtomStore;
using turbdb::Box3;
using turbdb::NodeQuery;
using turbdb::Result;
using turbdb::Status;
using turbdb::ThresholdPoint;

namespace {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int parent, uint64_t op) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.op = op;
    span.start_ns = Now();
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }
  /// Records a span timed elsewhere (a call made on another thread).
  int Add(const char* name, int parent, uint64_t op, Clock::time_point start,
          Clock::time_point end) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.op = op;
    span.start_ns = Ns(start);
    span.end_ns = Ns(end);
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  double Ms(int id) const {
    const Span& span = spans_[static_cast<size_t>(id)];
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

  Status Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return Status::IOError("cannot write " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                   ", \"end_ns\": %" PRId64 ", \"parent\": %d, \"op\": %" PRIu64
                   "}\n",
                   i, span.name, span.start_ns, span.end_ns, span.parent,
                   span.op);
    }
    return std::fclose(out) == 0 ? Status::OK()
                                 : Status::IOError("cannot close " + path);
  }

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  int64_t Now() const { return Ns(Clock::now()); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one call as a span: Begin on construction, End on Stop.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent, uint64_t op)
      : tracer_(tracer), id_(tracer.Begin(name, parent, op)) {}
  double Stop() {
    tracer_.End(id_);
    return tracer_.Ms(id_);
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Points per streamed chunk: the deployment leaves the server's default.
const uint64_t kStreamChunkPoints =
    turbdb::net::ServerOptions{}.stream_chunk_points;

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

NodeQuery::Mode ModeOf(OpKind kind) {
  switch (kind) {
    case OpKind::kPdf: return NodeQuery::Mode::kPdf;
    case OpKind::kTopK: return NodeQuery::Mode::kTopK;
    case OpKind::kStats: return NodeQuery::Mode::kMoments;
    default: return NodeQuery::Mode::kThreshold;
  }
}

/// Span name of a kernel (span names are string literals).
const char* KernelSpanName(const std::string& derived) {
  if (derived == "vorticity") return "fields.vorticity";
  if (derived == "q_criterion") return "fields.q_criterion";
  if (derived == "current") return "fields.current";
  return "fields.magnitude";
}

bool IsThreshold(OpKind kind) {
  return kind == OpKind::kThreshold || kind == OpKind::kStreamed;
}

/// Everything the layer calls need, built once from public parts: a
/// partitioner and differentiator equal to the mediator's, the kernel
/// registry, a worker pool the size of the mediator's, the in-process
/// nodes' stores, and one node-scoped client per forked node.
struct Layers {
  Deployment& d;
  const turbdb::DatasetInfo* info = nullptr;
  std::unique_ptr<turbdb::MortonPartitioner> partitioner;
  std::unique_ptr<turbdb::Differentiator> diff;
  turbdb::FieldRegistry registry = turbdb::FieldRegistry::Default();
  std::unique_ptr<turbdb::ThreadPool> pool;
  turbdb::MembershipView view;
  /// (node, raw field) -> store, in-process deployments.
  std::map<std::pair<int, std::string>, AtomStore*> stores;
  std::vector<std::unique_ptr<turbdb::net::Client>> node_clients;

  explicit Layers(Deployment& deployment) : d(deployment) {}
};

Result<std::unique_ptr<Layers>> MakeLayers(Deployment& d) {
  auto layers = std::make_unique<Layers>(d);
  TURBDB_ASSIGN_OR_RETURN(layers->info, d.mediator().GetDataset(kDataset));
  const turbdb::GridGeometry& geometry = layers->info->geometry;
  TURBDB_ASSIGN_OR_RETURN(turbdb::MortonPartitioner partitioner,
                          turbdb::MortonPartitioner::Create(
                              geometry, d.workload.shards,
                              turbdb::PartitionStrategy::kMorton));
  layers->partitioner =
      std::make_unique<turbdb::MortonPartitioner>(std::move(partitioner));
  TURBDB_ASSIGN_OR_RETURN(turbdb::Differentiator diff,
                          turbdb::Differentiator::Create(geometry, 4));
  layers->diff = std::make_unique<turbdb::Differentiator>(std::move(diff));
  layers->pool = std::make_unique<turbdb::ThreadPool>(d.workload.worker_threads);
  layers->view = d.mediator().Membership();
  if (d.nodes) {
    for (const turbdb::NodeAddress& address : d.nodes->topology().nodes) {
      layers->node_clients.push_back(std::make_unique<turbdb::net::Client>(
          address.host, address.port));
    }
  } else {
    for (int s = 0; s < d.workload.shards; ++s) {
      for (const auto& handle : d.mediator().node(s).OpenStores()) {
        if (handle.dataset == kDataset) {
          layers->stores[{s, handle.field}] = handle.store;
        }
      }
    }
  }
  return layers;
}

Result<NodeQuery> BuildNodeQuery(Layers& layers, const Op& op, bool use_cache,
                                 bool io_only) {
  NodeQuery query;
  query.mode = ModeOf(op.kind);
  query.dataset = layers.info;
  query.partitioner = layers.partitioner.get();
  query.raw_field = op.query.raw_field;
  query.derived_field = op.query.derived_field;
  query.raw_ncomp = 3;
  query.cache_field_key = op.query.raw_field + ":" + op.query.derived_field;
  TURBDB_ASSIGN_OR_RETURN(query.kernel,
                          layers.registry.Create(op.query.derived_field, 3));
  query.diff = layers.diff.get();
  query.fd_order = op.query.fd_order;
  query.timestep = op.query.timestep;
  query.box = op.query.box.Intersection(layers.info->geometry.Bounds());
  query.threshold = op.query.threshold;
  query.bin_width = op.bin_width;
  query.num_bins = op.num_bins;
  query.k = op.k;
  query.processes = layers.d.workload.processes;
  query.options.use_cache = use_cache;
  query.options.io_only = io_only;
  const turbdb::CostModelConfig& cost = layers.d.mediator().config().cost;
  query.flops_per_process = cost.flops_per_process;
  query.effective_cores = cost.effective_cores_per_node;
  return query;
}

/// Wrapped code of extended atom coordinates (periodic grid).
uint64_t WrappedCode(const turbdb::GridGeometry& geometry, int64_t ax,
                     int64_t ay, int64_t az) {
  const int64_t c[3] = {ax, ay, az};
  uint32_t w[3];
  for (int d = 0; d < 3; ++d) {
    const int64_t na = geometry.AtomsAlong(d);
    w[d] = static_cast<uint32_t>(((c[d] % na) + na) % na);
  }
  return turbdb::MortonEncode3(w[0], w[1], w[2]);
}

/// Codes the shard reads to evaluate `box`: its owned atoms in the box
/// plus the halo band, wrapped periodically, sorted and unique.
std::vector<uint64_t> ShardReadSet(const Layers& layers,
                                   const std::vector<uint64_t>& owned,
                                   const Box3& box, int halo) {
  const turbdb::GridGeometry& geometry = layers.info->geometry;
  const int64_t w = geometry.atom_width();
  std::set<uint64_t> codes;
  for (uint64_t code : owned) {
    uint32_t ax, ay, az;
    turbdb::MortonDecode3(code, &ax, &ay, &az);
    const Box3 atom_box(ax * w, ay * w, az * w, (ax + 1) * w, (ay + 1) * w,
                        (az + 1) * w);
    const Box3 interest = atom_box.Intersection(box);
    if (interest.Empty()) continue;
    const Box3 cover = geometry.AtomCover(interest.Grown(halo));
    for (int64_t z = cover.lo[2]; z < cover.hi[2]; ++z) {
      for (int64_t y = cover.lo[1]; y < cover.hi[1]; ++y) {
        for (int64_t x = cover.lo[0]; x < cover.hi[0]; ++x) {
          codes.insert(WrappedCode(geometry, x, y, z));
        }
      }
    }
  }
  return {codes.begin(), codes.end()};
}

/// Reads `codes` of `field`, from in-process stores or over the
/// node-scoped fetch RPC of each owning forked node.
Result<std::map<uint64_t, Atom>> ReadAtoms(Layers& layers,
                                           const std::string& field,
                                           const std::vector<uint64_t>& codes) {
  std::map<int, std::vector<uint64_t>> by_owner;
  for (uint64_t code : codes) {
    by_owner[layers.partitioner->OwnerOfAtom(code)].push_back(code);
  }
  std::map<uint64_t, Atom> atoms;
  for (auto& [owner, owned] : by_owner) {
    if (layers.d.nodes) {
      turbdb::net::NodeFetchAtomsRequest request;
      request.dataset = kDataset;
      request.field = field;
      request.codes = owned;
      TURBDB_ASSIGN_OR_RETURN(
          turbdb::net::NodeFetchAtomsReply reply,
          layers.node_clients[static_cast<size_t>(owner)]->NodeFetchAtoms(
              request));
      for (Atom& atom : reply.atoms) {
        const uint64_t code = atom.key.zindex;
        atoms.emplace(code, std::move(atom));
      }
    } else {
      AtomStore* store = layers.stores.at({owner, field});
      for (uint64_t code : owned) {
        TURBDB_ASSIGN_OR_RETURN(Atom atom, store->Get(AtomKey{0, code}));
        atoms.emplace(code, std::move(atom));
      }
    }
  }
  return atoms;
}

/// A slab over a 2x2x2 block of the shard's first owned atom in the box,
/// grown by one atom on every side; `interest` is the part of the op's
/// box inside the block, where the kernel is then evaluated.
Result<turbdb::Slab> GatherBlock(Layers& layers, const Op& op,
                                 const std::vector<uint64_t>& owned,
                                 Box3* interest) {
  const turbdb::GridGeometry& geometry = layers.info->geometry;
  const int64_t w = geometry.atom_width();
  const Box3 box = op.query.box.Intersection(geometry.Bounds());
  // Anchor the block at the owned atom that overlaps the box most, and
  // extend it toward the box's interior.
  uint32_t a[3] = {0, 0, 0};
  int64_t best = -1;
  for (uint64_t code : owned) {
    uint32_t c[3];
    turbdb::MortonDecode3(code, &c[0], &c[1], &c[2]);
    const int64_t overlap =
        Box3(c[0] * w, c[1] * w, c[2] * w, (c[0] + 1) * w, (c[1] + 1) * w,
             (c[2] + 1) * w)
            .Intersection(box)
            .Volume();
    if (overlap > best) {
      best = overlap;
      std::copy(c, c + 3, a);
    }
  }
  Box3 block;
  for (int d = 0; d < 3; ++d) {
    const int64_t atom = a[d];
    const bool forward = (atom + 1) * w < box.hi[d] &&
                         atom + 1 < geometry.AtomsAlong(d);
    block.lo[d] = (forward ? atom : std::max<int64_t>(0, atom - 1)) * w;
    block.hi[d] = block.lo[d] + 2 * w;
  }
  *interest = block.Intersection(box);
  const Box3 region = block.Grown(w);
  std::vector<uint64_t> codes;
  std::vector<std::array<int64_t, 3>> positions;
  for (int64_t z = region.lo[2] / w; z < region.hi[2] / w; ++z) {
    for (int64_t y = region.lo[1] / w; y < region.hi[1] / w; ++y) {
      for (int64_t x = region.lo[0] / w; x < region.hi[0] / w; ++x) {
        codes.push_back(WrappedCode(geometry, x, y, z));
        positions.push_back({x, y, z});
      }
    }
  }
  std::vector<uint64_t> unique = codes;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  TURBDB_ASSIGN_OR_RETURN(auto atoms,
                          ReadAtoms(layers, op.query.raw_field, unique));
  turbdb::Slab slab(region, 3);
  for (size_t i = 0; i < codes.size(); ++i) {
    const auto& p = positions[i];
    slab.CopyAtom(atoms.at(codes[i]),
                  Box3(p[0] * w, p[1] * w, p[2] * w, (p[0] + 1) * w,
                       (p[1] + 1) * w, (p[2] + 1) * w));
  }
  return slab;
}

/// One shard's sub-query, timed on its own thread.
struct ShardRun {
  int shard = -1;
  Clock::time_point end;
  turbdb::IoCounters io;
  bool hit = false;
  Status status;
};

/// Runs `query` on every shard of `shard_ids` at once, as the mediator's
/// scatter does (in-process nodes share one worker pool of the mediator's
/// size; forked nodes are reached over the node-scoped execute RPC), and
/// times each from the common start.
std::vector<ShardRun> RunShards(Layers& layers,
                                const std::vector<int>& shard_ids,
                                const NodeQuery& query,
                                Clock::time_point* start) {
  std::vector<std::future<ShardRun>> futures;
  *start = Clock::now();
  for (int s : shard_ids) {
    futures.push_back(std::async(std::launch::async, [&layers, &query, s]() {
      ShardRun run;
      run.shard = s;
      if (layers.d.nodes) {
        turbdb::net::NodeExecuteRequest request;
        request.spec = turbdb::ToSpec(query);
        request.stream = query.mode == NodeQuery::Mode::kThreshold;
        auto result =
            layers.node_clients[static_cast<size_t>(s)]->NodeExecute(request);
        if (result.ok()) {
          run.io = result->io;
          run.hit = result->cache_hit;
        } else {
          run.status = result.status();
        }
      } else {
        auto result =
            layers.d.mediator().node(s).Execute(query, layers.pool.get());
        if (result.ok()) {
          run.io = result->io;
          run.hit = result->cache_hit;
        } else {
          run.status = result.status();
        }
      }
      run.end = Clock::now();
      return run;
    }));
  }
  std::vector<ShardRun> runs;
  for (auto& future : futures) runs.push_back(future.get());
  return runs;
}

/// The in-process Mediator call for `op` (the redo of the root's work).
/// `use_cache` mirrors the path the real op took.
Result<Digest> MediatorRedo(Layers& layers, const Op& op, bool use_cache) {
  turbdb::Mediator& mediator = layers.d.mediator();
  turbdb::QueryOptions options;
  options.use_cache = use_cache;
  switch (op.kind) {
    case OpKind::kThreshold: {
      TURBDB_ASSIGN_OR_RETURN(turbdb::ThresholdResult result,
                              mediator.GetThreshold(op.query, options));
      return DigestPoints(result.points);
    }
    case OpKind::kStreamed: {
      // The server's streamed path: chunks go through a sink (here they
      // are collected instead of written to a socket).
      std::vector<ThresholdPoint> collected;
      turbdb::Mediator::ThresholdChunkSink sink =
          [&collected](std::vector<ThresholdPoint> chunk,
                       uint64_t) -> Result<uint64_t> {
        const uint64_t bytes = chunk.size() * 8;
        collected.insert(collected.end(), chunk.begin(), chunk.end());
        return bytes;
      };
      TURBDB_RETURN_NOT_OK(
          mediator
              .GetThresholdStreaming(op.query, options, {}, kStreamChunkPoints,
                                     sink)
              .status());
      std::sort(collected.begin(), collected.end(),
                [](const ThresholdPoint& a, const ThresholdPoint& b) {
                  return a.zindex < b.zindex;
                });
      return DigestPoints(collected);
    }
    default:
      // PDF, top-k, stats and FoF: the mediator cache never answers them;
      // FoF sub-queries read the node caches when `use_cache` is set.
      return InProcessDigest(mediator, op, use_cache);
  }
}

/// Counters summed over the traced ops, read at the same boundaries as the
/// spans.
struct Totals {
  uint64_t node_executes = 0;
  uint64_t bytes_out = 0;
  uint64_t atoms_read = 0;
  uint64_t halo_atoms = 0;
  uint64_t points_evaluated = 0;
  uint64_t bytes_read = 0;
  uint64_t records_scanned = 0;
  uint64_t shard_outcomes = 0;
  uint64_t shard_hits = 0;
  uint64_t eval_points = 0;    ///< Raw threshold sub-queries only.
  uint64_t eval_returned = 0;
  uint64_t mediator_hits = 0;
  uint64_t mediator_lookups = 0;
};

/// What one traced op carries from one layer split to the next.
struct OpTrace {
  const Op* op = nullptr;
  uint64_t id = 0;
  Box3 box;    ///< Clipped to the grid.
  Box3 cover;  ///< Atom cover of `box`.
  std::string field_key;
  /// Shards owning atoms in the box, with those atoms.
  std::vector<std::pair<int, std::vector<uint64_t>>> shards;
  Answer answer;
  int root = -1;      ///< Span ids.
  int mediator = -1;
  bool from_cache = false;    ///< A cache tier answered all of it.
  bool redo_cache = false;    ///< The redo ran with caches on.
  bool mediator_hit = false;  ///< No node executed.
  double mediator_lookup_ms = 0.0;
  int slowest = -1;  ///< Slowest shard of the scatter, its time and span.
  double slowest_ms = 0.0;
  int slowest_span = -1;
  bool slowest_raw = false;  ///< It evaluated raw data (no cache hit).
};

/// One traced run: the replay state, per-op samples and totals.
class TracedRun {
 public:
  TracedRun(Deployment& d, Layers& layers, const std::vector<Op>& ops)
      : d_(d), layers_(layers), ops_(ops), mediator_(d.mediator()),
        cache_(mediator_.result_cache()),
        client_("127.0.0.1", d.server->port(), SingleShotOptions()) {}

  /// The generator and the store's Put on atoms of this dataset (a private
  /// store of the type the nodes use).
  Status MeasureIngest();

  /// The overhead baseline: the first ops untraced on one connection, for
  /// a quarter of `seconds` (at most 1500 ops).
  Status RunUntraced(double seconds);

  /// Workloads that write the caches start the traced pass from the same
  /// cache state: drop both tiers and warm up again.
  Status ResetCaches(const std::vector<Op>& warmup);

  /// Replays the untraced ops traced, for at most 1.5 x `seconds`.
  Status RunTracedPass(double seconds);

  LayerReport Finish();
  Status WriteSpans(const std::string& path) const {
    return tracer_.Write(path);
  }

 private:
  static turbdb::net::ClientOptions SingleShotOptions() {
    turbdb::net::ClientOptions options;
    options.max_retries = 0;
    return options;
  }
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  Status TraceOp(size_t index);
  /// Cache lookups before the root, which see the state the op will see.
  Status ProbeCaches(OpTrace* t);
  /// Every participating shard's sub-query at once; keeps the slowest.
  Status SplitNodes(OpTrace* t);
  /// The slowest shard's raw evaluation: gather, store reads, halo RPC and
  /// the kernel over a gathered slab.
  Status SplitRawEvaluation(OpTrace* t);
  /// Wire encodes of the answer; returns the part the mediator performs.
  double TimeWireCodecs(const OpTrace& t);
  Status TimeProtocolCodecs(const OpTrace& t);
  /// Cache inserts of a miss, under a scratch time-step key no query reads
  /// (the op's own entry is already resident), removed untimed.
  Status TimeInserts(const OpTrace& t, size_t index);
  Status TimeFof(const OpTrace& t);

  Deployment& d_;
  Layers& layers_;
  const std::vector<Op>& ops_;
  turbdb::Mediator& mediator_;
  turbdb::MediatorCache& cache_;
  turbdb::net::Client client_;
  Tracer tracer_{Clock::now()};
  std::vector<double> untraced_;
  std::vector<double> roots_;
  /// Metric name -> one sample per op (or per batch) that exercised it.
  std::map<std::string, std::vector<double>> samples_;
  /// Op class -> {root, mediator, slowest node} samples.
  std::map<std::string, std::array<std::vector<double>, 3>> by_class_;
  Totals totals_;
  uint64_t ops_traced_ = 0;
  uint64_t failed_ = 0;
  uint64_t failovers_before_ = 0;
  uint64_t failovers_after_ = 0;
  uint64_t evictions_before_ = 0;
};

uint64_t Failovers(turbdb::Mediator& mediator) {
  uint64_t total = 0;
  for (const auto& row : mediator.ClusterStatus()) total += row.failovers;
  return total;
}

Status TracedRun::MeasureIngest() {
  const turbdb::GridGeometry& geometry = layers_.info->geometry;
  turbdb::SyntheticField generator(turbdb::DefaultMhdSpec(kDataSeed), geometry,
                                   3);
  turbdb::InMemoryAtomStore store;
  const uint64_t atoms = std::min<uint64_t>(128, geometry.NumAtoms());
  constexpr uint64_t kBatch = 16;
  for (uint64_t begin = 0; begin < atoms; begin += kBatch) {
    std::vector<Atom> batch;
    const auto t0 = Clock::now();
    for (uint64_t code = begin; code < begin + kBatch; ++code) {
      TURBDB_ASSIGN_OR_RETURN(Atom atom, generator.GenerateAtom(0, code));
      batch.push_back(std::move(atom));
    }
    const auto t1 = Clock::now();
    for (const Atom& atom : batch) TURBDB_RETURN_NOT_OK(store.Put(atom));
    const auto t2 = Clock::now();
    Sample("datagen.us_per_atom", MsSince(t0, t1) * 1e3 / kBatch);
    Sample("storage.put_us_per_atom", MsSince(t1, t2) * 1e3 / kBatch);
  }
  return Status::OK();
}

Status TracedRun::RunUntraced(double seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.25 * seconds));
  for (size_t i = 0; i < ops_.size() && i < 1500 && Clock::now() < deadline;
       ++i) {
    const auto t0 = Clock::now();
    Answer answer = RunOp(client_, ops_[i]);
    untraced_.push_back(MsSince(t0, Clock::now()));
    if (!answer.status.ok()) return answer.status;
  }
  return Status::OK();
}

Status TracedRun::ResetCaches(const std::vector<Op>& warmup) {
  for (const auto& [raw, derived] :
       {std::pair{"velocity", "vorticity"}, {"velocity", "q_criterion"},
        {"magnetic", "current"}, {"magnetic", "magnitude"}}) {
    TURBDB_RETURN_NOT_OK(mediator_.DropCacheEntries(kDataset, raw, derived, -1));
  }
  for (const Op& op : warmup) {
    Answer answer = RunOp(client_, op);
    if (!answer.status.ok()) return answer.status;
  }
  return Status::OK();
}

Status TracedRun::RunTracedPass(double seconds) {
  failovers_before_ = Failovers(mediator_);
  evictions_before_ = cache_.stats().evictions;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(1.5 * seconds));
  for (size_t i = 0; i < untraced_.size() && Clock::now() < deadline; ++i) {
    TURBDB_RETURN_NOT_OK(TraceOp(i));
  }
  failovers_after_ = Failovers(mediator_);
  return Status::OK();
}

Status TracedRun::TraceOp(size_t index) {
  OpTrace t;
  t.op = &ops_[index];
  const Op& op = *t.op;
  t.id = index;
  const turbdb::GridGeometry& geometry = layers_.info->geometry;
  t.box = op.query.box.Intersection(geometry.Bounds());
  t.cover = geometry.AtomCover(t.box);
  t.field_key = op.query.raw_field + ":" + op.query.derived_field;
  for (int s = 0; s < d_.workload.shards; ++s) {
    std::vector<uint64_t> owned =
        turbdb::OwnedAtomsInBox(*layers_.partitioner, layers_.view, s, t.cover);
    if (!owned.empty()) t.shards.emplace_back(s, std::move(owned));
  }
  // Probe spans are recorded under the mediator span once it exists.
  struct Probe {
    const char* name;
    Clock::time_point start, end;
  };
  std::vector<Probe> probes;
  if (IsThreshold(op.kind) && cache_.enabled()) {
    const auto t0 = Clock::now();
    cache_.Lookup(kDataset, t.field_key, op.query.fd_order, op.query.timestep,
                  t.box, op.query.threshold);
    probes.push_back({"cache.mediator_lookup", t0, Clock::now()});
    t.mediator_lookup_ms = MsSince(t0, probes.back().end);
    Sample("cache.mediator_lookup_ms", t.mediator_lookup_ms);
  }
  if (IsThreshold(op.kind) && !d_.nodes && d_.workload.name != "hot_results") {
    double slowest = 0.0;
    for (const auto& entry : t.shards) {
      const auto t0 = Clock::now();
      auto lookup = mediator_.node(entry.first).cache().Lookup(
          kDataset, t.field_key, op.query.timestep, op.query.fd_order, t.box,
          op.query.threshold);
      probes.push_back({"cache.node_lookup", t0, Clock::now()});
      slowest = std::max(slowest, MsSince(t0, probes.back().end));
      if (!lookup.ok()) return lookup.status();
      totals_.records_scanned += lookup->io.cache_records_scanned;
    }
    Sample("cache.node_lookup_ms", slowest);
  }

  // Root: the client call, with the counters read at its boundaries.
  const turbdb::MediatorCacheStats cache_before = cache_.stats();
  const uint64_t executes_before = mediator_.node_executes();
  const uint64_t bytes_before = d_.server->stats().bytes_out;
  Scope root(tracer_, "op", -1, t.id);
  t.answer = RunOp(client_, op, /*keep=*/true);
  const double root_ms = root.Stop();
  t.root = root.id();
  const turbdb::MediatorCacheStats cache_after = cache_.stats();
  const uint64_t executes = mediator_.node_executes() - executes_before;
  totals_.node_executes += executes;
  totals_.bytes_out += d_.server->stats().bytes_out - bytes_before;
  totals_.mediator_hits += cache_after.hits - cache_before.hits;
  totals_.mediator_lookups += (cache_after.hits - cache_before.hits) +
                              (cache_after.misses - cache_before.misses);
  ++ops_traced_;
  roots_.push_back(root_ms);
  if (!t.answer.status.ok()) {
    ++failed_;
    return Status::OK();
  }
  t.from_cache = IsThreshold(op.kind) && t.answer.all_cache_hits;
  t.mediator_hit = t.from_cache && executes == 0;

  // cluster.mediator: the in-process call for the same op, along the path
  // the op took (caches bypassed when it was evaluated raw; FoF always
  // reads the node caches).
  t.redo_cache = t.from_cache || op.kind == OpKind::kFof;
  Scope mediator_span(tracer_, "cluster.mediator", t.root, t.id);
  auto redo = MediatorRedo(layers_, op, t.redo_cache);
  const double mediator_ms = mediator_span.Stop();
  t.mediator = mediator_span.id();
  for (const Probe& probe : probes) {
    tracer_.Add(probe.name, t.mediator, t.id, probe.start, probe.end);
  }
  if (!redo.ok()) return redo.status();
  if (*redo != t.answer.digest) ++failed_;
  Sample("cluster.mediator_ms", mediator_ms);
  Sample("net.rpc_self_ms", root_ms - mediator_ms);

  t.slowest_span = t.mediator;
  if (!t.mediator_hit) TURBDB_RETURN_NOT_OK(SplitNodes(&t));
  if (t.slowest >= 0 && t.slowest_raw) {
    TURBDB_RETURN_NOT_OK(SplitRawEvaluation(&t));
  }
  const double wire_ms = TimeWireCodecs(t);
  TURBDB_RETURN_NOT_OK(TimeProtocolCodecs(t));
  if (IsThreshold(op.kind) && !t.from_cache) {
    TURBDB_RETURN_NOT_OK(TimeInserts(t, index));
  }
  if (op.kind == OpKind::kFof) TURBDB_RETURN_NOT_OK(TimeFof(t));

  std::string cls = OpKindName(op.kind);
  if (IsThreshold(op.kind)) cls += t.from_cache ? "_hit" : "_miss";
  auto& class_samples = by_class_[cls];
  class_samples[0].push_back(root_ms);
  class_samples[1].push_back(mediator_ms);
  if (t.slowest >= 0) class_samples[2].push_back(t.slowest_ms);

  // What the mediator did besides its children.
  const bool redo_looked_up =
      t.redo_cache && IsThreshold(op.kind) && cache_.enabled();
  Sample("cluster.mediator_self_ms",
         mediator_ms - t.slowest_ms -
             (redo_looked_up ? t.mediator_lookup_ms : 0.0) - wire_ms);
  return Status::OK();
}

Status TracedRun::SplitNodes(OpTrace* t) {
  const Op& op = *t->op;
  Scope route(tracer_, "membership.route", t->mediator, t->id);
  for (int s = 0; s < d_.workload.shards; ++s) {
    turbdb::OwnedAtomsInBox(*layers_.partitioner, layers_.view, s, t->cover);
  }
  Sample("membership.route_us_per_op", route.Stop() * 1e3);
  TURBDB_ASSIGN_OR_RETURN(NodeQuery query,
                          BuildNodeQuery(layers_, op, t->redo_cache, false));
  std::vector<int> shard_ids;
  for (const auto& entry : t->shards) shard_ids.push_back(entry.first);
  Clock::time_point start;
  const std::vector<ShardRun> runs =
      RunShards(layers_, shard_ids, query, &start);
  for (const ShardRun& run : runs) {
    if (!run.status.ok()) return run.status;
    const int span =
        tracer_.Add(d_.nodes ? "net.node_rpc" : "cluster.node_execute",
                    t->mediator, t->id, start, run.end);
    const turbdb::IoCounters& io = run.io;
    totals_.atoms_read += io.atoms_read_local + io.atoms_read_remote;
    totals_.halo_atoms += io.atoms_read_remote;
    totals_.points_evaluated += io.points_evaluated;
    totals_.bytes_read += io.bytes_read_local + io.bytes_read_remote;
    totals_.records_scanned += io.cache_records_scanned;
    ++totals_.shard_outcomes;
    totals_.shard_hits += run.hit ? 1 : 0;
    if (IsThreshold(op.kind) && !run.hit) {
      totals_.eval_points += io.points_evaluated;
      totals_.eval_returned += io.points_returned;
    }
    const double ms = MsSince(start, run.end);
    if (ms > t->slowest_ms) {
      t->slowest_ms = ms;
      t->slowest = run.shard;
      t->slowest_span = span;
      t->slowest_raw = !run.hit;
    }
  }
  Sample(d_.nodes ? "net.node_rpc_ms" : "cluster.node_execute_ms",
         t->slowest_ms);
  return Status::OK();
}

Status TracedRun::SplitRawEvaluation(OpTrace* t) {
  const Op& op = *t->op;
  const std::vector<uint64_t>& owned =
      std::find_if(t->shards.begin(), t->shards.end(),
                   [t](const auto& entry) { return entry.first == t->slowest; })
          ->second;
  TURBDB_ASSIGN_OR_RETURN(auto kernel,
                          layers_.registry.Create(op.query.derived_field, 3));
  const std::vector<uint64_t> read_set = ShardReadSet(
      layers_, owned, t->box, kernel->HaloWidth(op.query.fd_order));
  if (!d_.nodes) {
    // Gather: the same scatter with io_only, the slowest shard's time.
    TURBDB_ASSIGN_OR_RETURN(NodeQuery query,
                            BuildNodeQuery(layers_, op, false, true));
    std::vector<int> shard_ids;
    for (const auto& entry : t->shards) shard_ids.push_back(entry.first);
    Clock::time_point start;
    const std::vector<ShardRun> runs =
        RunShards(layers_, shard_ids, query, &start);
    Clock::time_point end = start;
    for (const ShardRun& run : runs) {
      if (!run.status.ok()) return run.status;
      if (run.shard == t->slowest) end = run.end;
    }
    const int gather =
        tracer_.Add("cluster.gather", t->slowest_span, t->id, start, end);
    Sample("cluster.gather_ms", MsSince(start, end));
    Scope get(tracer_, "storage.get", gather, t->id);
    auto atoms = ReadAtoms(layers_, op.query.raw_field, read_set);
    const double get_ms = get.Stop();
    if (!atoms.ok()) return atoms.status();
    Sample("storage.get_us_per_atom",
           get_ms * 1e3 / static_cast<double>(read_set.size()));
  } else {
    std::vector<uint64_t> halo_codes;
    for (uint64_t code : read_set) {
      if (layers_.partitioner->OwnerOfAtom(code) != t->slowest) {
        halo_codes.push_back(code);
      }
    }
    if (!halo_codes.empty()) {
      Scope span(tracer_, "net.halo_rpc", t->slowest_span, t->id);
      auto atoms = ReadAtoms(layers_, op.query.raw_field, halo_codes);
      Sample("net.halo_rpc_ms", span.Stop());
      if (!atoms.ok()) return atoms.status();
    }
  }
  Box3 interest;
  TURBDB_ASSIGN_OR_RETURN(turbdb::Slab slab,
                          GatherBlock(layers_, op, owned, &interest));
  Scope kernel_span(tracer_, KernelSpanName(op.query.derived_field),
                    t->slowest_span, t->id);
  double sink = 0.0;
  for (int64_t z = interest.lo[2]; z < interest.hi[2]; ++z) {
    for (int64_t y = interest.lo[1]; y < interest.hi[1]; ++y) {
      for (int64_t x = interest.lo[0]; x < interest.hi[0]; ++x) {
        sink += kernel->NormAt(slab, *layers_.diff, x, y, z);
      }
    }
  }
  const double kernel_ms = kernel_span.Stop();
  if (interest.Volume() > 0 && std::isfinite(sink)) {
    Sample("fields." + op.query.derived_field + "_ns_per_point",
           kernel_ms * 1e6 / static_cast<double>(interest.Volume()));
  }
  return Status::OK();
}

double TracedRun::TimeWireCodecs(const OpTrace& t) {
  const Op& op = *t.op;
  const std::vector<ThresholdPoint>* points =
      IsThreshold(op.kind)         ? &t.answer.threshold.points
      : op.kind == OpKind::kTopK ? &t.answer.topk.points
                                   : nullptr;
  if (points == nullptr) return 0.0;
  Scope xml(tracer_, "wire.xml_encode", t.mediator, t.id);
  turbdb::EncodePointsXml(*points);
  const double xml_ms = xml.Stop();
  Scope binary(tracer_, "wire.binary_encode", t.mediator, t.id);
  turbdb::EncodePointsBinary(*points);
  const double binary_ms = binary.Stop();
  Sample("wire.xml_encode_ms", xml_ms);
  Sample("wire.binary_encode_ms", binary_ms);
  Sample("wire.points_per_op", static_cast<double>(points->size()));
  // The streamed mediator path renders XML per chunk but never the whole
  // binary frame.
  return xml_ms + (op.kind == OpKind::kStreamed ? 0.0 : binary_ms);
}

Status TracedRun::TimeProtocolCodecs(const OpTrace& t) {
  const Op& op = *t.op;
  const Answer& answer = t.answer;
  Scope encode(tracer_, "net.encode", t.root, t.id);
  std::vector<std::vector<uint8_t>> frames;
  if (op.kind == OpKind::kStreamed) {
    // The server's chunking: chunks of at most kStreamChunkPoints points,
    // then the summary frame.
    const auto& all = answer.threshold.points;
    uint64_t seq = 0;
    for (size_t begin = 0; begin < all.size(); begin += kStreamChunkPoints) {
      turbdb::net::ThresholdChunk chunk;
      chunk.seq = seq++;
      chunk.points.assign(
          all.begin() + static_cast<ptrdiff_t>(begin),
          all.begin() + static_cast<ptrdiff_t>(
                            std::min<size_t>(all.size(), begin + kStreamChunkPoints)));
      chunk.total_points = begin + chunk.points.size();
      frames.push_back(turbdb::net::EncodeThresholdChunk(chunk));
    }
    turbdb::ThresholdResult summary = answer.threshold;
    summary.points.clear();
    frames.push_back(turbdb::net::EncodeResponse(summary));
  } else if (op.kind == OpKind::kThreshold) {
    frames.push_back(turbdb::net::EncodeResponse(answer.threshold));
  } else if (op.kind == OpKind::kPdf) {
    frames.push_back(turbdb::net::EncodeResponse(answer.pdf));
  } else if (op.kind == OpKind::kTopK) {
    frames.push_back(turbdb::net::EncodeResponse(answer.topk));
  } else if (op.kind == OpKind::kStats) {
    frames.push_back(turbdb::net::EncodeResponse(answer.stats));
  } else {
    turbdb::net::FofChunk chunk;
    chunk.clusters = answer.fof.clusters;
    chunk.total_clusters = answer.fof.clusters.size();
    frames.push_back(turbdb::net::EncodeFofChunk(chunk));
    frames.push_back(turbdb::net::EncodeFofResponse(answer.fof.summary));
  }
  Sample("net.encode_ms", encode.Stop());
  Scope decode(tracer_, "net.decode", t.root, t.id);
  Status decoded;
  for (size_t f = 0; f < frames.size() && decoded.ok(); ++f) {
    const bool last = f + 1 == frames.size();
    switch (op.kind) {
      case OpKind::kStreamed:
        decoded = last ? turbdb::net::DecodeThresholdResponse(frames[f]).status()
                       : turbdb::net::DecodeThresholdChunk(frames[f]).status();
        break;
      case OpKind::kThreshold:
        decoded = turbdb::net::DecodeThresholdResponse(frames[f]).status();
        break;
      case OpKind::kPdf:
        decoded = turbdb::net::DecodePdfResponse(frames[f]).status();
        break;
      case OpKind::kTopK:
        decoded = turbdb::net::DecodeTopKResponse(frames[f]).status();
        break;
      case OpKind::kStats:
        decoded = turbdb::net::DecodeFieldStatsResponse(frames[f]).status();
        break;
      case OpKind::kFof:
        decoded = last ? turbdb::net::DecodeFofResponse(frames[f]).status()
                       : turbdb::net::DecodeFofChunk(frames[f]).status();
        break;
    }
  }
  Sample("net.decode_ms", decode.Stop());
  return decoded;
}

Status TracedRun::TimeInserts(const OpTrace& t, size_t index) {
  const Op& op = *t.op;
  // A time-step far past the dataset's last, so no query reads it. It must
  // not be negative: both caches read a negative time-step in Invalidate and
  // Evict as "every time-step" and would drop the field's real entries.
  const int32_t scratch = 1000000 + static_cast<int32_t>(index % 1000000);
  if (cache_.enabled()) {
    const turbdb::MediatorCacheStats before = cache_.stats();
    Scope span(tracer_, "cache.mediator_insert", t.mediator, t.id);
    cache_.Insert(kDataset, t.field_key, op.query.fd_order, scratch, t.box,
                  op.query.threshold, t.answer.threshold.points,
                  cache_.epoch());
    Sample("cache.mediator_insert_ms", span.Stop());
    cache_.Invalidate(kDataset, t.field_key, scratch);
    const turbdb::MediatorCacheStats after = cache_.stats();
    if (after.entries + (after.evictions - before.evictions) != before.entries) {
      return Status::Internal("scratch insert changed the mediator cache's entries");
    }
  }
  if (d_.nodes || t.slowest < 0) return Status::OK();
  // The slowest shard's share of the answer, into its node cache.
  const int64_t w = layers_.info->geometry.atom_width();
  std::vector<ThresholdPoint> shard_points;
  for (const ThresholdPoint& point : t.answer.threshold.points) {
    uint32_t x, y, z;
    point.Coords(&x, &y, &z);
    if (layers_.partitioner->OwnerOfAtom(turbdb::MortonEncode3(
            x / w, y / w, z / w)) == t.slowest) {
      shard_points.push_back(point);
    }
  }
  turbdb::SemanticCache& cache = mediator_.node(t.slowest).cache();
  const uint64_t entries = cache.entry_count();
  Scope span(tracer_, "cache.node_insert", t.mediator, t.id);
  Status inserted = cache.Insert(kDataset, t.field_key, scratch,
                                 op.query.fd_order, t.box, op.query.threshold,
                                 shard_points);
  Sample("cache.node_insert_ms", span.Stop());
  TURBDB_RETURN_NOT_OK(inserted);
  TURBDB_RETURN_NOT_OK(cache.Evict(kDataset, t.field_key, scratch));
  if (cache.entry_count() != entries) {
    return Status::Internal("scratch insert changed the node cache's entries");
  }
  return Status::OK();
}

Status TracedRun::TimeFof(const OpTrace& t) {
  const Op& op = *t.op;
  const turbdb::GridGeometry& geometry = layers_.info->geometry;
  TURBDB_ASSIGN_OR_RETURN(turbdb::ThresholdResult threshold,
                          mediator_.GetThreshold(op.query));
  turbdb::FofParams params;
  params.linking_length = op.linking_length;
  for (int axis = 0; axis < 3; ++axis) {
    params.periodic_extent[axis] =
        geometry.periodic(axis) ? static_cast<double>(geometry.extent(axis))
                                : 0.0;
  }
  const std::vector<turbdb::FofPoint> points =
      turbdb::ToFofPoints(threshold.points, op.query.timestep);
  Scope span(tracer_, "analysis.fof", t.mediator, t.id);
  auto clusters = turbdb::FriendsOfFriends(points, params);
  Sample("analysis.fof_ms", span.Stop());
  return clusters.status();
}

LayerReport TracedRun::Finish() {
  LayerReport report;
  report.ops = ops_traced_;
  report.failed = failed_;
  auto median = [&](const std::string& name, const char* unit) {
    LayerReport::Value value;
    value.unit = unit;
    auto it = samples_.find(name);
    if (it != samples_.end()) {
      value.value = MedianOf(it->second);
      value.samples = it->second.size();
    }
    report.metrics.emplace_back(name, value);
  };
  auto counter = [&](const std::string& name, uint64_t total, uint64_t base,
                     const char* unit) {
    LayerReport::Value value;
    value.unit = unit;
    value.value =
        base > 0 ? static_cast<double>(total) / static_cast<double>(base) : 0.0;
    value.samples = base;
    report.metrics.emplace_back(name, value);
  };
  const Totals& s = totals_;
  const uint64_t ops = ops_traced_;
  median("net.rpc_self_ms", "ms");
  median("net.encode_ms", "ms");
  median("net.decode_ms", "ms");
  counter("net.bytes_out_per_op", s.bytes_out, ops, "bytes");
  median("net.node_rpc_ms", "ms");
  median("net.halo_rpc_ms", "ms");
  median("cluster.mediator_ms", "ms");
  median("cluster.mediator_self_ms", "ms");
  median("cluster.node_execute_ms", "ms");
  median("cluster.gather_ms", "ms");
  counter("cluster.node_executes_per_op", s.node_executes, ops, "count");
  counter("cluster.atoms_read_per_op", s.atoms_read, ops, "count");
  counter("cluster.halo_atoms_per_op", s.halo_atoms, ops, "count");
  counter("cluster.points_evaluated_per_op", s.points_evaluated, ops, "count");
  counter("cluster.useful_eval_ratio", s.eval_returned, s.eval_points, "ratio");
  median("fields.vorticity_ns_per_point", "ns");
  median("fields.q_criterion_ns_per_point", "ns");
  median("fields.current_ns_per_point", "ns");
  median("fields.magnitude_ns_per_point", "ns");
  median("storage.get_us_per_atom", "us");
  counter("storage.bytes_read_per_op", s.bytes_read, ops, "bytes");
  median("storage.put_us_per_atom", "us");
  median("datagen.us_per_atom", "us");
  median("cache.mediator_lookup_ms", "ms");
  median("cache.mediator_insert_ms", "ms");
  counter("cache.mediator_hit_ratio", s.mediator_hits, s.mediator_lookups,
          "ratio");
  counter("cache.mediator_evictions",
          cache_.stats().evictions - evictions_before_, 1, "count");
  median("cache.node_lookup_ms", "ms");
  median("cache.node_insert_ms", "ms");
  counter("cache.node_records_scanned_per_op", s.records_scanned, ops, "count");
  counter("cache.node_hit_ratio", s.shard_hits, s.shard_outcomes, "ratio");
  median("wire.xml_encode_ms", "ms");
  median("wire.binary_encode_ms", "ms");
  median("wire.points_per_op", "count");
  median("analysis.fof_ms", "ms");
  median("membership.route_us_per_op", "us");
  counter("replication.failovers", failovers_after_ - failovers_before_, 1,
          "count");

  for (const auto& [cls, values] : by_class_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"n\": %zu, \"root_p50_ms\": %.4f, "
                  "\"mediator_p50_ms\": %.4f, \"%s_p50_ms\": %.4f, "
                  "\"node_n\": %zu}",
                  report.classes_json.empty() ? "" : ", ", cls.c_str(),
                  values[0].size(), MedianOf(values[0]), MedianOf(values[1]),
                  d_.nodes ? "node_rpc" : "node_execute", MedianOf(values[2]),
                  values[2].size());
    report.classes_json += buf;
  }
  report.traced_root_p50_ms = MedianOf(roots_);
  report.untraced_root_p50_ms = MedianOf(std::vector<double>(
      untraced_.begin(),
      untraced_.begin() + static_cast<ptrdiff_t>(roots_.size())));
  return report;
}

}  // namespace

Result<LayerReport> RunTraced(Deployment& d, const std::vector<Op>& ops,
                              const std::vector<Op>& warmup, double seconds,
                              const std::string& span_path) {
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<Layers> layers, MakeLayers(d));
  TracedRun run(d, *layers, ops);
  TURBDB_RETURN_NOT_OK(run.MeasureIngest());
  TURBDB_RETURN_NOT_OK(run.RunUntraced(seconds));
  if (d.workload.name != "hot_results") {
    TURBDB_RETURN_NOT_OK(run.ResetCaches(warmup));
  }
  TURBDB_RETURN_NOT_OK(run.RunTracedPass(seconds));
  TURBDB_RETURN_NOT_OK(run.WriteSpans(span_path));
  return run.Finish();
}

}  // namespace perfbench
