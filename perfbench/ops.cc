// Workload definitions, seeded op generation, answer digests and the
// uncached reference recomputation.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

using turbdb::Box3;
using turbdb::MixSeed;
using turbdb::SplitMix64;
using turbdb::ThresholdPoint;

WorkloadConfig MakeWorkload(const std::string& name, bool smoke) {
  WorkloadConfig workload;
  workload.name = name;
  if (name == "cold_eval") {
    // 64^3 MHD time-step (velocity + magnetic, ~6 MB of atoms) on
    // 4 shards x 4 processes; every op evaluates raw data. At 128^3 the
    // atoms (~50 MB) outgrow the host's caches and the run-to-run spread
    // followed whatever else the host was doing.
    workload.n = 64;
    workload.ops_per_connection = 16384;
  } else if (name == "hot_results") {
    // Same shape on 64^3; a warm pool of threshold results. Two
    // connections: with four, the single-threaded encode work of the hits
    // kept every core busy and the run-to-run spread widened.
    workload.n = 64;
    workload.connections = 2;
  } else if (name == "cluster_tcp") {
    // 2 forked turbdb_node processes (R=1, volatile stores); the
    // mediator cache is off so repeats reach the node caches.
    workload.n = 64;
    workload.shards = 2;
    workload.processes = 2;
    workload.connections = 2;
    workload.mediator_cache_bytes = 0;
    workload.forked = true;
    workload.node_workers = 2;
  } else {
    workload.name.clear();
    return workload;
  }
  if (smoke) workload.n = 32;
  return workload;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kThreshold: return "threshold";
    case OpKind::kStreamed: return "threshold_streamed";
    case OpKind::kPdf: return "pdf";
    case OpKind::kTopK: return "topk";
    case OpKind::kStats: return "stats";
    case OpKind::kFof: return "fof";
  }
  return "?";
}

double FieldRms::For(const std::string& derived) const {
  if (derived == "vorticity") return vorticity;
  if (derived == "q_criterion") return q_criterion;
  if (derived == "current") return current;
  return magnitude;
}

namespace {

struct FieldChoice {
  const char* raw;
  const char* derived;
};

constexpr FieldChoice kVorticity{"velocity", "vorticity"};
constexpr FieldChoice kQCriterion{"velocity", "q_criterion"};
constexpr FieldChoice kCurrent{"magnetic", "current"};
constexpr FieldChoice kMagnitude{"magnetic", "magnitude"};

Op MakeOp(OpKind kind, const FieldChoice& field, const Box3& box,
          double threshold) {
  Op op;
  op.kind = kind;
  op.query.dataset = kDataset;
  op.query.raw_field = field.raw;
  op.query.derived_field = field.derived;
  op.query.timestep = 0;
  op.query.box = box;
  op.query.threshold = threshold;
  op.query.fd_order = 4;
  return op;
}

/// A `side`^3 box whose low corner is uniform in [lo_min, lo_max] per axis.
Box3 RandomBox(SplitMix64& rng, int64_t side, int64_t lo_min, int64_t lo_max) {
  int64_t lo[3];
  for (int64_t& v : lo) {
    v = lo_min +
        static_cast<int64_t>(rng.NextBounded(
            static_cast<uint64_t>(lo_max - lo_min + 1)));
  }
  return Box3(lo[0], lo[1], lo[2], lo[0] + side, lo[1] + side, lo[2] + side);
}

/// A random box with half the extent of `outer` along every axis, inside it.
Box3 RandomSubBox(SplitMix64& rng, const Box3& outer) {
  Box3 box;
  for (int d = 0; d < 3; ++d) {
    const int64_t half = outer.Extent(d) / 2;
    const int64_t lo =
        outer.lo[d] + static_cast<int64_t>(rng.NextBounded(
                          static_cast<uint64_t>(outer.Extent(d) - half + 1)));
    box.lo[d] = lo;
    box.hi[d] = lo + half;
  }
  return box;
}

/// Items dealt in a fresh shuffle per round: every `size()` consecutive
/// draws hold each item exactly once, so an op list's mix of kinds, fields
/// and pool entries is exact in every block instead of right on average
/// (which keeps the metrics from depending on the seed's luck).
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> items, SplitMix64* rng)
      : items_(std::move(items)), rng_(rng), next_(items_.size()) {}

  const T& Draw() {
    if (next_ == items_.size()) {
      for (size_t i = items_.size(); i > 1; --i) {
        std::swap(items_[i - 1], items_[rng_->NextBounded(i)]);
      }
      next_ = 0;
    }
    return items_[next_++];
  }

 private:
  std::vector<T> items_;
  SplitMix64* rng_;
  size_t next_;
};

// -- cold_eval ---------------------------------------------------------------

/// Every (kind, field) pair of cold_eval's mix: 55% thresholds, 15% each
/// PDF, top-k and stats, over the four fields.
std::vector<std::pair<OpKind, FieldChoice>> ColdEvalMix() {
  std::vector<std::pair<OpKind, FieldChoice>> mix;
  for (const FieldChoice& field :
       {kVorticity, kQCriterion, kCurrent, kMagnitude}) {
    for (int i = 0; i < 11; ++i) mix.emplace_back(OpKind::kThreshold, field);
    for (OpKind kind : {OpKind::kPdf, OpKind::kTopK, OpKind::kStats}) {
      for (int i = 0; i < 3; ++i) mix.emplace_back(kind, field);
    }
  }
  return mix;
}

/// Random n/2-sided boxes whose low corner lies in [n/16, n/2 - n/16], so
/// each box crosses the grid's mid-planes and therefore every shard.
Op ColdEvalOp(SplitMix64& rng, OpKind kind, const FieldChoice& field,
              int64_t n, const FieldRms& rms) {
  const Box3 box = RandomBox(rng, n / 2, n / 16, n / 2 - n / 16);
  const double field_rms = rms.For(field.derived);
  switch (kind) {
    case OpKind::kPdf: {
      Op op = MakeOp(OpKind::kPdf, field, box, 0.0);
      op.bin_width = field_rms;
      op.num_bins = 16;
      return op;
    }
    case OpKind::kTopK: {
      Op op = MakeOp(OpKind::kTopK, field, box, 0.0);
      op.k = 1000;
      return op;
    }
    case OpKind::kStats:
      return MakeOp(OpKind::kStats, field, box, 0.0);
    default:
      // Table 1's levels: 4.4-8 x RMS.
      return MakeOp(OpKind::kThreshold, field, box,
                    rng.NextDouble(4.4, 8.0) * field_rms);
  }
}

// -- hot_results -------------------------------------------------------------

constexpr uint64_t kPoolSeed = 0x706f6f6c;
constexpr int kPoolBases = 8;
constexpr int kPoolSize = kPoolBases * 4;

/// 8 whole- or half-grid vorticity/current queries at 1-2.5 x RMS, each
/// followed by 3 subsumed variants: a sub-box, a threshold x1.1-1.3, and
/// a sub-box at x1.3-1.5. Levels are stratified, one per equal slice.
///
/// The pool is a constant of the workload (drawn from a fixed seed): its
/// answer sizes set every latency of the workload, so a per-seed pool
/// would make the metrics depend on the seed more than on the code. The
/// run's seed drives the op sequence over the pool.
std::vector<Op> HotPool(int64_t n, const FieldRms& rms) {
  SplitMix64 rng(kPoolSeed);
  std::vector<Op> pool;
  for (int b = 0; b < kPoolBases; ++b) {
    const FieldChoice& field = (b / 2) % 2 == 0 ? kVorticity : kCurrent;
    Box3 box = Box3::WholeGrid(n, n, n);
    if (b % 2 == 1) {
      const int axis = static_cast<int>(rng.NextBounded(3));
      const int64_t lo = rng.NextBounded(2) == 0 ? 0 : n / 2;
      box.lo[axis] = lo;
      box.hi[axis] = lo + n / 2;
    }
    const double level = 1.0 + 1.5 * (b + rng.NextDouble()) / kPoolBases;
    const double threshold = level * rms.For(field.derived);
    pool.push_back(MakeOp(OpKind::kThreshold, field, box, threshold));
    pool.push_back(
        MakeOp(OpKind::kThreshold, field, RandomSubBox(rng, box), threshold));
    pool.push_back(MakeOp(OpKind::kThreshold, field, box,
                          threshold * rng.NextDouble(1.1, 1.3)));
    pool.push_back(MakeOp(OpKind::kThreshold, field, RandomSubBox(rng, box),
                          threshold * rng.NextDouble(1.3, 1.5)));
  }
  for (int i = 0; i < kPoolSize; ++i) {
    pool[static_cast<size_t>(i)].answer_key = i;
  }
  return pool;
}

// -- cluster_tcp -------------------------------------------------------------

constexpr int kRepeats = 4;
constexpr int kFofLevels = 8;

/// The 4 whole-grid vorticity queries (1.5-2.5 x RMS) that repeat, and the
/// 8 FoF threshold levels (2.5-3.5 x RMS, so every FoF sub-query is
/// subsumed by a repeat's node-cache entry). Like the hot pool, these are
/// constants of the workload; the seed drives the cold queries and the
/// op sequence.
struct ClusterPool {
  std::vector<Op> repeats;
  std::vector<Op> fof;
};

ClusterPool MakeClusterPool(int64_t n, const FieldRms& rms) {
  SplitMix64 rng(MixSeed(kPoolSeed, 2));
  ClusterPool pool;
  const Box3 grid = Box3::WholeGrid(n, n, n);
  // Stratified levels, as in the hot pool: one per equal slice.
  for (int i = 0; i < kRepeats; ++i) {
    const double level = 1.5 + (i + rng.NextDouble()) / kRepeats;
    Op op = MakeOp(OpKind::kThreshold, kVorticity, grid,
                   level * rms.vorticity);
    op.answer_key = 100 + i;
    pool.repeats.push_back(op);
  }
  for (int i = 0; i < kFofLevels; ++i) {
    const double level = 2.5 + (i + rng.NextDouble()) / kFofLevels;
    Op op = MakeOp(OpKind::kFof, kVorticity, grid, level * rms.vorticity);
    op.linking_length = 2.0;
    op.answer_key = 200 + i;
    pool.fof.push_back(op);
  }
  return pool;
}

Op ClusterColdOp(SplitMix64& rng, const FieldChoice& field, int64_t n,
                 const FieldRms& rms) {
  const Box3 box = RandomBox(rng, n / 2, 0, n / 2);
  return MakeOp(OpKind::kThreshold, field, box,
                rng.NextDouble(3.0, 6.0) * rms.For(field.derived));
}

}  // namespace

std::vector<std::vector<Op>> GenerateOps(const WorkloadConfig& workload,
                                         uint64_t seed, const FieldRms& rms) {
  std::vector<std::vector<Op>> lists(
      static_cast<size_t>(workload.connections));
  const int64_t n = workload.n;
  for (size_t c = 0; c < lists.size(); ++c) {
    SplitMix64 rng(MixSeed(seed, 1000 + c));
    std::vector<Op>& list = lists[c];
    list.reserve(workload.ops_per_connection);
    if (workload.name == "cold_eval") {
      Deck<std::pair<OpKind, FieldChoice>> mix(ColdEvalMix(), &rng);
      while (list.size() < workload.ops_per_connection) {
        const auto& [kind, field] = mix.Draw();
        list.push_back(ColdEvalOp(rng, kind, field, n, rms));
      }
    } else if (workload.name == "hot_results") {
      // Every pool query once buffered and once streamed per 64 ops.
      std::vector<Op> both;
      for (Op op : HotPool(n, rms)) {
        both.push_back(op);
        op.kind = OpKind::kStreamed;
        both.push_back(op);
      }
      Deck<Op> deck(std::move(both), &rng);
      while (list.size() < workload.ops_per_connection) {
        list.push_back(deck.Draw());
      }
    } else {
      // 40% cold thresholds, 30% repeats, 30% FoF per 10 ops.
      const ClusterPool pool = MakeClusterPool(n, rms);
      Deck<int> slots({0, 0, 0, 0, 1, 1, 1, 2, 2, 2}, &rng);
      Deck<Op> repeats(pool.repeats, &rng);
      Deck<Op> fof(pool.fof, &rng);
      Deck<FieldChoice> fields({kQCriterion, kCurrent}, &rng);
      while (list.size() < workload.ops_per_connection) {
        switch (slots.Draw()) {
          case 0:
            list.push_back(ClusterColdOp(rng, fields.Draw(), n, rms));
            break;
          case 1:
            list.push_back(repeats.Draw());
            break;
          default:
            list.push_back(fof.Draw());
            break;
        }
      }
    }
  }
  return lists;
}

std::vector<Op> WarmupOps(const WorkloadConfig& workload, uint64_t seed,
                          const FieldRms& rms) {
  std::vector<Op> ops;
  const int64_t n = workload.n;
  if (workload.name == "cold_eval") {
    // One op of every kind on every field, on boxes outside the op lists'
    // random stream: builds the differentiators and warms every kernel.
    SplitMix64 rng(MixSeed(seed, 0x9003));
    for (const FieldChoice& field :
         {kVorticity, kQCriterion, kCurrent, kMagnitude}) {
      const Box3 box = RandomBox(rng, n / 2, n / 16, n / 2 - n / 16);
      const double field_rms = rms.For(field.derived);
      ops.push_back(MakeOp(OpKind::kThreshold, field, box, 6.0 * field_rms));
      Op pdf = MakeOp(OpKind::kPdf, field, box, 0.0);
      pdf.bin_width = field_rms;
      pdf.num_bins = 16;
      ops.push_back(pdf);
      Op topk = MakeOp(OpKind::kTopK, field, box, 0.0);
      topk.k = 1000;
      ops.push_back(topk);
      ops.push_back(MakeOp(OpKind::kStats, field, box, 0.0));
    }
  } else if (workload.name == "hot_results") {
    // Fill the mediator cache with the 8 base queries, then run every
    // pool query buffered and streamed once (all hits).
    const std::vector<Op> pool = HotPool(n, rms);
    for (size_t i = 0; i < pool.size(); i += 4) ops.push_back(pool[i]);
    for (Op op : pool) {
      ops.push_back(op);
      op.kind = OpKind::kStreamed;
      ops.push_back(op);
    }
  } else {
    // Node caches get the repeat entries; one cold query per kernel and
    // one FoF finish the nodes' lazy set-up.
    const ClusterPool pool = MakeClusterPool(n, rms);
    for (const Op& op : pool.repeats) ops.push_back(op);
    SplitMix64 rng(MixSeed(seed, 0x9004));
    for (const FieldChoice& field : {kQCriterion, kCurrent}) {
      ops.push_back(ClusterColdOp(rng, field, n, rms));
    }
    ops.push_back(pool.fof.front());
  }
  return ops;
}

namespace {

/// The smallest threshold >= k that lies more than 4 float ulps away from
/// every norm in `norms` (sorted).
double FloatSafe(double k, const std::vector<float>& norms) {
  for (;;) {
    const float kf = static_cast<float>(k);
    const double margin =
        4.0 * (std::nextafter(kf, std::numeric_limits<float>::infinity()) - kf);
    auto it = std::lower_bound(
        norms.begin(), norms.end(), k - margin,
        [](float norm, double bound) { return norm < bound; });
    if (it == norms.end() || *it > k + margin) return k;
    k = static_cast<double>(*it) + 2.0 * margin;
  }
}

}  // namespace

turbdb::Result<uint64_t> MakeThresholdsFloatSafe(
    turbdb::Mediator& mediator, int64_t n,
    std::vector<std::vector<Op>>* lists, std::vector<Op>* warmup) {
  std::vector<Op*> keyed;
  for (std::vector<Op>& list : *lists) {
    for (Op& op : list) {
      if (op.answer_key >= 0) keyed.push_back(&op);
    }
  }
  for (Op& op : *warmup) {
    if (op.answer_key >= 0) keyed.push_back(&op);
  }
  // Per field: the float norms of every whole-grid point at or above the
  // lowest keyed threshold, from one uncached query.
  std::map<std::pair<std::string, std::string>, double> lowest;
  for (const Op* op : keyed) {
    const auto field = std::make_pair(op->query.raw_field, op->query.derived_field);
    auto it = lowest.find(field);
    if (it == lowest.end() || op->query.threshold < it->second) {
      lowest[field] = op->query.threshold;
    }
  }
  std::map<std::pair<std::string, std::string>, std::vector<float>> norms;
  for (const auto& [field, threshold] : lowest) {
    turbdb::ThresholdQuery query;
    query.dataset = kDataset;
    query.raw_field = field.first;
    query.derived_field = field.second;
    query.box = Box3::WholeGrid(n, n, n);
    query.threshold = threshold * 0.999;
    turbdb::QueryOptions uncached;
    uncached.use_cache = false;
    TURBDB_ASSIGN_OR_RETURN(turbdb::ThresholdResult result,
                            mediator.GetThreshold(query, uncached));
    std::vector<float>& sorted = norms[field];
    for (const ThresholdPoint& point : result.points) sorted.push_back(point.norm);
    std::sort(sorted.begin(), sorted.end());
  }
  // Ops with one answer key ask one question: adjust each key once.
  std::map<int64_t, double> safe_by_key;
  uint64_t moved = 0;
  for (Op* op : keyed) {
    auto it = safe_by_key.find(op->answer_key);
    if (it == safe_by_key.end()) {
      const double safe = FloatSafe(
          op->query.threshold,
          norms.at({op->query.raw_field, op->query.derived_field}));
      moved += safe != op->query.threshold ? 1 : 0;
      it = safe_by_key.emplace(op->answer_key, safe).first;
    }
    op->query.threshold = it->second;
  }
  return moved;
}

uint64_t HashOps(const std::vector<std::vector<Op>>& lists) {
  uint64_t hash = 0x6f70735f68617368ULL;
  auto mix = [&hash](uint64_t v) { hash = MixSeed(hash, v); };
  auto mix_double = [&mix](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  for (const std::vector<Op>& list : lists) {
    mix(list.size());
    for (const Op& op : list) {
      mix(static_cast<uint64_t>(op.kind));
      mix(std::hash<std::string>{}(op.query.raw_field + ":" +
                                   op.query.derived_field));
      for (int d = 0; d < 3; ++d) {
        mix(static_cast<uint64_t>(op.query.box.lo[d]));
        mix(static_cast<uint64_t>(op.query.box.hi[d]));
      }
      mix_double(op.query.threshold);
      mix_double(op.bin_width);
      mix(static_cast<uint64_t>(op.num_bins));
      mix(op.k);
      mix_double(op.linking_length);
    }
  }
  return hash;
}

// -- Digests -----------------------------------------------------------------

namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t Bits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

Digest DigestTopK(std::vector<ThresholdPoint> points) {
  // Canonical order, so ties in the norm cannot reorder the digest.
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.norm != b.norm ? a.norm > b.norm : a.zindex < b.zindex;
            });
  return DigestPoints(points);
}

Digest DigestPdf(const turbdb::PdfResult& result) {
  Digest digest;
  digest.count = result.total_points;
  digest.hash = MixSeed(0x706466, result.counts.size());
  for (uint64_t count : result.counts) digest.hash = MixSeed(digest.hash, count);
  return digest;
}

Digest DigestStats(const turbdb::FieldStatsResult& result) {
  Digest digest;
  digest.count = result.count;
  digest.hash = MixSeed(MixSeed(MixSeed(0x737461, Bits(result.mean)),
                                Bits(result.rms)),
                        Bits(result.max));
  return digest;
}

/// FoF clusters reduced to (id, size) pairs in id order.
Digest DigestClusters(std::vector<std::pair<uint64_t, uint64_t>> clusters) {
  std::sort(clusters.begin(), clusters.end());
  Digest digest;
  digest.count = clusters.size();
  digest.hash = 0x666f66;
  for (const auto& [id, size] : clusters) {
    digest.hash = MixSeed(MixSeed(digest.hash, id), size);
  }
  return digest;
}

turbdb::PdfQuery PdfQueryOf(const Op& op) {
  turbdb::PdfQuery query;
  query.dataset = op.query.dataset;
  query.raw_field = op.query.raw_field;
  query.derived_field = op.query.derived_field;
  query.timestep = op.query.timestep;
  query.box = op.query.box;
  query.fd_order = op.query.fd_order;
  query.bin_width = op.bin_width;
  query.num_bins = op.num_bins;
  return query;
}

turbdb::TopKQuery TopKQueryOf(const Op& op) {
  turbdb::TopKQuery query;
  query.dataset = op.query.dataset;
  query.raw_field = op.query.raw_field;
  query.derived_field = op.query.derived_field;
  query.timestep = op.query.timestep;
  query.box = op.query.box;
  query.fd_order = op.query.fd_order;
  query.k = op.k;
  return query;
}

turbdb::FieldStatsQuery StatsQueryOf(const Op& op) {
  turbdb::FieldStatsQuery query;
  query.dataset = op.query.dataset;
  query.raw_field = op.query.raw_field;
  query.derived_field = op.query.derived_field;
  query.timestep = op.query.timestep;
  query.box = op.query.box;
  query.fd_order = op.query.fd_order;
  return query;
}

}  // namespace

Digest DigestPoints(const std::vector<ThresholdPoint>& points) {
  Digest digest;
  digest.count = points.size();
  digest.hash = 0x7468726573686f6cULL;
  for (const ThresholdPoint& point : points) {
    digest.hash = MixSeed(MixSeed(digest.hash, point.zindex), Bits(point.norm));
  }
  return digest;
}

Answer RunOp(turbdb::net::Client& client, const Op& op, bool keep) {
  Answer answer;
  switch (op.kind) {
    case OpKind::kThreshold:
    case OpKind::kStreamed: {
      auto result = op.kind == OpKind::kThreshold
                        ? client.Threshold(op.query)
                        : client.ThresholdStreamed(op.query);
      if (!result.ok()) {
        answer.status = result.status();
        break;
      }
      answer.digest = DigestPoints(result->points);
      answer.all_cache_hits = result->all_cache_hits;
      if (keep) answer.threshold = std::move(result).value();
      break;
    }
    case OpKind::kPdf: {
      auto result = client.Pdf(PdfQueryOf(op));
      if (!result.ok()) {
        answer.status = result.status();
        break;
      }
      answer.digest = DigestPdf(*result);
      if (keep) answer.pdf = std::move(result).value();
      break;
    }
    case OpKind::kTopK: {
      auto result = client.TopK(TopKQueryOf(op));
      if (!result.ok()) {
        answer.status = result.status();
        break;
      }
      answer.digest = DigestTopK(result->points);
      if (keep) answer.topk = std::move(result).value();
      break;
    }
    case OpKind::kStats: {
      auto result = client.FieldStats(StatsQueryOf(op));
      if (!result.ok()) {
        answer.status = result.status();
        break;
      }
      answer.digest = DigestStats(*result);
      if (keep) answer.stats = std::move(result).value();
      break;
    }
    case OpKind::kFof: {
      turbdb::net::FofRequest request;
      request.query = op.query;
      request.linking_length = op.linking_length;
      request.min_cluster_size = 1;
      request.include_members = false;
      auto result = client.Fof(request);
      if (!result.ok()) {
        answer.status = result.status();
        break;
      }
      std::vector<std::pair<uint64_t, uint64_t>> clusters;
      for (const auto& record : result->clusters) {
        clusters.emplace_back(record.id, record.size);
      }
      answer.digest = DigestClusters(std::move(clusters));
      if (keep) answer.fof = std::move(result).value();
      break;
    }
  }
  return answer;
}

turbdb::Result<Digest> InProcessDigest(turbdb::Mediator& mediator,
                                       const Op& op, bool use_cache) {
  turbdb::QueryOptions uncached;
  uncached.use_cache = use_cache;
  switch (op.kind) {
    case OpKind::kThreshold:
    case OpKind::kStreamed: {
      TURBDB_ASSIGN_OR_RETURN(turbdb::ThresholdResult result,
                              mediator.GetThreshold(op.query, uncached));
      return DigestPoints(result.points);
    }
    case OpKind::kPdf: {
      TURBDB_ASSIGN_OR_RETURN(turbdb::PdfResult result,
                              mediator.GetPdf(PdfQueryOf(op)));
      return DigestPdf(result);
    }
    case OpKind::kTopK: {
      TURBDB_ASSIGN_OR_RETURN(turbdb::TopKResult result,
                              mediator.GetTopK(TopKQueryOf(op)));
      return DigestTopK(std::move(result.points));
    }
    case OpKind::kStats: {
      TURBDB_ASSIGN_OR_RETURN(turbdb::FieldStatsResult result,
                              mediator.GetFieldStats(StatsQueryOf(op)));
      return DigestStats(result);
    }
    case OpKind::kFof: {
      std::vector<std::pair<uint64_t, uint64_t>> clusters;
      turbdb::Mediator::FofClusterSink sink =
          [&clusters](std::vector<turbdb::DistributedFofCluster> batch,
                      uint64_t) -> turbdb::Result<uint64_t> {
        for (const auto& cluster : batch) {
          clusters.emplace_back(cluster.id, cluster.members.size());
        }
        return static_cast<uint64_t>(0);
      };
      TURBDB_RETURN_NOT_OK(mediator
                               .GetFof(op.query, uncached, op.linking_length,
                                       1, {}, 0, sink)
                               .status());
      return DigestClusters(std::move(clusters));
    }
  }
  return turbdb::Status::Internal("unknown op kind");
}

}  // namespace perfbench
