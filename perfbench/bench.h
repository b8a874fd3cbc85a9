#pragma once

// Shared declarations of the turbdb wall-clock benchmark (perfbench).
//
// The benchmark brings up a deployment (in-process cluster or forked
// turbdb_node processes) behind an in-process net::Server, drives it over
// TCP through net::Client in a closed loop, checks every answer, and
// reports end-to-end metrics. A separate traced run splits each op's time
// across the layers by timing, from this code, direct calls into each
// layer's public functions. Nothing here changes the program under test.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/turbdb.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// -- Workloads -------------------------------------------------------------

/// Deployment shape and client count of one workload. Every count is a
/// constant of the workload (sized for a 4-core host), never read from
/// the machine the benchmark runs on.
struct WorkloadConfig {
  std::string name;
  int64_t n = 64;             ///< Grid edge (points).
  int shards = 4;             ///< Database nodes (replica groups).
  int processes = 4;          ///< Data-parallel processes per node.
  int worker_threads = 4;     ///< Mediator worker pool (in-process nodes).
  int server_workers = 4;     ///< net::Server connection threads.
  int connections = 4;        ///< Closed-loop client connections.
  uint64_t mediator_cache_bytes = 64ull << 20;
  bool forked = false;        ///< Shards are turbdb_node child processes.
  int node_workers = 2;       ///< --node-workers of each forked node.
  size_t ops_per_connection = 4096;  ///< Pre-generated op list length.
};

/// The named workload, or an empty name when unknown. `smoke` shrinks the
/// grid to 32^3 for the benchmark's own quick self-test.
WorkloadConfig MakeWorkload(const std::string& name, bool smoke);

enum class OpKind { kThreshold, kStreamed, kPdf, kTopK, kStats, kFof };
const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kThreshold;
  /// Dataset, fields, time-step, box, FD order (and threshold for the
  /// threshold/FoF kinds).
  turbdb::ThresholdQuery query;
  double bin_width = 0.0;        ///< kPdf.
  int num_bins = 0;              ///< kPdf.
  uint64_t k = 0;                ///< kTopK.
  double linking_length = 0.0;   ///< kFof.
  /// Key of the answer this op must reproduce: ops with the same key ask
  /// the same question (hot_results pool slots, cluster_tcp repeats).
  /// -1 = the op is unique.
  int64_t answer_key = -1;
};

/// RMS of each derived-field norm the workloads threshold, measured once
/// per deployment with an uncached whole-grid FieldStats.
struct FieldRms {
  double vorticity = 0.0;
  double q_criterion = 0.0;
  double current = 0.0;
  double magnitude = 0.0;
  double For(const std::string& derived) const;
};

/// The op list of every connection, generated from `seed` before the
/// window. Pure function of (workload, seed, rms).
std::vector<std::vector<Op>> GenerateOps(const WorkloadConfig& workload,
                                         uint64_t seed, const FieldRms& rms);

/// Ops run once before the window to fill caches and finish lazy set-up.
std::vector<Op> WarmupOps(const WorkloadConfig& workload, uint64_t seed,
                          const FieldRms& rms);

/// Moves the threshold of every op a cache may answer by subsumption or
/// repetition (ops with an answer key, in `lists` and `warmup`) to the
/// smallest value at least 4 float ulps away from every stored norm of
/// its field. Uncached evaluation compares the double norm with the
/// threshold, while both cache tiers compare the float norm they stored,
/// so a threshold within float rounding of a norm makes the cached and
/// uncached answers differ by that point (a known defect of the program,
/// which the answer checks would count as a wrong answer). A threshold
/// moves up by a few float ulps, far less than the x1.1 between a pool
/// query and the variants it subsumes, and equal thresholds move alike, so
/// subsumption between ops is preserved. Returns how many distinct
/// questions (answer keys) moved.
turbdb::Result<uint64_t> MakeThresholdsFloatSafe(
    turbdb::Mediator& mediator, int64_t n,
    std::vector<std::vector<Op>>* lists, std::vector<Op>* warmup);

/// Order-sensitive hash of op lists (printed so a run can be matched to
/// the exact op sequence it sent).
uint64_t HashOps(const std::vector<std::vector<Op>>& lists);

// -- Answers ---------------------------------------------------------------

/// A reply reduced to what identifies it: point count plus a hash of the
/// z-index and norm bits (thresholds, top-k), the bin counts (PDF), the
/// moments' bits (stats), or the cluster ids and sizes (FoF).
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& other) const {
    return count == other.count && hash == other.hash;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }
};

/// What one op returned, as far as the benchmark looks at it.
struct Answer {
  turbdb::Status status;
  Digest digest;
  bool all_cache_hits = false;  ///< Threshold kinds only.
  /// Decoded result, kept only when the caller asks (traced run).
  turbdb::ThresholdResult threshold;
  turbdb::PdfResult pdf;
  turbdb::TopKResult topk;
  turbdb::FieldStatsResult stats;
  turbdb::net::FofResult fof;
};

/// Sends `op` through `client` and reduces the reply. `keep` retains the
/// decoded result in the Answer.
Answer RunOp(turbdb::net::Client& client, const Op& op, bool keep = false);

/// Recomputes `op` in-process on `mediator`. With `use_cache` false every
/// cache is bypassed: the reference an answer is checked against.
turbdb::Result<Digest> InProcessDigest(turbdb::Mediator& mediator,
                                       const Op& op, bool use_cache = false);

Digest DigestPoints(const std::vector<turbdb::ThresholdPoint>& points);

// -- Deployments -----------------------------------------------------------

/// turbdb_node children of one forked deployment. Ports are reserved
/// ephemeral loopback ports (every node needs the full peer list at
/// start); each node writes its bound port to --port-file once it
/// listens, which is the readiness signal. Children are killed and
/// reaped by the destructor, by TerminateAll, and by the SIGINT/SIGTERM
/// handler; each also gets PR_SET_PDEATHSIG so it cannot outlive the
/// benchmark.
class NodeProcesses {
 public:
  static turbdb::Result<std::unique_ptr<NodeProcesses>> Launch(
      int num_nodes, int node_workers, const std::string& run_dir);
  ~NodeProcesses();
  NodeProcesses(const NodeProcesses&) = delete;
  NodeProcesses& operator=(const NodeProcesses&) = delete;

  const turbdb::ClusterTopology& topology() const { return topology_; }
  const std::vector<pid_t>& pids() const { return pids_; }

  /// SIGTERM, a short grace period, then SIGKILL; reaps every child.
  void TerminateAll();

 private:
  NodeProcesses() = default;
  turbdb::ClusterTopology topology_;
  std::vector<pid_t> pids_;
};

/// Installs the SIGINT/SIGTERM handler that kills and reaps every forked
/// node before exiting.
void InstallSignalHandlers();

/// Number of turbdb_node children this process spawned that are still
/// alive (or unreaped).
int LiveChildren();

/// One deployment: optional forked nodes, the mediator (TurbDB facade)
/// and the net::Server in front of it. Members are declared so that the
/// server stops first, then the mediator, then the nodes.
struct Deployment {
  WorkloadConfig workload;
  std::unique_ptr<NodeProcesses> nodes;
  std::unique_ptr<turbdb::TurbDB> db;
  std::unique_ptr<turbdb::net::Server> server;
  double setup_seconds = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Shutdown(); }

  turbdb::Mediator& mediator() { return db->mediator(); }
  /// Tears everything down in order; idempotent.
  void Shutdown();
};

/// Brings up the workload's deployment and times it: open the cluster
/// (fork and handshake the nodes), create the dataset, ingest every
/// field, start the server. `run_dir` holds the nodes' port files.
turbdb::Result<std::unique_ptr<Deployment>> BringUp(
    const WorkloadConfig& workload, const std::string& run_dir);

/// An in-process cluster with the same dataset as `workload`, used as the
/// reference for forked deployments.
turbdb::Result<std::unique_ptr<turbdb::TurbDB>> BuildReferenceDb(
    const WorkloadConfig& workload);

/// Sets the peak resident set (VmHWM) of `pid` (0 = this process) back to
/// its current resident set.
turbdb::Status ResetPeakRss(pid_t pid);

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB; 0 when
/// unreadable.
double PeakRssMiB(pid_t pid);

/// Name of the dataset every workload queries.
inline const char* kDataset = "mhd";
/// Synthetic-data seed of the dataset: the deployment is the same for
/// every run; the op sequence comes from --seed.
constexpr uint64_t kDataSeed = 2015;

// -- Tracing ---------------------------------------------------------------

/// Per-layer metrics of one traced run, keyed by BENCHMARK.json name, plus
/// sample counts and the overhead comparison, printed by the caller.
struct LayerReport {
  struct Value {
    double value = 0.0;
    uint64_t samples = 0;
    const char* unit = "ms";
  };
  std::vector<std::pair<std::string, Value>> metrics;
  /// Per op class: medians of the root, the mediator call and the slowest
  /// node sub-query, with counts, as a JSON object body.
  std::string classes_json;
  uint64_t ops = 0;
  uint64_t failed = 0;
  /// p50 of the traced roots and of the same ops run untraced first.
  double traced_root_p50_ms = 0.0;
  double untraced_root_p50_ms = 0.0;
};

/// Runs the traced replay on `deployment` (already warmed up with
/// `warmup`) over `ops`, connection 0's op list; `seconds` bounds it. Spans
/// are written to `span_path` at the end.
turbdb::Result<LayerReport> RunTraced(Deployment& deployment,
                                      const std::vector<Op>& ops,
                                      const std::vector<Op>& warmup,
                                      double seconds,
                                      const std::string& span_path);

}  // namespace perfbench
