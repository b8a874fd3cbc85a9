// perfbench: wall-clock benchmark of turbdb over TCP.
//
//   perfbench --workload cold_eval|hot_results|cluster_tcp --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// Run it from the source tree's root: node port files and spans go to
// .bench_run/ there. --trace 0 measures the end-to-end metrics in 3
// rounds, each on a fresh deployment: bring-up, warm-up, then a closed
// loop of the workload's client connections for S/3 seconds over the same
// op lists. Each metric is the median of the rounds' values, so one round
// slowed by the host does not move it. --trace 1 runs the per-layer traced
// replay instead. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a human report
// (provenance, guards, per-class latencies) precedes it.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "bench/bench_json.h"
#include "common/rng.h"

namespace perfbench {
namespace {

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

/// Measured rounds per untraced run, each on a fresh deployment.
constexpr int kRounds = 3;
/// Node port files and span files, relative to the source tree's root.
constexpr const char* kRunDir = ".bench_run";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      args->smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      args->workload = v;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      args->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

struct OpRecord {
  uint32_t conn = 0;
  uint32_t index = 0;
  OpKind kind = OpKind::kThreshold;
  bool ok = false;
  bool cache_hit = false;
  double latency_ms = 0.0;
  Digest digest;
};

/// Counters read at the window's boundaries.
struct Counters {
  turbdb::MediatorCacheStats cache;
  uint64_t node_executes = 0;
  uint64_t failovers = 0;
  uint64_t bytes_out = 0;
};

Counters ReadCounters(Deployment& deployment) {
  Counters counters;
  counters.cache = deployment.mediator().result_cache().stats();
  counters.node_executes = deployment.mediator().node_executes();
  for (const auto& row : deployment.mediator().ClusterStatus()) {
    counters.failovers += row.failovers;
  }
  counters.bytes_out = deployment.server->stats().bytes_out;
  return counters;
}

turbdb::Result<FieldRms> ProbeRms(turbdb::Mediator& mediator, int64_t n) {
  FieldRms rms;
  auto probe = [&](const char* raw, const char* derived,
                   double* out) -> turbdb::Status {
    turbdb::FieldStatsQuery query;
    query.dataset = kDataset;
    query.raw_field = raw;
    query.derived_field = derived;
    query.box = turbdb::Box3::WholeGrid(n, n, n);
    TURBDB_ASSIGN_OR_RETURN(turbdb::FieldStatsResult stats,
                            mediator.GetFieldStats(query));
    *out = stats.rms;
    return turbdb::Status::OK();
  };
  TURBDB_RETURN_NOT_OK(probe("velocity", "vorticity", &rms.vorticity));
  TURBDB_RETURN_NOT_OK(probe("velocity", "q_criterion", &rms.q_criterion));
  TURBDB_RETURN_NOT_OK(probe("magnetic", "current", &rms.current));
  TURBDB_RETURN_NOT_OK(probe("magnetic", "magnitude", &rms.magnitude));
  return rms;
}

std::unique_ptr<turbdb::net::Client> Connect(Deployment& deployment) {
  turbdb::net::ClientOptions options;
  options.max_retries = 0;  // A failed op counts as failed; no hidden retry.
  return std::make_unique<turbdb::net::Client>(
      "127.0.0.1", deployment.server->port(), options);
}

/// Runs the warm-up ops on one connection; every one must succeed.
turbdb::Status Warmup(Deployment& deployment, const std::vector<Op>& ops) {
  auto client = Connect(deployment);
  for (const Op& op : ops) {
    Answer answer = RunOp(*client, op);
    if (!answer.status.ok()) {
      return turbdb::Status::Internal(std::string("warm-up ") +
                                      OpKindName(op.kind) + " failed: " +
                                      answer.status.ToString());
    }
  }
  return turbdb::Status::OK();
}

void PrintMetric(std::string* json, const std::string& name, double value,
                 const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name.c_str(), value, unit);
  *json += buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::string& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Args& args, const WorkloadConfig& workload,
                     uint64_t op_hash) {
  std::printf("{\n");
  const std::string topology =
      workload.forked
          ? std::to_string(workload.shards) + " forked turbdb_node x " +
                std::to_string(workload.node_workers) + " node workers"
          : "in-process " + std::to_string(workload.shards) + "x" +
                std::to_string(workload.processes);
  turbdb::bench::WriteProvenance(stdout, topology);
  std::printf(
      "  \"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"seconds\": %g, \"grid\": %lld, \"shards\": %d, "
      "\"processes_per_node\": %d, \"worker_threads\": %d, "
      "\"server_workers\": %d, \"connections\": %d, "
      "\"mediator_cache_mib\": %llu, \"nproc\": %u, "
      "\"op_hash\": \"%016" PRIx64 "\"\n}\n",
      workload.name.c_str(), args.seed, args.trace, args.seconds,
      static_cast<long long>(workload.n), workload.shards, workload.processes,
      workload.worker_threads, workload.server_workers, workload.connections,
      static_cast<unsigned long long>(workload.mediator_cache_bytes >> 20),
      std::thread::hardware_concurrency(), op_hash);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

int RunTraceMode(const Args& args, const WorkloadConfig& workload,
                 std::unique_ptr<Deployment> deployment,
                 const std::vector<std::vector<Op>>& lists,
                 const std::vector<Op>& warmup) {
  const std::string span_path =
      std::string(kRunDir) + "/spans-" + workload.name + ".jsonl";
  auto report = RunTraced(*deployment, lists.front(), warmup, args.seconds,
                          span_path);
  deployment->Shutdown();
  if (LiveChildren() != 0) return Fail("a spawned turbdb_node outlived the run");
  if (!report.ok()) return Fail("traced run: " + report.status().ToString());
  std::printf("{\"traced_ops\": %" PRIu64 ", \"traced_root_p50_ms\": %.4f, "
              "\"untraced_root_p50_ms\": %.4f"
              ", \"tracing_overhead_ms\": %.4f, \"spans\": \"%s\"}\n",
              report->ops, report->traced_root_p50_ms,
              report->untraced_root_p50_ms,
              report->traced_root_p50_ms - report->untraced_root_p50_ms,
              span_path.c_str());
  std::printf("{\"classes\": {%s}}\n", report->classes_json.c_str());
  std::string metrics;
  for (const auto& [name, value] : report->metrics) {
    std::printf("  %-40s %14.6f %-6s n=%" PRIu64 "\n", name.c_str(),
                value.value, value.unit, value.samples);
    PrintMetric(&metrics, name, value.value, value.unit);
  }
  const bool correct = report->failed == 0;
  PrintResult(correct, std::max<uint64_t>(1, report->ops), report->failed,
              metrics);
  return correct ? 0 : 1;
}

/// One measured round: a fresh deployment's closed-loop window.
struct Round {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::vector<OpRecord> records;
  Counters before;
  Counters after;
  double peak_rss_mib = 0.0;
};

/// Runs every connection's op list in a closed loop for `seconds`.
turbdb::Status RunWindow(Deployment& d, const std::vector<std::vector<Op>>& lists,
                         double seconds, Round* round) {
  std::vector<std::unique_ptr<turbdb::net::Client>> clients;
  for (size_t c = 0; c < lists.size(); ++c) {
    clients.push_back(Connect(d));
    TURBDB_RETURN_NOT_OK(clients.back()->Ping());
  }
  // Peak RSS covers the window only, not bring-up, warm-up or the
  // benchmark's own probes and references. Freed heap goes back to the OS
  // first, so the baseline does not depend on what earlier rounds left.
  ::malloc_trim(0);
  std::vector<pid_t> pids = {0};
  if (d.nodes) pids.insert(pids.end(), d.nodes->pids().begin(), d.nodes->pids().end());
  for (pid_t pid : pids) TURBDB_RETURN_NOT_OK(ResetPeakRss(pid));
  round->before = ReadCounters(d);
  std::vector<std::vector<OpRecord>> records(lists.size());
  std::vector<double> last_done(lists.size(), 0.0);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < lists.size(); ++c) {
    threads.emplace_back([&, c]() {
      std::this_thread::sleep_until(start);
      const std::vector<Op>& list = lists[c];
      for (size_t i = 0; i < list.size() && Clock::now() < end; ++i) {
        const auto t0 = Clock::now();
        Answer answer = RunOp(*clients[c], list[i]);
        const auto t1 = Clock::now();
        OpRecord record;
        record.conn = static_cast<uint32_t>(c);
        record.index = static_cast<uint32_t>(i);
        record.kind = list[i].kind;
        record.ok = answer.status.ok();
        record.cache_hit = answer.all_cache_hits;
        record.latency_ms = MsSince(t0, t1);
        record.digest = answer.digest;
        if (!record.ok) {
          std::fprintf(stderr, "op %zu/%zu (%s) failed: %s\n", c, i,
                       OpKindName(list[i].kind),
                       answer.status.ToString().c_str());
        }
        records[c].push_back(record);
        last_done[c] = std::chrono::duration<double>(t1 - start).count();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  round->after = ReadCounters(d);
  round->window_s = *std::max_element(last_done.begin(), last_done.end());
  for (const auto& list : records) {
    round->records.insert(round->records.end(), list.begin(), list.end());
  }
  // Every process of the deployment, before any reference cluster exists.
  for (pid_t pid : pids) round->peak_rss_mib += PeakRssMiB(pid);
  return turbdb::Status::OK();
}

/// The steady state each workload promises, checked on one round's
/// counters; returns what broke.
std::vector<std::string> BrokenGuards(const WorkloadConfig& workload,
                                      const Round& round) {
  const uint64_t hits = round.after.cache.hits - round.before.cache.hits;
  const uint64_t lookups =
      hits + (round.after.cache.misses - round.before.cache.misses);
  std::vector<std::string> broken;
  if (workload.name == "hot_results") {
    if (lookups == 0 || hits != lookups) broken.push_back("mediator hit ratio < 1");
    if (round.after.cache.evictions != round.before.cache.evictions) {
      broken.push_back("mediator cache evicted");
    }
    if (round.after.node_executes != round.before.node_executes) {
      broken.push_back("node executes in the window");
    }
  } else if (workload.name == "cold_eval") {
    // Boxes repeat (and subsume) only by chance: about 1% at 64^3, a few
    // percent on the 32^3 smoke grid.
    if (hits * 20 > lookups) broken.push_back("mediator cache hits above 5%");
  } else if (round.after.failovers != round.before.failovers) {
    broken.push_back("replica failovers in the window");
  }
  return broken;
}

const char* ClassOf(const OpRecord& record) {
  switch (record.kind) {
    case OpKind::kThreshold:
      return record.cache_hit ? "threshold_hit_p50_ms" : "threshold_miss_p50_ms";
    case OpKind::kStreamed:
      return record.cache_hit ? "streamed_hit_p50_ms" : "streamed_miss_p50_ms";
    case OpKind::kPdf: return "pdf_p50_ms";
    case OpKind::kTopK: return "topk_p50_ms";
    case OpKind::kStats: return "stats_p50_ms";
    case OpKind::kFof: return "fof_p50_ms";
  }
  return "?";
}

int Run(const Args& args) {
  const WorkloadConfig workload = MakeWorkload(args.workload, args.smoke);
  if (workload.name.empty()) return Fail("unknown workload " + args.workload);
  ::mkdir(kRunDir, 0755);
  const int rounds = args.trace ? 1 : kRounds;

  std::vector<std::vector<Op>> lists;
  std::vector<Op> warmup;
  std::map<int64_t, Digest> references;
  std::vector<Round> done;
  std::vector<std::string> broken;
  uint64_t checked = 0;
  uint64_t wrong = 0;
  // Digest of each (connection, index) op seen in an earlier round: every
  // round replays the same lists, so the answers must agree across rounds.
  std::map<std::pair<uint32_t, uint32_t>, Digest> seen;
  auto check = [&](const OpRecord& record, const Digest& reference) {
    ++checked;
    if (record.digest != reference) {
      ++wrong;
      std::fprintf(stderr,
                   "op %u/%u (%s) returned a wrong answer: %" PRIu64
                   " points, the reference has %" PRIu64 "\n",
                   record.conn, record.index, OpKindName(record.kind),
                   record.digest.count, reference.count);
    }
  };

  for (int r = 0; r < rounds; ++r) {
    auto brought_up = BringUp(workload, kRunDir);
    if (!brought_up.ok()) {
      return Fail("bring-up failed: " + brought_up.status().ToString());
    }
    std::unique_ptr<Deployment> deployment = std::move(brought_up).value();
    Deployment& d = *deployment;

    if (r == 0) {
      // Inputs, once: RMS probes (excluded from setup_s), the seeded op
      // lists, and the hot pool's references.
      auto rms = ProbeRms(d.mediator(), workload.n);
      if (!rms.ok()) return Fail("RMS probe failed: " + rms.status().ToString());
      lists = GenerateOps(workload, args.seed, *rms);
      warmup = WarmupOps(workload, args.seed, *rms);
      auto moved = MakeThresholdsFloatSafe(d.mediator(), workload.n, &lists, &warmup);
      if (!moved.ok()) return Fail("threshold probe: " + moved.status().ToString());
      PrintProvenance(args, workload, HashOps(lists));
      std::printf("{\"float_safe_keys_moved\": %" PRIu64 "}\n", *moved);
      if (workload.name == "hot_results") {
        for (const std::vector<Op>& list : lists) {
          for (const Op& op : list) {
            if (references.count(op.answer_key)) continue;
            auto digest = InProcessDigest(d.mediator(), op);
            if (!digest.ok()) return Fail("reference: " + digest.status().ToString());
            references[op.answer_key] = *digest;
          }
        }
      }
    }
    turbdb::Status warmed = Warmup(d, warmup);
    if (!warmed.ok()) return Fail(warmed.ToString());
    if (args.trace) {
      return RunTraceMode(args, workload, std::move(deployment), lists, warmup);
    }

    Round round;
    round.setup_s = d.setup_seconds;
    turbdb::Status ran = RunWindow(d, lists, args.seconds / rounds, &round);
    if (!ran.ok()) return Fail("window: " + ran.ToString());
    for (const std::string& guard : BrokenGuards(workload, round)) {
      broken.push_back("round " + std::to_string(r) + ": " + guard);
    }

    // Answer checks (failed ops are already counted as errors).
    for (const OpRecord& record : round.records) {
      if (!record.ok) continue;
      const Op& op = lists[record.conn][record.index];
      if (workload.name == "hot_results") {
        check(record, references.at(op.answer_key));
        continue;
      }
      auto [it, first] = seen.emplace(std::make_pair(record.conn, record.index),
                                      record.digest);
      if (!first) check(record, it->second);
    }
    if (workload.name == "cold_eval" && r + 1 == rounds) {
      // A deterministic sample of the unique ops (selected by op identity).
      size_t sampled = 0;
      for (const OpRecord& record : round.records) {
        if (!record.ok ||
            turbdb::MixSeed(args.seed, (uint64_t{record.conn} << 32) | record.index) % 8 != 0) {
          continue;
        }
        if (++sampled > 40) break;
        auto digest = InProcessDigest(d.mediator(), lists[record.conn][record.index]);
        if (!digest.ok()) return Fail("reference: " + digest.status().ToString());
        check(record, *digest);
      }
    }
    deployment->Shutdown();
    deployment.reset();
    if (LiveChildren() != 0) return Fail("a spawned turbdb_node outlived its round");
    done.push_back(std::move(round));
  }

  if (workload.name == "cluster_tcp") {
    // The reference: an in-process cluster over the same data, built after
    // every window. Each repeated question once, plus a sample of the cold
    // ones.
    auto built = BuildReferenceDb(workload);
    if (!built.ok()) return Fail("reference cluster: " + built.status().ToString());
    std::unique_ptr<turbdb::TurbDB> reference = std::move(built).value();
    size_t sampled = 0;
    for (const OpRecord& record : done.back().records) {
      if (!record.ok) continue;
      const Op& op = lists[record.conn][record.index];
      if (op.answer_key < 0) {
        if (turbdb::MixSeed(args.seed, (uint64_t{record.conn} << 32) | record.index) % 8 != 0 ||
            ++sampled > 64) {
          continue;
        }
        auto digest = InProcessDigest(reference->mediator(), op);
        if (!digest.ok()) return Fail("reference: " + digest.status().ToString());
        check(record, *digest);
        continue;
      }
      auto it = references.find(op.answer_key);
      if (it == references.end()) {
        auto digest = InProcessDigest(reference->mediator(), op);
        if (!digest.ok()) return Fail("reference: " + digest.status().ToString());
        it = references.emplace(op.answer_key, *digest).first;
      }
      check(record, it->second);
    }
  }

  // -- Metrics: medians over the rounds.
  std::vector<double> setups, throughputs, p50s, p99s, rss;
  std::map<std::string, std::vector<double>> by_class;
  uint64_t attempted = 0, errors = 0;
  uint64_t beyond_p99 = UINT64_MAX;  // The fewest ops beyond p99 in a round.
  for (const Round& round : done) {
    std::vector<double> round_latencies;
    for (const OpRecord& record : round.records) {
      ++attempted;
      if (!record.ok) {
        ++errors;
        continue;
      }
      round_latencies.push_back(record.latency_ms);
      by_class[ClassOf(record)].push_back(record.latency_ms);
    }
    setups.push_back(round.setup_s);
    throughputs.push_back(round.window_s > 0
                              ? static_cast<double>(round_latencies.size()) /
                                    round.window_s
                              : 0.0);
    p50s.push_back(Median(round_latencies));
    const double p99 = Quantile(round_latencies, 0.99);
    p99s.push_back(p99);
    beyond_p99 = std::min<uint64_t>(
        beyond_p99, static_cast<uint64_t>(std::count_if(
                        round_latencies.begin(), round_latencies.end(),
                        [p99](double v) { return v > p99; })));
    rss.push_back(round.peak_rss_mib);
  }
  const uint64_t failed = errors + wrong;

  auto list = [](const std::vector<double>& values) {
    std::string out;
    char buf[64];
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ", ", v);
      out += buf;
    }
    return "[" + out + "]";
  };
  std::printf("{\"rounds\": %zu, \"ops\": %" PRIu64 ", \"errors\": %" PRIu64
              ", \"checked\": %" PRIu64 ", \"wrong\": %" PRIu64
              ", \"error_rate\": %.6f, \"beyond_p99\": %" PRIu64 ",\n"
              " \"setup_s\": %s, \"throughput_qps\": %s, \"latency_p50_ms\": %s,"
              " \"latency_p99_ms\": %s, \"peak_rss_mb\": %s,\n",
              done.size(), attempted, errors, checked, wrong,
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              beyond_p99, list(setups).c_str(), list(throughputs).c_str(),
              list(p50s).c_str(), list(p99s).c_str(), list(rss).c_str());
  const Round& last = done.back();
  const uint64_t last_ops = std::max<size_t>(1, last.records.size());
  std::printf(" \"guards\": {\"mediator_hits\": %" PRIu64
              ", \"mediator_misses\": %" PRIu64 ", \"mediator_evictions\": %" PRIu64
              ", \"node_executes\": %" PRIu64 ", \"failovers\": %" PRIu64
              ", \"bytes_out_per_op\": %.1f, \"warmup_ops_before_window\": %zu"
              ", \"fresh_deployment_per_round\": true, \"broken\": [",
              last.after.cache.hits - last.before.cache.hits,
              last.after.cache.misses - last.before.cache.misses,
              last.after.cache.evictions - last.before.cache.evictions,
              last.after.node_executes - last.before.node_executes,
              last.after.failovers - last.before.failovers,
              static_cast<double>(last.after.bytes_out - last.before.bytes_out) /
                  static_cast<double>(last_ops),
              warmup.size());
  for (size_t i = 0; i < broken.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", broken[i].c_str());
  }
  std::printf("]},\n \"classes\": {");
  bool first = true;
  for (const auto& [cls, values] : by_class) {
    std::printf("%s\"%s\": {\"value\": %.4f, \"n\": %zu}", first ? "" : ", ",
                cls.c_str(), Median(values), values.size());
    first = false;
  }
  std::printf("}}\n");

  std::string metrics;
  PrintMetric(&metrics, "setup_s", Median(setups), "s");
  PrintMetric(&metrics, "throughput_qps", Median(throughputs), "ops/s");
  PrintMetric(&metrics, "latency_p50_ms", Median(p50s), "ms");
  PrintMetric(&metrics, "latency_p99_ms", Median(p99s), "ms");
  PrintMetric(&metrics, "peak_rss_mb", Median(rss), "MiB");
  const bool correct = failed == 0 && broken.empty();
  PrintResult(correct, std::max<uint64_t>(1, attempted), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke]\n");
    return 2;
  }
  if (!perfbench::kTimingBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from an unoptimized or "
                 "sanitizer build\n");
    return 2;
  }
  perfbench::InstallSignalHandlers();
  return perfbench::Run(args);
}
