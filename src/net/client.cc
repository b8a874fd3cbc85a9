#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <thread>

#include "common/fault.h"
#include "wire/serializer.h"

namespace turbdb {
namespace net {

namespace {

/// The retry predicate: ONLY transport-level failures — connect refused,
/// reset, EOF (kIOError) or a deadline expiring mid-read (kUnavailable) —
/// earn a reconnect + retry. Every *typed* failure is a final answer and
/// must fail fast: an error frame the server sent, a Corruption from a
/// garbled payload, a server-reported kDeadlineExceeded or kCancelled
/// (the budget is spent / the mediator gave up — a retry would only make
/// it later), and in particular kVersionMismatch — retrying a peer that
/// speaks the wrong protocol version burns the whole backoff budget to
/// learn the same fact N times. It decides a retry within one call, so
/// unlike the replica-failover predicate beside RemoteNodeOptions
/// (cluster/topology.h) it leaves out kUnreachable: that is this
/// client's own verdict once its attempts ran out, and retrying it would
/// multiply them.
bool IsTransportFailure(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kUnavailable;
}

/// Remaining milliseconds of the query budget; -1 when no budget was
/// set. 0 means exhausted.
int64_t RemainingBudgetMs(const Deadline& budget) {
  if (budget.infinite()) return -1;
  return budget.PollTimeoutMs();
}

/// Per-operation deadline: the configured timeout, shortened to the
/// query budget when that is tighter.
Deadline BoundedBy(int timeout_ms, int64_t remaining_budget_ms) {
  if (remaining_budget_ms < 0) return Deadline::After(timeout_ms);
  return Deadline::After(
      std::min<int64_t>(timeout_ms, remaining_budget_ms));
}

/// Wall-clock measurement around one RPC, written into the decoded
/// result so remote calls report like local ones.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Client::Client(std::string host, uint16_t port, ClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      site_disconnect_mid_stream_(options_.fault_scope +
                                  "client.disconnect_mid_stream"),
      backoff_rng_(MixSeed(std::hash<std::string>{}(host_), port_)) {}

Status Client::EnsureConnected(Deadline deadline) {
  if (conn_.valid()) return Status::OK();
  TURBDB_ASSIGN_OR_RETURN(conn_, TcpConnect(host_, port_, deadline));
  return Status::OK();
}

Result<std::vector<uint8_t>> Client::ExchangeOnce(
    const std::vector<uint8_t>& request, const Deadline& budget,
    const StreamHooks* stream) {
  int64_t remaining = RemainingBudgetMs(budget);
  TURBDB_RETURN_NOT_OK(EnsureConnected(
      BoundedBy(options_.connect_timeout_ms, remaining)));
  // Stamp the budget *remaining at send time* into the frame header so
  // the server sees what the caller is still willing to wait for.
  remaining = RemainingBudgetMs(budget);
  const uint32_t stamp =
      remaining < 0 ? 0
                    : static_cast<uint32_t>(std::min<int64_t>(
                          std::max<int64_t>(remaining, 1), UINT32_MAX));
  TURBDB_RETURN_NOT_OK(
      WriteFrame(conn_, request,
                 BoundedBy(options_.write_timeout_ms, remaining), stamp));
  while (true) {
    TURBDB_ASSIGN_OR_RETURN(
        std::vector<uint8_t> payload,
        ReadFrame(
            conn_,
            BoundedBy(options_.read_timeout_ms, RemainingBudgetMs(budget)),
            options_.max_frame_bytes));
    if (stream == nullptr) return payload;
    TURBDB_ASSIGN_OR_RETURN(MsgType type, PeekResponseType(payload));
    if (type != MsgType::kThresholdChunk && type != MsgType::kFofChunk) {
      // The terminating frame: the summary response or an error frame.
      return payload;
    }
    TURBDB_RETURN_NOT_OK(stream->chunk(payload));
    if (fault::Check(site_disconnect_mid_stream_.c_str())) {
      // Drill: the reader vanishes with chunks still in flight. The
      // server's next chunk write fails, flipping the query's cancel
      // token and thereby the not-yet-joined shards.
      conn_.Close();
      return Status::IOError("injected mid-stream disconnect");
    }
  }
}

Result<std::vector<uint8_t>> Client::Exchange(
    const std::vector<uint8_t>& request, uint64_t budget_ms,
    const StreamHooks* stream) {
  const Deadline budget = budget_ms > 0
                              ? Deadline::After(static_cast<int64_t>(budget_ms))
                              : Deadline::Infinite();
  int64_t backoff_ms = options_.backoff_initial_ms;
  Status last;
  int attempts = 0;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with uniform jitter in [delay/2, delay): a
      // fleet of clients retrying the same dead node must not
      // reconverge in lockstep. Never sleep past the query budget —
      // the remaining time belongs to the next attempt, not to waiting.
      const int64_t half = std::max<int64_t>(backoff_ms / 2, 1);
      int64_t delay =
          half + static_cast<int64_t>(backoff_rng_.NextBounded(
                     static_cast<uint64_t>(std::max<int64_t>(
                         backoff_ms - half, 1))));
      const int64_t remaining = RemainingBudgetMs(budget);
      if (remaining >= 0 && delay >= remaining) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      backoff_ms *= 2;
    }
    if (budget.Expired()) break;
    ++attempts;
    // A retried streamed call starts over: chunks of different attempts
    // must never mix, so partial state from a failed attempt is dropped.
    if (stream != nullptr && stream->restart) stream->restart();
    auto response = ExchangeOnce(request, budget, stream);
    if (response.ok()) return response;
    last = response.status();
    // The connection's stream state is unknown after any failure; drop
    // it so the next attempt starts clean.
    conn_.Close();
    if (!IsTransportFailure(last)) return last;
  }
  const std::string endpoint = host_ + ":" + std::to_string(port_);
  if (!budget.infinite() && budget.Expired()) {
    // The budget ran out, as opposed to the retry count: a typed
    // deadline error naming the spent budget, so callers (and the CLI's
    // exit code) can tell "too slow" from "not there".
    return Status::DeadlineExceeded(
        "query budget of " + std::to_string(budget_ms) + " ms exhausted on " +
        endpoint + (last.ok() ? "" : ": " + last.message()) + " (after " +
        std::to_string(attempts) + " attempt" + (attempts == 1 ? "" : "s") +
        ")");
  }
  // A distinct code: the peer is unreachable after every attempt, as
  // opposed to merely slow (Unavailable) on one of them. Callers (the
  // CLI, the mediator's remote-node path) surface this differently from
  // a query error.
  return Status::Unreachable(
      endpoint + " unreachable: " + last.message() + " (after " +
      std::to_string(attempts) + " attempts)");
}

template <class Chunk, class Item>
Result<std::vector<uint8_t>> Client::ExchangeStream(
    const std::vector<uint8_t>& request, uint64_t budget_ms,
    std::vector<Item> Chunk::*items, std::vector<Item>* out) {
  uint64_t next_seq = 0;
  StreamHooks hooks;
  hooks.restart = [&]() {
    out->clear();
    next_seq = 0;
  };
  hooks.chunk = [&](const std::vector<uint8_t>& payload) -> Status {
    TURBDB_ASSIGN_OR_RETURN(Chunk chunk, Decode<Chunk>(payload));
    if (chunk.seq != next_seq) {
      return Status::Corruption(
          "streamed reply chunk gap: expected seq " +
          std::to_string(next_seq) + ", got " + std::to_string(chunk.seq));
    }
    ++next_seq;
    std::vector<Item>& chunk_items = chunk.*items;
    out->insert(out->end(), std::make_move_iterator(chunk_items.begin()),
                std::make_move_iterator(chunk_items.end()));
    return Status::OK();
  };
  return Exchange(request, budget_ms, &hooks);
}

uint64_t Client::Stamp(RpcOptions* rpc) const {
  if (rpc->tenant.empty()) rpc->tenant = options_.tenant;
  return rpc->deadline_ms != 0 ? rpc->deadline_ms : options_.deadline_ms;
}

template <class Req>
Result<ReplyOf<Req>> Client::Timed(Req request) {
  WallTimer timer;
  TURBDB_ASSIGN_OR_RETURN(ReplyOf<Req> result, Call(std::move(request)));
  result.wall_seconds = timer.Seconds();
  return result;
}

Result<ThresholdResult> Client::Threshold(const ThresholdQuery& query,
                                          const QueryOptions& options) {
  ThresholdRequest request;
  request.query = query;
  request.options = options;
  return Timed(std::move(request));
}

Result<ThresholdResult> Client::ThresholdStreamed(
    const ThresholdQuery& query, const QueryOptions& options) {
  WallTimer timer;
  ThresholdRequest request;
  request.query = query;
  request.options = options;
  request.stream = true;
  const uint64_t budget_ms = Stamp(&request.rpc);
  std::vector<ThresholdPoint> points;
  TURBDB_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      ExchangeStream(Encode(request), budget_ms, &ThresholdChunk::points,
                     &points));
  TURBDB_ASSIGN_OR_RETURN(ThresholdResult result,
                          Decode<ThresholdResult>(payload));
  // The terminating summary carries no points; reassemble the streamed
  // set. Z-order indices are unique per grid point, so sorting on them
  // reproduces the non-streamed ordering exactly; a cache hit streams in
  // z order already, a miss in the order its shards joined. The summary's
  // XML size is the whole answer's; its binary size counts the chunk
  // frames, so that one counter is recomputed for the answer here.
  const auto by_zindex = [](const ThresholdPoint& a, const ThresholdPoint& b) {
    return a.zindex < b.zindex;
  };
  if (!std::is_sorted(points.begin(), points.end(), by_zindex)) {
    std::sort(points.begin(), points.end(), by_zindex);
  }
  result.points = std::move(points);
  result.result_bytes_binary = PointsBinarySize(result.points);
  result.wall_seconds = timer.Seconds();
  return result;
}

Result<FofResult> Client::Fof(FofRequest request) {
  WallTimer timer;
  const uint64_t budget_ms = Stamp(&request.rpc);
  FofResult result;
  TURBDB_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                          ExchangeStream(Encode(request), budget_ms,
                                         &FofChunk::clusters, &result.clusters));
  TURBDB_ASSIGN_OR_RETURN(result.summary,
                          Decode<DistributedFofSummary>(payload));
  if (result.summary.clusters != result.clusters.size()) {
    return Status::Corruption(
        "streamed FoF reply incomplete: summary says " +
        std::to_string(result.summary.clusters) + " clusters, received " +
        std::to_string(result.clusters.size()));
  }
  result.wall_seconds = timer.Seconds();
  return result;
}

Result<PdfResult> Client::Pdf(const PdfQuery& query) {
  PdfRequest request;
  request.query = query;
  return Timed(std::move(request));
}

Result<TopKResult> Client::TopK(const TopKQuery& query) {
  TopKRequest request;
  request.query = query;
  return Timed(std::move(request));
}

Result<FieldStatsResult> Client::FieldStats(const FieldStatsQuery& query) {
  FieldStatsRequest request;
  request.query = query;
  return Timed(std::move(request));
}

Result<NodeOutcome> Client::NodeExecute(NodeExecuteRequest request) {
  if (!request.stream) return Call(std::move(request));
  // Streamed sub-reply: reassemble the chunked points around the
  // terminating NodeOutcome. Chunk order is the node's point order, so no
  // re-sort here — the mediator orders the merged set.
  const uint64_t budget_ms = Stamp(&request.rpc);
  std::vector<ThresholdPoint> points;
  TURBDB_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      ExchangeStream(Encode(request), budget_ms, &ThresholdChunk::points,
                     &points));
  TURBDB_ASSIGN_OR_RETURN(NodeOutcome outcome, Decode<NodeOutcome>(payload));
  outcome.points = std::move(points);
  return outcome;
}

}  // namespace net
}  // namespace turbdb
