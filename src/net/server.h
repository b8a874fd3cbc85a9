#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace turbdb {
namespace net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with Server::port().
  uint16_t port = 0;
  /// Connection-handling threads; each serves one connection at a time.
  int num_workers = 4;
  /// Frames above this payload size are refused.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Budget applied to requests that do not carry their own deadline.
  uint64_t default_deadline_ms = 60000;
  /// Identity returned by the Hello handshake: a mediator server keeps
  /// the default -1, a turbdb_node sets its node id, so a dialer can
  /// confirm it reached the process it meant to.
  int32_t server_id = -1;
  /// Incarnation counter returned by the Hello handshake. A turbdb_node
  /// bumps a counter persisted beside its storage dir on every start and
  /// sets it here, so a dialer that remembers the last epoch can tell a
  /// plain reconnect from a restart (and trigger re-sync). A mediator
  /// keeps the default 0.
  uint64_t server_epoch = 0;
  /// Prefix prepended to this server's fault-injection site names
  /// (TURBDB_FAULTS builds). The fault registry is process-global; when
  /// a test hosts several servers in one process, scoping ("n0." makes
  /// node 0 consult "n0.server.reply.delay") pins each armed fault to
  /// one server deterministically. Empty (the default, and what the
  /// one-server-per-process tools use) leaves the documented site names.
  std::string fault_scope;
  /// Admission control: how many handler-delegated requests (queries,
  /// ingests — not Ping/Hello/Stats/Cancel) may run at once. A request
  /// beyond the budget is shed *fast* with a typed kResourceExhausted
  /// error, never queued. 0 = unlimited.
  uint64_t max_concurrent_queries = 0;
  /// Admission control: how many reply bytes the server may buffer at
  /// once across all in-flight queries (the streaming encoder reserves
  /// each chunk against this before materializing it). 0 = unlimited.
  uint64_t result_budget_bytes = 0;
  /// Points per kThresholdChunk frame on streamed replies. Bounds the
  /// per-chunk buffer: ~29 bytes/point encoded, so the default is ~1 MiB
  /// chunks.
  uint64_t stream_chunk_points = 32768;
  /// Per-tenant fair admission (v5): flat in-flight cap applied to every
  /// tenant without an explicit weight. 0 = tenants share only the
  /// global budget (but are still counted once any of this or
  /// tenant_weights is set, or a request names a tenant).
  uint64_t per_tenant_max_queries = 0;
  /// Weighted tenant shares: tenant name -> weight. Each listed tenant
  /// gets max(1, max_concurrent_queries * w / total_w) in-flight slots.
  std::map<std::string, double> tenant_weights;
  /// Optional hook run on every stats() snapshot (local and remote) after
  /// the transport counters are filled in. The embedding service uses it
  /// to merge subsystem gauges — e.g. the mediator result-cache counters —
  /// into the same reply without the transport knowing about them.
  std::function<void(ServerStatsReply*)> stats_decorator;
  /// Optional hook run once at the end of Stop(), after every worker has
  /// joined and before the server's members are destroyed. The embedding
  /// service uses it to detach state that references the server — e.g.
  /// release cache reservations charged to this server's governor.
  std::function<void()> on_stop;
};

/// Per-request execution context handed to a Handler.
///
/// `deadline` is derived from the request frame's deadline-budget field
/// (or the server default when the frame carried 0); handlers should
/// check it between units of work and pass the *remaining* budget on any
/// downstream RPC they issue. `cancelled` flips to true when a
/// kCancelRequest names this request's query id — a cooperative token:
/// the handler polls it at its own granularity and abandons work early.
struct CallContext {
  Deadline deadline = Deadline::Infinite();
  std::shared_ptr<std::atomic<bool>> cancelled;

  /// Streamed replies: writes one response-frame payload (a
  /// kThresholdChunk, typically) to the requesting connection *now*,
  /// before the handler returns its terminating frame. Blocking on the
  /// socket is the backpressure: a slow client throttles the producer
  /// instead of growing a buffer. On a write failure (client gone, torn
  /// stream) the server flips `cancelled` — the disconnect aborts the
  /// rest of the query — and every later emit fails fast. Null when the
  /// transport cannot stream (in-process callers).
  std::function<Status(const std::vector<uint8_t>& payload)> emit;
  /// Points per streamed chunk (ServerOptions::stream_chunk_points).
  uint64_t chunk_points = 0;
  /// The server's result-byte accounting; producers reserve each chunk
  /// buffer against it. Null when the server runs unbudgeted.
  ResourceGovernor* governor = nullptr;

  bool Cancelled() const {
    return cancelled != nullptr &&
           cancelled->load(std::memory_order_relaxed);
  }
};

/// A framed-TCP request server: accepts connections, reads framed
/// requests, and answers them. What the requests *mean* is supplied by
/// the caller as a `Handler` — the mediator front-end
/// (`cluster/service.h`) and the per-node `turbdb_node` service
/// (`cluster/node_service.h`) both run on this same transport.
///
/// The server itself answers the transport-level requests (Ping,
/// ServerStats, Hello, Cancel) and delegates everything else to the
/// handler with a CallContext carrying the deadline and cancellation
/// token. If the deadline has expired — or the query was cancelled — by
/// the time the handler returns, the (stale) response is replaced by a
/// small typed error (kDeadlineExceeded / kCancelled). Cancel is
/// answered without consulting the handler, so it works on mediator and
/// node servers alike; note it still needs a free worker to read its
/// connection, so callers should keep num_workers above the expected
/// number of simultaneously busy query connections.
///
/// Failure policy: anything wrong with a *request* (unknown type, failed
/// query, expired deadline, oversized frame) gets an error frame back and
/// the connection stays open; anything wrong with the *stream* (bad
/// magic, version mismatch, CRC mismatch, torn read) closes the
/// connection, because framing can no longer be trusted.
///
/// Fault injection (TURBDB_FAULTS builds only) consults these sites:
///   server.accept         stall the accept path for `arg` ms
///   server.reply.delay    sleep `arg` ms before writing a response
///   server.reply.error    replace the response with an error of
///                         StatusCode `arg`
///   server.reply.truncate write only the first `arg` bytes of the
///                         response frame, then sever the connection
///   server.handler.error  fail only handler-delegated requests with an
///                         error of StatusCode `arg`; Hello/Ping/Stats/
///                         Cancel stay healthy (breaker drills)
///   server.chunk_truncate write only the first `arg` bytes of a
///                         streamed chunk frame, then sever the
///                         connection (mid-stream crash drills)
class Server {
 public:
  /// Produces the response payload for one request payload. `ctx`
  /// carries the request's execution budget and cancellation token; the
  /// handler may check both mid-flight. Must return either a response or
  /// an error frame body (EncodeErrorResponse) — never throw.
  using Handler = std::function<std::vector<uint8_t>(
      const std::vector<uint8_t>& payload, const CallContext& ctx)>;

  /// Binds, starts the accept loop and worker pool. The handler (and
  /// everything it references) must outlive the server.
  static Result<std::unique_ptr<Server>> Start(Handler handler,
                                               const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful shutdown: stop accepting, let in-flight requests finish,
  /// join every thread. Idempotent; also run by the destructor.
  void Stop();

  uint16_t port() const { return port_; }

  /// Snapshot of the request counters (also served remotely via the
  /// stats RPC).
  ServerStatsReply stats() const;

  /// The server's admission/result-byte ledger. Subsystems that want
  /// their resident bytes to compete with in-flight results (the
  /// mediator result cache) charge this ledger directly.
  ResourceGovernor& governor() { return governor_; }

 private:
  Server(Handler handler, const ServerOptions& options);

  void AcceptLoop();
  void ServeConnection(Socket conn);

  /// Decodes and executes one request payload; returns the *terminating*
  /// response payload (success or error frame body). `budget_ms` is the
  /// deadline budget read from the request's frame header (0 = none
  /// stated). `conn` is the requesting connection: a streaming handler
  /// writes chunk frames to it before returning. `stream_broken` is set
  /// when a mid-request chunk write failed — the connection's framing is
  /// no longer trustworthy and the caller must close it.
  std::vector<uint8_t> HandleRequest(const std::vector<uint8_t>& payload,
                                     uint32_t budget_ms, const Socket& conn,
                                     bool* stream_broken);

  /// Registers a live query under `query_id` and returns its token
  /// (reusing an existing token on id collision).
  std::shared_ptr<std::atomic<bool>> RegisterQuery(uint64_t query_id);
  void UnregisterQuery(uint64_t query_id);

  /// Flips the token of a live query; false if no such query is in
  /// flight (already finished, or never arrived).
  bool CancelLiveQuery(uint64_t query_id);

  /// Sleeps `ms` in stop-aware slices (fault-injection delays).
  void InjectedSleep(uint64_t ms);

  Handler handler_;
  ServerOptions options_;
  /// Fault-site names with this server's `fault_scope` prepended,
  /// precomputed so the per-request checks never build strings.
  std::string site_accept_;
  std::string site_reply_delay_;
  std::string site_reply_error_;
  std::string site_reply_truncate_;
  std::string site_handler_error_;
  std::string site_chunk_truncate_;
  Socket listener_;
  uint16_t port_ = 0;

  /// Admission budgets (concurrency + buffered reply bytes) from
  /// ServerOptions; 0-limits make it a pure counter.
  ResourceGovernor governor_;

  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;

  /// Live queries by id, for kCancelRequest. Entries exist only while the
  /// handler runs; a cancel for an unknown id is a no-op answer.
  std::mutex cancel_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<std::atomic<bool>>>
      live_queries_;

  mutable std::mutex stats_mutex_;
  uint64_t requests_ok_ = 0;
  uint64_t requests_error_ = 0;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
  uint64_t connections_accepted_ = 0;
  uint64_t active_connections_ = 0;
  /// Ring buffer of the most recent request latencies (ms) for the
  /// percentile estimates.
  std::vector<double> latencies_ms_;
  size_t latency_next_ = 0;
  bool latency_full_ = false;
};

}  // namespace net
}  // namespace turbdb
