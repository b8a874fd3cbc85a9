#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "query/query.h"

namespace turbdb {
namespace net {

struct ClientOptions {
  int connect_timeout_ms = 5000;
  /// How long one call may wait for the response frame. Should exceed
  /// `deadline_ms`, or the client gives up while the server still
  /// considers the request live.
  int read_timeout_ms = 70000;
  int write_timeout_ms = 10000;
  /// Extra attempts after a transport-level failure (connect refused,
  /// reset, read timeout). Query RPCs are read-only, hence idempotent
  /// and safe to retry. Typed failures — server-reported errors,
  /// Corruption, VersionMismatch, DeadlineExceeded, Cancelled — are
  /// never retried: a peer speaking the wrong protocol version fails
  /// fast instead of burning backoff.
  int max_retries = 2;
  /// First retry waits this long; each further retry doubles it, with
  /// uniform jitter in [delay/2, delay) so a fleet of clients retrying
  /// the same dead node does not reconverge in lockstep.
  int backoff_initial_ms = 100;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-query deadline budget in milliseconds (0 = none). This bounds
  /// the WHOLE call — every attempt plus every backoff sleep — and the
  /// *remaining* budget at send time is stamped into each request
  /// frame's v3 header so the server (and its downstream halo fetches)
  /// can size their work to it. An exhausted budget returns a typed
  /// kDeadlineExceeded, never kUnreachable.
  uint64_t deadline_ms = 0;
  /// Prefix prepended to this client's fault-injection site names
  /// (TURBDB_FAULTS builds), mirroring ServerOptions::fault_scope: when
  /// a process hosts several clients (a user client and the mediator's
  /// node channels), scoping pins an armed `client.*` fault to one of
  /// them deterministically. Empty = the documented site names.
  std::string fault_scope;
  /// Tenant name stamped into every request this client issues (v5
  /// payload header). The server bills admission to this tenant's
  /// fairness bucket; empty means the shared "default" bucket (and no
  /// per-tenant bookkeeping at all until the server opts into a tenant
  /// policy). The mediator's internal node channels leave this empty.
  std::string tenant;
};

/// Reassembled distributed friends-of-friends reply: the terminating
/// summary plus the streamed cluster records, in server order (size
/// descending, then id ascending).
struct FofResult {
  DistributedFofSummary summary;
  std::vector<FofClusterRecord> clusters;
  double wall_seconds = 0.0;
};

/// Sends framed RPCs to a turbdb_server or a turbdb_node. One Client
/// drives one connection and is not thread-safe; it reconnects lazily
/// after any transport failure. Query results carry the point sets,
/// counters and modeled time; `wall_seconds` is measured locally around
/// the RPC.
class Client {
 public:
  Client(std::string host, uint16_t port, ClientOptions options = {});

  /// One unary RPC: sends `request` and decodes the reply the wire table
  /// pairs with it (an error frame decodes to the Status the server
  /// sent). The request is billed to its own `rpc.tenant`, else the
  /// client's, and bounded by its own `rpc.deadline_ms`, else the
  /// client's. Streamed replies go through ThresholdStreamed, Fof and
  /// NodeExecute instead.
  template <class Req>
  Result<ReplyOf<Req>> Call(Req request) {
    const uint64_t budget_ms = Stamp(&request.rpc);
    TURBDB_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                            Exchange(Encode(request), budget_ms));
    return Decode<ReplyOf<Req>>(payload);
  }

  Result<ThresholdResult> Threshold(const ThresholdQuery& query,
                                    const QueryOptions& options = {});

  /// Streamed variant of Threshold: asks the server for a chunked reply
  /// (a sequence of kThresholdChunk frames terminated by a summary
  /// frame) and reassembles the point set locally — the server never
  /// buffers the full result, and a slow reader throttles the producer
  /// through TCP backpressure. The returned result is byte-identical in
  /// points to the non-streamed call. A transport failure mid-stream
  /// discards every partial chunk and restarts the query from scratch on
  /// the next retry attempt (chunks of different attempts never mix).
  ///
  /// Fault site (TURBDB_FAULTS builds): `client.disconnect_mid_stream`
  /// severs the connection after the first received chunk — the
  /// server-side abort/cancel drill.
  Result<ThresholdResult> ThresholdStreamed(const ThresholdQuery& query,
                                            const QueryOptions& options = {});

  /// Distributed friends-of-friends clustering over the points of
  /// `request.query`: a streamed reply (kFofChunk frames terminated by
  /// the summary) reassembled locally. Cluster ids are deterministic
  /// (smallest member z-index) and the membership matches the
  /// in-process FriendsOfFriends byte for byte. A transport failure
  /// mid-stream restarts the query from scratch on the next attempt.
  Result<FofResult> Fof(FofRequest request);

  Result<PdfResult> Pdf(const PdfQuery& query);
  Result<TopKResult> TopK(const TopKQuery& query);
  Result<FieldStatsResult> FieldStats(const FieldStatsQuery& query);

  /// A node's part of a query. With `request.stream` set the threshold
  /// points arrive as chunk frames and are reassembled, in the node's
  /// order, around the terminating NodeOutcome.
  Result<NodeOutcome> NodeExecute(NodeExecuteRequest request);

  // -- Forwards kept for the benchmark harness (perfbench/); the next
  // change to the benchmark moves it onto Call and deletes them.
  Status Ping() { return Call(PingRequest{}).status(); }
  Result<NodeFetchAtomsReply> NodeFetchAtoms(
      const NodeFetchAtomsRequest& request) {
    return Call(request);
  }

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

 private:
  /// Hooks a streamed call installs on the transport loop. `restart`
  /// runs at the start of every attempt (drop partial chunks from a
  /// failed earlier attempt); `chunk` consumes one chunk payload — a
  /// non-OK return is a typed, final failure (never retried).
  struct StreamHooks {
    std::function<void()> restart;
    std::function<Status(const std::vector<uint8_t>& payload)> chunk;
  };

  /// Bills `rpc` to the client's tenant unless it names its own, and
  /// returns its budget: its own deadline if set, else the client's.
  uint64_t Stamp(RpcOptions* rpc) const;

  /// A query RPC timed locally: its reply's `wall_seconds` is set.
  template <class Req>
  Result<ReplyOf<Req>> Timed(Req request);

  /// Sends one request payload and reads one response payload, with
  /// retry-with-backoff across transport failures. `budget_ms` (0 =
  /// none) caps the whole call — attempts and backoff sleeps — and its
  /// remaining balance is stamped into each attempt's frame header;
  /// exhaustion yields kDeadlineExceeded. When `stream` is non-null,
  /// intermediate chunk frames are fed to its hooks and the returned
  /// payload is the stream's *terminating* frame.
  Result<std::vector<uint8_t>> Exchange(const std::vector<uint8_t>& request,
                                        uint64_t budget_ms,
                                        const StreamHooks* stream = nullptr);

  /// A streamed call whose chunk frames decode as `Chunk` (a
  /// ThresholdChunk or a FofChunk): each frame is checked for a seq gap
  /// (kCorruption, never retried) and its `items` are appended to `out`
  /// in arrival order, starting over on every retried attempt. Returns
  /// the terminating frame's payload.
  template <class Chunk, class Item>
  Result<std::vector<uint8_t>> ExchangeStream(
      const std::vector<uint8_t>& request, uint64_t budget_ms,
      std::vector<Item> Chunk::*items, std::vector<Item>* out);

  /// One attempt on the current (or a fresh) connection, bounded by both
  /// the per-operation timeouts and the overall query budget.
  Result<std::vector<uint8_t>> ExchangeOnce(const std::vector<uint8_t>& request,
                                            const Deadline& budget,
                                            const StreamHooks* stream);

  Status EnsureConnected(Deadline deadline);

  std::string host_;
  uint16_t port_;
  ClientOptions options_;
  /// Fault-site name with `fault_scope` prepended, precomputed so the
  /// chunk-read loop never builds strings.
  std::string site_disconnect_mid_stream_;
  Socket conn_;
  /// Deterministic jitter source for retry backoff, seeded from the
  /// endpoint so tests replay identical schedules.
  SplitMix64 backoff_rng_;
};

}  // namespace net
}  // namespace turbdb
