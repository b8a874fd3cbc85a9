#include "net/server.h"

#include <algorithm>
#include <chrono>

#include "common/fault.h"
#include "common/logging.h"

namespace turbdb {
namespace net {

namespace {

constexpr size_t kLatencyWindow = 4096;

/// How often blocked accept/read loops wake to notice Stop().
constexpr int kIdlePollMs = 100;

/// A percentile over an unordered sample (nearest-rank).
double Percentile(std::vector<double> sample, double fraction) {
  if (sample.empty()) return 0.0;
  const size_t rank = std::min(
      sample.size() - 1,
      static_cast<size_t>(fraction * static_cast<double>(sample.size())));
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

Status DeadlineError(uint64_t budget_ms) {
  return Status::DeadlineExceeded("server-side budget of " +
                                  std::to_string(budget_ms) +
                                  " ms exhausted");
}

/// A response payload is an error frame iff its first (single-byte)
/// varint is kErrorResponse — all message types fit in one byte.
bool IsErrorPayload(const std::vector<uint8_t>& response) {
  return !response.empty() &&
         response[0] == static_cast<uint8_t>(MsgType::kErrorResponse);
}

}  // namespace

std::vector<uint8_t> Dispatcher::operator()(const std::vector<uint8_t>& payload,
                                            const CallContext& ctx) const {
  auto header = PeekRequestHeader(payload);
  if (!header.ok()) return EncodeErrorResponse(header.status());
  const Route& route = routes_[static_cast<size_t>(header->type)];
  if (!route) {
    return EncodeErrorResponse(Status::NotSupported(
        server_ + " does not serve request type " +
        std::to_string(static_cast<int>(header->type))));
  }
  return route(payload, ctx);
}

Server::Server(Handler handler, const ServerOptions& options)
    : handler_(std::move(handler)),
      options_(options),
      site_accept_(options.fault_scope + "server.accept"),
      site_reply_delay_(options.fault_scope + "server.reply.delay"),
      site_reply_error_(options.fault_scope + "server.reply.error"),
      site_reply_truncate_(options.fault_scope + "server.reply.truncate"),
      site_handler_error_(options.fault_scope + "server.handler.error"),
      site_chunk_truncate_(options.fault_scope + "server.chunk_truncate"),
      governor_(options.max_concurrent_queries, options.result_budget_bytes) {
  if (options.per_tenant_max_queries != 0 || !options.tenant_weights.empty()) {
    governor_.SetTenantPolicy(options.per_tenant_max_queries,
                              options.tenant_weights);
  }
  latencies_ms_.resize(kLatencyWindow, 0.0);
}

Result<std::unique_ptr<Server>> Server::Start(Handler handler,
                                              const ServerOptions& options) {
  if (!handler) {
    return Status::InvalidArgument("server needs a request handler");
  }
  std::unique_ptr<Server> server(new Server(std::move(handler), options));
  TURBDB_ASSIGN_OR_RETURN(
      server->listener_,
      TcpListen(options.bind_address, options.port));
  TURBDB_ASSIGN_OR_RETURN(server->port_, LocalPort(server->listener_));
  server->pool_ =
      std::make_unique<ThreadPool>(std::max(1, options.num_workers));
  server->accept_thread_ = std::thread([s = server.get()] {
    s->AcceptLoop();
  });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stop_.exchange(true)) {
    // Second caller (e.g. the destructor after an explicit Stop) still
    // has to wait for the first teardown to finish.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Destroying the pool joins the workers; handlers notice stop_ within
  // one idle poll and return after their in-flight request.
  pool_.reset();
  listener_.Close();
  // Last: every handler is done, so a teardown hook can safely release
  // state that referenced this server (e.g. detach a cache charging our
  // governor) before the members are destroyed.
  if (options_.on_stop) options_.on_stop();
}

void Server::AcceptLoop() {
  while (!stop_.load()) {
    auto conn = AcceptWithTimeout(listener_, kIdlePollMs);
    if (!conn.ok()) {
      if (stop_.load()) break;
      // Timeouts are the idle heartbeat; real accept errors are logged
      // and the loop keeps serving (a bad client must not kill the
      // listener).
      if (conn.status().code() != StatusCode::kUnavailable) {
        TURBDB_LOG(Warning) << "accept failed: " << conn.status();
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++connections_accepted_;
      ++active_connections_;
    }
    if (auto f = fault::Check(site_accept_.c_str())) {
      // Injected accept-stall: the connection is accepted but sits
      // unserved — the client sees an open socket that never answers,
      // the failure mode of a wedged server.
      InjectedSleep(f.arg);
    }
    pool_->Submit([this, c = std::move(conn).value()]() mutable {
      ServeConnection(std::move(c));
      std::lock_guard<std::mutex> lock(stats_mutex_);
      --active_connections_;
    });
  }
}

void Server::ServeConnection(Socket conn) {
  while (!stop_.load()) {
    Status readable = WaitReadable(conn, kIdlePollMs);
    if (!readable.ok()) {
      if (readable.code() == StatusCode::kUnavailable) continue;
      break;
    }
    uint32_t budget_ms = 0;
    auto payload = ReadFrame(
        conn, Deadline::After(static_cast<int64_t>(options_.default_deadline_ms)),
        options_.max_frame_bytes, &budget_ms);
    if (!payload.ok()) {
      // An oversized frame was drained by ReadFrame, so the stream is
      // still synced: refuse it with an error and keep serving. Any
      // other stream-level failure (bad magic, version mismatch, CRC
      // mismatch, torn read) leaves the framing untrustworthy and
      // closes the connection.
      if (payload.status().code() == StatusCode::kResultTooLarge) {
        const auto frame = EncodeErrorResponse(payload.status());
        Status written = WriteFrame(conn, frame, Deadline::After(1000));
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++requests_error_;
        if (written.ok()) bytes_out_ += kFrameHeaderBytes + frame.size();
        continue;
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      bytes_in_ += kFrameHeaderBytes + payload->size();
    }
    bool stream_broken = false;
    std::vector<uint8_t> response =
        HandleRequest(*payload, budget_ms, conn, &stream_broken);
    if (stream_broken) {
      // A chunk write failed mid-stream (client gone, or an injected
      // truncation): the connection may hold a torn frame, so the only
      // safe move is to drop it. The handler already saw its cancel
      // token flip.
      break;
    }
    if (auto f = fault::Check(site_reply_delay_.c_str())) {
      // Injected slow reply: the request was executed, the answer just
      // doesn't come — the client's read deadline decides.
      InjectedSleep(f.arg);
    }
    if (auto f = fault::Check(site_reply_error_.c_str())) {
      response = EncodeErrorResponse(
          Status(static_cast<StatusCode>(f.arg), "injected fault"));
    }
    if (auto f = fault::Check(site_reply_truncate_.c_str())) {
      // Injected mid-frame truncation: send a prefix of the encoded
      // frame and sever the connection, exactly what a crash between
      // send() calls produces.
      const auto frame = EncodeFrame(response);
      const size_t cut = std::min(static_cast<size_t>(f.arg), frame.size());
      (void)SendAll(conn, frame.data(), cut, Deadline::After(1000));
      break;
    }
    Status written = WriteFrame(
        conn, response,
        Deadline::After(static_cast<int64_t>(options_.default_deadline_ms)));
    if (!written.ok()) break;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    bytes_out_ += kFrameHeaderBytes + response.size();
  }
  conn.Close();
}

std::vector<uint8_t> Server::HandleRequest(
    const std::vector<uint8_t>& payload, uint32_t frame_budget_ms,
    const Socket& conn, bool* stream_broken) {
  const auto started = std::chrono::steady_clock::now();
  uint64_t chunk_bytes_out = 0;

  std::vector<uint8_t> response;
  auto header_or = PeekRequestHeader(payload);
  if (!header_or.ok()) {
    response = EncodeErrorResponse(header_or.status());
  } else {
    // The frame header carries the client's *remaining* budget; 0 means
    // none stated, so the server default applies.
    const uint64_t budget_ms = frame_budget_ms != 0
                                   ? frame_budget_ms
                                   : options_.default_deadline_ms;
    const Deadline deadline =
        Deadline::After(static_cast<int64_t>(budget_ms));

    switch (header_or->type) {
      case MsgType::kServerStatsRequest:
        response = Encode(stats());
        break;
      case MsgType::kHelloRequest:
        response = Encode(HelloReply{kProtocolVersion, options_.server_id,
                                     options_.server_epoch});
        break;
      case MsgType::kCancelRequest:
        // Answered here, not in the handler, so cancellation works the
        // same on mediator and node servers and never depends on what
        // the (possibly busy) application handler is doing.
        response = Encode(CancelReply{CancelLiveQuery(header_or->rpc.query_id)});
        break;
      case MsgType::kPingRequest: {
        // Sleep the requested delay in stop-aware slices, then honour
        // the deadline exactly like a query would.
        auto request = Decode<PingRequest>(payload);
        if (!request.ok()) {
          response = EncodeErrorResponse(request.status());
          break;
        }
        const auto wake =
            started + std::chrono::milliseconds(request->delay_ms);
        while (!stop_.load() && std::chrono::steady_clock::now() < wake) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        response = deadline.Expired()
                       ? EncodeErrorResponse(DeadlineError(budget_ms))
                       : Encode(Ack<PingRequest>{});
        break;
      }
      default: {
        if (auto f = fault::Check(site_handler_error_.c_str())) {
          // Injected application failure: only handler-delegated
          // requests fail, so Hello/Ping health probes still succeed —
          // the shape of a node whose storage is sick but whose
          // transport is fine (what trips a circuit breaker).
          response = EncodeErrorResponse(
              Status(static_cast<StatusCode>(f.arg), "injected fault"));
          break;
        }
        // Admission control: shed fast instead of queueing into an OOM.
        // Only handler-delegated work is gated — Ping/Hello/Stats/Cancel
        // stay answerable on an overloaded server. The header's tenant
        // picks the fairness bucket (empty = default).
        ResourceGovernor::AdmitTicket ticket;
        Status admitted = governor_.TryAdmit(header_or->rpc.tenant, &ticket);
        if (!admitted.ok()) {
          response = EncodeErrorResponse(admitted);
          break;
        }
        const uint64_t query_id = header_or->rpc.query_id;
        CallContext ctx;
        ctx.deadline = deadline;
        ctx.cancelled = query_id != 0
                            ? RegisterQuery(query_id)
                            : std::make_shared<std::atomic<bool>>(false);
        ctx.chunk_points = options_.stream_chunk_points;
        ctx.governor = &governor_;
        // Streamed replies go out through this hook while the handler
        // still runs. The blocking write *is* the backpressure; the
        // request deadline bounds how long a stalled client may hold the
        // worker. A failed write marks the stream broken and flips the
        // cancel token so the handler (and, through the mediator's
        // fan-out, the unjoined shards) stop producing.
        ctx.emit = [this, &conn, &ctx, &chunk_bytes_out,
                    stream_broken](const std::vector<uint8_t>& chunk) {
          if (*stream_broken) {
            return Status::IOError("reply stream already broken");
          }
          if (auto f = fault::Check(site_chunk_truncate_.c_str())) {
            // Injected mid-stream truncation: a prefix of the chunk
            // frame, then silence — a crash between send() calls.
            const auto frame = EncodeFrame(chunk);
            const size_t cut =
                std::min(static_cast<size_t>(f.arg), frame.size());
            (void)SendAll(conn, frame.data(), cut, Deadline::After(1000));
            *stream_broken = true;
            if (ctx.cancelled) {
              ctx.cancelled->store(true, std::memory_order_relaxed);
            }
            return Status::IOError("injected chunk truncation");
          }
          Status written = WriteFrame(conn, chunk, ctx.deadline);
          if (!written.ok()) {
            *stream_broken = true;
            if (ctx.cancelled) {
              ctx.cancelled->store(true, std::memory_order_relaxed);
            }
            return written;
          }
          chunk_bytes_out += kFrameHeaderBytes + chunk.size();
          return Status::OK();
        };
        response = handler_(payload, ctx);
        if (query_id != 0) UnregisterQuery(query_id);
        if (!IsErrorPayload(response)) {
          if (ctx.Cancelled()) {
            response = EncodeErrorResponse(Status::Cancelled(
                "query " + std::to_string(query_id) + " cancelled"));
          } else if (deadline.Expired()) {
            // The result is ready but stale: the client stopped
            // waiting. Sending a small error instead of a large dead
            // result is the whole point of carrying the deadline
            // server-side.
            response = EncodeErrorResponse(DeadlineError(budget_ms));
          }
        }
        break;
      }
    }
  }

  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (IsErrorPayload(response)) {
      ++requests_error_;
    } else {
      ++requests_ok_;
    }
    bytes_out_ += chunk_bytes_out;
    latencies_ms_[latency_next_] = latency_ms;
    latency_next_ = (latency_next_ + 1) % latencies_ms_.size();
    if (latency_next_ == 0) latency_full_ = true;
  }
  return response;
}

std::shared_ptr<std::atomic<bool>> Server::RegisterQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(cancel_mutex_);
  auto& token = live_queries_[query_id];
  if (token == nullptr) token = std::make_shared<std::atomic<bool>>(false);
  return token;
}

void Server::UnregisterQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(cancel_mutex_);
  live_queries_.erase(query_id);
}

bool Server::CancelLiveQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(cancel_mutex_);
  auto it = live_queries_.find(query_id);
  if (it == live_queries_.end()) return false;
  it->second->store(true, std::memory_order_relaxed);
  return true;
}

void Server::InjectedSleep(uint64_t ms) {
  const auto wake =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stop_.load() && std::chrono::steady_clock::now() < wake) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

ServerStatsReply Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ServerStatsReply reply;
  reply.requests_ok = requests_ok_;
  reply.requests_error = requests_error_;
  reply.bytes_in = bytes_in_;
  reply.bytes_out = bytes_out_;
  reply.connections_accepted = connections_accepted_;
  reply.active_connections = active_connections_;
  const size_t filled = latency_full_ ? latencies_ms_.size() : latency_next_;
  std::vector<double> sample(latencies_ms_.begin(),
                             latencies_ms_.begin() +
                                 static_cast<ptrdiff_t>(filled));
  reply.p50_latency_ms = Percentile(sample, 0.50);
  reply.p99_latency_ms = Percentile(std::move(sample), 0.99);
  reply.queries_in_flight = governor_.in_flight();
  reply.queries_admitted = governor_.admitted();
  reply.queries_shed = governor_.shed();
  reply.result_bytes_in_use = governor_.bytes_in_use();
  reply.result_bytes_peak = governor_.peak_bytes();
  for (const auto& tenant : governor_.tenant_stats()) {
    ServerStatsReply::TenantStats entry;
    entry.name = tenant.name;
    entry.in_flight = tenant.in_flight;
    entry.peak_in_flight = tenant.peak_in_flight;
    entry.admitted = tenant.admitted;
    entry.shed = tenant.shed;
    entry.cap = tenant.cap;
    reply.tenants.push_back(std::move(entry));
  }
  if (options_.stats_decorator) options_.stats_decorator(&reply);
  return reply;
}

}  // namespace net
}  // namespace turbdb
