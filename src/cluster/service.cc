#include "cluster/service.h"

#include <chrono>
#include <utility>
#include <variant>

namespace turbdb {

net::Server::Handler MediatorHandler(Mediator* mediator) {
  return [mediator](const std::vector<uint8_t>& payload,
                    const net::CallContext& ctx) -> std::vector<uint8_t> {
    // Elasticity control plane (v6): these admin messages are not part
    // of the query Request variant — peek the type and route them to the
    // mediator's membership API directly. A mediator running without a
    // membership registry answers with a typed kNotSupported.
    if (auto header = net::PeekRequestHeader(payload); header.ok()) {
      switch (header->type) {
        case net::MsgType::kJoinRequest: {
          auto req = net::DecodeJoinRequest(payload);
          if (!req.ok()) return net::EncodeErrorResponse(req.status());
          auto reply = mediator->Join(*req);
          if (!reply.ok()) return net::EncodeErrorResponse(reply.status());
          return net::EncodeJoinResponse(*reply);
        }
        case net::MsgType::kLeaveRequest: {
          auto req = net::DecodeLeaveRequest(payload);
          if (!req.ok()) return net::EncodeErrorResponse(req.status());
          auto reply = mediator->Leave(req->node_id);
          if (!reply.ok()) return net::EncodeErrorResponse(reply.status());
          return net::EncodeLeaveResponse(*reply);
        }
        case net::MsgType::kMembershipGetRequest: {
          auto req = net::DecodeMembershipGetRequest(payload);
          if (!req.ok()) return net::EncodeErrorResponse(req.status());
          if (!mediator->elastic()) {
            return net::EncodeErrorResponse(Status::NotSupported(
                "mediator runs without a membership registry"));
          }
          net::MembershipGetReply reply;
          reply.view = mediator->Membership();
          return net::EncodeMembershipGetResponse(reply);
        }
        case net::MsgType::kRebalanceRequest: {
          auto req = net::DecodeRebalanceRequest(payload);
          if (!req.ok()) return net::EncodeErrorResponse(req.status());
          auto reply = mediator->Rebalance(*req);
          if (!reply.ok()) return net::EncodeErrorResponse(reply.status());
          return net::EncodeRebalanceResponse(*reply);
        }
        default:
          break;
      }
    }

    auto request_or = net::DecodeRequest(payload);
    if (!request_or.ok()) {
      return net::EncodeErrorResponse(request_or.status());
    }
    const net::Request& request = *request_or;

    // Hand the mediator the same budget the server derived from the
    // frame header, so shard dispatch and remote sub-queries inherit it.
    CallBudget budget;
    if (!ctx.deadline.infinite()) {
      budget.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(ctx.deadline.PollTimeoutMs());
    }
    budget.cancel = ctx.cancelled.get();

    std::vector<uint8_t> response;
    auto finish = [&](auto&& result_or) {
      if (!result_or.ok()) {
        response = net::EncodeErrorResponse(result_or.status());
      } else if (ctx.deadline.Expired()) {
        // The result is ready but stale: the client stopped waiting.
        response = net::EncodeErrorResponse(
            Status::DeadlineExceeded("deadline exceeded"));
      } else {
        response = net::EncodeResponse(*result_or);
      }
    };

    if (std::holds_alternative<net::ThresholdRequest>(request)) {
      const auto& req = std::get<net::ThresholdRequest>(request);
      if (req.stream && ctx.emit != nullptr) {
        // Streamed reply: encode each chunk as a kThresholdChunk frame
        // and push it to the connection now; the terminating frame is the
        // summary (or error) this handler returns. Each chunk's buffer is
        // reserved against the server's result-byte budget *before* it is
        // materialized, so concurrent large replies cannot blow past the
        // configured memory bound — they wait (bounded by the deadline /
        // cancel token) for earlier chunks to drain.
        uint64_t seq = 0;
        Mediator::ThresholdChunkSink sink =
            [&](std::vector<ThresholdPoint> points,
                uint64_t total_points) -> Result<uint64_t> {
          ResourceGovernor::ByteReservation reservation;
          if (ctx.governor != nullptr) {
            // Upper-bound estimate of the encoded chunk: <= 20 bytes per
            // point (3 varint coords + float + float) plus header slack.
            const uint64_t estimate = points.size() * 20 + 64;
            TURBDB_RETURN_NOT_OK(ctx.governor->ReserveBlocking(
                estimate, &reservation, ctx.cancelled.get()));
          }
          net::ThresholdChunk chunk;
          chunk.seq = seq++;
          chunk.points = std::move(points);
          chunk.total_points = total_points;
          const std::vector<uint8_t> frame = net::EncodeThresholdChunk(chunk);
          TURBDB_RETURN_NOT_OK(ctx.emit(frame));
          return static_cast<uint64_t>(frame.size());
        };
        finish(mediator->GetThresholdStreaming(req.query, req.options, budget,
                                               ctx.chunk_points, sink));
      } else {
        finish(mediator->GetThreshold(req.query, req.options, budget));
      }
    } else if (std::holds_alternative<net::FofRequest>(request)) {
      const auto& req = std::get<net::FofRequest>(request);
      // Distributed FoF reply: cluster records stream out as kFofChunk
      // frames as the stitcher emits them, each buffer reserved against
      // the server's result-byte budget first (same discipline as the
      // streamed threshold path); the terminating frame carries the
      // summary. Without a streaming transport (in-process callers) the
      // records are dropped and only the summary is returned.
      uint64_t seq = 0;
      Mediator::FofClusterSink sink =
          [&](std::vector<DistributedFofCluster> clusters,
              uint64_t total_clusters) -> Result<uint64_t> {
        if (ctx.emit == nullptr) return static_cast<uint64_t>(0);
        net::FofChunk chunk;
        chunk.seq = seq++;
        chunk.total_clusters = total_clusters;
        uint64_t member_points = 0;
        chunk.clusters.reserve(clusters.size());
        for (DistributedFofCluster& cluster : clusters) {
          net::FofClusterRecord record;
          record.id = cluster.id;
          record.size = cluster.members.size();
          record.bbox_lo = cluster.bbox_lo;
          record.bbox_hi = cluster.bbox_hi;
          record.centroid = cluster.centroid;
          record.max_norm = cluster.max_norm;
          record.peak_zindex = cluster.peak_zindex;
          if (req.include_members) {
            member_points += cluster.members.size();
            record.members = std::move(cluster.members);
          }
          chunk.clusters.push_back(std::move(record));
        }
        ResourceGovernor::ByteReservation reservation;
        if (ctx.governor != nullptr) {
          // Upper-bound estimate: ~96 bytes of stats per record plus
          // <= 20 bytes per shipped member point.
          const uint64_t estimate =
              chunk.clusters.size() * 96 + member_points * 20 + 64;
          TURBDB_RETURN_NOT_OK(ctx.governor->ReserveBlocking(
              estimate, &reservation, ctx.cancelled.get()));
        }
        const std::vector<uint8_t> frame = net::EncodeFofChunk(chunk);
        TURBDB_RETURN_NOT_OK(ctx.emit(frame));
        return static_cast<uint64_t>(frame.size());
      };
      auto summary_or =
          mediator->GetFof(req.query, req.options, req.linking_length,
                           req.min_cluster_size, budget, ctx.chunk_points,
                           sink);
      if (!summary_or.ok()) {
        response = net::EncodeErrorResponse(summary_or.status());
      } else if (ctx.deadline.Expired()) {
        response = net::EncodeErrorResponse(
            Status::DeadlineExceeded("deadline exceeded"));
      } else {
        net::FofReply reply;
        reply.clusters = summary_or->clusters;
        reply.points = summary_or->points;
        reply.largest_cluster = summary_or->largest_cluster;
        reply.time = summary_or->time;
        response = net::EncodeFofResponse(reply);
      }
    } else if (std::holds_alternative<net::PdfRequest>(request)) {
      finish(mediator->GetPdf(std::get<net::PdfRequest>(request).query,
                              budget));
    } else if (std::holds_alternative<net::TopKRequest>(request)) {
      finish(mediator->GetTopK(std::get<net::TopKRequest>(request).query,
                               budget));
    } else if (std::holds_alternative<net::FieldStatsRequest>(request)) {
      finish(mediator->GetFieldStats(
          std::get<net::FieldStatsRequest>(request).query, budget));
    } else if (std::holds_alternative<net::DropCacheRequest>(request)) {
      const auto& req = std::get<net::DropCacheRequest>(request);
      uint64_t dropped = 0;
      Status status = mediator->DropCacheEntries(
          req.dataset, req.raw_field, req.derived_field, req.timestep,
          &dropped);
      if (!status.ok()) {
        response = net::EncodeErrorResponse(status);
      } else {
        net::DropCacheReply reply;
        reply.mediator_entries = dropped;
        reply.node_tier_cleared = true;
        response = net::EncodeDropCacheResponse(reply);
      }
    } else if (std::holds_alternative<net::CacheStatsRequest>(request)) {
      const MediatorCacheStats stats = mediator->result_cache().stats();
      net::CacheStatsReply reply;
      reply.enabled = mediator->result_cache().enabled();
      reply.capacity_bytes = stats.capacity_bytes;
      reply.entries = stats.entries;
      reply.bytes = stats.bytes;
      reply.hits = stats.hits;
      reply.misses = stats.misses;
      reply.subsumption_hits = stats.subsumption_hits;
      reply.insertions = stats.insertions;
      reply.evictions = stats.evictions;
      reply.invalidations = stats.invalidations;
      reply.stale_inserts = stats.stale_inserts;
      reply.pinned_entries = stats.pinned_entries;
      reply.pinned_bytes = stats.pinned_bytes;
      response = net::EncodeCacheStatsResponse(reply);
    } else if (std::holds_alternative<net::CacheWarmRequest>(request)) {
      const auto& req = std::get<net::CacheWarmRequest>(request);
      auto outcome = mediator->WarmThresholdCache(req.query, budget);
      if (!outcome.ok()) {
        response = net::EncodeErrorResponse(outcome.status());
      } else {
        net::CacheWarmReply reply;
        reply.points = outcome->points;
        reply.already_cached = outcome->already_cached;
        response = net::EncodeCacheWarmResponse(reply);
      }
    } else if (std::holds_alternative<net::CachePinRequest>(request)) {
      const auto& req = std::get<net::CachePinRequest>(request);
      net::CachePinReply reply;
      reply.entries = mediator->result_cache().Pin(
          req.dataset, req.raw_field + ":" + req.derived_field, req.timestep);
      response =
          net::EncodeCachePinResponse(reply, net::MsgType::kCachePinResponse);
    } else if (std::holds_alternative<net::CacheUnpinRequest>(request)) {
      const auto& req = std::get<net::CacheUnpinRequest>(request);
      net::CachePinReply reply;
      reply.entries = mediator->result_cache().Unpin(
          req.dataset, req.raw_field + ":" + req.derived_field, req.timestep);
      response = net::EncodeCachePinResponse(reply,
                                             net::MsgType::kCacheUnpinResponse);
    } else {
      // Ping/ServerStats/Hello are answered by the server itself; a
      // node-scoped request reaching a mediator lands here too.
      response = net::EncodeErrorResponse(Status::NotSupported(
          "request type not served by a mediator server"));
    }
    return response;
  };
}

Result<std::unique_ptr<net::Server>> ServeMediator(
    Mediator* mediator, const net::ServerOptions& options) {
  if (mediator == nullptr) {
    return Status::InvalidArgument("server needs a mediator");
  }
  // Fold the mediator-cache gauges into every server-stats snapshot, so
  // `turbdb_cli server-stats` shows the cache next to the governor
  // counters without a second RPC.
  net::ServerOptions effective = options;
  effective.stats_decorator = [mediator](net::ServerStatsReply* reply) {
    const MediatorCacheStats stats = mediator->result_cache().stats();
    reply->cache_hits = stats.hits;
    reply->cache_misses = stats.misses;
    reply->cache_subsumption_hits = stats.subsumption_hits;
    reply->cache_evictions = stats.evictions;
    reply->cache_entries = stats.entries;
    reply->cache_bytes = stats.bytes;
    reply->cache_pinned_bytes = stats.pinned_bytes;
    reply->membership_generation = mediator->generation();
    reply->corruption_failovers = mediator->corruption_failovers();
    reply->read_repairs = mediator->read_repairs();
  };
  // The cache will charge the server's governor; when the server stops,
  // its governor dies with it, so the resident entries (whose RAII
  // reservations reference it) must be released first and the cache
  // re-pointed at its internal ledger.
  effective.on_stop = [mediator]() {
    mediator->result_cache().Clear();
    mediator->result_cache().AttachLedger(nullptr);
  };
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<net::Server> server,
                          net::Server::Start(MediatorHandler(mediator),
                                             effective));
  // Charge resident cache bytes to the server's result-byte ledger: the
  // cache competes with in-flight results for the same budget and its
  // bytes are visible in the governor gauges. Attached while the cache
  // is still empty, so every reservation goes through this ledger.
  mediator->result_cache().AttachLedger(&server->governor());
  return std::move(server);
}

}  // namespace turbdb
