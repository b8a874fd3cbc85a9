#include "cluster/service.h"

#include <chrono>
#include <functional>
#include <utility>

namespace turbdb {

namespace {

/// The server's deadline and cancel token for the mediator, so shard
/// dispatch and remote sub-queries inherit them.
CallBudget BudgetOf(const net::CallContext& ctx) {
  CallBudget budget;
  if (!ctx.deadline.infinite()) {
    budget.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(ctx.deadline.PollTimeoutMs());
  }
  budget.cancel = ctx.cancelled.get();
  return budget;
}

Result<ThresholdResult> Threshold(Mediator* mediator,
                                  const net::ThresholdRequest& req,
                                  const net::CallContext& ctx) {
  if (!req.stream || ctx.emit == nullptr) {
    return mediator->GetThreshold(req.query, req.options, BudgetOf(ctx));
  }
  // Streamed reply: each chunk leaves as a kThresholdChunk frame now
  // (net::EmitChunk reserves its bytes first); the terminating frame is
  // the summary (or error) this handler returns.
  uint64_t seq = 0;
  Mediator::ThresholdChunkSink sink =
      [&](std::vector<ThresholdPoint> points,
          uint64_t total_points) -> Result<uint64_t> {
    net::ThresholdChunk chunk;
    chunk.seq = seq++;
    chunk.points = std::move(points);
    chunk.total_points = total_points;
    return net::EmitChunk(
        ctx, chunk, chunk.points.size() * net::kStreamedBytesPerPoint);
  };
  return mediator->GetThresholdStreaming(req.query, req.options, BudgetOf(ctx),
                                         ctx.chunk_points, sink);
}

/// FoF reply: cluster records stream out as kFofChunk frames in the
/// batches GetFof emits, each through net::EmitChunk like a streamed
/// threshold chunk; the terminating frame carries the summary. Without a
/// streaming transport (in-process callers) the records are dropped and
/// only the summary is returned.
Result<DistributedFofSummary> Fof(Mediator* mediator,
                                  const net::FofRequest& req,
                                  const net::CallContext& ctx) {
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
    // About 96 bytes of stats per record, plus the shipped members.
    return net::EmitChunk(
        ctx, chunk,
        chunk.clusters.size() * 96 +
            member_points * net::kStreamedBytesPerPoint);
  };
  return mediator->GetFof(req.query, req.options, req.linking_length,
                          req.min_cluster_size, BudgetOf(ctx),
                          ctx.chunk_points, sink);
}

}  // namespace

net::Server::Handler MediatorHandler(Mediator* mediator) {
  using net::CallContext;
  net::Dispatcher dispatcher("mediator");
  dispatcher
      .On<net::ThresholdRequest>(std::bind_front(Threshold, mediator))
      .On<net::FofRequest>(std::bind_front(Fof, mediator))
      .On<net::PdfRequest>(
          [mediator](const net::PdfRequest& req, const CallContext& ctx) {
            return mediator->GetPdf(req.query, BudgetOf(ctx));
          })
      .On<net::TopKRequest>(
          [mediator](const net::TopKRequest& req, const CallContext& ctx) {
            return mediator->GetTopK(req.query, BudgetOf(ctx));
          })
      .On<net::FieldStatsRequest>([mediator](const net::FieldStatsRequest& req,
                                             const CallContext& ctx) {
        return mediator->GetFieldStats(req.query, BudgetOf(ctx));
      })
      // Cache controls. DropCache clears both tiers (the mediator's and
      // every node's); the others act on the mediator tier only.
      .On<net::DropCacheRequest>([mediator](const net::DropCacheRequest& req,
                                            const CallContext&)
                                     -> Result<net::DropCacheReply> {
        net::DropCacheReply reply;
        TURBDB_RETURN_NOT_OK(mediator->DropCacheEntries(
            req.dataset, req.raw_field, req.derived_field, req.timestep,
            &reply.mediator_entries));
        reply.node_tier_cleared = true;
        return reply;
      })
      .On<net::CacheStatsRequest>(
          [mediator](const net::CacheStatsRequest&, const CallContext&) {
            return net::CacheStatsReply{mediator->result_cache().enabled(),
                                        mediator->result_cache().stats()};
          })
      .On<net::CacheWarmRequest>([mediator](const net::CacheWarmRequest& req,
                                            const CallContext& ctx)
                                     -> Result<net::CacheWarmReply> {
        TURBDB_ASSIGN_OR_RETURN(
            auto outcome, mediator->WarmThresholdCache(req.query, BudgetOf(ctx)));
        return net::CacheWarmReply{outcome.points, outcome.already_cached};
      })
      .On<net::CachePinRequest>(
          [mediator](const net::CachePinRequest& req, const CallContext&) {
            return net::CachePinReply{mediator->result_cache().Pin(
                req.dataset, req.raw_field + ":" + req.derived_field,
                req.timestep)};
          })
      .On<net::CacheUnpinRequest>(
          [mediator](const net::CacheUnpinRequest& req, const CallContext&) {
            return net::CacheUnpinReply{mediator->result_cache().Unpin(
                req.dataset, req.raw_field + ":" + req.derived_field,
                req.timestep)};
          })
      // Elasticity control plane (v6). A mediator running without a
      // membership registry answers with a typed kNotSupported.
      .On<net::JoinRequest>(
          [mediator](const net::JoinRequest& req, const CallContext&) {
            return mediator->Join(req);
          })
      .On<net::LeaveRequest>(
          [mediator](const net::LeaveRequest& req, const CallContext&) {
            return mediator->Leave(req.node_id);
          })
      .On<net::MembershipGetRequest>(
          [mediator](const net::MembershipGetRequest&, const CallContext&)
              -> Result<net::MembershipGetReply> {
            if (!mediator->elastic()) {
              return Status::NotSupported(
                  "mediator runs without a membership registry");
            }
            return net::MembershipGetReply{mediator->Membership()};
          })
      .On<net::RebalanceRequest>(
          [mediator](const net::RebalanceRequest& req, const CallContext&) {
            return mediator->Rebalance(req);
          });
  return dispatcher;
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
  return server;
}

}  // namespace turbdb
