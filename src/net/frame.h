#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "net/socket.h"

namespace turbdb {
namespace net {

/// The transport framing of the turbdb wire protocol. Every message —
/// request or response — travels as one frame:
///
///   offset  size  field
///   0       4     magic 'T' 'D' 'B' 'F' (0x46424454 little-endian)
///   4       1     protocol version (kProtocolVersion)
///   5       4     payload length, little-endian uint32
///   9       4     CRC32 of the payload, little-endian uint32
///   13      4     deadline budget, milliseconds, little-endian uint32
///   17      N     payload bytes
///
/// The CRC (same IEEE polynomial the file-backed atom store uses) makes
/// in-flight corruption a Corruption status instead of a garbage query
/// result; the explicit length makes oversized frames rejectable before
/// any allocation. The version byte makes a stale peer fail loudly with
/// a typed VersionMismatch instead of misparsing the payload: a v1
/// (unversioned, 12-byte-header) peer puts its length's low byte where
/// later versions expect the version, so the very first frame is
/// rejected, and a v2 (13-byte-header) peer fails the version check the
/// same way.
///
/// The v3 budget field carries the query's *remaining* deadline budget
/// on request frames (each hop deducts its elapsed time before
/// forwarding), so a server can size its own work and its downstream
/// fetches to what the client is still willing to wait for. 0 means "no
/// budget stated — use the server default". Response frames carry 0.
///
/// v4 keeps the header layout but extends the payload protocol: a
/// threshold request may ask for a *streamed* reply (a sequence of
/// kThresholdChunk frames, each CRC-checked by this same framing,
/// terminated by a summary-or-error frame), and the server-stats reply
/// gained admission-control counters — so v3 peers are refused up front
/// rather than mid-stream.
///
/// v5 (header layout still unchanged) widens the shared request-payload
/// header with a tenant string (after the query id) so per-tenant fair
/// admission can bucket every request, adds the distributed
/// friends-of-friends RPC (FofRequest / streamed FofChunk + FofResponse
/// terminator), and appends a per-tenant counter tail to the
/// server-stats reply. A v4 peer would misparse the tenant bytes as a
/// request body, so the version byte again refuses it at the first
/// frame.
///
/// v6 (header layout still unchanged) appends the sender's membership
/// generation varint to the shared request-payload header (after the
/// tenant), and adds the elasticity RPCs: Join/Leave,
/// MembershipGet/MembershipUpdate, BeginHandoff/Cutover and Rebalance.
/// The node-stats reply gains WAL-lag counters. A v5 peer would misparse
/// the generation varint, so the version byte refuses it at the first
/// frame.
///
/// v7 (header layout still unchanged) adds the self-healing RPCs:
/// NodeMerkle (Morton-range Merkle digest of a store, for anti-entropy
/// comparison between replicas), NodeScrub (trigger/inspect the
/// background checksum scrubber) and NodeRepairRange (heal only the
/// divergent ranges from a healthy sibling, paged over the existing
/// SyncRange flow). The node-stats reply appends scrub/quarantine
/// counters and the server-stats reply appends corruption-failover and
/// read-repair counters. A v6 peer would reject the new message types,
/// so the version byte refuses it at the first frame.
///
/// v8 (header layout still unchanged) drops the cache-affinity fields
/// from the cache-stats reply.
///
/// v9 (header layout still unchanged) appends the range overrides of the
/// routed membership view, and that view's records of joined shards, to
/// NodeExecuteRequest: a node evaluates and reads each sub-query by the
/// view the mediator routed it under, so no sub-query is bounced as
/// stale. The BeginHandoff RPC (types 29/93), an announcement nodes only
/// logged, is gone. A v8 peer would misparse the sub-query, so the
/// version byte refuses it at the first frame.
///
/// v10 (header layout still unchanged) retires MembershipUpdate (types
/// 28/92): nodes hold no membership view, so the mediator no longer
/// broadcasts one. CutoverRequest carries the generation the move
/// commits at in place of the whole view. Every other message is
/// byte-identical to v9. A v9 peer would misparse a cutover, so the
/// version byte refuses it at the first frame.
constexpr uint32_t kFrameMagic = 0x46424454u;  // "TDBF" read little-endian
constexpr uint8_t kProtocolVersion = 10;
constexpr size_t kFrameHeaderBytes = 17;

/// Default cap on a frame payload (64 MiB). A peer announcing more than
/// the configured cap is either corrupt or abusive; the frame is refused
/// without allocating.
constexpr uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Frames `payload` into a self-contained byte string (header + payload).
/// `budget_ms` is the remaining deadline budget stamped into the header
/// (0 on responses / when no budget is stated).
std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload,
                                 uint32_t budget_ms = 0);

/// Decodes one complete frame occupying the whole of `bytes`. Returns the
/// payload, or Corruption (bad magic / length mismatch / CRC mismatch) /
/// VersionMismatch (wrong version byte) / ResultTooLarge (payload length
/// above `max_payload_bytes`). When `budget_ms` is non-null it receives
/// the header's deadline-budget field.
Result<std::vector<uint8_t>> DecodeFrame(
    const std::vector<uint8_t>& bytes,
    uint32_t max_payload_bytes = kDefaultMaxFrameBytes,
    uint32_t* budget_ms = nullptr);

/// Writes one frame to the socket within the deadline, stamping
/// `budget_ms` into the header's deadline-budget field.
Status WriteFrame(const Socket& socket, const std::vector<uint8_t>& payload,
                  Deadline deadline, uint32_t budget_ms = 0);

/// Reads one frame from the socket within the deadline and returns its
/// payload. Error taxonomy matches DecodeFrame plus the RecvAll statuses
/// (IOError on EOF/reset, Unavailable on deadline expiry). An oversized
/// frame is drained in bounded chunks before ResultTooLarge is returned,
/// so the stream stays framed and the caller may keep the connection.
/// When `budget_ms` is non-null it receives the header's deadline-budget
/// field.
Result<std::vector<uint8_t>> ReadFrame(
    const Socket& socket, Deadline deadline,
    uint32_t max_payload_bytes = kDefaultMaxFrameBytes,
    uint32_t* budget_ms = nullptr);

}  // namespace net
}  // namespace turbdb
