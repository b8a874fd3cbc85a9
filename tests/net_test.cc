// Tests for the TCP service layer: frame codec, protocol messages,
// socket plumbing, and an end-to-end server/client loop that must match
// the in-process Mediator byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "common/rng.h"
#include "wire/serializer.h"
#include "core/turbdb.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"

#include "cluster/service.h"

namespace turbdb {
namespace {

using net::Deadline;
using net::Socket;

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) out.push_back(static_cast<uint8_t>(v));
  return out;
}

// -- Frame codec ---------------------------------------------------------

TEST(FrameTest, RoundTripsPayloads) {
  for (size_t size : {0u, 1u, 13u, 4096u}) {
    SplitMix64 rng(size);
    std::vector<uint8_t> payload(size);
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextBounded(256));
    const auto frame = net::EncodeFrame(payload);
    EXPECT_EQ(frame.size(), net::kFrameHeaderBytes + size);
    auto decoded = net::DecodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(FrameTest, RejectsCrcMismatch) {
  auto frame = net::EncodeFrame(Bytes({1, 2, 3, 4, 5}));
  frame[net::kFrameHeaderBytes + 2] ^= 0x40;  // corrupt payload in flight
  auto decoded = net::DecodeFrame(frame);
  EXPECT_TRUE(decoded.status().IsCorruption());
  EXPECT_NE(decoded.status().message().find("CRC"), std::string::npos);
}

TEST(FrameTest, RejectsBadMagicAndTruncation) {
  auto frame = net::EncodeFrame(Bytes({9, 9, 9}));
  auto bad_magic = frame;
  bad_magic[0] ^= 0xFF;
  EXPECT_TRUE(net::DecodeFrame(bad_magic).status().IsCorruption());

  auto truncated = frame;
  truncated.pop_back();
  EXPECT_TRUE(net::DecodeFrame(truncated).status().IsCorruption());

  EXPECT_TRUE(net::DecodeFrame(Bytes({1, 2, 3})).status().IsCorruption());
}

TEST(FrameTest, RejectsWrongProtocolVersion) {
  auto frame = net::EncodeFrame(Bytes({1, 2, 3}));
  EXPECT_EQ(frame[4], net::kProtocolVersion);
  frame[4] = net::kProtocolVersion + 1;  // a future peer
  auto decoded = net::DecodeFrame(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kVersionMismatch);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);

  frame[4] = 1;  // a v1 peer (whose header had no version byte at all)
  EXPECT_EQ(net::DecodeFrame(frame).status().code(),
            StatusCode::kVersionMismatch);

  frame[4] = 2;  // a v2 peer (13-byte header, no deadline field)
  EXPECT_EQ(net::DecodeFrame(frame).status().code(),
            StatusCode::kVersionMismatch);
}

TEST(FrameTest, RejectsOversizedFrames) {
  const auto frame = net::EncodeFrame(std::vector<uint8_t>(1024, 7));
  auto decoded = net::DecodeFrame(frame, /*max_payload_bytes=*/512);
  EXPECT_EQ(decoded.status().code(), StatusCode::kResultTooLarge);
}

TEST(FrameTest, DeadlineBudgetRoundTrips) {
  const auto payload = Bytes({5, 6, 7});
  for (uint32_t budget : {0u, 1u, 4500u, 0xFFFFFFFFu}) {
    const auto frame = net::EncodeFrame(payload, budget);
    uint32_t decoded_budget = 12345;
    auto decoded = net::DecodeFrame(frame, net::kDefaultMaxFrameBytes,
                                    &decoded_budget);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, payload);
    EXPECT_EQ(decoded_budget, budget);
  }
  // Callers that do not care about the budget may pass nullptr.
  EXPECT_TRUE(net::DecodeFrame(net::EncodeFrame(payload, 777)).ok());
}

TEST(FrameTest, BudgetFieldIsCrcNeutral) {
  // The budget is header state, not payload: re-stamping it hop by hop
  // must not invalidate the CRC or change the payload bytes.
  const auto payload = Bytes({1, 2, 3, 4});
  auto a = net::EncodeFrame(payload, 100);
  auto b = net::EncodeFrame(payload, 99999);
  ASSERT_EQ(a.size(), b.size());
  a[13] = b[13];
  a[14] = b[14];
  a[15] = b[15];
  a[16] = b[16];
  EXPECT_EQ(a, b);
  EXPECT_TRUE(net::DecodeFrame(a).ok());
}

TEST(FrameTest, TruncatedOrGarbageHeadersNeverCrashTheDecoder) {
  // Every prefix of a valid v3 frame — including cuts inside the new
  // deadline field at offsets 13..16 — must decode to a typed error.
  const auto frame = net::EncodeFrame(Bytes({42, 43, 44}), 1234);
  for (size_t len = 0; len < frame.size(); ++len) {
    std::vector<uint8_t> prefix(frame.begin(),
                                frame.begin() + static_cast<long>(len));
    uint32_t budget = 0;
    auto decoded =
        net::DecodeFrame(prefix, net::kDefaultMaxFrameBytes, &budget);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Random header-sized garbage: typed error or valid decode, no crash.
  SplitMix64 rng(2015);
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<uint8_t> garbage(
        rng.NextBounded(net::kFrameHeaderBytes + 24));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextBounded(256));
    uint32_t budget = 0;
    (void)net::DecodeFrame(garbage, net::kDefaultMaxFrameBytes, &budget);
  }
}

// -- Socket + framed I/O over loopback ----------------------------------

TEST(SocketTest, FramedRoundTripOverLoopback) {
  auto listener = net::TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = net::LocalPort(*listener);
  ASSERT_TRUE(port.ok());

  const auto payload = Bytes({10, 20, 30, 40});
  std::thread peer([&] {
    auto conn = net::AcceptWithTimeout(*listener, 5000);
    ASSERT_TRUE(conn.ok()) << conn.status();
    auto got = net::ReadFrame(*conn, Deadline::After(5000));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, payload);
    // Echo it back.
    EXPECT_TRUE(net::WriteFrame(*conn, *got, Deadline::After(5000)).ok());
  });

  auto client = net::TcpConnect("127.0.0.1", *port, Deadline::After(5000));
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(net::WriteFrame(*client, payload, Deadline::After(5000)).ok());
  auto echoed = net::ReadFrame(*client, Deadline::After(5000));
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  EXPECT_EQ(*echoed, payload);
  peer.join();
}

TEST(SocketTest, RecvTimesOutCleanly) {
  auto listener = net::TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = net::LocalPort(*listener);
  ASSERT_TRUE(port.ok());
  auto client = net::TcpConnect("127.0.0.1", *port, Deadline::After(5000));
  ASSERT_TRUE(client.ok()) << client.status();
  // Nobody ever writes: the read must surface Unavailable, not hang.
  auto got = net::ReadFrame(*client, Deadline::After(50));
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind-then-close yields a port that refuses connections.
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = net::LocalPort(*listener).value();
  }
  auto conn = net::TcpConnect("127.0.0.1", dead_port, Deadline::After(2000));
  EXPECT_FALSE(conn.ok());
}

TEST(SocketTest, ParseHostPort) {
  auto ok = net::ParseHostPort("10.0.0.1:7878");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, "10.0.0.1");
  EXPECT_EQ(ok->second, 7878);
  EXPECT_FALSE(net::ParseHostPort("nohost").ok());
  EXPECT_FALSE(net::ParseHostPort(":123").ok());
  EXPECT_FALSE(net::ParseHostPort("host:").ok());
  EXPECT_FALSE(net::ParseHostPort("host:99999").ok());
}

// -- Protocol messages ---------------------------------------------------

TEST(ProtocolTest, ThresholdRequestRoundTrips) {
  net::ThresholdRequest request;
  request.query.dataset = "mhd";
  request.query.raw_field = "velocity";
  request.query.derived_field = "vorticity";
  request.query.timestep = 3;
  request.query.box = Box3(1, 2, 3, 17, 18, 19);
  request.query.threshold = 42.5;
  request.query.fd_order = 6;
  request.options.use_cache = false;
  request.options.io_only = true;
  request.options.processes_per_node = 2;
  request.options.max_result_points = 123456;
  // The deadline budget travels in the frame header (v3), not the
  // payload; only the query id is serialized here.
  request.rpc.deadline_ms = 777;
  request.rpc.query_id = 0xFEEDFACECAFEBEEFull;

  auto decoded_or = net::DecodeRequest(net::EncodeRequest(request));
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status();
  const auto& decoded = std::get<net::ThresholdRequest>(*decoded_or);
  EXPECT_EQ(decoded.query.dataset, "mhd");
  EXPECT_EQ(decoded.query.derived_field, "vorticity");
  EXPECT_EQ(decoded.query.timestep, 3);
  EXPECT_EQ(decoded.query.box, request.query.box);
  EXPECT_EQ(decoded.query.threshold, 42.5);
  EXPECT_EQ(decoded.query.fd_order, 6);
  EXPECT_FALSE(decoded.options.use_cache);
  EXPECT_TRUE(decoded.options.io_only);
  EXPECT_EQ(decoded.options.processes_per_node, 2);
  EXPECT_EQ(decoded.options.max_result_points, 123456u);
  EXPECT_EQ(decoded.rpc.query_id, 0xFEEDFACECAFEBEEFull);
  // deadline_ms is frame-header state, deliberately not round-tripped.
  EXPECT_EQ(decoded.rpc.deadline_ms, 0u);
}

TEST(ProtocolTest, AllRequestTypesRoundTrip) {
  net::PdfRequest pdf;
  pdf.query.dataset = "iso";
  pdf.query.bin_width = 1.5;
  pdf.query.num_bins = 12;
  auto pdf_or = net::DecodeRequest(net::EncodeRequest(pdf));
  ASSERT_TRUE(pdf_or.ok());
  EXPECT_EQ(std::get<net::PdfRequest>(*pdf_or).query.num_bins, 12);

  net::TopKRequest topk;
  topk.query.k = 99;
  auto topk_or = net::DecodeRequest(net::EncodeRequest(topk));
  ASSERT_TRUE(topk_or.ok());
  EXPECT_EQ(std::get<net::TopKRequest>(*topk_or).query.k, 99u);

  net::FieldStatsRequest stats;
  stats.query.derived_field = "current";
  auto stats_or = net::DecodeRequest(net::EncodeRequest(stats));
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(std::get<net::FieldStatsRequest>(*stats_or).query.derived_field,
            "current");

  net::ServerStatsRequest server_stats;
  auto ss_or = net::DecodeRequest(net::EncodeRequest(server_stats));
  ASSERT_TRUE(ss_or.ok());
  EXPECT_TRUE(std::holds_alternative<net::ServerStatsRequest>(*ss_or));

  net::PingRequest ping;
  ping.delay_ms = 250;
  auto ping_or = net::DecodeRequest(net::EncodeRequest(ping));
  ASSERT_TRUE(ping_or.ok());
  EXPECT_EQ(std::get<net::PingRequest>(*ping_or).delay_ms, 250u);
}

TEST(ProtocolTest, ResponsesRoundTrip) {
  ThresholdResult threshold;
  threshold.points = {MakeThresholdPoint(1, 2, 3, 4.5f),
                      MakeThresholdPoint(7, 8, 9, 0.25f)};
  std::sort(threshold.points.begin(), threshold.points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  threshold.all_cache_hits = true;
  threshold.result_bytes_binary = 100;
  threshold.result_bytes_xml = 700;
  threshold.time.io_s = 1.25;
  auto threshold_or =
      net::DecodeThresholdResponse(net::EncodeResponse(threshold));
  ASSERT_TRUE(threshold_or.ok()) << threshold_or.status();
  EXPECT_EQ(threshold_or->points, threshold.points);
  EXPECT_TRUE(threshold_or->all_cache_hits);
  EXPECT_EQ(threshold_or->result_bytes_xml, 700u);
  EXPECT_EQ(threshold_or->time.io_s, 1.25);

  PdfResult pdf;
  pdf.counts = {5, 4, 3, 2, 1, 0};
  pdf.bin_width = 2.5;
  pdf.total_points = 15;
  auto pdf_or = net::DecodePdfResponse(net::EncodeResponse(pdf));
  ASSERT_TRUE(pdf_or.ok());
  EXPECT_EQ(pdf_or->counts, pdf.counts);
  EXPECT_EQ(pdf_or->bin_width, 2.5);

  // Top-k points are norm-sorted (not z-sorted); the codec must not care.
  TopKResult topk;
  topk.points = {MakeThresholdPoint(30, 30, 30, 9.0f),
                 MakeThresholdPoint(1, 1, 1, 8.0f)};
  auto topk_or = net::DecodeTopKResponse(net::EncodeResponse(topk));
  ASSERT_TRUE(topk_or.ok()) << topk_or.status();
  EXPECT_EQ(topk_or->points, topk.points);

  FieldStatsResult stats;
  stats.count = 262144;
  stats.mean = 1.0;
  stats.rms = 2.0;
  stats.max = 30.5;
  auto stats_or = net::DecodeFieldStatsResponse(net::EncodeResponse(stats));
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or->count, 262144u);
  EXPECT_EQ(stats_or->max, 30.5);

  net::ServerStatsReply reply;
  reply.requests_ok = 12;
  reply.bytes_out = 3456;
  reply.p99_latency_ms = 77.5;
  auto reply_or = net::DecodeServerStatsResponse(net::EncodeResponse(reply));
  ASSERT_TRUE(reply_or.ok());
  EXPECT_EQ(reply_or->requests_ok, 12u);
  EXPECT_EQ(reply_or->p99_latency_ms, 77.5);
}

TEST(ProtocolTest, ErrorResponseCarriesStatus) {
  const Status error = Status::ThresholdTooLow("too many points");
  auto decoded =
      net::DecodeThresholdResponse(net::EncodeErrorResponse(error));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kThresholdTooLow);
  EXPECT_EQ(decoded.status().message(), "too many points");
}

TEST(ProtocolTest, RejectsGarbageAndTrailingBytes) {
  EXPECT_FALSE(net::DecodeRequest(Bytes({200, 1, 2})).ok());
  EXPECT_FALSE(net::DecodeRequest({}).ok());

  net::PingRequest ping;
  auto payload = net::EncodeRequest(ping);
  payload.push_back(0);
  EXPECT_TRUE(net::DecodeRequest(payload).status().IsCorruption());

  // Fuzz: random bytes must never crash the request decoder.
  SplitMix64 rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> garbage(rng.NextBounded(96));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextBounded(256));
    (void)net::DecodeRequest(garbage);
    (void)net::DecodeThresholdResponse(garbage);
    (void)net::DecodeServerStatsResponse(garbage);
  }
}

// -- Golden frames: point-carrying messages must keep their exact bytes.

std::vector<ThresholdPoint> GoldenPoints() {
  return {
      ThresholdPoint{0, 0.0f},
      ThresholdPoint{1, 1.5f},
      ThresholdPoint{127, 123.456f},
      ThresholdPoint{128, 1e-5f},
      ThresholdPoint{16384, 7.25e8f},
      ThresholdPoint{1ULL << 40, -2.0f},
      MakeThresholdPoint(2097151, 2097151, 2097151, 3.4028235e38f),
  };
}

TimeBreakdown GoldenTime() {
  TimeBreakdown time;
  time.cache_lookup_s = 0.125;
  time.io_s = 1.0 / 3.0;
  time.compute_s = 2.5e-7;
  time.mediator_db_comm_s = 42.0;
  time.mediator_user_comm_s = 1e-300;
  return time;
}

ThresholdResult GoldenThresholdResult() {
  ThresholdResult result;
  result.points = GoldenPoints();
  result.all_cache_hits = true;
  result.result_bytes_binary = 57;
  result.result_bytes_xml = 1234567;
  result.time = GoldenTime();
  return result;
}

net::ThresholdChunk GoldenThresholdChunk() {
  net::ThresholdChunk chunk;
  chunk.seq = 300;
  chunk.points = GoldenPoints();
  chunk.total_points = 70000;
  return chunk;
}

TopKResult GoldenTopKResult() {
  // Norm-sorted, so the z-index deltas wrap mod 2^64.
  TopKResult result;
  result.points = {ThresholdPoint{5000, 9.0f}, ThresholdPoint{12, 8.0f},
                   ThresholdPoint{1ULL << 50, 7.0f}, ThresholdPoint{3, 6.5f}};
  result.time = GoldenTime();
  return result;
}

NodeOutcome GoldenNodeOutcome() {
  NodeOutcome result;
  result.points = GoldenPoints();
  result.histogram = {0, 1, 200, 70000};
  result.norm_sum = 12.5;
  result.norm_sum_sq = 99.75;
  result.norm_max = 7.0;
  result.samples = {{7u, {1.0, -2.0, 0.5}}};
  result.cache_hit = true;
  result.time = GoldenTime();
  result.io.atoms_read_local = 1;
  result.io.atoms_read_remote = 2;
  result.io.bytes_read_local = 3000;
  result.io.bytes_read_remote = 4;
  result.io.cache_records_scanned = 5;
  result.io.cache_bytes_scanned = 6;
  result.io.points_evaluated = 262144;
  result.io.points_returned = 7;
  return result;
}

net::FofChunk GoldenFofChunk() {
  net::FofChunk chunk;
  chunk.seq = 1;
  chunk.total_clusters = 2;
  net::FofClusterRecord with_members;
  with_members.id = 1;
  with_members.size = 3;
  with_members.bbox_lo = {0, 0, 0};
  with_members.bbox_hi = {1, 1, 2};
  with_members.centroid = {0.5, 0.25, 1.0};
  with_members.max_norm = 123.456f;
  with_members.peak_zindex = 127;
  with_members.members = {ThresholdPoint{1, 1.5f},
                          ThresholdPoint{127, 123.456f},
                          ThresholdPoint{128, 1e-5f}};
  net::FofClusterRecord summary_only;
  summary_only.id = 16384;
  summary_only.size = 1;
  summary_only.bbox_lo = {0, 0, 32};
  summary_only.bbox_hi = {0, 0, 32};
  summary_only.centroid = {0.0, 0.0, 32.0};
  summary_only.max_norm = 7.25e8f;
  summary_only.peak_zindex = 16384;
  chunk.clusters = {with_members, summary_only};
  return chunk;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

// The expected bytes were captured from the encoder that built each
// point blob in a temporary and copied it in; encoding in place must not
// move a single byte.
TEST(ProtocolTest, PointCarryingMessagesMatchGoldenBytes) {
  EXPECT_EQ(Hex(net::EncodeResponse(GoldenThresholdResult())),
            "4137d3a8c1a205070000000000010000c03f7e79e9f64201acc52737807f7dda"
            "2c4e8080ffffff1f000000c0ffffffffffdfffff7fffff7f7f013987ad4b0000"
            "00000000c03f555555555555d53f8dedb5a0f7c6903e000000000000454059f3"
            "f8c21f6ea501");
  EXPECT_EQ(Hex(net::EncodeThresholdChunk(GoldenThresholdChunk())),
            "49ac0237d3a8c1a205070000000000010000c03f7e79e9f64201acc52737807f"
            "7dda2c4e8080ffffff1f000000c0ffffffffffdfffff7fffff7f7ff0a204");
  EXPECT_EQ(Hex(net::EncodeResponse(GoldenTopKResult())),
            "4334d3a8c1a2050488270000104184d9ffffffffffffff0100000041f4ffffff"
            "ffffff010000e04083808080808080feff010000d040000000000000c03f5555"
            "55555555d53f8dedb5a0f7c6903e000000000000454059f3f8c21f6ea501");
  EXPECT_EQ(Hex(net::EncodeNodeExecuteResponse(GoldenNodeOutcome())),
            "5237d3a8c1a205070000000000010000c03f7e79e9f64201acc52737807f7dda"
            "2c4e8080ffffff1f000000c0ffffffffffdfffff7fffff7f7f040001c801f0a2"
            "0400000000000029400000000000f058400000000000001c4001070000000000"
            "00f03f00000000000000c0000000000000e03f01000000000000c03f55555555"
            "5555d53f8dedb5a0f7c6903e000000000000454059f3f8c21f6ea5010102b817"
            "04050680801007");
  EXPECT_EQ(Hex(net::EncodeFofChunk(GoldenFofChunk())),
            "5801020103000000010102000000000000e03f000000000000d03f0000000000"
            "00f03f79e9f6427f15d3a8c1a20503010000c03f7e79e9f64201acc527378080"
            "0101000020000020000000000000000000000000000000000000000000004040"
            "7dda2c4e80800106d3a8c1a2050002");

  // And they decode, in place, back to the inputs.
  auto threshold = net::DecodeThresholdResponse(
      net::EncodeResponse(GoldenThresholdResult()));
  ASSERT_TRUE(threshold.ok()) << threshold.status();
  EXPECT_EQ(threshold->points, GoldenPoints());
  auto topk = net::DecodeTopKResponse(net::EncodeResponse(GoldenTopKResult()));
  ASSERT_TRUE(topk.ok()) << topk.status();
  EXPECT_EQ(topk->points, GoldenTopKResult().points);
  auto node = net::DecodeNodeExecuteResponse(
      net::EncodeNodeExecuteResponse(GoldenNodeOutcome()));
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_EQ(node->points, GoldenPoints());
  auto fof = net::DecodeFofChunk(net::EncodeFofChunk(GoldenFofChunk()));
  ASSERT_TRUE(fof.ok()) << fof.status();
  EXPECT_EQ(fof->clusters, GoldenFofChunk().clusters);
}

// A point blob is decoded where it lies in the message, so its bounds
// are the blob's, never the payload's.
TEST(ProtocolTest, PointBlobReadsStopAtTheBlobEnd) {
  auto chunk_payload = [](uint64_t blob_length,
                          const std::vector<uint8_t>& rest) {
    std::vector<uint8_t> payload;
    PutVarint64(&payload,
                static_cast<uint64_t>(net::MsgType::kThresholdChunk));
    PutVarint64(&payload, 0);  // seq
    PutVarint64(&payload, blob_length);
    payload.insert(payload.end(), rest.begin(), rest.end());
    return payload;
  };

  // A blob length past the payload end.
  const std::vector<uint8_t> blob = EncodePointsBinary(GoldenPoints());
  std::vector<uint8_t> rest = blob;
  PutVarint64(&rest, 7);  // total_points
  EXPECT_TRUE(
      net::DecodeThresholdChunk(chunk_payload(blob.size(), rest)).ok());
  auto past_end =
      net::DecodeThresholdChunk(chunk_payload(rest.size() + 1, rest));
  EXPECT_TRUE(past_end.status().IsCorruption()) << past_end.status();

  // Two points, the second's delta varint still continuing at the blob's
  // last byte. The payload goes on with bytes that would complete it (and
  // a norm), so only a read bounded by the blob end refuses it.
  std::vector<uint8_t> cut;
  PutVarint64(&cut, 0x54505453);  // the codec's magic
  PutVarint64(&cut, 2);
  for (int b : {0x80, 0x80, 0x01, 0x00, 0x00, 0x80, 0x3f, 0x80, 0x80, 0x80}) {
    cut.push_back(static_cast<uint8_t>(b));
  }
  const size_t cut_length = cut.size();
  for (int b : {0x01, 0x00, 0x00, 0x80, 0x3f, 0x02}) {
    cut.push_back(static_cast<uint8_t>(b));
  }
  auto crossing = net::DecodeThresholdChunk(chunk_payload(cut_length, cut));
  EXPECT_TRUE(crossing.status().IsCorruption()) << crossing.status();
  // The same bytes with the blob length covering the completed varint
  // and its norm decode: the rejection above is the bound, not the data.
  auto whole = net::DecodeThresholdChunk(chunk_payload(cut_length + 5, cut));
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole->points.size(), 2u);
}

// -- End-to-end server/client -------------------------------------------

class ServerEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TurbDBConfig config;
    config.cluster.num_nodes = 2;
    config.cluster.processes_per_node = 2;
    db_ = TurbDB::Open(config).value().release();
    ASSERT_TRUE(
        EnsureMhdDemoData(db_, "mhd", 32, /*timesteps=*/1, /*seed=*/2015)
            .ok());
    net::ServerOptions options;
    options.num_workers = 4;
    server_ =
        ServeMediator(&db_->mediator(), options).value().release();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static ThresholdQuery VorticityQuery(double threshold) {
    ThresholdQuery query;
    query.dataset = "mhd";
    query.raw_field = "velocity";
    query.derived_field = "vorticity";
    query.timestep = 0;
    query.box = Box3::WholeGrid(32, 32, 32);
    query.threshold = threshold;
    query.fd_order = 4;
    return query;
  }

  static TurbDB* db_;
  static net::Server* server_;
};

TurbDB* ServerEndToEndTest::db_ = nullptr;
net::Server* ServerEndToEndTest::server_ = nullptr;

TEST_F(ServerEndToEndTest, ThresholdMatchesInProcessExactly) {
  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(32, 32, 32);
  auto stats = db_->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok());

  const ThresholdQuery query = VorticityQuery(2.0 * stats->rms);
  auto local = db_->mediator().GetThreshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_GT(local->points.size(), 0u);

  net::Client client("127.0.0.1", server_->port());
  auto remote = client.Threshold(query);
  ASSERT_TRUE(remote.ok()) << remote.status();

  // The acceptance bar: the remote result is the same point set, z-index
  // for z-index and norm for norm — and the serialized forms agree byte
  // for byte.
  ASSERT_EQ(remote->points.size(), local->points.size());
  for (size_t i = 0; i < local->points.size(); ++i) {
    EXPECT_EQ(remote->points[i].zindex, local->points[i].zindex);
    EXPECT_EQ(remote->points[i].norm, local->points[i].norm);
  }
  EXPECT_EQ(EncodePointsBinary(remote->points),
            EncodePointsBinary(local->points));
  EXPECT_GT(remote->wall_seconds, 0.0);
}

TEST_F(ServerEndToEndTest, PdfTopKAndStatsMatch) {
  net::Client client("127.0.0.1", server_->port());

  PdfQuery pdf_query;
  pdf_query.dataset = "mhd";
  pdf_query.raw_field = "velocity";
  pdf_query.derived_field = "vorticity";
  pdf_query.box = Box3::WholeGrid(32, 32, 32);
  pdf_query.bin_width = 2.0;
  pdf_query.num_bins = 9;
  auto local_pdf = db_->Pdf(pdf_query);
  auto remote_pdf = client.Pdf(pdf_query);
  ASSERT_TRUE(local_pdf.ok());
  ASSERT_TRUE(remote_pdf.ok()) << remote_pdf.status();
  EXPECT_EQ(remote_pdf->counts, local_pdf->counts);
  EXPECT_EQ(remote_pdf->total_points, local_pdf->total_points);

  TopKQuery topk_query;
  topk_query.dataset = "mhd";
  topk_query.raw_field = "velocity";
  topk_query.derived_field = "vorticity";
  topk_query.box = Box3::WholeGrid(32, 32, 32);
  topk_query.k = 25;
  auto local_topk = db_->TopK(topk_query);
  auto remote_topk = client.TopK(topk_query);
  ASSERT_TRUE(local_topk.ok());
  ASSERT_TRUE(remote_topk.ok()) << remote_topk.status();
  EXPECT_EQ(remote_topk->points, local_topk->points);

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(32, 32, 32);
  auto local_stats = db_->FieldStats(stats_query);
  auto remote_stats = client.FieldStats(stats_query);
  ASSERT_TRUE(local_stats.ok());
  ASSERT_TRUE(remote_stats.ok()) << remote_stats.status();
  EXPECT_EQ(remote_stats->count, local_stats->count);
  EXPECT_EQ(remote_stats->mean, local_stats->mean);
  EXPECT_EQ(remote_stats->rms, local_stats->rms);
  EXPECT_EQ(remote_stats->max, local_stats->max);
}

TEST_F(ServerEndToEndTest, QueryErrorsTravelAsStatus) {
  net::Client client("127.0.0.1", server_->port());
  ThresholdQuery query = VorticityQuery(5.0);
  query.dataset = "no-such-dataset";
  auto result = client.Threshold(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerEndToEndTest, DeadlineExpiryIsACleanError) {
  net::ClientOptions options;
  options.deadline_ms = 50;
  options.max_retries = 0;
  net::Client client("127.0.0.1", server_->port(), options);
  // The server sleeps past the deadline, then must answer with a small
  // error frame instead of a result — and must not hang the connection.
  Status status = client.Ping(/*delay_ms=*/300);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("budget"), std::string::npos);

  // The same connection still serves the next request.
  EXPECT_TRUE(client.Ping(0).ok());
}

TEST_F(ServerEndToEndTest, ConcurrentClientsAllSucceed) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<Status> outcomes(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &outcomes] {
      net::Client client("127.0.0.1", server_->port());
      FieldStatsQuery query;
      query.dataset = "mhd";
      query.raw_field = "velocity";
      query.derived_field = "vorticity";
      query.box = Box3::WholeGrid(32, 32, 32);
      auto result = client.FieldStats(query);
      outcomes[static_cast<size_t>(i)] = result.status();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& status : outcomes) EXPECT_TRUE(status.ok()) << status;
}

TEST_F(ServerEndToEndTest, ServerStatsReflectTraffic) {
  net::Client client("127.0.0.1", server_->port());
  ASSERT_TRUE(client.Ping().ok());
  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->requests_ok, 0u);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  EXPECT_GT(stats->connections_accepted, 0u);
  EXPECT_GE(stats->p99_latency_ms, stats->p50_latency_ms);
}

TEST_F(ServerEndToEndTest, CorruptFrameClosesConnection) {
  auto conn = net::TcpConnect("127.0.0.1", server_->port(),
                              Deadline::After(5000));
  ASSERT_TRUE(conn.ok());
  // A stream that opens with garbage can't be re-synced; the server must
  // drop it (read yields EOF) rather than hang or crash. At least
  // kFrameHeaderBytes of it, so the server has a full (bad) header to
  // reject — fewer bytes are just an incomplete frame it keeps awaiting.
  const auto garbage = Bytes({0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7,
                              8, 9, 10, 11, 12, 13, 14});
  ASSERT_GE(garbage.size(), net::kFrameHeaderBytes);
  ASSERT_TRUE(
      net::SendAll(*conn, garbage.data(), garbage.size(), Deadline::After(5000))
          .ok());
  auto got = net::ReadFrame(*conn, Deadline::After(5000));
  EXPECT_TRUE(got.status().IsIOError()) << got.status();
}

TEST_F(ServerEndToEndTest, OversizedFrameIsRefusedWithError) {
  // Announce a payload bigger than the server cap; the server should
  // answer with a ResultTooLarge error frame and close.
  net::ServerOptions small;
  small.max_frame_bytes = 256;
  small.num_workers = 1;
  auto server = ServeMediator(&db_->mediator(), small);
  ASSERT_TRUE(server.ok());
  auto conn = net::TcpConnect("127.0.0.1", (*server)->port(),
                              Deadline::After(5000));
  ASSERT_TRUE(conn.ok());
  const auto frame = net::EncodeFrame(std::vector<uint8_t>(1024, 0));
  ASSERT_TRUE(
      net::SendAll(*conn, frame.data(), frame.size(), Deadline::After(5000))
          .ok());
  auto reply = net::ReadFrame(*conn, Deadline::After(5000));
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto decoded = net::DecodePingResponse(*reply);
  EXPECT_EQ(decoded.code(), StatusCode::kResultTooLarge);

  // The refusal drained the frame, so the connection keeps working.
  const auto ping = net::EncodeRequest(net::PingRequest{});
  ASSERT_TRUE(net::WriteFrame(*conn, ping, Deadline::After(5000)).ok());
  auto pong = net::ReadFrame(*conn, Deadline::After(5000));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(net::DecodePingResponse(*pong).ok());
}

TEST_F(ServerEndToEndTest, GracefulShutdownUnblocksEverything) {
  net::ServerOptions options;
  options.num_workers = 2;
  auto server = ServeMediator(&db_->mediator(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();
  net::Client client("127.0.0.1", port);
  ASSERT_TRUE(client.Ping().ok());
  (*server)->Stop();
  // After Stop, new requests fail cleanly (connection refused or reset),
  // they do not hang.
  net::ClientOptions fast;
  fast.max_retries = 0;
  fast.connect_timeout_ms = 1000;
  fast.read_timeout_ms = 1000;
  net::Client late("127.0.0.1", port, fast);
  EXPECT_FALSE(late.Ping().ok());
}

// -- Streamed replies ----------------------------------------------------

TEST_F(ServerEndToEndTest, StreamedThresholdByteIdenticalUnderTinyBudget) {
  // A dedicated server whose result budget is far below the result size,
  // with tiny chunks so the reply crosses many frame boundaries. The
  // streamed reply must still be byte-identical to the buffered one, and
  // the server's peak buffered bytes must stay under the budget — the
  // acceptance bar for bounded-memory streaming.
  net::ServerOptions small;
  small.num_workers = 2;
  small.stream_chunk_points = 64;
  small.result_budget_bytes = 8u << 10;  // 8 KiB
  auto server = ServeMediator(&db_->mediator(), small);
  ASSERT_TRUE(server.ok()) << server.status();

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(32, 32, 32);
  auto stats = db_->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok());

  // A low threshold so the result is much larger than the byte budget.
  const ThresholdQuery query = VorticityQuery(0.5 * stats->rms);
  auto local = db_->mediator().GetThreshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_GT(EncodePointsBinary(local->points).size(),
            small.result_budget_bytes);

  net::Client client("127.0.0.1", (*server)->port());
  auto streamed = client.ThresholdStreamed(query);
  ASSERT_TRUE(streamed.ok()) << streamed.status();

  ASSERT_EQ(streamed->points.size(), local->points.size());
  for (size_t i = 0; i < local->points.size(); ++i) {
    ASSERT_EQ(streamed->points[i].zindex, local->points[i].zindex) << i;
    ASSERT_EQ(streamed->points[i].norm, local->points[i].norm) << i;
  }
  EXPECT_EQ(EncodePointsBinary(streamed->points),
            EncodePointsBinary(local->points));
  EXPECT_EQ(streamed->result_bytes_binary, local->result_bytes_binary);
  EXPECT_EQ(streamed->result_bytes_xml, local->result_bytes_xml);

  const auto server_stats = (*server)->stats();
  EXPECT_GE(server_stats.queries_admitted, 1u);
  EXPECT_GT(server_stats.result_bytes_peak, 0u);
  // Bounded memory: the encoder never buffered more than the budget even
  // though the full result is several times larger.
  EXPECT_LE(server_stats.result_bytes_peak, small.result_budget_bytes);
  // Every reservation was released when its chunk hit the wire.
  EXPECT_EQ(server_stats.result_bytes_in_use, 0u);
}

TEST_F(ServerEndToEndTest, StreamedThresholdExactlyAtPointCap) {
  // The point cap is enforced while chunks are in flight; a result
  // exactly at the cap must pass, one short of it must fail typed.
  net::ServerOptions small;
  small.num_workers = 2;
  small.stream_chunk_points = 64;
  auto server = ServeMediator(&db_->mediator(), small);
  ASSERT_TRUE(server.ok()) << server.status();

  FieldStatsQuery stats_query;
  stats_query.dataset = "mhd";
  stats_query.raw_field = "velocity";
  stats_query.derived_field = "vorticity";
  stats_query.box = Box3::WholeGrid(32, 32, 32);
  auto stats = db_->FieldStats(stats_query);
  ASSERT_TRUE(stats.ok());

  const ThresholdQuery query = VorticityQuery(2.0 * stats->rms);
  auto local = db_->mediator().GetThreshold(query);
  ASSERT_TRUE(local.ok()) << local.status();
  const uint64_t n = local->points.size();
  ASSERT_GT(n, 1u);

  net::Client client("127.0.0.1", (*server)->port());

  QueryOptions at_cap;
  at_cap.max_result_points = n;
  auto exact = client.ThresholdStreamed(query, at_cap);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->points.size(), n);
  EXPECT_EQ(EncodePointsBinary(exact->points),
            EncodePointsBinary(local->points));

  QueryOptions below_cap;
  below_cap.max_result_points = n - 1;
  auto over = client.ThresholdStreamed(query, below_cap);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kThresholdTooLow)
      << over.status();
}

TEST(StreamedThresholdTest, ChunkSeqGapIsCorruptionOnBothReassemblers) {
  // A server whose threshold stream skips seq 1. The user-facing
  // streamed query and the mediator's streamed node sub-reply share one
  // reassembler, and both must refuse the stream, not merge around the
  // hole.
  std::atomic<int> streams{0};
  net::Server::Handler handler = [&](const std::vector<uint8_t>&,
                                     const net::CallContext& ctx) {
    ++streams;
    for (uint64_t seq : {0u, 2u}) {
      net::ThresholdChunk chunk;
      chunk.seq = seq;
      chunk.points = {ThresholdPoint{100 + seq, 1.5f}};
      chunk.total_points = seq + 1;
      if (!ctx.emit(net::EncodeThresholdChunk(chunk)).ok()) break;
    }
    return net::EncodeErrorResponse(
        Status::Internal("the reader should have stopped at the gap"));
  };
  net::ServerOptions options;
  options.num_workers = 2;
  auto server = net::Server::Start(handler, options);
  ASSERT_TRUE(server.ok()) << server.status();
  net::Client client("127.0.0.1", (*server)->port());

  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.box = Box3::WholeGrid(8, 8, 8);
  auto streamed = client.ThresholdStreamed(query);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kCorruption)
      << streamed.status();

  net::NodeExecuteRequest request;
  request.spec.dataset = "mhd";
  request.spec.raw_field = "velocity";
  request.spec.derived_field = "vorticity";
  request.spec.box = Box3::WholeGrid(8, 8, 8);
  request.stream = true;
  auto sub_reply = client.NodeExecute(request);
  ASSERT_FALSE(sub_reply.ok());
  EXPECT_EQ(sub_reply.status().code(), StatusCode::kCorruption)
      << sub_reply.status();
  // A corrupt stream is final: neither call retried.
  EXPECT_EQ(streams.load(), 2);
}

// -- Admission control ---------------------------------------------------

TEST(AdmissionControlTest, OverBudgetQueriesShedFastWithTypedError) {
  // A handler that parks every delegated request until released, behind a
  // one-query admission budget: the first query occupies the slot, the
  // second must be shed *fast* with kResourceExhausted — not queued, not
  // retried — while the control plane (Ping) stays healthy.
  std::atomic<int> entered{0};
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  net::Server::Handler handler =
      [&](const std::vector<uint8_t>&, const net::CallContext&) {
        ++entered;
        release.wait();
        return net::EncodeErrorResponse(Status::NotFound("drained"));
      };
  net::ServerOptions options;
  options.num_workers = 4;
  options.max_concurrent_queries = 1;
  auto server = net::Server::Start(handler, options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  FieldStatsQuery query;  // decodable; the parked handler never reads it
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.box = Box3::WholeGrid(8, 8, 8);

  Status occupant_status;
  std::thread occupant([&] {
    net::Client client("127.0.0.1", port);
    occupant_status = client.FieldStats(query).status();
  });
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  net::ClientOptions fast;
  fast.max_retries = 0;
  net::Client client("127.0.0.1", port, fast);

  // Transport-level requests are exempt from admission.
  EXPECT_TRUE(client.Ping().ok());

  const auto started = std::chrono::steady_clock::now();
  auto shed = client.FieldStats(query);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status();
  // Shed before the handler, and fast — no queueing behind the occupant.
  EXPECT_EQ(entered.load(), 1);
  EXPECT_LT(elapsed, 2.0);

  auto mid = (*server)->stats();
  EXPECT_EQ(mid.queries_in_flight, 1u);
  EXPECT_EQ(mid.queries_admitted, 1u);
  EXPECT_GE(mid.queries_shed, 1u);

  release_promise.set_value();
  occupant.join();
  EXPECT_EQ(occupant_status.code(), StatusCode::kNotFound)
      << occupant_status;

  // The occupant's ticket is back in the pool: the next query is
  // admitted (the handler no longer parks once the future is set).
  auto again = client.FieldStats(query);
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound) << again.status();
  auto after = (*server)->stats();
  EXPECT_EQ(after.queries_in_flight, 0u);
  EXPECT_GE(after.queries_admitted, 2u);
}

TEST(ClientRetryTest, BoundedRetriesOnConnectFailure) {
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = net::LocalPort(*listener).value();
  }
  net::ClientOptions options;
  options.max_retries = 2;
  options.backoff_initial_ms = 10;
  options.connect_timeout_ms = 500;
  net::Client client("127.0.0.1", dead_port, options);
  const auto started = std::chrono::steady_clock::now();
  Status status = client.Ping();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnreachable);
  EXPECT_NE(status.message().find("attempts"), std::string::npos);
  // 3 attempts with 10+20 ms backoff — well under a second on loopback.
  EXPECT_LT(elapsed, 10.0);
}

TEST(ClientRetryTest, VersionMismatchFailsFastWithoutRetry) {
  // A peer speaking a different protocol version is a typed failure, not
  // a transport failure: the client must not burn its retry budget
  // redialing a server that will never agree. The fake peer answers
  // every connection with a frame whose version byte is wrong (the
  // version check precedes the CRC check, so the rest can be garbage)
  // and counts how often it is dialed.
  auto listener = net::TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = net::LocalPort(*listener);
  ASSERT_TRUE(port.ok());

  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    while (!stop.load()) {
      auto conn = net::AcceptWithTimeout(*listener, 250);
      if (!conn.ok()) continue;
      ++accepted;
      auto request = net::ReadFrame(*conn, Deadline::After(2000));
      if (!request.ok()) continue;
      std::vector<uint8_t> reply =
          net::EncodeFrame(Bytes({1, 2, 3, 4}));
      reply[4] = net::kProtocolVersion + 1;  // a future peer
      (void)net::SendAll(*conn, reply.data(), reply.size(),
                         Deadline::After(2000));
    }
  });

  net::ClientOptions options;
  options.max_retries = 2;
  options.backoff_initial_ms = 10;
  net::Client client("127.0.0.1", *port, options);
  Status status = client.Ping();
  stop.store(true);
  peer.join();

  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kVersionMismatch) << status;
  // Fail fast: one connection, no retries despite the retry budget.
  EXPECT_EQ(accepted.load(), 1);
}

TEST(ClientRetryTest, V2PeerFailsFastWithoutRetry) {
  // Regression for the v2 -> v3 header change: a peer still speaking the
  // 13-byte v2 framing (no deadline field) must surface as one typed
  // kVersionMismatch, not a retry storm or a misparsed frame.
  auto listener = net::TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = net::LocalPort(*listener);
  ASSERT_TRUE(port.ok());

  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    while (!stop.load()) {
      auto conn = net::AcceptWithTimeout(*listener, 250);
      if (!conn.ok()) continue;
      ++accepted;
      // Drain the client's request first: closing with unread bytes in
      // the receive buffer would RST the connection and destroy the
      // reply before the client reads it.
      std::vector<uint8_t> request(net::kFrameHeaderBytes);
      if (!net::RecvAll(*conn, request.data(), request.size(),
                        Deadline::After(2000))
               .ok()) {
        continue;
      }
      uint32_t payload_len = 0;
      std::memcpy(&payload_len, request.data() + 5, sizeof(payload_len));
      std::vector<uint8_t> payload(payload_len);
      if (!payload.empty() &&
          !net::RecvAll(*conn, payload.data(), payload.size(),
                        Deadline::After(2000))
               .ok()) {
        continue;
      }
      // A v2 peer rejects the client's v3 frame on its version byte and
      // answers with a v2 error frame: a 13-byte header (no deadline
      // field) followed by its payload. The client reads a 17-byte v3
      // header — the v2 header plus the first payload bytes — and the
      // version check fires before anything downstream misparses.
      std::vector<uint8_t> reply = {'T', 'D', 'B', 'F', 2,
                                    8,   0,   0,   0,          // length 8
                                    0,   0,   0,   0,          // (bogus) CRC
                                    1,   2,   3,   4, 5, 6, 7, 8};
      (void)net::SendAll(*conn, reply.data(), reply.size(),
                         Deadline::After(2000));
      // Hold the connection until the client, having seen the version
      // mismatch, closes its end (EOF on this read).
      uint8_t eof_probe = 0;
      (void)net::RecvAll(*conn, &eof_probe, 1, Deadline::After(2000));
    }
  });

  net::ClientOptions options;
  options.max_retries = 3;
  options.backoff_initial_ms = 10;
  options.read_timeout_ms = 2000;
  net::Client client("127.0.0.1", *port, options);
  Status status = client.Ping();
  stop.store(true);
  peer.join();

  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kVersionMismatch) << status;
  EXPECT_EQ(accepted.load(), 1);
}

}  // namespace
}  // namespace turbdb
