#include "query/query.h"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/node_service.h"
#include "core/turbdb.h"
#include "net/protocol.h"

namespace turbdb {
namespace {

ThresholdQuery ValidThreshold() {
  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3(0, 0, 0, 8, 8, 8);
  query.threshold = 10.0;
  query.fd_order = 4;
  return query;
}

TEST(ValidationTest, AcceptsWellFormedThresholdQuery) {
  EXPECT_TRUE(ValidateThresholdQuery(ValidThreshold()).ok());
}

TEST(ValidationTest, RejectsEmptyNames) {
  auto query = ValidThreshold();
  query.dataset.clear();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.raw_field.clear();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.derived_field.clear();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, RejectsEmptyBox) {
  auto query = ValidThreshold();
  query.box = Box3();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query.box = Box3(5, 5, 5, 5, 9, 9);
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, RejectsBadOrderThresholdTimestep) {
  auto query = ValidThreshold();
  query.fd_order = 5;
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.threshold = -1.0;
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.timestep = -1;
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, RejectsNanThreshold) {
  // NaN fails every comparison, so "threshold < 0" lets it through.
  auto query = ValidThreshold();
  query.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query.threshold = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, PdfQueryChecks) {
  PdfQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.box = Box3(0, 0, 0, 8, 8, 8);
  EXPECT_TRUE(ValidatePdfQuery(query).ok());
  query.bin_width = 0.0;
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
  query.bin_width = 1.0;
  query.num_bins = 0;
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
}

TEST(ValidationTest, PdfBinBounds) {
  PdfQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.box = Box3(0, 0, 0, 8, 8, 8);
  query.bin_width = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
  query.bin_width = -1.0;
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
  query.bin_width = 1e-12;  // Tiny but positive: a valid query.
  EXPECT_TRUE(ValidatePdfQuery(query).ok());
  // Every evaluating chunk allocates one counter per bin.
  query.num_bins = kMaxPdfBins;
  EXPECT_TRUE(ValidatePdfQuery(query).ok());
  query.num_bins = kMaxPdfBins + 1;
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
  query.num_bins = std::numeric_limits<int>::max();
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
  EXPECT_FALSE(ValidatePdfBins(1.0, -3).ok());
  EXPECT_TRUE(ValidatePdfBins(1.0, 9).ok());
}

// turbdb_node takes sub-queries off TCP, so a decoded spec gets the
// mediator's bounds before it sizes a histogram or probes a cache.
TEST(ValidationTest, NodeAppliesTheSameBoundsToADecodedSpec) {
  NodeServiceConfig config;
  config.peers.nodes.push_back(NodeAddress{"127.0.0.1", 1});
  NodeService service(config);
  net::WireDatasetRegistration registration;
  registration.info = MakeMhdDataset("mhd", 16, 1);
  ASSERT_TRUE(service.RegisterDatasetSpec(registration).ok());
  const net::Server::Handler handler = service.AsHandler();
  auto execute = [&](const net::NodeQuerySpec& spec) {
    net::NodeExecuteRequest request;
    request.spec = spec;
    return net::DecodeNodeExecuteResponse(
               handler(net::EncodeRequest(request), net::CallContext{}))
        .status();
  };

  net::NodeQuerySpec pdf;
  pdf.mode = static_cast<int32_t>(NodeQuery::Mode::kPdf);
  pdf.dataset = "mhd";
  pdf.raw_field = "velocity";
  pdf.derived_field = "vorticity";
  pdf.box = Box3::WholeGrid(16, 16, 16);
  pdf.num_bins = kMaxPdfBins + 1;
  EXPECT_EQ(execute(pdf).code(), StatusCode::kInvalidArgument);
  pdf.num_bins = 9;
  pdf.bin_width = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(execute(pdf).code(), StatusCode::kInvalidArgument);

  net::NodeQuerySpec threshold = pdf;
  threshold.mode = static_cast<int32_t>(NodeQuery::Mode::kThreshold);
  threshold.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(execute(threshold).code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, TopKQueryChecks) {
  TopKQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.box = Box3(0, 0, 0, 8, 8, 8);
  query.k = 10;
  EXPECT_TRUE(ValidateTopKQuery(query).ok());
  query.k = 0;
  EXPECT_FALSE(ValidateTopKQuery(query).ok());
  query.k = kDefaultMaxResultPoints + 1;
  EXPECT_FALSE(ValidateTopKQuery(query).ok());
}

}  // namespace
}  // namespace turbdb
