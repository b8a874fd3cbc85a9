// The catalog is the one resolver of node sub-queries: the mediator
// resolves its in-process nodes' sub-queries through it, and every
// turbdb_node resolves the specs it receives through its own. These
// tests pin its registration rules, that resolution loses no field of
// the spec, its bounds, and its shared differentiator and interpolator
// caches.

#include "cluster/catalog.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/remote_node.h"
#include "core/turbdb.h"

namespace turbdb {
namespace {

constexpr int64_t kN = 16;

/// Registers the 2-step mhd dataset over 2 Morton shards.
void RegisterMhd(Catalog* catalog) {
  ASSERT_TRUE(catalog->Register(MakeMhdDataset("mhd", kN, 2), 2,
                                PartitionStrategy::kMorton)
                  .ok());
}

/// A spec every mode accepts, with each by-value field off its default.
net::NodeQuerySpec Spec(NodeQuery::Mode mode) {
  net::NodeQuerySpec spec;
  spec.mode = static_cast<int32_t>(mode);
  spec.dataset = "mhd";
  spec.raw_field = "velocity";
  spec.derived_field = "vorticity";
  spec.timestep = 1;
  spec.box = Box3(2, 0, 4, 10, 16, 12);
  spec.fd_order = 6;
  spec.threshold = 2.5;
  spec.bin_width = 0.75;
  spec.num_bins = 12;
  spec.k = 40;
  spec.processes = 3;
  spec.options.use_cache = false;
  spec.options.io_only = true;
  spec.options.processes_per_node = 3;
  spec.options.max_result_points = 5000;
  spec.flops_per_process = 2.5e8;
  spec.effective_cores = 6.0;
  if (mode == NodeQuery::Mode::kSample) {
    spec.derived_field.clear();
    spec.fd_order = 4;
    spec.box = Box3::WholeGrid(kN, kN, kN);
    spec.sample_support = 6;
    spec.targets = {{0u, {0.5, 1.5, 2.5}}, {7u, {3.25, 0.125, 6.0}}};
  }
  return spec;
}

std::vector<uint8_t> Encoded(const net::NodeQuerySpec& spec) {
  net::NodeExecuteRequest request;
  request.spec = spec;
  return net::Encode(request);
}

TEST(CatalogTest, RegisterIsIdempotentOnlyForTheSameShape) {
  Catalog catalog;
  RegisterMhd(&catalog);
  const DatasetInfo info = MakeMhdDataset("mhd", kN, 2);
  // A retried registration.
  EXPECT_TRUE(catalog.Register(info, 2, PartitionStrategy::kMorton).ok());
  EXPECT_EQ(catalog.Register(MakeMhdDataset("mhd", kN, 3), 2,
                             PartitionStrategy::kMorton)
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Register(info, 4, PartitionStrategy::kMorton).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Register(info, 2, PartitionStrategy::kZSlabs).code(),
            StatusCode::kAlreadyExists);

  EXPECT_EQ(catalog.Register(MakeMhdDataset("", kN, 1), 2,
                             PartitionStrategy::kMorton)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Register(MakeMhdDataset("other", kN, 1), 2,
                             static_cast<PartitionStrategy>(7))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Entries().size(), 1u);

  auto entry = catalog.Find("mhd");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ((*entry)->info, info);
  EXPECT_EQ((*entry)->partitioner.num_nodes(), 2);
  EXPECT_EQ(catalog.Find("other").status().code(), StatusCode::kNotFound);
}

// No field is lost between the spec and the resolved query: for each
// mode, the resolved query's wire form encodes to the spec's bytes.
TEST(CatalogTest, ResolvedQueryEncodesBackToItsSpec) {
  Catalog catalog;
  RegisterMhd(&catalog);
  for (NodeQuery::Mode mode :
       {NodeQuery::Mode::kThreshold, NodeQuery::Mode::kPdf,
        NodeQuery::Mode::kTopK, NodeQuery::Mode::kMoments,
        NodeQuery::Mode::kSample}) {
    const net::NodeQuerySpec spec = Spec(mode);
    auto query = catalog.Resolve(spec);
    ASSERT_TRUE(query.ok()) << static_cast<int>(mode) << ": "
                            << query.status();
    EXPECT_EQ(Encoded(ToSpec(*query)), Encoded(spec))
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(query->partitioner->num_nodes(), 2);
    EXPECT_EQ(query->raw_ncomp, 3);
    if (mode == NodeQuery::Mode::kSample) {
      EXPECT_NE(query->interpolator, nullptr);
      EXPECT_EQ(query->kernel, nullptr);
    } else {
      EXPECT_NE(query->kernel, nullptr);
      EXPECT_NE(query->diff, nullptr);
      EXPECT_EQ(query->cache_field_key, "velocity:vorticity");
    }
  }
}

TEST(CatalogTest, CachesAreBuiltOncePerDatasetAndKey) {
  Catalog catalog;
  RegisterMhd(&catalog);
  ASSERT_TRUE(catalog.Register(MakeMhdDataset("mhd2", kN, 2), 2,
                               PartitionStrategy::kMorton)
                  .ok());
  auto resolve = [&](const std::string& dataset, NodeQuery::Mode mode,
                     int order_or_support) {
    net::NodeQuerySpec spec = Spec(mode);
    spec.dataset = dataset;
    if (mode == NodeQuery::Mode::kSample) {
      spec.sample_support = order_or_support;
    } else {
      spec.fd_order = order_or_support;
    }
    auto query = catalog.Resolve(spec);
    EXPECT_TRUE(query.ok()) << query.status();
    return std::move(query).value();
  };
  const auto threshold = NodeQuery::Mode::kThreshold;
  const Differentiator* diff = resolve("mhd", threshold, 4).diff;
  EXPECT_EQ(resolve("mhd", NodeQuery::Mode::kPdf, 4).diff, diff);
  EXPECT_NE(resolve("mhd", threshold, 6).diff, diff);
  EXPECT_EQ(resolve("mhd", threshold, 6).diff,
            resolve("mhd", threshold, 6).diff);
  EXPECT_NE(resolve("mhd2", threshold, 4).diff, diff);

  const auto sample = NodeQuery::Mode::kSample;
  auto interpolator = resolve("mhd", sample, 4).interpolator;
  EXPECT_EQ(resolve("mhd", sample, 4).interpolator, interpolator);
  EXPECT_NE(resolve("mhd", sample, 8).interpolator, interpolator);
  EXPECT_NE(resolve("mhd2", sample, 4).interpolator, interpolator);
}

TEST(CatalogTest, ResolveRefusesEachBadSpecWithItsCode) {
  Catalog catalog;
  RegisterMhd(&catalog);
  auto code = [&](const net::NodeQuerySpec& spec) {
    return catalog.Resolve(spec).status().code();
  };
  const net::NodeQuerySpec good = Spec(NodeQuery::Mode::kThreshold);
  ASSERT_EQ(code(good), StatusCode::kOk);

  net::NodeQuerySpec spec = good;
  spec.dataset = "nope";
  EXPECT_EQ(code(spec), StatusCode::kNotFound);
  spec = good;
  spec.raw_field = "pressure";
  EXPECT_EQ(code(spec), StatusCode::kNotFound);
  spec = good;
  spec.mode = 5;
  EXPECT_EQ(code(spec), StatusCode::kInvalidArgument);
  spec = good;
  spec.timestep = 2;
  EXPECT_EQ(code(spec), StatusCode::kOutOfRange);
  spec.timestep = -1;
  EXPECT_EQ(code(spec), StatusCode::kOutOfRange);
  spec = good;
  spec.box = Box3(kN, 0, 0, kN + 4, 4, 4);
  EXPECT_EQ(code(spec), StatusCode::kInvalidArgument);
  spec = good;
  spec.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(code(spec), StatusCode::kInvalidArgument);
  spec = Spec(NodeQuery::Mode::kPdf);
  spec.num_bins = kMaxPdfBins + 1;
  EXPECT_EQ(code(spec), StatusCode::kInvalidArgument);
  // An empty top-k heap has no top to compare against.
  spec = Spec(NodeQuery::Mode::kTopK);
  spec.k = 0;
  EXPECT_EQ(code(spec), StatusCode::kInvalidArgument);
  spec = good;
  spec.fd_order = 3;
  EXPECT_EQ(code(spec), StatusCode::kInvalidArgument);

  // A box that straddles the grid is clipped to it.
  spec = good;
  spec.box = Box3(-4, -4, -4, 8, 8, 8);
  auto clipped = catalog.Resolve(spec);
  ASSERT_TRUE(clipped.ok()) << clipped.status();
  EXPECT_EQ(clipped->box, Box3(0, 0, 0, 8, 8, 8));
}

TEST(CatalogTest, ConcurrentResolvesShareOneDifferentiator) {
  Catalog catalog;
  RegisterMhd(&catalog);
  constexpr int kThreads = 8;
  std::vector<const Differentiator*> diffs(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto query = catalog.Resolve(Spec(NodeQuery::Mode::kTopK));
      if (query.ok()) diffs[static_cast<size_t>(t)] = query->diff;
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(diffs[0], nullptr);
  for (const Differentiator* diff : diffs) EXPECT_EQ(diff, diffs[0]);
}

}  // namespace
}  // namespace turbdb
