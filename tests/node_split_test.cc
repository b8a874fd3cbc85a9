// A node splits a worker's run whose gathered slab would pass the
// 256 MiB memory guard into halves and folds their outcomes. No bench or
// cluster test gets near the limit, so these tests make runs that pass
// it on a 320^3 periodic grid (40^3 atoms; a velocity slab over all of
// it is 393 MB) with only a handful of atoms stored: corner items whose
// gathers wrap around the grid. Each split run must answer exactly what
// the same items answer without a split.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/node.h"
#include "common/thread_pool.h"
#include "test_util.h"

namespace turbdb {
namespace {

using testing::SmallTestSpec;

constexpr int64_t kN = 320;  // 40 atoms of 8 along each axis.
constexpr uint32_t kLastAtom = 39;

/// Every wrapped atom code the gather of `cover` (atom coordinates,
/// possibly past the periodic edges) reads.
void AddWrappedCodes(const GridGeometry& geometry, const Box3& cover,
                     std::set<uint64_t>* codes) {
  const int64_t na = geometry.AtomsAlong(0);  // The grid is a cube.
  auto wrap = [na](int64_t v) {
    return static_cast<uint32_t>(((v % na) + na) % na);
  };
  for (int64_t z = cover.lo[2]; z < cover.hi[2]; ++z) {
    for (int64_t y = cover.lo[1]; y < cover.hi[1]; ++y) {
      for (int64_t x = cover.lo[0]; x < cover.hi[0]; ++x) {
        codes->insert(MortonEncode3(wrap(x), wrap(y), wrap(z)));
      }
    }
  }
}

/// Stores atom `code` of velocity time-step 0 on `node`.
void Ingest(const SyntheticField& generator, DatabaseNode* node,
            uint64_t code) {
  auto atom = generator.GenerateAtom(0, code);
  ASSERT_TRUE(atom.ok()) << atom.status();
  ASSERT_TRUE(node->IngestAtom("mhd", "velocity", *atom).ok());
}

/// The io counters a test compares (cache counters stay zero here).
std::array<uint64_t, 6> Counters(const IoCounters& io) {
  return {io.atoms_read_local,  io.atoms_read_remote, io.bytes_read_local,
          io.bytes_read_remote, io.points_evaluated,  io.points_returned};
}

net::NodeQuerySpec BaseSpec(NodeQuery::Mode mode) {
  net::NodeQuerySpec spec;
  spec.mode = static_cast<int32_t>(mode);
  spec.dataset = "mhd";
  spec.raw_field = "velocity";
  spec.timestep = 0;
  spec.box = Box3::WholeGrid(kN, kN, kN);
  spec.options.use_cache = false;
  return spec;
}

// Two targets at opposite corners whose supports wrap: one run (one
// process) gathers both, and its destination box spans the grid, so the
// run splits. Each half equals that target sampled alone.
TEST(NodeSplitTest, SampleRunAcrossTheGridEqualsEachTargetAlone) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(MakeMhdDataset("mhd", kN, 1), 1,
                               PartitionStrategy::kMorton)
                  .ok());
  auto entry = catalog.Find("mhd");
  ASSERT_TRUE(entry.ok()) << entry.status();
  const GridGeometry& geometry = (*entry)->info.geometry;
  ASSERT_EQ(geometry.AtomsAlong(0), kLastAtom + 1);
  // Positions are physical: within half a grid spacing of either corner.
  const double h = geometry.Spacing(0);
  const double length = geometry.domain_length(0);
  const std::vector<std::pair<uint32_t, std::array<double, 3>>> targets = {
      {0u, {0.25 * h, 0.5 * h, 0.75 * h}},
      {1u, {length - 0.25 * h, length - 0.5 * h, length - 0.75 * h}}};
  auto query_for = [&](std::vector<std::pair<uint32_t, std::array<double, 3>>>
                           run) {
    net::NodeQuerySpec spec = BaseSpec(NodeQuery::Mode::kSample);
    spec.sample_support = 4;
    spec.processes = 1;
    spec.targets = std::move(run);
    return catalog.Resolve(spec);
  };
  auto both = query_for(targets);
  ASSERT_TRUE(both.ok()) << both.status();

  std::set<uint64_t> needed;
  for (const auto& [index, position] : targets) {
    const Box3 cover =
        geometry.AtomCover(both->interpolator->SupportBox(position));
    // The support wraps: its cover crosses a periodic edge.
    EXPECT_TRUE(cover.lo[0] < 0 || cover.hi[0] > kLastAtom + 1);
    AddWrappedCodes(geometry, cover, &needed);
  }
  DatabaseNode node(0, CostModelConfig{});
  const SyntheticField generator(SmallTestSpec(11), geometry, 3);
  for (uint64_t code : needed) {
    ASSERT_NO_FATAL_FAILURE(Ingest(generator, &node, code));
  }

  ThreadPool workers(2);
  auto together = node.Execute(*both, &workers);
  ASSERT_TRUE(together.ok()) << together.status();

  std::vector<std::pair<uint32_t, std::array<double, 3>>> alone;
  IoCounters summed;
  double io_s = 0.0;
  double compute_s = 0.0;
  for (const auto& target : targets) {
    auto query = query_for({target});
    ASSERT_TRUE(query.ok()) << query.status();
    auto single = node.Execute(*query, &workers);
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_EQ(single->samples.size(), 1u);
    alone.push_back(single->samples[0]);
    summed += single->io;
    io_s += single->time.io_s;
    compute_s += single->time.compute_s;
  }

  std::vector<std::pair<uint32_t, std::array<double, 3>>> samples =
      together->samples;
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(samples, alone);
  // Read per half: each half reads the corner atoms its own support
  // needs, as it does alone (one gather of both would read them once).
  EXPECT_EQ(Counters(together->io), Counters(summed));
  EXPECT_EQ(together->io.atoms_read_local, 2 * needed.size());
  EXPECT_DOUBLE_EQ(together->time.io_s, io_s);
  EXPECT_DOUBLE_EQ(together->time.compute_s, compute_s);
}

// Shard 0 owns the first and the last atom of the grid, so its one run
// (one process) gathers both with their wrapped halos, which shard 1
// serves. That run splits; its threshold, PDF, moments and top-k
// outcomes equal those of the same atoms at two processes, one atom per
// run, where nothing splits.
TEST(NodeSplitTest, AtomRunAcrossTheGridEqualsOneRunPerAtom) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(MakeMhdDataset("mhd", kN, 1), 2,
                               PartitionStrategy::kMorton)
                  .ok());
  const uint64_t last = MortonEncode3(kLastAtom, kLastAtom, kLastAtom);
  auto view = std::make_shared<MembershipView>();
  view->base_shards = 2;
  view->overrides = {{0, 1, 0}, {1, last, 1}, {last, last + 1, 0}};
  ASSERT_TRUE(ValidateOverrides(view->overrides).ok());

  const GridGeometry geometry = GridGeometry::Isotropic(kN);
  std::set<uint64_t> halo;
  for (uint32_t corner : {0u, kLastAtom}) {
    const int64_t c = corner;
    AddWrappedCodes(geometry, Box3(c - 1, c - 1, c - 1, c + 2, c + 2, c + 2),
                    &halo);
  }
  DatabaseNode node0(0, CostModelConfig{});
  DatabaseNode node1(1, CostModelConfig{});
  node1.set_shard(1);
  const SyntheticField generator(SmallTestSpec(11), geometry, 3);
  for (uint64_t code : halo) {
    ASSERT_NO_FATAL_FAILURE(Ingest(generator, view->OwnerOf(code, -1) == 0
                                                  ? &node0
                                                  : &node1,
                                   code));
  }
  ASSERT_EQ(node0.StoredAtomCount("mhd", "velocity"), 2u);
  node0.set_remote_fetch([&node1](const NodeQuery&, int owner,
                                  const std::string& dataset,
                                  const std::string& field, int32_t timestep,
                                  const std::vector<uint64_t>& codes,
                                  int concurrent,
                                  double* cost_s) -> Result<std::vector<Atom>> {
    if (owner != 1) return Status::Internal("unexpected owner");
    return node1.ServeAtoms(dataset, field, timestep, codes, concurrent,
                            cost_s, nullptr);
  });

  ThreadPool workers(2);
  auto run = [&](NodeQuery::Mode mode, int processes, double threshold) {
    net::NodeQuerySpec spec = BaseSpec(mode);
    spec.derived_field = "vorticity";
    spec.processes = processes;
    spec.threshold = threshold;
    spec.bin_width = 0.5;
    spec.num_bins = 16;
    spec.k = 25;
    auto query = catalog.Resolve(spec);
    if (!query.ok()) return Result<NodeOutcome>(query.status());
    query->view = view;
    return node0.Execute(*query, &workers);
  };

  auto moments = run(NodeQuery::Mode::kMoments, 2, 0.0);
  ASSERT_TRUE(moments.ok()) << moments.status();
  ASSERT_EQ(moments->io.points_evaluated, 2u * 512u);
  // About half of the two atoms' points pass the mean norm.
  const double mean = moments->norm_sum / 1024.0;

  for (NodeQuery::Mode mode :
       {NodeQuery::Mode::kThreshold, NodeQuery::Mode::kPdf,
        NodeQuery::Mode::kMoments, NodeQuery::Mode::kTopK}) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto split = run(mode, 1, mean);
    ASSERT_TRUE(split.ok()) << split.status();
    auto per_atom = run(mode, 2, mean);
    ASSERT_TRUE(per_atom.ok()) << per_atom.status();
    EXPECT_EQ(split->points, per_atom->points);
    EXPECT_EQ(split->histogram, per_atom->histogram);
    EXPECT_EQ(split->norm_sum, per_atom->norm_sum);
    EXPECT_EQ(split->norm_sum_sq, per_atom->norm_sum_sq);
    EXPECT_EQ(split->norm_max, per_atom->norm_max);
    // Each half gathers its atom with its own halo, as each run at two
    // processes does (one gather of both would read the shared corner
    // atoms once).
    EXPECT_EQ(Counters(split->io), Counters(per_atom->io));
    EXPECT_EQ(split->io.atoms_read_local, 4u);
    EXPECT_EQ(split->io.atoms_read_remote, 50u);
    if (mode == NodeQuery::Mode::kThreshold) {
      EXPECT_GT(split->points.size(), 0u);
      EXPECT_LT(split->points.size(), 1024u);
    }
  }
}

}  // namespace
}  // namespace turbdb
