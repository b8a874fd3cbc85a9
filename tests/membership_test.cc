// Membership-layer unit tests: range-override splice/coalesce math,
// effective ownership under views across generation bumps, the
// rebalance planner's donor/target selection, registry persistence, and
// a seeded mutation loop over a persisted registry file.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "array/geometry.h"
#include "cluster/partitioner.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "membership/rebalance.h"
#include "membership/registry.h"
#include "membership/view.h"
#include "test_util.h"

namespace turbdb {
namespace {

MembershipView ThreeShardView() {
  MembershipView view;
  view.generation = 1;
  view.replication = 1;
  view.base_shards = 2;
  for (int i = 0; i < 3; ++i) {
    NodeRecord record;
    record.node_id = i;
    record.uuid = "node-" + std::to_string(i);
    record.host = "127.0.0.1";
    record.port = static_cast<uint16_t>(7000 + i);
    record.shard = i;
    record.role = NodeRole::kShard;
    view.nodes.push_back(record);
  }
  return view;
}

TEST(MembershipViewTest, ApplyOverrideSplicesAndCoalesces) {
  MembershipView view;
  view.ApplyOverride(10, 20, 1);
  ASSERT_EQ(view.overrides.size(), 1u);
  EXPECT_EQ(view.overrides[0], (RangeOverride{10, 20, 1}));

  // Adjacent same-shard ranges coalesce into one.
  view.ApplyOverride(20, 30, 1);
  ASSERT_EQ(view.overrides.size(), 1u);
  EXPECT_EQ(view.overrides[0], (RangeOverride{10, 30, 1}));

  // A mid-range override splits the existing one around itself.
  view.ApplyOverride(15, 25, 2);
  ASSERT_EQ(view.overrides.size(), 3u);
  EXPECT_EQ(view.overrides[0], (RangeOverride{10, 15, 1}));
  EXPECT_EQ(view.overrides[1], (RangeOverride{15, 25, 2}));
  EXPECT_EQ(view.overrides[2], (RangeOverride{25, 30, 1}));

  // Handing the middle back re-merges everything.
  view.ApplyOverride(15, 25, 1);
  ASSERT_EQ(view.overrides.size(), 1u);
  EXPECT_EQ(view.overrides[0], (RangeOverride{10, 30, 1}));

  // Degenerate ranges are ignored.
  view.ApplyOverride(40, 40, 2);
  view.ApplyOverride(50, 40, 2);
  EXPECT_EQ(view.overrides.size(), 1u);

  // Point lookups respect the half-open boundaries.
  EXPECT_EQ(view.OwnerOf(9, 0), 0);
  EXPECT_EQ(view.OwnerOf(10, 0), 1);
  EXPECT_EQ(view.OwnerOf(29, 0), 1);
  EXPECT_EQ(view.OwnerOf(30, 0), 0);
  EXPECT_EQ(view.FindOverride(9), nullptr);
  ASSERT_NE(view.FindOverride(10), nullptr);
  EXPECT_EQ(view.FindOverride(10)->shard, 1);
}

TEST(MembershipViewTest, NumShardsCountsJoinedSkipsDraining) {
  MembershipView view = ThreeShardView();
  EXPECT_EQ(view.NumShards(), 3);
  view.nodes[2].role = NodeRole::kDraining;
  EXPECT_EQ(view.NumShards(), 2);
  // Base shards stay routable even when every node of one drains: the
  // partitioner was built for them and overrides must re-home first.
  view.nodes[0].role = NodeRole::kDraining;
  EXPECT_EQ(view.NumShards(), 2);
}

TEST(MembershipViewTest, OwnedAtomsMatchesPartitionerWithoutOverrides) {
  auto partitioner_or =
      MortonPartitioner::Create(GridGeometry::Isotropic(32), 2);
  ASSERT_TRUE(partitioner_or.ok());
  const MortonPartitioner& partitioner = *partitioner_or;
  const MembershipView view = ThreeShardView();
  EXPECT_EQ(OwnedAtoms(partitioner, view, 0), partitioner.NodeAtoms(0));
  EXPECT_EQ(OwnedAtoms(partitioner, view, 1), partitioner.NodeAtoms(1));
  // A joined shard the partitioner does not know owns nothing yet.
  EXPECT_TRUE(OwnedAtoms(partitioner, view, 2).empty());
  EXPECT_TRUE(OwnedAtoms(partitioner, view, 7).empty());
}

TEST(MembershipViewTest, OverrideMovesAtomsAcrossGenerationBump) {
  auto partitioner_or =
      MortonPartitioner::Create(GridGeometry::Isotropic(32), 2);
  ASSERT_TRUE(partitioner_or.ok());
  const MortonPartitioner& partitioner = *partitioner_or;
  MembershipView view = ThreeShardView();

  const std::vector<uint64_t> base0 = partitioner.NodeAtoms(0);
  ASSERT_GE(base0.size(), 2u);
  const size_t half = base0.size() / 2;
  // Re-home the upper half of shard 0's codes to the joined shard 2,
  // exactly as a cutover would: override + generation bump.
  view.ApplyOverride(base0[half], base0.back() + 1, 2);
  view.generation++;

  const std::vector<uint64_t> owned0 = OwnedAtoms(partitioner, view, 0);
  const std::vector<uint64_t> owned1 = OwnedAtoms(partitioner, view, 1);
  const std::vector<uint64_t> owned2 = OwnedAtoms(partitioner, view, 2);
  EXPECT_EQ(owned0,
            std::vector<uint64_t>(base0.begin(), base0.begin() + half));
  EXPECT_EQ(owned1, partitioner.NodeAtoms(1));
  EXPECT_EQ(owned2,
            std::vector<uint64_t>(base0.begin() + half, base0.end()));

  // The three shards partition the atom set: disjoint, union complete.
  std::set<uint64_t> all;
  for (const auto* owned : {&owned0, &owned1, &owned2}) {
    for (uint64_t code : *owned) EXPECT_TRUE(all.insert(code).second);
  }
  EXPECT_EQ(all.size(),
            partitioner.NodeAtoms(0).size() + partitioner.NodeAtoms(1).size());

  // Box-restricted ownership is the intersection of the full set with
  // the partitioner's box restriction.
  const Box3 atom_box(0, 0, 0, 2, 2, 2);
  const std::vector<uint64_t> in_box =
      OwnedAtomsInBox(partitioner, view, 2, atom_box);
  std::set<uint64_t> box_codes;
  for (uint64_t code : partitioner.NodeAtomsInBox(0, atom_box)) {
    box_codes.insert(code);
  }
  for (uint64_t code : in_box) {
    EXPECT_TRUE(view.FindOverride(code) != nullptr);
    EXPECT_TRUE(box_codes.count(code) > 0);
  }

  // A second bump handing the range back restores the static split.
  view.ApplyOverride(base0[half], base0.back() + 1, 0);
  view.generation++;
  EXPECT_EQ(OwnedAtoms(partitioner, view, 0), base0);
  EXPECT_TRUE(OwnedAtoms(partitioner, view, 2).empty());
}

TEST(RebalancePlannerTest, PicksLeastLoadedTargetAndBiggestDonor) {
  MembershipView view = ThreeShardView();
  std::vector<std::vector<uint64_t>> shard_atoms(3);
  for (uint64_t i = 0; i < 8; ++i) shard_atoms[0].push_back(10 + i);
  for (uint64_t i = 0; i < 4; ++i) shard_atoms[1].push_back(100 + i);

  auto move_or = RebalancePlanner::PlanOne(view, shard_atoms, /*to_shard=*/-1);
  ASSERT_TRUE(move_or.ok()) << move_or.status().ToString();
  EXPECT_EQ(move_or->from_shard, 0);
  EXPECT_EQ(move_or->to_shard, 2);
  // Half the imbalance moves: the donor's upper 4 codes as one range.
  EXPECT_EQ(move_or->estimated_atoms, 4u);
  EXPECT_EQ(move_or->begin, shard_atoms[0][4]);
  EXPECT_EQ(move_or->end, shard_atoms[0][7] + 1);

  // An explicit target still takes from the most-loaded other shard.
  auto to_one = RebalancePlanner::PlanOne(view, shard_atoms, /*to_shard=*/1);
  ASSERT_TRUE(to_one.ok());
  EXPECT_EQ(to_one->from_shard, 0);
  EXPECT_EQ(to_one->to_shard, 1);
  EXPECT_EQ(to_one->estimated_atoms, 2u);
}

TEST(RebalancePlannerTest, BalancedClusterPlansNothing) {
  MembershipView view = ThreeShardView();
  std::vector<std::vector<uint64_t>> shard_atoms(3);
  for (uint64_t i = 0; i < 4; ++i) {
    shard_atoms[0].push_back(i);
    shard_atoms[1].push_back(100 + i);
    shard_atoms[2].push_back(200 + i);
  }
  auto move_or = RebalancePlanner::PlanOne(view, shard_atoms, -1);
  EXPECT_FALSE(move_or.ok());
  EXPECT_EQ(move_or.status().code(), StatusCode::kNotFound);

  // A one-atom donor cannot split either.
  shard_atoms[2].clear();
  shard_atoms[0].resize(1);
  shard_atoms[1].resize(1);
  auto too_small = RebalancePlanner::PlanOne(view, shard_atoms, -1);
  EXPECT_FALSE(too_small.ok());
}

TEST(RebalancePlannerTest, DrainingShardsAreNeitherDonorsNorTargets) {
  MembershipView view = ThreeShardView();
  view.nodes[0].role = NodeRole::kDraining;
  std::vector<std::vector<uint64_t>> shard_atoms(3);
  for (uint64_t i = 0; i < 8; ++i) shard_atoms[0].push_back(i);
  for (uint64_t i = 0; i < 4; ++i) shard_atoms[1].push_back(100 + i);

  // Shard 0 holds the most atoms but is draining, so shard 1 donates to
  // the empty shard 2 instead.
  auto move_or = RebalancePlanner::PlanOne(view, shard_atoms, -1);
  ASSERT_TRUE(move_or.ok()) << move_or.status().ToString();
  EXPECT_EQ(move_or->from_shard, 1);
  EXPECT_EQ(move_or->to_shard, 2);
  EXPECT_EQ(move_or->estimated_atoms, 2u);
}

TEST(MembershipRegistryTest, SeedsFromTopologyAndPersistsMutations) {
  const testing::ScopedTempDir scoped_dir("turbdb_membership");
  const std::string& dir = scoped_dir.path();
  ClusterTopology seed;
  seed.nodes = {{"127.0.0.1", 7001}, {"127.0.0.1", 7002}};
  seed.replication_factor = 1;

  {
    auto registry_or = MembershipRegistry::Open(dir, seed);
    ASSERT_TRUE(registry_or.ok()) << registry_or.status().ToString();
    auto& registry = *registry_or;
    MembershipView view = registry->Snapshot();
    EXPECT_EQ(view.generation, 1u);
    EXPECT_EQ(view.base_shards, 2);
    ASSERT_EQ(view.nodes.size(), 2u);
    EXPECT_EQ(view.nodes[0].shard, 0);
    EXPECT_EQ(view.nodes[1].shard, 1);

    auto admitted = registry->Admit("joiner-uuid", "127.0.0.1", 7003);
    ASSERT_TRUE(admitted.ok());
    EXPECT_EQ(admitted->node_id, 2);
    EXPECT_EQ(admitted->shard, 2);
    EXPECT_EQ(admitted->role, NodeRole::kJoining);
    EXPECT_EQ(registry->generation(), 2u);

    // Re-admitting the same uuid (joiner retry) is idempotent.
    auto again = registry->Admit("joiner-uuid", "127.0.0.1", 7003);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->node_id, 2);
    EXPECT_EQ(registry->generation(), 2u);

    ASSERT_TRUE(registry->Activate("joiner-uuid").ok());
    EXPECT_EQ(registry->generation(), 3u);
    EXPECT_EQ(registry->Snapshot().FindByUuid("joiner-uuid")->role,
              NodeRole::kShard);

    auto gen_or = registry->ApplyOverride(0, 100, 2);
    ASSERT_TRUE(gen_or.ok());
    EXPECT_EQ(*gen_or, 4u);

    ASSERT_TRUE(registry->Decommission(0).ok());
    EXPECT_EQ(registry->generation(), 5u);
  }

  // Reopen with a *different* seed: the persisted file must win.
  ClusterTopology other_seed;
  other_seed.nodes = {{"10.0.0.9", 9999}};
  other_seed.replication_factor = 1;
  auto reopened_or = MembershipRegistry::Open(dir, other_seed);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  MembershipView view = (*reopened_or)->Snapshot();
  EXPECT_EQ(view.generation, 5u);
  EXPECT_EQ(view.base_shards, 2);
  ASSERT_EQ(view.nodes.size(), 3u);
  EXPECT_EQ(view.nodes[0].role, NodeRole::kDraining);
  const NodeRecord* joiner = view.FindByUuid("joiner-uuid");
  ASSERT_NE(joiner, nullptr);
  EXPECT_EQ(joiner->port, 7003);
  EXPECT_EQ(joiner->role, NodeRole::kShard);
  ASSERT_EQ(view.overrides.size(), 1u);
  EXPECT_EQ(view.overrides[0], (RangeOverride{0, 100, 2}));
}

TEST(MembershipRegistryTest, EphemeralRegistryWorksWithoutDirectory) {
  ClusterTopology seed;
  seed.nodes = {{"127.0.0.1", 7001}};
  seed.replication_factor = 1;
  auto registry_or = MembershipRegistry::Open("", seed);
  ASSERT_TRUE(registry_or.ok());
  EXPECT_EQ((*registry_or)->generation(), 1u);
  ASSERT_TRUE((*registry_or)->Admit("u", "127.0.0.1", 7002).ok());
  EXPECT_EQ((*registry_or)->generation(), 2u);
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A registry file whose overrides the mediator could not binary-search,
// or whose records no view can hold, fails the open: otherwise every
// query after a restart would ship the bad view to nodes that refuse it.
TEST(MembershipRegistryTest, MalformedFileIsCorruption) {
  const testing::ScopedTempDir scoped_dir("turbdb_membership");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/membership.txt";
  const std::string header = "generation 5\nreplication 1\nbase_shards 2\n";
  const std::string nodes =
      "node 0 boot-0 127.0.0.1 7001 0 0 1\n"
      "node 1 boot-1 127.0.0.1 7002 1 0 1\n";
  ClusterTopology seed;
  seed.nodes = {{"127.0.0.1", 7001}, {"127.0.0.1", 7002}};

  WriteFile(path, header + nodes + "override 8 16 1\noverride 16 20 0\n");
  auto good = MembershipRegistry::Open(dir, seed);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ((*good)->Snapshot().overrides.size(), 2u);

  const std::vector<std::string> malformed = {
      header + nodes + "override 8 16 1\noverride 12 20 0\n",  // Overlap.
      header + nodes + "override 12 20 0\noverride 8 10 1\n",  // Unsorted.
      header + nodes + "override 8 8 1\n",                     // Empty.
      header + "node 0 boot-0 127.0.0.1 7001 0 9 1\n",          // Role 9.
      "generation 5\nreplication 0\nbase_shards 2\n" + nodes,
      "generation 5\nreplication 1\nbase_shards 0\n" + nodes,
  };
  for (const std::string& text : malformed) {
    SCOPED_TRACE(text);
    WriteFile(path, text);
    auto opened = MembershipRegistry::Open(dir, seed);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << opened.status();
  }
}

// Seeded mutants of a file a real registry wrote after an admit, an
// activate and a range move: bit flips, overwritten, inserted and
// deleted bytes, and truncations. Each opens to a view every consumer
// accepts, or fails typed; none crashes.
TEST(MembershipRegistryTest, MutatedFilesOpenValidOrFailTyped) {
  const testing::ScopedTempDir scoped_dir("turbdb_membership");
  const std::string& dir = scoped_dir.path();
  const std::string path = dir + "/membership.txt";
  ClusterTopology seed;
  seed.nodes = {{"127.0.0.1", 7001}, {"127.0.0.1", 7002}};
  {
    auto registry = MembershipRegistry::Open(dir, seed);
    ASSERT_TRUE(registry.ok()) << registry.status();
    ASSERT_TRUE((*registry)->Admit("joiner", "127.0.0.1", 7003).ok());
    ASSERT_TRUE((*registry)->Activate("joiner").ok());
    ASSERT_TRUE((*registry)->ApplyOverride(8, 16, 2).ok());
    ASSERT_TRUE((*registry)->ApplyOverride(40, 48, 2).ok());
  }
  const std::string original = ReadFile(path);
  ASSERT_FALSE(original.empty());

  constexpr int kMutants = 1000;
  SplitMix64 rng(2015);
  int opened = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = original;
    const size_t inside = static_cast<size_t>(rng.NextBounded(mutant.size()));
    const size_t gap = static_cast<size_t>(rng.NextBounded(mutant.size() + 1));
    switch (rng.NextBounded(5)) {
      case 0:
        mutant[inside] = static_cast<char>(
            mutant[inside] ^ static_cast<char>(1u << rng.NextBounded(8)));
        break;
      case 1:
        mutant[inside] = static_cast<char>(rng.NextBounded(256));
        break;
      case 2:
        mutant.insert(gap, 1, static_cast<char>(rng.NextBounded(256)));
        break;
      case 3:
        mutant.erase(inside, 1);
        break;
      default:
        mutant.resize(gap);
        break;
    }
    WriteFile(path, mutant);
    auto registry = MembershipRegistry::Open(dir, seed);
    if (!registry.ok()) {
      EXPECT_EQ(registry.status().code(), StatusCode::kCorruption)
          << registry.status();
      continue;
    }
    ++opened;
    const MembershipView view = (*registry)->Snapshot();
    EXPECT_TRUE(ValidateOverrides(view.overrides).ok());
    EXPECT_GE(view.replication, 1);
    EXPECT_GE(view.base_shards, 1);
    for (const NodeRecord& record : view.nodes) {
      EXPECT_GE(static_cast<int>(record.role), 0);
      EXPECT_LE(static_cast<int>(record.role),
                static_cast<int>(NodeRole::kDraining));
    }
  }
  // Some edits (a flipped port digit, a truncated last line) still parse.
  EXPECT_GT(opened, 0);
}

}  // namespace
}  // namespace turbdb
