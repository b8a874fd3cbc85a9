#include "membership/rebalance.h"

#include <algorithm>
#include <set>

#include "common/fault.h"
#include "common/logging.h"

namespace turbdb {

Result<RangeMove> RebalancePlanner::PlanOne(
    const MembershipView& view,
    const std::vector<std::vector<uint64_t>>& shard_atoms, int to_shard) {
  // Active shards: base shards are implicitly active unless every node of
  // the shard is draining; joined shards are active via their records.
  std::set<int> draining;
  std::set<int> active;
  for (const NodeRecord& n : view.nodes) {
    if (n.role == NodeRole::kDraining) {
      draining.insert(n.shard);
    } else {
      active.insert(n.shard);
    }
  }
  for (int s : active) draining.erase(s);

  auto load = [&](int shard) -> uint64_t {
    if (shard < 0 || shard >= static_cast<int>(shard_atoms.size())) return 0;
    return shard_atoms[static_cast<size_t>(shard)].size();
  };

  if (to_shard < 0) {
    uint64_t best = UINT64_MAX;
    for (int s : active) {
      if (load(s) < best) {
        best = load(s);
        to_shard = s;
      }
    }
  }
  if (to_shard < 0 || draining.count(to_shard) != 0 ||
      active.count(to_shard) == 0) {
    return Status::InvalidArgument("rebalance target shard " +
                                   std::to_string(to_shard) +
                                   " is not an active shard");
  }

  int donor = -1;
  uint64_t donor_load = 0;
  for (int s : active) {
    if (s == to_shard) continue;
    if (load(s) > donor_load) {
      donor_load = load(s);
      donor = s;
    }
  }
  if (donor < 0 || donor_load < 2 || donor_load <= load(to_shard) + 1) {
    return Status::NotFound("no shard has enough atoms to donate");
  }

  const std::vector<uint64_t>& codes =
      shard_atoms[static_cast<size_t>(donor)];
  // Upper half of the donor's codes, but never more than would invert
  // the imbalance.
  size_t take = (donor_load - load(to_shard)) / 2;
  take = std::min(take, codes.size() - 1);
  if (take == 0) return Status::NotFound("no shard has enough atoms to donate");
  RangeMove move;
  move.from_shard = donor;
  move.to_shard = to_shard;
  move.begin = codes[codes.size() - take];
  move.end = codes.back() + 1;
  move.estimated_atoms = take;
  return move;
}

Result<RangeMover::Outcome> RangeMover::Execute(const RangeMove& move,
                                                const RangeMoverHooks& hooks) {
  if (move.begin >= move.end || move.from_shard == move.to_shard ||
      move.from_shard < 0 || move.to_shard < 0) {
    return Status::InvalidArgument("malformed range move");
  }
  TURBDB_ASSIGN_OR_RETURN(uint64_t copied, hooks.copy_range(move));
  if (fault::Check("handoff.crash_before_cutover")) {
    // The simulated crash window: the copy landed but ownership did not
    // change. Both shards hold the range's atoms; the donor still serves
    // them. A retried move re-copies (skip-existing) and cuts over.
    TURBDB_LOG(Warning)
        << "handoff aborted before cutover (fault injection); range ["
        << move.begin << ", " << move.end << ") stays with shard "
        << move.from_shard;
    return Status::Aborted("handoff crashed before cutover (fault)");
  }
  TURBDB_ASSIGN_OR_RETURN(uint64_t generation, hooks.cutover(move));
  Outcome outcome;
  outcome.atoms_copied = copied;
  outcome.generation = generation;
  return outcome;
}

}  // namespace turbdb
