#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "membership/view.h"

namespace turbdb {

/// One planned live migration: the half-open Morton range [begin, end)
/// moves from `from_shard` to `to_shard`.
struct RangeMove {
  uint64_t begin = 0;
  uint64_t end = 0;
  int from_shard = -1;
  int to_shard = -1;
  uint64_t estimated_atoms = 0;  ///< Atom codes inside the range (donor's).
};

/// Chooses which range to move where. Pure ownership math on the current
/// view — no I/O — so it is unit-testable under generation bumps.
class RebalancePlanner {
 public:
  /// Plans one move. `shard_atoms[s]` holds the sorted atom codes shard
  /// `s` effectively owns under the current view (see OwnedAtoms);
  /// entries for draining shards are ignored as donors and targets.
  /// `to_shard` -1 picks the least-loaded active shard; the donor is the
  /// most-loaded active shard other than the target. The move takes the
  /// upper half of the donor's codes, so repeated planning converges
  /// toward balance. Fails with NotFound when no move would help (the
  /// donor holds fewer than two atoms or already is the target).
  static Result<RangeMove> PlanOne(
      const MembershipView& view,
      const std::vector<std::vector<uint64_t>>& shard_atoms, int to_shard);
};

/// The I/O half of a move, supplied by the mediator: each hook runs one
/// phase against the live cluster. Splitting phases from sequencing
/// keeps this library free of transport types and lets tests drive the
/// mover with in-memory hooks.
struct RangeMoverHooks {
  /// Page the range's atoms from the donor to the recipient (SyncRange
  /// paging + skip-existing ingest). Returns atoms copied.
  std::function<Result<uint64_t>(const RangeMove&)> copy_range;
  /// Tell donor and recipient, then apply the ownership override and
  /// bump the generation. Returns the new generation.
  std::function<Result<uint64_t>(const RangeMove&)> cutover;
};

/// Sequences one live range move: copy, then cutover. The donor keeps
/// serving the range while the copy runs.
/// The `handoff.crash_before_cutover` fault site fires after the copy
/// and before the cutover, aborting the move there — the cluster is left
/// with the range double-stored but ownership unchanged, which is the
/// crash-consistent state (a re-run of the move converges: the copy
/// skips existing atoms).
class RangeMover {
 public:
  struct Outcome {
    uint64_t atoms_copied = 0;
    uint64_t generation = 0;  ///< Generation after cutover.
  };

  static Result<Outcome> Execute(const RangeMove& move,
                                 const RangeMoverHooks& hooks);
};

}  // namespace turbdb
