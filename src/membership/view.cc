#include "membership/view.h"

namespace turbdb {

const std::shared_ptr<const MembershipView>& StaticView() {
  static const std::shared_ptr<const MembershipView> view =
      std::make_shared<const MembershipView>();
  return view;
}

Status ValidateOverrides(const std::vector<RangeOverride>& overrides) {
  for (size_t i = 0; i < overrides.size(); ++i) {
    const RangeOverride& range = overrides[i];
    if (range.begin >= range.end ||
        (i > 0 && range.begin < overrides[i - 1].end)) {
      return Status::InvalidArgument(
          "range override [" + std::to_string(range.begin) + ", " +
          std::to_string(range.end) +
          ") breaks the rule that overrides are non-empty, sorted and "
          "disjoint");
    }
  }
  return Status::OK();
}

std::vector<uint64_t> OwnedAtomsInBox(const MortonPartitioner& partitioner,
                                      const MembershipView& view, int shard,
                                      const Box3& atom_box) {
  const int base = partitioner.num_nodes();
  if (view.overrides.empty()) {
    if (shard < 0 || shard >= base) return {};
    return partitioner.NodeAtomsInBox(shard, atom_box);
  }
  std::vector<uint64_t> owned;
  for (int b = 0; b < base; ++b) {
    for (uint64_t code : partitioner.NodeAtomsInBox(b, atom_box)) {
      if (view.OwnerOf(code, b) == shard) owned.push_back(code);
    }
  }
  std::sort(owned.begin(), owned.end());
  return owned;
}

std::vector<uint64_t> OwnedAtoms(const MortonPartitioner& partitioner,
                                 const MembershipView& view, int shard) {
  const int base = partitioner.num_nodes();
  if (view.overrides.empty()) {
    if (shard < 0 || shard >= base) return {};
    return partitioner.NodeAtoms(shard);
  }
  std::vector<uint64_t> owned;
  for (int b = 0; b < base; ++b) {
    for (uint64_t code : partitioner.NodeAtoms(b)) {
      if (view.OwnerOf(code, b) == shard) owned.push_back(code);
    }
  }
  std::sort(owned.begin(), owned.end());
  return owned;
}

}  // namespace turbdb
