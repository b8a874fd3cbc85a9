#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "array/point.h"
#include "common/profile.h"
#include "common/result.h"

namespace turbdb {

/// A point fed to friends-of-friends clustering: grid coordinates plus
/// the time-step (for 4-D clustering) and the derived-field norm.
struct FofPoint {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  int32_t timestep = 0;
  float norm = 0.0f;
};

/// Converts threshold-query rows to FoF inputs.
std::vector<FofPoint> ToFofPoints(const std::vector<ThresholdPoint>& points,
                                  int32_t timestep);

struct FofParams {
  /// Spatial linking length, in grid units. Two points are friends if
  /// their (periodic) distance is at most this.
  double linking_length = 2.0;
  /// Maximum time-step difference for 4-D linking; 0 restricts links to
  /// the same time-step (pure 3-D clustering).
  int32_t time_linking = 0;
  /// Per-axis periodic wrapping with the given extents (grid units);
  /// extent 0 disables wrapping for that axis.
  std::array<double, 3> periodic_extent = {0.0, 0.0, 0.0};
};

/// One friends-of-friends cluster, with the statistics a landmark
/// database records (Sec. 7: "locations of the highest vorticity regions
/// ... and their associated statistics").
struct FofCluster {
  std::vector<size_t> members;  ///< Input indices, in input order.
  float max_norm = 0.0f;
  size_t peak_index = 0;        ///< Input index of the max-norm member.
  std::array<double, 3> centroid = {0.0, 0.0, 0.0};
  int32_t t_min = 0;
  int32_t t_max = 0;

  size_t size() const { return members.size(); }
};

/// Friends-of-friends clustering via a spatial hash grid and union-find.
/// Complexity is O(N * neighbors) with cells sized to the linking length.
/// Clusters are returned sorted by max_norm, descending — the paper's
/// use case is isolating the most intense event (Fig. 3).
///
/// With time_linking > 0 this is the 4-D clustering the paper applies to
/// per-time-step threshold results: worms that persist across steps merge
/// into one spacetime cluster. With time_linking == 0 a point probes only
/// its own time slab, the only one that can hold its friends.
Result<std::vector<FofCluster>> FriendsOfFriends(
    const std::vector<FofPoint>& points, const FofParams& params);

/// One cluster of a FoF query's answer. `id` is the smallest member
/// z-index: a content-derived name that does not depend on the order in
/// which the answer's points arrived.
struct DistributedFofCluster {
  uint64_t id = 0;
  std::vector<ThresholdPoint> members;  ///< Sorted by z-index.
  std::array<uint64_t, 3> bbox_lo{0, 0, 0};  ///< Grid coords, inclusive.
  std::array<uint64_t, 3> bbox_hi{0, 0, 0};
  /// Plain (not wrap-aware) mean of the member grid coordinates — the
  /// same convention FriendsOfFriends uses.
  std::array<double, 3> centroid{0.0, 0.0, 0.0};
  float max_norm = 0.0f;
  /// z-index of the max-norm member (smallest z-index on ties).
  uint64_t peak_zindex = 0;

  uint64_t size() const { return members.size(); }
};

/// Summary row of a FoF query (what the terminating FofResponse frame
/// carries after the cluster records streamed out).
struct DistributedFofSummary {
  uint64_t clusters = 0;         ///< Clusters at or above the size floor.
  uint64_t points = 0;           ///< Member points across those clusters.
  uint64_t largest_cluster = 0;  ///< Size of the biggest cluster.
  TimeBreakdown time;            ///< Modeled end-to-end time breakdown.
};

/// The FoF query's bound on its linking length: positive, and at most
/// the dataset's atom width (the halo width). The bound keeps each cell
/// of the clustering grid within one atom, which caps the grid's work
/// per point; a wider linking length is refused with kInvalidArgument.
Status CheckFofLinkingLength(double linking_length, int64_t atom_width);

/// Clusters a threshold answer the way a FoF query returns it: the
/// points are put in (z-index, norm) order (a z-sorted answer is kept as
/// it is), linked once by FriendsOfFriends' union-find (3-D, `params`),
/// and each cluster of at least `min_cluster_size` points becomes a
/// record whose statistics are read from its z-ordered members. Records are sorted by size descending,
/// then id ascending, so the output does not depend on the order of
/// `points`.
Result<std::vector<DistributedFofCluster>> ClusterThresholdPoints(
    std::vector<ThresholdPoint> points, const FofParams& params,
    uint64_t min_cluster_size);

}  // namespace turbdb
