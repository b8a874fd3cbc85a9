#include "analysis/fof.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

namespace turbdb {

std::vector<FofPoint> ToFofPoints(const std::vector<ThresholdPoint>& points,
                                  int32_t timestep) {
  std::vector<FofPoint> out;
  out.reserve(points.size());
  for (const ThresholdPoint& point : points) {
    uint32_t x, y, z;
    point.Coords(&x, &y, &z);
    out.push_back(FofPoint{static_cast<double>(x), static_cast<double>(y),
                           static_cast<double>(z), timestep, point.norm});
  }
  return out;
}

namespace {

/// Disjoint-set forest with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  size_t Find(size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
};

struct CellKey {
  int64_t cx, cy, cz, ct;
  bool operator==(const CellKey& other) const {
    return cx == other.cx && cy == other.cy && cz == other.cz &&
           ct == other.ct;
  }
};

struct CellKeyHash {
  size_t operator()(const CellKey& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (int64_t v : {key.cx, key.cy, key.cz, key.ct}) {
      h ^= static_cast<uint64_t>(v);
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

double AxisDelta(double a, double b, double extent) {
  double delta = a - b;
  if (extent > 0.0) {
    delta -= extent * std::floor(delta / extent + 0.5);
  }
  return delta;
}

/// The linking step of friends-of-friends: a spatial hash grid with
/// cells sized to the linking length, and union-find. Returns each
/// cluster's member indices in input order, clusters in the order of
/// their first members.
Result<std::vector<std::vector<size_t>>> LinkFriends(
    const std::vector<FofPoint>& points, const FofParams& params) {
  if (params.linking_length <= 0.0) {
    return Status::InvalidArgument("linking length must be positive");
  }
  if (params.time_linking < 0) {
    return Status::InvalidArgument("time linking must be non-negative");
  }
  const size_t n = points.size();
  std::vector<std::vector<size_t>> clusters;
  if (n == 0) return clusters;

  const double cell = params.linking_length;
  const double link_sq = params.linking_length * params.linking_length;
  const int64_t t_link = params.time_linking;

  // Bucket points into cells sized to the linking length; friends can
  // only live in the 3^3 (x 3 time slabs) neighborhood of a point's cell.
  std::unordered_map<CellKey, std::vector<size_t>, CellKeyHash> cells;
  cells.reserve(n * 2);
  auto cell_of = [&](const FofPoint& point) {
    return CellKey{static_cast<int64_t>(std::floor(point.x / cell)),
                   static_cast<int64_t>(std::floor(point.y / cell)),
                   static_cast<int64_t>(std::floor(point.z / cell)),
                   t_link > 0 ? point.timestep / (t_link) : point.timestep};
  };
  for (size_t i = 0; i < n; ++i) {
    cells[cell_of(points[i])].push_back(i);
  }

  // Number of cells per periodic axis, for wrapped neighbor lookup.
  std::array<int64_t, 3> cells_per_axis = {0, 0, 0};
  for (int d = 0; d < 3; ++d) {
    if (params.periodic_extent[d] > 0.0) {
      cells_per_axis[d] = static_cast<int64_t>(
          std::ceil(params.periodic_extent[d] / cell));
    }
  }

  // Without time linking only the point's own slab can hold a friend:
  // every point of a neighbouring slab fails the time test.
  const int64_t slab_reach = t_link > 0 ? 1 : 0;
  UnionFind forest(n);
  for (size_t i = 0; i < n; ++i) {
    const FofPoint& p = points[i];
    const CellKey home = cell_of(p);
    for (int64_t dt = -slab_reach; dt <= slab_reach; ++dt) {
      for (int64_t dz = -1; dz <= 1; ++dz) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          for (int64_t dx = -1; dx <= 1; ++dx) {
            CellKey probe{home.cx + dx, home.cy + dy, home.cz + dz,
                          home.ct + dt};
            // Wrap the probe cell on periodic axes.
            if (cells_per_axis[0] > 0) {
              probe.cx = ((probe.cx % cells_per_axis[0]) + cells_per_axis[0]) %
                         cells_per_axis[0];
            }
            if (cells_per_axis[1] > 0) {
              probe.cy = ((probe.cy % cells_per_axis[1]) + cells_per_axis[1]) %
                         cells_per_axis[1];
            }
            if (cells_per_axis[2] > 0) {
              probe.cz = ((probe.cz % cells_per_axis[2]) + cells_per_axis[2]) %
                         cells_per_axis[2];
            }
            auto it = cells.find(probe);
            if (it == cells.end()) continue;
            for (size_t j : it->second) {
              if (j <= i) continue;
              const FofPoint& q = points[j];
              if (std::abs(static_cast<int64_t>(p.timestep) -
                           static_cast<int64_t>(q.timestep)) > t_link) {
                continue;
              }
              const double ddx = AxisDelta(p.x, q.x, params.periodic_extent[0]);
              const double ddy = AxisDelta(p.y, q.y, params.periodic_extent[1]);
              const double ddz = AxisDelta(p.z, q.z, params.periodic_extent[2]);
              if (ddx * ddx + ddy * ddy + ddz * ddz <= link_sq) {
                forest.Union(i, j);
              }
            }
          }
        }
      }
    }
  }

  std::unordered_map<size_t, size_t> root_to_cluster;
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        root_to_cluster.emplace(forest.Find(i), clusters.size());
    if (inserted) clusters.emplace_back();
    clusters[it->second].push_back(i);
  }
  return clusters;
}

}  // namespace

Result<std::vector<FofCluster>> FriendsOfFriends(
    const std::vector<FofPoint>& points, const FofParams& params) {
  TURBDB_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                          LinkFriends(points, params));
  std::vector<FofCluster> clusters(groups.size());
  for (size_t c = 0; c < groups.size(); ++c) {
    FofCluster& cluster = clusters[c];
    cluster.members = std::move(groups[c]);
    cluster.t_min = points[cluster.members.front()].timestep;
    cluster.t_max = cluster.t_min;
    for (const size_t i : cluster.members) {
      cluster.centroid[0] += points[i].x;
      cluster.centroid[1] += points[i].y;
      cluster.centroid[2] += points[i].z;
      cluster.t_min = std::min(cluster.t_min, points[i].timestep);
      cluster.t_max = std::max(cluster.t_max, points[i].timestep);
      if (points[i].norm > cluster.max_norm) {
        cluster.max_norm = points[i].norm;
        cluster.peak_index = i;
      }
    }
    const double inv = 1.0 / static_cast<double>(cluster.size());
    for (int d = 0; d < 3; ++d) cluster.centroid[d] *= inv;
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const FofCluster& a, const FofCluster& b) {
              return a.max_norm > b.max_norm;
            });
  return clusters;
}

Status CheckFofLinkingLength(double linking_length, int64_t atom_width) {
  if (!(linking_length > 0.0)) {
    return Status::InvalidArgument("linking length must be positive");
  }
  if (linking_length > static_cast<double>(atom_width)) {
    return Status::InvalidArgument(
        "linking length " + std::to_string(linking_length) +
        " exceeds the halo width (atom width " + std::to_string(atom_width) +
        "): a FoF query links points at most one atom apart; use a smaller "
        "linking length or the in-process FriendsOfFriends");
  }
  return Status::OK();
}

Result<std::vector<DistributedFofCluster>> ClusterThresholdPoints(
    std::vector<ThresholdPoint> points, const FofParams& params,
    uint64_t min_cluster_size) {
  // Z order with a norm tie-break: real threshold answers have unique
  // locations, but duplicated z-indexes (possible in synthetic input)
  // must not make the output depend on arrival order. A threshold
  // answer arrives z-sorted already.
  auto z_then_norm = [](const ThresholdPoint& a, const ThresholdPoint& b) {
    if (a.zindex != b.zindex) return a.zindex < b.zindex;
    return a.norm < b.norm;
  };
  if (!std::is_sorted(points.begin(), points.end(), z_then_norm)) {
    std::sort(points.begin(), points.end(), z_then_norm);
  }
  TURBDB_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> groups,
                          LinkFriends(ToFofPoints(points, 0), params));

  // Members come in input order, which is z order here, so each record
  // is named by its first member and every statistic reads the members
  // as they come.
  std::vector<DistributedFofCluster> clusters;
  clusters.reserve(groups.size());
  for (const std::vector<size_t>& group : groups) {
    if (group.size() < min_cluster_size) continue;
    DistributedFofCluster cluster;
    cluster.members.reserve(group.size());
    bool first = true;
    for (const size_t i : group) {
      const ThresholdPoint& point = points[i];
      uint32_t x, y, z;
      point.Coords(&x, &y, &z);
      const uint64_t grid[3] = {x, y, z};
      cluster.members.push_back(point);
      for (int d = 0; d < 3; ++d) {
        cluster.centroid[d] += static_cast<double>(grid[d]);
        if (first || grid[d] < cluster.bbox_lo[d]) cluster.bbox_lo[d] = grid[d];
        if (first || grid[d] > cluster.bbox_hi[d]) cluster.bbox_hi[d] = grid[d];
      }
      // Strict > over the z-ordered members picks the smallest z-index
      // among the max-norm points.
      if (first || point.norm > cluster.max_norm) {
        cluster.max_norm = point.norm;
        cluster.peak_zindex = point.zindex;
      }
      first = false;
    }
    cluster.id = cluster.members.front().zindex;
    const double inv = 1.0 / static_cast<double>(cluster.members.size());
    for (int d = 0; d < 3; ++d) cluster.centroid[d] *= inv;
    clusters.push_back(std::move(cluster));
  }

  std::sort(clusters.begin(), clusters.end(),
            [](const DistributedFofCluster& a, const DistributedFofCluster& b) {
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              return a.id < b.id;
            });
  return clusters;
}

}  // namespace turbdb
