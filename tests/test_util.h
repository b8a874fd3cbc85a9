#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "array/slab.h"
#include "core/turbdb.h"
#include "datagen/turbulence.h"
#include "fields/derived_field.h"
#include "fields/differentiator.h"

namespace turbdb {
namespace testing {

/// A fresh directory `<tmp>/<prefix>_XXXXXX`, removed with everything in
/// it when the guard goes out of scope, however the test leaves (a failed
/// ASSERT_* included). Declare it before whatever writes into it (node
/// processes, an open TurbDB), so that is gone first.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix)
      : path_((std::filesystem::temp_directory_path() / (prefix + "_XXXXXX"))
                  .string()) {
    if (::mkdtemp(path_.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp " << path_ << " failed";
      path_.clear();
    }
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A small spec that keeps test-grid generation fast while retaining a
/// couple of intense tubes (so thresholds select non-empty sparse sets).
inline TurbulenceSpec SmallTestSpec(uint64_t seed) {
  TurbulenceSpec spec;
  spec.seed = seed;
  spec.num_modes = 24;
  spec.k_min = 1.0;
  spec.k_max = 6.0;
  spec.u_rms = 1.0;
  spec.num_tubes = 6;
  spec.tube_radius_min = 0.15;
  spec.tube_radius_max = 0.35;
  spec.tube_omega_log_mean = 3.4;
  spec.tube_omega_log_sigma = 0.5;
  return spec;
}

/// Builds a slab covering the whole grid grown by `halo` on every side,
/// filled directly from the generator (periodic images across wrapped
/// coordinates). This is the ground-truth substrate for brute-force
/// reference evaluation, independent of the storage/cluster machinery.
inline Slab FullSlabWithHalo(const SyntheticField& generator, int32_t timestep,
                             int halo) {
  const GridGeometry& geometry = generator.geometry();
  const Box3 region = geometry.Bounds().Grown(halo);
  Box3 clipped = region;
  for (int d = 0; d < 3; ++d) {
    if (!geometry.periodic(d)) {
      clipped.lo[d] = 0;
      clipped.hi[d] = geometry.extent(d);
    }
  }
  Slab slab(clipped, generator.ncomp());
  double value[3];
  for (int64_t z = clipped.lo[2]; z < clipped.hi[2]; ++z) {
    for (int64_t y = clipped.lo[1]; y < clipped.hi[1]; ++y) {
      for (int64_t x = clipped.lo[0]; x < clipped.hi[0]; ++x) {
        generator.EvaluateAtNode(timestep, geometry.WrapIndex(0, x),
                                 geometry.WrapIndex(1, y),
                                 geometry.WrapIndex(2, z), value);
        for (int c = 0; c < generator.ncomp(); ++c) {
          // Match the engine's float storage so norms agree bit-for-bit.
          slab.At(x, y, z, c) = static_cast<float>(value[c]);
        }
      }
    }
  }
  return slab;
}

/// Reference implementation of a threshold query: evaluates the kernel at
/// every point of `box` on the ground-truth slab. Output is z-sorted.
inline std::vector<ThresholdPoint> BruteForceThreshold(
    const Slab& slab, const DerivedField& kernel, const Differentiator& diff,
    const Box3& box, double threshold) {
  std::vector<ThresholdPoint> points;
  for (int64_t z = box.lo[2]; z < box.hi[2]; ++z) {
    for (int64_t y = box.lo[1]; y < box.hi[1]; ++y) {
      for (int64_t x = box.lo[0]; x < box.hi[0]; ++x) {
        const auto norm =
            static_cast<float>(kernel.NormAt(slab, diff, x, y, z));
        if (PassesThreshold(norm, threshold)) {
          points.push_back(MakeThresholdPoint(
              static_cast<uint32_t>(x), static_cast<uint32_t>(y),
              static_cast<uint32_t>(z), norm));
        }
      }
    }
  }
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  return points;
}

/// Opens a TurbDB over an in-process cluster with the given topology and
/// an isotropic dataset "iso" of n^3 with `timesteps` steps of synthetic
/// velocity data (seed 7).
inline std::unique_ptr<TurbDB> MakeTestDb(int64_t n, int nodes, int processes,
                                          int32_t timesteps,
                                          uint64_t seed = 7) {
  TurbDBConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.processes_per_node = processes;
  auto db = TurbDB::Open(config);
  if (!db.ok()) return nullptr;
  if (!(*db)->CreateDataset(MakeIsotropicDataset("iso", n, timesteps)).ok()) {
    return nullptr;
  }
  if (!(*db)
           ->IngestSyntheticField("iso", "velocity", SmallTestSpec(seed), 0,
                                  timesteps)
           .ok()) {
    return nullptr;
  }
  return std::move(db).value();
}

}  // namespace testing
}  // namespace turbdb
