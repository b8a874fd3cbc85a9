#include "fields/derived_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "common/rng.h"
#include "fields/field_registry.h"

namespace turbdb {
namespace {

/// Analytic velocity field with known curl and gradient:
///   u = ( sin(z),  sin(x),  sin(y) )
/// => curl u = ( cos(y), cos(z), cos(x) ), div u = 0.
Slab AnalyticSlab(const GridGeometry& geometry, int halo) {
  const Box3 region = geometry.Bounds().Grown(halo);
  Slab slab(region, 3);
  for (int64_t z = region.lo[2]; z < region.hi[2]; ++z) {
    for (int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      for (int64_t x = region.lo[0]; x < region.hi[0]; ++x) {
        const double px = geometry.Coord(0, geometry.WrapIndex(0, x));
        const double py = geometry.Coord(1, geometry.WrapIndex(1, y));
        const double pz = geometry.Coord(2, geometry.WrapIndex(2, z));
        slab.At(x, y, z, 0) = static_cast<float>(std::sin(pz));
        slab.At(x, y, z, 1) = static_cast<float>(std::sin(px));
        slab.At(x, y, z, 2) = static_cast<float>(std::sin(py));
      }
    }
  }
  return slab;
}

class DerivedFieldTest : public ::testing::Test {
 protected:
  DerivedFieldTest()
      : geometry_(GridGeometry::Isotropic(32)),
        slab_(AnalyticSlab(geometry_, 3)),
        diff_(std::move(Differentiator::Create(geometry_, 6)).value()) {}

  GridGeometry geometry_;
  Slab slab_;
  Differentiator diff_;
};

TEST_F(DerivedFieldTest, CurlMatchesAnalyticVorticity) {
  CurlField curl;
  double out[3];
  for (int64_t probe : {0L, 7L, 19L, 31L}) {
    const int64_t i = probe, j = (probe * 3 + 1) % 32, k = (probe * 7 + 2) % 32;
    curl.EvaluateAt(slab_, diff_, i, j, k, out);
    EXPECT_NEAR(out[0], std::cos(geometry_.Coord(1, j)), 2e-3);
    EXPECT_NEAR(out[1], std::cos(geometry_.Coord(2, k)), 2e-3);
    EXPECT_NEAR(out[2], std::cos(geometry_.Coord(0, i)), 2e-3);
  }
}

TEST_F(DerivedFieldTest, NormIsEuclidean) {
  CurlField curl;
  double out[3];
  curl.EvaluateAt(slab_, diff_, 5, 6, 7, out);
  const double expected =
      std::sqrt(out[0] * out[0] + out[1] * out[1] + out[2] * out[2]);
  EXPECT_NEAR(curl.NormAt(slab_, diff_, 5, 6, 7), expected, 1e-12);
}

TEST_F(DerivedFieldTest, DivergenceOfSolenoidalFieldIsSmall) {
  DivergenceField divergence;
  double out[1];
  double max_div = 0.0;
  double max_vort = 0.0;
  CurlField curl;
  for (int64_t i = 0; i < 32; i += 5) {
    divergence.EvaluateAt(slab_, diff_, i, (i + 3) % 32, (i + 11) % 32, out);
    max_div = std::max(max_div, std::abs(out[0]));
    max_vort = std::max(
        max_vort, curl.NormAt(slab_, diff_, i, (i + 3) % 32, (i + 11) % 32));
  }
  EXPECT_LT(max_div, 1e-2 * max_vort);
}

TEST_F(DerivedFieldTest, GradientLayoutIsRowMajor) {
  VelocityGradientField gradient;
  double a[9];
  gradient.EvaluateAt(slab_, diff_, 4, 8, 12, a);
  // u_x = sin(z): du_x/dz = cos(z) is a[0*3+2].
  EXPECT_NEAR(a[2], std::cos(geometry_.Coord(2, 12)), 2e-3);
  // du_x/dx = 0.
  EXPECT_NEAR(a[0], 0.0, 2e-3);
  // u_y = sin(x): du_y/dx = cos(x) is a[1*3+0].
  EXPECT_NEAR(a[3], std::cos(geometry_.Coord(0, 4)), 2e-3);
}

TEST_F(DerivedFieldTest, QCriterionMatchesGradientIdentity) {
  // Q = (||Omega||^2 - ||S||^2)/2 computed from the gradient directly.
  VelocityGradientField gradient;
  QCriterionField q_field;
  double a[9];
  double q[1];
  for (int64_t probe = 1; probe < 32; probe += 6) {
    gradient.EvaluateAt(slab_, diff_, probe, probe, probe, a);
    double s2 = 0.0, o2 = 0.0;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        const double sym = 0.5 * (a[3 * i + j] + a[3 * j + i]);
        const double asym = 0.5 * (a[3 * i + j] - a[3 * j + i]);
        s2 += sym * sym;
        o2 += asym * asym;
      }
    }
    q_field.EvaluateAt(slab_, diff_, probe, probe, probe, q);
    EXPECT_NEAR(q[0], 0.5 * (o2 - s2), 1e-10);
  }
}

TEST_F(DerivedFieldTest, RInvariantMatchesDeterminant) {
  VelocityGradientField gradient;
  RInvariantField r_field;
  double a[9];
  double r[1];
  gradient.EvaluateAt(slab_, diff_, 9, 14, 3, a);
  const double det =
      a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6]) +
      a[2] * (a[3] * a[7] - a[4] * a[6]);
  r_field.EvaluateAt(slab_, diff_, 9, 14, 3, r);
  EXPECT_NEAR(r[0], -det, 1e-10);
}

TEST_F(DerivedFieldTest, MagnitudePassesThroughRawValues) {
  MagnitudeField magnitude(3);
  double out[3];
  magnitude.EvaluateAt(slab_, diff_, 3, 4, 5, out);
  EXPECT_EQ(out[0], slab_.At(3, 4, 5, 0));
  EXPECT_EQ(out[1], slab_.At(3, 4, 5, 1));
  EXPECT_EQ(out[2], slab_.At(3, 4, 5, 2));
  EXPECT_EQ(magnitude.HaloWidth(8), 0);
}

TEST_F(DerivedFieldTest, HaloWidthsTrackFdOrder) {
  CurlField curl;
  EXPECT_EQ(curl.HaloWidth(2), 1);
  EXPECT_EQ(curl.HaloWidth(4), 2);
  EXPECT_EQ(curl.HaloWidth(8), 4);
  QCriterionField q;
  EXPECT_EQ(q.HaloWidth(6), 3);
}

TEST_F(DerivedFieldTest, FlopEstimatesOrdering) {
  // Q-criterion must be costlier than the curl (Sec. 5.4); the raw
  // magnitude is nearly free.
  CurlField curl;
  QCriterionField q;
  MagnitudeField magnitude(3);
  EXPECT_GT(q.FlopsPerPoint(4), curl.FlopsPerPoint(4));
  EXPECT_LT(magnitude.FlopsPerPoint(4), curl.FlopsPerPoint(4) / 10);
}

TEST_F(DerivedFieldTest, BoxFilterAveragesAndPreservesConstants) {
  BoxFilterField filter(2, 3);
  EXPECT_EQ(filter.HaloWidth(8), 2);  // Width set by the filter, not FD.
  // On the analytic field, the filtered value is a local average: it must
  // lie within the window's min/max and damp high-frequency content.
  double filtered[3];
  double raw[3];
  filter.EvaluateAt(slab_, diff_, 10, 11, 12, filtered);
  MagnitudeField magnitude(3);
  magnitude.EvaluateAt(slab_, diff_, 10, 11, 12, raw);
  for (int c = 0; c < 3; ++c) {
    double window_min = 1e30;
    double window_max = -1e30;
    for (int64_t dz = -2; dz <= 2; ++dz) {
      for (int64_t dy = -2; dy <= 2; ++dy) {
        for (int64_t dx = -2; dx <= 2; ++dx) {
          const double v = slab_.At(10 + dx, 11 + dy, 12 + dz, c);
          window_min = std::min(window_min, v);
          window_max = std::max(window_max, v);
        }
      }
    }
    EXPECT_GE(filtered[c], window_min - 1e-9);
    EXPECT_LE(filtered[c], window_max + 1e-9);
  }

  // A constant field is invariant under the filter.
  Slab constant(geometry_.Bounds().Grown(2), 1);
  for (int64_t z = constant.region().lo[2]; z < constant.region().hi[2]; ++z) {
    for (int64_t y = constant.region().lo[1]; y < constant.region().hi[1];
         ++y) {
      for (int64_t x = constant.region().lo[0]; x < constant.region().hi[0];
           ++x) {
        constant.At(x, y, z, 0) = 3.5f;
      }
    }
  }
  BoxFilterField scalar_filter(2, 1);
  double out[1];
  scalar_filter.EvaluateAt(constant, diff_, 7, 8, 9, out);
  EXPECT_NEAR(out[0], 3.5, 1e-6);
}

/// Pseudo-random values over the whole grid plus `halo` nodes on every
/// periodic axis (none beyond a wall), the region a gather assembles.
Slab RandomSlab(const GridGeometry& geometry, int halo, int ncomp,
                uint64_t seed) {
  Box3 region = geometry.Bounds();
  for (int d = 0; d < 3; ++d) {
    if (!geometry.periodic(d)) continue;
    region.lo[d] -= halo;
    region.hi[d] += halo;
  }
  Slab slab(region, ncomp);
  SplitMix64 rng(seed);
  for (int64_t z = region.lo[2]; z < region.hi[2]; ++z) {
    for (int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      for (int64_t x = region.lo[0]; x < region.hi[0]; ++x) {
        for (int c = 0; c < ncomp; ++c) {
          slab.At(x, y, z, c) = static_cast<float>(rng.NextDouble(-2.0, 2.0));
        }
      }
    }
  }
  return slab;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// NormsRow (and the PartialRow under it) must return NormAt's (and
// Partial's) exact bits for every registered kernel, FD order and axis
// kind: periodic rows whose stencils reach into the wrap halo, rows on
// and next to the walls of a stretched y axis and of wall-bounded x and
// z axes (all three through the per-node fallback), row lengths 1 up to
// the atom width, and whole rows longer than the kernels' scratch block.
TEST(NormsRowTest, BitIdenticalToNormAtForEveryKernel) {
  constexpr double kPi = 3.14159265358979323846;
  const std::vector<std::pair<std::string, GridGeometry>> geometries = {
      {"isotropic", GridGeometry::Isotropic(16)},
      {"channel", GridGeometry::Channel(96, 16, 16)},
      {"walled x/z",
       GridGeometry::FromParts({16, 16, 16}, {2 * kPi, 2 * kPi, 2 * kPi},
                               {false, true, false}, 8, {})},
  };
  const FieldRegistry registry = FieldRegistry::Default();
  constexpr int kHalo = 4;  // Order 8 and box_filter_4 both need 4.
  std::set<std::string> kernels_checked;
  for (const auto& [label, geometry] : geometries) {
    ASSERT_TRUE(geometry.Validate().ok()) << label;
    const int64_t nx = geometry.nx();
    const int64_t ny = geometry.ny();
    const int64_t nz = geometry.nz();
    std::vector<int64_t> lengths;
    for (int64_t n = 1; n <= geometry.atom_width(); ++n) lengths.push_back(n);
    lengths.push_back(nx);
    for (int ncomp : {3, 1}) {
      const Slab slab = RandomSlab(geometry, kHalo, ncomp, 40 + ncomp);
      for (int order : {2, 4, 6, 8}) {
        auto diff = Differentiator::Create(geometry, order);
        ASSERT_TRUE(diff.ok()) << label;
        std::vector<std::shared_ptr<const DerivedField>> kernels;
        for (const std::string& name : registry.Names()) {
          auto kernel = registry.Create(name, ncomp);
          if (kernel.ok()) kernels.push_back(std::move(kernel).value());
        }
        for (int64_t z : {int64_t{0}, int64_t{1}, nz / 2, nz - 1}) {
          for (int64_t y : {int64_t{0}, int64_t{1}, ny / 2, ny - 2, ny - 1}) {
            for (int64_t n : lengths) {
              for (int64_t x0 : {int64_t{0}, (nx - n) / 2, nx - n}) {
                const std::string where =
                    label + " order " + std::to_string(order) + " row x0=" +
                    std::to_string(x0) + " n=" + std::to_string(n) +
                    " y=" + std::to_string(y) + " z=" + std::to_string(z);
                std::vector<double> row(
                    static_cast<size_t>(n),
                    std::numeric_limits<double>::quiet_NaN());
                for (const auto& kernel : kernels) {
                  kernel->NormsRow(slab, *diff, x0, n, y, z, row.data());
                  for (int64_t i = 0; i < n; ++i) {
                    const double ref =
                        kernel->NormAt(slab, *diff, x0 + i, y, z);
                    ASSERT_TRUE(SameBits(row[static_cast<size_t>(i)], ref))
                        << kernel->name() << " " << where << " i=" << i
                        << ": " << row[static_cast<size_t>(i)] << " vs "
                        << ref;
                  }
                  kernels_checked.insert(kernel->name());
                }
                if (ncomp != 3) continue;
                for (int c = 0; c < 3; ++c) {
                  for (int axis = 0; axis < 3; ++axis) {
                    diff->PartialRow(slab, c, axis, x0, n, y, z, row.data());
                    for (int64_t i = 0; i < n; ++i) {
                      ASSERT_TRUE(SameBits(
                          row[static_cast<size_t>(i)],
                          diff->Partial(slab, c, axis, x0 + i, y, z)))
                          << "d" << c << "/d" << axis << " " << where;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(kernels_checked.size(), registry.Names().size());
}

TEST(FieldRegistryTest, DefaultFieldsResolve) {
  FieldRegistry registry = FieldRegistry::Default();
  for (const char* name :
       {"magnitude", "vorticity", "current", "velocity_gradient",
        "q_criterion", "r_invariant", "divergence", "box_filter",
        "box_filter_4"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto field = registry.Create(name, 3);
    ASSERT_TRUE(field.ok()) << name;
  }
  EXPECT_EQ(registry.Names().size(), 9u);
}

TEST(FieldRegistryTest, RejectsUnknownAndIncompatible) {
  FieldRegistry registry = FieldRegistry::Default();
  EXPECT_TRUE(registry.Create("nope", 3).status().IsNotFound());
  // Curl of a scalar field makes no sense.
  EXPECT_EQ(registry.Create("vorticity", 1).status().code(),
            StatusCode::kInvalidArgument);
  // Magnitude adapts to the raw component count.
  auto scalar = registry.Create("magnitude", 1);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ((*scalar)->output_ncomp(), 1);
}

TEST(FieldRegistryTest, CustomRegistration) {
  FieldRegistry registry = FieldRegistry::Default();
  registry.Register("my_curl", [](int) {
    return std::make_unique<CurlField>("my_curl");
  });
  auto field = registry.Create("my_curl", 3);
  ASSERT_TRUE(field.ok());
  EXPECT_EQ((*field)->name(), "my_curl");
}

}  // namespace
}  // namespace turbdb
