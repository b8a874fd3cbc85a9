#include "fields/derived_field.h"

#include <algorithm>

namespace turbdb {

namespace {

/// Nodes per pass of the row kernels: bounds their stack scratch, so a
/// row of any length (atom_width is a geometry parameter) is split.
constexpr int64_t kRowBlock = 64;

/// Q = -(1/2) tr(A^2) = (||Omega||^2 - ||S||^2)/2 of a row-major
/// gradient a[9], with S = (A + A^T)/2 and Omega = (A - A^T)/2.
double QFromGradient(const double* a) {
  double s2 = 0.0;
  double o2 = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double sym = 0.5 * (a[3 * i + j] + a[3 * j + i]);
      const double asym = 0.5 * (a[3 * i + j] - a[3 * j + i]);
      s2 += sym * sym;
      o2 += asym * asym;
    }
  }
  return 0.5 * (o2 - s2);
}

}  // namespace

void DerivedField::NormsRow(const Slab& slab, const Differentiator& diff,
                            int64_t x0, int64_t n, int64_t y, int64_t z,
                            double* out) const {
  for (int64_t i = 0; i < n; ++i) out[i] = NormAt(slab, diff, x0 + i, y, z);
}

void MagnitudeField::EvaluateAt(const Slab& slab, const Differentiator&,
                                int64_t x, int64_t y, int64_t z,
                                double* out) const {
  for (int c = 0; c < ncomp_; ++c) out[c] = slab.At(x, y, z, c);
}

void MagnitudeField::NormsRow(const Slab& slab, const Differentiator&,
                              int64_t x0, int64_t n, int64_t y, int64_t z,
                              double* out) const {
  const float* p = slab.PointData(x0, y, z);
  const ptrdiff_t step = slab.ncomp();
  double v[9];
  for (int64_t i = 0; i < n; ++i, p += step) {
    for (int c = 0; c < ncomp_; ++c) v[c] = p[c];
    out[i] = Norm(v, ncomp_);
  }
}

void CurlField::EvaluateAt(const Slab& slab, const Differentiator& diff,
                           int64_t x, int64_t y, int64_t z,
                           double* out) const {
  const double dvz_dy = diff.Partial(slab, 2, 1, x, y, z);
  const double dvy_dz = diff.Partial(slab, 1, 2, x, y, z);
  const double dvx_dz = diff.Partial(slab, 0, 2, x, y, z);
  const double dvz_dx = diff.Partial(slab, 2, 0, x, y, z);
  const double dvy_dx = diff.Partial(slab, 1, 0, x, y, z);
  const double dvx_dy = diff.Partial(slab, 0, 1, x, y, z);
  out[0] = dvz_dy - dvy_dz;
  out[1] = dvx_dz - dvz_dx;
  out[2] = dvy_dx - dvx_dy;
}

void CurlField::NormsRow(const Slab& slab, const Differentiator& diff,
                         int64_t x0, int64_t n, int64_t y, int64_t z,
                         double* out) const {
  double dvz_dy[kRowBlock], dvy_dz[kRowBlock], dvx_dz[kRowBlock];
  double dvz_dx[kRowBlock], dvy_dx[kRowBlock], dvx_dy[kRowBlock];
  for (int64_t b = 0; b < n; b += kRowBlock) {
    const int64_t m = std::min(kRowBlock, n - b);
    const int64_t x = x0 + b;
    diff.PartialRow(slab, 2, 1, x, m, y, z, dvz_dy);
    diff.PartialRow(slab, 1, 2, x, m, y, z, dvy_dz);
    diff.PartialRow(slab, 0, 2, x, m, y, z, dvx_dz);
    diff.PartialRow(slab, 2, 0, x, m, y, z, dvz_dx);
    diff.PartialRow(slab, 1, 0, x, m, y, z, dvy_dx);
    diff.PartialRow(slab, 0, 1, x, m, y, z, dvx_dy);
    for (int64_t i = 0; i < m; ++i) {
      const double curl[3] = {dvz_dy[i] - dvy_dz[i], dvx_dz[i] - dvz_dx[i],
                              dvy_dx[i] - dvx_dy[i]};
      out[b + i] = Norm(curl, 3);
    }
  }
}

void VelocityGradientField::EvaluateAt(const Slab& slab,
                                       const Differentiator& diff, int64_t x,
                                       int64_t y, int64_t z,
                                       double* out) const {
  // Row-major: out[3*i + j] = du_i/dx_j.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      out[3 * i + j] = diff.Partial(slab, i, j, x, y, z);
    }
  }
}

namespace {

/// Fills a[9] with the velocity gradient at the node.
void Gradient(const Slab& slab, const Differentiator& diff, int64_t x,
              int64_t y, int64_t z, double* a) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      a[3 * i + j] = diff.Partial(slab, i, j, x, y, z);
    }
  }
}

}  // namespace

void QCriterionField::EvaluateAt(const Slab& slab, const Differentiator& diff,
                                 int64_t x, int64_t y, int64_t z,
                                 double* out) const {
  double a[9];
  Gradient(slab, diff, x, y, z, a);
  out[0] = QFromGradient(a);
}

void QCriterionField::NormsRow(const Slab& slab, const Differentiator& diff,
                               int64_t x0, int64_t n, int64_t y, int64_t z,
                               double* out) const {
  double rows[9][kRowBlock];
  for (int64_t b = 0; b < n; b += kRowBlock) {
    const int64_t m = std::min(kRowBlock, n - b);
    for (int k = 0; k < 9; ++k) {
      diff.PartialRow(slab, k / 3, k % 3, x0 + b, m, y, z, rows[k]);
    }
    for (int64_t i = 0; i < m; ++i) {
      double a[9];
      for (int k = 0; k < 9; ++k) a[k] = rows[k][i];
      const double q = QFromGradient(a);
      out[b + i] = Norm(&q, 1);
    }
  }
}

void RInvariantField::EvaluateAt(const Slab& slab, const Differentiator& diff,
                                 int64_t x, int64_t y, int64_t z,
                                 double* out) const {
  double a[9];
  Gradient(slab, diff, x, y, z, a);
  const double det =
      a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6]) +
      a[2] * (a[3] * a[7] - a[4] * a[6]);
  out[0] = -det;
}

void BoxFilterField::EvaluateAt(const Slab& slab, const Differentiator& diff,
                                int64_t x, int64_t y, int64_t z,
                                double* out) const {
  for (int c = 0; c < ncomp_; ++c) out[c] = 0.0;
  const GridGeometry& geometry = diff.geometry();
  // Clamp the window at walls (periodic axes keep the full window; the
  // gathered halo holds the wrapped images).
  const int64_t coords[3] = {x, y, z};
  int64_t lo[3];
  int64_t hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = coords[d] - half_width_;
    hi[d] = coords[d] + half_width_;
    if (!geometry.periodic(d)) {
      lo[d] = std::max<int64_t>(lo[d], 0);
      hi[d] = std::min<int64_t>(hi[d], geometry.extent(d) - 1);
    }
  }
  uint64_t count = 0;
  for (int64_t wz = lo[2]; wz <= hi[2]; ++wz) {
    for (int64_t wy = lo[1]; wy <= hi[1]; ++wy) {
      for (int64_t wx = lo[0]; wx <= hi[0]; ++wx) {
        for (int c = 0; c < ncomp_; ++c) {
          out[c] += slab.At(wx, wy, wz, c);
        }
        ++count;
      }
    }
  }
  const double inverse = count > 0 ? 1.0 / static_cast<double>(count) : 0.0;
  for (int c = 0; c < ncomp_; ++c) out[c] *= inverse;
}

void DivergenceField::EvaluateAt(const Slab& slab, const Differentiator& diff,
                                 int64_t x, int64_t y, int64_t z,
                                 double* out) const {
  out[0] = diff.Partial(slab, 0, 0, x, y, z) +
           diff.Partial(slab, 1, 1, x, y, z) +
           diff.Partial(slab, 2, 2, x, y, z);
}

}  // namespace turbdb
