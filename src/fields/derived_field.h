#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "array/slab.h"
#include "fields/differentiator.h"

namespace turbdb {

/// A field derived on-demand from a raw stored field via a localized
/// kernel of computation (Sec. 4 of the paper). Implementations are
/// stateless and thread-safe; one instance is shared by all workers.
class DerivedField {
 public:
  virtual ~DerivedField() = default;

  /// Stable name used in queries and cache keys ("vorticity", ...).
  virtual std::string name() const = 0;

  /// Number of components the raw input field must have (3 for kernels
  /// on velocity/magnetic data, 0 meaning "any" for passthrough norms).
  virtual int input_ncomp() const = 0;

  /// Number of components this derived field produces.
  virtual int output_ncomp() const = 0;

  /// Stencil half-width of the kernel given the FD order; this is the
  /// width of the boundary band a node may need from its neighbors.
  /// Raw (passthrough) fields return 0.
  virtual int HaloWidth(int fd_order) const = 0;

  /// Estimated floating-point work per grid node; feeds the compute cost
  /// model (calibrated against the per-point rates implied by Fig. 9).
  virtual double FlopsPerPoint(int fd_order) const = 0;

  /// Evaluates the derived field at grid node (x, y, z) from `slab`,
  /// writing output_ncomp() values to `out`.
  virtual void EvaluateAt(const Slab& slab, const Differentiator& diff,
                          int64_t x, int64_t y, int64_t z,
                          double* out) const = 0;

  /// The scalar compared against the query threshold: the L2 norm of the
  /// output vector (reduces to the absolute value for scalar fields).
  /// This per-node path is the reference NormsRow() must reproduce.
  double NormAt(const Slab& slab, const Differentiator& diff, int64_t x,
                int64_t y, int64_t z) const {
    double out[9];
    EvaluateAt(slab, diff, x, y, z, out);
    return Norm(out, output_ncomp());
  }

  /// NormAt() at the n nodes (x0 .. x0+n-1, y, z), written to out[0..n):
  /// the evaluation path of the query engine. Overrides must stay
  /// bit-identical to NormAt() node by node; the default calls it.
  virtual void NormsRow(const Slab& slab, const Differentiator& diff,
                        int64_t x0, int64_t n, int64_t y, int64_t z,
                        double* out) const;

 protected:
  /// L2 norm of v[0..n), summed in component order from 0.0.
  static double Norm(const double* v, int n) {
    double sum = 0.0;
    for (int c = 0; c < n; ++c) sum += v[c] * v[c];
    return std::sqrt(sum);
  }
};

/// Norm of the raw stored field itself (e.g. thresholding the magnetic
/// field in Fig. 9(c)): no kernel, no halo, no extra computation.
class MagnitudeField : public DerivedField {
 public:
  /// `ncomp` is the component count of the raw field (1 or 3).
  explicit MagnitudeField(int ncomp = 3) : ncomp_(ncomp) {}

  std::string name() const override { return "magnitude"; }
  int input_ncomp() const override { return ncomp_; }
  int output_ncomp() const override { return ncomp_; }
  int HaloWidth(int) const override { return 0; }
  double FlopsPerPoint(int) const override { return 2.0 * ncomp_; }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;
  void NormsRow(const Slab& slab, const Differentiator& diff, int64_t x0,
                int64_t n, int64_t y, int64_t z, double* out) const override;

 private:
  int ncomp_;
};

/// Curl of a 3-component field: the vorticity when applied to velocity,
/// the electric current when applied to the magnetic field (Eq. 1).
class CurlField : public DerivedField {
 public:
  /// `name` distinguishes the physical quantity ("vorticity", "current")
  /// in cache keys while sharing the kernel implementation.
  explicit CurlField(std::string name = "vorticity")
      : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  int input_ncomp() const override { return 3; }
  int output_ncomp() const override { return 3; }
  int HaloWidth(int fd_order) const override { return fd_order / 2; }
  double FlopsPerPoint(int fd_order) const override {
    // 6 first derivatives, each a (fd_order+1)-point dot product,
    // + 3 subtractions.
    return 6.0 * 2.0 * (fd_order + 1) + 3.0;
  }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;
  void NormsRow(const Slab& slab, const Differentiator& diff, int64_t x0,
                int64_t n, int64_t y, int64_t z, double* out) const override;

 private:
  std::string name_;
};

/// The full velocity-gradient tensor A_ij = du_i/dx_j (9 components).
class VelocityGradientField : public DerivedField {
 public:
  std::string name() const override { return "velocity_gradient"; }
  int input_ncomp() const override { return 3; }
  int output_ncomp() const override { return 9; }
  int HaloWidth(int fd_order) const override { return fd_order / 2; }
  double FlopsPerPoint(int fd_order) const override {
    return 9.0 * 2.0 * (fd_order + 1);
  }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;
};

/// Second invariant of the velocity gradient:
/// Q = (||Omega||^2 - ||S||^2) / 2, with S and Omega the symmetric and
/// antisymmetric parts of A. A non-linear combination of all nine
/// gradient components, hence costlier than the curl (Sec. 5.4).
class QCriterionField : public DerivedField {
 public:
  std::string name() const override { return "q_criterion"; }
  int input_ncomp() const override { return 3; }
  int output_ncomp() const override { return 1; }
  int HaloWidth(int fd_order) const override { return fd_order / 2; }
  double FlopsPerPoint(int fd_order) const override {
    return 9.0 * 2.0 * (fd_order + 1) + 40.0;
  }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;
  void NormsRow(const Slab& slab, const Differentiator& diff, int64_t x0,
                int64_t n, int64_t y, int64_t z, double* out) const override;
};

/// Third invariant of the velocity gradient: R = -det(A).
class RInvariantField : public DerivedField {
 public:
  std::string name() const override { return "r_invariant"; }
  int input_ncomp() const override { return 3; }
  int output_ncomp() const override { return 1; }
  int HaloWidth(int fd_order) const override { return fd_order / 2; }
  double FlopsPerPoint(int fd_order) const override {
    return 9.0 * 2.0 * (fd_order + 1) + 60.0;
  }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;
};

/// Top-hat (box) spatial filter of the raw field: the mean over the
/// (2*half_width+1)^3 cube around each node. Spatial filtering is one of
/// the JHTDB's built-in data-intensive routines (Sec. 2, [16]);
/// thresholding the filtered-field norm finds large-scale structures.
/// The filter width, not the FD order, sets the halo.
class BoxFilterField : public DerivedField {
 public:
  explicit BoxFilterField(int half_width = 2, int ncomp = 3)
      : half_width_(half_width), ncomp_(ncomp) {}

  std::string name() const override {
    return "box_filter_" + std::to_string(half_width_);
  }
  int input_ncomp() const override { return ncomp_; }
  int output_ncomp() const override { return ncomp_; }
  int HaloWidth(int) const override { return half_width_; }
  double FlopsPerPoint(int) const override {
    const double window = 2.0 * half_width_ + 1.0;
    return window * window * window * ncomp_ + 2.0 * ncomp_;
  }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;

 private:
  int half_width_;
  int ncomp_;
};

/// Divergence of a 3-component field. Physically ~0 for incompressible
/// velocity; provided as a numerical-consistency diagnostic.
class DivergenceField : public DerivedField {
 public:
  std::string name() const override { return "divergence"; }
  int input_ncomp() const override { return 3; }
  int output_ncomp() const override { return 1; }
  int HaloWidth(int fd_order) const override { return fd_order / 2; }
  double FlopsPerPoint(int fd_order) const override {
    return 3.0 * 2.0 * (fd_order + 1) + 2.0;
  }
  void EvaluateAt(const Slab& slab, const Differentiator& diff, int64_t x,
                  int64_t y, int64_t z, double* out) const override;
};

}  // namespace turbdb
