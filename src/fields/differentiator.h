#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "array/geometry.h"
#include "array/slab.h"
#include "common/result.h"

namespace turbdb {

/// Evaluates first partial derivatives of field components held in a Slab
/// at grid nodes, honoring the grid's periodicity and stretching:
///
///  - periodic uniform axes use the classic centered stencil of the
///    configured order (the halo gathered into the slab supplies the
///    wrapped neighbor values);
///  - non-periodic axes switch to shifted (one-sided) stencils of the
///    same polynomial order near the walls;
///  - the stretched channel y axis uses per-node Fornberg weights
///    computed from the physical node coordinates.
///
/// All weight tables are precomputed at construction, so Partial() on the
/// hot path is a small dot product. PartialRow() evaluates a whole x row
/// of nodes per call; Partial() is its per-node reference.
class Differentiator {
 public:
  /// Fails if `order` is unsupported or the geometry is invalid.
  static Result<Differentiator> Create(const GridGeometry& geometry,
                                       int order);

  int order() const { return order_; }
  int half_width() const { return half_width_; }
  const GridGeometry& geometry() const { return geometry_; }

  /// d(component c)/d(axis) at grid node (x, y, z). The slab must contain
  /// the full stencil support for that node.
  double Partial(const Slab& slab, int c, int axis, int64_t x, int64_t y,
                 int64_t z) const;

  /// Partial() at the n nodes (x0 .. x0+n-1, y, z), written to out[0..n).
  /// Bit-identical to Partial() node by node: the same taps in the same
  /// order (the zero centre tap skipped), each a double x float product
  /// summed from 0.0. A wall-bounded or stretched
  /// axis, whose stencil changes from node to node, falls back to
  /// Partial().
  void PartialRow(const Slab& slab, int c, int axis, int64_t x0, int64_t n,
                  int64_t y, int64_t z, double* out) const;

 private:
  Differentiator() = default;

  /// One node's stencil: weights over nodes [start, start + width).
  /// Weights live at weight_pool_[axis][pool_offset .. pool_offset+width)
  /// (an offset rather than a pointer keeps the object copyable).
  struct Row {
    int64_t start = 0;
    size_t pool_offset = 0;
  };

  void BuildAxis(int axis);

  GridGeometry geometry_;
  int order_ = 4;
  int half_width_ = 2;
  int width_ = 5;  ///< order + 1 nodes per stencil.

  /// For each axis: either a single centered row (periodic uniform axes;
  /// `uniform_centered_[axis]` true) or one row per node index.
  std::array<bool, 3> uniform_centered_{true, true, true};
  std::array<std::vector<double>, 3> centered_weights_;
  /// The non-zero centered weights (the taps Partial() sums) and their
  /// node offsets from the stencil centre.
  std::array<std::vector<int>, 3> centered_tap_shifts_;
  std::array<std::vector<double>, 3> centered_tap_weights_;
  std::array<std::vector<Row>, 3> rows_;
  std::array<std::vector<double>, 3> weight_pool_;
};

}  // namespace turbdb
