#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "array/atom.h"
#include "array/box.h"

namespace turbdb {

/// A dense, contiguous buffer holding field data for a rectangular region
/// of the grid (typically a worker's chunk plus its halo). Coordinates are
/// *extended* grid coordinates: they may run outside [0, n) along periodic
/// axes; the data placed there are the periodic images gathered from the
/// wrapped atoms.
///
/// Layout is point-major like Atom: all components of a point adjacent.
class Slab {
 public:
  Slab() = default;

  /// Allocates a zero-filled slab covering `region` with `ncomp`
  /// components per point.
  Slab(const Box3& region, int ncomp)
      : region_(region), ncomp_(ncomp),
        data_(static_cast<size_t>(region.Volume()) * ncomp, 0.0f) {}

  const Box3& region() const { return region_; }
  int ncomp() const { return ncomp_; }
  size_t SizeBytes() const { return data_.size() * sizeof(float); }

  /// Value at extended grid coordinates (x, y, z), component c.
  /// Precondition: region().ContainsPoint(x, y, z).
  float At(int64_t x, int64_t y, int64_t z, int c) const {
    return data_[Index(x, y, z, c)];
  }
  float& At(int64_t x, int64_t y, int64_t z, int c) {
    return data_[Index(x, y, z, c)];
  }

  /// Component 0 of point (x, y, z); the row kernels walk the buffer
  /// from here with Stride().
  const float* PointData(int64_t x, int64_t y, int64_t z) const {
    return data_.data() + Index(x, y, z, 0);
  }

  /// Floats between neighbouring points along `axis`.
  ptrdiff_t Stride(int axis) const {
    ptrdiff_t stride = ncomp_;
    for (int d = 0; d < axis; ++d) stride *= region_.Extent(d);
    return stride;
  }

  /// Copies the intersection of `atom`'s data into this slab.
  /// `dest_box` is the extended-coordinate box the atom's data should
  /// occupy (the atom's own GridBox() translated by the periodic shift the
  /// gatherer applied; for interior atoms it equals atom.GridBox()).
  void CopyAtom(const Atom& atom, const Box3& dest_box);

  const std::vector<float>& data() const { return data_; }

 private:
  size_t Index(int64_t x, int64_t y, int64_t z, int c) const {
    const int64_t i = x - region_.lo[0];
    const int64_t j = y - region_.lo[1];
    const int64_t k = z - region_.lo[2];
    return (((static_cast<size_t>(k) * region_.Extent(1) + j) *
                 region_.Extent(0) +
             i) *
            ncomp_) +
           c;
  }

  Box3 region_;
  int ncomp_ = 0;
  std::vector<float> data_;
};

}  // namespace turbdb
