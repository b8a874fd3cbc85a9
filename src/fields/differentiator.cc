#include "fields/differentiator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "fields/stencil.h"

namespace turbdb {

namespace {

/// The largest stencil: order 8 has 9 taps.
constexpr int kMaxTaps = 9;

/// out[i] = sum over taps t of w[t] * p[i * step + offset[t]], summed in
/// tap order from 0.0 as Partial() does. K is the tap count, fixed at
/// compile time so the tap loop unrolls.
template <int K>
void TapsRow(const float* p, ptrdiff_t step, const ptrdiff_t* offset,
             const double* w, int64_t n, double* out) {
  for (int64_t i = 0; i < n; ++i) {
    const float* q = p + i * step;
    double sum = 0.0;
    for (int t = 0; t < K; ++t) sum += w[t] * q[offset[t]];
    out[i] = sum;
  }
}

template <int... K>
void TapsRowDispatch(int taps, const float* p, ptrdiff_t step,
                     const ptrdiff_t* offset, const double* w, int64_t n,
                     double* out, std::integer_sequence<int, K...>) {
  using Fn = void (*)(const float*, ptrdiff_t, const ptrdiff_t*,
                      const double*, int64_t, double*);
  static constexpr Fn kByTaps[] = {&TapsRow<K>...};
  kByTaps[taps](p, step, offset, w, n, out);
}

}  // namespace

Result<Differentiator> Differentiator::Create(const GridGeometry& geometry,
                                              int order) {
  if (!IsSupportedFdOrder(order)) {
    return Status::InvalidArgument("unsupported finite-difference order " +
                                   std::to_string(order));
  }
  TURBDB_RETURN_NOT_OK(geometry.Validate());
  for (int axis = 0; axis < 3; ++axis) {
    if (geometry.extent(axis) < order + 1) {
      return Status::InvalidArgument(
          "grid too small for the requested stencil order");
    }
  }
  Differentiator diff;
  diff.geometry_ = geometry;
  diff.order_ = order;
  diff.half_width_ = FdHalfWidth(order);
  diff.width_ = order + 1;
  for (int axis = 0; axis < 3; ++axis) diff.BuildAxis(axis);
  return diff;
}

void Differentiator::BuildAxis(int axis) {
  const int64_t n = geometry_.extent(axis);
  const double dx = geometry_.Spacing(axis);
  if (geometry_.periodic(axis) && !geometry_.stretched(axis)) {
    uniform_centered_[axis] = true;
    auto coeffs = CenteredFirstDerivative(order_);
    TURBDB_CHECK(coeffs.ok());
    centered_weights_[axis] = std::move(coeffs).value();
    for (double& w : centered_weights_[axis]) w /= dx;
    for (int m = 0; m < width_; ++m) {
      const double w = centered_weights_[axis][static_cast<size_t>(m)];
      if (w == 0.0) continue;  // Partial() skips it too.
      centered_tap_shifts_[axis].push_back(m - half_width_);
      centered_tap_weights_[axis].push_back(w);
    }
    return;
  }
  // Wall-bounded (and possibly stretched) axis: one stencil row per node,
  // shifted near the walls so every node stays inside the domain.
  uniform_centered_[axis] = false;
  rows_[axis].resize(static_cast<size_t>(n));
  weight_pool_[axis].assign(static_cast<size_t>(n) * width_, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t start = i - half_width_;
    start = std::max<int64_t>(0, std::min<int64_t>(start, n - width_));
    std::vector<double> nodes(static_cast<size_t>(width_));
    for (int m = 0; m < width_; ++m) {
      nodes[static_cast<size_t>(m)] = geometry_.Coord(axis, start + m);
    }
    const double x0 = geometry_.Coord(axis, i);
    std::vector<double> weights = FornbergWeights(x0, nodes, 1);
    Row& row = rows_[axis][static_cast<size_t>(i)];
    row.start = start;
    row.pool_offset = static_cast<size_t>(i) * width_;
    std::copy(weights.begin(), weights.end(),
              weight_pool_[axis].begin() + row.pool_offset);
  }
}

double Differentiator::Partial(const Slab& slab, int c, int axis, int64_t x,
                               int64_t y, int64_t z) const {
  int64_t coords[3] = {x, y, z};
  double sum = 0.0;
  if (uniform_centered_[axis]) {
    const std::vector<double>& weights = centered_weights_[axis];
    const int64_t base = coords[axis] - half_width_;
    for (int m = 0; m < width_; ++m) {
      if (weights[static_cast<size_t>(m)] == 0.0) continue;
      coords[axis] = base + m;
      sum += weights[static_cast<size_t>(m)] *
             slab.At(coords[0], coords[1], coords[2], c);
    }
    return sum;
  }
  const Row& row = rows_[axis][static_cast<size_t>(coords[axis])];
  const double* weights = weight_pool_[axis].data() + row.pool_offset;
  for (int m = 0; m < width_; ++m) {
    coords[axis] = row.start + m;
    sum += weights[m] * slab.At(coords[0], coords[1], coords[2], c);
  }
  return sum;
}

void Differentiator::PartialRow(const Slab& slab, int c, int axis, int64_t x0,
                                int64_t n, int64_t y, int64_t z,
                                double* out) const {
  if (n <= 0) return;
  if (!uniform_centered_[axis]) {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = Partial(slab, c, axis, x0 + i, y, z);
    }
    return;
  }
  // offset[t]: floats from each node of the row to what its tap t reads.
  const ptrdiff_t stride = slab.Stride(axis);
  const std::vector<int>& shifts = centered_tap_shifts_[axis];
  const int taps = static_cast<int>(shifts.size());
  ptrdiff_t offset[kMaxTaps] = {};
  for (int t = 0; t < taps; ++t) {
    offset[t] = shifts[static_cast<size_t>(t)] * stride;
  }
  TapsRowDispatch(taps, slab.PointData(x0, y, z) + c, slab.ncomp(), offset,
                  centered_tap_weights_[axis].data(), n, out,
                  std::make_integer_sequence<int, kMaxTaps + 1>{});
}

}  // namespace turbdb
