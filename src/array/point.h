#pragma once

#include <cstdint>

#include "array/morton.h"

namespace turbdb {

/// One threshold-query result row: the Morton z-index of a grid point
/// whose derived-field norm met the threshold, and that norm. This is
/// exactly the schema of the paper's cacheData table (zindex, dataValue).
struct ThresholdPoint {
  uint64_t zindex = 0;
  float norm = 0.0f;

  void Coords(uint32_t* x, uint32_t* y, uint32_t* z) const {
    MortonDecode3(zindex, x, y, z);
  }

  bool operator==(const ThresholdPoint& other) const {
    return zindex == other.zindex && norm == other.norm;
  }
};

/// The one threshold predicate, applied to the float norm a result row
/// stores and the client receives (never the double it was computed
/// from), so computed, node-cached and mediator-cached answers to one
/// query keep exactly the same points.
inline bool PassesThreshold(float stored_norm, double k) {
  return static_cast<double>(stored_norm) >= k;
}

/// Builds the result row for grid point (x, y, z).
inline ThresholdPoint MakeThresholdPoint(uint32_t x, uint32_t y, uint32_t z,
                                         float norm) {
  return ThresholdPoint{MortonEncode3(x, y, z), norm};
}

}  // namespace turbdb
