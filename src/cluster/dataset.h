#pragma once

#include <string>
#include <vector>

#include "array/geometry.h"
#include "common/result.h"

namespace turbdb {

/// Schema of one raw (stored) field of a dataset.
struct RawFieldSpec {
  std::string name;  ///< "velocity", "magnetic", "pressure", ...
  int ncomp = 3;

  bool operator==(const RawFieldSpec&) const = default;
};

/// Catalog entry for one dataset: the simulation grid and the raw fields
/// persisted for every time-step (the JHTDB stores velocity and pressure
/// for the isotropic dataset; velocity, magnetic field and vector
/// potential for MHD; etc.).
struct DatasetInfo {
  std::string name;
  GridGeometry geometry;
  std::vector<RawFieldSpec> raw_fields;
  int32_t num_timesteps = 1;

  bool operator==(const DatasetInfo&) const = default;

  Result<int> FieldNcomp(const std::string& field) const {
    for (const RawFieldSpec& spec : raw_fields) {
      if (spec.name == field) return spec.ncomp;
    }
    return Status::NotFound("dataset '" + name + "' has no raw field '" +
                            field + "'");
  }
};

}  // namespace turbdb
