#include "query/query.h"

#include "fields/stencil.h"

namespace turbdb {

namespace {

Status ValidateCommon(const std::string& dataset, const std::string& raw_field,
                      const std::string& derived_field, const Box3& box,
                      int fd_order) {
  if (dataset.empty()) return Status::InvalidArgument("dataset name is empty");
  if (raw_field.empty()) {
    return Status::InvalidArgument("raw field name is empty");
  }
  if (derived_field.empty()) {
    return Status::InvalidArgument("derived field name is empty");
  }
  if (box.Empty()) return Status::InvalidArgument("query box is empty");
  if (!IsSupportedFdOrder(fd_order)) {
    return Status::InvalidArgument("unsupported finite-difference order " +
                                   std::to_string(fd_order));
  }
  return Status::OK();
}

}  // namespace

Status ValidateThresholdQuery(const ThresholdQuery& query) {
  TURBDB_RETURN_NOT_OK(ValidateCommon(query.dataset, query.raw_field,
                                      query.derived_field, query.box,
                                      query.fd_order));
  // Written so NaN fails too: a NaN threshold passes no comparison, and
  // its empty answer would poison the mediator cache for every query.
  if (!(query.threshold >= 0.0)) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  if (query.timestep < 0) {
    return Status::InvalidArgument("timestep must be non-negative");
  }
  return Status::OK();
}

Status ValidatePdfQuery(const PdfQuery& query) {
  TURBDB_RETURN_NOT_OK(ValidateCommon(query.dataset, query.raw_field,
                                      query.derived_field, query.box,
                                      query.fd_order));
  return ValidatePdfBins(query.bin_width, query.num_bins);
}

Status ValidatePdfBins(double bin_width, int num_bins) {
  if (!(bin_width > 0.0)) {
    return Status::InvalidArgument("bin width must be positive");
  }
  if (num_bins <= 0) {
    return Status::InvalidArgument("need at least one bin");
  }
  if (num_bins > kMaxPdfBins) {
    return Status::InvalidArgument("more than " + std::to_string(kMaxPdfBins) +
                                   " bins");
  }
  return Status::OK();
}

Status ValidateSampleQuery(const SampleQuery& query) {
  if (query.dataset.empty()) {
    return Status::InvalidArgument("dataset name is empty");
  }
  if (query.raw_field.empty()) {
    return Status::InvalidArgument("raw field name is empty");
  }
  if (query.positions.empty()) {
    return Status::InvalidArgument("no sample positions given");
  }
  if (query.positions.size() > kDefaultMaxResultPoints) {
    return Status::InvalidArgument("too many sample positions");
  }
  if (query.support != 4 && query.support != 6 && query.support != 8) {
    return Status::InvalidArgument(
        "interpolation support must be 4, 6 or 8");
  }
  if (query.timestep < 0) {
    return Status::InvalidArgument("timestep must be non-negative");
  }
  return Status::OK();
}

Status ValidateTopKQuery(const TopKQuery& query) {
  TURBDB_RETURN_NOT_OK(ValidateCommon(query.dataset, query.raw_field,
                                      query.derived_field, query.box,
                                      query.fd_order));
  if (query.k == 0) return Status::InvalidArgument("k must be positive");
  if (query.k > kDefaultMaxResultPoints) {
    return Status::InvalidArgument("k exceeds the result-size limit");
  }
  return Status::OK();
}

}  // namespace turbdb
