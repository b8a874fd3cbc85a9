#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "array/box.h"
#include "array/point.h"
#include "common/profile.h"
#include "common/result.h"

namespace turbdb {

/// Default cap on threshold-query result size. The production service
/// limits results to 1e6 locations per time-step and rejects queries
/// whose threshold is set too low (Sec. 4).
constexpr uint64_t kDefaultMaxResultPoints = 1000000;

/// Most bins a PDF query may ask for: every evaluating chunk holds one
/// 8-byte counter per bin, so the bound keeps a request from sizing
/// that memory.
constexpr int kMaxPdfBins = 1 << 16;

/// A threshold query: report every grid location in `box` (at `timestep`)
/// where the norm (or absolute value) of `derived_field`, computed
/// on-demand from `raw_field` with an FD stencil of order `fd_order`,
/// is at least `threshold`.
struct ThresholdQuery {
  std::string dataset;
  std::string raw_field;      ///< Stored field, e.g. "velocity".
  std::string derived_field;  ///< Kernel name, e.g. "vorticity".
  int32_t timestep = 0;
  Box3 box;                   ///< Half-open grid-coordinate box.
  double threshold = 0.0;
  int fd_order = 4;
};

/// Per-query execution switches (primarily for experiments).
struct QueryOptions {
  /// false = the Fig. 6 "no cache" baseline: no lookup, no insert.
  bool use_cache = true;
  /// true = perform the raw-data reads but skip kernel evaluation and
  /// caching (the "I/O only" series of Fig. 8).
  bool io_only = false;
  /// Overrides the per-query process count; 0 = the cluster default.
  int processes_per_node = 0;
  /// Result cap; exceeding it fails with kThresholdTooLow.
  uint64_t max_result_points = kDefaultMaxResultPoints;
};

/// The parameters of a node sub-query that travel by value: what a
/// resolved `NodeQuery` (cluster/node.h) and its wire form
/// (`net::NodeQuerySpec`) share. Each adds what only it has — the
/// resolved dataset, kernel and caches, or the names they resolve from.
struct NodeQueryParams {
  std::string raw_field;
  /// Kernel name ("vorticity", ...; empty for samples).
  std::string derived_field;
  int32_t timestep = 0;
  Box3 box;  ///< Half-open, grid coordinates; resolution clips it.
  int32_t fd_order = 4;
  double threshold = 0.0;
  // Histogram parameters (PDF queries).
  double bin_width = 10.0;
  int32_t num_bins = 9;
  // Top-k parameter.
  uint64_t k = 100;
  int32_t processes = 1;
  QueryOptions options;
  // Point samples: the Lagrange support and this node's share of the
  // targets, tagged with their original indices.
  int32_t sample_support = 0;
  std::vector<std::pair<uint32_t, std::array<double, 3>>> targets;
  /// Carried so every node prices compute alike and modeled times stay
  /// byte-identical wherever it runs.
  double flops_per_process = 1.25e8;
  /// Cores effectively available per node; processes beyond this count
  /// time-share the CPUs (CostModelConfig::effective_cores_per_node).
  double effective_cores = 4.0;
};

/// A node's answer to its part of a query; also the NodeExecute reply,
/// which carries everything but `node_id`.
struct NodeOutcome {
  int node_id = 0;                     ///< Filled by the mediator.
  std::vector<ThresholdPoint> points;  ///< Threshold/top-k rows, z-sorted.
  std::vector<uint64_t> histogram;     ///< PDF counts (num_bins + 1).
  double norm_sum = 0.0;               ///< Moments accumulators.
  double norm_sum_sq = 0.0;
  double norm_max = 0.0;
  /// Sample outputs: (original index, interpolated components).
  std::vector<std::pair<uint32_t, std::array<double, 3>>> samples;
  bool cache_hit = false;
  TimeBreakdown time;  ///< cache_lookup/io/compute categories only.
  IoCounters io;
};

/// Execution statistics of one database node's part of a query.
struct NodeExecutionStats {
  int node_id = 0;
  bool cache_hit = false;
  TimeBreakdown time;  ///< The node's own categories (no mediator terms).
  IoCounters io;
};

/// Result of a threshold query, with the modeled end-to-end time
/// breakdown (Fig. 9 categories) and real wall-clock time.
struct ThresholdResult {
  std::vector<ThresholdPoint> points;  ///< Sorted by z-index.
  TimeBreakdown time;                  ///< Modeled, end-to-end.
  double wall_seconds = 0.0;           ///< Measured host time.
  bool all_cache_hits = false;         ///< Every node answered from cache.
  uint64_t result_bytes_binary = 0;    ///< Node->mediator frame size.
  uint64_t result_bytes_xml = 0;       ///< Mediator->user (SOAP) size.
  std::vector<NodeExecutionStats> node_stats;
};

/// A histogram ("PDF") query over the norm of a derived field (Fig. 2).
struct PdfQuery {
  std::string dataset;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = 0;
  Box3 box;
  int fd_order = 4;
  double bin_width = 10.0;
  int num_bins = 9;  ///< Plus one implicit overflow bin [num_bins*w, inf).
};

struct PdfResult {
  /// counts.size() == num_bins + 1; the last bin is the overflow bin.
  std::vector<uint64_t> counts;
  double bin_width = 0.0;
  uint64_t total_points = 0;
  TimeBreakdown time;
  double wall_seconds = 0.0;
};

/// A top-k query: the k grid locations with the largest derived-field
/// norms in the box.
struct TopKQuery {
  std::string dataset;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = 0;
  Box3 box;
  int fd_order = 4;
  uint64_t k = 100;
};

struct TopKResult {
  std::vector<ThresholdPoint> points;  ///< Sorted by norm, descending.
  TimeBreakdown time;
  double wall_seconds = 0.0;
};

/// A point-sample query: interpolate a *stored* field at arbitrary
/// physical positions (the JHTDB's GetVelocity-style calls, Sec. 2).
/// `support` selects Lag4/Lag6/Lag8 Lagrange interpolation.
struct SampleQuery {
  std::string dataset;
  std::string raw_field;
  int32_t timestep = 0;
  std::vector<std::array<double, 3>> positions;
  int support = 4;
};

struct SampleResult {
  /// values[i] holds the components for positions[i] (unused components
  /// zero for scalar fields).
  std::vector<std::array<double, 3>> values;
  int ncomp = 0;
  TimeBreakdown time;
  double wall_seconds = 0.0;
};

/// A moments query: mean, RMS and maximum of the derived-field norm over
/// a box. Scientists pick threshold values as multiples of the RMS
/// ("values above 8 times the root mean square value", Sec. 4); this is
/// the query that supplies the RMS.
struct FieldStatsQuery {
  std::string dataset;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = 0;
  Box3 box;
  int fd_order = 4;
};

struct FieldStatsResult {
  uint64_t count = 0;
  double mean = 0.0;
  double rms = 0.0;  ///< sqrt(E[norm^2]).
  double max = 0.0;
  TimeBreakdown time;
  double wall_seconds = 0.0;
};

/// Validates the parts of a query that do not require catalog access.
Status ValidateThresholdQuery(const ThresholdQuery& query);
Status ValidatePdfQuery(const PdfQuery& query);
/// The bin bounds of ValidatePdfQuery, also applied by a node to a
/// decoded sub-query: a positive width (NaN fails) and 1..kMaxPdfBins
/// bins.
Status ValidatePdfBins(double bin_width, int num_bins);
Status ValidateTopKQuery(const TopKQuery& query);
Status ValidateSampleQuery(const SampleQuery& query);

}  // namespace turbdb
