#include "cluster/catalog.h"

namespace turbdb {

Status Catalog::Register(const DatasetInfo& info, int num_shards,
                         PartitionStrategy strategy) {
  if (info.name.empty()) {
    return Status::InvalidArgument("dataset name is empty");
  }
  if (strategy != PartitionStrategy::kMorton &&
      strategy != PartitionStrategy::kZSlabs) {
    return Status::InvalidArgument(
        "bad partition strategy " +
        std::to_string(static_cast<int>(strategy)));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(info.name);
  if (it != entries_.end()) {
    const Entry& entry = *it->second;
    // The same registration again is a retried RPC, not a conflict.
    if (entry.info == info && entry.partitioner.num_nodes() == num_shards &&
        entry.partitioner.strategy() == strategy) {
      return Status::OK();
    }
    return Status::AlreadyExists("dataset '" + info.name +
                                 "' already exists with a different shape");
  }
  TURBDB_ASSIGN_OR_RETURN(
      MortonPartitioner partitioner,
      MortonPartitioner::Create(info.geometry, num_shards, strategy));
  entries_.emplace(info.name, std::make_unique<Entry>(
                                  Entry{info, std::move(partitioner)}));
  return Status::OK();
}

Result<const Catalog::Entry*> Catalog::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no dataset named '" + name + "'");
  }
  return const_cast<const Entry*>(it->second.get());
}

std::vector<const Catalog::Entry*> Catalog::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Entry*> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(entry.get());
  return entries;
}

Result<NodeQuery> Catalog::Resolve(const net::NodeQuerySpec& spec) {
  TURBDB_ASSIGN_OR_RETURN(const Entry* entry, Find(spec.dataset));
  const DatasetInfo& info = entry->info;
  if (spec.mode < 0 ||
      spec.mode > static_cast<int32_t>(NodeQuery::Mode::kSample)) {
    return Status::InvalidArgument("bad node-query mode " +
                                   std::to_string(spec.mode));
  }
  TURBDB_ASSIGN_OR_RETURN(const int ncomp, info.FieldNcomp(spec.raw_field));
  if (spec.timestep < 0 || spec.timestep >= info.num_timesteps) {
    return Status::OutOfRange("timestep " + std::to_string(spec.timestep) +
                              " outside [0, " +
                              std::to_string(info.num_timesteps) + ")");
  }
  NodeQuery query;
  static_cast<NodeQueryParams&>(query) = spec;
  query.mode = static_cast<NodeQuery::Mode>(spec.mode);
  query.dataset = &info;
  query.partitioner = &entry->partitioner;
  query.raw_ncomp = ncomp;
  if (query.mode == NodeQuery::Mode::kSample) {
    // A sample reads around its targets, wherever they are.
    query.box = info.geometry.Bounds();
    TURBDB_ASSIGN_OR_RETURN(query.interpolator,
                            InterpolatorOf(*entry, spec.sample_support));
    return query;
  }
  query.box = spec.box.Intersection(info.geometry.Bounds());
  if (query.box.Empty()) {
    return Status::InvalidArgument("query box is outside the grid");
  }
  // Specs also arrive off TCP: the bounds on the inputs that size memory
  // or poison a cache hold here, not only in the user-query validators.
  if (query.mode == NodeQuery::Mode::kPdf) {
    TURBDB_RETURN_NOT_OK(ValidatePdfBins(spec.bin_width, spec.num_bins));
  }
  if (query.mode == NodeQuery::Mode::kThreshold && !(spec.threshold >= 0.0)) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  query.cache_field_key = spec.raw_field + ":" + spec.derived_field;
  TURBDB_ASSIGN_OR_RETURN(query.kernel,
                          registry_.Create(spec.derived_field, ncomp));
  TURBDB_ASSIGN_OR_RETURN(query.diff, DifferentiatorOf(*entry, spec.fd_order));
  return query;
}

Result<const Differentiator*> Catalog::DifferentiatorOf(const Entry& entry,
                                                        int order) {
  std::lock_guard<std::mutex> lock(mutex_);
  const CacheKey key{&entry, order};
  auto it = differentiators_.find(key);
  if (it == differentiators_.end()) {
    auto built = Differentiator::Create(entry.info.geometry, order);
    if (!built.ok()) {
      return Status::InvalidArgument("cannot build differentiator of order " +
                                     std::to_string(order));
    }
    it = differentiators_
             .emplace(key, std::make_unique<Differentiator>(
                               std::move(built).value()))
             .first;
  }
  return const_cast<const Differentiator*>(it->second.get());
}

Result<std::shared_ptr<const LagrangeInterpolator>> Catalog::InterpolatorOf(
    const Entry& entry, int support) {
  std::lock_guard<std::mutex> lock(mutex_);
  const CacheKey key{&entry, support};
  auto it = interpolators_.find(key);
  if (it == interpolators_.end()) {
    TURBDB_ASSIGN_OR_RETURN(
        LagrangeInterpolator built,
        LagrangeInterpolator::Create(entry.info.geometry, support));
    it = interpolators_
             .emplace(key, std::make_shared<const LagrangeInterpolator>(
                               std::move(built)))
             .first;
  }
  return it->second;
}

}  // namespace turbdb
