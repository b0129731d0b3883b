#include "divergence/ground_truth.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

GroundTruth::GroundTruth(const Workload* workload, const DivergenceMetric* metric,
                         bool use_source_weights, Arena* arena)
    : workload_(workload), metric_(metric), use_source_weights_(use_source_weights) {
  BESYNC_CHECK(workload != nullptr);
  BESYNC_CHECK(metric != nullptr);
  BESYNC_CHECK(workload->interest_map_complete())
      << "workload objects must be appended with Workload::AddObject";
  num_entries_ = static_cast<size_t>(workload->total_replicas());
  for (size_t e = 0; e < num_entries_; ++e) {
    BESYNC_CHECK_LT(workload->replica_cache(static_cast<int64_t>(e)), workload->num_caches);
  }
  if (arena != nullptr) {
    entries_ = arena->AllocateArray<Entry>(num_entries_);
  } else {
    owned_entries_.resize(num_entries_);
    entries_ = owned_entries_.data();
  }
  const size_t caches = static_cast<size_t>(workload->num_caches);
  weighted_sum_.assign(caches, 0.0);
  unweighted_sum_.assign(caches, 0.0);
  weighted_integral_.assign(caches, 0.0);
  unweighted_integral_.assign(caches, 0.0);
}

size_t GroundTruth::ReplicaEntry(ObjectIndex index, int32_t cache_id) const {
  const int slot = workload_->replica_slot(index, cache_id);
  BESYNC_CHECK_GE(slot, 0) << "object " << index << " has no replica at cache "
                           << cache_id;
  return static_cast<size_t>(workload_->replica_begin(index) + slot);
}

const Signal& GroundTruth::WeightFn(ObjectIndex index) const {
  return use_source_weights_ ? workload_->source_weight(index) : workload_->weight(index);
}

void GroundTruth::Initialize(double t) {
  for (ObjectIndex i = 0; i < workload_->total_objects(); ++i) {
    const ObjectSpec& spec = workload_->objects[i];
    const double weight = WeightFn(i).ValueAt(t);
    const int64_t begin = workload_->replica_begin(i);
    for (int r = 0; r < workload_->num_replicas(i); ++r) {
      Entry& entry = entries_[begin + r];
      entry.source_value = spec.initial_value;
      entry.source_version = 0;
      entry.cached_value = spec.initial_value;
      entry.cached_version = 0;
      entry.divergence = 0.0;
      entry.weight = weight;
    }
  }
  last_time_ = t;
  measure_start_ = t;
  std::fill(weighted_integral_.begin(), weighted_integral_.end(), 0.0);
  std::fill(unweighted_integral_.begin(), unweighted_integral_.end(), 0.0);
  RebuildSums();
}

void GroundTruth::AdvanceTo(double t) {
  BESYNC_DCHECK(t >= last_time_);
  const double dt = t - last_time_;
  if (dt > 0.0) {
    for (size_t c = 0; c < weighted_sum_.size(); ++c) {
      weighted_integral_[c] += weighted_sum_[c] * dt;
      unweighted_integral_[c] += unweighted_sum_[c] * dt;
    }
    last_time_ = t;
  }
}

void GroundTruth::SetDivergence(size_t e, double divergence) {
  Entry& entry = entries_[e];
  const int32_t cache = workload_->replica_cache(static_cast<int64_t>(e));
  weighted_sum_[cache] += (divergence - entry.divergence) * entry.weight;
  unweighted_sum_[cache] += divergence - entry.divergence;
  entry.divergence = divergence;
}

void GroundTruth::RebuildSums() {
  std::fill(weighted_sum_.begin(), weighted_sum_.end(), 0.0);
  std::fill(unweighted_sum_.begin(), unweighted_sum_.end(), 0.0);
  for (size_t e = 0; e < num_entries_; ++e) {
    const Entry& entry = entries_[e];
    const int32_t cache = workload_->replica_cache(static_cast<int64_t>(e));
    weighted_sum_[cache] += entry.divergence * entry.weight;
    unweighted_sum_[cache] += entry.divergence;
  }
}

void GroundTruth::OnSourceUpdate(ObjectIndex index, double t, double value,
                                 int64_t version) {
  AdvanceTo(t);
  const size_t begin = static_cast<size_t>(workload_->replica_begin(index));
  const size_t end = begin + static_cast<size_t>(workload_->num_replicas(index));
  for (size_t e = begin; e < end; ++e) {
    Entry& entry = entries_[e];
    entry.source_value = value;
    entry.source_version = version;
    SetDivergence(e, metric_->Divergence(value, version, entry.cached_value,
                                         entry.cached_version));
  }
}

void GroundTruth::OnCacheApply(ObjectIndex index, int32_t cache_id, double t,
                               double value, int64_t version) {
  AdvanceTo(t);
  const size_t e = ReplicaEntry(index, cache_id);
  Entry& entry = entries_[e];
  // Refreshes may be delivered out of order relative to newer content only
  // in CGM-style protocols; never regress the cached version.
  if (version < entry.cached_version) return;
  entry.cached_value = value;
  entry.cached_version = version;
  SetDivergence(e, metric_->Divergence(entry.source_value, entry.source_version, value,
                                       version));
}

void GroundTruth::OnCacheApply(ObjectIndex index, double t, double value,
                               int64_t version) {
  OnCacheApply(index, workload_->caches(index).front(), t, value, version);
}

void GroundTruth::RefreshWeights(double t) {
  AdvanceTo(t);
  for (ObjectIndex i = 0; i < workload_->total_objects(); ++i) {
    const double weight = WeightFn(i).ValueAt(t);
    const int64_t begin = workload_->replica_begin(i);
    for (int r = 0; r < workload_->num_replicas(i); ++r) entries_[begin + r].weight = weight;
  }
  RebuildSums();
}

void GroundTruth::StartMeasurement(double t) {
  AdvanceTo(t);
  std::fill(weighted_integral_.begin(), weighted_integral_.end(), 0.0);
  std::fill(unweighted_integral_.begin(), unweighted_integral_.end(), 0.0);
  measure_start_ = t;
  RebuildSums();
}

void GroundTruth::FinishMeasurement(double t) { AdvanceTo(t); }

double GroundTruth::TotalWeightedAverage() const {
  const double duration = measurement_duration();
  if (duration <= 0.0) return 0.0;
  double total = 0.0;
  for (double integral : weighted_integral_) total += integral;
  // Guard against tiny negative values from float cancellation when the
  // true integral is ~0.
  return std::max(0.0, total / duration);
}

double GroundTruth::PerCacheWeightedAverage(int32_t cache_id) const {
  const double duration = measurement_duration();
  if (duration <= 0.0) return 0.0;
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return std::max(0.0, weighted_integral_[cache_id] / duration);
}

double GroundTruth::PerObjectWeightedAverage() const {
  return num_entries_ == 0
             ? 0.0
             : TotalWeightedAverage() / static_cast<double>(num_entries_);
}

double GroundTruth::PerObjectUnweightedAverage() const {
  const double duration = measurement_duration();
  if (duration <= 0.0 || num_entries_ == 0) return 0.0;
  double total = 0.0;
  for (double integral : unweighted_integral_) total += integral;
  return std::max(0.0, total / duration / static_cast<double>(num_entries_));
}

}  // namespace besync
