#include "data/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace besync {

std::string InterestPatternToString(InterestPattern pattern) {
  switch (pattern) {
    case InterestPattern::kSingleCache:
      return "single-cache";
    case InterestPattern::kPartitionedBySource:
      return "partitioned";
    case InterestPattern::kFullReplication:
      return "full-replication";
    case InterestPattern::kZipfOverlap:
      return "zipf-overlap";
  }
  return "unknown";
}

ObjectIndex Workload::AddObject(const ObjectSpec& spec,
                                std::initializer_list<int32_t> caches) {
  return AddObject(spec, Span<const int32_t>(caches.begin(), caches.size()));
}

ObjectIndex Workload::AddObject(const ObjectSpec& spec, Span<const int32_t> caches) {
  BESYNC_CHECK(!caches.empty()) << "an object needs at least one replica";
  for (size_t r = 0; r < caches.size(); ++r) {
    BESYNC_CHECK_GE(caches[r], 0);
    if (r > 0) BESYNC_CHECK_GT(caches[r], caches[r - 1]) << "caches must ascend";
  }
  objects.push_back(spec);
  replica_caches_.insert(replica_caches_.end(), caches.begin(), caches.end());
  replica_offsets_.push_back(static_cast<int64_t>(replica_caches_.size()));
  return static_cast<ObjectIndex>(objects.size() - 1);
}

void Workload::Reserve(size_t objects_to_add, size_t replicas) {
  objects.reserve(objects.size() + objects_to_add);
  replica_offsets_.reserve(replica_offsets_.size() + objects_to_add);
  replica_caches_.reserve(replica_caches_.size() + replicas);
}

int32_t Workload::AddWeight(const Signal& signal) {
  weights.push_back(signal);
  return static_cast<int32_t>(weights.size() - 1);
}

UpdateModel Workload::AddTrace(const std::vector<TracePoint>& points) {
  UpdateModel model;
  model.kind = UpdateKind::kTrace;
  BESYNC_CHECK_LE(trace_points_.size() + points.size(),
                  size_t{std::numeric_limits<uint32_t>::max()})
      << "trace store offsets are 32-bit";
  model.trace_begin = static_cast<uint32_t>(trace_points_.size());
  for (size_t i = 0; i < points.size(); ++i) {
    BESYNC_CHECK(std::isfinite(points[i].time)) << "trace times must be finite";
    if (i > 0) {
      BESYNC_CHECK_GT(points[i].time, points[i - 1].time) << "trace times must increase";
    }
  }
  if (points.size() >= 2) {
    const double span = points.back().time - points.front().time;
    model.rate = span > 0.0 ? static_cast<double>(points.size() - 1) / span : 0.0;
  }
  trace_points_.insert(trace_points_.end(), points.begin(), points.end());
  trace_points_.push_back(TracePoint{std::numeric_limits<double>::infinity(), 0.0});
  return model;
}

int Workload::replica_slot(ObjectIndex index, int32_t cache_id) const {
  const Span<const int32_t> list = caches(index);
  for (size_t r = 0; r < list.size(); ++r) {
    if (list[r] == cache_id) return static_cast<int>(r);
  }
  return -1;
}

std::vector<std::vector<int32_t>> SourcesByCache(const Workload& workload) {
  std::vector<std::vector<int32_t>> sources(
      static_cast<size_t>(workload.num_caches));
  // Objects are grouped by source and each object's cache list is
  // ascending, so appending while deduplicating against the back keeps
  // lists sorted.
  for (ObjectIndex i = 0; i < workload.total_objects(); ++i) {
    const int32_t source = workload.objects[i].source_index;
    for (int32_t cache : workload.caches(i)) {
      auto& list = sources[cache];
      if (list.empty() || list.back() != source) list.push_back(source);
    }
  }
  return sources;
}

Workload CloneWorkload(const Workload& workload) {
  Workload clone;
  clone.num_sources = workload.num_sources;
  clone.objects_per_source = workload.objects_per_source;
  clone.num_caches = workload.num_caches;
  clone.topology = workload.topology;
  clone.objects = workload.objects;
  clone.weights = workload.weights;
  clone.has_fluctuating_weights = workload.has_fluctuating_weights;
  clone.read = workload.read;
  clone.read_streams.reserve(workload.read_streams.size());
  for (const std::unique_ptr<ReadProcess>& stream : workload.read_streams) {
    clone.read_streams.push_back(stream != nullptr ? stream->Clone() : nullptr);
  }
  clone.faults = workload.faults;
  clone.replica_offsets_ = workload.replica_offsets_;
  clone.replica_caches_ = workload.replica_caches_;
  clone.trace_points_ = workload.trace_points_;
  return clone;
}

namespace {

/// Number of caches replicating the next object under the configured
/// pattern. `interest_rng` is drawn from only in kZipfOverlap mode, so the
/// default patterns leave the generator stream untouched.
int InterestDegree(const WorkloadConfig& config, Rng* interest_rng) {
  switch (config.interest_pattern) {
    case InterestPattern::kSingleCache:
    case InterestPattern::kPartitionedBySource:
      return 1;
    case InterestPattern::kFullReplication:
      return config.num_caches;
    case InterestPattern::kZipfOverlap:
      return static_cast<int>(
          interest_rng->Zipf(config.num_caches, config.zipf_overlap_exponent));
  }
  return 1;
}

/// Writes one object's interest list — `degree` caches starting at the
/// source's primary cache (cache 0 for kSingleCache), wrapping, ascending —
/// into `caches`.
void AssignInterest(const WorkloadConfig& config, int32_t source_index, int degree,
                    std::vector<int32_t>* caches) {
  const int32_t num_caches = static_cast<int32_t>(config.num_caches);
  const int32_t primary =
      config.interest_pattern == InterestPattern::kFullReplication ? 0
                                                                  : source_index % num_caches;
  caches->clear();
  for (int k = 0; k < degree; ++k) caches->push_back((primary + k) % num_caches);
  std::sort(caches->begin(), caches->end());
}

}  // namespace

Result<Workload> MakeWorkload(const WorkloadConfig& config) {
  if (config.num_sources < 1) {
    return Status::InvalidArgument("num_sources must be >= 1, got ",
                                   config.num_sources);
  }
  if (config.objects_per_source < 1) {
    return Status::InvalidArgument("objects_per_source must be >= 1, got ",
                                   config.objects_per_source);
  }
  if (config.num_caches < 1) {
    return Status::InvalidArgument("num_caches must be >= 1, got ",
                                   config.num_caches);
  }
  if (config.interest_pattern == InterestPattern::kSingleCache &&
      config.num_caches != 1) {
    return Status::InvalidArgument(
        "interest_pattern kSingleCache requires num_caches == 1");
  }
  if (config.rate_lo < 0.0 || config.rate_hi < config.rate_lo) {
    return Status::InvalidArgument("invalid rate range");
  }
  if (config.update_model == WorkloadConfig::UpdateModel::kBernoulli &&
      (config.rate_hi > 1.0 || config.fast_rate > 1.0)) {
    return Status::InvalidArgument(
        "Bernoulli update probabilities must be <= 1");
  }

  Rng rng(config.seed);
  const int64_t total =
      static_cast<int64_t>(config.num_sources) * config.objects_per_source;

  if (config.large_cost < 1 || config.large_cost > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("large_cost must be in [1, 2^31 - 1]");
  }
  if (config.relay_tiers < 0) {
    return Status::InvalidArgument("relay_tiers must be >= 0, got ",
                                   config.relay_tiers);
  }
  if (config.relay_tiers > 0 && config.relay_fanout < 1) {
    return Status::InvalidArgument("relay_fanout must be >= 1, got ",
                                   config.relay_fanout);
  }
  if (config.relay_bandwidth_factor < 0.0) {
    return Status::InvalidArgument("relay_bandwidth_factor must be >= 0");
  }
  if (config.read.read_rate < 0.0) {
    return Status::InvalidArgument("read_rate must be >= 0");
  }
  if (config.read.read_rate > 0.0 && config.read.zipf_exponent <= 0.0) {
    return Status::InvalidArgument("zipf_exponent must be > 0");
  }
  if (config.read.pull_retry_interval <= 0.0) {
    return Status::InvalidArgument("pull_retry_interval must be > 0");
  }
  if (config.fault.cache_crashes < 0 || config.fault.relay_failures < 0 ||
      config.fault.link_flaps < 0 || config.fault.slowdowns < 0) {
    return Status::InvalidArgument("fault event counts must be >= 0");
  }
  if (config.fault.enabled()) {
    if (config.fault.crash_duration <= 0.0 ||
        config.fault.relay_fail_duration <= 0.0 ||
        config.fault.flap_duration <= 0.0 || config.fault.slow_duration <= 0.0) {
      return Status::InvalidArgument("fault durations must be > 0");
    }
    if (config.fault.slowdowns > 0 &&
        (config.fault.slow_factor <= 0.0 || config.fault.slow_factor > 1.0)) {
      return Status::InvalidArgument("fault slow_factor must be in (0, 1]");
    }
    if (config.fault.crash_cache >= config.num_caches) {
      return Status::InvalidArgument("fault crash_cache ", config.fault.crash_cache,
                                     " outside the ", config.num_caches, " caches");
    }
    if (config.fault.relay_failures > 0 && config.relay_tiers <= 0) {
      return Status::InvalidArgument(
          "fault relay_failures require a relay topology (relay_tiers > 0)");
    }
  }

  // Random half-splits for rate, weight and cost skew, drawn independently
  // ("an independently- and randomly-selected half", Section 4.3).
  std::vector<bool> fast_half(total, false);
  std::vector<bool> heavy_half(total, false);
  std::vector<bool> large_half(total, false);
  {
    std::vector<int64_t> ids(total);
    for (int64_t i = 0; i < total; ++i) ids[i] = i;
    rng.Shuffle(&ids);
    for (int64_t i = 0; i < total / 2; ++i) fast_half[ids[i]] = true;
    rng.Shuffle(&ids);
    for (int64_t i = 0; i < total / 2; ++i) heavy_half[ids[i]] = true;
    rng.Shuffle(&ids);
    for (int64_t i = 0; i < total / 2; ++i) large_half[ids[i]] = true;
  }

  Workload workload;
  workload.num_sources = config.num_sources;
  workload.objects_per_source = config.objects_per_source;
  workload.num_caches = config.num_caches;
  if (config.relay_tiers > 0) {
    workload.topology =
        MakeRelayTree(config.num_caches, config.relay_fanout, config.relay_tiers);
    workload.topology.relay_bandwidth_factor = config.relay_bandwidth_factor;
    if (config.fault.relay_failures > 0) {
      // Failing relays re-home their children to a same-tier backup (falling
      // back to tier-1 promotion where a tier has a single relay). Draws no
      // randomness; declared only when the schedule can actually fail one.
      AssignBackupParents(&workload.topology);
    }
  }
  workload.has_fluctuating_weights = config.weight_fluctuation_amplitude > 0.0;
  // Read-path knobs travel on the workload; the streams themselves are
  // built at run time from read.seed, so this consumes no generator
  // randomness (read-enabled workloads carry identical update streams).
  workload.read = config.read;
  // Fault events draw from their own fault.seed stream (none at all when
  // disabled), so enabling faults leaves the object specs and update
  // streams below bit-identical.
  workload.faults =
      MakeFaultSchedule(config.fault, config.num_caches, workload.topology);
  BESYNC_RETURN_IF_ERROR(
      workload.faults.Validate(workload.topology, config.num_caches));
  // Interest assignment uses a dedicated stream so the default single-cache
  // path consumes no randomness and stays bit-identical to the historical
  // generator output. A copy of the stream replays the replication degrees
  // first, so the interest map is allocated once, exactly sized.
  Rng interest_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  {
    Rng degree_rng = interest_rng;
    size_t replicas = 0;
    for (int64_t i = 0; i < total; ++i) {
      replicas += static_cast<size_t>(InterestDegree(config, &degree_rng));
    }
    workload.Reserve(static_cast<size_t>(total), replicas);
  }
  std::vector<int32_t> caches;
  caches.reserve(static_cast<size_t>(config.num_caches));

  // Constant weights are shared: one signal per distinct value. Fluctuating
  // weights draw their own parameters, so each object gets its own signal.
  const bool fluctuating = config.weight_fluctuation_amplitude > 0.0;
  int32_t heavy_weight_id = Workload::kUnitWeight;
  if (fluctuating) {
    workload.weights.reserve(static_cast<size_t>(total) + 1);
  } else if (config.weight_scheme == WeightScheme::kHalfHeavy) {
    heavy_weight_id = workload.AddWeight(Signal::Constant(config.heavy_weight));
  }

  for (int64_t i = 0; i < total; ++i) {
    ObjectSpec spec;
    spec.source_index = static_cast<int32_t>(i / config.objects_per_source);
    AssignInterest(config, spec.source_index, InterestDegree(config, &interest_rng),
                   &caches);

    double lambda = 0.0;
    switch (config.rate_distribution) {
      case RateDistribution::kUniform:
        lambda = rng.Uniform(config.rate_lo, config.rate_hi);
        break;
      case RateDistribution::kHalfSlowHalfFast:
        lambda = fast_half[i] ? config.fast_rate : config.slow_rate;
        break;
    }

    switch (config.update_model) {
      case WorkloadConfig::UpdateModel::kPoisson:
        spec.update = UpdateModel::Poisson(lambda, config.value_step);
        break;
      case WorkloadConfig::UpdateModel::kBernoulli:
        spec.update = UpdateModel::Bernoulli(lambda, config.value_step);
        break;
    }

    const bool heavy = config.weight_scheme == WeightScheme::kHalfHeavy && heavy_half[i];
    if (fluctuating) {
      spec.weight_id = workload.AddWeight(MakeWeightFluctuation(
          heavy ? config.heavy_weight : 1.0, config.weight_fluctuation_amplitude,
          config.weight_period_min, config.weight_period_max, &rng));
    } else if (heavy) {
      spec.weight_id = heavy_weight_id;
    }

    if (config.cost_scheme == CostScheme::kHalfLarge && large_half[i]) {
      spec.refresh_cost = static_cast<int32_t>(config.large_cost);
    }

    // Random-walk values diverge at most `step` per update, so the maximum
    // divergence rate under the value-deviation metric is lambda * step
    // (used only by the Section 9 bounding policy).
    spec.max_divergence_rate = lambda * config.value_step;

    spec.rng_seed = rng.NextUint64();
    workload.AddObject(spec, caches);
  }

  return workload;
}

}  // namespace besync
