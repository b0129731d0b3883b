// Deep-copyable workloads: CloneWorkload must (a) reproduce exactly the run
// a config-rebuilt workload produces, (b) share no mutable state with the
// original, and (c) let one trace-derived workload fan out across the
// parallel runner with byte-identical JSON at any thread count.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <thread>

#include "data/buoy_trace.h"
#include "data/workload.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "util/fluctuation.h"

namespace besync {
namespace {

WorkloadConfig SmallSyntheticConfig() {
  WorkloadConfig config;
  config.num_sources = 3;
  config.objects_per_source = 5;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.cost_scheme = CostScheme::kHalfLarge;
  config.weight_fluctuation_amplitude = 0.4;  // one sine weight per object
  config.seed = 42;
  return config;
}

BuoyTraceConfig SmallBuoyConfig() {
  BuoyTraceConfig config;
  config.num_buoys = 3;
  config.duration = 4.0 * 3600.0;
  config.seed = 2026;
  return config;
}

/// One object of every update-model kind, over a non-trivial interest map
/// and weight table.
Workload EveryKindWorkload() {
  Workload workload;
  workload.num_sources = 1;
  workload.objects_per_source = 5;
  workload.num_caches = 3;
  const UpdateModel models[] = {
      UpdateModel::Poisson(0.7, 2.0), UpdateModel::Bernoulli(0.3, 1.5),
      UpdateModel::RegimeSwitching(0.1, 2.0, 50.0), UpdateModel::Drift(0.25, 1.0),
      workload.AddTrace({{1.0, 5.0}, {2.5, 6.0}, {4.0, 4.5}, {7.0, 5.5}})};
  for (size_t i = 0; i < 5; ++i) {
    ObjectSpec spec;
    spec.update = models[i];
    spec.weight_id = workload.AddWeight(Signal::Sine(2.0, 0.5, 300.0, 1.25));
    spec.rng_seed = 100 + i;
    if (i % 2 == 0) {
      workload.AddObject(spec, {0, 2});
    } else {
      workload.AddObject(spec, {1});
    }
  }
  return workload;
}

// Every update-model kind: the clone's models, replayed from fresh cursors
// with the same RNG stream, emit exactly the original's update stream.
TEST(CloneTest, ModelsReplayIdenticalStreams) {
  const Workload original = EveryKindWorkload();
  const Workload clone = CloneWorkload(original);
  ASSERT_EQ(clone.objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    const UpdateModel& a = original.objects[i].update;
    const UpdateModel& b = clone.objects[i].update;
    EXPECT_EQ(b.mean_rate(), a.mean_rate());
    const TracePoint* cursor_a = original.TraceStart(a);
    const TracePoint* cursor_b = clone.TraceStart(b);
    EXPECT_TRUE(a.kind != UpdateKind::kTrace || cursor_a != cursor_b);
    Rng rng_a(123);
    Rng rng_b(123);
    double value_a = 0.0;
    double value_b = 0.0;
    double now = 0.0;
    for (int k = 0; k < 16; ++k) {
      const double next_a = a.NextUpdateTime(now, &rng_a, &cursor_a);
      const double next_b = b.NextUpdateTime(now, &rng_b, &cursor_b);
      EXPECT_EQ(next_a, next_b);
      if (next_a == std::numeric_limits<double>::infinity()) break;
      value_a = a.ApplyUpdate(value_a, &rng_a, &cursor_a);
      value_b = b.ApplyUpdate(value_b, &rng_b, &cursor_b);
      EXPECT_EQ(value_a, value_b);
      now = next_a;
    }
  }
}

TEST(CloneTest, CloneMatchesOriginalSpecs) {
  const Workload original =
      std::move(MakeWorkload(SmallSyntheticConfig())).ValueOrDie();
  const Workload clone = CloneWorkload(original);

  EXPECT_EQ(clone.num_sources, original.num_sources);
  EXPECT_EQ(clone.objects_per_source, original.objects_per_source);
  EXPECT_EQ(clone.num_caches, original.num_caches);
  EXPECT_EQ(clone.has_fluctuating_weights, original.has_fluctuating_weights);
  EXPECT_EQ(clone.total_replicas(), original.total_replicas());
  ASSERT_EQ(clone.objects.size(), original.objects.size());
  for (ObjectIndex i = 0; i < original.total_objects(); ++i) {
    const ObjectSpec& a = original.objects[i];
    const ObjectSpec& b = clone.objects[i];
    EXPECT_EQ(b.source_index, a.source_index);
    EXPECT_EQ(b.lambda(), a.lambda());
    EXPECT_EQ(b.initial_value, a.initial_value);
    EXPECT_EQ(b.max_divergence_rate, a.max_divergence_rate);
    EXPECT_EQ(b.refresh_cost, a.refresh_cost);
    EXPECT_EQ(b.rng_seed, a.rng_seed);
    EXPECT_EQ(clone.replica_begin(i), original.replica_begin(i));
    ASSERT_EQ(clone.num_replicas(i), original.num_replicas(i));
    EXPECT_EQ(clone.caches(i)[0], original.caches(i)[0]);
    // Deep, not shallow: the clone owns its interest map.
    EXPECT_NE(clone.caches(i).data(), original.caches(i).data());
    for (double t : {0.0, 12.5, 150.0, 1234.5}) {
      EXPECT_EQ(clone.weight(i).ValueAt(t), original.weight(i).ValueAt(t));
    }
  }
}

// The headline guarantee: running a scheduler on a clone produces the
// bitwise-identical RunResult a config-rebuilt workload produces.
TEST(CloneTest, CloneRunEqualsRebuildRun) {
  ExperimentConfig config;
  config.workload = SmallSyntheticConfig();
  config.harness.warmup = 10.0;
  config.harness.measure = 100.0;
  config.cache_bandwidth_avg = 6.0;

  for (SchedulerKind scheduler :
       {SchedulerKind::kCooperative, SchedulerKind::kRoundRobin}) {
    config.scheduler = scheduler;

    const Result<RunResult> rebuilt = RunExperiment(config);
    ASSERT_TRUE(rebuilt.ok());

    const Workload base = std::move(MakeWorkload(config.workload)).ValueOrDie();
    Workload clone = CloneWorkload(base);
    const Result<RunResult> cloned = RunExperimentOnWorkload(config, &clone);
    ASSERT_TRUE(cloned.ok());

    EXPECT_EQ(cloned->total_weighted_divergence, rebuilt->total_weighted_divergence);
    EXPECT_EQ(cloned->per_cache_weighted, rebuilt->per_cache_weighted);
    EXPECT_EQ(cloned->per_object_weighted, rebuilt->per_object_weighted);
    EXPECT_EQ(cloned->per_object_unweighted, rebuilt->per_object_unweighted);
    EXPECT_EQ(cloned->total_replicas, rebuilt->total_replicas);
    EXPECT_EQ(cloned->scheduler.refreshes_sent, rebuilt->scheduler.refreshes_sent);
    EXPECT_EQ(cloned->scheduler.refreshes_delivered,
              rebuilt->scheduler.refreshes_delivered);
    EXPECT_EQ(cloned->scheduler.feedback_sent, rebuilt->scheduler.feedback_sent);
  }
}

// Mutating a clone (running it, touching its specs) must leave the original
// untouched — the property that makes concurrent fan-out safe.
TEST(CloneTest, MutatingCloneLeavesOriginalUntouched) {
  const Workload original =
      std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();
  Workload clone = CloneWorkload(original);

  for (ObjectSpec& spec : clone.objects) {
    spec.update = UpdateModel::Drift(5.0);
    spec.initial_value = -1.0;
  }
  clone.AddObject(clone.objects[0], {0, 99});  // structural mutation
  clone.AddTrace({{1.0, 2.0}});
  clone.weights[Workload::kUnitWeight] = Signal::Constant(7.0);

  // The original still replays its traces from the first point, and its
  // specs are unchanged.
  EXPECT_EQ(original.total_objects(), clone.total_objects() - 1);
  EXPECT_EQ(original.total_replicas(), original.total_objects());
  Rng rng(5);
  for (ObjectIndex i = 0; i < original.total_objects(); ++i) {
    const ObjectSpec& spec = original.objects[i];
    EXPECT_EQ(spec.update.kind, UpdateKind::kTrace);
    EXPECT_EQ(original.caches(i)[0], 0);
    EXPECT_GE(spec.lambda(), 0.0);
    EXPECT_GE(spec.initial_value, 0.0);
    EXPECT_EQ(original.weight(i).ValueAt(3.0), 1.0);
    const TracePoint* cursor = original.TraceStart(spec.update);
    const double first = spec.update.NextUpdateTime(0.0, &rng, &cursor);
    EXPECT_LE(first, SmallBuoyConfig().measurement_interval + 1e-9);
  }

  // And a run over a fresh clone of the original matches a run over the
  // original itself.
  ExperimentConfig config;
  config.harness.tick_length = 60.0;
  config.harness.warmup = 600.0;
  config.harness.measure = 3000.0;
  config.cache_bandwidth_avg = 0.05;
  Workload fresh = CloneWorkload(original);
  const Result<RunResult> a = RunExperimentOnWorkload(config, &fresh);
  ASSERT_TRUE(a.ok());
  const Result<RunResult> b = RunExperimentOnWorkload(config, &original);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_weighted_divergence, b->total_weighted_divergence);
}

// A run only reads its workload (trace cursors are per-run harness state),
// so one trace-replay workload backs concurrent runs without CloneWorkload
// and each gets the sequential run's result. Run under ThreadSanitizer in
// CI, this is also the race check.
TEST(CloneTest, SharedTraceWorkloadRunsConcurrently) {
  const Workload shared =
      std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();
  ExperimentConfig config;
  config.harness.tick_length = 60.0;
  config.harness.warmup = 600.0;
  config.harness.measure = 3000.0;
  config.cache_bandwidth_avg = 0.05;
  const Result<RunResult> sequential = RunExperimentOnWorkload(config, &shared);
  ASSERT_TRUE(sequential.ok());

  Result<RunResult> results[2] = {Status::FailedPrecondition("not run"), Status::FailedPrecondition("not run")};
  std::thread runs[2];
  for (int k = 0; k < 2; ++k) {
    runs[k] = std::thread(
        [&, k] { results[k] = RunExperimentOnWorkload(config, &shared); });
  }
  for (std::thread& run : runs) run.join();
  for (const Result<RunResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_weighted_divergence, sequential->total_weighted_divergence);
    EXPECT_EQ(result->per_object_unweighted, sequential->per_object_unweighted);
    EXPECT_EQ(result->scheduler.refreshes_delivered,
              sequential->scheduler.refreshes_delivered);
  }
}

// Clone fan-out across the runner: threads=1 and threads=8 produce
// bitwise-identical results and byte-identical JSON over a trace-derived
// workload no WorkloadConfig can rebuild.
TEST(CloneTest, TraceFanOutIsThreadCountInvariant) {
  const Workload base = std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();

  std::vector<ExperimentJob> jobs;
  for (SchedulerKind scheduler :
       {SchedulerKind::kCooperative, SchedulerKind::kIdealCooperative,
        SchedulerKind::kRoundRobin}) {
    for (double bandwidth : {0.02, 0.1}) {
      ExperimentJob job;
      job.name = SchedulerKindToString(scheduler) + ",B=" +
                 TablePrinter::Cell(bandwidth);
      job.config.scheduler = scheduler;
      job.config.harness.tick_length = 60.0;
      job.config.harness.warmup = 600.0;
      job.config.harness.measure = 3000.0;
      job.config.cache_bandwidth_avg = bandwidth;
      job.config.workload.seed = SmallBuoyConfig().seed;  // metadata only
      jobs.push_back(std::move(job));
    }
  }

  RunnerOptions sequential;
  sequential.threads = 1;
  const std::vector<JobResult> one = RunExperimentsOnWorkload(base, jobs, sequential);

  RunnerOptions parallel;
  parallel.threads = 8;
  const std::vector<JobResult> eight = RunExperimentsOnWorkload(base, jobs, parallel);

  ASSERT_EQ(one.size(), jobs.size());
  ASSERT_EQ(eight.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(one[i].name, jobs[i].name);
    ASSERT_TRUE(one[i].status.ok()) << one[i].status.ToString();
    ASSERT_TRUE(eight[i].status.ok()) << eight[i].status.ToString();
    EXPECT_EQ(one[i].result.total_weighted_divergence,
              eight[i].result.total_weighted_divergence);
    EXPECT_EQ(one[i].result.scheduler.refreshes_delivered,
              eight[i].result.scheduler.refreshes_delivered);
    // The runner stamps the topology from the base workload.
    EXPECT_EQ(one[i].config.workload.num_caches, base.num_caches);
  }

  std::ostringstream json_one;
  std::ostringstream json_eight;
  WriteResultsJson(json_one, one);
  WriteResultsJson(json_eight, eight);
  EXPECT_EQ(json_one.str(), json_eight.str());  // byte-identical
}

}  // namespace
}  // namespace besync
