// N=1 equivalence goldens: pins RunResult.total_weighted_divergence for
// fixed-seed single-cache workloads across every scheduler family. The
// values were captured from the pre-multi-cache engine (the paper's
// single-cache code paths); the topology-aware engine must reproduce them
// to 1e-9 — the refactor is required to be behavior-preserving at one
// cache.

#include <gtest/gtest.h>

#include "core/competitive.h"
#include "data/topology.h"
#include "exp/experiment.h"
#include "fault/fault_schedule.h"

namespace besync {
namespace {

constexpr double kTolerance = 1e-9;

TEST(GoldenTest, CooperativeTrigger) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 25;
  config.workload.seed = 42;
  config.harness.warmup = 50.0;
  config.harness.measure = 300.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 4.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 226.69154803746471, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, 3150);
  EXPECT_EQ(result->scheduler.feedback_sent, 436);
  // The per-cache breakdown of a single-cache run is the whole objective.
  ASSERT_EQ(result->per_cache_weighted.size(), 1u);
  EXPECT_NEAR(result->per_cache_weighted[0], result->total_weighted_divergence,
              kTolerance);
}

TEST(GoldenTest, CooperativeSamplingWithFluctuatingBandwidth) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 30;
  config.workload.seed = 9;
  config.harness.warmup = 40.0;
  config.harness.measure = 200.0;
  config.bandwidth_change_rate = 0.02;
  config.cache_bandwidth_avg = 8.0;
  config.monitor = MonitorMode::kSampling;
  config.sampling_interval = 5.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 150.29820033333442, kTolerance);
}

TEST(GoldenTest, CooperativeBoundPolicy) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.policy = PolicyKind::kBound;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 20;
  config.workload.seed = 11;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 6.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 116.39735741125634, kTolerance);
}

TEST(GoldenTest, CooperativeBatching) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 13;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 5.0;
  config.max_batch = 3;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 78.306023107258085, kTolerance);
}

TEST(GoldenTest, CGM1Baseline) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCGM1;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 17;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 222.40519590948804, kTolerance);
}

TEST(GoldenTest, CompetitivePiggyback) {
  WorkloadConfig wl;
  wl.num_sources = 4;
  wl.objects_per_source = 20;
  wl.seed = 21;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  AssignConflictingSourceWeights(&workload, 8.0, 77);
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness_config;
  harness_config.warmup = 30.0;
  harness_config.measure = 150.0;
  Harness harness(&workload, metric.get(), harness_config);
  GroundTruth source_view(&workload, metric.get(), /*use_source_weights=*/true);
  harness.AddGroundTruth(&source_view);
  CompetitiveConfig config;
  config.base.cache_bandwidth_avg = 10.0;
  config.psi = 0.25;
  config.option = ShareOption::kPiggyback;
  CompetitiveScheduler scheduler(config);
  ASSERT_TRUE(harness.Run(&scheduler).ok());
  EXPECT_NEAR(harness.ground_truth().TotalWeightedAverage(), 61.817998329229859,
              kTolerance);
  EXPECT_NEAR(source_view.TotalWeightedAverage(), 296.74566796678164, kTolerance);
}

TEST(GoldenTest, IdealCooperative) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kIdealCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 23;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 69.689302650153195, kTolerance);
}

TEST(GoldenTest, RoundRobin) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kRoundRobin;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 29;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 96.44131748074895, kTolerance);
}

// Exact pins (EXPECT_EQ on doubles, no tolerance) for the multi-cache paths
// whose internal data layout changes without any change in results: the
// sampling-event calendar and the pair-keyed control mail. Values recorded
// before those layouts changed.

TEST(GoldenTest, SamplingZipfOverlapExact) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 20;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kZipfOverlap;
  config.workload.seed = 23;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.harness.seed = 3;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 4.0;
  config.monitor = MonitorMode::kSampling;
  config.sampling_interval = 4.0;
  config.predictive_sampling = true;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_weighted_divergence, 232.80083648104193);
  ASSERT_EQ(result->per_cache_weighted.size(), 4u);
  EXPECT_EQ(result->per_cache_weighted[0], 58.270212917813481);
  EXPECT_EQ(result->per_cache_weighted[1], 71.144240851935621);
  EXPECT_EQ(result->per_cache_weighted[2], 57.484949656877994);
  EXPECT_EQ(result->per_cache_weighted[3], 45.901433054414809);
  EXPECT_EQ(result->scheduler.refreshes_sent, 2800);
  EXPECT_EQ(result->scheduler.refreshes_delivered, 2800);
  EXPECT_EQ(result->scheduler.feedback_sent, 794);
  EXPECT_EQ(result->scheduler.mean_threshold, 14.088819950966274);
}

TEST(GoldenTest, RelayFailoverWithFeedbackInFlightExact) {
  // 8 leaves under a 2-tier relay tree with backups; one bottom relay and
  // one tier-1 relay fail mid-run (the first at a non-tick instant, so it
  // applies at the next tick while that tick's feedback waits upstream)
  // and recover later. Exercises the control-mail re-deposit at failover,
  // the pump over backup-adopted children, and routing restore.
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 15;
  config.workload.num_caches = 8;
  config.workload.interest_pattern = InterestPattern::kZipfOverlap;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 0.75;
  config.workload.seed = 31;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  AssignBackupParents(&workload.topology);
  const std::vector<int32_t> relays = workload.topology.RelaysBottomUp();
  auto event = [](double time, FaultEventKind kind, int32_t node) {
    FaultEvent e;
    e.time = time;
    e.kind = kind;
    e.node = node;
    return e;
  };
  workload.faults.events.push_back(
      event(60.5, FaultEventKind::kRelayFail, relays.front()));
  workload.faults.events.push_back(
      event(90.0, FaultEventKind::kRelayFail, relays.back()));
  workload.faults.events.push_back(
      event(110.0, FaultEventKind::kRelayRecover, relays.front()));
  workload.faults.events.push_back(
      event(130.0, FaultEventKind::kRelayRecover, relays.back()));
  const auto result = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_weighted_divergence, 594.50946386330099);
  const std::vector<double> per_cache = {
      86.007900796358498, 75.760820959379089, 90.1521487260123,
      86.379764570078549, 62.512598155274681, 59.50550638298742,
      66.126735857928068, 68.063988415282438};
  ASSERT_EQ(result->per_cache_weighted.size(), per_cache.size());
  for (size_t c = 0; c < per_cache.size(); ++c) {
    EXPECT_EQ(result->per_cache_weighted[c], per_cache[c]) << "cache " << c;
  }
  EXPECT_EQ(result->scheduler.refreshes_sent, 3420);
  EXPECT_EQ(result->scheduler.refreshes_delivered, 3359);
  EXPECT_EQ(result->scheduler.feedback_sent, 3841);
  EXPECT_EQ(result->scheduler.relay_control_moved, 7700);
  EXPECT_EQ(result->scheduler.relay_failures, 2);
  EXPECT_EQ(result->scheduler.relays_forwarded, 7065);
  EXPECT_EQ(result->scheduler.mean_threshold, 102.72712975332603);
}

}  // namespace
}  // namespace besync
