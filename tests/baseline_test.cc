#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "baseline/cgm.h"
#include "baseline/freq_allocation.h"
#include "baseline/ideal.h"
#include "baseline/ideal_cache.h"
#include "baseline/lambda_estimator.h"
#include "baseline/round_robin.h"
#include "core/system.h"
#include "divergence/metric.h"

namespace besync {
namespace {

// ------------------------------------------------------- Freshness algebra

TEST(PoissonFreshnessTest, KnownValues) {
  // F = (1 - e^-x)/x with x = lambda/f.
  EXPECT_NEAR(PoissonFreshness(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(PoissonFreshness(0.0, 1.0), 1.0);   // never changes
  EXPECT_DOUBLE_EQ(PoissonFreshness(1.0, 0.0), 0.0);   // never refreshed
  EXPECT_NEAR(PoissonFreshness(0.1, 100.0), 1.0, 1e-3);  // hot refresh rate
}

TEST(PoissonFreshnessTest, IncreasingAndConcaveInFrequency) {
  const double lambda = 0.5;
  double previous = PoissonFreshness(lambda, 0.01);
  double previous_gain = 1e18;
  for (double f = 0.1; f < 10.0; f += 0.1) {
    const double current = PoissonFreshness(lambda, f);
    EXPECT_GT(current, previous);
    const double gain = current - previous;
    EXPECT_LT(gain, previous_gain + 1e-12);  // concavity
    previous_gain = gain;
    previous = current;
  }
}

TEST(PoissonFreshnessMarginalTest, MatchesNumericalDerivative) {
  for (double lambda : {0.1, 0.5, 2.0}) {
    for (double f : {0.05, 0.5, 3.0}) {
      const double h = 1e-6;
      const double numeric =
          (PoissonFreshness(lambda, f + h) - PoissonFreshness(lambda, f - h)) /
          (2.0 * h);
      EXPECT_NEAR(PoissonFreshnessMarginal(lambda, f), numeric, 1e-5);
    }
  }
}

TEST(PoissonFreshnessMarginalTest, LimitAtZeroIsInverseLambda) {
  EXPECT_DOUBLE_EQ(PoissonFreshnessMarginal(0.5, 0.0), 2.0);
  EXPECT_NEAR(PoissonFreshnessMarginal(0.5, 1e-9), 2.0, 1e-6);
}

// ---------------------------------------------------------- CGM allocation

TEST(FreshnessAllocationTest, BudgetBinds) {
  std::vector<double> lambdas{0.1, 0.3, 0.5, 0.9};
  auto result = SolveFreshnessAllocation(lambdas, {}, 2.0);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (double f : result->frequencies) {
    EXPECT_GE(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, 2.0, 1e-6);
}

TEST(FreshnessAllocationTest, MarginalsEqualizedAmongActive) {
  std::vector<double> lambdas{0.2, 0.4, 0.8};
  auto result = SolveFreshnessAllocation(lambdas, {}, 3.0);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < lambdas.size(); ++i) {
    if (result->frequencies[i] > 1e-9) {
      EXPECT_NEAR(PoissonFreshnessMarginal(lambdas[i], result->frequencies[i]),
                  result->mu, result->mu * 0.02);
    }
  }
}

TEST(FreshnessAllocationTest, HotObjectsStarvedUnderContention) {
  // CGM's hallmark: with tight bandwidth it is optimal to give rapidly
  // changing objects zero refreshes.
  std::vector<double> lambdas{0.01, 0.01, 0.01, 5.0};
  auto result = SolveFreshnessAllocation(lambdas, {}, 0.05);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->frequencies[3], 0.0);
  EXPECT_GT(result->frequencies[0], 0.0);
}

TEST(FreshnessAllocationTest, AmpleBandwidthCoversEveryone) {
  std::vector<double> lambdas{0.1, 1.0, 3.0};
  auto result = SolveFreshnessAllocation(lambdas, {}, 1000.0);
  ASSERT_TRUE(result.ok());
  for (double f : result->frequencies) EXPECT_GT(f, 1.0);
}

TEST(FreshnessAllocationTest, WeightsBiasAllocation) {
  std::vector<double> lambdas{0.5, 0.5};
  std::vector<double> weights{10.0, 1.0};
  auto result = SolveFreshnessAllocation(lambdas, weights, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->frequencies[0], result->frequencies[1]);
}

TEST(FreshnessAllocationTest, ZeroBandwidth) {
  auto result = SolveFreshnessAllocation({0.5}, {}, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->frequencies[0], 0.0);
}

TEST(FreshnessAllocationTest, InvalidInputsRejected) {
  EXPECT_FALSE(SolveFreshnessAllocation({}, {}, 1.0).ok());
  EXPECT_FALSE(SolveFreshnessAllocation({0.5}, {1.0, 2.0}, 1.0).ok());
  EXPECT_FALSE(SolveFreshnessAllocation({0.5}, {}, -1.0).ok());
}

TEST(FreshnessAllocationTest, AllocationMaximizesObjective) {
  // Compare against random perturbations: no feasible perturbation should
  // beat the solver's objective.
  std::vector<double> lambdas{0.1, 0.4, 0.7, 1.5};
  const double budget = 1.2;
  auto result = SolveFreshnessAllocation(lambdas, {}, budget);
  ASSERT_TRUE(result.ok());
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    // Random feasible allocation on the simplex.
    std::vector<double> alternative(lambdas.size());
    double total = 0.0;
    for (double& f : alternative) {
      f = rng.Exponential(1.0);
      total += f;
    }
    double objective = 0.0;
    for (size_t i = 0; i < lambdas.size(); ++i) {
      alternative[i] *= budget / total;
      objective += PoissonFreshness(lambdas[i], alternative[i]);
    }
    EXPECT_LE(objective, result->total_weighted_freshness + 1e-6);
  }
}

// -------------------------------------------------------------- Estimators

TEST(BooleanChangeEstimatorTest, PriorBeforeMinPolls) {
  BooleanChangeEstimator estimator(0.7, 3, 0.0);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.7);
  estimator.RecordPoll(1.0, true, 0.5);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.7);
}

TEST(BooleanChangeEstimatorTest, ConvergesToTrueRate) {
  const double lambda = 0.3;
  const double tau = 1.0;
  Rng rng(9);
  BooleanChangeEstimator estimator(1.0, 3, 0.0);
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += tau;
    const bool changed = rng.Poisson(lambda * tau) > 0;
    estimator.RecordPoll(t, changed, -1.0);
  }
  EXPECT_NEAR(estimator.Estimate(), lambda, 0.02);
}

TEST(BooleanChangeEstimatorTest, AllChangedStaysFinite) {
  BooleanChangeEstimator estimator(1.0, 1, 0.0);
  for (int i = 1; i <= 100; ++i) estimator.RecordPoll(i, true, i - 0.5);
  EXPECT_TRUE(std::isfinite(estimator.Estimate()));
  EXPECT_GT(estimator.Estimate(), 1.0);  // clearly hot
}

TEST(LastModifiedEstimatorTest, ConvergesToTrueRate) {
  const double lambda = 0.3;
  const double tau = 1.0;
  Rng rng(10);
  LastModifiedEstimator estimator(1.0, 3, 0.0);
  double t = 0.0;
  double last_update = -1.0;
  for (int i = 0; i < 20000; ++i) {
    const double start = t;
    t += tau;
    // Simulate the Poisson process within the interval to find the last
    // update before the poll.
    double u = start;
    bool changed = false;
    while (true) {
      u += rng.Exponential(lambda);
      if (u > t) break;
      last_update = u;
      changed = true;
    }
    estimator.RecordPoll(t, changed, changed ? last_update : -1.0);
  }
  EXPECT_NEAR(estimator.Estimate(), lambda, 0.02);
}

TEST(LastModifiedEstimatorTest, BeatsBooleanAtSparsePolling) {
  // When polls are much rarer than updates, the boolean estimator saturates
  // (every poll sees a change) while the last-modified estimator still
  // measures the quiet gaps. This is CGM1's advantage over CGM2.
  const double lambda = 2.0;
  const double tau = 5.0;  // ~10 updates per poll
  Rng rng(11);
  BooleanChangeEstimator boolean(1.0, 3, 0.0);
  LastModifiedEstimator last_modified(1.0, 3, 0.0);
  double t = 0.0;
  double last_update = -1.0;
  for (int i = 0; i < 5000; ++i) {
    const double start = t;
    t += tau;
    double u = start;
    bool changed = false;
    while (true) {
      u += rng.Exponential(lambda);
      if (u > t) break;
      last_update = u;
      changed = true;
    }
    boolean.RecordPoll(t, changed, -1.0);
    last_modified.RecordPoll(t, changed, changed ? last_update : -1.0);
  }
  const double boolean_error = std::abs(boolean.Estimate() - lambda);
  const double last_modified_error = std::abs(last_modified.Estimate() - lambda);
  EXPECT_LT(last_modified_error, boolean_error);
  EXPECT_NEAR(last_modified.Estimate(), lambda, 0.2);
}

// ------------------------------------------------------------- Schedulers

WorkloadConfig SmallWorkload(uint64_t seed = 7) {
  WorkloadConfig config;
  config.num_sources = 4;
  config.objects_per_source = 10;
  config.rate_lo = 0.05;
  config.rate_hi = 0.5;
  config.seed = seed;
  return config;
}

HarnessConfig ShortRun() {
  HarnessConfig config;
  config.warmup = 50.0;
  config.measure = 300.0;
  return config;
}

TEST(IdealCooperativeTest, AmpleBandwidthTracksPerfectly) {
  Workload workload = std::move(MakeWorkload(SmallWorkload())).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  IdealConfig config;
  config.cache_bandwidth_avg = 1000.0;
  IdealCooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  // Refreshes are instantaneous but still happen on tick boundaries, so the
  // residual is below half the mean per-object update-induced divergence.
  EXPECT_LT(result->per_object_weighted, 0.3);
}

TEST(IdealCooperativeTest, RespectsSourceBandwidth) {
  Workload workload = std::move(MakeWorkload(SmallWorkload())).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  IdealConfig config;
  config.cache_bandwidth_avg = 1000.0;
  config.source_bandwidth_avg = 1.0;  // 4 sources -> <= 4 refreshes/s total
  IdealCooperativeScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->scheduler.refreshes_sent, 4 * 300 + 50);
}

TEST(IdealCacheBasedTest, RunsAndRefreshesAtBudget) {
  Workload workload = std::move(MakeWorkload(SmallWorkload())).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  CacheDrivenConfig config;
  config.cache_bandwidth_avg = 10.0;
  IdealCacheBasedScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  // ~10 refreshes/s over 300 s of measurement.
  EXPECT_NEAR(static_cast<double>(result->scheduler.refreshes_delivered),
              3000.0, 600.0);
}

TEST(CGMSchedulerTest, PollsCostRoundTrips) {
  Workload workload = std::move(MakeWorkload(SmallWorkload())).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  CGMConfig config;
  config.network.cache_bandwidth_avg = 10.0;
  config.variant = CGMVariant::kLastModified;
  CGMScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  // Refresh throughput is about half the bandwidth (2 units per poll).
  EXPECT_LT(result->scheduler.refreshes_delivered, 1800);
  EXPECT_GT(result->scheduler.refreshes_delivered, 1000);
}

TEST(CGMSchedulerTest, EstimatesConvergeDuringRun) {
  Workload workload = std::move(MakeWorkload(SmallWorkload())).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  CGMConfig config;
  config.network.cache_bandwidth_avg = 40.0;  // plenty of polls
  config.variant = CGMVariant::kLastModified;
  CGMScheduler scheduler(config);
  HarnessConfig harness;
  harness.warmup = 100.0;
  harness.measure = 900.0;
  auto result = RunScheduler(&workload, metric.get(), harness, &scheduler);
  ASSERT_TRUE(result.ok());
  // Estimated rates should correlate with the true rates.
  double error_sum = 0.0;
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    error_sum += std::abs(scheduler.EstimatedLambda(static_cast<ObjectIndex>(i)) -
                          workload.objects[i].lambda());
  }
  const double mean_error = error_sum / workload.objects.size();
  EXPECT_LT(mean_error, 0.12);  // rates are in [0.05, 0.5]
}

TEST(RoundRobinTest, CyclesThroughObjects) {
  Workload workload = std::move(MakeWorkload(SmallWorkload())).ValueOrDie();
  auto metric = MakeMetric(MetricKind::kStaleness);
  CacheDrivenConfig config;
  config.cache_bandwidth_avg = 4.0;
  RoundRobinScheduler scheduler(config);
  auto result = RunScheduler(&workload, metric.get(), ShortRun(), &scheduler);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(static_cast<double>(result->scheduler.refreshes_delivered), 1200.0,
              100.0);
}

// The central claims of Figures 4 and 6, at test scale: on a shared
// workload under the staleness metric,
//   ideal cooperative <= our algorithm  (coordination costs something)
//   our algorithm < practical CGM       (cooperation beats cache polling)
TEST(SchedulerOrderingTest, CooperationBeatsCacheDrivenPolling) {
  auto metric = MakeMetric(MetricKind::kStaleness);
  WorkloadConfig wl;
  wl.num_sources = 10;
  wl.objects_per_source = 10;
  wl.rate_lo = 0.0;
  wl.rate_hi = 1.0;
  wl.seed = 21;
  HarnessConfig harness;
  harness.warmup = 100.0;
  harness.measure = 500.0;
  const double bandwidth = 30.0;  // 30% of objects/s

  auto run = [&](Scheduler* scheduler) {
    Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
    auto result = RunScheduler(&workload, metric.get(), harness, scheduler);
    EXPECT_TRUE(result.ok());
    return result->per_object_unweighted;
  };

  IdealConfig ideal_config;
  ideal_config.cache_bandwidth_avg = bandwidth;
  IdealCooperativeScheduler ideal(ideal_config);
  const double ideal_divergence = run(&ideal);

  CooperativeConfig coop_config;
  coop_config.cache_bandwidth_avg = bandwidth;
  CooperativeScheduler cooperative(coop_config);
  const double cooperative_divergence = run(&cooperative);

  CGMConfig cgm_config;
  cgm_config.network.cache_bandwidth_avg = bandwidth;
  cgm_config.variant = CGMVariant::kLastModified;
  CGMScheduler cgm(cgm_config);
  const double cgm_divergence = run(&cgm);

  EXPECT_LE(ideal_divergence, cooperative_divergence * 1.05);
  EXPECT_LT(cooperative_divergence, cgm_divergence);
}

}  // namespace
}  // namespace besync
