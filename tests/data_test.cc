#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/buoy_trace.h"
#include "data/update_process.h"
#include "data/workload.h"
#include "util/fluctuation.h"

namespace besync {
namespace {

TEST(PoissonProcessTest, InterArrivalMeanMatchesRate) {
  const UpdateModel process = UpdateModel::Poisson(2.0);
  Rng rng(1);
  double t = 0.0;
  const int kEvents = 50000;
  for (int i = 0; i < kEvents; ++i) t = process.NextUpdateTime(t, &rng, nullptr);
  EXPECT_NEAR(t / kEvents, 0.5, 0.01);  // mean gap = 1/lambda
  EXPECT_DOUBLE_EQ(process.mean_rate(), 2.0);
}

TEST(PoissonProcessTest, ZeroRateNeverFires) {
  const UpdateModel process = UpdateModel::Poisson(0.0);
  Rng rng(1);
  EXPECT_TRUE(std::isinf(process.NextUpdateTime(0.0, &rng, nullptr)));
}

TEST(PoissonProcessTest, RandomWalkStepsAreUnit) {
  const UpdateModel process = UpdateModel::Poisson(1.0);
  Rng rng(2);
  double value = 0.0;
  int ups = 0;
  for (int i = 0; i < 10000; ++i) {
    const double next = process.ApplyUpdate(value, &rng, nullptr);
    EXPECT_DOUBLE_EQ(std::abs(next - value), 1.0);
    ups += next > value;
    value = next;
  }
  EXPECT_NEAR(ups / 10000.0, 0.5, 0.02);  // symmetric walk
}

TEST(BernoulliProcessTest, UpdatesOnIntegerSeconds) {
  const UpdateModel process = UpdateModel::Bernoulli(0.5);
  Rng rng(3);
  double t = 0.3;
  for (int i = 0; i < 1000; ++i) {
    t = process.NextUpdateTime(t, &rng, nullptr);
    EXPECT_DOUBLE_EQ(t, std::floor(t));  // integer times only
  }
}

TEST(BernoulliProcessTest, ProbabilityOneFiresEverySecond) {
  const UpdateModel process = UpdateModel::Bernoulli(1.0);
  Rng rng(4);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng, nullptr), 1.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.0, &rng, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.5, &rng, nullptr), 2.0);
}

TEST(BernoulliProcessTest, LongRunRateMatchesProbability) {
  const double p = 0.2;
  const UpdateModel process = UpdateModel::Bernoulli(p);
  Rng rng(5);
  double t = 0.0;
  int count = 0;
  while (t < 100000.0) {
    t = process.NextUpdateTime(t, &rng, nullptr);
    if (t < 100000.0) ++count;
  }
  EXPECT_NEAR(count / 100000.0, p, 0.01);
}

TEST(TraceModelTest, ReplaysPointsInOrder) {
  Workload workload;
  const UpdateModel process = workload.AddTrace({{1.0, 10.0}, {2.0, 20.0}, {4.0, 40.0}});
  const TracePoint* cursor = workload.TraceStart(process);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng, &cursor), 1.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(0.0, &rng, &cursor), 10.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.0, &rng, &cursor), 2.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(10.0, &rng, &cursor), 20.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(2.0, &rng, &cursor), 4.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(20.0, &rng, &cursor), 40.0);
  EXPECT_TRUE(std::isinf(process.NextUpdateTime(4.0, &rng, &cursor)));
  // Past the end the value stays put, and the cursor never leaves the trace.
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(40.0, &rng, &cursor), 40.0);
  EXPECT_TRUE(std::isinf(process.NextUpdateTime(1e9, &rng, &cursor)));
}

TEST(TraceModelTest, EachCursorReplaysFromTheStart) {
  // The model is immutable; a fresh cursor is a rewind, and two cursors over
  // one stored trace advance independently.
  Workload workload;
  workload.AddTrace({{0.5, 1.0}});  // another trace stored first
  const UpdateModel process = workload.AddTrace({{1.0, 10.0}, {2.0, 20.0}});
  const TracePoint* first = workload.TraceStart(process);
  const TracePoint* second = workload.TraceStart(process);
  Rng rng(1);
  process.NextUpdateTime(0.0, &rng, &first);
  process.ApplyUpdate(0.0, &rng, &first);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(0.0, &rng, &second), 1.0);
  EXPECT_DOUBLE_EQ(process.ApplyUpdate(0.0, &rng, &second), 10.0);
  EXPECT_DOUBLE_EQ(process.NextUpdateTime(1.0, &rng, &first), 2.0);
}

TEST(TraceModelTest, RateIsPointsOverSpan) {
  Workload workload;
  const UpdateModel process = workload.AddTrace({{0.0, 1.0}, {10.0, 2.0}, {20.0, 3.0}});
  EXPECT_DOUBLE_EQ(process.mean_rate(), 0.1);  // 2 gaps over 20 s
}

TEST(TraceModelTest, EmptyTraceNeverFires) {
  Workload workload;
  const UpdateModel process = workload.AddTrace({});
  const TracePoint* cursor = workload.TraceStart(process);
  Rng rng(1);
  EXPECT_TRUE(std::isinf(process.NextUpdateTime(0.0, &rng, &cursor)));
  EXPECT_DOUBLE_EQ(process.mean_rate(), 0.0);
}

TEST(SignalTest, ProductMultipliesFactors) {
  const Signal weight = Signal::Product(Signal::Constant(3.0), Signal::Constant(2.0));
  EXPECT_DOUBLE_EQ(weight.ValueAt(0.0), 6.0);
  EXPECT_DOUBLE_EQ(weight.average(), 6.0);
}

// ---------------------------------------------------------------- Workload

TEST(WorkloadTest, RejectsInvalidConfig) {
  WorkloadConfig config;
  config.num_sources = 0;
  EXPECT_FALSE(MakeWorkload(config).ok());
  config.num_sources = 1;
  config.objects_per_source = 0;
  EXPECT_FALSE(MakeWorkload(config).ok());
  config.objects_per_source = 1;
  config.rate_lo = -1.0;
  EXPECT_FALSE(MakeWorkload(config).ok());
}

TEST(WorkloadTest, RejectsBernoulliProbabilityAboveOne) {
  WorkloadConfig config;
  config.update_model = WorkloadConfig::UpdateModel::kBernoulli;
  config.rate_hi = 2.0;
  EXPECT_FALSE(MakeWorkload(config).ok());
}

TEST(WorkloadTest, ShapesAndGrouping) {
  WorkloadConfig config;
  config.num_sources = 3;
  config.objects_per_source = 5;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->total_objects(), 15);
  for (int64_t i = 0; i < 15; ++i) {
    EXPECT_EQ(workload->objects[i].source_index, i / 5);
    EXPECT_EQ(workload->objects[i].update.kind, UpdateKind::kPoisson);
    EXPECT_EQ(workload->objects[i].weight_id, Workload::kUnitWeight);
    EXPECT_EQ(workload->num_replicas(i), 1);
  }
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  WorkloadConfig config;
  config.num_sources = 2;
  config.objects_per_source = 10;
  config.seed = 99;
  auto a = MakeWorkload(config);
  auto b = MakeWorkload(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t i = 0; i < a->total_objects(); ++i) {
    EXPECT_DOUBLE_EQ(a->objects[i].lambda(), b->objects[i].lambda());
    EXPECT_EQ(a->objects[i].rng_seed, b->objects[i].rng_seed);
  }
}

TEST(WorkloadTest, UniformRatesWithinRange) {
  WorkloadConfig config;
  config.objects_per_source = 1000;
  config.rate_lo = 0.1;
  config.rate_hi = 0.9;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  double sum = 0.0;
  for (const auto& spec : workload->objects) {
    EXPECT_GE(spec.lambda(), 0.1);
    EXPECT_LT(spec.lambda(), 0.9);
    sum += spec.lambda();
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.03);
}

TEST(WorkloadTest, HalfSlowHalfFastSplit) {
  WorkloadConfig config;
  config.objects_per_source = 100;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.slow_rate = 0.01;
  config.fast_rate = 1.0;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  int slow = 0;
  int fast = 0;
  for (const auto& spec : workload->objects) {
    if (spec.lambda() == 0.01) ++slow;
    if (spec.lambda() == 1.0) ++fast;
  }
  EXPECT_EQ(slow, 50);
  EXPECT_EQ(fast, 50);
}

TEST(WorkloadTest, HalfHeavyWeights) {
  WorkloadConfig config;
  config.objects_per_source = 100;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.heavy_weight = 10.0;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  int heavy = 0;
  for (const auto& spec : workload->objects) {
    const double w = workload->weights[spec.weight_id].average();
    EXPECT_TRUE(w == 1.0 || w == 10.0);
    heavy += w == 10.0;
  }
  EXPECT_EQ(heavy, 50);
}

TEST(WorkloadTest, WeightAndRateSplitsAreIndependent) {
  // With independent random halves, the overlap of heavy & fast should be
  // around 25% of objects, not 0% or 50%.
  WorkloadConfig config;
  config.objects_per_source = 1000;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  int heavy_fast = 0;
  for (const auto& spec : workload->objects) {
    if (workload->weights[spec.weight_id].average() == 10.0 && spec.lambda() == 1.0) ++heavy_fast;
  }
  EXPECT_GT(heavy_fast, 150);
  EXPECT_LT(heavy_fast, 350);
}

TEST(WorkloadTest, FluctuatingWeightsFlagged) {
  WorkloadConfig config;
  config.weight_fluctuation_amplitude = 0.5;
  auto workload = MakeWorkload(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE(workload->has_fluctuating_weights);
}

// -------------------------------------------------------------- Buoy trace

TEST(BuoyTraceTest, ShapeAndRange) {
  BuoyTraceConfig config;
  config.num_buoys = 5;
  config.duration = 86400.0;  // 1 day
  auto traces = GenerateBuoyTraces(config);
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ(traces->size(), 10u);  // 5 buoys x 2 components
  for (const auto& trace : *traces) {
    EXPECT_EQ(trace.size(), 144u);  // 86400 / 600
    for (const auto& point : trace) {
      EXPECT_GE(point.value, 0.0);
      EXPECT_LE(point.value, 10.0);
    }
  }
}

TEST(BuoyTraceTest, TypicalValuesNearFive) {
  BuoyTraceConfig config;
  auto traces = GenerateBuoyTraces(config);
  ASSERT_TRUE(traces.ok());
  double sum = 0.0;
  int64_t count = 0;
  for (const auto& trace : *traces) {
    for (const auto& point : trace) {
      sum += point.value;
      ++count;
    }
  }
  // The paper: values "generally in the range of 0-10, with typical values
  // of around 5".
  EXPECT_NEAR(sum / count, 5.0, 1.0);
}

TEST(BuoyTraceTest, MeasurementsEveryTenMinutes) {
  BuoyTraceConfig config;
  config.num_buoys = 1;
  config.components_per_buoy = 1;
  config.duration = 6000.0;
  auto traces = GenerateBuoyTraces(config);
  ASSERT_TRUE(traces.ok());
  const auto& trace = (*traces)[0];
  for (size_t k = 0; k < trace.size(); ++k) {
    EXPECT_DOUBLE_EQ(trace[k].time, 600.0 * (k + 1));
  }
}

TEST(BuoyTraceTest, WorkloadUsesOneSourcePerBuoy) {
  BuoyTraceConfig config;
  config.num_buoys = 4;
  config.duration = 86400.0;
  auto workload = MakeBuoyWorkload(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->num_sources, 4);
  EXPECT_EQ(workload->objects_per_source, 2);
  EXPECT_EQ(workload->total_objects(), 8);
  for (const auto& spec : workload->objects) {
    EXPECT_DOUBLE_EQ(workload->weights[spec.weight_id].average(), 1.0);  // equally weighted
    EXPECT_GT(spec.lambda(), 0.0);
  }
}

TEST(BuoyTraceTest, DeterministicForSeed) {
  BuoyTraceConfig config;
  config.num_buoys = 2;
  config.duration = 36000.0;
  auto a = GenerateBuoyTraces(config);
  auto b = GenerateBuoyTraces(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    for (size_t k = 0; k < (*a)[i].size(); ++k) {
      EXPECT_DOUBLE_EQ((*a)[i][k].value, (*b)[i][k].value);
    }
  }
}

TEST(BuoyTraceTest, RejectsInvalidConfigs) {
  BuoyTraceConfig config;
  config.num_buoys = 0;
  EXPECT_FALSE(GenerateBuoyTraces(config).ok());
  config = BuoyTraceConfig{};
  config.reversion = 0.0;
  EXPECT_FALSE(GenerateBuoyTraces(config).ok());
  config = BuoyTraceConfig{};
  config.max_value = config.min_value;
  EXPECT_FALSE(GenerateBuoyTraces(config).ok());
}

// ------------------------------------------------------------ pinned streams
// The first 50 NextUpdateTime / ApplyUpdate results of every update-model
// kind and the first 50 ValueAt results of every weight shape, recorded as
// exact hex-float values from the virtual-class implementation the value
// types replaced. EXPECT_EQ: any change to an RNG draw or to a float
// expression shows up here.

std::vector<TracePoint> PinTrace() {
  std::vector<TracePoint> points;
  for (int k = 0; k < 55; ++k) {
    points.push_back({1.0 + 1.5 * k + 0.25 * (k % 3), 0.5 * ((k * 7) % 13)});
  }
  return points;
}

constexpr double kPoissonPins[][2] = {
    {0x1.ba00d68a7e905p-3, -0x1p+1},
    {0x1.1253919824d92p-2, -0x1p+2},
    {0x1.16f41808965fbp+1, -0x1.8p+2},
    {0x1.45dadb1283fd5p+2, -0x1p+2},
    {0x1.5b86dc9f6612bp+2, -0x1p+1},
    {0x1.8061f9f157b9fp+2, 0x0p+0},
    {0x1.ecd2bd1cb5e0ep+2, 0x1p+1},
    {0x1.5eb09b66a283cp+3, 0x0p+0},
    {0x1.d36b88108a691p+3, -0x1p+1},
    {0x1.d686bffdd7943p+3, 0x0p+0},
    {0x1.27b814dc5f2a3p+4, 0x1p+1},
    {0x1.2933dd6491e6ap+4, 0x0p+0},
    {0x1.2c9abf9b2d963p+4, -0x1p+1},
    {0x1.3d367aa45e505p+4, 0x0p+0},
    {0x1.8d39894abd722p+4, 0x1p+1},
    {0x1.9774b8b6eb7e2p+4, 0x1p+2},
    {0x1.a39ca1061cc95p+4, 0x1p+1},
    {0x1.d28ff2014d2e1p+4, 0x0p+0},
    {0x1.038af6aaddb65p+5, -0x1p+1},
    {0x1.32072affa991ep+5, -0x1p+2},
    {0x1.4746e1e051fe2p+5, -0x1p+1},
    {0x1.50d278e9e06fep+5, 0x0p+0},
    {0x1.5d4ff5744deep+5, -0x1p+1},
    {0x1.71924e6c98296p+5, 0x0p+0},
    {0x1.7468126f556d7p+5, -0x1p+1},
    {0x1.75b6d7ec6e54dp+5, 0x0p+0},
    {0x1.7a47dd8451627p+5, -0x1p+1},
    {0x1.824f18e19768dp+5, -0x1p+2},
    {0x1.8ba458bdee715p+5, -0x1.8p+2},
    {0x1.a04a1a4a6a2bp+5, -0x1p+2},
    {0x1.a0bb0070879a8p+5, -0x1.8p+2},
    {0x1.b0266a2d2dc27p+5, -0x1p+3},
    {0x1.b5d1f1f878bcp+5, -0x1.4p+3},
    {0x1.bb4aa8af17699p+5, -0x1.8p+3},
    {0x1.cef0150379054p+5, -0x1.4p+3},
    {0x1.cf2a043c07a9dp+5, -0x1p+3},
    {0x1.d75ba8303b19bp+5, -0x1.8p+2},
    {0x1.e0650c8683d74p+5, -0x1p+3},
    {0x1.ebed180e53e36p+5, -0x1.4p+3},
    {0x1.f21e7741bf4d9p+5, -0x1p+3},
    {0x1.fb26ec1f21b7dp+5, -0x1.4p+3},
    {0x1.024daca1e2bd3p+6, -0x1.8p+3},
    {0x1.329af9da93e4ep+6, -0x1.4p+3},
    {0x1.344ac8034c5bfp+6, -0x1.8p+3},
    {0x1.34f3e358c9bfbp+6, -0x1.cp+3},
    {0x1.350b5c437085fp+6, -0x1p+4},
    {0x1.55044e31b7eabp+6, -0x1.2p+4},
    {0x1.5800256933255p+6, -0x1.4p+4},
    {0x1.59baac3d05666p+6, -0x1.2p+4},
    {0x1.5fdce1d2dca43p+6, -0x1.4p+4},
};
constexpr double kBernoulliPins[][2] = {
    {0x1.8p+1, -0x1.8p+0},
    {0x1.cp+2, 0x0p+0},
    {0x1.1p+4, 0x1.8p+0},
    {0x1.4p+4, 0x0p+0},
    {0x1.7p+4, -0x1.8p+0},
    {0x1.18p+5, 0x0p+0},
    {0x1.2p+5, -0x1.8p+0},
    {0x1.58p+5, 0x0p+0},
    {0x1.68p+5, 0x1.8p+0},
    {0x1.7p+5, 0x1.8p+1},
    {0x1.9p+5, 0x1.8p+0},
    {0x1.bp+5, 0x0p+0},
    {0x1.dp+5, -0x1.8p+0},
    {0x1.d8p+5, -0x1.8p+1},
    {0x1.ep+5, -0x1.8p+0},
    {0x1.f8p+5, -0x1.8p+1},
    {0x1.0cp+6, -0x1.2p+2},
    {0x1.1p+6, -0x1.8p+1},
    {0x1.5p+6, -0x1.8p+0},
    {0x1.58p+6, 0x0p+0},
    {0x1.5cp+6, -0x1.8p+0},
    {0x1.68p+6, 0x0p+0},
    {0x1.6cp+6, 0x1.8p+0},
    {0x1.7p+6, 0x1.8p+1},
    {0x1.98p+6, 0x1.2p+2},
    {0x1.ap+6, 0x1.8p+1},
    {0x1.a4p+6, 0x1.2p+2},
    {0x1.a8p+6, 0x1.8p+1},
    {0x1.b8p+6, 0x1.8p+0},
    {0x1.bcp+6, 0x0p+0},
    {0x1.c4p+6, -0x1.8p+0},
    {0x1.ccp+6, 0x0p+0},
    {0x1.dp+6, -0x1.8p+0},
    {0x1.d8p+6, 0x0p+0},
    {0x1.fp+6, 0x1.8p+0},
    {0x1.02p+7, 0x0p+0},
    {0x1.06p+7, 0x1.8p+0},
    {0x1.0ap+7, 0x0p+0},
    {0x1.46p+7, 0x1.8p+0},
    {0x1.48p+7, 0x1.8p+1},
    {0x1.5p+7, 0x1.2p+2},
    {0x1.58p+7, 0x1.8p+2},
    {0x1.5cp+7, 0x1.ep+2},
    {0x1.6p+7, 0x1.2p+3},
    {0x1.66p+7, 0x1.5p+3},
    {0x1.68p+7, 0x1.2p+3},
    {0x1.6cp+7, 0x1.ep+2},
    {0x1.76p+7, 0x1.2p+3},
    {0x1.8p+7, 0x1.5p+3},
    {0x1.96p+7, 0x1.2p+3},
};
constexpr double kBernoulliAlwaysPins[][2] = {
    {0x1p+0, 0x1p-1},
    {0x1p+1, 0x1p+0},
    {0x1.8p+1, 0x1p-1},
    {0x1p+2, 0x0p+0},
    {0x1.4p+2, 0x1p-1},
    {0x1.8p+2, 0x1p+0},
    {0x1.cp+2, 0x1.8p+0},
    {0x1p+3, 0x1p+1},
    {0x1.2p+3, 0x1.8p+0},
    {0x1.4p+3, 0x1p+1},
    {0x1.6p+3, 0x1.8p+0},
    {0x1.8p+3, 0x1p+0},
    {0x1.ap+3, 0x1.8p+0},
    {0x1.cp+3, 0x1p+0},
    {0x1.ep+3, 0x1.8p+0},
    {0x1p+4, 0x1p+1},
    {0x1.1p+4, 0x1.4p+1},
    {0x1.2p+4, 0x1.8p+1},
    {0x1.3p+4, 0x1.cp+1},
    {0x1.4p+4, 0x1.8p+1},
    {0x1.5p+4, 0x1.cp+1},
    {0x1.6p+4, 0x1.8p+1},
    {0x1.7p+4, 0x1.4p+1},
    {0x1.8p+4, 0x1p+1},
    {0x1.9p+4, 0x1.8p+0},
    {0x1.ap+4, 0x1p+1},
    {0x1.bp+4, 0x1.8p+0},
    {0x1.cp+4, 0x1p+1},
    {0x1.dp+4, 0x1.4p+1},
    {0x1.ep+4, 0x1.8p+1},
    {0x1.fp+4, 0x1.cp+1},
    {0x1p+5, 0x1.8p+1},
    {0x1.08p+5, 0x1.4p+1},
    {0x1.1p+5, 0x1p+1},
    {0x1.18p+5, 0x1.4p+1},
    {0x1.2p+5, 0x1p+1},
    {0x1.28p+5, 0x1.8p+0},
    {0x1.3p+5, 0x1p+0},
    {0x1.38p+5, 0x1.8p+0},
    {0x1.4p+5, 0x1p+0},
    {0x1.48p+5, 0x1p-1},
    {0x1.5p+5, 0x1p+0},
    {0x1.58p+5, 0x1.8p+0},
    {0x1.6p+5, 0x1p+0},
    {0x1.68p+5, 0x1p-1},
    {0x1.7p+5, 0x0p+0},
    {0x1.78p+5, -0x1p-1},
    {0x1.8p+5, 0x0p+0},
    {0x1.88p+5, -0x1p-1},
    {0x1.9p+5, -0x1p+0},
};
constexpr double kRegimeSwitchingPins[][2] = {
    {0x1.a1eb642584695p-3, 0x1.8p+0},
    {0x1.77a8256de7329p-1, 0x0p+0},
    {0x1.10ca25fdbd39fp+0, 0x1.8p+0},
    {0x1.56b8938762d7ep+0, 0x1.8p+1},
    {0x1.7b8774ca45876p+0, 0x1.8p+0},
    {0x1.156a943849842p+1, 0x1.8p+1},
    {0x1.51dbeb443e04ap+1, 0x1.2p+2},
    {0x1.96ca9f6478878p+1, 0x1.8p+2},
    {0x1.e6be87e05d58ep+1, 0x1.2p+2},
    {0x1.06686dfc969dbp+2, 0x1.8p+1},
    {0x1.fd679676032a8p+2, 0x1.8p+0},
    {0x1.156b0d4cb13aep+3, 0x0p+0},
    {0x1.45af858a8d5b6p+3, -0x1.8p+0},
    {0x1.722d6a6e7aa55p+3, -0x1.8p+1},
    {0x1.789840cf2a2ddp+3, -0x1.8p+0},
    {0x1.fc62a3c2c01e4p+3, -0x1.8p+1},
    {0x1.2cdbf657eedd2p+4, -0x1.8p+0},
    {0x1.397d8da7bf192p+4, 0x0p+0},
    {0x1.42ec36c00fe46p+4, -0x1.8p+0},
    {0x1.514c89ebc7d97p+4, -0x1.8p+1},
    {0x1.55ea9592e0eacp+4, -0x1.2p+2},
    {0x1.755a9e3d8b352p+4, -0x1.8p+2},
    {0x1.8970187e8f7e1p+4, -0x1.2p+2},
    {0x1.9aec924c31126p+4, -0x1.8p+1},
    {0x1.a5c2d2a84bc2dp+4, -0x1.2p+2},
    {0x1.abd974b9ff257p+4, -0x1.8p+2},
    {0x1.e0cedcae77cfcp+4, -0x1.ep+2},
    {0x1.08326ee394a9ep+5, -0x1.8p+2},
    {0x1.09048ef1307a7p+5, -0x1.ep+2},
    {0x1.0e2bb90c2b7e8p+5, -0x1.8p+2},
    {0x1.1133edc6db7f1p+5, -0x1.2p+2},
    {0x1.13583762b656p+5, -0x1.8p+2},
    {0x1.20ab689f72b5ep+5, -0x1.ep+2},
    {0x1.22046bd7518c5p+5, -0x1.2p+3},
    {0x1.234688ab763e6p+5, -0x1.ep+2},
    {0x1.250def503008bp+5, -0x1.2p+3},
    {0x1.28edc0f5dc77fp+5, -0x1.5p+3},
    {0x1.2c86a43f75778p+6, -0x1.8p+3},
    {0x1.30fae0f33df75p+6, -0x1.5p+3},
    {0x1.3243396f1acep+6, -0x1.2p+3},
    {0x1.32cf2322047f5p+6, -0x1.5p+3},
    {0x1.3395fa6463189p+6, -0x1.8p+3},
    {0x1.38991eee64a45p+6, -0x1.bp+3},
    {0x1.3b3269e18791dp+6, -0x1.8p+3},
    {0x1.4797cfa004179p+6, -0x1.5p+3},
    {0x1.48d8daca532b3p+6, -0x1.8p+3},
    {0x1.49d2488b4b9ep+6, -0x1.bp+3},
    {0x1.5074efb11c7f2p+6, -0x1.8p+3},
    {0x1.5212feb8941e2p+6, -0x1.5p+3},
    {0x1.5427789450192p+6, -0x1.2p+3},
};
constexpr double kDriftPins[][2] = {
    {0x1.aaaaaaaaaaaabp+1, 0x1.8p-1},
    {0x1.aaaaaaaaaaaabp+2, 0x1.8p+0},
    {0x1.4p+3, 0x1.2p+1},
    {0x1.aaaaaaaaaaaabp+3, 0x1.8p+1},
    {0x1.0aaaaaaaaaaabp+4, 0x1.ep+1},
    {0x1.4p+4, 0x1.2p+2},
    {0x1.7555555555556p+4, 0x1.5p+2},
    {0x1.aaaaaaaaaaaabp+4, 0x1.8p+2},
    {0x1.ep+4, 0x1.bp+2},
    {0x1.0aaaaaaaaaaabp+5, 0x1.ep+2},
    {0x1.2555555555556p+5, 0x1.08p+3},
    {0x1.4p+5, 0x1.2p+3},
    {0x1.5aaaaaaaaaaabp+5, 0x1.38p+3},
    {0x1.7555555555556p+5, 0x1.5p+3},
    {0x1.9p+5, 0x1.68p+3},
    {0x1.aaaaaaaaaaaabp+5, 0x1.8p+3},
    {0x1.c555555555556p+5, 0x1.98p+3},
    {0x1.ep+5, 0x1.bp+3},
    {0x1.faaaaaaaaaaabp+5, 0x1.c8p+3},
    {0x1.0aaaaaaaaaaabp+6, 0x1.ep+3},
    {0x1.18p+6, 0x1.f8p+3},
    {0x1.2555555555556p+6, 0x1.08p+4},
    {0x1.32aaaaaaaaaabp+6, 0x1.14p+4},
    {0x1.4p+6, 0x1.2p+4},
    {0x1.4d55555555556p+6, 0x1.2cp+4},
    {0x1.5aaaaaaaaaaabp+6, 0x1.38p+4},
    {0x1.68p+6, 0x1.44p+4},
    {0x1.7555555555556p+6, 0x1.5p+4},
    {0x1.82aaaaaaaaaabp+6, 0x1.5cp+4},
    {0x1.9p+6, 0x1.68p+4},
    {0x1.9d55555555556p+6, 0x1.74p+4},
    {0x1.aaaaaaaaaaaabp+6, 0x1.8p+4},
    {0x1.b8p+6, 0x1.8cp+4},
    {0x1.c555555555556p+6, 0x1.98p+4},
    {0x1.d2aaaaaaaaaabp+6, 0x1.a4p+4},
    {0x1.ep+6, 0x1.bp+4},
    {0x1.ed55555555556p+6, 0x1.bcp+4},
    {0x1.faaaaaaaaaaabp+6, 0x1.c8p+4},
    {0x1.04p+7, 0x1.d4p+4},
    {0x1.0aaaaaaaaaaabp+7, 0x1.ep+4},
    {0x1.1155555555556p+7, 0x1.ecp+4},
    {0x1.18p+7, 0x1.f8p+4},
    {0x1.1eaaaaaaaaaabp+7, 0x1.02p+5},
    {0x1.2555555555556p+7, 0x1.08p+5},
    {0x1.2cp+7, 0x1.0ep+5},
    {0x1.32aaaaaaaaaabp+7, 0x1.14p+5},
    {0x1.3955555555556p+7, 0x1.1ap+5},
    {0x1.4p+7, 0x1.2p+5},
    {0x1.46aaaaaaaaaabp+7, 0x1.26p+5},
    {0x1.4d55555555556p+7, 0x1.2cp+5},
};
constexpr double kTracePins[][2] = {
    {0x1p+0, 0x0p+0},
    {0x1.6p+1, 0x1.cp+1},
    {0x1.2p+2, 0x1p-1},
    {0x1.6p+2, 0x1p+2},
    {0x1.dp+2, 0x1p+0},
    {0x1.2p+3, 0x1.2p+2},
    {0x1.4p+3, 0x1.8p+0},
    {0x1.78p+3, 0x1.4p+2},
    {0x1.bp+3, 0x1p+1},
    {0x1.dp+3, 0x1.6p+2},
    {0x1.04p+4, 0x1.4p+1},
    {0x1.2p+4, 0x1.8p+2},
    {0x1.3p+4, 0x1.8p+1},
    {0x1.4cp+4, 0x0p+0},
    {0x1.68p+4, 0x1.cp+1},
    {0x1.78p+4, 0x1p-1},
    {0x1.94p+4, 0x1p+2},
    {0x1.bp+4, 0x1p+0},
    {0x1.cp+4, 0x1.2p+2},
    {0x1.dcp+4, 0x1.8p+0},
    {0x1.f8p+4, 0x1.4p+2},
    {0x1.04p+5, 0x1p+1},
    {0x1.12p+5, 0x1.6p+2},
    {0x1.2p+5, 0x1.4p+1},
    {0x1.28p+5, 0x1.8p+2},
    {0x1.36p+5, 0x1.8p+1},
    {0x1.44p+5, 0x0p+0},
    {0x1.4cp+5, 0x1.cp+1},
    {0x1.5ap+5, 0x1p-1},
    {0x1.68p+5, 0x1p+2},
    {0x1.7p+5, 0x1p+0},
    {0x1.7ep+5, 0x1.2p+2},
    {0x1.8cp+5, 0x1.8p+0},
    {0x1.94p+5, 0x1.4p+2},
    {0x1.a2p+5, 0x1p+1},
    {0x1.bp+5, 0x1.6p+2},
    {0x1.b8p+5, 0x1.4p+1},
    {0x1.c6p+5, 0x1.8p+2},
    {0x1.d4p+5, 0x1.8p+1},
    {0x1.dcp+5, 0x0p+0},
    {0x1.eap+5, 0x1.cp+1},
    {0x1.f8p+5, 0x1p-1},
    {0x1p+6, 0x1p+2},
    {0x1.07p+6, 0x1p+0},
    {0x1.0ep+6, 0x1.2p+2},
    {0x1.12p+6, 0x1.8p+0},
    {0x1.19p+6, 0x1.4p+2},
    {0x1.2p+6, 0x1p+1},
    {0x1.24p+6, 0x1.6p+2},
    {0x1.2bp+6, 0x1.4p+1},
};
constexpr double kTraceRatePin = 0x1.5555555555555p-1;
constexpr double kConstantAverage = 0x1.4p+1;
constexpr double kConstantPins[] = {
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
    0x1.4p+1,
};
constexpr double kSineAverage = 0x1.8p+1;
constexpr double kSinePins[] = {
    0x1.e2f3ab92ea15p+1,
    0x1.0266614ad1695p+2,
    0x1.0b87824336402p+2,
    0x1.0bcade82c8dbap+2,
    0x1.03288dc24b5fdp+2,
    0x1.e5480e875afa2p+1,
    0x1.b85b58f942686p+1,
    0x1.84d108394a158p+1,
    0x1.50b5f90790aebp+1,
    0x1.222805e939611p+1,
    0x1.fd3c6dde8ec14p+0,
    0x1.d4890d7b8217ep+0,
    0x1.cefd08618fe46p+0,
    0x1.ed3f104540351p+0,
    0x1.15e0ecb79de9p+1,
    0x1.41976c3608181p+1,
    0x1.74a1638d3894ep+1,
    0x1.a9010712f42bfp+1,
    0x1.d8906f58639ecp+1,
    0x1.fdba5b50b584p+1,
    0x1.0a10fbc2e85c6p+2,
    0x1.0c92fc2fd2681p+2,
    0x1.0617d1d4eb864p+2,
    0x1.eec482287114cp+1,
    0x1.c458a582f23cap+1,
    0x1.91e6e0aee26f8p+1,
    0x1.5d5b219533571p+1,
    0x1.2ce07d2566c5fp+1,
    0x1.0627d1959b127p+1,
    0x1.db7982ae1fe3p+0,
    0x1.ccfa3448f5e7ap+0,
    0x1.e285623d9e87ap+0,
    0x1.0cc9d09c675a8p+1,
    0x1.35d7381d4edc6p+1,
    0x1.67993871380ep+1,
    0x1.9c3885c2c7e6p+1,
    0x1.cd87bf7633961p+1,
    0x1.f5bd12e5a61dap+1,
    0x1.0810172d5c623p+2,
    0x1.0ccc0c6b93e1ep+2,
    0x1.0884240ae5168p+2,
    0x1.f7720764d6c25p+1,
    0x1.cfd64393a7b2p+1,
    0x1.9edb479c32f72p+1,
    0x1.6a410291ffe65p+1,
    0x1.38343dd629409p+1,
    0x1.0e950c1ba16d8p+1,
    0x1.e48c738de0346p+0,
    0x1.cd34f12a707bdp+0,
    0x1.d9e105f840da3p+0,
};
constexpr double kProductAverage = 0x1.8p+1;
constexpr double kProductPins[] = {
    0x1.695fc665dd3d1p+2,
    0x1.55ba14447e8d2p+2,
    0x1.186df1400af13p+2,
    0x1.982484d33de7p+1,
    0x1.1a9afc8c72e4fp+1,
    0x1.aac8d3fb190d6p+0,
    0x1.83bc338dc17dcp+0,
    0x1.8c4a7e15dda01p+0,
    0x1.97a3d07408a9fp+0,
    0x1.9583f84ae5e35p+0,
    0x1.88ebec619b707p+0,
    0x1.7626348d8378ap+0,
    0x1.60b906cbbd9eep+0,
    0x1.5a3dd0dbbd195p+0,
    0x1.8afff42c46cb7p+0,
    0x1.0f528410aff8ep+1,
    0x1.8d7350d0c5b63p+1,
    0x1.10a9c48c9b89dp+2,
    0x1.49ca0153d34ap+2,
    0x1.59cc0a8ab1e0fp+2,
    0x1.3cc102fc8e86bp+2,
    0x1.0816236a4f35p+2,
    0x1.bc5c2cc002211p+1,
    0x1.b07a525aaa315p+1,
    0x1.ebdad7a6f58cfp+1,
    0x1.1e70df8dcaae5p+2,
    0x1.31db07c7c10ep+2,
    0x1.1de6afbcde758p+2,
    0x1.cf6d1a7bc2dbfp+1,
    0x1.4aba9291fef6ep+1,
    0x1.b898dac5f3f51p+0,
    0x1.381a96f877276p+0,
    0x1.0f6cdff4cfc13p+0,
    0x1.210f8fca909b7p+0,
    0x1.535fb96aa4036p+0,
    0x1.9694539c98272p+0,
    0x1.d908ba80eb106p+0,
    0x1.012c15d4aec88p+1,
    0x1.022ca56858109p+1,
    0x1.f4d94c9546838p+0,
    0x1.08aefadfb1c01p+1,
    0x1.4dda6be0743aep+1,
    0x1.d0ea20ea1561p+1,
    0x1.376818633ed57p+2,
    0x1.73b36264c66b6p+2,
    0x1.818c6a3659303p+2,
    0x1.5c004fd26b3dp+2,
    0x1.19631633bafa8p+2,
    0x1.bb11ab6fd43c6p+1,
    0x1.864899c6dc33ep+1,
};
constexpr double kProductConstantSineAverage = 0x1.8p+2;
constexpr double kProductConstantSinePins[] = {
    0x1.1d238776009fbp+3,
    0x1.08b6c023d53bcp+3,
    0x1.deea0e7162d16p+2,
    0x1.a61803a8898acp+2,
    0x1.6abdf44567372p+2,
    0x1.30cd8421d5164p+2,
    0x1.f8409eff99cc8p+1,
    0x1.a06cd96ad21ccp+1,
    0x1.5ff5c1786b9e4p+1,
    0x1.3b23f71f5f912p+1,
    0x1.3469d18bb9e08p+1,
    0x1.4c39c05f0428cp+1,
    0x1.80feb10106afep+1,
    0x1.cf36f95c23f14p+1,
    0x1.18d7ff111dd0cp+2,
    0x1.50ef4ef2ea824p+2,
    0x1.8c274077b10fap+2,
    0x1.c6907422683f2p+2,
    0x1.fc49475d98183p+2,
    0x1.14dfeda8dc5dep+3,
    0x1.25f7676c87a84p+3,
    0x1.304851458d0b2p+3,
    0x1.33232e544d392p+3,
    0x1.2e576dcbd319p+3,
    0x1.2236a51995c67p+3,
    0x1.0f8f241122038p+3,
    0x1.ef3c7ea86137p+2,
    0x1.b7f6745a7ee5cp+2,
    0x1.7cf86d2248c65p+2,
    0x1.422def48f4544p+2,
    0x1.0b7f1465d0dbfp+2,
    0x1.b91c291ccb292p+1,
    0x1.70f2ec8deb3b6p+1,
    0x1.434dfd688ae84p+1,
    0x1.3335d16487171p+1,
    0x1.41bc31362d23ep+1,
    0x1.6dea072f76e9p+1,
    0x1.b4cfca6f71689p+1,
    0x1.08dbb7a97a104p+2,
    0x1.3f3a45d08f6ccp+2,
    0x1.79e6ad94592ep+2,
    0x1.b4fad52a8b332p+2,
    0x1.ec89bde4c1b36p+2,
    0x1.0e7126226bf9ap+3,
    0x1.21670aa8583eap+3,
    0x1.2de402681ce14p+3,
    0x1.33139d680e72bp+3,
    0x1.309da39cbd317p+3,
    0x1.26abf19ca8e6ap+3,
    0x1.15e7b0832e8b9p+3,
};
constexpr double kWeightFactoryAverage = 0x1p+1;
constexpr double kWeightFactoryPins[] = {
    0x1.2db0adb5d42a7p+0,
    0x1.297043d2c3c86p+0,
    0x1.2b5e1613e613ap+0,
    0x1.336beae672493p+0,
    0x1.415e5dc84e9e6p+0,
    0x1.54ce954243f93p+0,
    0x1.6d2d3958ac53ep+0,
    0x1.89c69499a9d3fp+0,
    0x1.a9c7c155e2585p+0,
    0x1.cc44bcd7338c6p+0,
    0x1.f03f33c8cd50dp+0,
    0x1.0a56ead73b325p+1,
    0x1.1c41fcb264421p+1,
    0x1.2d5cad274f106p+1,
    0x1.3d28da8ef98edp+1,
    0x1.4b32060aacc7ep+1,
    0x1.5710ae95fcda4p+1,
    0x1.606d4c4b09984p+1,
    0x1.6702d5dc76623p+1,
    0x1.6aa0bdad2dc49p+1,
    0x1.6b2c57dbc0445p+1,
    0x1.68a19ef10d179p+1,
    0x1.63135187d1409p+1,
    0x1.5aaa68126ed0fp+1,
    0x1.4fa4e6ba40021p+1,
    0x1.4254140c6eeb8p+1,
    0x1.331a21a0c216p+1,
    0x1.226757fe204a6p+1,
    0x1.10b6da988fa73p+1,
    0x1.fd1637854989bp+0,
    0x1.d8d4357548e12p+0,
    0x1.b5b30f1208817p+0,
    0x1.94b5d24e1288ep+0,
    0x1.76cfc4a6e149p+0,
    0x1.5cdd6131a0695p+0,
    0x1.479dfeb87234ap+0,
    0x1.37ae4cbdf2ce4p+0,
    0x1.2d83d00bf8feep+0,
    0x1.2969801620e2fp+0,
    0x1.2b7d9e26c8931p+0,
    0x1.33b0d6432c2aep+0,
    0x1.41c6b033e5637p+0,
    0x1.55574d704517ep+0,
    0x1.6dd2671431f14p+0,
    0x1.8a8375d025603p+0,
    0x1.aa96e52d82df8p+0,
    0x1.cd202bce2910cp+0,
    0x1.f1209bb58a11p+0,
    0x1.0ac75c2e3a2f4p+1,
    0x1.1caeee3b0bd69p+1,
};
constexpr uint64_t kAfterWeightFactoryDraw = 8202116483969451005ULL;
constexpr double kBandwidthFactoryAverage = 0x1.4p+3;
constexpr double kBandwidthFactoryPins[] = {
    0x1.ded5ae33098c5p+3,
    0x1.bba541cc25bc6p+3,
    0x1.71c8ae9ac076dp+3,
    0x1.1859f7d1717cep+3,
    0x1.96a3bc2200718p+2,
    0x1.45906ce249117p+2,
    0x1.56d59ef03869fp+2,
    0x1.c50c826877dbcp+2,
    0x1.36de2d4bc416cp+3,
    0x1.8e114c1c67ebap+3,
    0x1.ccd9a3d8b1083p+3,
    0x1.df94470fbfcf4p+3,
    0x1.c06598ce907fep+3,
    0x1.790e54de31a84p+3,
    0x1.1fdea944ab4a5p+3,
    0x1.a1773d9a6d012p+2,
    0x1.48cb35be32407p+2,
    0x1.51751785a8c04p+2,
    0x1.b8bf33c2aac7bp+2,
    0x1.2f2da3016407dp+3,
    0x1.873e918907546p+3,
    0x1.c9070b7e0206ep+3,
    0x1.dff3e3e1bd26ap+3,
    0x1.c4d98337399e2p+3,
    0x1.8032052b3d304p+3,
    0x1.27767a98224b8p+3,
    0x1.accf33f2a0eaap+2,
    0x1.4cbf3af5ce18cp+2,
    0x1.4cc8a456cfdd8p+2,
    0x1.ace87e81884ddp+2,
    0x1.27871bf16e68ap+3,
    0x1.80416f05815dp+3,
    0x1.c4e2e36eb78fp+3,
    0x1.dff44bbff18fep+3,
    0x1.c8fe5a8656b4ap+3,
    0x1.872f7fa1fe6f5p+3,
    0x1.2f1ce6ccabf01p+3,
    0x1.b8a4deac72ac8p+2,
    0x1.516a22297e166p+2,
    0x1.48d30d89ef9adp+2,
    0x1.a18f6e943c7p+2,
    0x1.1fef25dc7da01p+3,
    0x1.791e0d7f0be5p+3,
    0x1.c06fa2b139a8cp+3,
    0x1.df957e6c8a0e1p+3,
    0x1.ccd1a74d2ffap+3,
    0x1.8e029b20e6188p+3,
    0x1.36cd6031aa3dfp+3,
    0x1.c4f132775af8cp+2,
    0x1.56c9241eb26cfp+2,
};
constexpr uint64_t kAfterBandwidthFactoryDraw = 5043981671190182751ULL;

/// Replays `model` from time 0 with Rng(seed), alternating NextUpdateTime and
/// ApplyUpdate, and checks every result against `pins`.
void ExpectPinnedStream(const UpdateModel& model, const TracePoint* cursor,
                        uint64_t seed, const double (&pins)[50][2]) {
  Rng rng(seed);
  double now = 0.0;
  double value = 0.0;
  for (int k = 0; k < 50; ++k) {
    const double t = model.NextUpdateTime(now, &rng, &cursor);
    value = model.ApplyUpdate(value, &rng, &cursor);
    EXPECT_EQ(t, pins[k][0]) << "update " << k;
    EXPECT_EQ(value, pins[k][1]) << "update " << k;
    now = t;
  }
}

void ExpectPinnedSignal(const Signal& signal, double average, const double (&pins)[50]) {
  EXPECT_EQ(signal.average(), average);
  for (int k = 0; k < 50; ++k) EXPECT_EQ(signal.ValueAt(13.7 * k), pins[k]) << "k " << k;
}

TEST(UpdateModelPinTest, Poisson) {
  ExpectPinnedStream(UpdateModel::Poisson(0.7, 2.0), nullptr, 11, kPoissonPins);
}

TEST(UpdateModelPinTest, Bernoulli) {
  ExpectPinnedStream(UpdateModel::Bernoulli(0.3, 1.5), nullptr, 12, kBernoulliPins);
}

TEST(UpdateModelPinTest, BernoulliProbabilityOne) {
  ExpectPinnedStream(UpdateModel::Bernoulli(1.0, 0.5), nullptr, 13, kBernoulliAlwaysPins);
}

TEST(UpdateModelPinTest, RegimeSwitching) {
  ExpectPinnedStream(UpdateModel::RegimeSwitching(0.8, 0.05, 37.5, 1.5), nullptr, 14,
                     kRegimeSwitchingPins);
}

TEST(UpdateModelPinTest, Drift) {
  ExpectPinnedStream(UpdateModel::Drift(0.3, 0.75), nullptr, 15, kDriftPins);
}

TEST(UpdateModelPinTest, Trace) {
  Workload workload;
  workload.AddTrace({{0.25, 9.0}});  // the pinned trace is not the first stored
  const UpdateModel model = workload.AddTrace(PinTrace());
  EXPECT_EQ(model.mean_rate(), kTraceRatePin);
  ExpectPinnedStream(model, workload.TraceStart(model), 16, kTracePins);
}

TEST(SignalPinTest, Constant) {
  ExpectPinnedSignal(Signal::Constant(2.5), kConstantAverage, kConstantPins);
}

TEST(SignalPinTest, Sine) {
  ExpectPinnedSignal(Signal::Sine(3.0, 0.4, 250.0, 0.7), kSineAverage, kSinePins);
}

TEST(SignalPinTest, Product) {
  ExpectPinnedSignal(Signal::Product(Signal::Sine(2.0, 0.3, 120.0, 1.1),
                                     Signal::Sine(1.5, 0.6, 333.0, 2.2)),
                     kProductAverage, kProductPins);
  ExpectPinnedSignal(
      Signal::Product(Signal::Constant(4.0), Signal::Sine(1.5, 0.6, 333.0, 2.2)),
      kProductConstantSineAverage, kProductConstantSinePins);
}

TEST(SignalPinTest, Factories) {
  Rng weight_rng(21);
  ExpectPinnedSignal(MakeWeightFluctuation(2.0, 0.5, 100.0, 1000.0, &weight_rng),
                     kWeightFactoryAverage, kWeightFactoryPins);
  EXPECT_EQ(weight_rng.NextUint64(), kAfterWeightFactoryDraw);
  Rng bandwidth_rng(22);
  ExpectPinnedSignal(MakeBandwidthFluctuation(10.0, 0.25, &bandwidth_rng),
                     kBandwidthFactoryAverage, kBandwidthFactoryPins);
  EXPECT_EQ(bandwidth_rng.NextUint64(), kAfterBandwidthFactoryDraw);
}

}  // namespace
}  // namespace besync
