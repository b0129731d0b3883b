#ifndef BESYNC_DATA_UPDATE_PROCESS_H_
#define BESYNC_DATA_UPDATE_PROCESS_H_

#include <cstdint>

#include "util/random.h"

namespace besync {

/// One timestamped point of a replayed measurement trace.
struct TracePoint {
  double time = 0.0;
  double value = 0.0;
};

/// The shapes of update stream an object can have.
enum class UpdateKind : uint8_t {
  /// Poisson-timed random walk: updates arrive as a Poisson process with
  /// rate lambda; each update moves the value by +-step with equal
  /// probability (paper Sections 4.3, 6.2).
  kPoisson,
  /// Per-second Bernoulli random walk: at each integer time the object is
  /// updated with probability p ("each simulated object O_i was updated with
  /// probability p_i each second", Section 4.3). p = 1 reproduces the
  /// paper's "updated consistently every second" objects.
  kBernoulli,
  /// Poisson random walk whose rate toggles between `rate` and `rate_b`
  /// every `regime_length` seconds (starting in regime A). Used by the
  /// history-priority ablation (Section 10.1 discusses trading adaptiveness
  /// for longer-history predictions; regime switches are exactly where that
  /// trade bites).
  kRegimeSwitching,
  /// Deterministic one-sided drift: the value increases by `step` exactly
  /// every 1/lambda seconds. Under the value-deviation metric the divergence
  /// of such an object is (up to discretization) lambda*step*(t - t_last) —
  /// i.e. it *equals* the Section 9 divergence bound with rate
  /// R = lambda*step. Used by the divergence-bounding experiments.
  kDrift,
  /// Replays a fixed, time-ordered trace of (time, value) measurements (the
  /// wind-buoy experiment, Section 6.2.1). The points live in the workload
  /// (Workload::AddTrace); a run walks them with its own cursor.
  kTrace,
};

/// The update stream of one source data object — when updates occur and how
/// each one changes the value — as a plain value: a kind tag plus its
/// parameters, no heap and no virtual calls. The random draws come from the
/// caller's per-object RNG, so update streams are identical across
/// schedulers run on the same seed. The model itself never changes during a
/// run; the only per-run state is a trace's replay cursor, which the caller
/// owns (ObjectRuntime in core/harness.h), so one workload can back any
/// number of concurrent runs.
struct UpdateModel {
  UpdateKind kind = UpdateKind::kPoisson;
  /// kTrace: offset of the first point in the owning workload's trace store.
  uint32_t trace_begin = 0;
  /// kPoisson / kDrift: lambda. kBernoulli: the per-second probability.
  /// kRegimeSwitching: the rate of regime A. kTrace: the mean rate (points
  /// per second over the trace's span).
  double rate = 0.0;
  /// Random-walk / drift step per update (unused by kTrace).
  double step = 1.0;
  /// kRegimeSwitching only: the rate of regime B and the regime length.
  double rate_b = 0.0;
  double regime_length = 0.0;

  static UpdateModel Poisson(double lambda, double step = 1.0);
  static UpdateModel Bernoulli(double probability, double step = 1.0);
  static UpdateModel RegimeSwitching(double rate_a, double rate_b,
                                     double regime_length, double step = 1.0);
  static UpdateModel Drift(double lambda, double step = 1.0);

  /// Time of the next update strictly after `now`; +infinity if none.
  /// `cursor` is the trace replay position (kTrace only; see
  /// Workload::TraceStart), advanced past every point at or before `now`.
  double NextUpdateTime(double now, Rng* rng, const TracePoint** cursor) const;

  /// Applies one update (at the time NextUpdateTime last returned) to
  /// `current_value` and returns the new value. A trace consumes the point
  /// under `cursor`.
  double ApplyUpdate(double current_value, Rng* rng, const TracePoint** cursor) const;

  /// Long-run average update rate (updates/second): the lambda parameter
  /// available to oracles and to the CGM "ideal cache-based" baseline.
  /// Regime switching averages its two rates.
  double mean_rate() const {
    return kind == UpdateKind::kRegimeSwitching ? 0.5 * (rate + rate_b) : rate;
  }

  /// kRegimeSwitching: the rate in force at time `t`.
  double RegimeRateAt(double t) const;
};

}  // namespace besync

#endif  // BESYNC_DATA_UPDATE_PROCESS_H_
