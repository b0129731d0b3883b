#include "data/update_process.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace besync {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}

UpdateModel UpdateModel::Poisson(double lambda, double step) {
  BESYNC_CHECK_GE(lambda, 0.0);
  UpdateModel model;
  model.kind = UpdateKind::kPoisson;
  model.rate = lambda;
  model.step = step;
  return model;
}

UpdateModel UpdateModel::Bernoulli(double probability, double step) {
  BESYNC_CHECK_GE(probability, 0.0);
  BESYNC_CHECK_LE(probability, 1.0);
  UpdateModel model;
  model.kind = UpdateKind::kBernoulli;
  model.rate = probability;
  model.step = step;
  return model;
}

UpdateModel UpdateModel::RegimeSwitching(double rate_a, double rate_b,
                                         double regime_length, double step) {
  BESYNC_CHECK_GE(rate_a, 0.0);
  BESYNC_CHECK_GE(rate_b, 0.0);
  BESYNC_CHECK_GT(regime_length, 0.0);
  UpdateModel model;
  model.kind = UpdateKind::kRegimeSwitching;
  model.rate = rate_a;
  model.step = step;
  model.rate_b = rate_b;
  model.regime_length = regime_length;
  return model;
}

UpdateModel UpdateModel::Drift(double lambda, double step) {
  BESYNC_CHECK_GE(lambda, 0.0);
  UpdateModel model;
  model.kind = UpdateKind::kDrift;
  model.rate = lambda;
  model.step = step;
  return model;
}

double UpdateModel::RegimeRateAt(double t) const {
  const int64_t regime = static_cast<int64_t>(std::floor(t / regime_length));
  return regime % 2 == 0 ? rate : rate_b;
}

double UpdateModel::NextUpdateTime(double now, Rng* rng,
                                   const TracePoint** cursor) const {
  switch (kind) {
    case UpdateKind::kPoisson:
      if (rate <= 0.0) return kInfinity;
      return now + rng->Exponential(rate);
    case UpdateKind::kBernoulli: {
      if (rate <= 0.0) return kInfinity;
      // Next opportunity is the first integer time strictly after `now`.
      const double slot = std::floor(now) + 1.0;
      if (rate >= 1.0) return slot;
      // Number of failures before the first success (geometric
      // distribution), sampled in closed form.
      const double u = rng->NextDouble();
      const double failures = std::floor(std::log1p(-u) / std::log1p(-rate));
      return slot + failures;
    }
    case UpdateKind::kRegimeSwitching: {
      // Piecewise-homogeneous Poisson process: draw within the current
      // regime; if the candidate falls past the regime boundary, restart the
      // draw from the boundary (memorylessness makes this exact).
      double t = now;
      for (int guard = 0; guard < 1000000; ++guard) {
        const double current = RegimeRateAt(t);
        const double boundary = (std::floor(t / regime_length) + 1.0) * regime_length;
        if (current <= 0.0) {
          t = boundary;
          continue;
        }
        const double candidate = t + rng->Exponential(current);
        if (candidate <= boundary) return candidate;
        t = boundary;
      }
      return kInfinity;  // both rates zero forever
    }
    case UpdateKind::kDrift: {
      if (rate <= 0.0) return kInfinity;
      const double interval = 1.0 / rate;
      // Next multiple of the interval strictly after `now`.
      const double k = std::floor(now / interval + 1e-9) + 1.0;
      return k * interval;
    }
    case UpdateKind::kTrace:
      // Points at or before `now` can never fire anymore; skip them for
      // good. The trace ends in a sentinel at +infinity.
      while ((*cursor)->time <= now && (*cursor)->time < kInfinity) ++*cursor;
      return (*cursor)->time;
  }
  return kInfinity;
}

double UpdateModel::ApplyUpdate(double current_value, Rng* rng,
                                const TracePoint** cursor) const {
  switch (kind) {
    case UpdateKind::kPoisson:
    case UpdateKind::kBernoulli:
    case UpdateKind::kRegimeSwitching:
      return current_value + (rng->Bernoulli(0.5) ? step : -step);
    case UpdateKind::kDrift:
      return current_value + step;
    case UpdateKind::kTrace:
      if ((*cursor)->time == kInfinity) return current_value;
      return (*cursor)++->value;
  }
  return current_value;
}

}  // namespace besync
