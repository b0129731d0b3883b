#include "util/fluctuation.h"

#include <cmath>

#include "util/logging.h"

namespace besync {

double Wave::ValueAt(double t) const {
  if (relative_amplitude == 0.0) return base;
  return base * (1.0 + relative_amplitude * std::sin(2.0 * M_PI * t / period + phase));
}

Signal Signal::Constant(double value) {
  BESYNC_CHECK_GE(value, 0.0);
  return Signal(Wave{value, 0.0, 0.0, 0.0});
}

Signal Signal::Sine(double base, double relative_amplitude, double period,
                    double phase) {
  BESYNC_CHECK_GE(base, 0.0);
  BESYNC_CHECK_GE(relative_amplitude, 0.0);
  BESYNC_CHECK_LT(relative_amplitude, 1.0);
  BESYNC_CHECK_GT(period, 0.0);
  return Signal(Wave{base, relative_amplitude, period, phase});
}

Signal Signal::Product(const Signal& first, const Signal& second) {
  BESYNC_CHECK(first.single_factor() && second.single_factor())
      << "Signal::Product takes single-factor signals";
  return Signal(first.factors_[0], second.factors_[0]);
}

Signal MakeBandwidthFluctuation(double average, double max_change_rate, Rng* rng) {
  BESYNC_CHECK_GE(average, 0.0);
  BESYNC_CHECK_GE(max_change_rate, 0.0);
  if (max_change_rate <= 0.0 || average <= 0.0) return Signal::Constant(average);
  constexpr double kAmplitude = 0.5;
  const double period = 2.0 * M_PI * kAmplitude / max_change_rate;
  const double phase = rng != nullptr ? rng->Uniform(0.0, 2.0 * M_PI) : 0.0;
  return Signal::Sine(average, kAmplitude, period, phase);
}

Signal MakeWeightFluctuation(double base, double max_amplitude, double min_period,
                             double max_period, Rng* rng) {
  BESYNC_CHECK_GE(base, 0.0);
  BESYNC_CHECK_GE(max_amplitude, 0.0);
  BESYNC_CHECK_LT(max_amplitude, 1.0);
  if (max_amplitude <= 0.0 || rng == nullptr) return Signal::Constant(base);
  BESYNC_CHECK_GT(min_period, 0.0);
  BESYNC_CHECK_GE(max_period, min_period);
  const double amplitude = rng->Uniform(0.0, max_amplitude);
  const double period = rng->Uniform(min_period, max_period);
  const double phase = rng->Uniform(0.0, 2.0 * M_PI);
  return Signal::Sine(base, amplitude, period, phase);
}

}  // namespace besync
