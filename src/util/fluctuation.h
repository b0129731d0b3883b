#ifndef BESYNC_UTIL_FLUCTUATION_H_
#define BESYNC_UTIL_FLUCTUATION_H_

#include "util/random.h"

namespace besync {

/// One factor of a Signal: base * (1 + relative_amplitude * sin(2*pi*t /
/// period + phase)), with relative_amplitude in [0, 1) so the factor stays
/// positive. relative_amplitude 0 is the constant `base` (the paper's mB = 0
/// case); period and phase are then unused.
struct Wave {
  double base = 1.0;
  double relative_amplitude = 0.0;
  double period = 0.0;
  double phase = 0.0;

  double ValueAt(double t) const;
};

/// A nonnegative time-varying quantity, used for both bandwidth capacities
/// and object weights. The paper's simulations let "available cache-side and
/// source-side bandwidth fluctuate over time following a sine wave pattern"
/// and let "weights vary over time following sine-wave patterns with
/// randomly-assigned amplitudes and periods" (Section 6). A plain value: the
/// product of one or two constant/sine factors (two covers the paper's
/// W(O,t) = I(O,t) * P(O,t) of Section 3.2), so copying one is a memcpy.
class Signal {
 public:
  /// The constant 1.
  Signal() = default;

  static Signal Constant(double value);
  static Signal Sine(double base, double relative_amplitude, double period,
                     double phase);
  /// The product of two single-factor signals, e.g. importance x popularity.
  static Signal Product(const Signal& first, const Signal& second);

  /// Value at simulated time `t` (seconds). Always >= 0.
  double ValueAt(double t) const { return factors_[0].ValueAt(t) * factors_[1].ValueAt(t); }

  /// Time average of the signal (the paper's B_S / B_C / base-weight knobs).
  /// For a product, the product of the factor averages (exact when at least
  /// one factor is constant, which covers all the evaluation's workloads).
  double average() const { return factors_[0].base * factors_[1].base; }

  /// The factors; a single-factor signal's second factor is the constant 1.
  const Wave& factor(int k) const { return factors_[k]; }

 private:
  explicit Signal(const Wave& first, const Wave& second = Wave{})
      : factors_{first, second} {}

  bool single_factor() const {
    return factors_[1].base == 1.0 && factors_[1].relative_amplitude == 0.0;
  }

  Wave factors_[2];
};

/// Builds the paper's bandwidth model: average bandwidth `average` with
/// maximum relative rate of change `max_change_rate` (the parameter mB;
/// Section 6: "The maximum rate of bandwidth change is controlled by
/// simulation parameter mB. When mB = 0, the amount of available bandwidth
/// remains constant.").
///
/// For a sine B(t) = B*(1 + a*sin(2*pi*t/P + phi)), the maximum relative
/// change rate is max|B'(t)|/B = 2*pi*a/P. We fix a = 0.5 and solve for the
/// period P = 2*pi*a/mB, drawing a random phase so multiple links are not
/// synchronized.
Signal MakeBandwidthFluctuation(double average, double max_change_rate, Rng* rng);

/// Builds a randomly-parameterized weight fluctuation: base weight `base`,
/// random relative amplitude in [0, max_amplitude] and random period in
/// [min_period, max_period] (Section 6: weights "fluctuate over time
/// following sine-wave patterns with randomly-assigned amplitudes and
/// periods"). With max_amplitude = 0 the weight is constant.
Signal MakeWeightFluctuation(double base, double max_amplitude, double min_period,
                             double max_period, Rng* rng);

}  // namespace besync

#endif  // BESYNC_UTIL_FLUCTUATION_H_
