#ifndef BESYNC_SIM_SIMULATION_H_
#define BESYNC_SIM_SIMULATION_H_

#include <cstdint>
#include <vector>

#include "util/timer_wheel.h"

namespace besync {

/// Receiver of typed simulation events. An event is a (handler, key) pair,
/// not a closure: the handler decodes the key (an object index, a channel
/// and object, ...) into whatever it needs to act on.
class EventHandler {
 public:
  /// Fires the event with key `key` at its timestamp `t`.
  virtual void OnEvent(uint64_t key, double t) = 0;

 protected:
  ~EventHandler() = default;
};

/// Discrete event simulation driver.
///
/// The besync evaluation uses a hybrid scheme: object updates are scheduled
/// as continuous-time events, while scheduling decisions, network pumping and
/// feedback happen on fixed ticks driven by the caller:
///
///   Simulation sim;
///   const uint32_t id = sim.AddHandler(&handler);
///   sim.ScheduleAt(0.37, id, /*key=*/object);
///   while (sim.now() < end) {
///     sim.RunUntil(sim.now() + tick);   // fire all events in the tick
///     DoTickWork(sim.now());            // scheduling / network / stats
///   }
///
/// The event calendar is a util/timer_wheel whose 64-bit payload holds the
/// handler id in its top kHandlerBits and the key below them. Events fire in
/// strictly increasing (time, scheduling order) — equal timestamps fire in
/// the order they were scheduled.
class Simulation {
 public:
  static constexpr int kHandlerBits = 16;
  static constexpr int kKeyBits = 64 - kHandlerBits;
  /// Largest key an event can carry; a larger one fails a CHECK.
  static constexpr uint64_t kMaxKey = (uint64_t{1} << kKeyBits) - 1;

  Simulation() = default;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (seconds).
  double now() const { return now_; }

  /// Registers `handler` (not owned; must outlive the simulation's use of
  /// it) and returns its id for ScheduleAt/ScheduleAfter. At most
  /// 2^kHandlerBits handlers per simulation.
  uint32_t AddHandler(EventHandler* handler);

  /// Schedules event `key` of handler `handler` at absolute time `time`
  /// (must be >= now(); key must be <= kMaxKey).
  void ScheduleAt(double time, uint32_t handler, uint64_t key);

  /// Schedules event `key` of `handler` `delay` seconds from now (delay >= 0).
  void ScheduleAfter(double delay, uint32_t handler, uint64_t key);

  /// Fires all events with timestamp <= `time` in order, then advances the
  /// clock to exactly `time`. Events scheduled while running (with timestamps
  /// <= `time`) fire within the same call.
  void RunUntil(double time);

  /// Fires the single earliest event, if any; returns whether one fired.
  bool Step();

  size_t pending_events() const { return calendar_.size(); }
  uint64_t events_fired() const { return events_fired_; }

 private:
  /// Pops the earliest event and fires it.
  void FireNext();

  TimerWheel calendar_;
  std::vector<EventHandler*> handlers_;
  double now_ = 0.0;
  uint64_t events_fired_ = 0;
};

}  // namespace besync

#endif  // BESYNC_SIM_SIMULATION_H_
