#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/timer_wheel.h"

namespace besync {
namespace {

/// Records every fired (key, time); `on_event`, when set, runs after the
/// record (tests use it to schedule from inside a handler).
class Recorder : public EventHandler {
 public:
  void OnEvent(uint64_t key, double t) override {
    keys.push_back(key);
    times.push_back(t);
    if (on_event) on_event(key, t);
  }

  std::vector<uint64_t> keys;
  std::vector<double> times;
  std::function<void(uint64_t, double)> on_event;
};

// ------------------------------------------------------------- calendar

TEST(CalendarTest, OrdersByTime) {
  TimerWheel calendar;
  calendar.Push(3.0, 3);
  calendar.Push(1.0, 1);
  calendar.Push(2.0, 2);
  std::vector<uint64_t> fired;
  std::vector<double> times;
  while (!calendar.empty()) {
    double time = 0.0;
    uint64_t payload = 0;
    calendar.PopInto(&time, &payload);
    times.push_back(time);
    fired.push_back(payload);
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(CalendarTest, FifoForEqualTimes) {
  TimerWheel calendar;
  for (uint64_t i = 0; i < 10; ++i) calendar.Push(5.0, i);
  for (uint64_t i = 0; i < 10; ++i) {
    double time = 0.0;
    uint64_t payload = 0;
    calendar.PopInto(&time, &payload);
    EXPECT_EQ(payload, i);
  }
}

TEST(CalendarTest, NextTimeReportsEarliest) {
  TimerWheel calendar;
  calendar.Push(7.5, 0);
  calendar.Push(2.5, 0);
  EXPECT_DOUBLE_EQ(calendar.NextTime(), 2.5);
}

TEST(CalendarTest, PopIntoReturnsTimeAndPayload) {
  TimerWheel calendar;
  calendar.Push(4.0, 42);
  double time = 0.0;
  uint64_t payload = 0;
  calendar.PopInto(&time, &payload);
  EXPECT_DOUBLE_EQ(time, 4.0);
  EXPECT_EQ(payload, 42u);
  EXPECT_TRUE(calendar.empty());
}

// ----------------------------------------------------------- simulation

TEST(SimulationTest, RunUntilAdvancesClockExactly) {
  Simulation sim;
  sim.RunUntil(12.5);
  EXPECT_DOUBLE_EQ(sim.now(), 12.5);
}

TEST(SimulationTest, EventsFireAtTheirTimestamps) {
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  sim.ScheduleAt(1.5, id, 15);
  sim.ScheduleAt(0.5, id, 5);
  sim.RunUntil(2.0);
  ASSERT_EQ(recorder.times.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.times[0], 0.5);
  EXPECT_DOUBLE_EQ(recorder.times[1], 1.5);
  EXPECT_EQ(recorder.keys, (std::vector<uint64_t>{5, 15}));
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(SimulationTest, EventsBeyondHorizonStayPending) {
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  sim.ScheduleAt(10.0, id, 0);
  sim.RunUntil(5.0);
  EXPECT_TRUE(recorder.keys.empty());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(10.0);  // inclusive boundary
  EXPECT_EQ(recorder.keys.size(), 1u);
}

TEST(SimulationTest, EventsScheduledDuringRunFireInSameRun) {
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  recorder.on_event = [&](uint64_t key, double) {
    if (key == 1) sim.ScheduleAt(1.5, id, 2);
  };
  sim.ScheduleAt(1.0, id, 1);
  sim.RunUntil(2.0);
  ASSERT_EQ(recorder.times.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.times[1], 1.5);
  EXPECT_EQ(recorder.keys[1], 2u);
}

TEST(SimulationTest, SelfReschedulingEventChain) {
  // Mimics the update-process pattern: each event schedules the next.
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  recorder.on_event = [&](uint64_t key, double t) {
    if (t + 1.0 <= 100.0) sim.ScheduleAt(t + 1.0, id, key);
  };
  sim.ScheduleAt(1.0, id, 7);
  sim.RunUntil(100.0);
  EXPECT_EQ(recorder.keys.size(), 100u);
}

TEST(SimulationTest, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  sim.RunUntil(3.0);
  sim.ScheduleAfter(2.0, id, 0);
  sim.RunUntil(10.0);
  ASSERT_EQ(recorder.times.size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.times[0], 5.0);
}

TEST(SimulationTest, StepFiresSingleEvent) {
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  sim.ScheduleAt(1.0, id, 0);
  sim.ScheduleAt(2.0, id, 0);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(recorder.keys.size(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulationTest, HandlersAndKeysRouteExactly) {
  // Two handlers share one calendar; ties across handlers fire in
  // scheduling order, and the largest key survives the packing.
  Simulation sim;
  Recorder first;
  Recorder second;
  const uint32_t a = sim.AddHandler(&first);
  const uint32_t b = sim.AddHandler(&second);
  EXPECT_NE(a, b);
  std::vector<std::pair<uint32_t, uint64_t>> order;
  first.on_event = [&](uint64_t key, double) { order.push_back({a, key}); };
  second.on_event = [&](uint64_t key, double) { order.push_back({b, key}); };
  sim.ScheduleAt(1.0, b, Simulation::kMaxKey);
  sim.ScheduleAt(1.0, a, 0);
  sim.ScheduleAt(0.5, b, 3);
  sim.ScheduleAt(1.0, a, Simulation::kMaxKey);
  sim.RunUntil(1.0);
  EXPECT_EQ(order, (std::vector<std::pair<uint32_t, uint64_t>>{
                       {b, 3}, {b, Simulation::kMaxKey}, {a, 0},
                       {a, Simulation::kMaxKey}}));
}

TEST(SimulationDeathTest, KeyThatDoesNotFitFailsACheck) {
  Simulation sim;
  Recorder recorder;
  const uint32_t id = sim.AddHandler(&recorder);
  EXPECT_DEATH(sim.ScheduleAt(1.0, id, Simulation::kMaxKey + 1), "does not fit");
  EXPECT_DEATH(sim.ScheduleAt(1.0, id + 1, 0), "Check failed");
}

}  // namespace
}  // namespace besync
