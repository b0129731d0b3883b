#include "util/timer_wheel.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace besync {
namespace {

/// Reference implementation: the (time, insertion-seq) order the wheel must
/// reproduce exactly — a stable sort of the push stream by time.
struct Ref {
  double time;
  int id;
};

std::vector<int> StableOrder(std::vector<Ref> refs) {
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.time < b.time; });
  std::vector<int> ids;
  for (const Ref& ref : refs) ids.push_back(ref.id);
  return ids;
}

/// Pushes every (time, id) pair with the id as payload, then pops the whole
/// wheel and returns the ids in pop order, checking popped timestamps are
/// what was pushed.
std::vector<int> DrainOrder(TimerWheel* wheel, const std::vector<Ref>& refs) {
  std::vector<double> times(refs.size());
  std::vector<int> order;
  for (const Ref& ref : refs) {
    times[static_cast<size_t>(ref.id)] = ref.time;
    wheel->Push(ref.time, static_cast<uint64_t>(ref.id));
  }
  while (!wheel->empty()) {
    const double next = wheel->NextTime();
    double time = 0.0;
    uint64_t payload = 0;
    wheel->PopInto(&time, &payload);
    EXPECT_EQ(time, next);
    order.push_back(static_cast<int>(payload));
    EXPECT_EQ(time, times[static_cast<size_t>(order.back())]);
  }
  return order;
}

TEST(TimerWheelTest, PopsInTimeOrderWithFifoTies) {
  TimerWheel wheel;
  const std::vector<Ref> refs = {
      {5.0, 0}, {1.0, 1}, {5.0, 2}, {0.25, 3}, {1.0, 4}, {5.0, 5}, {0.25, 6},
  };
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, CascadesAcrossLevelsExactly) {
  TimerWheel::Options options;
  options.resolution = 1.0;
  options.level_slots = 4;  // level-0 horizon 4s, level-1 horizon 16s
  TimerWheel wheel(options);
  std::vector<Ref> refs;
  int id = 0;
  // Spread timers across near, level 0, level 1, and the far list, with
  // deliberate duplicates straddling the level-1 bucket boundaries.
  for (double t : {0.5, 3.9, 4.0, 4.0, 7.5, 15.0, 16.0, 16.0, 63.0, 64.0,
                   200.0, 200.0, 17.25, 3.9}) {
    refs.push_back({t, id++});
  }
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, InterleavedPushAndPopKeepsGlobalOrder) {
  TimerWheel::Options options;
  options.level_slots = 8;
  TimerWheel wheel(options);
  std::vector<int> order;
  std::vector<Ref> refs;

  auto push = [&](double t) {
    const int id = static_cast<int>(refs.size());
    refs.push_back({t, id});
    wheel.Push(t, static_cast<uint64_t>(id));
  };
  auto pop = [&] {
    double time = 0.0;
    uint64_t payload = 0;
    wheel.PopInto(&time, &payload);
    order.push_back(static_cast<int>(payload));
  };

  push(10.0);
  push(2.0);
  pop();  // 2.0 fires; wheel has advanced near bucket 2
  // Pushes at-or-before the current bucket must still pop before later ones.
  push(2.5);
  push(1.0);
  push(300.0);
  while (!wheel.empty()) pop();

  // Expected: 2.0 popped first, then a stable sort of what remained at each
  // pop. 1.0 was pushed after 2.0 fired, so it pops second (past-time
  // pushes are served immediately, not dropped).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0, 4}));
}

TEST(TimerWheelTest, RandomizedAgainstStableSort) {
  Rng rng(20260807);
  for (int round = 0; round < 20; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 2 == 0 ? 1.0 : 0.125;
    options.level_slots = round % 3 == 0 ? 4 : 32;
    TimerWheel wheel(options);
    std::vector<Ref> refs;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      // Mix of near, mid, far, and repeated times to force tie-breaks.
      double t = 0.0;
      switch (rng.UniformInt(0, 3)) {
        case 0: t = static_cast<double>(rng.UniformInt(0, 9)); break;
        case 1: t = rng.Uniform(0.0, 50.0); break;
        case 2: t = rng.Uniform(0.0, 5000.0); break;
        default: t = rng.Uniform(0.0, 2.0e6); break;
      }
      refs.push_back({t, i});
    }
    EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs)) << "round " << round;
  }
}

TEST(TimerWheelTest, FarFutureTimersSurviveSaturation) {
  TimerWheel wheel;
  const std::vector<Ref> refs = {
      {1.0e18, 0}, {3.0, 1}, {1.0e18, 2}, {5.0e17, 3},
  };
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, SizeTracksAcrossRegions) {
  TimerWheel::Options options;
  options.level_slots = 4;
  TimerWheel wheel(options);
  EXPECT_TRUE(wheel.empty());
  wheel.Push(0.5, 1);
  wheel.Push(10.0, 2);
  wheel.Push(1.0e6, 3);
  EXPECT_EQ(wheel.size(), 3u);
  double time = 0.0;
  uint64_t payload = 0;
  wheel.PopInto(&time, &payload);
  EXPECT_EQ(time, 0.5);
  EXPECT_EQ(payload, 1u);
  EXPECT_EQ(wheel.size(), 2u);
  wheel.PopInto(&time, &payload);
  wheel.PopInto(&time, &payload);
  EXPECT_EQ(time, 1.0e6);
  EXPECT_EQ(payload, 3u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, PayloadsRoundTripAllSixtyFourBits) {
  TimerWheel wheel;
  const uint64_t payloads[] = {0, ~uint64_t{0}, uint64_t{1} << 63,
                               0x0123456789abcdefULL};
  for (uint64_t payload : payloads) wheel.Push(2.0, payload);
  for (uint64_t expected : payloads) {
    double time = 0.0;
    uint64_t payload = 0;
    wheel.PopInto(&time, &payload);
    EXPECT_EQ(time, 2.0);
    EXPECT_EQ(payload, expected);
  }
}

}  // namespace
}  // namespace besync
