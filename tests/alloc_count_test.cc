// Building a workload costs a fixed number of heap allocations, however many
// objects it has: object specs, the interest map, weights and traces are
// flat arrays, never one allocation per object. A global operator new
// counter (this binary's own, so no other test sees it) checks that.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "data/workload.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace besync {
namespace {

/// Heap allocations one MakeWorkload call makes for `objects` objects (100
/// per source over 10 caches) under `pattern`.
int64_t AllocationsToBuild(int64_t objects, InterestPattern pattern,
                           double weight_amplitude = 0.0) {
  WorkloadConfig config;
  config.num_sources = static_cast<int>(objects / 100);
  config.objects_per_source = 100;
  config.num_caches = 10;
  config.interest_pattern = pattern;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.cost_scheme = CostScheme::kHalfLarge;
  config.weight_fluctuation_amplitude = weight_amplitude;
  const int64_t before = g_allocations.load();
  Result<Workload> workload = MakeWorkload(config);
  const int64_t after = g_allocations.load();
  EXPECT_TRUE(workload.ok());
  EXPECT_EQ(workload->total_objects(), objects);
  return after - before;
}

TEST(AllocationCountTest, PartitionedBuildIsFlat) {
  const int64_t small = AllocationsToBuild(1000, InterestPattern::kPartitionedBySource);
  EXPECT_EQ(AllocationsToBuild(20000, InterestPattern::kPartitionedBySource), small);
  EXPECT_LT(small, 16);
}

TEST(AllocationCountTest, ZipfOverlapBuildIsFlat) {
  const int64_t small = AllocationsToBuild(1000, InterestPattern::kZipfOverlap);
  EXPECT_EQ(AllocationsToBuild(20000, InterestPattern::kZipfOverlap), small);
  EXPECT_LT(small, 16);
}

TEST(AllocationCountTest, FluctuatingWeightsBuildIsFlat) {
  const int64_t small =
      AllocationsToBuild(1000, InterestPattern::kZipfOverlap, /*weight_amplitude=*/0.3);
  EXPECT_EQ(
      AllocationsToBuild(20000, InterestPattern::kZipfOverlap, /*weight_amplitude=*/0.3),
      small);
}

TEST(AllocationCountTest, CounterSeesAllocations) {
  // A direct operator new call, which (unlike a new-expression) the
  // compiler may not elide.
  const int64_t before = g_allocations.load();
  void* block = ::operator new(sizeof(int));
  EXPECT_EQ(g_allocations.load(), before + 1);
  ::operator delete(block);
}

}  // namespace
}  // namespace besync
