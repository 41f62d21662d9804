// Pins the sorted-run builder's allocation contract: once warmed, a group
// union realized the way serving realizes it (each member's fault-injected
// sessions appended as one run, then build) allocates exactly once, for
// the result's exact-size piece vector. Links the counting allocator of
// alloc_counter.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "net/fault.hpp"

namespace dosn::interval {
namespace {

using dosn::testing::ScopedAllocationCount;

constexpr Seconds kH = 3600;
constexpr int kDays = 14;

/// Member i is online for two windows a day, shifted by i hours; every
/// fifth member is never online (an empty run).
std::vector<DaySchedule> members(std::size_t count) {
  std::vector<DaySchedule> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto h = static_cast<Seconds>(i % 12);
    out.push_back(i % 5 == 4 ? DaySchedule{}
                             : DaySchedule(IntervalSet(
                                   {{h * kH, (h + 3) * kH},
                                    {(h + 10) * kH, (h + 12) * kH}})));
  }
  return out;
}

/// The churn-only plan keeps append_sessions itself allocation-free: no
/// outage windows to canonicalize.
net::FaultPlan churn_plan() {
  net::FaultPlan plan;
  plan.seed = 17;
  plan.session_no_show = 0.2;
  plan.session_truncate = 0.5;
  plan.truncate_max_fraction = 0.5;
  return plan;
}

IntervalSet realize(SortedRunUnion& builder,
                    const std::vector<DaySchedule>& group) {
  net::FaultInjector injector(churn_plan());
  for (std::size_t node = 0; node < group.size(); ++node) {
    injector.append_sessions(node, group[node], kDays, builder.pieces());
    builder.end_run();
  }
  return builder.build();
}

TEST(SortedRunUnionAllocation, WarmedBuilderAllocatesOnlyTheResult) {
  SortedRunUnion builder;
  realize(builder, members(12));  // warm on the largest group

  for (const std::size_t size : {12u, 6u, 3u, 1u}) {
    const auto group = members(size);
    std::size_t allocations = 0;
    IntervalSet result;
    {
      ScopedAllocationCount count;
      result = realize(builder, group);
      allocations = count.count();
    }
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(allocations, 1u) << "group of " << size;
  }

  // A group that is never online builds the empty set: nothing at all.
  const std::vector<DaySchedule> offline(3);
  ScopedAllocationCount count;
  EXPECT_TRUE(realize(builder, offline).empty());
  EXPECT_EQ(count.count(), 0u);
}

}  // namespace
}  // namespace dosn::interval
