// Pins the sorted-run builder's allocation contract: once warmed, a group
// union realized the way serving realizes it (each member's fault-injected
// sessions appended as one run, then build or build_packed) allocates
// exactly once, for the result's exact-size pieces. Links the counting
// allocator of alloc_counter.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "interval/packed_set.hpp"
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

/// The builder holding `group`'s sessions, one run per member.
SortedRunUnion& realize(SortedRunUnion& builder,
                        const std::vector<DaySchedule>& group) {
  net::FaultInjector injector(churn_plan());
  for (std::size_t node = 0; node < group.size(); ++node) {
    injector.append_sessions(node, group[node], kDays, builder.pieces());
    builder.end_run();
  }
  return builder;
}

/// Allocations a warmed builder makes to realize `group` and `build` it
/// (build or build_packed); the result must be non-empty.
template <typename Build>
std::size_t allocations(SortedRunUnion& builder,
                        const std::vector<DaySchedule>& group, Build build) {
  ScopedAllocationCount count;
  const auto result = build(realize(builder, group));
  const std::size_t n = count.count();
  EXPECT_FALSE(result.empty());
  return n;
}

TEST(SortedRunUnionAllocation, WarmedBuilderAllocatesOnlyTheResult) {
  SortedRunUnion builder;
  realize(builder, members(12)).build();  // warm on the largest group

  for (const std::size_t size : {12u, 6u, 3u, 1u}) {
    const auto group = members(size);
    EXPECT_EQ(allocations(builder, group,
                          [](SortedRunUnion& b) { return b.build(); }),
              1u)
        << "group of " << size;
    EXPECT_EQ(allocations(builder, group,
                          [](SortedRunUnion& b) { return b.build_packed(); }),
              1u)
        << "packed group of " << size;
  }

  // A group that is never online builds the empty set: nothing at all.
  const std::vector<DaySchedule> offline(3);
  ScopedAllocationCount count;
  EXPECT_TRUE(realize(builder, offline).build().empty());
  EXPECT_TRUE(realize(builder, offline).build_packed().empty());
  EXPECT_EQ(count.count(), 0u);
}

}  // namespace
}  // namespace dosn::interval
