// Pins EvalScratch's contract: once warmed by one call, the allocation-free
// evaluate_user_prefixes overload does no heap allocation on the next. The
// executable replaces the global operator new with a counting one, so it is
// kept apart from every other suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "sim/evaluate.hpp"

namespace {

// Single-threaded test: plain globals suffice.
bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dosn::sim {
namespace {

using interval::Interval;
using interval::IntervalSet;
using interval::Seconds;
using placement::Connectivity;

constexpr Seconds kH = 3600;

DaySchedule hours(std::vector<Interval> pieces_h) {
  for (auto& piece : pieces_h) piece = {piece.start * kH, piece.end * kH};
  return DaySchedule(IntervalSet(std::move(pieces_h)));
}

/// Owner 0 with contacts 1..5 of 1 to 4 pieces each (one never online) and
/// received activities at assorted times of day.
trace::Dataset dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 6);
  for (graph::UserId f = 1; f <= 5; ++f) b.add_edge(0, f);
  trace::Dataset d;
  d.name = "alloc";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(6, {{1, 0, 1 * kH},
                                     {2, 0, 9 * kH},
                                     {3, 0, 13 * kH},
                                     {4, 0, 20 * kH},
                                     {5, 0, 23 * kH}});
  return d;
}

std::vector<DaySchedule> schedules() {
  return {hours({{0, 2}, {8, 10}, {22, 24}}),
          hours({{9, 13}}),
          hours({{1, 3}, {12, 16}}),
          DaySchedule{},
          hours({{0, 1}, {5, 7}, {11, 12}, {19, 21}}),
          hours({{6, 9}, {15, 23}})};
}

TEST(EvalScratchAllocation, WarmedCallDoesNotAllocate) {
  const auto d = dataset();
  const auto s = schedules();
  const std::vector<graph::UserId> selected{4, 3, 2, 5, 1};
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    EvalScratch scratch;
    std::vector<UserMetrics> out;
    evaluate_user_prefixes(d, s, 0, selected, connectivity, 6, scratch, out);
    const auto warm = out;

    g_allocations = 0;
    g_counting = true;
    evaluate_user_prefixes(d, s, 0, selected, connectivity, 6, scratch, out);
    g_counting = false;
    EXPECT_EQ(g_allocations, 0u);

    // The warmed call computes the same rows.
    ASSERT_EQ(out.size(), warm.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(out[k].availability, warm[k].availability);
      EXPECT_EQ(out[k].delay_actual_h, warm[k].delay_actual_h);
      EXPECT_EQ(out[k].delay_observed_h, warm[k].delay_observed_h);
    }
  }
}

TEST(EvalScratchAllocation, CounterSeesAllocations) {
  // The hook itself works: a fresh scratch allocates.
  const auto d = dataset();
  const auto s = schedules();
  const std::vector<graph::UserId> selected{4, 3, 2};
  EvalScratch scratch;
  std::vector<UserMetrics> out;
  g_allocations = 0;
  g_counting = true;
  evaluate_user_prefixes(d, s, 0, selected, Connectivity::kConRep, 3, scratch,
                         out);
  g_counting = false;
  EXPECT_GT(g_allocations, 0u);
}

}  // namespace
}  // namespace dosn::sim
