// Pins the evaluation layer's allocation contract: once warmed, the
// allocation-free evaluate_user_prefixes overload and a reused UserTable
// do no heap allocation. Links the counting allocator of alloc_counter.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/evaluate.hpp"

namespace dosn::sim {
namespace {

using dosn::testing::ScopedAllocationCount;
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
/// received activities at assorted times of day. Owner 6 has contacts
/// 1..4 and fewer pieces: a smaller user for a table warmed on owner 0.
trace::Dataset dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 7);
  for (graph::UserId f = 1; f <= 5; ++f) b.add_edge(0, f);
  for (graph::UserId f = 1; f <= 4; ++f) b.add_edge(6, f);
  trace::Dataset d;
  d.name = "alloc";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(7, {{1, 0, 1 * kH},
                                     {2, 0, 9 * kH},
                                     {3, 0, 13 * kH},
                                     {4, 0, 20 * kH},
                                     {5, 0, 23 * kH},
                                     {1, 6, 10 * kH},
                                     {4, 6, 11 * kH + 1800}});
  return d;
}

std::vector<DaySchedule> schedules() {
  return {hours({{0, 2}, {8, 10}, {22, 24}}),
          hours({{9, 13}}),
          hours({{1, 3}, {12, 16}}),
          DaySchedule{},
          hours({{0, 1}, {5, 7}, {11, 12}, {19, 21}}),
          hours({{6, 9}, {15, 23}}),
          hours({{7, 8}, {20, 22}})};
}

/// The study's eleven runs of one user (MaxAv, then MostActive and Random
/// five times each): eleven orders over `contacts`, of assorted lengths.
struct Runs {
  std::vector<graph::UserId> holders;  ///< every run's picks, back to back
  std::vector<std::size_t> ends;       ///< end of run r in holders
};

Runs eleven_runs(std::vector<graph::UserId> contacts) {
  Runs runs;
  for (std::size_t r = 0; r < 11; ++r) {
    std::rotate(contacts.begin(), contacts.begin() + 1, contacts.end());
    if (r % 2 == 1) std::reverse(contacts.begin(), contacts.end());
    const std::size_t take = contacts.size() - r % 3;
    runs.holders.insert(runs.holders.end(), contacts.begin(),
                        contacts.begin() + static_cast<std::ptrdiff_t>(take));
    runs.ends.push_back(runs.holders.size());
  }
  return runs;
}

constexpr std::size_t kMax = 6;  // k_max: one row past every selection

/// Builds `u`'s table over `runs` and evaluates every run's rows 0..kMax
/// into `rows` (11 × (kMax + 1) rows, preallocated).
void evaluate_runs(UserTable& table, const trace::Dataset& d,
                   const std::vector<DaySchedule>& s, graph::UserId u,
                   const Runs& runs, Connectivity connectivity,
                   std::vector<UserMetrics>& rows) {
  table.build(d, s, u, runs.holders, connectivity);
  const auto picks = table.holder_positions();
  const std::span<UserMetrics> out(rows);
  for (std::size_t r = 0, from = 0; r < runs.ends.size(); ++r) {
    table.evaluate(picks.subspan(from, runs.ends[r] - from), 0, kMax,
                   out.subspan(r * (kMax + 1), kMax + 1));
    from = runs.ends[r];
  }
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

    std::size_t allocations = 0;
    {
      const ScopedAllocationCount counter;
      evaluate_user_prefixes(d, s, 0, selected, connectivity, 6, scratch, out);
      allocations = counter.count();
    }
    EXPECT_EQ(allocations, 0u);

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
  std::size_t allocations = 0;
  {
    const ScopedAllocationCount counter;
    evaluate_user_prefixes(d, s, 0, selected, Connectivity::kConRep, 3,
                           scratch, out);
    allocations = counter.count();
  }
  EXPECT_GT(allocations, 0u);
}

// The engine's per-user step: after one warm-up user, building a second
// user's table (no larger in degree, pieces and picks) and evaluating all
// eleven runs' prefixes allocates nothing — and reproduces a cold table's
// rows, so no state leaks from the warm-up user.
TEST(EvalScratchAllocation, WarmedUserTableServesElevenRunsWithoutAllocating) {
  const auto d = dataset();
  const auto s = schedules();
  const Runs warm_runs = eleven_runs({1, 2, 3, 4, 5});
  const Runs runs = eleven_runs({4, 3, 2, 1});
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    std::vector<UserMetrics> rows(11 * (kMax + 1));
    UserTable table;
    evaluate_runs(table, d, s, 0, warm_runs, connectivity, rows);

    std::size_t allocations = 0;
    {
      const ScopedAllocationCount counter;
      evaluate_runs(table, d, s, 6, runs, connectivity, rows);
      allocations = counter.count();
    }
    EXPECT_EQ(allocations, 0u);

    UserTable cold;
    std::vector<UserMetrics> want(rows.size());
    evaluate_runs(cold, d, s, 6, runs, connectivity, want);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].availability, want[i].availability);
      EXPECT_EQ(rows[i].aod_time, want[i].aod_time);
      EXPECT_EQ(rows[i].aod_activity, want[i].aod_activity);
      EXPECT_EQ(rows[i].delay_actual_h, want[i].delay_actual_h);
      EXPECT_EQ(rows[i].delay_observed_h, want[i].delay_observed_h);
    }
  }
}

}  // namespace
}  // namespace dosn::sim
