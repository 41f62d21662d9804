// Differential tests of sim::UserTable against the union-based evaluation
// of tests/eval_oracle.cpp: every row, every field, compared exactly.
//
// The table replaces interval unions with elementary segments, cover
// masks (multi-word above 64 positions) and a lazily filled pair-delay
// memo, so the cases aim at the places those can go wrong: mask word
// boundaries (degrees 63, 64, 65, 130), owners that cover nothing or the
// whole day, contacts with equal or empty schedules, pieces touching 0 and
// 86400, activities exactly on segment endpoints, holders that are not
// contacts, both connectivities, and one table reused across users of
// different degrees.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "eval_oracle.hpp"
#include "sim/evaluate.hpp"
#include "util/rng.hpp"

namespace dosn::sim {
namespace {

using interval::Interval;
using interval::IntervalSet;
using interval::kDaySeconds;
using interval::Seconds;
using placement::Connectivity;

constexpr Seconds kGrid = 1800;  // piece endpoints and many activities
constexpr Seconds kCells = kDaySeconds / kGrid;
constexpr Seconds kDay0 = 1'250'000'000 - 1'250'000'000 % kDaySeconds;

void expect_rows_equal(const UserMetrics& got, const UserMetrics& want) {
  EXPECT_EQ(got.availability, want.availability);
  EXPECT_EQ(got.max_availability, want.max_availability);
  EXPECT_EQ(got.aod_time, want.aod_time);
  EXPECT_EQ(got.aod_activity, want.aod_activity);
  EXPECT_EQ(got.aod_activity_expected, want.aod_activity_expected);
  EXPECT_EQ(got.aod_activity_unexpected, want.aod_activity_unexpected);
  EXPECT_EQ(got.delay_actual_h, want.delay_actual_h);
  EXPECT_EQ(got.delay_observed_h, want.delay_observed_h);
  EXPECT_EQ(got.replicas_used, want.replicas_used);
}

void expect_rows_equal(std::span<const UserMetrics> got,
                       std::span<const UserMetrics> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE("row " + std::to_string(k));
    expect_rows_equal(got[k], want[k]);
  }
}

/// 1 to 5 runs of grid cells, a quarter of the schedules with a piece
/// from 0 and a quarter with one up to 86400; about one schedule in eight
/// is never online.
DaySchedule random_schedule(util::Rng& rng) {
  if (rng.range(0, 7) == 0) return DaySchedule{};
  std::vector<Interval> pieces;
  const auto runs = rng.range(1, 5);
  for (std::int64_t i = 0; i < runs; ++i) {
    const Seconds start = rng.range(0, kCells - 1);
    const Seconds length = rng.range(1, 8);
    pieces.push_back(
        {start * kGrid, std::min(start + length, kCells) * kGrid});
  }
  if (rng.range(0, 3) == 0) pieces.push_back({0, rng.range(1, 4) * kGrid});
  if (rng.range(0, 3) == 0)
    pieces.push_back({kDaySeconds - rng.range(1, 4) * kGrid, kDaySeconds});
  return DaySchedule(IntervalSet(std::move(pieces)));
}

enum class OwnerKind { kRandom, kEmpty, kFullDay };

/// A star: owner 0 with contacts 1..degree, then `extras` users that are
/// not contacts of 0, and activities received by 0 from any user.
struct Star {
  trace::Dataset dataset;
  std::vector<DaySchedule> schedules;
  std::size_t degree = 0;
  std::size_t extras = 0;
};

Star make_star(util::Rng& rng, std::size_t degree, std::size_t extras,
               OwnerKind owner) {
  Star star;
  star.degree = degree;
  star.extras = extras;
  const std::size_t n = 1 + degree + extras;
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, n);
  for (std::size_t f = 1; f <= degree; ++f)
    b.add_edge(0, static_cast<graph::UserId>(f));
  if (extras >= 2) b.add_edge(static_cast<graph::UserId>(n - 1),
                              static_cast<graph::UserId>(n - 2));
  star.dataset.name = "star";
  star.dataset.graph = std::move(b).build();

  switch (owner) {
    case OwnerKind::kRandom: star.schedules.push_back(random_schedule(rng)); break;
    case OwnerKind::kEmpty: star.schedules.emplace_back(); break;
    case OwnerKind::kFullDay: star.schedules.push_back(DaySchedule::always()); break;
  }
  for (std::size_t u = 1; u < n; ++u) {
    // Some contacts copy an earlier contact's schedule exactly.
    if (u >= 2 && rng.range(0, 5) == 0)
      star.schedules.push_back(star.schedules[static_cast<std::size_t>(
          rng.range(1, static_cast<std::int64_t>(u) - 1))]);
    else
      star.schedules.push_back(random_schedule(rng));
  }

  // Activities on grid points (every piece endpoint is one) and at
  // arbitrary seconds, on several days.
  std::vector<trace::Activity> activities;
  const auto count = rng.range(0, 60);
  for (std::int64_t i = 0; i < count; ++i) {
    const Seconds tod = rng.range(0, 1) == 0
                            ? rng.range(0, kCells - 1) * kGrid
                            : rng.range(0, kDaySeconds - 1);
    const auto creator = static_cast<graph::UserId>(
        rng.range(0, static_cast<std::int64_t>(n) - 1));
    activities.push_back(
        {creator, 0, kDay0 + rng.range(0, 6) * kDaySeconds + tod});
  }
  star.dataset.trace = trace::ActivityTrace(n, std::move(activities));
  return star;
}

/// A shuffled prefix of the contacts (at most `max_picks`), with the
/// extra users and, when asked, a repeated holder and the owner itself
/// spliced in at random places.
std::vector<graph::UserId> random_selection(util::Rng& rng, const Star& star,
                                            std::size_t max_picks,
                                            bool odd_holders) {
  std::vector<graph::UserId> sel;
  for (std::size_t f = 1; f <= star.degree; ++f)
    sel.push_back(static_cast<graph::UserId>(f));
  rng.shuffle(sel);
  sel.resize(std::min(sel.size(), max_picks));
  const auto splice = [&](graph::UserId holder) {
    const auto at = rng.range(0, static_cast<std::int64_t>(sel.size()));
    sel.insert(sel.begin() + at, holder);
  };
  for (std::size_t e = 0; e < star.extras; ++e)
    splice(static_cast<graph::UserId>(1 + star.degree + e));
  if (odd_holders) {
    splice(0);
    if (!sel.empty()) splice(sel.front());
  }
  return sel;
}

// Every prefix row of random stars, under both connectivities, equals the
// union-based evaluation; evaluate_user equals the oracle's full
// evaluation. One scratch serves every case, so each build follows a user
// of another degree.
TEST(UserTableOracle, RandomStarsMatchUnionEvaluation) {
  util::Rng rng(20240611);
  EvalScratch scratch;
  std::vector<UserMetrics> rows;
  for (const std::size_t degree : {130, 0, 1, 7, 63, 64, 65, 7, 130, 1}) {
    for (const OwnerKind owner :
         {OwnerKind::kRandom, OwnerKind::kEmpty, OwnerKind::kFullDay}) {
      for (int round = 0; round < 3; ++round) {
        const std::size_t extras = round == 0 ? 0 : 2;
        const Star star = make_star(rng, degree, extras, owner);
        const auto sel = random_selection(rng, star, 24, round == 2);
        for (const auto connectivity :
             {Connectivity::kConRep, Connectivity::kUnconRep}) {
          SCOPED_TRACE("degree " + std::to_string(degree) + " owner " +
                       std::to_string(static_cast<int>(owner)) + " round " +
                       std::to_string(round) + " " +
                       placement::to_string(connectivity));
          const std::size_t k_max = sel.size() + 2;
          evaluate_user_prefixes(star.dataset, star.schedules, 0, sel,
                                 connectivity, k_max, scratch, rows);
          expect_rows_equal(rows, oracle::evaluate_user_prefixes(
                                      star.dataset, star.schedules, 0, sel,
                                      connectivity, k_max));
          expect_rows_equal(
              evaluate_user(star.dataset, star.schedules, 0, sel,
                            connectivity),
              oracle::evaluate_user(star.dataset, star.schedules, 0, sel,
                                    connectivity));
        }
      }
    }
  }
}

// The engine's use: one table per user serves several runs, each asked
// for a row range first_k..k_max. Every slice equals the oracle's rows of
// that run, and one table is reused across users of shrinking and growing
// degree, so no stale segment, mask word or memo entry of a larger user
// can leak into a smaller one.
TEST(UserTableOracle, RunsAndRowRangesOnOneReusedTable) {
  util::Rng rng(77);
  UserTable table;
  for (const std::size_t degree : {130, 7, 65, 0, 64, 1, 63, 130}) {
    const Star star = make_star(rng, degree, 1, OwnerKind::kRandom);
    std::vector<std::vector<graph::UserId>> runs;
    std::vector<graph::UserId> holders;
    for (int r = 0; r < 4; ++r) {
      runs.push_back(random_selection(rng, star, 10, r == 3));
      holders.insert(holders.end(), runs.back().begin(), runs.back().end());
    }
    for (const auto connectivity :
         {Connectivity::kConRep, Connectivity::kUnconRep}) {
      table.build(star.dataset, star.schedules, 0, holders, connectivity);
      const auto picks = table.holder_positions();
      ASSERT_EQ(picks.size(), holders.size());
      std::size_t from = 0;
      for (const auto& run : runs) {
        const auto want = oracle::evaluate_user_prefixes(
            star.dataset, star.schedules, 0, run, connectivity, 12);
        const auto run_picks = picks.subspan(from, run.size());
        from += run.size();
        for (const auto& [first_k, k_max] :
             {std::pair<std::size_t, std::size_t>{0, 12}, {3, 3}, {2, 9},
              {12, 12}, {0, 0}}) {
          SCOPED_TRACE("degree " + std::to_string(degree) + " rows " +
                       std::to_string(first_k) + ".." +
                       std::to_string(k_max));
          std::vector<UserMetrics> got(k_max - first_k + 1);
          table.evaluate(run_picks, first_k, k_max, got);
          expect_rows_equal(
              got, std::span<const UserMetrics>(want).subspan(
                       first_k, k_max - first_k + 1));
        }
      }
    }
  }
}

// Holder positions: contacts keep their graph order, holders outside the
// contacts follow in first-appearance order, repeats share a position.
TEST(UserTableOracle, HolderPositions) {
  util::Rng rng(5);
  const Star star = make_star(rng, 4, 2, OwnerKind::kRandom);
  UserTable table;
  const std::vector<graph::UserId> holders{3, 6, 1, 5, 6, 0, 4, 3};
  table.build(star.dataset, star.schedules, 0, holders,
              Connectivity::kConRep);
  const std::vector<std::uint32_t> want{2, 4, 0, 5, 4, 6, 3, 2};
  EXPECT_EQ(std::vector<std::uint32_t>(table.holder_positions().begin(),
                                       table.holder_positions().end()),
            want);
}

}  // namespace
}  // namespace dosn::sim
