// Differential tests: the allocation-free pair-delay sweep kernels and the
// memo-fed incremental group delay against the intersect + worst_case_wait
// oracle they replaced (pair_delay_oracle.hpp). Every result must agree exactly
// on randomized pairs that stress the sweep's boundary rules: touching
// endpoints across the two sets, a piece at 0 together with a piece ending
// at 86400 (the midnight wrap), the full day, equal and nested sets, and
// an empty side.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "interval/delay_graph.hpp"
#include "pair_delay_oracle.hpp"
#include "util/rng.hpp"

namespace dosn::interval {
namespace {

constexpr RendezvousMode kModes[] = {RendezvousMode::kDirect,
                                     RendezvousMode::kRelay};

std::string name(RendezvousMode mode) {
  return mode == RendezvousMode::kDirect ? "direct" : "relay";
}

/// 0-8 pieces snapped to `grid`, so endpoints of the two sides of a pair
/// often coincide (touching pieces merge on construction, as canonical
/// sets do). With `wrap`, the set also gets a piece starting at 0 and one
/// ending at kDaySeconds, so it is online across midnight.
DaySchedule random_schedule(util::Rng& rng, Seconds grid, bool wrap) {
  const Seconds slots = kDaySeconds / grid;
  std::vector<Interval> pieces;
  const auto count = rng.range(0, 8);
  for (Seconds p = 0; p < count; ++p) {
    const Seconds start = rng.range(0, slots - 1) * grid;
    const Seconds len = rng.range(1, std::max<Seconds>(1, slots / 6)) * grid;
    pieces.push_back({start, std::min(start + len, kDaySeconds)});
  }
  if (wrap) {
    pieces.push_back({0, rng.range(1, 3) * grid});
    pieces.push_back({kDaySeconds - rng.range(1, 3) * grid, kDaySeconds});
  }
  return DaySchedule(IntervalSet(std::move(pieces)));
}

/// A schedule drawn from one of the grids above, wrapping one time in four.
DaySchedule random_schedule(util::Rng& rng) {
  static constexpr Seconds kGrids[] = {1, 60, 1800, 3600, 4 * 3600};
  const Seconds grid = kGrids[rng.below(std::size(kGrids))];
  return random_schedule(rng, grid, rng.below(4) == 0);
}

void expect_matches(const DaySchedule& s, const DaySchedule& t) {
  for (const auto mode : kModes)
    EXPECT_EQ(pair_delay(s, t, mode), oracle::pair_delay(s, t, mode))
        << name(mode) << " S=" << s.to_string() << " T=" << t.to_string();
}

TEST(PairDelayOracle, RandomPairsMatchExactly) {
  util::Rng rng(0x9a1d);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto s = random_schedule(rng);
    const auto t = random_schedule(rng);
    expect_matches(s, t);
    expect_matches(t, s);
  }
}

TEST(PairDelayOracle, SharedGridTouchingEndpoints) {
  // One coarse grid for both sides: most pieces of S start or end exactly
  // where a piece of T ends or starts.
  util::Rng rng(0x70c4);
  for (int trial = 0; trial < 5000; ++trial) {
    const auto s = random_schedule(rng, 3600, false);
    const auto t = random_schedule(rng, 3600, rng.below(2) == 0);
    expect_matches(s, t);
  }
}

TEST(PairDelayOracle, MidnightWrap) {
  const Seconds h = 3600;
  const auto wrap = [&](Seconds head_h, Seconds tail_h) {
    return DaySchedule(IntervalSet(std::vector<Interval>{
        {0, head_h * h}, {kDaySeconds - tail_h * h, kDaySeconds}}));
  };
  const auto single = [&](Seconds a, Seconds b) {
    return DaySchedule(IntervalSet::single(a * h, b * h));
  };
  const std::vector<DaySchedule> cases{
      wrap(2, 3), wrap(1, 1), single(0, 4), single(20, 24), single(22, 24),
      single(0, 1), single(3, 9), single(12, 24), DaySchedule::always()};
  for (const auto& s : cases)
    for (const auto& t : cases) expect_matches(s, t);

  util::Rng rng(0x3d6b);
  for (int trial = 0; trial < 5000; ++trial) {
    const auto s = random_schedule(rng, 1800, true);
    const auto t = random_schedule(rng, 1800, rng.below(2) == 0);
    expect_matches(s, t);
    expect_matches(t, s);
  }
}

TEST(PairDelayOracle, FullDayEqualAndNestedSets) {
  util::Rng rng(0x51c3);
  const auto always = DaySchedule::always();
  for (int trial = 0; trial < 3000; ++trial) {
    const auto s = random_schedule(rng);
    const auto wider = s.unite(random_schedule(rng));  // s ⊆ wider
    expect_matches(s, s);
    expect_matches(s, wider);
    expect_matches(wider, s);
    expect_matches(s, always);
    expect_matches(always, s);
  }
  expect_matches(always, always);
  EXPECT_EQ(pair_delay(always, always, RendezvousMode::kDirect), 0);
  EXPECT_EQ(pair_delay(always, always, RendezvousMode::kRelay), 0);
}

TEST(PairDelayOracle, EmptySideHasNoEdge) {
  util::Rng rng(0xe3f7);
  const DaySchedule never;
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = random_schedule(rng);
    for (const auto mode : kModes) {
      EXPECT_EQ(pair_delay(s, never, mode), std::nullopt);
      EXPECT_EQ(pair_delay(never, s, mode), std::nullopt);
    }
    expect_matches(s, never);
    expect_matches(never, s);
  }
}

TEST(PairDelayOracle, DirectIsSymmetric) {
  // PairDelayMemo evaluates one kDirect kernel per unordered pair and
  // writes both directions from it.
  util::Rng rng(0x5e77);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto s = random_schedule(rng);
    const auto t = random_schedule(rng);
    EXPECT_EQ(pair_delay(s, t, RendezvousMode::kDirect),
              pair_delay(t, s, RendezvousMode::kDirect))
        << "S=" << s.to_string() << " T=" << t.to_string();
  }
}

TEST(PairDelayOracle, IncrementalGroupDelayMatchesOracleGroupDelay) {
  // Groups mix fresh schedules with repeats of earlier nodes, supersets of
  // earlier nodes and empty schedules; every prefix is compared.
  util::Rng rng(0x6a0e);
  for (int trial = 0; trial < 400; ++trial) {
    const auto mode = kModes[trial % 2];
    PairDelayMemo memo;
    memo.reset(mode, 0);
    IncrementalGroupDelay inc(mode);
    const auto n = rng.range(1, 10);
    std::vector<DaySchedule> nodes;
    nodes.reserve(static_cast<std::size_t>(n));  // the memo points into them
    for (Seconds i = 0; i < n; ++i) {
      const auto kind = nodes.empty() ? 0 : rng.below(4);
      if (kind == 1)
        nodes.push_back(nodes[rng.below(nodes.size())]);
      else if (kind == 2)
        nodes.push_back(
            nodes[rng.below(nodes.size())].unite(random_schedule(rng)));
      else if (kind == 3)
        nodes.push_back(DaySchedule{});
      else
        nodes.push_back(random_schedule(rng));
      inc.push(memo.add_node(nodes.back().set().pieces()), memo);

      const auto ref = oracle::group_delay(nodes, mode);
      for (const auto& got : {inc.result(), group_delay(nodes, mode)}) {
        EXPECT_EQ(got.diameter, ref.diameter) << name(mode) << " i=" << i;
        EXPECT_EQ(got.worst_target, ref.worst_target);
        EXPECT_EQ(got.fully_connected, ref.fully_connected);
        EXPECT_EQ(got.participants, ref.participants);
      }
    }
  }
}

}  // namespace
}  // namespace dosn::interval
