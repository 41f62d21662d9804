// Unit tests for IntervalSet algebra, the sorted-run union builder and
// its 32-bit packed output.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "interval/packed_set.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dosn::interval {
namespace {

IntervalSet make(std::initializer_list<Interval> list) {
  return IntervalSet(std::vector<Interval>(list));
}

TEST(IntervalSet, EmptyByDefault) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.measure(), 0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.first().has_value());
}

TEST(IntervalSet, SingleInterval) {
  auto s = IntervalSet::single(10, 20);
  EXPECT_EQ(s.measure(), 10);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(19));
  EXPECT_FALSE(s.contains(20));  // half-open
  EXPECT_FALSE(s.contains(9));
}

TEST(IntervalSet, RejectsEmptyInterval) {
  EXPECT_THROW(IntervalSet::single(5, 5), ConfigError);
  EXPECT_THROW(IntervalSet::single(6, 5), ConfigError);
  IntervalSet s;
  EXPECT_THROW(s.add(3, 3), ConfigError);
}

TEST(IntervalSet, NormalizesOverlapsAndAdjacency) {
  auto s = make({{10, 20}, {15, 30}, {30, 40}, {50, 60}});
  EXPECT_EQ(s.piece_count(), 2u);
  EXPECT_EQ(s.measure(), 40);
  EXPECT_EQ(s.pieces()[0], (Interval{10, 40}));
  EXPECT_EQ(s.pieces()[1], (Interval{50, 60}));
  // Unsorted, nested and repeated pieces normalize to the same set.
  EXPECT_EQ(make({{50, 60}, {30, 40}, {12, 14}, {15, 30}, {10, 20}, {50, 60}}),
            s);
}

TEST(IntervalSet, AddMergesNeighbours) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  EXPECT_EQ(s.piece_count(), 2u);
  s.add(20, 30);  // bridges the gap
  EXPECT_EQ(s.piece_count(), 1u);
  EXPECT_EQ(s.measure(), 30);
}

TEST(IntervalSet, AddInsideExistingIsNoop) {
  auto s = IntervalSet::single(0, 100);
  s.add(20, 30);
  EXPECT_EQ(s.piece_count(), 1u);
  EXPECT_EQ(s.measure(), 100);
}

TEST(IntervalSet, UniteDisjointAndOverlapping) {
  auto a = make({{0, 10}, {20, 30}});
  auto b = make({{5, 25}, {40, 50}});
  auto u = a.unite(b);
  EXPECT_EQ(u.measure(), 40);
  EXPECT_EQ(u.piece_count(), 2u);
  EXPECT_EQ(u, b.unite(a));  // commutative
}

TEST(IntervalSet, IntersectBasics) {
  auto a = make({{0, 10}, {20, 30}});
  auto b = make({{5, 25}});
  auto i = a.intersect(b);
  EXPECT_EQ(i, make({{5, 10}, {20, 25}}));
  EXPECT_EQ(i.measure(), a.intersection_measure(b));
  EXPECT_EQ(i, b.intersect(a));
}

TEST(IntervalSet, IntersectEmptyWhenDisjoint) {
  auto a = IntervalSet::single(0, 10);
  auto b = IntervalSet::single(10, 20);  // touching, half-open: no overlap
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_FALSE(a.intersects(b));
}

TEST(IntervalSet, SubtractCarvesHoles) {
  auto a = IntervalSet::single(0, 100);
  auto b = make({{10, 20}, {30, 40}});
  auto d = a.subtract(b);
  EXPECT_EQ(d, make({{0, 10}, {20, 30}, {40, 100}}));
  EXPECT_EQ(d.measure(), 80);
}

TEST(IntervalSet, SubtractEverything) {
  auto a = make({{10, 20}, {30, 40}});
  EXPECT_TRUE(a.subtract(IntervalSet::single(0, 50)).empty());
}

TEST(IntervalSet, SubtractDisjointIsIdentity) {
  auto a = make({{10, 20}});
  auto b = make({{30, 40}});
  EXPECT_EQ(a.subtract(b), a);
}

TEST(IntervalSet, NextAtOrAfter) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.next_at_or_after(0), 10);
  EXPECT_EQ(s.next_at_or_after(10), 10);
  EXPECT_EQ(s.next_at_or_after(15), 15);
  EXPECT_EQ(s.next_at_or_after(20), 40);
  EXPECT_EQ(s.next_at_or_after(50), std::nullopt);
}

TEST(IntervalSet, ClipRestrictsToWindow) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.clip(15, 45), make({{15, 20}, {40, 45}}));
  EXPECT_EQ(s.clip(0, 100).measure(), 20);
  EXPECT_TRUE(s.clip(20, 40).empty());
  EXPECT_TRUE(s.clip(50, 10).empty());  // inverted window
}

TEST(IntervalSet, LastEnd) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.last_end(), 50);
}

TEST(IntervalSet, ToStringRendersPieces) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.to_string(), "{[10,20) [40,50)}");
  EXPECT_EQ(IntervalSet{}.to_string(), "{}");
}

TEST(IntervalSet, OperatorsMatchMethods) {
  auto a = make({{0, 10}});
  auto b = make({{5, 15}});
  EXPECT_EQ(a | b, a.unite(b));
  EXPECT_EQ(a & b, a.intersect(b));
  EXPECT_EQ(a - b, a.subtract(b));
}

// Algebraic identities on randomized inputs.
class IntervalAlgebra : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static IntervalSet random_set(util::Rng& rng) {
    IntervalSet s;
    const int pieces = static_cast<int>(rng.below(6));
    for (int i = 0; i < pieces; ++i) {
      const Seconds start = rng.range(0, 990);
      const Seconds len = rng.range(1, 60);
      s.add(start, start + len);
    }
    return s;
  }
};

TEST_P(IntervalAlgebra, DeMorganAndMeasureInvariants) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const auto a = random_set(rng);
    const auto b = random_set(rng);

    // |A| + |B| = |A∪B| + |A∩B|
    EXPECT_EQ(a.measure() + b.measure(),
              a.unite(b).measure() + a.intersect(b).measure());
    // A − B = A ∩ complement(B), the complement taken within [0, 2000)
    const auto window_complement = IntervalSet::single(0, 2000).subtract(b);
    EXPECT_EQ(a.subtract(b), a.intersect(window_complement));
    // (A ∪ B) − B = A − B
    EXPECT_EQ(a.unite(b).subtract(b), a.subtract(b));
    // Union is idempotent, intersection too.
    EXPECT_EQ(a.unite(a), a);
    EXPECT_EQ(a.intersect(a), a);
    // intersects() agrees with non-empty intersection.
    EXPECT_EQ(a.intersects(b), !a.intersect(b).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalAlgebra,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Canonical-form invariant under random adds.
TEST(IntervalSet, CanonicalInvariantUnderRandomAdds) {
  util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    IntervalSet s;
    Seconds expected_contains = -1;
    for (int i = 0; i < 40; ++i) {
      const Seconds start = rng.range(0, 500);
      const Seconds len = rng.range(1, 50);
      s.add(start, start + len);
      if (expected_contains < 0) expected_contains = start;
    }
    // Canonical: sorted, disjoint, non-adjacent, positive length.
    const auto pieces = s.pieces();
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      EXPECT_LT(pieces[i].start, pieces[i].end);
      if (i > 0) {
        EXPECT_LT(pieces[i - 1].end, pieces[i].start);
      }
    }
    EXPECT_TRUE(s.contains(expected_contains));
  }
}

// ------------------------------------------------------- SortedRunUnion

using Runs = std::vector<std::vector<Interval>>;

/// The builder holding `runs`, appended run by run.
SortedRunUnion& append_runs(SortedRunUnion& builder, const Runs& runs) {
  for (const auto& run : runs) {
    auto& pieces = builder.pieces();
    pieces.insert(pieces.end(), run.begin(), run.end());
    builder.end_run();
  }
  return builder;
}

IntervalSet build_runs(SortedRunUnion& builder, const Runs& runs) {
  return append_runs(builder, runs).build();
}

/// The packed build of `runs` holds `expected`'s pieces and answers
/// next_at_or_after as it does: at every piece start and end, inside every
/// gap, and before the first and after the last piece.
void expect_packed_matches(SortedRunUnion& builder, const Runs& runs,
                           const IntervalSet& expected) {
  const PackedSet packed = append_runs(builder, runs).build_packed();
  ASSERT_EQ(packed.piece_count(), expected.piece_count());
  EXPECT_EQ(packed.measure(), expected.measure());
  std::vector<Seconds> probes{-1, 0};
  for (std::size_t i = 0; i < packed.piece_count(); ++i) {
    const Interval& want = expected.pieces()[i];
    const PackedSet::Piece& got = packed.pieces()[i];
    EXPECT_EQ(Seconds{got.start}, want.start) << "piece " << i;
    EXPECT_EQ(Seconds{got.end}, want.end) << "piece " << i;
    // The end is the first instant of the gap after the piece; the
    // midpoint lies inside that gap (or past the last piece).
    const Seconds next = i + 1 < packed.piece_count()
                             ? expected.pieces()[i + 1].start
                             : want.end + 100;
    probes.insert(probes.end(), {want.start - 1, want.start, want.end - 1,
                                 want.end, (want.end + next) / 2});
  }
  for (const Seconds t : probes)
    EXPECT_EQ(packed.next_at_or_after(t), expected.next_at_or_after(t))
        << "t = " << t << " in " << expected.to_string();
}

/// The reference: every piece of every run normalized in one constructor.
IntervalSet normalize_runs(const Runs& runs) {
  std::vector<Interval> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  return IntervalSet(std::move(all));
}

TEST(SortedRunUnion, EdgeShapesMatchTheConstructor) {
  constexpr Seconds D = kDaySeconds;
  const Runs shapes[] = {
      {},                                    // no run at all
      {{}},                                  // one empty run
      {{}, {}, {}},                          // only empty runs
      {{{10, 20}, {30, 40}}},                // a single run
      {{}, {{5, 9}}, {}, {{1, 3}}, {}},      // empty runs between pieces
      // Midnight-adjacent pieces inside one run and across runs.
      {{{D - 60, D}, {D, D + 60}}, {{2 * D - 10, 2 * D}}, {{2 * D, 2 * D + 5}}},
      // Equal starts inside a run and across runs.
      {{{0, 10}, {0, 4}, {7, 12}}, {{0, 3}, {12, 13}}, {{12, 20}}},
      // Pieces touching across runs merge; a gap of one second does not.
      {{{0, 10}, {21, 30}}, {{10, 20}}, {{30, 31}}},
  };
  SortedRunUnion builder;
  for (const Runs& runs : shapes) {
    const IntervalSet got = build_runs(builder, runs);
    EXPECT_EQ(got, normalize_runs(runs)) << got.to_string();
    EXPECT_TRUE(got.is_canonical());
    expect_packed_matches(builder, runs, normalize_runs(runs));
  }
}

TEST(SortedRunUnion, RandomRunsMatchTheConstructor) {
  util::Rng rng(2012);
  SortedRunUnion builder;  // reused across rounds, as a serving worker does
  for (int round = 0; round < 300; ++round) {
    // Up to 12 runs: owner, replicas and storekeepers of one group.
    Runs runs(static_cast<std::size_t>(rng.range(1, 12)));
    for (auto& run : runs) {
      const auto n = rng.range(0, 40);
      Seconds start = rng.range(0, 50);
      for (Seconds i = 0; i < n; ++i) {
        // Steps of 0 give equal starts; short steps give overlaps within
        // the run and pieces that touch their successor.
        const Seconds len = rng.range(1, 30);
        run.push_back({start, start + len});
        start += rng.chance(0.2) ? len : rng.range(0, 40);
      }
    }
    const IntervalSet got = build_runs(builder, runs);
    ASSERT_EQ(got, normalize_runs(runs)) << "round " << round;
    expect_packed_matches(builder, runs, got);
  }
}

TEST(SortedRunUnion, OpenRunIsClosedByBuild) {
  SortedRunUnion builder;
  builder.pieces().push_back({40, 50});
  builder.end_run();
  builder.pieces().push_back({0, 45});  // not closed
  EXPECT_EQ(builder.build(), IntervalSet::single(0, 50));
  EXPECT_TRUE(builder.build().empty());  // the builder starts empty again
}

}  // namespace
}  // namespace dosn::interval
