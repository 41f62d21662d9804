// Unit tests for IntervalSet algebra.
#include <gtest/gtest.h>

#include "interval/interval_set.hpp"
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

TEST(IntervalSet, ComplementWithinWindow) {
  auto a = make({{10, 20}, {40, 50}});
  auto c = a.complement(0, 60);
  EXPECT_EQ(c, make({{0, 10}, {20, 40}, {50, 60}}));
  // Complement twice returns the clip of the original.
  EXPECT_EQ(c.complement(0, 60), a);
}

TEST(IntervalSet, NextAtOrAfter) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.next_at_or_after(0), 10);
  EXPECT_EQ(s.next_at_or_after(10), 10);
  EXPECT_EQ(s.next_at_or_after(15), 15);
  EXPECT_EQ(s.next_at_or_after(20), 40);
  EXPECT_EQ(s.next_at_or_after(50), std::nullopt);
}

TEST(IntervalSet, MeasureWithin) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.measure_within(0, 100), 20);
  EXPECT_EQ(s.measure_within(15, 45), 10);
  EXPECT_EQ(s.measure_within(20, 40), 0);
  EXPECT_EQ(s.measure_within(50, 10), 0);  // inverted window
}

TEST(IntervalSet, ClipAndShift) {
  auto s = make({{10, 20}, {40, 50}});
  EXPECT_EQ(s.clip(15, 45), make({{15, 20}, {40, 45}}));
  EXPECT_EQ(s.shift(100), make({{110, 120}, {140, 150}}));
  EXPECT_EQ(s.shift(-10), make({{0, 10}, {30, 40}}));
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
    // A − B = A ∩ complement(B)
    const auto window_complement = b.complement(0, 2000);
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

}  // namespace
}  // namespace dosn::interval
