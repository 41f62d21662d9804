// Unit tests for the replica-selection policies (Sec III semantics).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/social_graph.hpp"
#include "placement/max_av.hpp"
#include "placement/most_active.hpp"
#include "placement/policy.hpp"
#include "placement/random.hpp"
#include "placement_oracle.hpp"
#include "util/error.hpp"

namespace dosn::placement {
namespace {

constexpr interval::Seconds kH = 3600;

DaySchedule window(interval::Seconds start_h, interval::Seconds end_h) {
  return DaySchedule(
      interval::IntervalSet::single(start_h * kH, end_h * kH));
}

struct Fixture {
  std::vector<UserId> candidates;
  std::vector<DaySchedule> schedules;
  trace::ActivityTrace trace;

  PlacementContext context(UserId user, Connectivity conn,
                           std::size_t k) const {
    PlacementContext c;
    c.user = user;
    c.candidates = candidates;
    c.schedules = schedules;
    c.trace = &trace;
    c.connectivity = conn;
    c.max_replicas = k;
    return c;
  }
};

// User 0 online 08-10. Friends: 1 online 09-13 (overlaps owner), 2 online
// 12-20 (overlaps 1 only), 3 online 22-24 (overlaps nobody), 4 never online.
Fixture fixture() {
  Fixture f;
  f.candidates = {1, 2, 3, 4};
  f.schedules = {window(8, 10), window(9, 13), window(12, 20), window(22, 24),
                 DaySchedule{}};
  f.trace = trace::ActivityTrace(5, {});
  return f;
}

TEST(MaxAv, UnconRepPicksGreedyCover) {
  auto f = fixture();
  MaxAvPolicy policy;
  util::Rng rng(1);
  const auto r =
      policy.select(f.context(0, Connectivity::kUnconRep, 4), rng);
  // Gains (owner covers 08-10): friend2 adds 8h, friend1 adds 3h (09-13
  // minus owner minus friend2), friend3 adds 2h, friend4 adds 0.
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 2u);
  EXPECT_EQ(r[1], 1u);
  EXPECT_EQ(r[2], 3u);
}

TEST(MaxAv, StopsWhenNoImprovement) {
  auto f = fixture();
  MaxAvPolicy policy;
  util::Rng rng(1);
  const auto r =
      policy.select(f.context(0, Connectivity::kUnconRep, 10), rng);
  EXPECT_EQ(r.size(), 3u);  // friend 4 never adds coverage
}

TEST(MaxAv, ConRepRespectsConnectivity) {
  auto f = fixture();
  MaxAvPolicy policy;
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kConRep, 4), rng);
  // First pick must overlap the owner (08-10): only friend 1 qualifies
  // (friend 2's 12-20 does not touch 08-10). Then friend 2 connects via 1;
  // friend 3 (22-24) never connects and is excluded.
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], 1u);
  EXPECT_EQ(r[1], 2u);
}

TEST(MaxAv, ConRepExcludesDisconnected) {
  // Friend 3 (22-24) overlaps nothing selected; it must not be chosen.
  auto f = fixture();
  f.candidates = {1, 3};
  MaxAvPolicy policy;
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kConRep, 2), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 1u);
}

TEST(MaxAv, RespectsMaxReplicas) {
  auto f = fixture();
  MaxAvPolicy policy;
  util::Rng rng(1);
  EXPECT_EQ(policy.select(f.context(0, Connectivity::kUnconRep, 1), rng).size(),
            1u);
  EXPECT_TRUE(
      policy.select(f.context(0, Connectivity::kUnconRep, 0), rng).empty());
}

TEST(MaxAv, OwnerOfflineSeedsFromFirstReplica) {
  auto f = fixture();
  f.schedules[0] = DaySchedule{};  // owner never online
  MaxAvPolicy policy;
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kConRep, 4), rng);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(r[0], 2u);  // biggest coverage seeds the set
}

TEST(MaxAv, AoDTimeObjectiveIgnoresOwnerSeed) {
  // Owner covers 08-10; a friend exactly covering 08-10 adds nothing to
  // availability but everything to AoD-time.
  Fixture f;
  f.candidates = {1};
  f.schedules = {window(8, 10), window(8, 10)};
  f.trace = trace::ActivityTrace(2, {});
  util::Rng rng(1);

  MaxAvPolicy availability_objective(MaxAvObjective::kAvailability);
  EXPECT_TRUE(availability_objective
                  .select(f.context(0, Connectivity::kUnconRep, 1), rng)
                  .empty());

  MaxAvPolicy aod_objective(MaxAvObjective::kAoDTime);
  EXPECT_EQ(
      aod_objective.select(f.context(0, Connectivity::kUnconRep, 1), rng)
          .size(),
      1u);
}

TEST(MaxAv, ActivityObjectiveCoversReceivedActivity) {
  // Activities on user 0's profile at 12:30 and 15:00 (times-of-day).
  Fixture f;
  f.candidates = {1, 2};
  f.schedules = {window(8, 10), window(12, 13), window(14, 16)};
  f.trace = trace::ActivityTrace(
      3, {{1, 0, 12 * kH + 1800}, {2, 0, 15 * kH}, {2, 0, 15 * kH + 60}});
  util::Rng rng(1);
  MaxAvPolicy policy(MaxAvObjective::kAoDActivity);
  const auto r = policy.select(f.context(0, Connectivity::kUnconRep, 2), rng);
  // Friend 2 covers two activity instants, friend 1 covers one.
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], 2u);
  EXPECT_EQ(r[1], 1u);
}

TEST(MaxAv, ActivityObjectiveRequiresTrace) {
  auto f = fixture();
  auto ctx = f.context(0, Connectivity::kUnconRep, 2);
  ctx.trace = nullptr;
  MaxAvPolicy policy(MaxAvObjective::kAoDActivity);
  util::Rng rng(1);
  EXPECT_THROW(policy.select(ctx, rng), ConfigError);
}

TEST(MaxAv, LeastOverlapVariantPrefersSmallOverlap) {
  // Connected candidates: 1 (09-13, big gain) and 5 (09:00-09:30 tiny
  // overlap with covered, small gain). The literal paper tie-break picks
  // the least-overlapping one first.
  Fixture f;
  f.candidates = {1, 2};
  f.schedules = {window(8, 10), window(9, 13),
                 DaySchedule(interval::IntervalSet::single(
                     9 * kH + 1800, 11 * kH))};
  f.trace = trace::ActivityTrace(3, {});
  util::Rng rng(1);
  MaxAvPolicy least(MaxAvObjective::kAvailability,
                    /*conrep_least_overlap=*/true);
  const auto r = least.select(f.context(0, Connectivity::kConRep, 1), rng);
  ASSERT_EQ(r.size(), 1u);
  // Candidate 2 overlaps covered (08-10) by 30 min vs candidate 1's 1h.
  EXPECT_EQ(r[0], 2u);
}

TEST(MaxAv, ActivityLeastOverlapMatchesScheduleRule) {
  // Regression: select_activity_cover used to ignore conrep_least_overlap_,
  // so the two objectives implemented different ConRep policies. Both
  // must now apply the least-overlap rule (overlap counted over covered
  // activity instants for the activity objective).
  //
  // Owner 08-10. Activities on the profile: 09:00 (covered by the owner),
  // 12:00 and 15:00. Candidate 1 (08:30-16:00) is connected, gains two
  // instants but overlaps the covered 09:00 instant; candidate 2
  // (09:30-12:30) is connected, gains one instant with zero overlap.
  Fixture f;
  f.candidates = {1, 2};
  f.schedules = {window(8, 10),
                 DaySchedule(interval::IntervalSet::single(
                     8 * kH + 1800, 16 * kH)),
                 DaySchedule(interval::IntervalSet::single(
                     9 * kH + 1800, 12 * kH + 1800))};
  f.trace = trace::ActivityTrace(
      3, {{1, 0, 9 * kH}, {1, 0, 12 * kH}, {2, 0, 15 * kH}});
  util::Rng rng(1);

  MaxAvPolicy max_gain(MaxAvObjective::kAoDActivity);
  const auto greedy =
      max_gain.select(f.context(0, Connectivity::kConRep, 1), rng);
  ASSERT_EQ(greedy.size(), 1u);
  EXPECT_EQ(greedy[0], 1u);  // default rule: biggest gain

  MaxAvPolicy least(MaxAvObjective::kAoDActivity,
                    /*conrep_least_overlap=*/true);
  const auto r = least.select(f.context(0, Connectivity::kConRep, 1), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 2u);  // least-overlap rule: zero covered instants
}

TEST(MaxAv, KMaxBeyondDegreeStopsAtCandidatePool) {
  auto f = fixture();
  MaxAvPolicy policy;
  util::Rng rng(1);
  const auto r =
      policy.select(f.context(0, Connectivity::kUnconRep, 100), rng);
  EXPECT_LE(r.size(), f.candidates.size());
  EXPECT_EQ(r.size(), 3u);  // friend 4 never contributes coverage
}

TEST(MaxAv, EmptyCandidateListSelectsNothing) {
  auto f = fixture();
  f.candidates.clear();
  MaxAvPolicy policy;
  util::Rng rng(1);
  EXPECT_TRUE(
      policy.select(f.context(0, Connectivity::kConRep, 5), rng).empty());
  EXPECT_TRUE(
      policy.select(f.context(0, Connectivity::kUnconRep, 5), rng).empty());
}

TEST(MaxAv, ConRepNoConnectedCandidateSelectsNothing) {
  // Owner 08-10; every candidate 22-24: none ever connects, so the
  // `best < 0` early break must fire on the very first round.
  Fixture f;
  f.candidates = {1, 2};
  f.schedules = {window(8, 10), window(22, 24), window(22, 23)};
  f.trace = trace::ActivityTrace(3, {});
  util::Rng rng(1);
  MaxAvPolicy policy;
  EXPECT_TRUE(
      policy.select(f.context(0, Connectivity::kConRep, 2), rng).empty());
  MaxAvPolicy least(MaxAvObjective::kAvailability,
                    /*conrep_least_overlap=*/true);
  EXPECT_TRUE(
      least.select(f.context(0, Connectivity::kConRep, 2), rng).empty());
}

// The CELF lazy greedy must select exactly what the reference full-rescan
// greedy (tests/placement_oracle.cpp) selects, for every objective,
// connectivity regime and ConRep rule (max gain or least overlap), on
// random instances (including empty schedules, duplicates, and activity
// traces).
class LazyEagerEquivalence
    : public ::testing::TestWithParam<
          std::tuple<MaxAvObjective, Connectivity, bool>> {};

TEST_P(LazyEagerEquivalence, SelectionsAreIdentical) {
  const auto [objective, conn, least_overlap] = GetParam();
  constexpr interval::Seconds kDay = 24 * kH;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    util::Rng rng(seed * 7919 + 13);
    const std::size_t n = 3 + rng.below(40);
    Fixture f;
    std::vector<trace::Activity> acts;
    f.schedules.reserve(n + 1);
    for (std::size_t u = 0; u <= n; ++u) {
      interval::IntervalSet s;
      const std::size_t pieces = rng.below(4);  // 0 pieces = never online
      for (std::size_t j = 0; j < pieces; ++j) {
        const auto start = static_cast<interval::Seconds>(
            rng.below(static_cast<std::uint64_t>(kDay - kH)));
        const auto len =
            static_cast<interval::Seconds>(600 + rng.below(6 * kH));
        s.add(start, std::min(start + len, kDay));
      }
      f.schedules.emplace_back(std::move(s));
      if (u > 0) {
        f.candidates.push_back(static_cast<UserId>(u));
        const std::size_t posts = rng.below(5);
        for (std::size_t a = 0; a < posts; ++a)
          acts.push_back({static_cast<UserId>(u), 0,
                          static_cast<interval::Seconds>(
                              rng.below(static_cast<std::uint64_t>(kDay)))});
      }
    }
    f.trace = trace::ActivityTrace(n + 1, acts);

    const MaxAvPolicy policy(objective, least_overlap);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, n / 2, n + 5}) {
      util::Rng unused(1);
      const PlacementContext ctx = f.context(0, conn, k);
      EXPECT_EQ(policy.select(ctx, unused),
                oracle::max_av(ctx, objective, least_overlap, /*lazy=*/false))
          << "seed=" << seed << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllObjectives, LazyEagerEquivalence,
    ::testing::Combine(::testing::Values(MaxAvObjective::kAvailability,
                                         MaxAvObjective::kAoDTime,
                                         MaxAvObjective::kAoDActivity),
                       ::testing::Values(Connectivity::kConRep,
                                         Connectivity::kUnconRep),
                       ::testing::Bool()));

TEST(MostActive, RanksByInteractionCount) {
  Fixture f;
  f.candidates = {1, 2, 3};
  f.schedules = {window(0, 24), window(0, 24), window(0, 24), window(0, 24)};
  // Friend 2 posted twice on 0's wall, friend 1 once, friend 3 never.
  f.trace = trace::ActivityTrace(
      4, {{2, 0, 100}, {2, 0, 200}, {1, 0, 300}});
  MostActivePolicy policy;
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kUnconRep, 3), rng);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 2u);
  EXPECT_EQ(r[1], 1u);
  EXPECT_EQ(r[2], 3u);  // zero-activity filler
}

TEST(MostActive, FillsWithRandomWhenNoActivity) {
  Fixture f;
  f.candidates = {1, 2, 3};
  f.schedules = {window(0, 24), window(0, 24), window(0, 24), window(0, 24)};
  f.trace = trace::ActivityTrace(4, {});
  MostActivePolicy policy;
  util::Rng rng(7);
  const auto r = policy.select(f.context(0, Connectivity::kUnconRep, 2), rng);
  EXPECT_EQ(r.size(), 2u);
  for (UserId u : r) EXPECT_TRUE(u >= 1 && u <= 3);
}

TEST(MostActive, ConRepSkipsDisconnected) {
  Fixture f;
  f.candidates = {1, 3};
  // Friend 3 most active but never overlaps anyone; friend 1 overlaps owner.
  f.schedules = {window(8, 10), window(9, 13), DaySchedule{},
                 window(22, 24)};
  f.candidates = {1, 3};
  f.trace = trace::ActivityTrace(4, {{3, 0, 100}, {3, 0, 200}, {1, 0, 300}});
  MostActivePolicy policy;
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kConRep, 2), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 1u);
}

TEST(MostActive, RequiresTrace) {
  auto f = fixture();
  auto ctx = f.context(0, Connectivity::kUnconRep, 2);
  ctx.trace = nullptr;
  MostActivePolicy policy;
  util::Rng rng(1);
  EXPECT_THROW(policy.select(ctx, rng), ConfigError);
}

TEST(Random, UnconRepUniformSubset) {
  auto f = fixture();
  RandomPolicy policy;
  util::Rng rng(11);
  const auto r = policy.select(f.context(0, Connectivity::kUnconRep, 2), rng);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_NE(r[0], r[1]);
  for (UserId u : r)
    EXPECT_NE(std::find(f.candidates.begin(), f.candidates.end(), u),
              f.candidates.end());
}

TEST(Random, ConRepOnlyConnectedChoices) {
  auto f = fixture();
  RandomPolicy policy;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed);
    const auto r = policy.select(f.context(0, Connectivity::kConRep, 4), rng);
    // Friend 4 (never online) must never appear; friend 3 (22-24) never
    // connects to {owner, 1, 2}.
    for (UserId u : r) {
      EXPECT_NE(u, 4u);
      EXPECT_NE(u, 3u);
    }
    // First choice must connect to the owner: only friend 1 does.
    if (!r.empty()) {
      EXPECT_EQ(r[0], 1u);
    }
  }
}

TEST(Random, CoversWholePoolOverSeeds) {
  auto f = fixture();
  RandomPolicy policy;
  std::vector<int> first_counts(5, 0);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed);
    const auto r =
        policy.select(f.context(0, Connectivity::kUnconRep, 1), rng);
    ASSERT_EQ(r.size(), 1u);
    ++first_counts[r[0]];
  }
  for (UserId u : f.candidates) EXPECT_GT(first_counts[u], 10);
}

TEST(Factory, CreatesEveryPolicy) {
  EXPECT_EQ(make_policy(PolicyKind::kMaxAv)->name(), "MaxAv");
  EXPECT_EQ(make_policy(PolicyKind::kMostActive)->name(), "MostActive");
  EXPECT_EQ(make_policy(PolicyKind::kRandom)->name(), "Random");
  EXPECT_FALSE(make_policy(PolicyKind::kMaxAv)->randomized());
  EXPECT_TRUE(make_policy(PolicyKind::kRandom)->randomized());
  EXPECT_EQ(to_string(PolicyKind::kMaxAv), "MaxAv");
  EXPECT_EQ(to_string(Connectivity::kConRep), "ConRep");
  EXPECT_EQ(to_string(Connectivity::kUnconRep), "UnconRep");
}

// Prefix property: the selection for k replicas is a prefix of the
// selection for k+1 under every policy (the sweep relies on this).
class PrefixProperty
    : public ::testing::TestWithParam<std::tuple<PolicyKind, Connectivity>> {};

TEST_P(PrefixProperty, SelectionOrderIsStable) {
  const auto [kind, conn] = GetParam();
  auto f = fixture();
  const auto policy = make_policy(kind);
  for (std::size_t k = 0; k + 1 <= 4; ++k) {
    util::Rng rng_a(99), rng_b(99);  // identical streams
    const auto small = policy->select(f.context(0, conn, k), rng_a);
    const auto big = policy->select(f.context(0, conn, k + 1), rng_b);
    ASSERT_LE(small.size(), big.size());
    for (std::size_t i = 0; i < small.size(); ++i)
      EXPECT_EQ(small[i], big[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PrefixProperty,
    ::testing::Combine(::testing::Values(PolicyKind::kMaxAv,
                                         PolicyKind::kMostActive,
                                         PolicyKind::kRandom),
                       ::testing::Values(Connectivity::kConRep,
                                         Connectivity::kUnconRep)));

}  // namespace
}  // namespace dosn::placement
