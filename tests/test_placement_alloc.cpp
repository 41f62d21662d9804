// Pins the placement layer's allocation contract: once a PlacementScratch
// has been warmed on one user, select through it does no heap allocation
// on a user of equal or smaller degree. Links the counting allocator of
// alloc_counter.cpp. Every policy is covered, the extensions included:
// CoreGroup's pair-delay memo and groups and Hybrid's activity and pool
// vectors live in the scratch too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "placement/policy.hpp"

namespace dosn::placement {
namespace {

using dosn::testing::ScopedAllocationCount;
using interval::Interval;
using interval::IntervalSet;

constexpr Seconds kH = 3600;
constexpr std::size_t kDegree = 24;

DaySchedule hours(std::vector<Interval> pieces_h) {
  for (auto& piece : pieces_h) piece = {piece.start * kH, piece.end * kH};
  return DaySchedule(IntervalSet(std::move(pieces_h)));
}

/// Owners 0, 1 and 2 share one schedule. Owner 0 has contacts 3..26;
/// owner 1 the same contacts in reverse order (equal degree); owner 2 the
/// first half of them (smaller degree). The contacts have 1 to 3 pieces
/// each, every fifth one never online. Contact i posts i % 4 activities on
/// the profiles of owners 0 and 1 and at most one on owner 2's, so
/// MostActive ranks a head and shuffles a zero-activity tail.
struct Users {
  std::vector<DaySchedule> schedules;
  std::vector<std::vector<UserId>> contacts;
  trace::ActivityTrace trace;

  Users() {
    for (int o = 0; o < 3; ++o) schedules.push_back(hours({{7, 9}, {18, 20}}));
    std::vector<UserId> all;
    std::vector<trace::Activity> activities;
    for (std::size_t i = 0; i < kDegree; ++i) {
      const auto f = static_cast<UserId>(3 + i);
      const auto h = static_cast<Seconds>(i % 20);
      const Seconds g = (h + 7) % 22;
      schedules.push_back(i % 5 == 4   ? DaySchedule{}
                          : i % 3 == 0 ? hours({{h, h + 2}})
                                       : hours({{h, h + 1}, {g, g + 2}}));
      all.push_back(f);
      for (UserId owner = 0; owner < 3; ++owner) {
        const std::size_t posts = owner < 2 ? i % 4 : i % 3 == 0 ? 1 : 0;
        for (std::size_t a = 0; a < posts; ++a)
          activities.push_back(
              {f, owner, static_cast<Seconds>((a * 5 + i) * kH + owner)});
      }
    }
    contacts.push_back(all);
    contacts.emplace_back(all.rbegin(), all.rend());
    contacts.emplace_back(all.begin(), all.begin() + kDegree / 2);
    trace = trace::ActivityTrace(schedules.size(), std::move(activities));
  }

  PlacementContext context(UserId owner, Connectivity conn) const {
    PlacementContext c;
    c.user = owner;
    c.candidates = contacts[owner];
    c.schedules = schedules;
    c.trace = &trace;
    c.connectivity = conn;
    c.max_replicas = 10;
    return c;
  }
};

struct Case {
  std::string label;
  PolicyKind kind;
  PolicyParams params;
};

std::vector<Case> cases() {
  PolicyParams least;
  least.conrep_least_overlap = true;
  PolicyParams activity;
  activity.objective = MaxAvObjective::kAoDActivity;
  PolicyParams activity_least = activity;
  activity_least.conrep_least_overlap = true;
  return {{"MaxAv_celf", PolicyKind::kMaxAv, {}},
          {"MaxAv_least_overlap", PolicyKind::kMaxAv, least},
          {"MaxAv_aod_activity", PolicyKind::kMaxAv, activity},
          {"MaxAv_aod_activity_least_overlap", PolicyKind::kMaxAv,
           activity_least},
          {"MostActive", PolicyKind::kMostActive, {}},
          {"Random", PolicyKind::kRandom, {}},
          {"CoreGroup", PolicyKind::kCoreGroup, {}},
          {"Hybrid", PolicyKind::kHybrid, {}}};
}

TEST(PlacementAllocation, WarmedScratchSelectsWithoutAllocating) {
  const Users users;
  for (const Case& c : cases()) {
    const auto policy = make_policy(c.kind, c.params);
    for (const Connectivity conn :
         {Connectivity::kConRep, Connectivity::kUnconRep}) {
      PlacementScratch scratch;
      util::Rng warm(1);
      const std::size_t warm_picks =
          policy->select(users.context(0, conn), warm, scratch).size();
      ASSERT_GT(warm_picks, 1u) << c.label;  // the greedy loops ran
      for (const UserId owner : {UserId{0}, UserId{1}, UserId{2}}) {
        const PlacementContext ctx = users.context(owner, conn);
        util::Rng rng(2 + owner);
        std::size_t picks = 0;
        std::size_t allocations = 0;
        {
          const ScopedAllocationCount count;
          picks = policy->select(ctx, rng, scratch).size();
          allocations = count.count();
        }
        EXPECT_GT(picks, 0u) << c.label;
        EXPECT_EQ(allocations, 0u)
            << c.label << " " << to_string(conn) << " owner " << owner;
      }
    }
  }
}

// The counter is live: a fresh scratch allocates its buffers.
TEST(PlacementAllocation, ColdScratchAllocates) {
  const Users users;
  const auto policy = make_policy(PolicyKind::kMaxAv);
  util::Rng warm(1);
  policy->select(users.context(0, Connectivity::kConRep), warm);  // statics
  PlacementScratch scratch;
  util::Rng rng(1);
  const ScopedAllocationCount count;
  policy->select(users.context(0, Connectivity::kConRep), rng, scratch);
  EXPECT_GT(count.count(), 0u);
}

}  // namespace
}  // namespace dosn::placement
