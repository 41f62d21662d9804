// Differential tests of the replica-selection policies against the
// union-based bodies they replaced (tests/placement_oracle.cpp), and pins
// of the ConRep frontier's work counter `placement.conrep.tests`.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/obs.hpp"
#include "placement/policy.hpp"
#include "placement_oracle.hpp"

namespace dosn::placement {
namespace {

using interval::IntervalSet;
using interval::kDaySeconds;

constexpr Seconds kH = 3600;

DaySchedule hours(std::vector<interval::Interval> pieces_h) {
  for (auto& piece : pieces_h) piece = {piece.start * kH, piece.end * kH};
  return DaySchedule(IntervalSet(std::move(pieces_h)));
}

/// One to three pieces; four in five schedules lie on the hour grid, so
/// half-open pieces that only touch ([a,b) next to [b,c)) are common.
DaySchedule random_schedule(util::Rng& rng) {
  IntervalSet s;
  const bool grid = rng.below(5) != 0;
  for (std::uint64_t j = 0, n = 1 + rng.below(3); j < n; ++j) {
    const auto start = static_cast<Seconds>(
        grid ? static_cast<Seconds>(rng.below(24)) * kH
             : static_cast<Seconds>(rng.below(kDaySeconds - 600)));
    const auto len = static_cast<Seconds>(
        grid ? static_cast<Seconds>(1 + rng.below(3)) * kH
             : static_cast<Seconds>(600 + rng.below(3 * kH)));
    s.add(start, std::min(start + len, kDaySeconds));
  }
  return DaySchedule(std::move(s));
}

enum class OwnerKind { kRandom, kNeverOnline, kFullDay };

constexpr std::size_t kDegrees[] = {300, 64, 7, 1, 0};
constexpr OwnerKind kOwnerKinds[] = {OwnerKind::kRandom,
                                     OwnerKind::kNeverOnline,
                                     OwnerKind::kFullDay};
constexpr std::size_t kPool = 320;

/// Owners 0..14 — every degree of kDegrees under every owner kind, in
/// decreasing degree — draw their contacts from a shared pool of users.
/// A tenth of the pool is never online and a tenth copies an earlier pool
/// member's schedule. Half of the contacts posted 1 to 3 activities on
/// their owner's profile, so MostActive ranks ties and zero-activity filler.
struct World {
  std::vector<DaySchedule> schedules;
  std::vector<std::vector<UserId>> contacts;  ///< per owner
  trace::ActivityTrace trace;

  std::size_t owners() const { return contacts.size(); }
};

World make_world(std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 0x91ace));
  World w;
  for (const std::size_t d : kDegrees) {
    for (const OwnerKind kind : kOwnerKinds) {
      w.schedules.push_back(kind == OwnerKind::kRandom ? random_schedule(rng)
                            : kind == OwnerKind::kFullDay
                                ? DaySchedule::always()
                                : DaySchedule::never());
      w.contacts.emplace_back().resize(d);
    }
  }
  const std::size_t first = w.owners();
  for (std::size_t p = 0; p < kPool; ++p) {
    const std::uint64_t kind = rng.below(10);
    if (kind == 0)
      w.schedules.push_back(DaySchedule::never());
    else if (kind == 1 && p > 0)
      w.schedules.push_back(w.schedules[first + rng.below(p)]);
    else
      w.schedules.push_back(random_schedule(rng));
  }
  std::vector<trace::Activity> activities;
  for (std::size_t o = 0; o < w.owners(); ++o) {
    const auto picks = rng.sample_indices(kPool, w.contacts[o].size());
    for (std::size_t j = 0; j < picks.size(); ++j) {
      const auto f = static_cast<UserId>(first + picks[j]);
      w.contacts[o][j] = f;
      if (rng.below(2) == 0) continue;
      for (std::uint64_t a = 0, n = 1 + rng.below(3); a < n; ++a)
        activities.push_back(
            {f, static_cast<UserId>(o),
             static_cast<Seconds>(rng.below(7 * kDaySeconds))});
    }
  }
  w.trace = trace::ActivityTrace(w.schedules.size(), std::move(activities));
  return w;
}

PlacementContext context_for(const World& w, std::size_t owner,
                             Connectivity conn, std::size_t k) {
  PlacementContext c;
  c.user = static_cast<UserId>(owner);
  c.candidates = w.contacts[owner];
  c.schedules = w.schedules;
  c.trace = &w.trace;
  c.connectivity = conn;
  c.max_replicas = k;
  return c;
}

struct PolicyCase {
  std::string label;
  PolicyKind kind;
  PolicyParams params;
};

std::vector<PolicyCase> policy_cases() {
  std::vector<PolicyCase> cases;
  const std::pair<const char*, MaxAvObjective> objectives[] = {
      {"MaxAv", MaxAvObjective::kAvailability},
      {"MaxAvAodTime", MaxAvObjective::kAoDTime},
      {"MaxAvAodActivity", MaxAvObjective::kAoDActivity}};
  for (const auto& [name, objective] : objectives) {
    PolicyParams celf;
    celf.objective = objective;
    PolicyParams least = celf;
    least.conrep_least_overlap = true;
    cases.push_back({std::string(name) + "_celf", PolicyKind::kMaxAv, celf});
    cases.push_back(
        {std::string(name) + "_least_overlap", PolicyKind::kMaxAv, least});
  }
  cases.push_back({"MostActive", PolicyKind::kMostActive, {}});
  cases.push_back({"Random", PolicyKind::kRandom, {}});
  cases.push_back({"CoreGroup", PolicyKind::kCoreGroup, {}});
  cases.push_back({"Hybrid", PolicyKind::kHybrid, {}});
  PolicyParams activity_only;
  activity_only.hybrid_alpha = 1.0;
  cases.push_back({"HybridActivityOnly", PolicyKind::kHybrid, activity_only});
  return cases;
}

void PrintTo(const PolicyCase& pc, std::ostream* os) { *os << pc.label; }

class PlacementOracle : public ::testing::TestWithParam<PolicyCase> {};

// Every selection and the RNG's next draw match the union-based body, for
// both connectivities, at k in {0, 1, 3, 10, > degree}, with one scratch
// reused across owners of decreasing degree.
TEST_P(PlacementOracle, MatchesUnionBasedBodies) {
  const PolicyCase& pc = GetParam();
  const auto policy = make_policy(pc.kind, pc.params);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const World w = make_world(seed);
    PlacementScratch scratch;
    for (std::size_t owner = 0; owner < w.owners(); ++owner) {
      const std::size_t d = w.contacts[owner].size();
      for (const Connectivity conn :
           {Connectivity::kConRep, Connectivity::kUnconRep}) {
        for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{10}, d + 1}) {
          // CoreGroup runs a group-delay analysis per candidate and round;
          // on the degree-300 owners it stops at three rounds to stay fast.
          if (pc.kind == PolicyKind::kCoreGroup && d > 64 && k > 3) continue;
          const PlacementContext ctx = context_for(w, owner, conn, k);
          const std::uint64_t stream = util::mix64(seed, owner * 1000 + k);
          util::Rng rng(stream);
          util::Rng oracle_rng(stream);
          const auto got = policy->select(ctx, rng, scratch);
          const auto want = oracle::select(pc.kind, pc.params, ctx, oracle_rng);
          ASSERT_EQ(std::vector<UserId>(got.begin(), got.end()), want)
              << "seed=" << seed << " owner=" << owner << " degree=" << d
              << " " << to_string(conn) << " k=" << k;
          ASSERT_EQ(rng(), oracle_rng())
              << "RNG consumption differs: seed=" << seed
              << " owner=" << owner << " " << to_string(conn) << " k=" << k;
          if (k == d + 1) {
            util::Rng wrapper_rng(stream);
            EXPECT_EQ(policy->select(ctx, wrapper_rng), want);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PlacementOracle, ::testing::ValuesIn(policy_cases()),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.label;
    });

// Owner 08-10. Candidates 1 (10-12) and 2 (06-08) only touch the owner's
// half-open piece; 3 (08-09, 20-21) overlaps it; 4 (21-23) only touches 3.
// 1, 3 and 4 posted one activity each, 3's at 20:01. Touching is not
// overlap, so under ConRep every policy picks 3 alone.
TEST(PlacementOracleEdges, TouchingPiecesStayUnconnected) {
  const std::vector<DaySchedule> schedules = {
      hours({{8, 10}}), hours({{10, 12}}), hours({{6, 8}}),
      hours({{8, 9}, {20, 21}}), hours({{21, 23}})};
  const std::vector<UserId> candidates = {1, 2, 3, 4};
  const trace::ActivityTrace trace(
      5, {{1, 0, 100}, {3, 0, 20 * kH + 60}, {4, 0, 22 * kH}});
  PlacementContext ctx;
  ctx.user = 0;
  ctx.candidates = candidates;
  ctx.schedules = schedules;
  ctx.trace = &trace;
  ctx.connectivity = Connectivity::kConRep;
  ctx.max_replicas = 4;
  PlacementScratch scratch;
  for (const PolicyCase& pc : policy_cases()) {
    const auto policy = make_policy(pc.kind, pc.params);
    util::Rng rng(3);
    util::Rng oracle_rng(3);
    const auto got = policy->select(ctx, rng, scratch);
    const auto want = oracle::select(pc.kind, pc.params, ctx, oracle_rng);
    EXPECT_EQ(std::vector<UserId>(got.begin(), got.end()), want) << pc.label;
    EXPECT_EQ(std::vector<UserId>(got.begin(), got.end()),
              std::vector<UserId>{3})
        << pc.label;
  }
}

/// Turns obs on for a test's lifetime and reads counter deltas.
class CounterProbe {
 public:
  CounterProbe() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~CounterProbe() { obs::set_enabled(was_); }
  CounterProbe(const CounterProbe&) = delete;
  CounterProbe& operator=(const CounterProbe&) = delete;

  static std::uint64_t value(const char* name) {
    return obs::Registry::global().counter(name).value();
  }

 private:
  bool was_;
};

// The CELF loop is unchanged: the placement.maxav.* counters it publishes
// equal the union-based CELF's counts over every world.
TEST(PlacementOracleEdges, CelfCountersMatch) {
  const CounterProbe probe;
  const char* const names[] = {
      "placement.maxav.gain_evals", "placement.maxav.lazy_hits",
      "placement.maxav.lazy_misses", "placement.maxav.parked"};
  std::uint64_t before[4];
  for (std::size_t n = 0; n < 4; ++n) before[n] = CounterProbe::value(names[n]);
  oracle::MaxAvCounts want;
  PlacementScratch scratch;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const World w = make_world(seed);
    for (const MaxAvObjective objective :
         {MaxAvObjective::kAvailability, MaxAvObjective::kAoDTime,
          MaxAvObjective::kAoDActivity}) {
      PolicyParams params;
      params.objective = objective;
      const auto policy = make_policy(PolicyKind::kMaxAv, params);
      for (std::size_t owner = 0; owner < w.owners(); ++owner) {
        for (const Connectivity conn :
             {Connectivity::kConRep, Connectivity::kUnconRep}) {
          const PlacementContext ctx = context_for(w, owner, conn, 10);
          util::Rng rng(1);
          policy->select(ctx, rng, scratch);
          oracle::max_av(ctx, objective, false, true, &want);
        }
      }
    }
  }
  EXPECT_GT(want.parked, 0u);
  EXPECT_EQ(CounterProbe::value(names[0]) - before[0], want.gain_evals);
  EXPECT_EQ(CounterProbe::value(names[1]) - before[1], want.lazy_hits);
  EXPECT_EQ(CounterProbe::value(names[2]) - before[2], want.lazy_misses);
  EXPECT_EQ(CounterProbe::value(names[3]) - before[3], want.parked);
}

std::uint64_t conrep_tests(const ReplicaPolicy& policy,
                           const PlacementContext& ctx,
                           PlacementScratch& scratch,
                           std::vector<UserId>* selection = nullptr) {
  const std::uint64_t before = CounterProbe::value("placement.conrep.tests");
  util::Rng rng(5);
  const auto got = policy.select(ctx, rng, scratch);
  if (selection != nullptr) selection->assign(got.begin(), got.end());
  return CounterProbe::value("placement.conrep.tests") - before;
}

// Owner 08-10; contacts 1 (09-13), 2 (12-20), 3 (22-24), 4 (never online);
// 3, 2 and 1 posted 3, 2 and 1 activities, so MostActive ranks 3, 2, 1, 4.
// Every policy picks 1 then 2. A scan touches each unpicked contact once
// per new source (4 + 3 + 2 tests); CELF only asks about heap tops.
// Max gain: 2 and 1 against the owner, 2 against 1, then 3 against all
// three. Least overlap: 2, 3 and 1 against the owner, then 2 and 3
// against 1, then 3 against 2.
TEST(ConRepWorkCounter, ExactCountsOnFourContacts) {
  const CounterProbe probe;
  std::vector<DaySchedule> schedules = {hours({{8, 10}}), hours({{9, 13}}),
                                        hours({{12, 20}}), hours({{22, 24}}),
                                        DaySchedule{}};
  const std::vector<UserId> candidates = {1, 2, 3, 4};
  const trace::ActivityTrace trace(5, {{3, 0, 10}, {3, 0, 20}, {3, 0, 30},
                                       {2, 0, 40}, {2, 0, 50}, {1, 0, 60}});
  PlacementContext ctx;
  ctx.user = 0;
  ctx.candidates = candidates;
  ctx.schedules = schedules;
  ctx.trace = &trace;
  ctx.connectivity = Connectivity::kConRep;
  ctx.max_replicas = 4;

  PolicyParams least;
  least.conrep_least_overlap = true;
  const std::pair<PolicyCase, std::uint64_t> expected[] = {
      {{"MaxAv_celf", PolicyKind::kMaxAv, {}}, 6},
      {{"MaxAv_least_overlap", PolicyKind::kMaxAv, least}, 6},
      {{"MostActive", PolicyKind::kMostActive, {}}, 9},
      {{"Random", PolicyKind::kRandom, {}}, 9},
      {{"CoreGroup", PolicyKind::kCoreGroup, {}}, 9},
      {{"Hybrid", PolicyKind::kHybrid, {}}, 9}};
  PlacementScratch scratch;
  for (const auto& [pc, tests] : expected) {
    const auto policy = make_policy(pc.kind, pc.params);
    std::vector<UserId> selection;
    EXPECT_EQ(conrep_tests(*policy, ctx, scratch, &selection), tests)
        << pc.label;
    EXPECT_EQ(selection, (std::vector<UserId>{1, 2})) << pc.label;
    ctx.connectivity = Connectivity::kUnconRep;
    EXPECT_EQ(conrep_tests(*policy, ctx, scratch), 0u) << pc.label;
    ctx.connectivity = Connectivity::kConRep;
  }

  // Owner never online: CELF picks 2 untested, which becomes the only
  // source; 1 is tested against 2 and connects, 3 against 2 and 1.
  schedules[0] = DaySchedule{};
  std::vector<UserId> selection;
  EXPECT_EQ(conrep_tests(*make_policy(PolicyKind::kMaxAv), ctx, scratch,
                         &selection),
            3u);
  EXPECT_EQ(selection, (std::vector<UserId>{2, 1}));
}

// Each (candidate, source) pair is tested at most once, and the sources
// are the owner and the picks: at most d · (picks + 1) tests per select.
TEST(ConRepWorkCounter, BoundedByDegreeTimesSources) {
  const CounterProbe probe;
  const World w = make_world(7);
  PlacementScratch scratch;
  for (const PolicyCase& pc : policy_cases()) {
    const auto policy = make_policy(pc.kind, pc.params);
    std::uint64_t total = 0;
    for (std::size_t owner = 0; owner < w.owners(); ++owner) {
      const std::size_t d = w.contacts[owner].size();
      const std::size_t k =
          pc.kind == PolicyKind::kCoreGroup && d > 64 ? 3 : 10;
      const PlacementContext ctx =
          context_for(w, owner, Connectivity::kConRep, k);
      std::vector<UserId> selection;
      const std::uint64_t tests =
          conrep_tests(*policy, ctx, scratch, &selection);
      EXPECT_LE(tests, d * (selection.size() + 1))
          << pc.label << " owner=" << owner;
      total += tests;
    }
    EXPECT_GT(total, 0u) << pc.label;
  }
}

}  // namespace
}  // namespace dosn::placement
