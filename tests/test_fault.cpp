// Tests for the deterministic fault-injection layer (net/fault): plan
// validation and scaling, the zero-plan identity, per-entity stream
// determinism, intensity nesting, outage-window subtraction, and the obs
// counter flush.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "interval/day_schedule.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace dosn::net {
namespace {

using interval::DaySchedule;
using interval::Interval;
using interval::IntervalSet;
using interval::kDaySeconds;

constexpr Seconds kH = 3600;

DaySchedule window(Seconds start_h, Seconds end_h) {
  return DaySchedule(IntervalSet::single(start_h * kH, end_h * kH));
}

DaySchedule two_windows() {
  IntervalSet s;
  s.add(8 * kH, 10 * kH);
  s.add(14 * kH, 18 * kH);
  return DaySchedule(s);
}

FaultPlan churn_plan(std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.session_no_show = 0.3;
  plan.session_truncate = 0.5;
  plan.truncate_max_fraction = 0.6;
  return plan;
}

IntervalSet as_set(std::span<const Interval> pieces) {
  IntervalSet out;
  for (const auto& iv : pieces) out.add(iv);
  return out;
}

TEST(FaultPlan, DefaultIsZero) {
  FaultPlan plan;
  EXPECT_TRUE(plan.zero());
  plan.seed = 99;  // the seed alone does not make a plan non-zero
  EXPECT_TRUE(plan.zero());
  plan.message_drop = 0.1;
  EXPECT_FALSE(plan.zero());
}

TEST(FaultPlan, TruncationWithoutFractionIsZero) {
  FaultPlan plan;
  plan.session_truncate = 0.5;  // gate fires but never cuts anything
  EXPECT_TRUE(plan.zero());
  plan.truncate_max_fraction = 0.1;
  EXPECT_FALSE(plan.zero());
}

TEST(FaultPlan, ValidateRejectsBadValues) {
  FaultPlan plan;
  plan.message_drop = 1.5;
  EXPECT_THROW(validate(plan), ConfigError);
  plan = FaultPlan{};
  plan.session_no_show = -0.1;
  EXPECT_THROW(validate(plan), ConfigError);
  plan = FaultPlan{};
  plan.latency_jitter_max = -1;
  EXPECT_THROW(validate(plan), ConfigError);
  plan = FaultPlan{};
  plan.node_outages.push_back({0, 100, 50});  // recovers before it starts
  EXPECT_THROW(validate(plan), ConfigError);
  plan = FaultPlan{};
  plan.relay_outages.push_back({200, 100});
  EXPECT_THROW(validate(plan), ConfigError);
}

TEST(FaultPlan, ScaledEndpointsAndSeed) {
  FaultPlan base = churn_plan(0xabc);
  base.message_drop = 0.4;
  base.latency_jitter_max = 100;
  base.dht_crash = 0.2;
  base.node_outages.push_back({1, 1000, 5000});
  base.node_outages.push_back({2, 2000, std::nullopt});  // crash-stop
  base.relay_outages.push_back({0, 8000});

  const FaultPlan zero = scaled(base, 0.0);
  EXPECT_TRUE(zero.zero());
  EXPECT_EQ(zero.seed, base.seed);

  const FaultPlan half = scaled(base, 0.5);
  EXPECT_EQ(half.seed, base.seed);
  EXPECT_DOUBLE_EQ(half.message_drop, 0.2);
  EXPECT_EQ(half.latency_jitter_max, 50);
  // Transient outage: start preserved, length halved.
  ASSERT_EQ(half.node_outages.size(), 2u);
  EXPECT_EQ(half.node_outages[0].at, 1000);
  EXPECT_EQ(*half.node_outages[0].recover_at, 3000);
  // Crash-stop kept whole at any positive intensity.
  EXPECT_FALSE(half.node_outages[1].recover_at.has_value());
  ASSERT_EQ(half.relay_outages.size(), 1u);
  EXPECT_EQ(half.relay_outages[0].end, 4000);

  EXPECT_THROW(scaled(base, 1.5), ConfigError);
  EXPECT_THROW(scaled(base, -0.5), ConfigError);
}

TEST(FaultInjector, ZeroPlanPreservesSessionsExactly) {
  FaultInjector injector(FaultPlan{});
  EXPECT_TRUE(injector.plan().zero());
  EXPECT_FALSE(injector.drop_message(3));
  EXPECT_EQ(injector.latency_jitter(3), 0);

  const auto sched = two_windows();
  const auto sessions = injector.sessions(0, sched, 3);
  // Day-major order, one interval per (day, piece), no merging.
  ASSERT_EQ(sessions.size(), 6u);
  for (int day = 0; day < 3; ++day) {
    const Seconds base = day * kDaySeconds;
    EXPECT_EQ(sessions[2 * day].start, base + 8 * kH);
    EXPECT_EQ(sessions[2 * day].end, base + 10 * kH);
    EXPECT_EQ(sessions[2 * day + 1].start, base + 14 * kH);
    EXPECT_EQ(sessions[2 * day + 1].end, base + 18 * kH);
  }
  EXPECT_EQ(injector.degrade_day(0, sched), sched);
}

TEST(FaultInjector, SessionsDeterministicPerSeedAndNode) {
  const auto sched = two_windows();
  FaultInjector a(churn_plan(7));
  FaultInjector b(churn_plan(7));
  EXPECT_EQ(a.sessions(1, sched, 30), b.sessions(1, sched, 30));

  // A different plan seed realizes different churn (with 60 pieces the
  // chance of coincidence is negligible and fixed by determinism anyway).
  FaultInjector c(churn_plan(8));
  EXPECT_NE(a.sessions(1, sched, 30), c.sessions(1, sched, 30));
  // Different nodes draw from unrelated streams of the same plan.
  FaultInjector d(churn_plan(7));
  EXPECT_NE(a.sessions(2, sched, 30), d.sessions(1, sched, 30));
}

TEST(FaultInjector, ChurnActuallySkipsAndTruncates) {
  const auto sched = two_windows();
  FaultInjector injector(churn_plan());
  const auto sessions = injector.sessions(0, sched, 60);
  // 120 pieces at 30% no-show: some sessions must vanish...
  EXPECT_LT(sessions.size(), 120u);
  EXPECT_GT(sessions.size(), 40u);
  // ...and the surviving time is strictly less than the ideal total.
  const Seconds ideal = 60 * sched.online_seconds();
  EXPECT_LT(as_set(sessions).measure(), ideal);
  EXPECT_GT(injector.stats().sessions_skipped, 0u);
  EXPECT_GT(injector.stats().sessions_truncated, 0u);
}

TEST(FaultInjector, SessionsNestedAcrossIntensities) {
  const auto sched = two_windows();
  FaultPlan base = churn_plan(0x51ab);
  base.node_outages.push_back({0, 5 * kDaySeconds, 8 * kDaySeconds});

  std::vector<IntervalSet> kept;
  for (const double f : {1.0, 0.6, 0.3, 0.0}) {
    FaultInjector injector(scaled(base, f));
    kept.push_back(as_set(injector.sessions(0, sched, 30)));
  }
  // Higher intensity keeps a subset of what lower intensity keeps:
  // kept[f2] ⊆ kept[f1] for f2 >= f1 (exact nesting, not expectation).
  for (std::size_t i = 0; i + 1 < kept.size(); ++i) {
    EXPECT_EQ(kept[i].subtract(kept[i + 1]).measure(), 0)
        << "intensity step " << i;
    EXPECT_LE(kept[i].measure(), kept[i + 1].measure());
  }
  EXPECT_LT(kept.front().measure(), kept.back().measure());
}

TEST(FaultInjector, CrashStopOutageEndsSessionsForGood) {
  FaultPlan plan;
  plan.node_outages.push_back({0, kDaySeconds + 9 * kH, std::nullopt});
  FaultInjector injector(plan);
  const auto sessions = injector.sessions(0, window(8, 10), 4);
  // Day 0 intact; day 1 cut at 09:00; days 2..3 gone.
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0], (Interval{8 * kH, 10 * kH}));
  EXPECT_EQ(sessions[1],
            (Interval{kDaySeconds + 8 * kH, kDaySeconds + 9 * kH}));
}

TEST(FaultInjector, TransientOutageResumesAfterRecovery) {
  FaultPlan plan;
  plan.node_outages.push_back(
      {0, kDaySeconds + 9 * kH, 2 * kDaySeconds + 9 * kH});
  FaultInjector injector(plan);
  const auto sessions = injector.sessions(0, window(8, 10), 4);
  // Day 1 cut at 09:00, day 2 starts late at 09:00, days 0 and 3 intact.
  ASSERT_EQ(sessions.size(), 4u);
  EXPECT_EQ(sessions[1],
            (Interval{kDaySeconds + 8 * kH, kDaySeconds + 9 * kH}));
  EXPECT_EQ(sessions[2],
            (Interval{2 * kDaySeconds + 9 * kH, 2 * kDaySeconds + 10 * kH}));
  EXPECT_EQ(sessions[3],
            (Interval{3 * kDaySeconds + 8 * kH, 3 * kDaySeconds + 10 * kH}));
  EXPECT_EQ(injector.stats().outage_cuts, 2u);
}

TEST(FaultInjector, OutageSplitsSessionInTheMiddle) {
  FaultPlan plan;
  plan.node_outages.push_back({0, 12 * kH, 13 * kH});
  FaultInjector injector(plan);
  const auto sessions = injector.sessions(0, window(10, 16), 1);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0], (Interval{10 * kH, 12 * kH}));
  EXPECT_EQ(sessions[1], (Interval{13 * kH, 16 * kH}));
}

/// Churn burst (one window per day), a regional outage, and node outages
/// that overlap them, cross midnight, cut one session twice, touch session
/// ends, and end in a crash-stop; pieces touch at midnight and churn
/// shortens some of them.
FaultPlan layered_outage_plan() {
  FaultPlan plan = churn_plan(0x5eed);
  constexpr Seconds D = kDaySeconds;
  plan.node_outages = {
      {1, 4 * kH, 6 * kH},  // ends as a session starts
      {1, D + 7 * kH, D + 8 * kH},
      {1, D + 9 * kH, D + 9 * kH + 1800},
      {0, 2 * D, 3 * D},  // another node: never cuts node 1
      {1, 3 * D + 23 * kH, 4 * D + 1 * kH},
      {1, 4 * D + 14 * kH, 4 * D + 20 * kH},  // between two sessions
      {1, 5 * D + 10 * kH, 5 * D + 11 * kH},  // inside the burst
      {1, 8 * D + 12 * kH, std::nullopt},
  };
  plan.scenario.regional_outages.push_back(
      {2, 1, 2 * D + 5 * kH, 2 * D + 15 * kH, 1.0});
  plan.scenario.churn_bursts.push_back({5 * D, 7 * D + 12 * kH, 1.0, 1.0});
  return plan;
}

TEST(FaultInjector, OutageSweepMatchesPerPieceRescan) {
  constexpr Seconds D = kDaySeconds;
  IntervalSet day;
  day.add(0, 3 * kH);
  day.add(6 * kH, 14 * kH);
  day.add(20 * kH, D);
  const DaySchedule sched(day);
  const FaultPlan plan = layered_outage_plan();

  // The same churn draws without any window, then every canonical window
  // subtracted by rescanning the window list for each piece.
  FaultPlan churn_only = plan;
  churn_only.node_outages.clear();
  churn_only.scenario = {};
  FaultInjector reference(churn_only);
  const auto churned = reference.sessions(1, sched, 10);
  const IntervalSet down({{4 * kH, 6 * kH},
                          {D + 7 * kH, D + 8 * kH},
                          {D + 9 * kH, D + 9 * kH + 1800},
                          {2 * D + 5 * kH, 2 * D + 15 * kH},
                          {3 * D + 23 * kH, 4 * D + 1 * kH},
                          {4 * D + 14 * kH, 4 * D + 20 * kH},
                          {5 * D, 6 * D},
                          {6 * D, 7 * D},
                          {7 * D, 7 * D + 12 * kH},
                          {8 * D + 12 * kH, 10 * D}});
  std::vector<Interval> expected;
  std::uint64_t cuts = 0;
  for (const Interval& piece : churned) {
    Seconds s = piece.start;
    for (const Interval& w : down.pieces()) {
      if (w.end <= s) continue;
      if (w.start >= piece.end) break;
      ++cuts;
      if (w.start > s) expected.push_back({s, w.start});
      s = std::max(s, w.end);
      if (s >= piece.end) break;
    }
    if (s < piece.end) expected.push_back({s, piece.end});
  }

  FaultInjector injector(plan);
  EXPECT_EQ(injector.sessions(1, sched, 10), expected);
  const FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.outage_cuts, cuts);
  EXPECT_GE(cuts, 8u);
  EXPECT_EQ(stats.scenario_windows, 4u);  // the region + three burst days
  EXPECT_EQ(stats.sessions_skipped, reference.stats().sessions_skipped);
  EXPECT_EQ(stats.sessions_truncated, reference.stats().sessions_truncated);
}

TEST(FaultInjector, AppendSessionsMatchesSessions) {
  const FaultPlan plan = layered_outage_plan();
  FaultInjector by_value(plan);
  FaultInjector appending(plan);
  const std::vector<Interval> prefix{{100, 50}, {-7, -3}};  // any content
  std::vector<Interval> out = prefix;
  for (const std::size_t node : {0u, 1u, 2u}) {
    const auto sessions = by_value.sessions(node, two_windows(), 9);
    const std::size_t before = out.size();
    appending.append_sessions(node, two_windows(), 9, out);
    EXPECT_EQ(std::vector<Interval>(out.begin() + before, out.end()),
              sessions)
        << "node " << node;
  }
  EXPECT_EQ(std::vector<Interval>(out.begin(), out.begin() + 2), prefix);
  EXPECT_EQ(appending.stats(), by_value.stats());
  EXPECT_EQ(appending.stats().session_pieces, out.size() - prefix.size());
}

TEST(FaultInjector, DegradeDayMatchesSessionsDayZero) {
  // degrade_day replays the first day of the per-node stream, so its kept
  // set must equal the day-0 slice of sessions() for a churn-only plan.
  const auto sched = two_windows();
  FaultInjector a(churn_plan(0x77));
  FaultInjector b(churn_plan(0x77));
  const auto day0 = a.sessions(5, sched, 1);
  EXPECT_EQ(b.degrade_day(5, sched).set(), as_set(day0));
}

TEST(FaultInjector, DegradeDayProjectsOutages) {
  FaultPlan plan;
  plan.node_outages.push_back({0, 9 * kH, 10 * kH});
  FaultInjector injector(plan);
  const auto degraded = injector.degrade_day(0, window(8, 12));
  IntervalSet expect;
  expect.add(8 * kH, 9 * kH);
  expect.add(10 * kH, 12 * kH);
  EXPECT_EQ(degraded.set(), expect);

  // A crash-stop blankets the whole daily cycle: in the periodic view a
  // permanently dead node contributes no availability at all.
  FaultPlan crash;
  crash.node_outages.push_back({0, 9 * kH, std::nullopt});
  FaultInjector cinj(crash);
  EXPECT_TRUE(cinj.degrade_day(0, window(8, 12)).empty());
}

TEST(FaultInjector, MessageStreamIsPerSenderAndCounted) {
  FaultPlan plan;
  plan.seed = 3;
  plan.message_drop = 0.5;
  plan.latency_jitter_max = 30;
  FaultInjector a(plan), b(plan);

  std::vector<bool> drops_a, drops_b;
  for (int i = 0; i < 200; ++i) {
    drops_a.push_back(a.drop_message(0));
    a.latency_jitter(0);
    drops_b.push_back(b.drop_message(0));
    b.latency_jitter(0);
  }
  EXPECT_EQ(drops_a, drops_b);
  const auto dropped =
      static_cast<std::size_t>(std::count(drops_a.begin(), drops_a.end(),
                                          true));
  EXPECT_GT(dropped, 50u);
  EXPECT_LT(dropped, 150u);
  EXPECT_EQ(a.stats().messages_dropped, dropped);
  EXPECT_GT(a.stats().jitter_applied, 0u);

  // Interleaving another sender must not disturb sender 0's stream.
  FaultInjector c(plan);
  std::vector<bool> drops_c;
  for (int i = 0; i < 200; ++i) {
    c.drop_message(7);
    c.latency_jitter(7);
    drops_c.push_back(c.drop_message(0));
    c.latency_jitter(0);
  }
  EXPECT_EQ(drops_c, drops_a);
}

TEST(FaultInjector, JitterBoundedAndZeroWhenDisabled) {
  FaultPlan plan;
  plan.latency_jitter_max = 45;
  FaultInjector injector(plan);
  Seconds max_seen = 0;
  for (int i = 0; i < 500; ++i) {
    const Seconds j = injector.latency_jitter(0);
    EXPECT_GE(j, 0);
    EXPECT_LE(j, 45);
    max_seen = std::max(max_seen, j);
  }
  EXPECT_GT(max_seen, 30);  // the whole range is reachable
}

TEST(FaultInjector, DhtCrashDeterministicAndProportional) {
  FaultPlan plan;
  plan.seed = 11;
  plan.dht_crash = 0.25;
  FaultInjector a(plan), b(plan);
  std::size_t crashed = 0;
  for (std::uint64_t id = 0; id < 400; ++id) {
    EXPECT_EQ(a.dht_crashed(id), b.dht_crashed(id));
    if (a.dht_crashed(id)) ++crashed;
  }
  EXPECT_GT(crashed, 60u);
  EXPECT_LT(crashed, 140u);
  FaultInjector none(FaultPlan{});
  EXPECT_FALSE(none.dht_crashed(0));
}

TEST(FaultInjector, RelayDownWindows) {
  FaultPlan plan;
  plan.relay_outages.push_back({100, 200});
  plan.relay_outages.push_back({500, 600});
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.relay_down(99));
  EXPECT_TRUE(injector.relay_down(100));
  EXPECT_TRUE(injector.relay_down(199));
  EXPECT_FALSE(injector.relay_down(200));  // half-open
  EXPECT_TRUE(injector.relay_down(550));
  EXPECT_FALSE(injector.relay_down(700));
}

// ---------------------------------------------------- composite scenarios

TEST(Scenario, ZeroSpecInjectsNothing) {
  FaultPlan plain = churn_plan(13);
  FaultPlan with_spec = plain;
  // Inactive entries only: zero regions, empty window, multiplier 1.
  with_spec.scenario.regional_outages.push_back({0, 0, 100, 200, 1.0});
  with_spec.scenario.flash_crowds.push_back({100, 200, 1.0});
  with_spec.scenario.churn_bursts.push_back({100, 100, 0.5, 1.0});
  EXPECT_TRUE(with_spec.scenario.zero());

  FaultInjector a(plain), b(with_spec);
  for (std::size_t node = 0; node < 4; ++node) {
    const auto sa = a.sessions(node, two_windows(), 10);
    const auto sb = b.sessions(node, two_windows(), 10);
    EXPECT_EQ(std::vector<Interval>(sa.begin(), sa.end()),
              std::vector<Interval>(sb.begin(), sb.end()))
        << "node " << node;
  }
  EXPECT_EQ(b.stats().scenario_windows, 0u);
}

TEST(Scenario, NonZeroSpecMakesThePlanNonZero) {
  FaultPlan plan;
  EXPECT_TRUE(plan.zero());
  plan.scenario.churn_bursts.push_back({0, kDaySeconds, 0.5, 1.0});
  EXPECT_FALSE(plan.zero());
}

TEST(Scenario, RegionalOutageHitsOnlyItsRegion) {
  FaultPlan plan;
  plan.seed = 31;
  plan.scenario.regional_outages.push_back(
      {2, 0, 1 * kDaySeconds, 3 * kDaySeconds, 1.0});

  FaultInjector injector(plan);
  FaultInjector clean{FaultPlan{}};
  for (std::size_t node = 0; node < 4; ++node) {
    const auto faulted = as_set(injector.sessions(node, two_windows(), 5));
    const auto ideal = as_set(clean.sessions(node, two_windows(), 5));
    if (node % 2 == 0) {
      // Participation 1: the outage window is carved out exactly.
      const auto expected = ideal.subtract(
          IntervalSet::single(1 * kDaySeconds, 3 * kDaySeconds));
      EXPECT_EQ(faulted, expected) << "node " << node;
    } else {
      EXPECT_EQ(faulted, ideal) << "node " << node;
    }
  }
  EXPECT_EQ(injector.stats().scenario_windows, 2u);
}

TEST(Scenario, ChurnBurstDropsWholeDaysDeterministically) {
  FaultPlan plan;
  plan.seed = 77;
  plan.scenario.churn_bursts.push_back(
      {1 * kDaySeconds, 3 * kDaySeconds, 1.0, 1.0});

  FaultInjector injector(plan);
  FaultInjector clean{FaultPlan{}};
  const auto faulted = as_set(injector.sessions(0, two_windows(), 5));
  const auto ideal = as_set(clean.sessions(0, two_windows(), 5));
  // no_show 1, participation 1: days 1 and 2 vanish, the rest survive.
  const auto expected = ideal.subtract(
      IntervalSet::single(1 * kDaySeconds, 3 * kDaySeconds));
  EXPECT_EQ(faulted, expected);

  // Same plan, same node: bit-identical on re-realization.
  FaultInjector again(plan);
  EXPECT_EQ(as_set(again.sessions(0, two_windows(), 5)), faulted);
}

TEST(Scenario, ScaledRealizationsNestExactly) {
  FaultPlan plan;
  plan.seed = 91;
  plan.scenario.regional_outages.push_back(
      {2, 1, 0, 4 * kDaySeconds, 0.8});
  plan.scenario.churn_bursts.push_back(
      {2 * kDaySeconds, 6 * kDaySeconds, 0.7, 0.9});

  IntervalSet prev;  // sessions at the previous (higher) intensity
  bool first = true;
  for (const double f : {1.0, 0.6, 0.3, 0.0}) {
    const FaultPlan cut = scaled(plan, f);
    EXPECT_EQ(cut.scenario.regional_outages.size(), 1u);
    EXPECT_EQ(cut.scenario.churn_bursts.size(), 1u);
    FaultInjector injector(cut);
    const auto online = as_set(injector.sessions(1, two_windows(), 8));
    if (!first) {
      // Lower intensity must be a superset: prev minus online is empty.
      EXPECT_TRUE(prev.subtract(online).pieces().empty()) << "f " << f;
    }
    prev = online;
    first = false;
  }
  // f = 0 equals the unfaulted sessions.
  FaultInjector clean{FaultPlan{}};
  EXPECT_EQ(prev, as_set(clean.sessions(1, two_windows(), 8)));
}

TEST(Scenario, ParserRoundTripsAndRejectsGarbage) {
  const ScenarioSpec spec = parse_scenario(
      "# composite scenario\n"
      "regional_outage regions=3 region=1 start=86400 end=259200 "
      "participation=0.75\n"
      "\n"
      "flash_crowd start=172800 end=345600 load_multiplier=4\n"
      "churn_burst start=345600 end=604800 no_show=0.5\n");
  ASSERT_EQ(spec.regional_outages.size(), 1u);
  EXPECT_EQ(spec.regional_outages[0].regions, 3u);
  EXPECT_EQ(spec.regional_outages[0].region, 1u);
  EXPECT_DOUBLE_EQ(spec.regional_outages[0].participation, 0.75);
  ASSERT_EQ(spec.flash_crowds.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.flash_crowds[0].load_multiplier, 4.0);
  ASSERT_EQ(spec.churn_bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.churn_bursts[0].participation, 1.0);  // default

  EXPECT_EQ(parse_scenario(to_text(spec)), spec);

  EXPECT_THROW(parse_scenario("meteor_strike start=0 end=1"), ParseError);
  EXPECT_THROW(parse_scenario("flash_crowd start=0 end=1"), ParseError);
  EXPECT_THROW(
      parse_scenario("flash_crowd start=0 end=1 load_multiplier=2 x=3"),
      ParseError);
  EXPECT_THROW(parse_scenario("churn_burst start=0 end=1 no_show"),
               ParseError);
}

TEST(FaultInjector, FlushStatsPublishesToObsAndResets) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& counter =
      obs::Registry::global().counter("net.fault.sessions_skipped");
  const std::uint64_t before = counter.value();

  FaultPlan plan = churn_plan(21);
  plan.session_no_show = 0.9;
  FaultInjector injector(plan);
  injector.sessions(0, window(8, 12), 50);
  const std::uint64_t skipped = injector.stats().sessions_skipped;
  ASSERT_GT(skipped, 0u);
  injector.flush_stats();
  EXPECT_EQ(counter.value(), before + skipped);
  EXPECT_EQ(injector.stats().sessions_skipped, 0u);  // flushed and zeroed
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace dosn::net
