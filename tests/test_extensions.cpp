// Tests for the extension components: the delay-graph primitives, the
// CoreGroup and Hybrid policies, the EnrichedSporadic model, the fairness
// load cap, and the distribution view of the study driver.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/replica_manager.hpp"
#include "graph/degree_stats.hpp"
#include "interval/delay_graph.hpp"
#include "onlinetime/enriched.hpp"
#include "onlinetime/sporadic.hpp"
#include "placement/core_group.hpp"
#include "placement/hybrid.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "util/error.hpp"

namespace dosn {
namespace {

using interval::DaySchedule;
using interval::GroupDelayResult;
using interval::IntervalSet;
using interval::RendezvousMode;
using interval::Seconds;
using placement::Connectivity;
using placement::PolicyKind;

constexpr Seconds kH = 3600;

DaySchedule window(Seconds start_h, Seconds end_h) {
  return DaySchedule(IntervalSet::single(start_h * kH, end_h * kH));
}

// --- interval::group_delay ---------------------------------------------

TEST(GroupDelay, MatchesMetricsSemantics) {
  // Chain v1(06-12), v2(10-14), v3(13-17): diameter 45h (Fig 1 worked
  // example, see test_delay.cpp).
  std::vector<DaySchedule> nodes{window(6, 12), window(10, 14),
                                 window(13, 17)};
  const auto r = interval::group_delay(nodes, RendezvousMode::kDirect);
  EXPECT_TRUE(r.fully_connected);
  EXPECT_EQ(r.participants, 3u);
  EXPECT_EQ(r.diameter, 45 * kH);
}

TEST(GroupDelay, RelayNeverWorseThanDirect) {
  std::vector<DaySchedule> nodes{window(0, 3), window(2, 5), window(9, 12)};
  const auto direct = interval::group_delay(nodes, RendezvousMode::kDirect);
  const auto relay = interval::group_delay(nodes, RendezvousMode::kRelay);
  if (direct.fully_connected) {
    EXPECT_LE(relay.diameter, direct.diameter);
  }
  EXPECT_TRUE(relay.fully_connected);
}

TEST(GroupDelay, SkipsEmptyParticipants) {
  std::vector<DaySchedule> nodes{window(8, 10), DaySchedule{}, window(9, 11)};
  const auto r = interval::group_delay(nodes, RendezvousMode::kDirect);
  EXPECT_EQ(r.participants, 2u);
  EXPECT_TRUE(r.fully_connected);
}

TEST(GroupDelay, WorstTargetIndexesInputSpan) {
  std::vector<DaySchedule> nodes{window(8, 12), DaySchedule{}, window(11, 13),
                                 window(12, 14)};
  const auto r = interval::group_delay(nodes, RendezvousMode::kDirect);
  EXPECT_TRUE(r.fully_connected);
  EXPECT_LT(r.worst_target, nodes.size());
  EXPECT_NE(r.worst_target, 1u);  // the empty node cannot receive anything
}

TEST(PairDelay, DirectVsRelay) {
  const auto a = window(8, 10);
  const auto b = window(12, 14);
  EXPECT_EQ(interval::pair_delay(a, b, RendezvousMode::kDirect),
            std::nullopt);
  EXPECT_EQ(interval::pair_delay(a, b, RendezvousMode::kRelay), 4 * kH);
}

// --- CoreGroup policy ---------------------------------------------------

struct Fixture {
  std::vector<graph::UserId> candidates;
  std::vector<DaySchedule> schedules;
  trace::ActivityTrace trace;

  placement::PlacementContext context(graph::UserId user, Connectivity conn,
                                      std::size_t k) const {
    placement::PlacementContext c;
    c.user = user;
    c.candidates = candidates;
    c.schedules = schedules;
    c.trace = &trace;
    c.connectivity = conn;
    c.max_replicas = k;
    return c;
  }
};

TEST(CoreGroup, PrefersTightOverlaps) {
  // Owner 08-12. Candidate 1 hugs the owner (09-13); candidate 2 barely
  // touches (11-19, adds much more coverage but a big delay).
  Fixture f;
  f.candidates = {1, 2};
  f.schedules = {window(8, 12), window(9, 13), window(11, 19)};
  f.trace = trace::ActivityTrace(3, {});
  placement::CoreGroupPolicy policy;
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kConRep, 1), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 1u);  // MaxAv would pick 2; CoreGroup keeps delay low
}

TEST(CoreGroup, StillRequiresCoverageGain) {
  // A candidate fully inside the owner's window adds zero availability and
  // must not be selected even though it would keep the delay minimal.
  Fixture f;
  f.candidates = {1};
  f.schedules = {window(8, 12), window(9, 10)};
  f.trace = trace::ActivityTrace(2, {});
  placement::CoreGroupPolicy policy;
  util::Rng rng(1);
  EXPECT_TRUE(
      policy.select(f.context(0, Connectivity::kConRep, 1), rng).empty());
}

TEST(CoreGroup, OneSelectRunsEachPairKernelAtMostOnce) {
  // d staggered candidates, each adding coverage, so every round tries
  // many of them. The rounds read one memo over the owner and the d
  // candidates, so the select runs at most one kDirect kernel per
  // unordered pair of those d + 1 nodes, where rebuilding the group delay
  // per candidate and round would rerun the picked group's kernels.
  constexpr std::size_t d = 16;
  Fixture f;
  f.schedules = {window(0, 2)};
  for (std::size_t i = 1; i <= d; ++i) {
    f.candidates.push_back(static_cast<graph::UserId>(i));
    const auto h = static_cast<Seconds>(i);
    f.schedules.push_back(window(h, h + 3));
  }
  f.trace = trace::ActivityTrace(d + 1, {});
  placement::CoreGroupPolicy policy;
  placement::PlacementScratch scratch;
  util::Rng rng(1);
  const auto picks =
      policy.select(f.context(0, Connectivity::kConRep, d), rng, scratch);
  EXPECT_GE(picks.size(), 4u);
  EXPECT_GT(scratch.memo.edge_evaluations(), 0u);
  EXPECT_LE(scratch.memo.edge_evaluations(), d * (d + 1) / 2);
}

TEST(CoreGroup, DelayNoWorseThanMaxAvOnAverage) {
  // On a synthetic cohort, CoreGroup's delay should beat MaxAv's while
  // sacrificing some availability.
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(99);
  const auto dataset = synth::generate_study_dataset(preset, rng);
  sim::Study study(dataset, 3);
  sim::Study::Options opts;
  opts.cohort_degree = graph::most_populated_degree(dataset.graph, 4, 12);
  opts.k_max = 4;
  opts.repetitions = 1;
  opts.policies = {PolicyKind::kMaxAv, PolicyKind::kCoreGroup};
  const auto sweep = study.replication_sweep(
      onlinetime::ModelKind::kSporadic, {}, Connectivity::kConRep, opts);
  const auto& maxav = sweep.policies[0].points.back();
  const auto& core = sweep.policies[1].points.back();
  EXPECT_LE(core.delay_actual_h, maxav.delay_actual_h + 1e-9);
  EXPECT_LE(core.availability, maxav.availability + 1e-9);
}

// --- Hybrid policy ------------------------------------------------------

TEST(Hybrid, AlphaOneFollowsActivity) {
  Fixture f;
  f.candidates = {1, 2};
  // Candidate 2 has huge coverage, candidate 1 has all the activity.
  f.schedules = {window(8, 10), window(9, 11), window(12, 22)};
  f.trace = trace::ActivityTrace(3, {{1, 0, 100}, {1, 0, 200}});
  placement::HybridPolicy activity_only(1.0);
  util::Rng rng(1);
  const auto r =
      activity_only.select(f.context(0, Connectivity::kUnconRep, 1), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 1u);
}

TEST(Hybrid, AlphaZeroFollowsCoverage) {
  Fixture f;
  f.candidates = {1, 2};
  f.schedules = {window(8, 10), window(9, 11), window(12, 22)};
  f.trace = trace::ActivityTrace(3, {{1, 0, 100}, {1, 0, 200}});
  placement::HybridPolicy coverage_only(0.0);
  util::Rng rng(1);
  const auto r =
      coverage_only.select(f.context(0, Connectivity::kUnconRep, 1), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 2u);
}

TEST(Hybrid, RespectsConRep) {
  Fixture f;
  f.candidates = {1, 2};
  // Candidate 2 never overlaps anyone.
  f.schedules = {window(8, 10), window(9, 11), window(20, 22)};
  f.trace = trace::ActivityTrace(3, {{2, 0, 100}});
  placement::HybridPolicy policy(0.5);
  util::Rng rng(1);
  const auto r = policy.select(f.context(0, Connectivity::kConRep, 2), rng);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 1u);
}

TEST(Hybrid, RejectsBadAlpha) {
  EXPECT_THROW(placement::HybridPolicy(-0.1), ConfigError);
  EXPECT_THROW(placement::HybridPolicy(1.5), ConfigError);
}

TEST(Hybrid, FactoryPassesAlpha) {
  placement::PolicyParams params;
  params.hybrid_alpha = 0.25;
  const auto policy = placement::make_policy(PolicyKind::kHybrid, params);
  EXPECT_EQ(policy->name(), "Hybrid(0.25)");
}

// --- EnrichedSporadic model ---------------------------------------------

trace::Dataset tiny_activity_dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 2);
  b.add_edge(0, 1);
  trace::Dataset d;
  d.graph = std::move(b).build();
  std::vector<trace::Activity> acts;
  for (int day = 0; day < 7; ++day)
    acts.push_back({0, 1, day * interval::kDaySeconds + 21 * kH});
  d.trace = trace::ActivityTrace(2, std::move(acts));
  return d;
}

TEST(EnrichedSporadic, ExtendsPlainSporadicCoverage) {
  const auto d = tiny_activity_dataset();
  onlinetime::SporadicModel plain(1200);
  onlinetime::EnrichedSporadicModel enriched(1200, 3.0, 2.0);
  util::Rng r1(7), r2(7);
  const auto plain_s = plain.schedules(d, r1);
  const auto rich_s = enriched.schedules(d, r2);
  EXPECT_GE(rich_s[0].online_seconds(), plain_s[0].online_seconds());
  EXPECT_GT(rich_s[0].online_seconds(), 0);
}

TEST(EnrichedSporadic, ZeroExtraMatchesSessionBudget) {
  const auto d = tiny_activity_dataset();
  onlinetime::EnrichedSporadicModel model(1200, 0.0, 2.0);
  util::Rng rng(7);
  const auto s = model.schedules(d, rng);
  EXPECT_LE(s[0].online_seconds(), 7 * 1200);
}

TEST(EnrichedSporadic, UserWithoutActivityStaysOffline) {
  const auto d = tiny_activity_dataset();
  onlinetime::EnrichedSporadicModel model(1200, 5.0, 2.0);
  util::Rng rng(7);
  const auto s = model.schedules(d, rng);
  EXPECT_TRUE(s[1].empty());  // user 1 never created anything
}

TEST(EnrichedSporadic, FactoryAndValidation) {
  onlinetime::ModelParams params;
  params.extra_sessions_per_day = 1.5;
  const auto model =
      onlinetime::make_model(onlinetime::ModelKind::kEnrichedSporadic, params);
  EXPECT_TRUE(model->randomized());
  EXPECT_NE(model->name().find("EnrichedSporadic"), std::string::npos);
  EXPECT_THROW(onlinetime::EnrichedSporadicModel(0), ConfigError);
  EXPECT_THROW(onlinetime::EnrichedSporadicModel(1200, -1.0), ConfigError);
}

// --- load cap fairness ---------------------------------------------------

TEST(LoadCap, BoundsPerHostLoad) {
  // Star graph: user 0 is everyone's only contact. Without a cap he hosts
  // every profile; with cap 2 he hosts at most 2.
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 6);
  for (graph::UserId u = 1; u < 6; ++u) b.add_edge(0, u);
  trace::Dataset d;
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(6, {});
  std::vector<DaySchedule> schedules(6, window(8, 12));

  core::AssignmentConfig cfg;
  cfg.policy = PolicyKind::kRandom;
  cfg.connectivity = Connectivity::kUnconRep;
  cfg.max_replicas = 1;

  util::Rng rng(1);
  const auto uncapped = core::assign_replicas(d, schedules, cfg, rng);
  EXPECT_EQ(uncapped.host_load[0], 5u);

  cfg.load_cap = 2;
  util::Rng rng2(1);
  const auto capped = core::assign_replicas(d, schedules, cfg, rng2);
  EXPECT_LE(capped.host_load[0], 2u);
}

TEST(LoadCap, ImprovesFairnessOnSyntheticNetwork) {
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(5);
  const auto dataset = synth::generate_study_dataset(preset, rng);
  const auto model =
      onlinetime::make_model(onlinetime::ModelKind::kSporadic);
  util::Rng mrng(6);
  const auto schedules = model->schedules(dataset, mrng);

  core::AssignmentConfig cfg;
  cfg.policy = PolicyKind::kMaxAv;
  cfg.connectivity = Connectivity::kUnconRep;
  cfg.max_replicas = 3;
  util::Rng r1(7), r2(7);
  const auto free = core::assign_replicas(dataset, schedules, cfg, r1);
  cfg.load_cap = 5;
  const auto capped = core::assign_replicas(dataset, schedules, cfg, r2);

  const auto free_stats = core::load_stats(free.host_load);
  const auto capped_stats = core::load_stats(capped.host_load);
  EXPECT_LE(capped_stats.max, 5u);
  EXPECT_LE(capped_stats.gini, free_stats.gini + 1e-9);
}

// --- distribution view ---------------------------------------------------

TEST(CohortSamples, MatchesSweepMeanForDeterministicPolicy) {
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(11);
  const auto dataset = synth::generate_study_dataset(preset, rng);
  sim::Study study(dataset, 17);
  sim::Study::Options opts;
  opts.cohort_degree = graph::most_populated_degree(dataset.graph, 4, 12);
  opts.repetitions = 1;

  const auto samples = study.cohort_samples(
      onlinetime::ModelKind::kFixedLength, {.window_hours = 8.0},
      Connectivity::kConRep, PolicyKind::kMaxAv, /*k=*/3, opts);
  ASSERT_FALSE(samples.empty());

  // Every sample respects the metric bounds.
  for (const auto& s : samples) {
    EXPECT_GE(s.availability, 0.0);
    EXPECT_LE(s.availability, 1.0 + 1e-12);
    EXPECT_LE(s.availability, s.max_availability + 1e-12);
    EXPECT_LE(s.replicas_used, 3.0);
  }

  // The sample mean equals the sweep's cohort mean at the same k (both
  // deterministic given the seed-derived schedule stream)... the sweep
  // uses a different rng stream, so only require statistical closeness.
  opts.k_max = 3;
  opts.policies = {PolicyKind::kMaxAv};
  const auto sweep = study.replication_sweep(
      onlinetime::ModelKind::kFixedLength, {.window_hours = 8.0},
      Connectivity::kConRep, opts);
  double mean = 0.0;
  for (const auto& s : samples) mean += s.availability;
  mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mean, sweep.policies[0].points.back().availability, 0.05);
}

TEST(CohortSamples, EmptyCohortThrows) {
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(13);
  const auto dataset = synth::generate_study_dataset(preset, rng);
  sim::Study study(dataset, 19);
  sim::Study::Options opts;
  opts.cohort_degree = 9999;
  EXPECT_THROW(study.cohort_samples(onlinetime::ModelKind::kSporadic, {},
                                    Connectivity::kConRep,
                                    PolicyKind::kMaxAv, 3, opts),
               ConfigError);
}

// New policies keep the global placement invariants.
class ExtensionPolicyInvariants
    : public ::testing::TestWithParam<std::tuple<PolicyKind, Connectivity>> {};

TEST_P(ExtensionPolicyInvariants, BudgetUniquenessConnectivity) {
  const auto [kind, conn] = GetParam();
  util::Rng rng(55);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 6;
    std::vector<DaySchedule> schedules;
    for (std::size_t i = 0; i < n; ++i) {
      const Seconds start = rng.range(0, 20) * kH;
      const Seconds len = rng.range(1, 4) * kH;
      const interval::Interval iv{start, start + len};
      schedules.push_back(DaySchedule::project({&iv, 1}));
    }
    std::vector<graph::UserId> candidates;
    for (graph::UserId c = 1; c < n; ++c) candidates.push_back(c);
    trace::ActivityTrace empty_trace(n, {});

    placement::PlacementContext ctx;
    ctx.user = 0;
    ctx.candidates = candidates;
    ctx.schedules = schedules;
    ctx.trace = &empty_trace;
    ctx.connectivity = conn;
    ctx.max_replicas = 3;
    const auto policy = placement::make_policy(kind);
    const auto r = policy->select(ctx, rng);

    EXPECT_LE(r.size(), 3u);
    std::vector<graph::UserId> sorted(r);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (conn == Connectivity::kConRep) {
      DaySchedule grown = schedules[0];
      for (auto host : r) {
        if (!grown.empty()) {
          EXPECT_TRUE(schedules[host].intersects(grown));
        }
        grown = grown.unite(schedules[host]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NewPolicies, ExtensionPolicyInvariants,
    ::testing::Combine(::testing::Values(PolicyKind::kCoreGroup,
                                         PolicyKind::kHybrid),
                       ::testing::Values(Connectivity::kConRep,
                                         Connectivity::kUnconRep)));

}  // namespace
}  // namespace dosn
