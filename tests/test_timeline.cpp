// Tests for the temporal split and the absolute-timeline evaluation.
#include <gtest/gtest.h>

#include "eval_oracle.hpp"
#include "graph/degree_stats.hpp"
#include "sim/evaluate.hpp"
#include "onlinetime/sporadic.hpp"
#include "sim/timeline.hpp"
#include "synth/presets.hpp"
#include "util/error.hpp"

namespace dosn {
namespace {

using interval::kDaySeconds;
using interval::Seconds;
using trace::Activity;

constexpr Seconds kH = 3600;

trace::Dataset pair_dataset(std::vector<Activity> acts) {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  trace::Dataset d;
  d.name = "pair";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(3, std::move(acts));
  return d;
}

TEST(TemporalSplit, PartitionsByTimestamp) {
  auto d = pair_dataset({{1, 0, 100}, {1, 0, 200}, {2, 0, 300}, {2, 0, 400},
                         {1, 0, 500}});
  const auto split = trace::split_by_time(d, 0.6);
  EXPECT_EQ(split.past.trace.size() + split.future.trace.size(), 5u);
  for (const auto& a : split.past.trace.all())
    EXPECT_LT(a.timestamp, split.split_at);
  for (const auto& a : split.future.trace.all())
    EXPECT_GE(a.timestamp, split.split_at);
  EXPECT_GE(split.future.trace.size(), 1u);
  EXPECT_GE(split.past.trace.size(), 1u);
  // Graph and ids unchanged on both sides.
  EXPECT_EQ(split.past.graph.num_edges(), d.graph.num_edges());
  EXPECT_EQ(split.future.num_users(), d.num_users());
}

TEST(TemporalSplit, RejectsBadFraction) {
  auto d = pair_dataset({{1, 0, 100}});
  EXPECT_THROW(trace::split_by_time(d, 0.0), ConfigError);
  EXPECT_THROW(trace::split_by_time(d, 1.0), ConfigError);
}

TEST(TemporalSplit, EmptyTraceYieldsEmptySides) {
  auto d = pair_dataset({});
  const auto split = trace::split_by_time(d, 0.5);
  EXPECT_TRUE(split.past.trace.empty());
  EXPECT_TRUE(split.future.trace.empty());
  EXPECT_EQ(split.past.graph.num_users(), 3u);
}

TEST(Timeline, SessionsAtAbsoluteTimes) {
  // User 1 active on day 0 and day 5: both sessions exist separately.
  auto d = pair_dataset({{1, 0, 10 * kH}, {1, 0, 5 * kDaySeconds + 10 * kH}});
  util::Rng rng(1);
  const auto t = sim::timeline_sporadic(d, 1200, rng);
  EXPECT_EQ(t.online[1].measure(), 2 * 1200);
  EXPECT_TRUE(t.online[1].contains(10 * kH));
  EXPECT_TRUE(t.online[1].contains(5 * kDaySeconds + 10 * kH));
  EXPECT_FALSE(t.online[1].contains(2 * kDaySeconds + 10 * kH));
  EXPECT_GT(t.span(), 5 * kDaySeconds);
}

TEST(Timeline, ProjectionInflatesAvailability) {
  // Two activities at the same time-of-day on different days: the daily
  // projection merges them into one covered stretch and divides by one
  // day, while the timeline keeps them apart across a 6-day span.
  auto d = pair_dataset({{1, 0, 10 * kH}, {1, 0, 5 * kDaySeconds + 10 * kH}});
  util::Rng r1(7);
  const auto timeline = sim::timeline_sporadic(d, 1200, r1);

  const std::vector<graph::UserId> replicas{1};
  const auto real = sim::evaluate_on_timeline(d, timeline, 0, replicas);

  // Projected view: the same two sessions overlap on the daily cycle.
  const double projected = 1200.0 / 86400.0;  // at most one session's worth
  EXPECT_LE(real.availability, projected + 1e-12);
  EXPECT_GT(real.availability, 0.0);
}

TEST(Timeline, ActivityCoverageUsesAbsoluteInstants) {
  // Post at day 5 arrives while replica 1 is online (its session contains
  // that instant); a post on day 2 finds nobody.
  auto d = pair_dataset({{1, 0, 10 * kH},
                         {1, 0, 5 * kDaySeconds + 10 * kH},
                         {2, 0, 2 * kDaySeconds + 10 * kH}});
  util::Rng rng(3);
  const auto timeline = sim::timeline_sporadic(d, 1200, rng);
  const std::vector<graph::UserId> replicas{1};
  const auto m = sim::evaluate_on_timeline(d, timeline, 0, replicas);
  // Of the three received activities, the two made by user 1 are inside
  // user 1's own sessions; user 2's post (day 2) is not covered by 1.
  // (user 2's own session covers it only if 2 were a replica.)
  EXPECT_NEAR(m.aod_activity, 2.0 / 3.0, 1e-12);
}

TEST(Timeline, AodTimeAgainstFriendsUnion) {
  auto d = pair_dataset({{1, 0, 10 * kH}, {2, 0, 20 * kH}});
  util::Rng rng(4);
  const auto timeline = sim::timeline_sporadic(d, 1200, rng);
  // Replicating on both friends covers the whole demand.
  const std::vector<graph::UserId> both{1, 2};
  EXPECT_DOUBLE_EQ(
      sim::evaluate_on_timeline(d, timeline, 0, both).aod_time, 1.0);
  // Owner-only covers none of it (user 0 has no sessions).
  EXPECT_DOUBLE_EQ(
      sim::evaluate_on_timeline(d, timeline, 0, {}).aod_time, 0.0);
}

TEST(Timeline, EmptyTraceSafe) {
  auto d = pair_dataset({});
  util::Rng rng(5);
  const auto timeline = sim::timeline_sporadic(d, 1200, rng);
  EXPECT_EQ(timeline.span(), 0);
  const auto m = sim::evaluate_on_timeline(d, timeline, 0, {});
  EXPECT_DOUBLE_EQ(m.availability, 0.0);
  EXPECT_DOUBLE_EQ(m.aod_time, 1.0);  // vacuous
  EXPECT_DOUBLE_EQ(m.aod_activity, 1.0);
}

TEST(Timeline, ProjectionGapOnSyntheticCohort) {
  // End-to-end sanity of the A8 effect: projected availability strictly
  // exceeds timeline availability on a real synthetic cohort.
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(6);
  const auto dataset = synth::generate_study_dataset(preset, rng);
  util::Rng r1(9);
  const auto timeline = sim::timeline_sporadic(dataset, 1200, r1);

  const auto degree = graph::most_populated_degree(dataset.graph, 4, 12);
  auto cohort = graph::users_with_degree(dataset.graph, degree);
  cohort.resize(std::min<std::size_t>(cohort.size(), 10));

  util::Rng r2(9);  // same offsets as the timeline construction
  onlinetime::SporadicModel model(1200);
  const auto projected = model.schedules(dataset, r2);

  double proj_sum = 0, real_sum = 0;
  for (graph::UserId u : cohort) {
    const auto contacts = dataset.graph.contacts(u);
    const std::vector<graph::UserId> replicas(contacts.begin(),
                                              contacts.end());
    proj_sum +=
        sim::oracle::evaluate_user(dataset, projected, u, replicas,
                                   placement::Connectivity::kConRep)
            .availability;
    real_sum +=
        sim::evaluate_on_timeline(dataset, timeline, u, replicas)
            .availability;
  }
  EXPECT_GT(proj_sum, real_sum * 1.5);
}

}  // namespace
}  // namespace dosn
