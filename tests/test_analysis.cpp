// Tests for graph analytics, the triadic-closure generator option, the
// session-log loader, and the precomputed online-time model.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "graph/analysis.hpp"
#include "graph/degree_stats.hpp"
#include "onlinetime/sessions.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "util/error.hpp"

namespace dosn {
namespace {

using graph::GraphKind;
using graph::SocialGraph;
using graph::SocialGraphBuilder;
using graph::UserId;
using onlinetime::load_session_schedules;

SocialGraph two_triangles_and_isolate() {
  // {0,1,2} triangle, {3,4,5} triangle, 6 isolated.
  SocialGraphBuilder b(GraphKind::kUndirected, 7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 3);
  return std::move(b).build();
}

TEST(Components, FindsAllComponents) {
  const auto g = two_triangles_and_isolate();
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[6], comp[0]);
  EXPECT_NE(comp[6], comp[3]);
  EXPECT_EQ(largest_component_size(g), 3u);
}

TEST(Components, DirectedTreatedWeakly) {
  SocialGraphBuilder b(GraphKind::kDirected, 3);
  b.add_edge(0, 1);
  b.add_edge(2, 1);  // 0 -> 1 <- 2: weakly one component
  const auto g = std::move(b).build();
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(largest_component_size(g), 3u);
}

TEST(Components, EmptyGraph) {
  SocialGraph g;
  EXPECT_TRUE(connected_components(g).empty());
  EXPECT_EQ(largest_component_size(g), 0u);
}

TEST(Clustering, TriangleIsOne) {
  const auto g = two_triangles_and_isolate();
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(sample_clustering_coefficient(g, 100, rng), 1.0);
}

TEST(Clustering, StarIsZero) {
  SocialGraphBuilder b(GraphKind::kUndirected, 5);
  for (UserId u = 1; u < 5; ++u) b.add_edge(0, u);
  const auto g = std::move(b).build();
  util::Rng rng(2);
  EXPECT_DOUBLE_EQ(sample_clustering_coefficient(g, 100, rng), 0.0);
}

TEST(Clustering, NoEligibleNodes) {
  SocialGraphBuilder b(GraphKind::kUndirected, 2);
  b.add_edge(0, 1);
  const auto g = std::move(b).build();
  util::Rng rng(3);
  EXPECT_DOUBLE_EQ(sample_clustering_coefficient(g, 100, rng), 0.0);
}

TEST(Assortativity, RegularGraphDegenerate) {
  const auto g = two_triangles_and_isolate();  // all degrees equal
  EXPECT_DOUBLE_EQ(degree_assortativity(g), 0.0);
}

TEST(Assortativity, StarIsNegative) {
  SocialGraphBuilder b(GraphKind::kUndirected, 6);
  for (UserId u = 1; u < 6; ++u) b.add_edge(0, u);
  const auto g = std::move(b).build();
  EXPECT_LT(degree_assortativity(g), -0.9);
}

TEST(TriadicClosure, RaisesClustering) {
  synth::GraphGenConfig cfg;
  cfg.users = 2000;
  cfg.avg_degree = 10.0;
  util::Rng r1(5), r2(5), cr(6);
  const auto plain =
      synth::generate_power_law_graph(cfg, GraphKind::kUndirected, r1);
  cfg.triadic_closure = 2.0;
  const auto closed =
      synth::generate_power_law_graph(cfg, GraphKind::kUndirected, r2);

  util::Rng s1(7), s2(7);
  const double c_plain = sample_clustering_coefficient(plain, 500, s1);
  const double c_closed = sample_clustering_coefficient(closed, 500, s2);
  EXPECT_GT(c_closed, c_plain * 2.0 + 0.01);
  (void)cr;
}

TEST(TriadicClosure, OnlyAddsEdgesBetweenNeighbors) {
  // Star: closure edges can only connect leaves (common neighbour 0).
  synth::GraphGenConfig cfg;
  cfg.users = 50;
  cfg.avg_degree = 3.0;
  cfg.triadic_closure = 1.0;
  util::Rng rng(8);
  const auto g =
      synth::generate_power_law_graph(cfg, GraphKind::kUndirected, rng);
  EXPECT_GT(g.num_edges(), 0u);  // smoke: generation succeeds with closure
}

class SessionFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -j runs each case as its own process,
    // so a shared directory races against a sibling's TearDown.
    dir_ = std::filesystem::path(testing::TempDir()) /
           (std::string("dosn_sessions_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& body) {
    const auto path = (dir_ / "s.sessions").string();
    std::ofstream out(path);
    out << body;
    return path;
  }
  std::filesystem::path dir_;
};

TEST_F(SessionFiles, LoadsAndProjects) {
  trace::IdMap ids;
  ids.intern("alice");
  ids.intern("bob");
  const auto path = write_file(
      "# comment\n"
      "alice 28800 36000\n"       // 08:00-10:00
      "alice 115200 122400\n"     // day 1, 08:00-10:00 (same projection)
      "bob 72000 93600\n");       // 20:00-02:00 (wraps)
  const auto schedules = load_session_schedules(path, ids, 2);
  ASSERT_EQ(schedules.size(), 2u);
  EXPECT_EQ(schedules[0].online_seconds(), 2 * 3600);
  EXPECT_TRUE(schedules[0].online_at(9 * 3600));
  EXPECT_EQ(schedules[1].online_seconds(), 6 * 3600);
  EXPECT_TRUE(schedules[1].online_at(1 * 3600));  // wrapped past midnight
}

TEST_F(SessionFiles, RejectsMalformedLines) {
  trace::IdMap ids;
  ids.intern("a");
  EXPECT_THROW(
      load_session_schedules(write_file("a 100\n"), ids, 1), ParseError);
  EXPECT_THROW(
      load_session_schedules(write_file("a 200 100\n"), ids, 1), ParseError);
  EXPECT_THROW(
      load_session_schedules(write_file("stranger 1 2\n"), ids, 1),
      ParseError);
  EXPECT_THROW(load_session_schedules((dir_ / "none").string(), ids, 1),
               IoError);
}

TEST_F(SessionFiles, SaveLoadRoundTrip) {
  std::vector<interval::DaySchedule> schedules{
      interval::DaySchedule(interval::IntervalSet::single(3600, 7200)),
      interval::DaySchedule{},
      interval::DaySchedule(interval::IntervalSet(
          {{0, 600}, {80000, 86400}})),
  };
  const auto path = (dir_ / "rt.sessions").string();
  onlinetime::save_session_schedules(path, schedules);

  trace::IdMap ids;
  ids.intern("0");
  ids.intern("1");
  ids.intern("2");
  const auto loaded = onlinetime::load_session_schedules(path, ids, 3);
  EXPECT_EQ(loaded[0], schedules[0]);
  EXPECT_EQ(loaded[1], schedules[1]);
  EXPECT_EQ(loaded[2], schedules[2]);
}

TEST(PrecomputedModel, DrivesStudySweep) {
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(21);
  const auto dataset = synth::generate_study_dataset(preset, rng);

  // Hand the study a fixed everyone-online-09-17 schedule set.
  std::vector<interval::DaySchedule> schedules(
      dataset.num_users(),
      interval::DaySchedule(interval::IntervalSet::single(9 * 3600,
                                                          17 * 3600)));
  onlinetime::PrecomputedModel model(schedules, "Office(9-17)");
  EXPECT_EQ(model.name(), "Office(9-17)");
  EXPECT_FALSE(model.randomized());

  sim::Study study(dataset, 31);
  sim::Study::Options opts;
  opts.cohort_degree = graph::most_populated_degree(dataset.graph, 4, 12);
  opts.k_max = 3;
  opts.repetitions = 1;
  const auto sweep = study.replication_sweep(
      model, placement::Connectivity::kConRep, opts);
  EXPECT_EQ(sweep.model_name, "Office(9-17)");
  // Identical schedules: availability is 8/24 at every k, for every policy.
  for (const auto& curve : sweep.policies)
    for (const auto& point : curve.points)
      EXPECT_NEAR(point.availability, 8.0 / 24.0, 1e-12);
}

TEST(PrecomputedModel, ValidatesSize) {
  auto preset = synth::scaled(synth::facebook_preset(), 0.02);
  util::Rng rng(22);
  const auto dataset = synth::generate_study_dataset(preset, rng);
  onlinetime::PrecomputedModel model(std::vector<interval::DaySchedule>(3));
  util::Rng r(1);
  EXPECT_THROW(model.schedules(dataset, r), ConfigError);
}

}  // namespace
}  // namespace dosn
