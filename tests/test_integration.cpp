// Integration tests: full pipeline from synthetic generation through
// filtering, online-time modeling, placement, analytic metrics, and the
// event-driven simulator — plus dataset save/load round trips.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/replica_manager.hpp"
#include "graph/degree_stats.hpp"
#include "metrics/delay.hpp"
#include "net/replica_sim.hpp"
#include "onlinetime/model.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "trace/parsers.hpp"

namespace dosn {
namespace {

using placement::Connectivity;
using placement::PolicyKind;

class Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::scaled(synth::facebook_preset(), 0.02);
    util::Rng rng(2024);
    dataset_ =
        new trace::Dataset(synth::generate_study_dataset(preset, rng));
  }
  static void TearDownTestSuite() { delete dataset_; }
  static trace::Dataset* dataset_;
};

trace::Dataset* Pipeline::dataset_ = nullptr;

TEST_F(Pipeline, DatasetSurvivesDiskRoundTrip) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) /
      (std::string("dosn_integration_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::create_directories(dir);
  const auto prefix = (dir / "fb").string();
  trace::save_dataset(prefix, *dataset_);
  const auto loaded =
      trace::load_dataset("fb", prefix + ".edges", prefix + ".activities",
                          dataset_->graph.kind());
  EXPECT_EQ(loaded.num_users(), dataset_->num_users());
  EXPECT_EQ(loaded.graph.num_edges(), dataset_->graph.num_edges());
  EXPECT_EQ(loaded.trace.size(), dataset_->trace.size());
  std::filesystem::remove_all(dir);
}

TEST_F(Pipeline, AssignmentFeedsEventSimulatorConsistently) {
  // Place replicas with MaxAv/ConRep, then execute the replica group in
  // the event simulator and check the realized delays respect the
  // analytic worst case for a handful of cohort users.
  const auto model = onlinetime::make_model(onlinetime::ModelKind::kSporadic);
  util::Rng rng(1);
  const auto schedules = model->schedules(*dataset_, rng);

  const auto degree =
      graph::most_populated_degree(dataset_->graph, 4, 12);
  auto cohort = graph::users_with_degree(dataset_->graph, degree);
  cohort.resize(std::min<std::size_t>(cohort.size(), 5));

  core::AssignmentConfig cfg;
  cfg.policy = PolicyKind::kMaxAv;
  cfg.connectivity = Connectivity::kConRep;
  cfg.max_replicas = 3;
  const auto assignment =
      core::assign_replicas(*dataset_, schedules, cfg, rng, cohort);

  for (std::size_t i = 0; i < assignment.users.size(); ++i) {
    const auto u = assignment.users[i];
    std::vector<interval::DaySchedule> nodes{schedules[u]};
    for (auto host : assignment.replicas[i]) nodes.push_back(schedules[host]);
    if (nodes.size() < 2) continue;

    const auto analytic = metrics::update_propagation_delay(
        nodes.front(),
        std::span<const interval::DaySchedule>(nodes).subspan(1),
        Connectivity::kConRep);
    if (!analytic.fully_connected) continue;

    util::Rng urng(100 + i);
    const auto updates = net::updates_within_schedules(nodes, 50, 10, urng);
    net::ReplicaSimConfig sim_cfg;
    sim_cfg.horizon_days = 20;
    const auto report = net::simulate_replica_group(nodes, updates, sim_cfg);
    EXPECT_TRUE(report.all_delivered);
    EXPECT_LE(report.max_delay, analytic.actual);
  }
}

TEST_F(Pipeline, ConRepSelectionsAreTimeConnected) {
  // Structural invariant of every ConRep selection: the replica
  // connectivity graph including the owner is connected.
  const auto model = onlinetime::make_model(onlinetime::ModelKind::kSporadic);
  util::Rng rng(3);
  const auto schedules = model->schedules(*dataset_, rng);
  const auto degree =
      graph::most_populated_degree(dataset_->graph, 4, 12);
  auto cohort = graph::users_with_degree(dataset_->graph, degree);
  cohort.resize(std::min<std::size_t>(cohort.size(), 20));

  for (PolicyKind kind :
       {PolicyKind::kMaxAv, PolicyKind::kMostActive, PolicyKind::kRandom}) {
    core::AssignmentConfig cfg;
    cfg.policy = kind;
    cfg.connectivity = Connectivity::kConRep;
    cfg.max_replicas = 5;
    util::Rng prng(4);
    const auto assignment =
        core::assign_replicas(*dataset_, schedules, cfg, prng, cohort);
    for (std::size_t i = 0; i < assignment.users.size(); ++i) {
      const auto& replicas = assignment.replicas[i];
      interval::DaySchedule grown = schedules[assignment.users[i]];
      for (auto host : replicas) {
        // Each replica, in selection order, connects to the set so far
        // (or seeds it when the owner is never online).
        if (!grown.empty()) {
          EXPECT_TRUE(schedules[host].intersects(grown))
              << "policy " << placement::to_string(kind);
        }
        grown = grown.unite(schedules[host]);
      }
    }
  }
}

TEST_F(Pipeline, EndToEndStudyProducesPlottableFigure) {
  sim::Study study(*dataset_, 5);
  sim::Study::Options opts;
  opts.cohort_degree = graph::most_populated_degree(dataset_->graph, 4, 12);
  opts.k_max = 4;
  opts.repetitions = 2;
  const auto sweep = study.replication_sweep(
      onlinetime::ModelKind::kSporadic, {}, Connectivity::kConRep, opts);
  const auto series = sweep.series(sim::Metric::kAvailability);
  ASSERT_EQ(series.size(), 3u);
  // The figure harness renders these directly; verify they are sane.
  for (const auto& s : series) {
    ASSERT_EQ(s.x.size(), 5u);
    for (double y : s.y) {
      EXPECT_GE(y, 0.0);
      EXPECT_LE(y, 1.0);
    }
  }
}

TEST_F(Pipeline, HostLoadFairnessComparable) {
  // MaxAv concentrates load on well-positioned friends; Random spreads it.
  const auto model = onlinetime::make_model(onlinetime::ModelKind::kSporadic);
  util::Rng rng(6);
  const auto schedules = model->schedules(*dataset_, rng);

  auto run = [&](PolicyKind kind) {
    core::AssignmentConfig cfg;
    cfg.policy = kind;
    cfg.connectivity = Connectivity::kUnconRep;
    cfg.max_replicas = 3;
    util::Rng prng(7);
    const auto a = core::assign_replicas(*dataset_, schedules, cfg, prng);
    return core::load_stats(a.host_load);
  };
  const auto maxav = run(PolicyKind::kMaxAv);
  const auto random = run(PolicyKind::kRandom);
  EXPECT_GT(maxav.mean, 0.0);
  EXPECT_GT(random.mean, 0.0);
  // Both are valid Gini coefficients.
  EXPECT_GE(maxav.gini, 0.0);
  EXPECT_LE(maxav.gini, 1.0);
  EXPECT_GE(random.gini, 0.0);
  EXPECT_LE(random.gini, 1.0);
}

}  // namespace
}  // namespace dosn
