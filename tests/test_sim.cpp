// Tests for the study driver: per-user evaluation and the three sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <tuple>

#include "eval_oracle.hpp"
#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "util/error.hpp"

namespace dosn::sim {
namespace {

constexpr interval::Seconds kH = 3600;

using onlinetime::ModelKind;
using onlinetime::ModelParams;
using placement::Connectivity;
using placement::PolicyKind;

DaySchedule window(interval::Seconds start_h, interval::Seconds end_h) {
  return DaySchedule(interval::IntervalSet::single(start_h * kH, end_h * kH));
}

trace::Dataset tiny_dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  trace::Dataset d;
  d.name = "tiny";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(
      4, {{1, 0, 9 * kH}, {2, 0, 13 * kH}, {1, 0, 10 * kH}});
  return d;
}

TEST(EvaluateUser, MetricsForKnownConfiguration) {
  const auto d = tiny_dataset();
  // Owner 08-10; friends: 1: 09-13, 2: 12-16, 3: never.
  std::vector<DaySchedule> schedules{window(8, 10), window(9, 13),
                                     window(12, 16), DaySchedule{}};
  const std::vector<graph::UserId> replicas{1, 2};
  const auto m =
      evaluate_user(d, schedules, 0, replicas, Connectivity::kConRep);

  // Profile union: 08-16 = 8h.
  EXPECT_DOUBLE_EQ(m.availability, 8.0 / 24.0);
  // Max achievable equals that (friend 3 adds nothing).
  EXPECT_DOUBLE_EQ(m.max_availability, 8.0 / 24.0);
  // Demand union: 09-16; profile covers all of it.
  EXPECT_DOUBLE_EQ(m.aod_time, 1.0);
  // Activities at 09:00, 10:00, 13:00 all inside the profile schedule.
  EXPECT_DOUBLE_EQ(m.aod_activity, 1.0);
  EXPECT_DOUBLE_EQ(m.replicas_used, 2.0);
  EXPECT_GT(m.delay_actual_h, 0.0);
}

TEST(EvaluateUser, NoReplicasMeansOwnerOnly) {
  const auto d = tiny_dataset();
  std::vector<DaySchedule> schedules{window(8, 10), window(9, 13),
                                     window(12, 16), DaySchedule{}};
  const auto m = evaluate_user(d, schedules, 0, {}, Connectivity::kConRep);
  EXPECT_DOUBLE_EQ(m.availability, 2.0 / 24.0);
  EXPECT_DOUBLE_EQ(m.delay_actual_h, 0.0);
  EXPECT_DOUBLE_EQ(m.replicas_used, 0.0);
}

TEST(EvaluateUser, ValidatesScheduleCount) {
  const auto d = tiny_dataset();
  std::vector<DaySchedule> wrong(2);
  EXPECT_THROW(evaluate_user(d, wrong, 0, {}, Connectivity::kConRep),
               ConfigError);
}

TEST(EvaluateUserPrefixes, FlushesDelayEdgeEvaluations) {
  // Owner, replica 1 and replica 2 participate; replica 3 is never online.
  // Three participants: 3 unordered pairs under ConRep, 6 ordered pairs
  // under UnconRep.
  const auto d = tiny_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(9, 13),
                                           window(12, 16), DaySchedule{}};
  const std::vector<graph::UserId> selected{1, 3, 2};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& edges = obs::Registry::global().counter("sim.delay_edges");
  for (const auto& [connectivity, expected] :
       {std::pair{Connectivity::kConRep, 3u},
        std::pair{Connectivity::kUnconRep, 6u}}) {
    const std::uint64_t before = edges.value();
    (void)evaluate_user_prefixes(d, schedules, 0, selected, connectivity, 3);
    EXPECT_EQ(edges.value() - before, expected);
  }
  obs::set_enabled(was_enabled);
}

/// Enables obs for one test and restores the previous state.
class ObsOn {
 public:
  ObsOn() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was_); }
  ObsOn(const ObsOn&) = delete;
  ObsOn& operator=(const ObsOn&) = delete;

 private:
  bool was_;
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// One table serves every run of a user, and its pair-delay memo evaluates
// each pair's kernel once: four runs over owner 0 and contacts 1, 2 (3 is
// never online) fill the three pairs once under ConRep, both directions
// of each under UnconRep. A pair no run pushes is never evaluated.
//
// Every pick is pushed into the prefix delay (9 in the four runs, 2 in the
// single runs). A row with two or more participants and a nonzero diameter
// passes its one-piece reader to the observed-delay kernel only when its
// (diameter, reader) pair differs from the run's last kernel call. Under
// ConRep the owner (08-10) and contact 2 (12-16) never meet, so the rows
// {owner, 2} have no diameter, and pushing never-online contact 3 changes
// neither value, so run {1, 2, 3} calls the kernel at {owner, 1} and
// {owner, 1, 2} only: 2 + 1 + 1 + 1 = 5 calls in the four runs, 1 in the
// single runs. UnconRep connects every pair, and {owner, 1} already has
// the 22 h diameter that 2 and 3 leave as it is: run {1, 2, 3} calls once,
// while {2, 1} and {3, 2, 1} call at {owner, 2} (20 h) and again when 1
// lengthens it to 22 h: 1 + 2 + 2 + 1 = 6, and 2 in the single runs.
TEST(UserTableCounters, MemoFillsEachPairOncePerUser) {
  const auto d = tiny_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(9, 13),
                                           window(12, 16), DaySchedule{}};
  const ObsOn obs_on;
  for (const auto& [connectivity, all_pairs, two_pairs, observed,
                    single_observed] :
       {std::tuple{Connectivity::kConRep, 3u, 2u, 5u, 1u},
        std::tuple{Connectivity::kUnconRep, 6u, 4u, 6u, 2u}}) {
    SCOPED_TRACE(placement::to_string(connectivity));
    const std::vector<std::vector<graph::UserId>> runs{
        {1, 2, 3}, {2, 1}, {3, 2, 1}, {1}};
    std::vector<graph::UserId> holders;
    for (const auto& run : runs)
      holders.insert(holders.end(), run.begin(), run.end());

    const std::uint64_t tables = counter("sim.user_tables");
    const std::uint64_t sweeps = counter("sim.prefix_sweeps");
    const std::uint64_t points = counter("sim.prefix_points");
    const std::uint64_t edges = counter("sim.delay_edges");
    const std::uint64_t pushes = counter("sim.delay_pushes");
    const std::uint64_t pieces = counter("sim.observed_pieces");
    UserTable table;
    table.build(d, schedules, 0, holders, connectivity);
    std::vector<UserMetrics> rows(4);
    for (std::size_t r = 0, from = 0; r < runs.size(); ++r) {
      table.evaluate(table.holder_positions().subspan(from, runs[r].size()),
                     0, 3, rows);
      from += runs[r].size();
    }
    table.flush_counters();
    EXPECT_EQ(counter("sim.user_tables") - tables, 1u);
    EXPECT_EQ(counter("sim.prefix_sweeps") - sweeps, 4u);
    EXPECT_EQ(counter("sim.prefix_points") - points, 16u);
    EXPECT_EQ(counter("sim.delay_edges") - edges, all_pairs);
    EXPECT_EQ(counter("sim.delay_pushes") - pushes, 9u);
    EXPECT_EQ(counter("sim.observed_pieces") - pieces, observed);

    // Runs {1} and {2}: the pair (1, 2) is never pushed.
    const std::vector<graph::UserId> singles{1, 2};
    table.build(d, schedules, 0, singles, connectivity);
    for (std::size_t r = 0; r < singles.size(); ++r)
      table.evaluate(table.holder_positions().subspan(r, 1), 0, 3, rows);
    table.flush_counters();
    EXPECT_EQ(counter("sim.delay_edges") - edges, all_pairs + two_pairs);
    EXPECT_EQ(counter("sim.delay_pushes") - pushes, 11u);
    EXPECT_EQ(counter("sim.observed_pieces") - pieces,
              observed + single_observed);
  }
}

// A push onto m participants computes m(m+1)/2 delay-matrix entries under
// ConRep (the upper triangle; the lower one is its mirror) and m(m+1)
// under UnconRep. In the runs of MemoFillsEachPairOncePerUser the owner is
// pushed onto no one and contact 3 (never online) never participates, so
// each run picking 1 and 2 pushes onto 1, then 2 participants: 1 + 3
// entries under ConRep, 2 + 6 under UnconRep, three such runs and {1}
// give 13 and 26.
TEST(UserTableCounters, DelayRelaxationsHalveUnderConRep) {
  const auto d = tiny_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(9, 13),
                                           window(12, 16), DaySchedule{}};
  const std::vector<std::vector<graph::UserId>> runs{
      {1, 2, 3}, {2, 1}, {3, 2, 1}, {1}};
  std::vector<graph::UserId> holders;
  for (const auto& run : runs)
    holders.insert(holders.end(), run.begin(), run.end());
  const ObsOn obs_on;
  for (const auto& [connectivity, relaxations] :
       {std::pair{Connectivity::kConRep, 13u},
        std::pair{Connectivity::kUnconRep, 26u}}) {
    SCOPED_TRACE(placement::to_string(connectivity));
    const std::uint64_t before = counter("sim.delay_relaxations");
    UserTable table;
    table.build(d, schedules, 0, holders, connectivity);
    std::vector<UserMetrics> rows(4);
    for (std::size_t r = 0, from = 0; r < runs.size(); ++r) {
      table.evaluate(table.holder_positions().subspan(from, runs[r].size()),
                     0, 3, rows);
      from += runs[r].size();
    }
    table.flush_counters();
    EXPECT_EQ(counter("sim.delay_relaxations") - before, relaxations);
  }
}

TEST(MetricEnum, NamesAndExtraction) {
  CohortMetrics m;
  m.availability = 0.5;
  m.delay_actual_h = 7.0;
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kAvailability), 0.5);
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kDelayActualH), 7.0);
  EXPECT_EQ(to_string(Metric::kAvailability), "availability");
  EXPECT_EQ(to_string(Metric::kAodTime), "availability-on-demand-time");
}

class StudySweeps : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::scaled(synth::facebook_preset(), 0.02);
    util::Rng rng(42);
    dataset_ = new trace::Dataset(synth::generate_study_dataset(preset, rng));
    // Pick a well-populated cohort degree for the small dataset.
    cohort_degree_ = graph::most_populated_degree(dataset_->graph, 4, 12);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static Study::Options fast_options() {
    Study::Options o;
    o.cohort_degree = cohort_degree_;
    o.k_max = std::min<std::size_t>(cohort_degree_, 6);
    o.repetitions = 2;
    return o;
  }

  static trace::Dataset* dataset_;
  static std::size_t cohort_degree_;
};

trace::Dataset* StudySweeps::dataset_ = nullptr;
std::size_t StudySweeps::cohort_degree_ = 0;

// The study engine evaluates every replication prefix of a selection with
// evaluate_user_prefixes; it must reproduce the one-prefix-at-a-time
// reference exactly (same unite fold order, same divisions, incremental
// delay graph) — compare with EXPECT_EQ, i.e. bit-for-bit on doubles.
TEST_F(StudySweeps, EvaluateUserPrefixesMatchesPerPrefixEvaluation) {
  const auto model = onlinetime::make_model(ModelKind::kSporadic, {});
  util::Rng model_rng(99);
  const auto schedules = model->schedules(*dataset_, model_rng);

  util::Rng rng(123);
  const auto cohort_users =
      graph::users_with_degree(dataset_->graph, cohort_degree_);
  ASSERT_FALSE(cohort_users.empty());

  std::size_t checked = 0;
  for (graph::UserId u : cohort_users) {
    if (checked++ >= 4) break;
    const auto contacts = dataset_->graph.contacts(u);
    std::vector<graph::UserId> sel(contacts.begin(), contacts.end());
    std::shuffle(sel.begin(), sel.end(), rng);
    // Also exercise a truncated selection on every other user.
    if (checked % 2 == 0 && sel.size() > 2) sel.resize(sel.size() / 2);

    for (const auto connectivity :
         {Connectivity::kConRep, Connectivity::kUnconRep}) {
      const std::size_t k_max = sel.size() + 2;  // past the selection's end
      const auto rows = evaluate_user_prefixes(*dataset_, schedules, u, sel,
                                               connectivity, k_max);
      ASSERT_EQ(rows.size(), k_max + 1);
      for (std::size_t k = 0; k <= k_max; ++k) {
        const std::size_t take = std::min(k, sel.size());
        const std::span<const graph::UserId> prefix{sel.data(), take};
        const auto ref =
            oracle::evaluate_user(*dataset_, schedules, u, prefix, connectivity);
        EXPECT_EQ(rows[k].availability, ref.availability);
        EXPECT_EQ(rows[k].max_availability, ref.max_availability);
        EXPECT_EQ(rows[k].aod_time, ref.aod_time);
        EXPECT_EQ(rows[k].aod_activity, ref.aod_activity);
        EXPECT_EQ(rows[k].aod_activity_expected, ref.aod_activity_expected);
        EXPECT_EQ(rows[k].aod_activity_unexpected,
                  ref.aod_activity_unexpected);
        EXPECT_EQ(rows[k].delay_actual_h, ref.delay_actual_h);
        EXPECT_EQ(rows[k].delay_observed_h, ref.delay_observed_h);
        EXPECT_EQ(rows[k].replicas_used, ref.replicas_used);
      }
    }
  }
}

// On a random dataset the memo bounds each user's kernels by its pairs:
// with d contacts, at most d(d+1)/2 under ConRep and d(d+1) under
// UnconRep for all eleven runs of the paper's sweep together.
TEST_F(StudySweeps, DelayEdgesAtMostOnePerPairPerUser) {
  const auto model = onlinetime::make_model(ModelKind::kSporadic, {});
  util::Rng model_rng(11);
  const auto schedules = model->schedules(*dataset_, model_rng);
  const ObsOn obs_on;
  util::Rng rng(12);
  UserTable table;
  std::vector<UserMetrics> rows(11);
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    for (const std::size_t degree : {cohort_degree_, std::size_t{3}}) {
      const auto users = graph::users_with_degree(dataset_->graph, degree);
      const std::size_t pairs = degree * (degree + 1) / 2;
      const std::uint64_t bound =
          connectivity == Connectivity::kConRep ? pairs : 2 * pairs;
      for (const graph::UserId u : users) {
        placement::PlacementContext context;
        context.user = u;
        context.candidates = dataset_->graph.contacts(u);
        context.schedules = schedules;
        context.trace = &dataset_->trace;
        context.connectivity = connectivity;
        context.max_replicas = 10;
        std::vector<graph::UserId> holders;
        std::vector<std::size_t> ends;
        for (const auto kind : {PolicyKind::kMaxAv, PolicyKind::kMostActive,
                                PolicyKind::kRandom}) {
          const auto policy = placement::make_policy(kind);
          for (std::size_t r = 0; r < (policy->randomized() ? 5u : 1u); ++r) {
            const auto selected = policy->select(context, rng);
            holders.insert(holders.end(), selected.begin(), selected.end());
            ends.push_back(holders.size());
          }
        }
        const std::uint64_t before = counter("sim.delay_edges");
        table.build(*dataset_, schedules, u, holders, connectivity);
        for (std::size_t r = 0, from = 0; r < ends.size(); ++r) {
          table.evaluate(table.holder_positions().subspan(from, ends[r] - from),
                         0, 10, rows);
          from = ends[r];
        }
        table.flush_counters();
        EXPECT_LE(counter("sim.delay_edges") - before, bound) << "user " << u;
      }
    }
  }
}

TEST_F(StudySweeps, ReplicationSweepShape) {
  Study study(*dataset_, 7);
  const auto opts = fast_options();
  const auto r = study.replication_sweep(ModelKind::kSporadic, {},
                                         Connectivity::kConRep, opts);
  ASSERT_EQ(r.policies.size(), 3u);
  ASSERT_EQ(r.xs.size(), opts.k_max + 1);
  for (const auto& curve : r.policies) {
    ASSERT_EQ(curve.points.size(), r.xs.size());
    // Availability is monotone in k for every policy (prefix property).
    for (std::size_t k = 1; k < curve.points.size(); ++k)
      EXPECT_GE(curve.points[k].availability + 1e-12,
                curve.points[k - 1].availability);
    // k = 0: owner-only availability, no replicas.
    EXPECT_DOUBLE_EQ(curve.points[0].replicas_used, 0.0);
    // Bounded metrics stay in [0, 1].
    for (const auto& p : curve.points) {
      EXPECT_GE(p.availability, 0.0);
      EXPECT_LE(p.availability, 1.0);
      EXPECT_GE(p.aod_time, 0.0);
      EXPECT_LE(p.aod_time, 1.0 + 1e-12);
      EXPECT_LE(p.availability, p.max_availability + 1e-12);
    }
  }
}

TEST_F(StudySweeps, MaxAvDominatesOnAvailability) {
  Study study(*dataset_, 11);
  const auto opts = fast_options();
  const auto r = study.replication_sweep(ModelKind::kSporadic, {},
                                         Connectivity::kConRep, opts);
  const auto& maxav = r.policies[0];
  const auto& random = r.policies[2];
  ASSERT_EQ(maxav.policy, PolicyKind::kMaxAv);
  ASSERT_EQ(random.policy, PolicyKind::kRandom);
  // At every k, greedy MaxAv availability >= Random availability
  // (cohort averages; tolerance for evaluation noise).
  for (std::size_t k = 0; k < r.xs.size(); ++k)
    EXPECT_GE(maxav.points[k].availability + 0.02,
              random.points[k].availability)
        << "k=" << k;
}

TEST_F(StudySweeps, UnconRepAvailabilityAtLeastConRep) {
  Study study(*dataset_, 13);
  const auto opts = fast_options();
  const auto con = study.replication_sweep(ModelKind::kFixedLength,
                                           {.window_hours = 2.0},
                                           Connectivity::kConRep, opts);
  const auto uncon = study.replication_sweep(ModelKind::kFixedLength,
                                             {.window_hours = 2.0},
                                             Connectivity::kUnconRep, opts);
  // MaxAv curves: unconstrained placement can only do better at the end
  // of the sweep; intermediate ks may cross slightly (greedy anomalies).
  EXPECT_GE(uncon.policies[0].points.back().availability + 1e-9,
            con.policies[0].points.back().availability);
  for (std::size_t k = 0; k < con.xs.size(); ++k)
    EXPECT_GE(uncon.policies[0].points[k].availability + 0.05,
              con.policies[0].points[k].availability);
}

TEST_F(StudySweeps, SessionLengthSweepImprovesAvailability) {
  Study study(*dataset_, 17);
  const std::vector<interval::Seconds> lengths{300, 3600, 6 * 3600};
  auto opts = fast_options();
  const auto r = study.session_length_sweep(lengths, /*k=*/3,
                                            Connectivity::kConRep, opts);
  ASSERT_EQ(r.xs.size(), 3u);
  for (const auto& curve : r.policies) {
    ASSERT_EQ(curve.points.size(), 3u);
    // Longer sessions => more availability (strongly so over this range).
    EXPECT_GT(curve.points[2].availability,
              curve.points[0].availability);
  }
}

TEST_F(StudySweeps, UserDegreeSweepAvailabilityGrows) {
  Study study(*dataset_, 19);
  auto opts = fast_options();
  const auto r = study.user_degree_sweep(6, ModelKind::kSporadic, {},
                                         Connectivity::kConRep, opts);
  ASSERT_EQ(r.xs.size(), 6u);
  // With k = degree all policies exhaust the candidate pool, so their
  // availability should be similar at each degree (paper Fig 9a).
  for (std::size_t i = 0; i < r.xs.size(); ++i) {
    const double a = r.policies[0].points[i].availability;
    const double b = r.policies[2].points[i].availability;
    if (r.policies[0].points[i].cohort_size > 0) {
      EXPECT_NEAR(a, b, 0.12) << "degree=" << r.xs[i];
    }
  }
  // Availability at degree 6 should beat degree 1 (cohort averages).
  const auto& first = r.policies[0].points.front();
  const auto& last = r.policies[0].points.back();
  if (first.cohort_size > 5 && last.cohort_size > 5) {
    EXPECT_GT(last.availability, first.availability);
  }
}

TEST_F(StudySweeps, SeriesExtractionMatchesPoints) {
  Study study(*dataset_, 23);
  auto opts = fast_options();
  const auto r = study.replication_sweep(ModelKind::kRandomLength, {},
                                         Connectivity::kConRep, opts);
  const auto series = r.series(Metric::kAvailability);
  ASSERT_EQ(series.size(), r.policies.size());
  for (std::size_t p = 0; p < series.size(); ++p) {
    EXPECT_EQ(series[p].name, r.policies[p].policy_name);
    EXPECT_EQ(series[p].x, r.xs);
    for (std::size_t k = 0; k < r.xs.size(); ++k)
      EXPECT_DOUBLE_EQ(series[p].y[k], r.policies[p].points[k].availability);
  }
}

TEST_F(StudySweeps, DeterministicForSameSeed) {
  Study a(*dataset_, 99), b(*dataset_, 99);
  auto opts = fast_options();
  opts.repetitions = 2;
  const auto ra = a.replication_sweep(ModelKind::kSporadic, {},
                                      Connectivity::kConRep, opts);
  const auto rb = b.replication_sweep(ModelKind::kSporadic, {},
                                      Connectivity::kConRep, opts);
  for (std::size_t p = 0; p < ra.policies.size(); ++p)
    for (std::size_t k = 0; k < ra.xs.size(); ++k)
      EXPECT_DOUBLE_EQ(ra.policies[p].points[k].availability,
                       rb.policies[p].points[k].availability);
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.xs, b.xs);
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t p = 0; p < a.policies.size(); ++p) {
    ASSERT_EQ(a.policies[p].points.size(), b.policies[p].points.size());
    for (std::size_t k = 0; k < a.policies[p].points.size(); ++k) {
      const auto& x = a.policies[p].points[k];
      const auto& y = b.policies[p].points[k];
      // Exact (bit-level) equality, not approximate: the parallel engine
      // merges per-user rows in cohort index order precisely so that the
      // thread count cannot perturb floating-point accumulation.
      EXPECT_EQ(x.availability, y.availability) << "p=" << p << " k=" << k;
      EXPECT_EQ(x.max_availability, y.max_availability);
      EXPECT_EQ(x.aod_time, y.aod_time);
      EXPECT_EQ(x.aod_activity, y.aod_activity);
      EXPECT_EQ(x.aod_activity_expected, y.aod_activity_expected);
      EXPECT_EQ(x.aod_activity_unexpected, y.aod_activity_unexpected);
      EXPECT_EQ(x.delay_actual_h, y.delay_actual_h);
      EXPECT_EQ(x.delay_observed_h, y.delay_observed_h);
      EXPECT_EQ(x.replicas_used, y.replicas_used);
      EXPECT_EQ(x.cohort_size, y.cohort_size);
    }
  }
}

TEST_F(StudySweeps, ReplicationSweepBitIdenticalAcrossThreadCounts) {
  Study study(*dataset_, 101);
  auto opts = fast_options();
  opts.threads = 1;
  const auto serial = study.replication_sweep(ModelKind::kSporadic, {},
                                              Connectivity::kConRep, opts);
  for (std::size_t threads : {4u, 8u}) {
    opts.threads = threads;
    const auto parallel = study.replication_sweep(
        ModelKind::kSporadic, {}, Connectivity::kConRep, opts);
    expect_bit_identical(serial, parallel);
  }
}

// The delay work counters sum per-user counts, so they read the same
// however the cohort is sharded.
TEST_F(StudySweeps, DelayRelaxationsSameAtOneAndFourThreads) {
  Study study(*dataset_, 113);
  auto opts = fast_options();
  const ObsOn obs_on;
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    SCOPED_TRACE(placement::to_string(connectivity));
    std::vector<std::uint64_t> relaxations, pushes;
    for (const std::size_t threads : {1u, 4u}) {
      opts.threads = threads;
      const std::uint64_t r = counter("sim.delay_relaxations");
      const std::uint64_t p = counter("sim.delay_pushes");
      (void)study.replication_sweep(ModelKind::kSporadic, {}, connectivity,
                                    opts);
      relaxations.push_back(counter("sim.delay_relaxations") - r);
      pushes.push_back(counter("sim.delay_pushes") - p);
    }
    EXPECT_GT(relaxations[0], 0u);
    EXPECT_EQ(relaxations[0], relaxations[1]);
    EXPECT_EQ(pushes[0], pushes[1]);
  }
}

TEST_F(StudySweeps, RandomizedSweepBitIdenticalAcrossThreadCounts) {
  // Random placement draws from per-user RNG streams, so even the
  // randomized policies must not depend on the thread count.
  Study study(*dataset_, 103);
  auto opts = fast_options();
  opts.policies = {PolicyKind::kRandom};
  opts.threads = 1;
  const auto serial = study.replication_sweep(ModelKind::kRandomLength, {},
                                              Connectivity::kConRep, opts);
  opts.threads = 8;
  const auto parallel = study.replication_sweep(ModelKind::kRandomLength, {},
                                                Connectivity::kConRep, opts);
  expect_bit_identical(serial, parallel);
}

TEST_F(StudySweeps, SessionAndDegreeSweepsBitIdenticalAcrossThreadCounts) {
  Study study(*dataset_, 107);
  auto opts = fast_options();
  const std::vector<interval::Seconds> lengths{600, 3600};

  opts.threads = 1;
  const auto session_serial =
      study.session_length_sweep(lengths, 3, Connectivity::kConRep, opts);
  const auto degree_serial = study.user_degree_sweep(
      5, ModelKind::kSporadic, {}, Connectivity::kConRep, opts);

  opts.threads = 4;
  const auto session_parallel =
      study.session_length_sweep(lengths, 3, Connectivity::kConRep, opts);
  const auto degree_parallel = study.user_degree_sweep(
      5, ModelKind::kSporadic, {}, Connectivity::kConRep, opts);

  expect_bit_identical(session_serial, session_parallel);
  expect_bit_identical(degree_serial, degree_parallel);
}

TEST_F(StudySweeps, CohortSamplesIdenticalAcrossThreadCounts) {
  Study study(*dataset_, 109);
  auto opts = fast_options();
  opts.threads = 1;
  const auto serial = study.cohort_samples(
      ModelKind::kSporadic, {}, Connectivity::kConRep, PolicyKind::kRandom,
      3, opts);
  opts.threads = 8;
  const auto parallel = study.cohort_samples(
      ModelKind::kSporadic, {}, Connectivity::kConRep, PolicyKind::kRandom,
      3, opts);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].availability, parallel[i].availability) << i;
    EXPECT_EQ(serial[i].replicas_used, parallel[i].replicas_used) << i;
    EXPECT_EQ(serial[i].delay_actual_h, parallel[i].delay_actual_h) << i;
  }
}

TEST(SweepStream, NoCollisionsWhereAdditiveSchemeAliased) {
  // Regression: the old additive derivation `xi*7919 + p*131 + r` made
  // (xi=0, p=1, r=0) and (xi=0, p=0, r=131) share a stream, correlating
  // "independent" repetitions. The nested mix64 scheme must keep every
  // cell of a realistic sweep grid distinct.
  constexpr std::uint64_t kSeed = 42, kTag = 0x3e55;
  EXPECT_NE(sweep_stream(kSeed, kTag, 0, 1, 0),
            sweep_stream(kSeed, kTag, 0, 0, 131));
  EXPECT_NE(sweep_stream(kSeed, kTag, 1, 0, 0),
            sweep_stream(kSeed, kTag, 0, 0, 7919));

  std::set<std::uint64_t> seen;
  for (std::uint64_t x = 0; x < 40; ++x)
    for (std::uint64_t p = 0; p < 6; ++p)
      for (std::uint64_t r = 0; r < 10; ++r)
        seen.insert(sweep_stream(kSeed, kTag, x, p, r));
  EXPECT_EQ(seen.size(), 40u * 6u * 10u);

  // Distinct sweep tags and seeds derive distinct streams too.
  EXPECT_NE(sweep_stream(kSeed, 0x3e55, 2, 1, 0),
            sweep_stream(kSeed, 0xde60, 2, 1, 0));
  EXPECT_NE(sweep_stream(1, kTag, 2, 1, 0), sweep_stream(2, kTag, 2, 1, 0));
}

TEST_F(StudySweeps, CohortDegreeRespected) {
  Study study(*dataset_, 29);
  const auto cohort = study.cohort(cohort_degree_);
  EXPECT_FALSE(cohort.empty());
  for (graph::UserId u : cohort)
    EXPECT_EQ(dataset_->graph.degree(u), cohort_degree_);
}

net::FaultPlan strong_fault_plan() {
  net::FaultPlan plan;
  plan.seed = 0xbad5eed;
  plan.session_no_show = 0.4;
  plan.session_truncate = 0.6;
  plan.truncate_max_fraction = 0.8;
  return plan;
}

// Zero intensity feeds the evaluation the ideal schedules, so the sweep's
// first column must reproduce the replication_sweep point at k bit for
// bit for a deterministic policy (same model stream seeds, MaxAv draws
// nothing from its placement stream).
TEST_F(StudySweeps, ResilienceSweepZeroIntensityMatchesReplicationSweep) {
  Study study(*dataset_, 211);
  auto opts = fast_options();
  opts.policies = {PolicyKind::kMaxAv};
  const std::size_t k = 3;
  opts.k_max = k;
  const auto baseline = study.replication_sweep(
      ModelKind::kSporadic, {}, Connectivity::kConRep, opts);

  const std::vector<double> intensities{0.0, 1.0};
  const auto r = study.resilience_sweep(ModelKind::kSporadic, {},
                                        Connectivity::kConRep,
                                        strong_fault_plan(), intensities, k,
                                        opts);
  ASSERT_EQ(r.xs, intensities);
  ASSERT_EQ(r.policies.size(), 1u);
  const auto& at_zero = r.policies[0].points[0];
  const auto& ref = baseline.policies[0].points[k];
  EXPECT_EQ(at_zero.availability, ref.availability);
  EXPECT_EQ(at_zero.aod_time, ref.aod_time);
  EXPECT_EQ(at_zero.aod_activity, ref.aod_activity);
  EXPECT_EQ(at_zero.delay_actual_h, ref.delay_actual_h);
  EXPECT_EQ(at_zero.delay_observed_h, ref.delay_observed_h);
  EXPECT_EQ(at_zero.replicas_used, ref.replicas_used);
}

// Nested fault realizations: every fault present at f1 is present at
// f2 >= f1, so cohort availability degrades monotonically along the
// intensity axis — exactly, not merely in expectation.
TEST_F(StudySweeps, ResilienceSweepAvailabilityMonotone) {
  Study study(*dataset_, 223);
  auto opts = fast_options();
  const std::vector<double> intensities{0.0, 0.25, 0.5, 0.75, 1.0};
  const auto r = study.resilience_sweep(ModelKind::kSporadic, {},
                                        Connectivity::kConRep,
                                        strong_fault_plan(), intensities,
                                        /*k=*/3, opts);
  for (const auto& curve : r.policies) {
    ASSERT_EQ(curve.points.size(), intensities.size());
    for (std::size_t i = 1; i < curve.points.size(); ++i)
      EXPECT_LE(curve.points[i].availability,
                curve.points[i - 1].availability)
          << curve.policy_name << " at intensity " << intensities[i];
    // A plan this aggressive must actually bite.
    EXPECT_LT(curve.points.back().availability,
              curve.points.front().availability)
        << curve.policy_name;
  }
}

TEST_F(StudySweeps, ResilienceSweepBitIdenticalAcrossThreadsAndObs) {
  Study study(*dataset_, 227);
  auto opts = fast_options();
  const std::vector<double> intensities{0.0, 0.5, 1.0};
  const auto run = [&] {
    return study.resilience_sweep(ModelKind::kRandomLength, {},
                                  Connectivity::kConRep,
                                  strong_fault_plan(), intensities,
                                  /*k=*/3, opts);
  };
  opts.threads = 1;
  const auto serial = run();
  opts.threads = 8;
  const auto parallel = run();
  expect_bit_identical(serial, parallel);

  // Observability must never perturb results: counters are side channels.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(!was_enabled);
  const auto flipped = run();
  obs::set_enabled(was_enabled);
  expect_bit_identical(serial, flipped);
}

TEST_F(StudySweeps, ResilienceSweepValidatesInputs) {
  Study study(*dataset_, 229);
  auto opts = fast_options();
  const std::vector<double> none;
  EXPECT_THROW(study.resilience_sweep(ModelKind::kSporadic, {},
                                      Connectivity::kConRep,
                                      strong_fault_plan(), none, 3, opts),
               ConfigError);
  const std::vector<double> out_of_range{0.0, 1.5};
  EXPECT_THROW(study.resilience_sweep(ModelKind::kSporadic, {},
                                      Connectivity::kConRep,
                                      strong_fault_plan(), out_of_range, 3,
                                      opts),
               ConfigError);
  net::FaultPlan bad = strong_fault_plan();
  bad.session_no_show = 1.5;
  const std::vector<double> ok{0.0, 1.0};
  EXPECT_THROW(study.resilience_sweep(ModelKind::kSporadic, {},
                                      Connectivity::kConRep, bad, ok, 3,
                                      opts),
               ConfigError);
}

TEST(StudyErrors, EmptyCohortThrows) {
  auto d = tiny_dataset();
  Study study(d, 1);
  Study::Options opts;
  opts.cohort_degree = 99;
  EXPECT_THROW(study.replication_sweep(ModelKind::kSporadic, {},
                                       Connectivity::kConRep, opts),
               ConfigError);
}

}  // namespace
}  // namespace dosn::sim
