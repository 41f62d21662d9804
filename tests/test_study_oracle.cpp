// Differential tests of the study engine against a serial oracle.
//
// Every Study sweep runs through one sharded core (fixed shards of
// consecutive cohort indices, per-shard scratch reuse, a serial
// cohort-order reduction). Its contract is bit-identity: for every shard
// size and thread count, each entry point must equal the paper's loop
// written out longhand — one user at a time, one prefix at a time through
// evaluate_user, CohortAccum in cohort order, average_runs over
// repetitions — not approximately, but double for double. The oracle below
// shares no code with the core beyond the per-user kernels, the stream
// derivations and the reducers, so agreement pins the shard planning, the
// per-user steps and the reduction order of all five entry points.
//
// Likewise the chunked million-user input builder
// (synth::build_scale_study_input) must reproduce the materialized
// generate_raw + SporadicModel pipeline exactly (schedules equal, trace
// equal restricted to cohort receivers, sweeps equal). These tests pin
// both contracts at small N where the materialized path is cheap.
#include <gtest/gtest.h>

#include <algorithm>

#include "eval_oracle.hpp"
#include "graph/degree_stats.hpp"
#include "net/fault.hpp"
#include "onlinetime/sporadic.hpp"
#include "sim/cohort_accum.hpp"
#include "sim/study.hpp"
#include "synth/generators.hpp"
#include "synth/presets.hpp"
#include "synth/scale.hpp"
#include "util/error.hpp"

namespace dosn {
namespace {

using onlinetime::ModelKind;
using placement::Connectivity;
using placement::PolicyKind;
using sim::CohortMetrics;
using sim::DaySchedule;
using sim::Study;
using sim::SweepResult;
using sim::UserMetrics;

constexpr std::uint64_t kSeed = 20120618;

void expect_metrics_identical(const CohortMetrics& x, const CohortMetrics& y) {
  // Field-wise EXPECT_EQ (not the aggregate operator==) so a mismatch
  // reports which metric and which bit pattern diverged.
  EXPECT_EQ(x.availability, y.availability);
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

void expect_sweeps_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.dataset_name, b.dataset_name);
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.connectivity_name, b.connectivity_name);
  EXPECT_EQ(a.x_label, b.x_label);
  EXPECT_EQ(a.xs, b.xs);
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t p = 0; p < a.policies.size(); ++p) {
    EXPECT_EQ(a.policies[p].policy_name, b.policies[p].policy_name);
    EXPECT_EQ(a.policies[p].policy, b.policies[p].policy);
    ASSERT_EQ(a.policies[p].points.size(), b.policies[p].points.size());
    for (std::size_t x = 0; x < a.policies[p].points.size(); ++x) {
      SCOPED_TRACE("p=" + std::to_string(p) + " x=" + std::to_string(x));
      expect_metrics_identical(a.policies[p].points[x],
                               b.policies[p].points[x]);
    }
  }
  // Checksum consistency rides along: identical sweeps must digest
  // identically (the scale bench relies on the checksum as the comparator).
  EXPECT_EQ(sim::sweep_checksum(a), sim::sweep_checksum(b));
}

trace::Dataset make_dataset(std::size_t users) {
  synth::ScaleOptions opts;
  opts.users = users;
  util::Rng rng(kSeed);
  return synth::generate_raw(synth::scale_preset(opts), rng);
}

sim::StudyOptions base_options() {
  sim::StudyOptions o;
  o.cohort_degree = 0;  // set per dataset below
  o.k_max = 5;
  o.repetitions = 2;
  return o;
}

// A population whose cohort is hubs: users 0..kHubs-1 befriend exactly
// kHubDegree distinct non-hubs each, the non-hubs form a sparse random
// background (no non-hub comes near kHubDegree), and the activities come
// from the synthetic generator over that graph.
constexpr std::size_t kHubs = 10;
constexpr std::size_t kHubDegree = 70;

trace::Dataset hub_dataset() {
  constexpr std::size_t kUsers = 400;
  util::Rng rng(kSeed);
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, kUsers);
  std::vector<graph::UserId> others;
  for (std::size_t u = kHubs; u < kUsers; ++u)
    others.push_back(static_cast<graph::UserId>(u));
  for (std::size_t h = 0; h < kHubs; ++h) {
    rng.shuffle(others);
    for (std::size_t i = 0; i < kHubDegree; ++i)
      b.add_edge(static_cast<graph::UserId>(h), others[i]);
  }
  for (const graph::UserId u : others)
    for (int e = 0; e < 2; ++e) {
      const graph::UserId v = others[rng.below(others.size())];
      if (v != u) b.add_edge(u, v);
    }
  trace::Dataset dataset;
  dataset.name = "hubs";
  dataset.graph = std::move(b).build();
  dataset.trace =
      synth::generate_activities(dataset.graph, synth::ActivityGenConfig{}, rng);
  return dataset;
}

/// base_options() fitted to the dataset's most populated degree.
sim::StudyOptions options_for(const trace::Dataset& dataset) {
  auto options = base_options();
  options.cohort_degree = graph::most_populated_degree(dataset.graph, 5, 15);
  options.k_max = std::min(options.k_max, options.cohort_degree);
  return options;
}

// ------------------------------------------------------------------ oracle

/// The serial reference loop of one sweep cell. Every cohort user, in
/// order, is placed against `placement` (at most `max_replicas` replicas,
/// drawing from mix64(stream_seed, u)) and then evaluated on `evaluation`
/// with evaluate_user at each prefix k = first_k..max_replicas, one prefix
/// at a time. Returns the cohort means per k, accumulated in cohort order.
std::vector<CohortMetrics> oracle_cell(
    const trace::Dataset& dataset, std::span<const DaySchedule> placement,
    std::span<const DaySchedule> evaluation,
    std::span<const graph::UserId> cohort,
    const placement::ReplicaPolicy& policy, Connectivity connectivity,
    std::size_t first_k, std::size_t max_replicas, std::uint64_t stream_seed,
    std::vector<UserMetrics>* samples = nullptr) {
  std::vector<sim::detail::CohortAccum> accum(max_replicas - first_k + 1);
  for (const graph::UserId u : cohort) {
    placement::PlacementContext context;
    context.user = u;
    context.candidates = dataset.graph.contacts(u);
    context.schedules = placement;
    context.trace = &dataset.trace;
    context.connectivity = connectivity;
    context.max_replicas = max_replicas;
    util::Rng rng(util::mix64(stream_seed, u));
    const auto selected = policy.select(context, rng);
    for (std::size_t k = first_k; k <= max_replicas; ++k) {
      const std::span<const graph::UserId> prefix{
          selected.data(), std::min(k, selected.size())};
      const auto row = sim::oracle::evaluate_user(dataset, evaluation, u,
                                                  prefix, connectivity);
      accum[k - first_k].add(row);
      if (samples != nullptr) samples->push_back(row);
    }
  }
  std::vector<CohortMetrics> means;
  for (const auto& a : accum) means.push_back(a.mean());
  return means;
}

/// Point-wise average_runs over the repetitions of one curve.
std::vector<CohortMetrics> oracle_average(
    const std::vector<std::vector<CohortMetrics>>& runs) {
  std::vector<CohortMetrics> out;
  for (std::size_t x = 0; x < runs.front().size(); ++x) {
    std::vector<CohortMetrics> at_x;
    for (const auto& run : runs) at_x.push_back(run[x]);
    out.push_back(sim::detail::average_runs(at_x));
  }
  return out;
}

std::vector<graph::UserId> oracle_cohort(const trace::Dataset& dataset,
                                         std::size_t degree,
                                         std::size_t limit) {
  auto users = graph::users_with_degree(dataset.graph, degree);
  if (limit > 0 && users.size() > limit) users.resize(limit);
  return users;
}

SweepResult oracle_header(const trace::Dataset& dataset,
                          std::string model_name, Connectivity connectivity,
                          std::string x_label,
                          const sim::StudyOptions& options) {
  SweepResult result;
  result.dataset_name = dataset.name;
  result.model_name = std::move(model_name);
  result.connectivity_name = placement::to_string(connectivity);
  result.x_label = std::move(x_label);
  for (const auto kind : options.policies) {
    sim::PolicyCurve curve;
    curve.policy_name = placement::make_policy(kind, options.policy_params)->name();
    curve.policy = kind;
    result.policies.push_back(std::move(curve));
  }
  return result;
}

/// Schedule realizations on the engine's schedule streams: `stream(r)`
/// seeds repetition r, one realization unless the model is randomized.
template <typename Stream>
std::vector<std::vector<DaySchedule>> oracle_schedules(
    const trace::Dataset& dataset, const onlinetime::OnlineTimeModel& model,
    std::size_t repetitions, Stream stream) {
  std::vector<std::vector<DaySchedule>> out;
  for (std::size_t r = 0; r < (model.randomized() ? repetitions : 1); ++r) {
    util::Rng rng(stream(r));
    out.push_back(model.schedules(dataset, rng));
  }
  return out;
}

SweepResult oracle_replication_sweep(const trace::Dataset& dataset,
                                     ModelKind model_kind,
                                     Connectivity connectivity,
                                     const sim::StudyOptions& options) {
  const auto model = onlinetime::make_model(model_kind, {});
  const auto schedules = oracle_schedules(
      dataset, *model, options.repetitions,
      [](std::size_t r) { return sim::detail::schedule_stream(kSeed, r); });
  const auto cohort =
      oracle_cohort(dataset, options.cohort_degree, options.cohort_limit);
  auto result = oracle_header(dataset, model->name(), connectivity,
                              "replication degree", options);
  for (std::size_t k = 0; k <= options.k_max; ++k)
    result.xs.push_back(static_cast<double>(k));
  for (std::size_t p = 0; p < options.policies.size(); ++p) {
    const auto policy =
        placement::make_policy(options.policies[p], options.policy_params);
    const bool randomized = model->randomized() || policy->randomized();
    std::vector<std::vector<CohortMetrics>> runs;
    for (std::size_t r = 0; r < (randomized ? options.repetitions : 1); ++r) {
      const auto& sched = schedules[model->randomized() ? r : 0];
      runs.push_back(oracle_cell(
          dataset, sched, sched, cohort, *policy, connectivity, 0,
          options.k_max,
          sim::sweep_stream(kSeed, sim::detail::kReplicationTag, 0, p, r)));
    }
    result.policies[p].points = oracle_average(runs);
  }
  return result;
}

SweepResult oracle_session_length_sweep(
    const trace::Dataset& dataset,
    std::span<const interval::Seconds> lengths, std::size_t k,
    Connectivity connectivity, const sim::StudyOptions& options) {
  const auto cohort =
      oracle_cohort(dataset, options.cohort_degree, options.cohort_limit);
  auto result = oracle_header(dataset, "Sporadic", connectivity,
                              "session length (sec)", options);
  for (std::size_t xi = 0; xi < lengths.size(); ++xi) {
    result.xs.push_back(static_cast<double>(lengths[xi]));
    util::Rng model_rng(util::mix64(kSeed, 0x3e550000 + xi));
    const auto sched =
        onlinetime::SporadicModel(lengths[xi]).schedules(dataset, model_rng);
    for (std::size_t p = 0; p < options.policies.size(); ++p) {
      const auto policy =
          placement::make_policy(options.policies[p], options.policy_params);
      std::vector<std::vector<CohortMetrics>> runs;
      for (std::size_t r = 0;
           r < (policy->randomized() ? options.repetitions : 1); ++r)
        runs.push_back(oracle_cell(
            dataset, sched, sched, cohort, *policy, connectivity, k, k,
            sim::sweep_stream(kSeed, sim::detail::kSessionTag, xi, p, r)));
      result.policies[p].points.push_back(oracle_average(runs).front());
    }
  }
  return result;
}

SweepResult oracle_user_degree_sweep(const trace::Dataset& dataset,
                                     std::size_t max_degree,
                                     ModelKind model_kind,
                                     Connectivity connectivity,
                                     const sim::StudyOptions& options) {
  const auto model = onlinetime::make_model(model_kind, {});
  const auto schedules = oracle_schedules(
      dataset, *model, options.repetitions,
      [](std::size_t r) { return util::mix64(kSeed, 0xde60000 + r); });
  auto result = oracle_header(dataset, model->name(), connectivity,
                              "user degree", options);
  for (std::size_t d = 1; d <= max_degree; ++d) {
    result.xs.push_back(static_cast<double>(d));
    const auto cohort = oracle_cohort(dataset, d, options.cohort_limit);
    for (std::size_t p = 0; p < options.policies.size(); ++p) {
      if (cohort.empty()) {
        result.policies[p].points.emplace_back();
        continue;
      }
      const auto policy =
          placement::make_policy(options.policies[p], options.policy_params);
      const bool randomized = model->randomized() || policy->randomized();
      std::vector<std::vector<CohortMetrics>> runs;
      for (std::size_t r = 0; r < (randomized ? options.repetitions : 1);
           ++r) {
        const auto& sched = schedules[model->randomized() ? r : 0];
        runs.push_back(oracle_cell(
            dataset, sched, sched, cohort, *policy, connectivity, d, d,
            sim::sweep_stream(kSeed, sim::detail::kDegreeTag, d, p, r)));
      }
      result.policies[p].points.push_back(oracle_average(runs).front());
    }
  }
  return result;
}

SweepResult oracle_resilience_sweep(const trace::Dataset& dataset,
                                    ModelKind model_kind,
                                    Connectivity connectivity,
                                    const net::FaultPlan& base_plan,
                                    std::span<const double> intensities,
                                    std::size_t k,
                                    const sim::StudyOptions& options) {
  const auto model = onlinetime::make_model(model_kind, {});
  const auto ideal = oracle_schedules(
      dataset, *model, options.repetitions,
      [](std::size_t r) { return sim::detail::schedule_stream(kSeed, r); });
  const auto cohort =
      oracle_cohort(dataset, options.cohort_degree, options.cohort_limit);
  auto result = oracle_header(dataset, model->name(), connectivity,
                              "fault intensity", options);
  result.xs.assign(intensities.begin(), intensities.end());
  for (const double f : intensities) {
    for (std::size_t p = 0; p < options.policies.size(); ++p) {
      const auto policy =
          placement::make_policy(options.policies[p], options.policy_params);
      const bool randomized = model->randomized() || policy->randomized();
      std::vector<std::vector<CohortMetrics>> runs;
      for (std::size_t r = 0; r < (randomized ? options.repetitions : 1);
           ++r) {
        const auto& sched = ideal[model->randomized() ? r : 0];
        net::FaultPlan realization = base_plan;
        realization.seed = util::mix64(kSeed, base_plan.seed, r);
        net::FaultInjector injector(net::scaled(realization, f));
        std::vector<DaySchedule> degraded;
        for (std::size_t u = 0; u < sched.size(); ++u)
          degraded.push_back(injector.degrade_day(u, sched[u]));
        runs.push_back(oracle_cell(
            dataset, sched, degraded, cohort, *policy, connectivity, k, k,
            sim::sweep_stream(kSeed, sim::detail::kFaultTag, 0, p, r)));
      }
      result.policies[p].points.push_back(oracle_average(runs).front());
    }
  }
  return result;
}

std::vector<UserMetrics> oracle_cohort_samples(
    const trace::Dataset& dataset, ModelKind model_kind,
    Connectivity connectivity, PolicyKind policy_kind, std::size_t k,
    const sim::StudyOptions& options) {
  const auto model = onlinetime::make_model(model_kind, {});
  util::Rng model_rng(util::mix64(kSeed, 0xd157));
  const auto sched = model->schedules(dataset, model_rng);
  const auto policy = placement::make_policy(policy_kind,
                                             options.policy_params);
  std::vector<UserMetrics> samples;
  (void)oracle_cell(
      dataset, sched, sched,
      oracle_cohort(dataset, options.cohort_degree, options.cohort_limit),
      *policy, connectivity, k, k,
      sim::sweep_stream(kSeed, sim::detail::kSamplesTag, 0,
                        static_cast<std::uint64_t>(policy_kind), 0),
      &samples);
  return samples;
}

/// Runs `sweep(options)` at every shard size × thread count of the
/// differential matrix and hands each result to `check`.
template <typename Sweep, typename Check>
void for_each_configuration(const sim::StudyOptions& options, Sweep sweep,
                            Check check) {
  for (const std::size_t shard_size : {1, 7, 64}) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE("shard_size=" + std::to_string(shard_size) +
                   " threads=" + std::to_string(threads));
      auto o = options;
      o.shard_size = shard_size;
      o.threads = threads;
      check(sweep(o));
    }
  }
}

// ------------------------------------------------------------------- tests

class ReplicationOracle : public ::testing::TestWithParam<std::size_t> {};

// replication_sweep == the serial oracle for every shard size and thread
// count, across all policies, at N = 1k and 10k; the precomputed-schedules
// overload and UnconRep ride along at one non-trivial configuration.
TEST_P(ReplicationOracle, MatchesAcrossShardSizesAndThreadCounts) {
  const auto dataset = make_dataset(GetParam());
  const auto options = options_for(dataset);
  const Study study(dataset, kSeed);
  const auto oracle = oracle_replication_sweep(dataset, ModelKind::kSporadic,
                                               Connectivity::kConRep, options);
  for_each_configuration(
      options,
      [&](const sim::StudyOptions& o) {
        return study.replication_sweep(ModelKind::kSporadic, {},
                                       Connectivity::kConRep, o);
      },
      [&](const SweepResult& sweep) {
        expect_sweeps_identical(oracle, sweep);
      });

  auto spot = options;
  spot.shard_size = 7;
  spot.threads = 4;
  const onlinetime::SporadicModel sporadic;
  util::Rng sched_rng(sim::detail::schedule_stream(kSeed, 0));
  const auto schedules = sporadic.schedules(dataset, sched_rng);
  expect_sweeps_identical(
      oracle, study.replication_sweep(schedules, sporadic.name(),
                                      Connectivity::kConRep, spot));
  expect_sweeps_identical(
      oracle_replication_sweep(dataset, ModelKind::kSporadic,
                               Connectivity::kUnconRep, options),
      study.replication_sweep(ModelKind::kSporadic, {},
                              Connectivity::kUnconRep, spot));
}

INSTANTIATE_TEST_SUITE_P(Populations, ReplicationOracle,
                         ::testing::Values(1000, 10000));

// A randomized model (one schedule realization per repetition) and a
// cohort cap: the engine evaluates exactly the first cohort_limit users.
TEST(StudyOracle, RandomizedModelWithCohortLimit) {
  const auto dataset = make_dataset(1000);
  auto options = options_for(dataset);
  options.cohort_limit = 9;
  const Study study(dataset, kSeed);
  const auto oracle = oracle_replication_sweep(
      dataset, ModelKind::kRandomLength, Connectivity::kConRep, options);
  EXPECT_EQ(oracle.policies.front().points.front().cohort_size, 9u);
  for_each_configuration(
      options,
      [&](const sim::StudyOptions& o) {
        return study.replication_sweep(ModelKind::kRandomLength, {},
                                       Connectivity::kConRep, o);
      },
      [&](const SweepResult& sweep) {
        expect_sweeps_identical(oracle, sweep);
      });
}

TEST(StudyOracle, SessionLengthSweep) {
  const auto dataset = make_dataset(1000);
  const auto options = options_for(dataset);
  const std::vector<interval::Seconds> lengths{600, 3600, 7200};
  const std::size_t k = 3;
  const Study study(dataset, kSeed);
  const auto oracle = oracle_session_length_sweep(
      dataset, lengths, k, Connectivity::kConRep, options);
  for_each_configuration(
      options,
      [&](const sim::StudyOptions& o) {
        return study.session_length_sweep(lengths, k, Connectivity::kConRep,
                                          o);
      },
      [&](const SweepResult& sweep) {
        expect_sweeps_identical(oracle, sweep);
      });
}

TEST(StudyOracle, UserDegreeSweep) {
  const auto dataset = make_dataset(1000);
  const auto options = options_for(dataset);
  const std::size_t max_degree = 6;
  const Study study(dataset, kSeed);
  const auto oracle = oracle_user_degree_sweep(
      dataset, max_degree, ModelKind::kSporadic, Connectivity::kConRep,
      options);
  for_each_configuration(
      options,
      [&](const sim::StudyOptions& o) {
        return study.user_degree_sweep(max_degree, ModelKind::kSporadic, {},
                                       Connectivity::kConRep, o);
      },
      [&](const SweepResult& sweep) {
        expect_sweeps_identical(oracle, sweep);
      });
}

// Past the hub background's largest degree (and in any gap below it) a
// degree has no users, and the sweep appends a zero point there. The
// engine must keep that branch, and the populated degrees around it,
// equal to the oracle at every configuration; a randomized model gives
// each populated degree one call per repetition.
TEST(StudyOracle, UserDegreeSweepWithEmptyDegrees) {
  const auto dataset = hub_dataset();
  const auto options = base_options();
  const std::size_t max_degree = 30;
  const Study study(dataset, kSeed);
  const auto oracle = oracle_user_degree_sweep(
      dataset, max_degree, ModelKind::kRandomLength, Connectivity::kConRep,
      options);
  const auto& points = oracle.policies.front().points;
  ASSERT_EQ(points.size(), max_degree);
  EXPECT_TRUE(std::any_of(points.begin(), points.end(),
                          [](const CohortMetrics& m) {
                            return m.cohort_size == 0;
                          }));
  EXPECT_TRUE(std::any_of(points.begin(), points.end(),
                          [](const CohortMetrics& m) {
                            return m.cohort_size > 0;
                          }));
  for_each_configuration(
      options,
      [&](const sim::StudyOptions& o) {
        return study.user_degree_sweep(max_degree, ModelKind::kRandomLength,
                                       {}, Connectivity::kConRep, o);
      },
      [&](const SweepResult& sweep) {
        expect_sweeps_identical(oracle, sweep);
      });
}

TEST(StudyOracle, ResilienceSweep) {
  const auto dataset = make_dataset(1000);
  const auto options = options_for(dataset);
  net::FaultPlan plan;
  plan.seed = 0xbad5eed;
  plan.session_no_show = 0.4;
  plan.session_truncate = 0.6;
  plan.truncate_max_fraction = 0.8;
  const std::vector<double> intensities{0.0, 0.5, 1.0};
  const std::size_t k = 3;
  const Study study(dataset, kSeed);
  const auto oracle = oracle_resilience_sweep(
      dataset, ModelKind::kRandomLength, Connectivity::kConRep, plan,
      intensities, k, options);
  for_each_configuration(
      options,
      [&](const sim::StudyOptions& o) {
        return study.resilience_sweep(ModelKind::kRandomLength, {},
                                      Connectivity::kConRep, plan,
                                      intensities, k, o);
      },
      [&](const SweepResult& sweep) {
        expect_sweeps_identical(oracle, sweep);
      });
}

// Hubs through the engine: with 70 contacts every segment needs two mask
// words, and at shard sizes 1 and 7 the ten hubs span several windows, so
// the multi-word kernel and the window-by-window reduction are both pinned
// against the oracle, for both connectivities and for the resilience
// sweep's split between placement and evaluation schedules.
TEST(StudyOracle, HubCohort) {
  const auto dataset = hub_dataset();
  ASSERT_EQ(graph::users_with_degree(dataset.graph, kHubDegree).size(), kHubs);
  auto options = base_options();
  options.cohort_degree = kHubDegree;
  options.k_max = 8;
  const Study study(dataset, kSeed);
  const auto for_each_hub_configuration = [&](auto sweep, const auto& oracle) {
    for (const std::size_t shard_size : {1, 7}) {
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE("shard_size=" + std::to_string(shard_size) +
                     " threads=" + std::to_string(threads));
        auto o = options;
        o.shard_size = shard_size;
        o.threads = threads;
        expect_sweeps_identical(oracle, sweep(o));
      }
    }
  };

  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    SCOPED_TRACE(placement::to_string(connectivity));
    for_each_hub_configuration(
        [&](const sim::StudyOptions& o) {
          return study.replication_sweep(ModelKind::kSporadic, {},
                                         connectivity, o);
        },
        oracle_replication_sweep(dataset, ModelKind::kSporadic, connectivity,
                                 options));
  }

  net::FaultPlan plan;
  plan.seed = 0x4b0b;
  plan.session_no_show = 0.3;
  plan.session_truncate = 0.5;
  plan.truncate_max_fraction = 0.7;
  const std::vector<double> intensities{0.0, 1.0};
  const std::size_t k = 5;
  for_each_hub_configuration(
      [&](const sim::StudyOptions& o) {
        return study.resilience_sweep(ModelKind::kSporadic, {},
                                      Connectivity::kConRep, plan,
                                      intensities, k, o);
      },
      oracle_resilience_sweep(dataset, ModelKind::kSporadic,
                              Connectivity::kConRep, plan, intensities, k,
                              options));
}

TEST(StudyOracle, CohortSamples) {
  const auto dataset = make_dataset(1000);
  const auto options = options_for(dataset);
  const std::size_t k = 3;
  const Study study(dataset, kSeed);
  for (const auto policy : {PolicyKind::kMaxAv, PolicyKind::kRandom}) {
    const auto oracle = oracle_cohort_samples(
        dataset, ModelKind::kSporadic, Connectivity::kConRep, policy, k,
        options);
    for_each_configuration(
        options,
        [&](const sim::StudyOptions& o) {
          return study.cohort_samples(ModelKind::kSporadic, {},
                                      Connectivity::kConRep, policy, k, o);
        },
        [&](const std::vector<UserMetrics>& samples) {
          ASSERT_EQ(samples.size(), oracle.size());
          for (std::size_t i = 0; i < samples.size(); ++i) {
            SCOPED_TRACE("user index " + std::to_string(i));
            // A one-row accumulator turns each sample into CohortMetrics
            // so every field compares bit for bit.
            sim::detail::CohortAccum got, want;
            got.add(samples[i]);
            want.add(oracle[i]);
            expect_metrics_identical(got.mean(), want.mean());
          }
        });
  }
}

// The chunked scale-input builder reproduces the materialized pipeline:
// same schedules, the same trace restricted to cohort receivers, and a
// bit-identical sweep through the precomputed-schedules overload.
TEST(ScaleInput, MatchesMaterializedPipeline) {
  constexpr std::size_t kUsers = 1000;

  synth::ScaleInputConfig config;
  synth::ScaleOptions opts;
  opts.users = kUsers;
  config.preset = synth::scale_preset(opts);
  config.chunk_users = 97;  // force many chunks
  const auto input = synth::build_scale_study_input(config, kSeed);

  // Materialized reference: same generation stream, full trace.
  util::Rng gen_rng(kSeed);
  const auto full = synth::generate_raw(config.preset, gen_rng);
  ASSERT_EQ(full.num_users(), kUsers);
  ASSERT_EQ(input.dataset.num_users(), kUsers);

  // Schedules: SporadicModel over the full dataset under the study
  // engine's rep-0 schedule stream.
  util::Rng sched_rng(util::mix64(kSeed, 0x5ced0000));
  const onlinetime::SporadicModel model(config.session_length);
  const auto expected_schedules = model.schedules(full, sched_rng);
  ASSERT_EQ(input.schedules.size(), expected_schedules.size());
  for (std::size_t u = 0; u < expected_schedules.size(); ++u)
    EXPECT_EQ(input.schedules[u], expected_schedules[u]) << "user " << u;

  // Cohort: same degree, same members.
  EXPECT_EQ(input.cohort_degree,
            graph::most_populated_degree(full.graph, 5, 15));
  EXPECT_EQ(input.cohort,
            graph::users_with_degree(full.graph, input.cohort_degree));

  // Trace: everything a cohort member receives is retained, byte for byte.
  EXPECT_EQ(input.total_activities,
            static_cast<std::uint64_t>(full.trace.size()));
  EXPECT_LT(input.dataset.trace.size(), full.trace.size());
  for (const graph::UserId u : input.cohort) {
    const auto got = input.dataset.trace.received_by(u);
    const auto want = full.trace.received_by(u);
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].creator, want[i].creator);
      EXPECT_EQ(got[i].receiver, want[i].receiver);
      EXPECT_EQ(got[i].timestamp, want[i].timestamp);
    }
  }

  // End to end: the precomputed-schedules sweep over the restricted input
  // equals the Sporadic model sweep over the materialized dataset.
  auto options = base_options();
  options.cohort_degree = input.cohort_degree;
  options.k_max = std::min<std::size_t>(options.k_max, input.cohort_degree);
  Study study(full, kSeed);
  const auto baseline = study.replication_sweep(
      onlinetime::ModelKind::kSporadic,
      {.session_length = config.session_length}, Connectivity::kConRep,
      options);

  Study restricted(input.dataset, kSeed);
  auto sharded = options;
  sharded.shard_size = 64;
  sharded.threads = 4;
  expect_sweeps_identical(
      baseline, restricted.replication_sweep(input.schedules, input.model_name,
                                             Connectivity::kConRep, sharded));
}

// Two scale inputs are the same bit for bit: same schedules, same
// restricted trace, same cohort.
void expect_inputs_identical(const synth::ScaleStudyInput& built,
                             const synth::ScaleStudyInput& reference) {
  EXPECT_EQ(built.total_activities, reference.total_activities);
  EXPECT_EQ(built.cohort_degree, reference.cohort_degree);
  EXPECT_EQ(built.cohort, reference.cohort);
  ASSERT_EQ(built.schedules.size(), reference.schedules.size());
  for (std::size_t u = 0; u < reference.schedules.size(); ++u)
    ASSERT_EQ(built.schedules[u], reference.schedules[u]) << "user " << u;
  const auto got = built.dataset.trace.all();
  const auto want = reference.dataset.trace.all();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "activity " << i;
}

synth::ScaleInputConfig small_scale_config() {
  synth::ScaleOptions opts;
  opts.users = 1000;
  synth::ScaleInputConfig config;
  config.preset = synth::scale_preset(opts);
  config.chunk_users = 97;  // force many chunks
  return config;
}

// A generator precondition failure reaches the caller as the generator's
// own ConfigError, with and without a runtime, and leaves the runtime
// usable: the next build on it equals the one-worker reference.
TEST(ScaleInput, GeneratorErrorReachesCaller) {
  const auto config = small_scale_config();
  auto broken = config;
  broken.preset.activity.num_days = 0;

  EXPECT_THROW(synth::build_scale_study_input(broken, kSeed), ConfigError);
  util::PipelineRuntime runtime({.threads = 2});
  EXPECT_THROW(synth::build_scale_study_input(broken, kSeed, &runtime),
               ConfigError);

  const auto reference = synth::build_scale_study_input(config, kSeed);
  expect_inputs_identical(
      synth::build_scale_study_input(config, kSeed, &runtime), reference);
}

// The scale-input builder (fold stages on the work-stealing runtime,
// inside the generator's sink) gives the same input bit for bit on every
// runtime width as the default one-worker build — for threads {1, 2, 4} ×
// several chunk sizes, so different stage fan-outs are exercised.
TEST(ScalePipeline, InputIdenticalAcrossThreadsAndChunks) {
  const auto config = small_scale_config();
  const auto reference = synth::build_scale_study_input(config, kSeed);

  for (const std::size_t threads : {1, 2, 4}) {
    util::PipelineRuntime runtime({.threads = threads});
    for (const std::size_t chunk_users : {31, 97, 2048}) {
      auto built_config = config;
      built_config.chunk_users = chunk_users;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk_users=" + std::to_string(chunk_users));
      expect_inputs_identical(
          synth::build_scale_study_input(built_config, kSeed, &runtime),
          reference);
    }
  }
}

// The determinism matrix, pinned as a test: sweep_checksum is
// bit-identical across thread counts {1, 2, 4, 8} × shard sizes
// {1, 64, 1024} under the work-stealing runtime, with steal granularity
// forced to 1 so steal traffic is maximal. Runs under the TSan CI job
// (suite name carries "ScalePipeline").
TEST(ScalePipeline, SweepChecksumIdenticalAcrossThreadsAndShards) {
  const auto dataset = make_dataset(1000);
  const std::size_t degree =
      graph::most_populated_degree(dataset.graph, 5, 15);
  const Study study(dataset, kSeed);

  auto options = base_options();
  options.cohort_degree = degree;
  options.k_max = std::min<std::size_t>(options.k_max, degree);

  std::uint64_t reference = 0;
  bool have_reference = false;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(
        util::RuntimeOptions{.threads = threads, .steal_grain = 1});
    for (const std::size_t shard_size : {1, 64, 1024}) {
      auto o = options;
      o.shard_size = shard_size;
      o.pool = &pool;
      const auto sweep = study.replication_sweep(
          ModelKind::kSporadic, {}, Connectivity::kConRep, o);
      const std::uint64_t checksum = sim::sweep_checksum(sweep);
      if (!have_reference) {
        reference = checksum;
        have_reference = true;
      }
      EXPECT_EQ(checksum, reference)
          << "threads=" << threads << " shard_size=" << shard_size;
    }
  }
}

}  // namespace
}  // namespace dosn
