#include "sim/study.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "onlinetime/sporadic.hpp"
#include "sim/cohort_accum.hpp"

namespace dosn::sim {

using detail::average_runs;
using detail::kDegreeTag;
using detail::kFaultTag;
using detail::kReplicationTag;
using detail::kSamplesTag;
using detail::kSessionTag;

namespace {

/// Study-level volume counters; the sweep drivers also open obs spans
/// (study.<sweep>) so the profile tree shows where wall time goes.
struct StudyMetrics {
  obs::Counter& users_evaluated =
      obs::Registry::global().counter("sim.users_evaluated");
  /// One cell = one pass of the cohort loop (a policy at one sweep x for
  /// one repetition).
  obs::Counter& sweep_cells =
      obs::Registry::global().counter("sim.sweep_cells");
  obs::Counter& shards_evaluated =
      obs::Registry::global().counter("sim.shards_evaluated");
};

StudyMetrics& study_metrics() {
  static StudyMetrics m;
  return m;
}

/// Rejects options no sweep can run. Checked at every public entry point.
void validate(const StudyOptions& options) {
  DOSN_REQUIRE(options.repetitions >= 1, "study: repetitions must be >= 1");
  DOSN_REQUIRE(options.shard_size >= 1, "study: shard_size must be >= 1");
}

/// The sweep's worker set: the caller's shared pool when options.pool is
/// set, else a sweep-local pool sized by options.threads held in `local`.
util::ThreadPool& sweep_pool(const StudyOptions& options,
                             std::optional<util::ThreadPool>& local) {
  return options.pool != nullptr ? *options.pool
                                 : local.emplace(options.threads);
}

/// The configured policies, instantiated in plot order.
std::vector<std::unique_ptr<placement::ReplicaPolicy>> make_policies(
    const StudyOptions& options) {
  std::vector<std::unique_ptr<placement::ReplicaPolicy>> policies;
  policies.reserve(options.policies.size());
  for (const auto kind : options.policies)
    policies.push_back(placement::make_policy(kind, options.policy_params));
  return policies;
}

/// Repetitions per policy: every policy repeats when the schedules are
/// randomized, otherwise only the randomized policies do.
std::vector<std::size_t> policy_reps(
    std::span<const std::unique_ptr<placement::ReplicaPolicy>> policies,
    bool schedules_randomized, std::size_t repetitions) {
  std::vector<std::size_t> reps;
  reps.reserve(policies.size());
  for (const auto& policy : policies)
    reps.push_back(schedules_randomized || policy->randomized() ? repetitions
                                                                : 1);
  return reps;
}

/// One task's reusable state in Study::evaluate_cohort: the placement
/// buffers, the user table and the user's selections, all runs back to
/// back.
struct TaskScratch {
  placement::PlacementScratch placement;
  UserTable table;
  std::vector<graph::UserId> holders;
  std::vector<std::size_t> run_end;  ///< end of run r's picks in holders
};

/// A curve per configured policy, named and tagged, with no points yet.
std::vector<PolicyCurve> empty_curves(const StudyOptions& options) {
  std::vector<PolicyCurve> curves(options.policies.size());
  for (std::size_t p = 0; p < options.policies.size(); ++p) {
    curves[p].policy_name =
        placement::make_policy(options.policies[p], options.policy_params)
            ->name();
    curves[p].policy = options.policies[p];
  }
  return curves;
}

}  // namespace

std::string to_string(Metric metric) {
  switch (metric) {
    case Metric::kAvailability: return "availability";
    case Metric::kAodTime: return "availability-on-demand-time";
    case Metric::kAodActivity: return "availability-on-demand-activity";
    case Metric::kAodActivityExpected: return "aod-activity-expected";
    case Metric::kAodActivityUnexpected: return "aod-activity-unexpected";
    case Metric::kDelayActualH: return "delay (hours)";
    case Metric::kDelayObservedH: return "observed delay (hours)";
    case Metric::kReplicasUsed: return "replicas used";
  }
  return "?";
}

double metric_value(const CohortMetrics& m, Metric metric) {
  switch (metric) {
    case Metric::kAvailability: return m.availability;
    case Metric::kAodTime: return m.aod_time;
    case Metric::kAodActivity: return m.aod_activity;
    case Metric::kAodActivityExpected: return m.aod_activity_expected;
    case Metric::kAodActivityUnexpected: return m.aod_activity_unexpected;
    case Metric::kDelayActualH: return m.delay_actual_h;
    case Metric::kDelayObservedH: return m.delay_observed_h;
    case Metric::kReplicasUsed: return m.replicas_used;
  }
  return 0.0;
}

std::vector<util::Series> SweepResult::series(Metric metric) const {
  std::vector<util::Series> out;
  for (const auto& curve : policies) {
    util::Series s;
    s.name = curve.policy_name;
    s.x = xs;
    for (const auto& point : curve.points)
      s.y.push_back(metric_value(point, metric));
    out.push_back(std::move(s));
  }
  return out;
}

Study::Study(const trace::Dataset& dataset, std::uint64_t seed)
    : dataset_(dataset), seed_(seed) {}

std::vector<graph::UserId> Study::cohort(std::size_t degree) const {
  return graph::users_with_degree(dataset_.graph, degree);
}

std::vector<graph::UserId> Study::sweep_cohort(std::size_t degree,
                                               const Options& options) const {
  auto users = cohort(degree);
  if (options.cohort_limit > 0 && users.size() > options.cohort_limit)
    users.resize(options.cohort_limit);
  return users;
}

template <typename Stream, typename Evaluate>
std::vector<std::vector<CohortMetrics>> Study::cell_points(
    std::span<const std::unique_ptr<placement::ReplicaPolicy>> policies,
    std::span<const std::size_t> reps, bool per_rep_schedules,
    Stream&& stream, Evaluate&& evaluate) const {
  if (policies.empty()) return {};
  // means[p][r]: the cohort means of run (p, r), by sweep point.
  std::vector<std::vector<std::vector<CohortMetrics>>> means(policies.size());
  std::vector<CohortRun> runs;
  std::vector<std::size_t> run_policy;
  const auto evaluate_runs = [&](std::size_t r) {
    auto out = evaluate(std::span<const CohortRun>(runs), r);
    for (std::size_t j = 0; j < runs.size(); ++j)
      means[run_policy[j]].push_back(std::move(out[j]));
    runs.clear();
    run_policy.clear();
  };
  const std::size_t max_reps = *std::max_element(reps.begin(), reps.end());
  for (std::size_t r = 0; r < max_reps; ++r) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      if (r >= reps[p]) continue;
      runs.push_back({policies[p].get(), stream(p, r)});
      run_policy.push_back(p);
    }
    if (per_rep_schedules) evaluate_runs(r);
  }
  if (!per_rep_schedules) evaluate_runs(0);

  // Point-wise average over each policy's repetitions, in repetition order.
  std::vector<std::vector<CohortMetrics>> points(policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    for (std::size_t x = 0; x < means[p].front().size(); ++x) {
      std::vector<CohortMetrics> at_x;
      at_x.reserve(means[p].size());
      for (const auto& run : means[p]) at_x.push_back(run[x]);
      points[p].push_back(average_runs(at_x));
    }
  }
  return points;
}

std::vector<std::vector<CohortMetrics>> Study::evaluate_cohort(
    std::span<const DaySchedule> placement_schedules,
    std::span<const DaySchedule> evaluation_schedules,
    std::span<const graph::UserId> cohort_users,
    std::span<const CohortRun> runs, placement::Connectivity connectivity,
    std::size_t first_k, std::size_t k_max, std::size_t shard_size,
    util::ThreadPool& pool, std::vector<UserMetrics>* samples) const {
  obs::ScopedTimer span("study.evaluate_policy");
  const std::size_t n = cohort_users.size();
  DOSN_ASSERT(n > 0 && shard_size > 0 && !runs.empty() && first_k <= k_max);
  const std::size_t run_rows = k_max - first_k + 1;
  const std::size_t user_rows = runs.size() * run_rows;
  // A window holds one shard of at most ceil(n / workers) users per worker,
  // so a cohort smaller than workers × shard_size still spreads over every
  // worker. Its tasks are quarter shards, which lets the work-stealing
  // runtime even out heavy users before the window's barrier.
  const std::size_t workers = pool.thread_count();
  const std::size_t shard =
      std::min(shard_size, (n + workers - 1) / workers);
  const std::size_t window = shard * workers;
  const std::size_t task = std::max<std::size_t>(1, shard / 4);
  std::vector<TaskScratch> scratch((window + task - 1) / task);
  std::vector<UserMetrics> rows(std::min(window, n) * user_rows);
  std::vector<std::vector<detail::CohortAccum>> accum(
      runs.size(), std::vector<detail::CohortAccum>(run_rows));
  std::size_t tasks_run = 0;

  for (std::size_t begin = 0; begin < n; begin += window) {
    const std::size_t end = std::min(n, begin + window);
    const std::size_t tasks = (end - begin + task - 1) / task;
    tasks_run += tasks;
    // Phase 1 (parallel): each task walks its users one by one. A user's
    // runs are all selected first (each from its own stream), then one
    // table serves every run's rows, written to the user's slice of rows.
    util::parallel_for_each(&pool, tasks, [&](std::size_t t) {
      TaskScratch& ts = scratch[t];
      const std::size_t first = begin + t * task;
      const std::size_t last = std::min(end, first + task);
      for (std::size_t i = first; i < last; ++i) {
        const graph::UserId u = cohort_users[i];
        placement::PlacementContext context;
        context.user = u;
        context.candidates = dataset_.graph.contacts(u);
        context.schedules = placement_schedules;
        context.trace = &dataset_.trace;
        context.connectivity = connectivity;
        context.max_replicas = k_max;
        ts.holders.clear();
        ts.run_end.clear();
        for (const CohortRun& run : runs) {
          util::Rng rng(util::mix64(run.stream_seed, u));
          const auto selected =
              run.policy->select(context, rng, ts.placement);
          ts.holders.insert(ts.holders.end(), selected.begin(),
                            selected.end());
          ts.run_end.push_back(ts.holders.size());
        }
        ts.table.build(dataset_, evaluation_schedules, u, ts.holders,
                       connectivity);
        const auto picks = ts.table.holder_positions();
        const std::span<UserMetrics> out{rows.data() + (i - begin) * user_rows,
                                         user_rows};
        for (std::size_t r = 0, from = 0; r < runs.size(); ++r) {
          ts.table.evaluate(picks.subspan(from, ts.run_end[r] - from), first_k,
                            k_max, out.subspan(r * run_rows, run_rows));
          from = ts.run_end[r];
        }
      }
      ts.table.flush_counters();
    });

    // Phase 2 (serial): reduce the window into the accumulators in cohort
    // index order — the fixed floating-point accumulation order that makes
    // every sweep bit-identical across threads and shard sizes.
    for (std::size_t i = begin; i < end; ++i) {
      const UserMetrics* user = rows.data() + (i - begin) * user_rows;
      for (std::size_t r = 0; r < runs.size(); ++r)
        for (std::size_t j = 0; j < run_rows; ++j)
          accum[r][j].add(user[r * run_rows + j]);
      if (samples != nullptr)
        samples->insert(samples->end(), user, user + user_rows);
    }
  }
  study_metrics().sweep_cells.add(runs.size());
  study_metrics().users_evaluated.add(n * runs.size());
  study_metrics().shards_evaluated.add(tasks_run);

  std::vector<std::vector<CohortMetrics>> means(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r)
    for (const auto& a : accum[r]) means[r].push_back(a.mean());
  return means;
}

SweepResult Study::replication_sweep(onlinetime::ModelKind model_kind,
                                     const onlinetime::ModelParams& params,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  return replication_sweep(*onlinetime::make_model(model_kind, params),
                           connectivity, options);
}

SweepResult Study::replication_sweep(const onlinetime::OnlineTimeModel& model,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  validate(options);
  const std::size_t model_reps =
      model.randomized() ? options.repetitions : 1;
  std::vector<std::vector<DaySchedule>> schedules;
  schedules.reserve(model_reps);
  for (std::size_t r = 0; r < model_reps; ++r) {
    util::Rng rng(detail::schedule_stream(seed_, r));
    schedules.push_back(model.schedules(dataset_, rng));
  }
  const std::vector<std::span<const DaySchedule>> realizations(
      schedules.begin(), schedules.end());
  return replication_sweep_over(realizations, model.randomized(),
                                model.name(), connectivity, options);
}

SweepResult Study::replication_sweep(std::span<const DaySchedule> schedules,
                                     std::string_view model_name,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  validate(options);
  DOSN_REQUIRE(schedules.size() == dataset_.num_users(),
               "replication_sweep: schedule count mismatch");
  const std::array<std::span<const DaySchedule>, 1> realization{schedules};
  return replication_sweep_over(realization, /*model_randomized=*/false,
                                model_name, connectivity, options);
}

SweepResult Study::replication_sweep_over(
    std::span<const std::span<const DaySchedule>> realizations,
    bool model_randomized, std::string_view model_name,
    placement::Connectivity connectivity, const Options& options) const {
  obs::ScopedTimer span("study.replication_sweep");
  const auto cohort_users = sweep_cohort(options.cohort_degree, options);
  DOSN_REQUIRE(!cohort_users.empty(),
               "replication_sweep: no user has the cohort degree");

  SweepResult result;
  result.dataset_name = dataset_.name;
  result.model_name = std::string(model_name);
  result.connectivity_name = placement::to_string(connectivity);
  result.x_label = "replication degree";
  for (std::size_t k = 0; k <= options.k_max; ++k)
    result.xs.push_back(static_cast<double>(k));

  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  result.policies = empty_curves(options);
  const auto policies = make_policies(options);
  const auto reps =
      policy_reps(policies, model_randomized, options.repetitions);
  auto points = cell_points(
      policies, reps, model_randomized,
      [&](std::size_t p, std::size_t r) {
        return sweep_stream(seed_, kReplicationTag, 0, p, r);
      },
      [&](std::span<const CohortRun> runs, std::size_t r) {
        const auto sched = realizations[r];
        return evaluate_cohort(sched, sched, cohort_users, runs, connectivity,
                               0, options.k_max, options.shard_size, pool);
      });
  for (std::size_t p = 0; p < points.size(); ++p)
    result.policies[p].points = std::move(points[p]);
  return result;
}

SweepResult Study::session_length_sweep(
    std::span<const interval::Seconds> session_lengths, std::size_t k,
    placement::Connectivity connectivity, const Options& options) const {
  obs::ScopedTimer span("study.session_length_sweep");
  validate(options);
  const auto cohort_users = sweep_cohort(options.cohort_degree, options);
  DOSN_REQUIRE(!cohort_users.empty(),
               "session_length_sweep: no user has the cohort degree");

  SweepResult result;
  result.dataset_name = dataset_.name;
  result.model_name = "Sporadic";
  result.connectivity_name = placement::to_string(connectivity);
  result.x_label = "session length (sec)";
  for (const auto len : session_lengths)
    result.xs.push_back(static_cast<double>(len));
  result.policies = empty_curves(options);

  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  const auto policies = make_policies(options);
  const auto reps = policy_reps(policies, false, options.repetitions);
  for (std::size_t xi = 0; xi < session_lengths.size(); ++xi) {
    const onlinetime::SporadicModel model(session_lengths[xi]);
    util::Rng model_rng(util::mix64(seed_, 0x3e550000 + xi));
    const auto sched = model.schedules(dataset_, model_rng);
    const auto points = cell_points(
        policies, reps, false,
        [&](std::size_t p, std::size_t r) {
          return sweep_stream(seed_, kSessionTag, xi, p, r);
        },
        [&](std::span<const CohortRun> runs, std::size_t /*r*/) {
          return evaluate_cohort(sched, sched, cohort_users, runs,
                                 connectivity, k, k, options.shard_size, pool);
        });
    for (std::size_t p = 0; p < points.size(); ++p)
      result.policies[p].points.push_back(points[p].front());
  }
  return result;
}

SweepResult Study::resilience_sweep(onlinetime::ModelKind model_kind,
                                    const onlinetime::ModelParams& params,
                                    placement::Connectivity connectivity,
                                    const net::FaultPlan& base_plan,
                                    std::span<const double> intensities,
                                    std::size_t k,
                                    const Options& options) const {
  obs::ScopedTimer span("study.resilience_sweep");
  validate(options);
  net::validate(base_plan);
  DOSN_REQUIRE(!intensities.empty(), "resilience_sweep: no intensities");
  for (const double f : intensities)
    DOSN_REQUIRE(f >= 0.0 && f <= 1.0,
                 "resilience_sweep: intensity outside [0, 1]");
  const auto model = onlinetime::make_model(model_kind, params);
  const auto cohort_users = sweep_cohort(options.cohort_degree, options);
  DOSN_REQUIRE(!cohort_users.empty(),
               "resilience_sweep: no user has the cohort degree");

  // Ideal schedules come from the replication_sweep stream seeds, so the
  // intensity-0 column equals the replication_sweep point at k (with
  // k_max = k) for deterministic policies — an identity the tests assert.
  const std::size_t model_reps =
      model->randomized() ? options.repetitions : 1;
  std::vector<std::vector<DaySchedule>> schedules;
  schedules.reserve(model_reps);
  for (std::size_t r = 0; r < model_reps; ++r) {
    util::Rng rng(detail::schedule_stream(seed_, r));
    schedules.push_back(model->schedules(dataset_, rng));
  }

  SweepResult result;
  result.dataset_name = dataset_.name;
  result.model_name = model->name();
  result.connectivity_name = placement::to_string(connectivity);
  result.x_label = "fault intensity";
  result.xs.assign(intensities.begin(), intensities.end());
  result.policies = empty_curves(options);

  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  const auto policies = make_policies(options);
  const auto reps =
      policy_reps(policies, model->randomized(), options.repetitions);
  for (const double f : intensities) {
    // Degraded schedules per repetition at this intensity, built lazily
    // and shared across policies. The fault realization seed varies with
    // the repetition but *not* the intensity: within a repetition the
    // realizations are nested (scaled() preserves the seed), so every
    // fault present at f1 is present at f2 >= f1 and the per-user online
    // sets — hence availability — degrade exactly monotonically.
    std::vector<std::vector<DaySchedule>> degraded(options.repetitions);
    const auto degraded_for =
        [&](std::size_t r) -> const std::vector<DaySchedule>& {
      auto& slot = degraded[r];
      if (slot.empty()) {
        net::FaultPlan realization = base_plan;
        realization.seed = util::mix64(seed_, base_plan.seed, r);
        net::FaultInjector injector(net::scaled(realization, f));
        const auto& ideal = schedules[model->randomized() ? r : 0];
        slot.reserve(ideal.size());
        for (std::size_t u = 0; u < ideal.size(); ++u)
          slot.push_back(injector.degrade_day(u, ideal[u]));
        injector.flush_stats();
      }
      return slot;
    };

    // Placement sees the ideal schedules; only the evaluation runs on the
    // degraded ones, which differ per repetition. x = 0 in the stream id
    // keeps randomized placements identical across intensities, preserving
    // nesting.
    const auto points = cell_points(
        policies, reps, true,
        [&](std::size_t p, std::size_t r) {
          return sweep_stream(seed_, kFaultTag, 0, p, r);
        },
        [&](std::span<const CohortRun> runs, std::size_t r) {
          return evaluate_cohort(schedules[model->randomized() ? r : 0],
                                 degraded_for(r), cohort_users, runs,
                                 connectivity, k, k, options.shard_size,
                                 pool);
        });
    for (std::size_t p = 0; p < points.size(); ++p)
      result.policies[p].points.push_back(points[p].front());
  }
  return result;
}

std::vector<UserMetrics> Study::cohort_samples(
    onlinetime::ModelKind model_kind, const onlinetime::ModelParams& params,
    placement::Connectivity connectivity, placement::PolicyKind policy_kind,
    std::size_t k, const Options& options) const {
  obs::ScopedTimer span("study.cohort_samples");
  validate(options);
  const auto model = onlinetime::make_model(model_kind, params);
  const auto cohort_users = sweep_cohort(options.cohort_degree, options);
  DOSN_REQUIRE(!cohort_users.empty(),
               "cohort_samples: no user has the cohort degree");

  util::Rng model_rng(util::mix64(seed_, 0xd157));
  const auto schedules = model->schedules(dataset_, model_rng);
  const auto policy = placement::make_policy(policy_kind,
                                             options.policy_params);
  const CohortRun run{policy.get(),
                      sweep_stream(seed_, kSamplesTag, 0,
                                   static_cast<std::uint64_t>(policy_kind), 0)};
  std::optional<util::ThreadPool> local_pool;
  std::vector<UserMetrics> samples;
  samples.reserve(cohort_users.size());
  (void)evaluate_cohort(schedules, schedules, cohort_users, {&run, 1},
                        connectivity, k, k, options.shard_size,
                        sweep_pool(options, local_pool), &samples);
  return samples;
}

SweepResult Study::user_degree_sweep(std::size_t max_degree,
                                     onlinetime::ModelKind model_kind,
                                     const onlinetime::ModelParams& params,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  return user_degree_sweep(max_degree,
                           *onlinetime::make_model(model_kind, params),
                           connectivity, options);
}

SweepResult Study::user_degree_sweep(std::size_t max_degree,
                                     const onlinetime::OnlineTimeModel& model,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  obs::ScopedTimer span("study.user_degree_sweep");
  validate(options);
  const std::size_t model_reps =
      model.randomized() ? options.repetitions : 1;
  std::vector<std::vector<DaySchedule>> schedules;
  for (std::size_t r = 0; r < model_reps; ++r) {
    util::Rng rng(util::mix64(seed_, 0xde60000 + r));
    schedules.push_back(model.schedules(dataset_, rng));
  }

  SweepResult result;
  result.dataset_name = dataset_.name;
  result.model_name = model.name();
  result.connectivity_name = placement::to_string(connectivity);
  result.x_label = "user degree";
  for (std::size_t d = 1; d <= max_degree; ++d)
    result.xs.push_back(static_cast<double>(d));
  result.policies = empty_curves(options);

  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  const auto policies = make_policies(options);
  const auto reps =
      policy_reps(policies, model.randomized(), options.repetitions);
  for (std::size_t d = 1; d <= max_degree; ++d) {
    const auto cohort_users = sweep_cohort(d, options);
    if (cohort_users.empty()) {
      for (auto& curve : result.policies)
        curve.points.emplace_back();  // empty cohort: zeros
      continue;
    }
    // k = user degree (the most replicas a user of degree d can have).
    const auto points = cell_points(
        policies, reps, model.randomized(),
        [&](std::size_t p, std::size_t r) {
          return sweep_stream(seed_, kDegreeTag, d, p, r);
        },
        [&](std::span<const CohortRun> runs, std::size_t r) {
          const auto& sched = schedules[r];
          return evaluate_cohort(sched, sched, cohort_users, runs,
                                 connectivity, d, d, options.shard_size, pool);
        });
    for (std::size_t p = 0; p < points.size(); ++p)
      result.policies[p].points.push_back(points[p].front());
  }
  return result;
}

std::uint64_t sweep_checksum(const SweepResult& result) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  const auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  mix_str(result.dataset_name);
  mix_str(result.model_name);
  mix_str(result.connectivity_name);
  mix(result.xs.size());
  for (const double x : result.xs) mix_double(x);
  mix(result.policies.size());
  for (const auto& curve : result.policies) {
    mix_str(curve.policy_name);
    mix(curve.points.size());
    for (const auto& m : curve.points) {
      mix_double(m.availability);
      mix_double(m.max_availability);
      mix_double(m.aod_time);
      mix_double(m.aod_activity);
      mix_double(m.aod_activity_expected);
      mix_double(m.aod_activity_unexpected);
      mix_double(m.delay_actual_h);
      mix_double(m.delay_observed_h);
      mix_double(m.replicas_used);
      mix(m.cohort_size);
    }
  }
  return h;
}

}  // namespace dosn::sim
