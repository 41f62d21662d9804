#include "sim/study.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <optional>

#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "onlinetime/sporadic.hpp"
#include "sim/cohort_accum.hpp"

namespace dosn::sim {

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

/// One schedule realization per repetition of a randomized model, else
/// one that every repetition shares; realization r draws from stream(r).
template <typename Stream>
std::vector<std::vector<DaySchedule>> realize(
    const trace::Dataset& dataset, const onlinetime::OnlineTimeModel& model,
    std::size_t repetitions, Stream stream) {
  std::vector<std::vector<DaySchedule>> out;
  for (std::size_t r = 0; r < (model.randomized() ? repetitions : 1); ++r) {
    util::Rng rng(stream(r));
    out.push_back(model.schedules(dataset, rng));
  }
  return out;
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

/// A sweep as run_sweep runs it: the header, whether every policy repeats
/// (the model draws one schedule realization per repetition), the stream
/// tag, and the cells. The cell that starts at xs[xi] fills that x and the
/// next k_max - first_k with its rows first_k..k_max.
struct Study::SweepSpec {
  /// The schedules one repetition places against and is evaluated on.
  struct Schedules {
    std::span<const DaySchedule> placement, evaluation;
  };
  struct Cell {
    std::vector<graph::UserId> cohort;  ///< before cohort_limit; empty: zeros
    std::size_t first_k = 0, k_max = 0;
    std::uint64_t stream_x = 0;  ///< the x of the cell's sweep_stream
    std::function<Schedules(std::size_t rep)> schedules;
  };

  std::string model_name{};
  std::string x_label{};
  std::vector<double> xs{};
  bool randomized_schedules = false;
  std::uint64_t tag = 0;
  std::uint64_t first_slot = 0;  ///< sweep_stream policy slot of policy 0
  std::function<Cell(std::size_t xi)> cell{};
};

SweepResult Study::run_sweep(const SweepSpec& spec,
                             placement::Connectivity connectivity,
                             const Options& options,
                             std::vector<UserMetrics>* samples) const {
  DOSN_REQUIRE(options.repetitions >= 1, "study: repetitions must be >= 1");
  DOSN_REQUIRE(options.shard_size >= 1, "study: shard_size must be >= 1");
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = options.pool != nullptr
                               ? *options.pool
                               : local_pool.emplace(options.threads);

  SweepResult result{dataset_.name, spec.model_name,
                     placement::to_string(connectivity), spec.x_label,
                     spec.xs, {}};
  // Each policy is built once and names its curve. It repeats when the
  // schedules or the policy itself draw randomness.
  std::vector<std::unique_ptr<placement::ReplicaPolicy>> policies;
  std::vector<std::size_t> reps;
  std::size_t max_reps = 0;
  for (const auto kind : options.policies) {
    policies.push_back(placement::make_policy(kind, options.policy_params));
    result.policies.push_back({policies.back()->name(), kind, {}});
    reps.push_back(spec.randomized_schedules || policies.back()->randomized()
                       ? options.repetitions
                       : 1);
    max_reps = std::max(max_reps, reps.back());
  }

  for (std::size_t xi = 0; xi < result.xs.size();) {
    SweepSpec::Cell cell = spec.cell(xi);
    if (options.cohort_limit > 0 && cell.cohort.size() > options.cohort_limit)
      cell.cohort.resize(options.cohort_limit);
    const std::size_t rows = cell.k_max - cell.first_k + 1;
    xi += rows;
    if (cell.cohort.empty()) {
      for (auto& curve : result.policies)
        curve.points.resize(curve.points.size() + rows);
      continue;
    }
    // Runs (p, r) in repetition-major order; consecutive runs on the same
    // realizations (the same storage, as each spans every user) reach
    // evaluate_cohort in one call. means[p][j] holds the cohort means of
    // row j of policy p's runs, in repetition order.
    std::vector<std::vector<std::vector<CohortMetrics>>> means(
        policies.size(), std::vector<std::vector<CohortMetrics>>(rows));
    std::vector<CohortRun> runs;
    std::vector<std::size_t> run_policy;
    SweepSpec::Schedules shared;
    const auto evaluate_runs = [&] {
      const auto out = evaluate_cohort(
          shared.placement, shared.evaluation, cell.cohort, runs,
          connectivity, cell.first_k, cell.k_max, options.shard_size, pool,
          samples);
      for (std::size_t i = 0; i < runs.size(); ++i)
        for (std::size_t j = 0; j < rows; ++j)
          means[run_policy[i]][j].push_back(out[i][j]);
      runs.clear();
      run_policy.clear();
    };
    for (std::size_t r = 0; r < max_reps; ++r) {
      const SweepSpec::Schedules schedules = cell.schedules(r);
      if (!runs.empty() &&
          (schedules.placement.data() != shared.placement.data() ||
           schedules.evaluation.data() != shared.evaluation.data()))
        evaluate_runs();
      shared = schedules;
      for (std::size_t p = 0; p < policies.size(); ++p) {
        if (r >= reps[p]) continue;
        runs.push_back({policies[p].get(),
                        sweep_stream(seed_, spec.tag, cell.stream_x,
                                     spec.first_slot + p, r)});
        run_policy.push_back(p);
      }
    }
    if (!runs.empty()) evaluate_runs();

    for (std::size_t p = 0; p < policies.size(); ++p)
      for (const auto& row : means[p])
        result.policies[p].points.push_back(detail::average_runs(row));
  }
  return result;
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
  const auto schedules =
      realize(dataset_, model, options.repetitions,
              [&](std::size_t r) { return detail::schedule_stream(seed_, r); });
  const std::vector<std::span<const DaySchedule>> realizations(
      schedules.begin(), schedules.end());
  return replication_sweep_over(realizations, model.randomized(),
                                model.name(), connectivity, options);
}

SweepResult Study::replication_sweep(std::span<const DaySchedule> schedules,
                                     std::string_view model_name,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
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
  const auto cohort_users = cohort(options.cohort_degree);
  DOSN_REQUIRE(!cohort_users.empty(),
               "replication_sweep: no user has the cohort degree");
  SweepSpec spec{.model_name = std::string(model_name),
                 .x_label = "replication degree",
                 .randomized_schedules = model_randomized,
                 .tag = detail::kReplicationTag};
  for (std::size_t k = 0; k <= options.k_max; ++k)
    spec.xs.push_back(static_cast<double>(k));
  // One cell whose rows are the whole k axis.
  spec.cell = [&](std::size_t) {
    return SweepSpec::Cell{
        cohort_users, 0, options.k_max, 0, [&](std::size_t r) {
          const auto sched = realizations[model_randomized ? r : 0];
          return SweepSpec::Schedules{sched, sched};
        }};
  };
  return run_sweep(spec, connectivity, options);
}

SweepResult Study::session_length_sweep(
    std::span<const interval::Seconds> session_lengths, std::size_t k,
    placement::Connectivity connectivity, const Options& options) const {
  obs::ScopedTimer span("study.session_length_sweep");
  const auto cohort_users = cohort(options.cohort_degree);
  DOSN_REQUIRE(!cohort_users.empty(),
               "session_length_sweep: no user has the cohort degree");
  SweepSpec spec{.model_name = "Sporadic",
                 .x_label = "session length (sec)",
                 .xs = std::vector<double>(session_lengths.begin(),
                                           session_lengths.end()),
                 .tag = detail::kSessionTag};
  // One cell per session length, on a Sporadic realization of its own.
  spec.cell = [&](std::size_t xi) {
    util::Rng model_rng(util::mix64(seed_, 0x3e550000 + xi));
    return SweepSpec::Cell{
        cohort_users, k, k, xi,
        [sched = onlinetime::SporadicModel(session_lengths[xi])
                     .schedules(dataset_, model_rng)](std::size_t) {
          return SweepSpec::Schedules{sched, sched};
        }};
  };
  return run_sweep(spec, connectivity, options);
}

SweepResult Study::resilience_sweep(onlinetime::ModelKind model_kind,
                                    const onlinetime::ModelParams& params,
                                    placement::Connectivity connectivity,
                                    const net::FaultPlan& base_plan,
                                    std::span<const double> intensities,
                                    std::size_t k,
                                    const Options& options) const {
  obs::ScopedTimer span("study.resilience_sweep");
  net::validate(base_plan);
  DOSN_REQUIRE(!intensities.empty(), "resilience_sweep: no intensities");
  for (const double f : intensities)
    DOSN_REQUIRE(f >= 0.0 && f <= 1.0,
                 "resilience_sweep: intensity outside [0, 1]");
  const auto model = onlinetime::make_model(model_kind, params);
  const auto cohort_users = cohort(options.cohort_degree);
  DOSN_REQUIRE(!cohort_users.empty(),
               "resilience_sweep: no user has the cohort degree");

  // Ideal schedules come from the replication_sweep stream seeds, so the
  // intensity-0 column equals the replication_sweep point at k (with
  // k_max = k) for deterministic policies — an identity the tests assert.
  const auto ideal =
      realize(dataset_, *model, options.repetitions,
              [&](std::size_t r) { return detail::schedule_stream(seed_, r); });
  SweepSpec spec{.model_name = model->name(),
                 .x_label = "fault intensity",
                 .xs = std::vector<double>(intensities.begin(),
                                           intensities.end()),
                 .randomized_schedules = model->randomized(),
                 .tag = detail::kFaultTag};
  // One cell per intensity. Placement sees the ideal schedules; only the
  // evaluation runs on degraded ones, built lazily per repetition and
  // shared across policies. Their seed varies with the repetition but
  // *not* the intensity: within a repetition the realizations are nested
  // (scaled() preserves the seed), so every fault present at f1 is present
  // at f2 >= f1 and availability degrades exactly monotonically. x = 0 in
  // the stream id keeps randomized placements identical across
  // intensities, preserving nesting.
  spec.cell = [&](std::size_t xi) {
    return SweepSpec::Cell{
        cohort_users, k, k, 0,
        [&, f = intensities[xi],
         degraded = std::vector<std::vector<DaySchedule>>(
             options.repetitions)](std::size_t r) mutable {
          const auto& sched = ideal[model->randomized() ? r : 0];
          auto& slot = degraded[r];
          if (slot.empty()) {
            net::FaultPlan realization = base_plan;
            realization.seed = util::mix64(seed_, base_plan.seed, r);
            net::FaultInjector injector(net::scaled(realization, f));
            slot.reserve(sched.size());
            for (std::size_t u = 0; u < sched.size(); ++u)
              slot.push_back(injector.degrade_day(u, sched[u]));
            injector.flush_stats();
          }
          return SweepSpec::Schedules{sched, slot};
        }};
  };
  return run_sweep(spec, connectivity, options);
}

std::vector<UserMetrics> Study::cohort_samples(
    onlinetime::ModelKind model_kind, const onlinetime::ModelParams& params,
    placement::Connectivity connectivity, placement::PolicyKind policy_kind,
    std::size_t k, const Options& options) const {
  obs::ScopedTimer span("study.cohort_samples");
  const auto model = onlinetime::make_model(model_kind, params);
  const auto cohort_users = cohort(options.cohort_degree);
  DOSN_REQUIRE(!cohort_users.empty(),
               "cohort_samples: no user has the cohort degree");
  util::Rng model_rng(util::mix64(seed_, 0xd157));
  const auto schedules = model->schedules(dataset_, model_rng);

  // A single run of the one policy, whose stream slot is its kind. A zero
  // repetition count stays zero, so the driver still rejects it.
  auto one_run = options;
  one_run.policies = {policy_kind};
  one_run.repetitions = std::min<std::size_t>(options.repetitions, 1);
  const SweepSpec spec{
      .model_name = model->name(),
      .xs = {static_cast<double>(k)},
      .tag = detail::kSamplesTag,
      .first_slot = static_cast<std::uint64_t>(policy_kind),
      .cell = [&](std::size_t) {
        return SweepSpec::Cell{cohort_users, k, k, 0, [&](std::size_t) {
                                 return SweepSpec::Schedules{schedules,
                                                             schedules};
                               }};
      }};
  std::vector<UserMetrics> samples;
  (void)run_sweep(spec, connectivity, one_run, &samples);
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
  const auto schedules =
      realize(dataset_, model, options.repetitions,
              [&](std::size_t r) { return util::mix64(seed_, 0xde60000 + r); });
  SweepSpec spec{.model_name = model.name(),
                 .x_label = "user degree",
                 .randomized_schedules = model.randomized(),
                 .tag = detail::kDegreeTag};
  for (std::size_t d = 1; d <= max_degree; ++d)
    spec.xs.push_back(static_cast<double>(d));
  // One cell per degree d at k = d (the most replicas a user of degree d
  // can have); a degree no user has gives zero points.
  spec.cell = [&](std::size_t xi) {
    const std::size_t d = xi + 1;
    return SweepSpec::Cell{
        cohort(d), d, d, d, [&](std::size_t r) {
          const auto& sched = schedules[model.randomized() ? r : 0];
          return SweepSpec::Schedules{sched, sched};
        }};
  };
  return run_sweep(spec, connectivity, options);
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
