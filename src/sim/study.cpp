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

/// Cohort means of `rows` (consecutive groups of `stride` rows per user):
/// element j averages row j of every user. The serial walk visits users
/// in cohort index order — the fixed floating-point accumulation order
/// that makes every sweep bit-identical across threads and shard sizes.
std::vector<CohortMetrics> cohort_means(std::span<const UserMetrics> rows,
                                        std::size_t stride) {
  DOSN_ASSERT(rows.size() % stride == 0);
  std::vector<detail::CohortAccum> accum(stride);
  for (std::size_t off = 0; off < rows.size(); off += stride)
    for (std::size_t j = 0; j < stride; ++j) accum[j].add(rows[off + j]);
  std::vector<CohortMetrics> out;
  out.reserve(stride);
  for (const auto& a : accum) out.push_back(a.mean());
  return out;
}

/// Point-wise average of `reps` repetition runs; run(r) returns one
/// CohortMetrics per sweep point.
template <typename Run>
std::vector<CohortMetrics> average_reps(std::size_t reps, Run&& run) {
  std::vector<std::vector<CohortMetrics>> runs;
  runs.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) runs.push_back(run(r));
  std::vector<CohortMetrics> out;
  for (std::size_t j = 0; j < runs.front().size(); ++j) {
    std::vector<CohortMetrics> at_j;
    at_j.reserve(reps);
    for (const auto& run_rows : runs) at_j.push_back(run_rows[j]);
    out.push_back(average_runs(at_j));
  }
  return out;
}

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

/// The replication sweep's step: rows for every prefix 0..k_max of the
/// selection, in one incremental pass over the shard's scratch.
auto prefix_rows(const trace::Dataset& dataset,
                 std::span<const DaySchedule> schedules,
                 placement::Connectivity connectivity, std::size_t k_max) {
  return [&dataset, schedules, connectivity, k_max](
             graph::UserId u, std::span<const graph::UserId> selected,
             EvalScratch& scratch, std::vector<UserMetrics>& rows) {
    evaluate_user_prefixes(dataset, schedules, u, selected, connectivity,
                           k_max, scratch, rows);
  };
}

/// The fixed-k sweeps' step: the one row of the whole selection (placed
/// with max_replicas = k), evaluated on `schedules`.
auto fixed_k_row(const trace::Dataset& dataset,
                 std::span<const DaySchedule> schedules,
                 placement::Connectivity connectivity) {
  return [&dataset, schedules, connectivity](
             graph::UserId u, std::span<const graph::UserId> selected,
             EvalScratch& /*scratch*/, std::vector<UserMetrics>& rows) {
    rows.assign(1, evaluate_user(dataset, schedules, u, selected,
                                 connectivity));
  };
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

std::vector<UserMetrics> Study::evaluate_cohort(
    std::span<const DaySchedule> placement_schedules,
    std::span<const graph::UserId> cohort_users,
    const placement::ReplicaPolicy& policy,
    placement::Connectivity connectivity, std::size_t max_replicas,
    std::uint64_t stream_seed, std::size_t rows_per_user,
    const UserStep& step, std::size_t shard_size,
    util::ThreadPool& pool) const {
  obs::ScopedTimer span("study.evaluate_policy");
  const std::size_t n = cohort_users.size();
  DOSN_ASSERT(n > 0 && shard_size > 0);
  // Shards of at most ceil(n / workers) users, so a cohort smaller than
  // workers × shard_size still spreads over every worker.
  const std::size_t workers = pool.thread_count();
  const std::size_t shard =
      std::min(shard_size, (n + workers - 1) / workers);
  const std::size_t num_shards = (n + shard - 1) / shard;
  study_metrics().sweep_cells.add(1);
  study_metrics().users_evaluated.add(n);
  study_metrics().shards_evaluated.add(num_shards);

  // Phase 1 (parallel): one task per shard. Each task reuses one
  // EvalScratch and one user-row buffer across its users and writes into
  // its own slice of `rows`; each user draws from its own stream.
  std::vector<UserMetrics> rows(n * rows_per_user);
  util::parallel_for_each(&pool, num_shards, [&](std::size_t s) {
    const std::size_t begin = s * shard;
    const std::size_t end = std::min(n, begin + shard);
    EvalScratch scratch;
    std::vector<UserMetrics> user_rows;
    for (std::size_t i = begin; i < end; ++i) {
      const graph::UserId u = cohort_users[i];
      placement::PlacementContext context;
      context.user = u;
      context.candidates = dataset_.graph.contacts(u);
      context.schedules = placement_schedules;
      context.trace = &dataset_.trace;
      context.connectivity = connectivity;
      context.max_replicas = max_replicas;
      util::Rng rng(util::mix64(stream_seed, u));
      const auto selected = policy.select(context, rng);
      step(u, selected, scratch, user_rows);
      DOSN_ASSERT(user_rows.size() == rows_per_user);
      std::copy(user_rows.begin(), user_rows.end(),
                rows.begin() + static_cast<std::ptrdiff_t>(i * rows_per_user));
    }
  });
  return rows;
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
  for (std::size_t p = 0; p < options.policies.size(); ++p) {
    const auto policy =
        placement::make_policy(options.policies[p], options.policy_params);
    const std::size_t reps =
        (model_randomized || policy->randomized()) ? options.repetitions : 1;
    result.policies[p].points = average_reps(reps, [&](std::size_t r) {
      const auto sched = realizations[model_randomized ? r : 0];
      const std::size_t stride = options.k_max + 1;
      return cohort_means(
          evaluate_cohort(
              sched, cohort_users, *policy, connectivity, options.k_max,
              sweep_stream(seed_, kReplicationTag, 0, p, r), stride,
              prefix_rows(dataset_, sched, connectivity, options.k_max),
              options.shard_size, pool),
          stride);
    });
  }
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
  for (std::size_t xi = 0; xi < session_lengths.size(); ++xi) {
    const onlinetime::SporadicModel model(session_lengths[xi]);
    util::Rng model_rng(util::mix64(seed_, 0x3e550000 + xi));
    const auto sched = model.schedules(dataset_, model_rng);

    for (std::size_t p = 0; p < options.policies.size(); ++p) {
      const auto policy =
          placement::make_policy(options.policies[p], options.policy_params);
      const std::size_t reps = policy->randomized() ? options.repetitions : 1;
      result.policies[p].points.push_back(
          average_reps(reps, [&](std::size_t r) {
            return cohort_means(
                evaluate_cohort(sched, cohort_users, *policy, connectivity, k,
                                sweep_stream(seed_, kSessionTag, xi, p, r), 1,
                                fixed_k_row(dataset_, sched, connectivity),
                                options.shard_size, pool),
                1);
          }).front());
    }
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

    for (std::size_t p = 0; p < options.policies.size(); ++p) {
      const auto policy =
          placement::make_policy(options.policies[p], options.policy_params);
      const std::size_t reps =
          (model->randomized() || policy->randomized()) ? options.repetitions
                                                        : 1;
      result.policies[p].points.push_back(
          average_reps(reps, [&](std::size_t r) {
            // Placement sees the ideal schedules; only the evaluation runs
            // on the degraded ones. x = 0 in the stream id keeps randomized
            // placements identical across intensities, preserving nesting.
            return cohort_means(
                evaluate_cohort(schedules[model->randomized() ? r : 0],
                                cohort_users, *policy, connectivity, k,
                                sweep_stream(seed_, kFaultTag, 0, p, r), 1,
                                fixed_k_row(dataset_, degraded_for(r),
                                            connectivity),
                                options.shard_size, pool),
                1);
          }).front());
    }
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
  std::optional<util::ThreadPool> local_pool;
  return evaluate_cohort(
      schedules, cohort_users, *policy, connectivity, k,
      sweep_stream(seed_, kSamplesTag, 0,
                   static_cast<std::uint64_t>(policy_kind), 0),
      1, fixed_k_row(dataset_, schedules, connectivity), options.shard_size,
      sweep_pool(options, local_pool));
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
  for (std::size_t d = 1; d <= max_degree; ++d) {
    const auto cohort_users = sweep_cohort(d, options);
    for (std::size_t p = 0; p < options.policies.size(); ++p) {
      if (cohort_users.empty()) {
        result.policies[p].points.emplace_back();  // empty cohort: zeros
        continue;
      }
      const auto policy =
          placement::make_policy(options.policies[p], options.policy_params);
      const std::size_t reps =
          (model.randomized() || policy->randomized()) ? options.repetitions
                                                       : 1;
      // k = user degree (the most replicas a user of degree d can have).
      result.policies[p].points.push_back(
          average_reps(reps, [&](std::size_t r) {
            const auto& sched = schedules[model.randomized() ? r : 0];
            return cohort_means(
                evaluate_cohort(sched, cohort_users, *policy, connectivity, d,
                                sweep_stream(seed_, kDegreeTag, d, p, r), 1,
                                fixed_k_row(dataset_, sched, connectivity),
                                options.shard_size, pool),
                1);
          }).front());
    }
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
