// Study-engine benchmark: before/after wall-clock of the paper's
// replication sweep on a ~5k-user synthetic dataset, written to
// BENCH_study_engine.json.
//
// Three engines are timed on identical work (the deterministic MaxAv
// policy, so every run must produce the same curves), each as the median
// of three runs:
//   * seed      — the pre-change engine, reproduced locally below: serial
//                 cohort loop, placement through the library's MaxAv
//                 policy, and a full re-evaluation (seed_evaluate_user,
//                 with the original batch delay graph) of every
//                 replication prefix 0..k;
//   * lazy      — the current engine (incremental prefix evaluation),
//                 serial;
//   * parallel  — lazy plus the deterministic thread pool at DOSN_THREADS
//                 (or hardware concurrency) workers.
// The sweep outputs of all nine runs are checksummed and must agree exactly —
// every optimization is exact, not an approximation.
//
// Environment knobs: DOSN_BENCH_SEED (default 20120618), DOSN_BENCH_SCALE
// (default 0.23 — ~5k users), DOSN_THREADS, DOSN_OBS.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/degree_stats.hpp"
#include "metrics/availability.hpp"
#include "obs/export.hpp"
#include "pair_delay_oracle.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "util/thread_pool.hpp"

namespace {

using dosn::sim::Study;
using dosn::sim::SweepResult;
using Clock = std::chrono::steady_clock;

/// Order-sensitive digest of every point of every curve; used to verify
/// the engine configurations produce the same sweep bit for bit.
std::uint64_t checksum(const SweepResult& sweep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
  };
  for (const auto& curve : sweep.policies)
    for (const auto& p : curve.points) {
      mix(p.availability);
      mix(p.aod_time);
      mix(p.aod_activity);
      mix(p.delay_actual_h);
      mix(p.replicas_used);
    }
  return h;
}

/// Timed runs per engine: one ~20–200 ms run spreads wider than the
/// regression gate's 25% bound, the median of three much less.
constexpr int kTimedRuns = 3;

/// Median wall time of kTimedRuns calls of `fn`. `out` keeps the last
/// call's sweep; every call's checksum (below) is appended to `sums`, so
/// the caller can require all runs of all engines to agree.
double median_run_ms(const std::function<SweepResult()>& fn, SweepResult& out,
                     std::vector<std::uint64_t>& sums) {
  std::array<double, kTimedRuns> ms{};
  for (double& t : ms) {
    const auto start = Clock::now();
    out = fn();
    const auto stop = Clock::now();
    t = std::chrono::duration<double, std::milli>(stop - start).count();
    sums.push_back(checksum(out));
  }
  std::sort(ms.begin(), ms.end());
  return ms[kTimedRuns / 2];
}

/// sim::evaluate_user as it was before the optimizations: the same metric
/// kernels, with the delay graph rebuilt by the batch Floyd–Warshall over
/// the original allocating pair_delay (tests/pair_delay_oracle.cpp). The
/// library's evaluate_user now shares the incremental delay evaluator and
/// the sweep kernels, which would make this anchor faster with every
/// delay-layer speedup.
dosn::sim::UserMetrics seed_evaluate_user(
    const dosn::trace::Dataset& dataset,
    std::span<const dosn::interval::DaySchedule> schedules,
    dosn::graph::UserId u, std::span<const dosn::graph::UserId> holders,
    dosn::placement::Connectivity connectivity) {
  using dosn::interval::DaySchedule;
  const DaySchedule& owner = schedules[u];
  std::vector<DaySchedule> replicas;
  replicas.reserve(holders.size());
  for (const dosn::graph::UserId host : holders)
    replicas.push_back(schedules[host]);
  std::vector<DaySchedule> contacts;
  for (const dosn::graph::UserId f : dataset.graph.contacts(u))
    contacts.push_back(schedules[f]);

  dosn::sim::UserMetrics m;
  const DaySchedule profile = dosn::metrics::profile_schedule(owner, replicas);
  m.availability = profile.coverage();
  m.max_availability =
      dosn::metrics::max_achievable_availability(owner, contacts);
  m.aod_time = dosn::metrics::aod_time(contacts, profile);
  const auto aod =
      dosn::metrics::aod_activity(dataset.trace, u, profile, schedules);
  m.aod_activity = aod.overall;
  m.aod_activity_expected = aod.expected;
  m.aod_activity_unexpected = aod.unexpected;
  const auto delay = dosn::metrics::oracle::update_propagation_delay(
      owner, replicas, connectivity);
  m.delay_actual_h = delay.actual_hours();
  m.delay_observed_h = delay.observed_hours();
  m.replicas_used = static_cast<double>(holders.size());
  return m;
}

/// The engine as it was before the optimizations, reproduced here so the
/// baseline stays honest now that sim::Study always uses the incremental
/// path: one serial pass over the cohort, and every replication prefix
/// evaluated from scratch with seed_evaluate_user (per-prefix profile
/// unions, per-prefix Floyd–Warshall with all pair_delay edges
/// recomputed). The deterministic policies make its curves bit-identical
/// to the new engine's, which the checksum comparison asserts.
SweepResult seed_engine_replication_sweep(
    const dosn::trace::Dataset& dataset, std::uint64_t seed,
    dosn::placement::Connectivity connectivity,
    const Study::Options& options) {
  const auto cohort_users =
      dosn::graph::users_with_degree(dataset.graph, options.cohort_degree);

  dosn::util::Rng sched_rng(dosn::util::mix64(seed, 0x5ced0000));
  dosn::onlinetime::ModelParams params;
  const auto model = dosn::onlinetime::make_model(
      dosn::onlinetime::ModelKind::kSporadic, params);
  const auto schedules = model->schedules(dataset, sched_rng);

  SweepResult result;
  for (std::size_t k = 0; k <= options.k_max; ++k)
    result.xs.push_back(static_cast<double>(k));

  for (const auto kind : options.policies) {
    const auto policy =
        dosn::placement::make_policy(kind, options.policy_params);
    dosn::util::Rng rng(seed);  // one shared stream, as before

    // Running means per k, in cohort order (mirrors the engine's reducer).
    struct Accum {
      dosn::util::RunningStats availability, aod_time, aod_activity,
          delay_actual, used;
    };
    std::vector<Accum> accum(options.k_max + 1);
    for (const dosn::graph::UserId u : cohort_users) {
      dosn::placement::PlacementContext context;
      context.user = u;
      context.candidates = dataset.graph.contacts(u);
      context.schedules = schedules;
      context.trace = &dataset.trace;
      context.connectivity = connectivity;
      context.max_replicas = options.k_max;
      const auto selected = policy->select(context, rng);
      for (std::size_t k = 0; k <= options.k_max; ++k) {
        const std::size_t take = std::min(k, selected.size());
        const std::span<const dosn::graph::UserId> prefix{selected.data(),
                                                          take};
        const auto m =
            seed_evaluate_user(dataset, schedules, u, prefix, connectivity);
        accum[k].availability.add(m.availability);
        accum[k].aod_time.add(m.aod_time);
        accum[k].aod_activity.add(m.aod_activity);
        accum[k].delay_actual.add(m.delay_actual_h);
        accum[k].used.add(m.replicas_used);
      }
    }

    dosn::sim::PolicyCurve curve;
    curve.policy_name = policy->name();
    curve.policy = kind;
    for (const auto& a : accum) {
      dosn::sim::CohortMetrics c;
      c.availability = a.availability.mean();
      c.aod_time = a.aod_time.mean();
      c.aod_activity = a.aod_activity.mean();
      c.delay_actual_h = a.delay_actual.mean();
      c.replicas_used = a.used.mean();
      curve.points.push_back(c);
    }
    result.policies.push_back(std::move(curve));
  }
  return result;
}

struct Scenario {
  std::string name;
  std::size_t cohort_degree = 10;
  std::size_t k_max = 10;
  double seed_ms = 0, lazy_ms = 0, parallel_ms = 0;
  std::size_t cohort_size = 0;
  bool identical = false;
};

}  // namespace

int main() {
  const std::uint64_t seed = dosn::bench::bench_seed();
  const std::size_t threads = dosn::util::default_thread_count();

  // ~5k post-filter users at the default scale: the Facebook preset filters
  // ~60k raw users down to ~21.9k per unit scale, so scale by 0.23.
  const double scale = dosn::bench::bench_scale(0.23);
  auto preset = dosn::synth::scaled(dosn::synth::facebook_preset(), scale);
  dosn::util::Rng gen_rng(seed);
  const auto dataset = dosn::synth::generate_study_dataset(preset, gen_rng);
  std::printf("dataset: %zu users, %zu activities\n", dataset.num_users(),
              dataset.trace.size());

  Study study(dataset, seed);

  // Two workloads: the paper's degree-10 replication sweep (evaluation
  // bound) and a high-degree cohort with k_max = degree, where both the
  // greedy set cover and the per-prefix delay graphs grow with the degree.
  std::vector<Scenario> scenarios;
  scenarios.push_back({"replication_sweep_degree10", 10, 10});
  const std::size_t heavy_degree = dosn::graph::most_populated_degree(
      dataset.graph, 32, 56);
  scenarios.push_back({"replication_sweep_heavy_degree", heavy_degree,
                       heavy_degree});

  for (auto& s : scenarios) {
    Study::Options options;
    options.cohort_degree = s.cohort_degree;
    options.k_max = s.k_max;
    // MaxAv only: it is the one fully deterministic policy (Random and
    // MostActive's zero-activity filler draw randomness, and the seeding
    // bugfix changed those draws), so the pre-change baseline below stays
    // output-comparable — and it is the policy the optimizations target.
    options.policies = {dosn::placement::PolicyKind::kMaxAv};
    s.cohort_size = study.cohort(s.cohort_degree).size();

    const auto sweep_with = [&](std::size_t nthreads) {
      Study::Options o = options;
      o.threads = nthreads;
      return study.replication_sweep(
          dosn::onlinetime::ModelKind::kSporadic, {},
          dosn::placement::Connectivity::kConRep, o);
    };

    SweepResult seed_out, lazy_out, parallel_out;
    std::vector<std::uint64_t> sums;
    s.seed_ms = median_run_ms(
        [&] {
          return seed_engine_replication_sweep(
              dataset, seed, dosn::placement::Connectivity::kConRep, options);
        },
        seed_out, sums);
    s.lazy_ms = median_run_ms([&] { return sweep_with(1); }, lazy_out, sums);
    s.parallel_ms =
        median_run_ms([&] { return sweep_with(threads); }, parallel_out, sums);
    // NOLINTNEXTLINE(concurrency-mt-unsafe) — serial section between runs.
    if (const char* dbg = std::getenv("DOSN_BENCH_DEBUG"); dbg && *dbg) {
      for (std::size_t p = 0; p < seed_out.policies.size(); ++p)
        for (std::size_t k = 0; k < seed_out.policies[p].points.size(); ++k) {
          const auto& a = seed_out.policies[p].points[k];
          const auto& b = lazy_out.policies[p].points[k];
          if (a.availability != b.availability ||
              a.aod_time != b.aod_time ||
              a.aod_activity != b.aod_activity ||
              a.delay_actual_h != b.delay_actual_h ||
              a.replicas_used != b.replicas_used)
            std::printf(
                "DIFF p=%zu k=%zu  av %.17g/%.17g  aodt %.17g/%.17g  "
                "aoda %.17g/%.17g  delay %.17g/%.17g  used %.17g/%.17g\n",
                p, k, a.availability, b.availability, a.aod_time, b.aod_time,
                a.aod_activity, b.aod_activity, a.delay_actual_h,
                b.delay_actual_h, a.replicas_used, b.replicas_used);
        }
    }
    s.identical = std::all_of(sums.begin(), sums.end(),
                              [&](std::uint64_t h) { return h == sums[0]; });

    std::printf(
        "%-32s cohort=%zu  seed=%.1fms  lazy=%.1fms  "
        "parallel(%zu)=%.1fms  speedup=%.2fx  identical=%s\n",
        s.name.c_str(), s.cohort_size, s.seed_ms, s.lazy_ms,
        threads, s.parallel_ms, s.seed_ms / s.parallel_ms,
        s.identical ? "yes" : "NO");
  }

  if (dosn::obs::enabled()) {
    std::printf("\nobservability snapshot:\n%s\n",
                dosn::obs::to_table(dosn::obs::Registry::global().snapshot())
                    .c_str());
  }

  dosn::bench::write_bench_json(
      "BENCH_study_engine.json", "study_engine", seed, threads,
      [&](dosn::util::JsonWriter& w) {
        w.field("dataset_users",
                static_cast<std::uint64_t>(dataset.num_users()));
        w.field("scale", scale);
        dosn::bench::write_hardware_fields(w);
        w.key("scenarios");
        w.begin_array();
        for (const auto& s : scenarios) {
          w.begin_object();
          w.field("name", s.name);
          w.field("cohort_degree",
                  static_cast<std::uint64_t>(s.cohort_degree));
          w.field("cohort_size", static_cast<std::uint64_t>(s.cohort_size));
          w.field("k_max", static_cast<std::uint64_t>(s.k_max));
          w.field("seed_engine_ms", s.seed_ms);
          w.field("incremental_lazy_ms", s.lazy_ms);
          w.field("parallel_lazy_ms", s.parallel_ms);
          w.field("speedup_vs_seed", s.seed_ms / s.parallel_ms);
          w.field("outputs_identical", s.identical);
          w.end_object();
        }
        w.end_array();
      });
  std::printf("wrote BENCH_study_engine.json\n");

  bool all_identical = true;
  for (const auto& s : scenarios) all_identical &= s.identical;
  return all_identical ? 0 : 1;
}
