// Million-user scale benchmark: chunked generation plus the sharded
// study engine at N = 100k / 500k / 1M synthetic users, written to
// BENCH_scale.json.
//
// Per population size the harness measures
//   * gen_ms           — chunked dataset construction with one fold
//                        worker (graph + all schedules + the
//                        cohort-restricted trace; the full activity trace
//                        is never materialized);
//   * gen_pipelined_ms — the same construction with the fold stages on the
//                        shared work-stealing runtime (DESIGN.md §12).
//                        Its output is checksummed against the one-worker
//                        build — bit-identity is part of
//                        outputs_identical;
//   * sweep times      — the same replication sweep run serial (threads =
//                        1), parallel on the shared pool, and parallel
//                        with a different shard size. The three sweep
//                        outputs must agree bit for bit: the study
//                        engine's determinism contract;
//   * pool counters    — per-configuration deltas of the thread-pool and
//                        runtime counters (jobs, blocks, steals), so the
//                        report shows which configurations actually ran
//                        parallel (the old report's top-level "threads"
//                        misreported this);
//   * peak_rss_mb      — getrusage high-water mark after each phase.
//
// Thread counts are recorded per scenario: threads_serial is always 1,
// threads_parallel is max(2, default_thread_count()) — floored at 2 so
// the work-stealing runtime is exercised (and its determinism contract
// checked) even on a single-core runner, where the "parallel" timings
// then measure oversubscription overhead, not speedup; hardware_threads
// (top-level and per scenario) records what the machine actually had, and
// per-scenario "oversubscribed" flags threads_parallel > hardware_threads
// so the committed-baseline caveat travels with the numbers. The
// top-level "threads" field is the configured maximum across the
// serial/parallel/reshard configurations, not whichever ran last.
//
// Environment knobs: DOSN_SCALE_USERS (comma-separated population sizes,
// default "100000,500000,1000000" — CI smoke runs just 100000),
// DOSN_BENCH_SEED, DOSN_THREADS, DOSN_OBS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/export.hpp"
#include "sim/study.hpp"
#include "synth/scale.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::size_t> scale_users() {
  std::string spec = "100000,500000,1000000";
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at study startup.
  if (const char* s = std::getenv("DOSN_SCALE_USERS"); s && *s) spec = s;
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty())
      out.push_back(static_cast<std::size_t>(dosn::util::parse_i64(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Order-sensitive FNV-1a digest of everything a scale input determines:
/// cohort, every schedule's interval pieces, and the restricted trace.
/// Serial and pipelined builds must digest identically.
std::uint64_t input_checksum(const dosn::synth::ScaleStudyInput& input) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(input.total_activities);
  mix(input.cohort_degree);
  mix(input.cohort.size());
  for (const auto u : input.cohort) mix(u);
  mix(input.schedules.size());
  for (const auto& schedule : input.schedules) {
    for (const auto& piece : schedule.set().pieces()) {
      mix(static_cast<std::uint64_t>(piece.start));
      mix(static_cast<std::uint64_t>(piece.end));
    }
  }
  mix(input.dataset.trace.size());
  for (const auto& a : input.dataset.trace.all()) {
    mix(a.creator);
    mix(a.receiver);
    mix(static_cast<std::uint64_t>(a.timestamp));
  }
  return h;
}

/// Snapshot of the pool/runtime counters; per-configuration deltas show
/// which sweep actually fanned out and how much stealing rebalanced it.
struct PoolCounters {
  std::uint64_t jobs = 0;
  std::uint64_t serial_jobs = 0;
  std::uint64_t chunks = 0;
  std::uint64_t runtime_blocks = 0;
  std::uint64_t runtime_steals = 0;

  static PoolCounters snapshot() {
    auto& registry = dosn::obs::Registry::global();
    PoolCounters c;
    c.jobs = registry.counter("util.thread_pool.jobs").value();
    c.serial_jobs = registry.counter("util.thread_pool.serial_jobs").value();
    c.chunks = registry.counter("util.thread_pool.chunks").value();
    c.runtime_blocks = registry.counter("util.runtime.blocks").value();
    c.runtime_steals = registry.counter("util.runtime.steals").value();
    return c;
  }

  PoolCounters delta_since(const PoolCounters& before) const {
    return {jobs - before.jobs, serial_jobs - before.serial_jobs,
            chunks - before.chunks, runtime_blocks - before.runtime_blocks,
            runtime_steals - before.runtime_steals};
  }
};

struct Scenario {
  std::size_t users = 0;
  std::size_t cohort_degree = 0;
  std::size_t cohort_size = 0;
  std::uint64_t activities_total = 0;
  std::uint64_t activities_retained = 0;
  double gen_ms = 0;
  double gen_pipelined_ms = 0;
  bool gen_identical = false;
  double gen_peak_rss_mb = 0;
  double sweep_serial_ms = 0;
  double sweep_parallel_ms = 0;
  double sweep_reshard_ms = 0;
  PoolCounters pool_serial;
  PoolCounters pool_parallel;
  PoolCounters pool_reshard;
  std::uint64_t checksum = 0;
  bool identical = false;
  double peak_rss_mb = 0;
};

void write_pool_counters(dosn::util::JsonWriter& w, const std::string& prefix,
                         const PoolCounters& c) {
  w.field(prefix + "_jobs", c.jobs);
  w.field(prefix + "_serial_jobs", c.serial_jobs);
  w.field(prefix + "_chunks", c.chunks);
  w.field(prefix + "_runtime_blocks", c.runtime_blocks);
  w.field(prefix + "_runtime_steals", c.runtime_steals);
}

}  // namespace

int main() {
  const std::uint64_t seed = dosn::bench::bench_seed();
  // Floor at 2: on a single-core runner the parallel configurations then
  // exercise (and cross-check) the work-stealing runtime under
  // oversubscription instead of silently degenerating to the serial path.
  const std::size_t parallel_threads =
      std::max<std::size_t>(2, dosn::bench::hardware_threads());

  // Every configuration runs with either 1 thread (serial reference) or
  // parallel_threads; the report's top-level "threads" is their maximum,
  // independent of which configuration happened to run last.
  const std::size_t max_threads =
      std::max<std::size_t>(1, parallel_threads);

  dosn::util::ThreadPool pool(
      dosn::util::RuntimeOptions{.threads = parallel_threads});

  std::vector<Scenario> scenarios;
  bool all_identical = true;

  for (const std::size_t users : scale_users()) {
    Scenario s;
    s.users = users;

    dosn::synth::ScaleInputConfig config;
    dosn::synth::ScaleOptions opts;
    opts.users = users;
    config.preset = dosn::synth::scale_preset(opts);

    // One-worker generation: the reference build and timing.
    std::uint64_t serial_gen_checksum = 0;
    {
      const auto gen_start = Clock::now();
      const auto serial_input =
          dosn::synth::build_scale_study_input(config, seed);
      s.gen_ms = ms_since(gen_start);
      serial_gen_checksum = input_checksum(serial_input);
    }
    s.gen_peak_rss_mb = dosn::bench::peak_rss_mb();

    // Generation with the fold stages on the shared runtime. Must rebuild
    // the one-worker input bit for bit.
    const auto gen_pipelined_start = Clock::now();
    const auto input =
        dosn::synth::build_scale_study_input(config, seed, &pool.runtime());
    s.gen_pipelined_ms = ms_since(gen_pipelined_start);
    s.gen_identical = input_checksum(input) == serial_gen_checksum;

    s.cohort_degree = input.cohort_degree;
    s.activities_total = input.total_activities;
    s.activities_retained = input.dataset.trace.size();

    dosn::sim::Study study(input.dataset, seed);
    dosn::sim::Study::Options options;
    options.cohort_degree = input.cohort_degree;
    options.k_max = 10;
    options.repetitions = 3;
    options.policies = {dosn::placement::PolicyKind::kMaxAv,
                        dosn::placement::PolicyKind::kRandom};
    // A million users yield tens of thousands of degree-d cohort members;
    // cap the evaluated prefix so the sweep time stays bounded while the
    // generation still exercises the full population.
    options.cohort_limit = 20'000;
    s.cohort_size = std::min(study.cohort(options.cohort_degree).size(),
                             options.cohort_limit);

    const auto sweep_with = [&](dosn::util::ThreadPool* shared,
                                std::size_t shard_size) {
      auto o = options;
      o.threads = 1;
      o.pool = shared;
      o.shard_size = shard_size;
      return study.replication_sweep(
          input.schedules, input.model_name,
          dosn::placement::Connectivity::kConRep, o);
    };

    auto counters_before = PoolCounters::snapshot();
    auto start = Clock::now();
    const auto serial = sweep_with(nullptr, 1024);
    s.sweep_serial_ms = ms_since(start);
    s.pool_serial = PoolCounters::snapshot().delta_since(counters_before);

    counters_before = PoolCounters::snapshot();
    start = Clock::now();
    const auto parallel = sweep_with(&pool, 1024);
    s.sweep_parallel_ms = ms_since(start);
    s.pool_parallel = PoolCounters::snapshot().delta_since(counters_before);

    counters_before = PoolCounters::snapshot();
    start = Clock::now();
    const auto resharded = sweep_with(&pool, 257);
    s.sweep_reshard_ms = ms_since(start);
    s.pool_reshard = PoolCounters::snapshot().delta_since(counters_before);

    s.checksum = dosn::sim::sweep_checksum(serial);
    s.identical = s.gen_identical &&
                  s.checksum == dosn::sim::sweep_checksum(parallel) &&
                  s.checksum == dosn::sim::sweep_checksum(resharded);
    all_identical &= s.identical;
    s.peak_rss_mb = dosn::bench::peak_rss_mb();

    std::printf(
        "scale N=%-8zu cohort=%zu(deg %zu)  activities=%llu (kept %llu)  "
        "gen=%.0fms gen_pipe=%.0fms  serial=%.0fms  parallel(%zu)=%.0fms  "
        "reshard=%.0fms  steals=%llu  rss=%.0fMiB  identical=%s\n",
        s.users, s.cohort_size, s.cohort_degree,
        static_cast<unsigned long long>(s.activities_total),
        static_cast<unsigned long long>(s.activities_retained), s.gen_ms,
        s.gen_pipelined_ms, s.sweep_serial_ms, parallel_threads,
        s.sweep_parallel_ms, s.sweep_reshard_ms,
        static_cast<unsigned long long>(s.pool_parallel.runtime_steals +
                                        s.pool_reshard.runtime_steals),
        s.peak_rss_mb, s.identical ? "yes" : "NO");
    scenarios.push_back(s);
  }

  if (dosn::obs::enabled()) {
    std::printf("\nobservability snapshot:\n%s\n",
                dosn::obs::to_table(dosn::obs::Registry::global().snapshot())
                    .c_str());
  }

  dosn::bench::write_bench_json(
      "BENCH_scale.json", "scale_study", seed, max_threads,
      [&](dosn::util::JsonWriter& w) {
        dosn::bench::write_hardware_fields(w);
        w.key("scenarios");
        w.begin_array();
        for (const auto& s : scenarios) {
          w.begin_object();
          w.field("name", "scale_" + std::to_string(s.users));
          w.field("users", static_cast<std::uint64_t>(s.users));
          w.field("cohort_degree",
                  static_cast<std::uint64_t>(s.cohort_degree));
          w.field("cohort_size", static_cast<std::uint64_t>(s.cohort_size));
          w.field("activities_total", s.activities_total);
          w.field("activities_retained", s.activities_retained);
          w.field("threads_serial", static_cast<std::uint64_t>(1));
          w.field("threads_parallel",
                  static_cast<std::uint64_t>(parallel_threads));
          dosn::bench::write_hardware_fields(w, parallel_threads);
          w.field("gen_ms", s.gen_ms);
          w.field("gen_pipelined_ms", s.gen_pipelined_ms);
          w.field("gen_identical", s.gen_identical);
          w.field("gen_peak_rss_mb", s.gen_peak_rss_mb);
          w.field("sweep_serial_ms", s.sweep_serial_ms);
          w.field("sweep_parallel_ms", s.sweep_parallel_ms);
          w.field("sweep_reshard_ms", s.sweep_reshard_ms);
          write_pool_counters(w, "pool_serial", s.pool_serial);
          write_pool_counters(w, "pool_parallel", s.pool_parallel);
          write_pool_counters(w, "pool_reshard", s.pool_reshard);
          w.field("checksum", s.checksum);
          w.field("outputs_identical", s.identical);
          w.field("peak_rss_mb", s.peak_rss_mb);
          w.end_object();
        }
        w.end_array();
      });
  std::printf("wrote BENCH_scale.json\n");

  return all_identical ? 0 : 1;
}
