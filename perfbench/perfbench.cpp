// The repository benchmark program (see README.md in this directory).
//
//   perfbench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//             [--users n] [--expect-checksum n]
//
// --trace 0 measures the end-to-end metrics: set-up time (input generation
// plus cohort selection, repeated kSetups times, median), then one
// warm-up pass and timed engine passes on one warm work-stealing pool of
// nproc / 2 workers (1 to 4) until --seconds have elapsed (throughput:
// operations of all timed passes over their summed time), and the
// process's peak RSS.
//
// --trace 1 measures the per-layer metrics: a serial build, one pass on
// the pool for the runtime counters, then pairs of a serial engine pass
// and a serial traced replay (replay.hpp) until --seconds have elapsed.
// The pair with the median replay time is reported.
//
// Every pass's output checksum is compared with the expected one: the
// --expect-checksum override, else the value recorded for the default
// seed, else the serial engine's. A pass that mismatches counts all of
// its operations as failed, and the process exits 1. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::Workload;

/// Set-ups per end-to-end run; set-up time is their median.
constexpr std::size_t kSetups = 5;

struct Args {
  Workload workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::size_t users = perfbench::kDefaultUsers;
  std::optional<std::uint64_t> expect;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "study_conrep|study_unconrep|serve_feed|serve_write "
               "[--seed n] [--seconds s] [--trace 0|1] [--users n] "
               "[--expect-checksum n]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(("bad value for " + flag).c_str());
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      const auto w = perfbench::find_workload(value);
      if (!w) usage("unknown workload");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      args.trace = parse_u64(flag, value) != 0;
    } else if (flag == "--users") {
      args.users = parse_u64(flag, value);
    } else if (flag == "--expect-checksum") {
      args.expect = parse_u64(flag, value);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The benchmark's set-up: scale input generation plus cohort selection.
struct Setup {
  std::optional<dosn::synth::ScaleStudyInput> input;
  std::vector<dosn::graph::UserId> cohort;
};

void build(Setup& setup, std::size_t users, std::uint64_t seed,
           dosn::util::PipelineRuntime* runtime) {
  // Free the previous input and hand its pages back to the system, so
  // every build starts as the first one did and repeated set-ups do not
  // raise the peak RSS.
  setup.input.reset();
  malloc_trim(0);
  setup.input = dosn::synth::build_scale_study_input(
      perfbench::input_config(users), seed, runtime);
  setup.cohort = dosn::graph::users_with_degree(setup.input->dataset.graph,
                                                setup.input->cohort_degree);
}

/// Metrics in output order, each with its unit.
class MetricSet {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

/// Tally of operations attempted and failed, against the expected checksum.
class Outcome {
 public:
  explicit Outcome(std::optional<std::uint64_t> expected)
      : expected_(expected) {}

  bool has_expected() const { return expected_.has_value(); }
  void set_expected(std::uint64_t checksum) {
    if (!expected_) expected_ = checksum;
  }
  /// Records one pass; its operations fail when its checksum mismatches.
  void record(std::uint64_t checksum, std::uint64_t ops) {
    passes_.push_back({checksum, ops});
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& p : passes_) n += p.ops;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& p : passes_)
      if (!expected_ || p.checksum != *expected_) n += p.ops;
    return n;
  }
  std::uint64_t expected() const { return expected_.value_or(0); }

 private:
  struct Pass {
    std::uint64_t checksum;
    std::uint64_t ops;
  };
  std::optional<std::uint64_t> expected_;
  std::vector<Pass> passes_;
};

std::uint64_t counter(const char* name) {
  return dosn::obs::Registry::global().counter(name).value();
}

int finish(const Outcome& outcome, const MetricSet& metrics) {
  const std::uint64_t attempted = outcome.attempted();
  const std::uint64_t failed = outcome.failed();
  std::printf("failed_frac: %.17g (%" PRIu64 " of %" PRIu64 " operations)\n",
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              failed, attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int run_end_to_end(const Args& args, dosn::util::ThreadPool& pool,
                   Outcome& outcome) {
  Setup setup;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    build(setup, args.users, args.seed, &pool.runtime());
    setup_s.push_back(seconds_since(start));
  }
  const auto& input = *setup.input;

  std::uint64_t ops = 0;
  outcome.record(perfbench::run_engine(args.workload, input, setup.cohort,
                                       args.seed, &pool, ops),
                 ops);  // warm-up pass
  // Throughput over the whole window, not the median pass: the host's
  // speed shifts in phases of several seconds, and a median flips between
  // the fast and the slow phase's passes from one run to the next.
  std::vector<double> ops_per_s;
  std::uint64_t timed_ops = 0;
  double timed_s = 0;
  const auto window = Clock::now();
  while (ops_per_s.size() < 2 || seconds_since(window) < args.seconds) {
    const auto start = Clock::now();
    const std::uint64_t checksum = perfbench::run_engine(
        args.workload, input, setup.cohort, args.seed, &pool, ops);
    const double pass_s = seconds_since(start);
    ops_per_s.push_back(static_cast<double>(ops) / pass_s);
    timed_ops += ops;
    timed_s += pass_s;
    outcome.record(checksum, ops);
  }
  const double rss = peak_rss_mb();
  if (!outcome.has_expected())
    outcome.set_expected(perfbench::run_engine(args.workload, input,
                                               setup.cohort, args.seed,
                                               nullptr, ops));

  std::printf("ops_per_s by pass:");
  for (const double v : ops_per_s) std::printf(" %.0f", v);
  std::printf("\npasses: %zu timed + 1 warm-up, %" PRIu64
              " operations each, cohort %zu of degree %zu, expected checksum %" PRIu64
              "\n",
              ops_per_s.size(), ops, setup.cohort.size(), input.cohort_degree,
              outcome.expected());
  MetricSet metrics;
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("ops_per_s", static_cast<double>(timed_ops) / timed_s, "1/s");
  metrics.add("peak_rss_mb", rss, "MiB");
  return finish(outcome, metrics);
}

int run_traced(const Args& args, dosn::util::ThreadPool& pool,
               Outcome& outcome) {
  Setup setup;
  auto start = Clock::now();
  build(setup, args.users, args.seed, nullptr);
  const double build_s = seconds_since(start);
  const auto& input = *setup.input;
  std::uint64_t schedule_pieces = 0;
  for (const auto& s : input.schedules) schedule_pieces += s.set().piece_count();

  // One end-to-end pass on the pool, for the runtime's scheduling counters.
  const std::uint64_t blocks_before = counter("util.runtime.blocks");
  const std::uint64_t steals_before = counter("util.runtime.steals");
  std::uint64_t ops = 0;
  const std::uint64_t parallel = perfbench::run_engine(
      args.workload, input, setup.cohort, args.seed, &pool, ops);
  const std::uint64_t blocks = counter("util.runtime.blocks") - blocks_before;
  const std::uint64_t steals = counter("util.runtime.steals") - steals_before;
  outcome.record(parallel, ops);

  struct Pair {
    double engine_s;
    perfbench::ReplayResult replay;
  };
  std::vector<Pair> pairs;
  const auto window = Clock::now();
  while (pairs.empty() || seconds_since(window) < args.seconds) {
    start = Clock::now();
    const std::uint64_t serial = perfbench::run_engine(
        args.workload, input, setup.cohort, args.seed, nullptr, ops);
    const double engine_s = seconds_since(start);
    outcome.set_expected(serial);
    outcome.record(serial, ops);
    auto replayed =
        perfbench::replay(args.workload, input, setup.cohort, args.seed);
    outcome.record(replayed.checksum, replayed.ops);
    pairs.push_back({engine_s, std::move(replayed)});
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.replay.replay_s < b.replay.replay_s;
  });
  const Pair& mid = pairs[(pairs.size() - 1) / 2];
  const auto& l = mid.replay.ledger;
  const auto layer_s = [&l](perfbench::Layer layer) {
    return l.seconds[layer];
  };
  const double replay_s = mid.replay.replay_s;
  const double attributed = l.attributed();

  std::printf("pairs: %zu (engine serial + traced replay), cohort %zu, "
              "replay checksum %" PRIu64 "\n",
              pairs.size(), setup.cohort.size(), mid.replay.checksum);
  MetricSet m;
  using perfbench::kLayerMetric;
  m.add("synth.build_s", build_s, "s");
  m.add("synth.activities", static_cast<double>(input.total_activities), "count");
  m.add("synth.activities_kept",
        static_cast<double>(input.dataset.trace.size()), "count");
  m.add("synth.schedule_pieces", static_cast<double>(schedule_pieces), "count");

  m.add(std::string(kLayerMetric[perfbench::kSelect]),
        layer_s(perfbench::kSelect), "s");
  m.add("placement.select_calls", static_cast<double>(l.select_calls), "count");
  m.add("placement.candidates", static_cast<double>(l.candidates), "count");
  m.add("placement.replicas", static_cast<double>(l.replicas), "count");
  // Every workload places replicas, so select always has calls.
  m.add("placement.select_p50_us", percentile(l.select_us, 0.50), "us");
  m.add("placement.select_p99_us", percentile(l.select_us, 0.99), "us");

  const bool evaluated = l.evaluate_calls > 0;
  m.add(std::string(kLayerMetric[perfbench::kDelay]),
        layer_s(perfbench::kDelay), "s");
  m.add("metrics.delay_pushes", static_cast<double>(l.delay_pushes), "count");
  m.add("metrics.delay_pairs", static_cast<double>(l.delay_pairs), "count");
  // Derived: evaluate_user_prefixes time less the separately replayed
  // delay work. Without evaluations both are empty spans, so the cost of
  // one more empty span stands in.
  start = Clock::now();
  const double empty_span_s = seconds_since(start);
  m.add("metrics.avail_aod_s",
        evaluated ? layer_s(perfbench::kEvaluate) - layer_s(perfbench::kDelay)
                  : empty_span_s,
        "s");

  m.add(std::string(kLayerMetric[perfbench::kEvaluate]),
        layer_s(perfbench::kEvaluate), "s");
  m.add("sim.evaluate_calls", static_cast<double>(l.evaluate_calls), "count");
  const auto evaluate_us =
      evaluated ? l.evaluate_us
                : std::vector<double>{layer_s(perfbench::kEvaluate) * 1e6};
  m.add("sim.eval_p50_us", percentile(evaluate_us, 0.50), "us");
  m.add("sim.eval_p99_us", percentile(evaluate_us, 0.99), "us");
  m.add(std::string(kLayerMetric[perfbench::kReduce]),
        layer_s(perfbench::kReduce), "s");
  m.add("sim.rows_reduced", static_cast<double>(l.rows_reduced), "count");

  m.add(std::string(kLayerMetric[perfbench::kWorkload]),
        layer_s(perfbench::kWorkload), "s");
  m.add("serve.requests", static_cast<double>(l.requests), "count");
  m.add("serve.reads", static_cast<double>(l.reads), "count");
  m.add("serve.feeds", static_cast<double>(l.feeds), "count");
  m.add("serve.writes", static_cast<double>(l.writes), "count");

  m.add("serve.groups_realized", static_cast<double>(l.groups_realized),
        "count");
  m.add(std::string(kLayerMetric[perfbench::kSessions]),
        layer_s(perfbench::kSessions), "s");
  m.add("net.fault.intervals", static_cast<double>(l.fault_intervals), "count");
  m.add(std::string(kLayerMetric[perfbench::kUnion]),
        layer_s(perfbench::kUnion), "s");
  m.add("interval.add_calls", static_cast<double>(l.add_calls), "count");

  m.add(std::string(kLayerMetric[perfbench::kReplicaSim]),
        layer_s(perfbench::kReplicaSim), "s");
  m.add("net.replica_sim.calls", static_cast<double>(l.replica_sim_calls),
        "count");
  m.add("net.replica_sim.events", static_cast<double>(l.replica_sim_events),
        "count");
  m.add("net.replica_sim.updates", static_cast<double>(l.replica_sim_updates),
        "count");

  // Residual: the serial serving study's wall time less the layers the
  // replay timed (request resolution, group lookups and the merge).
  start = Clock::now();
  const double resolve_empty_s = seconds_since(start);
  m.add("serve.resolve_merge_s",
        args.workload.study
            ? resolve_empty_s
            : mid.engine_s - layer_s(perfbench::kWorkload) -
                  layer_s(perfbench::kSelect) - layer_s(perfbench::kSessions) -
                  layer_s(perfbench::kUnion) - layer_s(perfbench::kReplicaSim),
        "s");

  m.add("util.runtime.blocks", static_cast<double>(blocks), "count");
  m.add("util.runtime.steals", static_cast<double>(steals), "count");

  m.add("trace.engine_serial_s", mid.engine_s, "s");
  m.add("trace.replay_s", replay_s, "s");
  m.add("trace.overhead_s", replay_s - mid.engine_s, "s");
  m.add("trace.unattributed_s", replay_s - attributed, "s");
  return finish(outcome, m);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Half the cores, at most 4. The serving study takes a shard lock for
  // every group lookup and realizes groups under it, so on a shared host a
  // pool as wide as the machine times the neighbours' load through
  // lock-holder stalls.
  const std::size_t width = std::clamp<std::size_t>(nproc / 2, 1, 4);
  dosn::util::ThreadPool pool(dosn::util::RuntimeOptions{.threads = width});

  std::optional<std::uint64_t> expected = args.expect;
  if (!expected)
    expected = perfbench::recorded_checksum(args.workload.name, args.users,
                                            args.seed);
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"users\": %zu, \"trace\": %d, \"nproc\": %zu, "
              "\"pool_width\": %zu, \"build_type\": \"%s\", "
              "\"expected\": \"%s\"}}\n",
              args.workload.name.c_str(), args.seed, args.users,
              args.trace ? 1 : 0, nproc, width, PERFBENCH_BUILD_TYPE,
              args.expect ? "override"
              : expected  ? "recorded"
                          : "serial engine");
  Outcome outcome(expected);
  try {
    return args.trace ? run_traced(args, pool, outcome)
                      : run_end_to_end(args, pool, outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
