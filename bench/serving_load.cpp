// Request-level serving benchmark: latency SLOs under load, written to
// BENCH_serving.json.
//
// Per population size (synth scale presets) the harness builds the scale
// study input once, then runs the serving study (src/serve) over a capped
// cohort prefix for four configurations:
//
//   * maxav_conrep    — MaxAv placement, connected replicas, no faults;
//   * maxav_unconrep  — MaxAv against the persistent relay (plus a relay
//                       outage window, exercising the fallback path);
//   * random_conrep   — Random placement baseline;
//   * maxav_stressed  — MaxAv/ConRep under a half-intensity churn plan
//                       with a 2 s DECENT-style crypto tax per op.
//
// Every configuration runs at threads 1 (serial reference), 2, 4 and 8 on
// the work-stealing pool; the four ServingReports must agree bit for bit
// (outputs_identical, enforced by a nonzero exit code) — the request-log
// checksum is the parallel-correctness probe. Reported per scenario:
// p50/p99/p999 over all served requests, per-kind p50/p99, goodput
// (requests inside the SLO per simulated second), the SLO-miss fraction,
// and per-thread-count wall times. The report's top-level
// process_peak_rss_mb is the process high-water mark over every scenario
// (getrusage is monotone, so a per-scenario sample would only inherit the
// earlier scenarios' peaks). hardware_threads and an
// `oversubscribed` flag are recorded per scenario so a single-core CI
// runner's timings are not mistaken for a parallel-scaling measurement.
//
// Environment knobs: DOSN_SERVE_USERS (comma-separated population sizes,
// default "100000,1000000" — CI smoke runs just 100000), DOSN_BENCH_SEED,
// DOSN_OBS.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/export.hpp"
#include "serve/serving.hpp"
#include "synth/scale.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using dosn::interval::Seconds;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::size_t> serve_users() {
  std::string spec = "100000,1000000";
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at startup.
  if (const char* s = std::getenv("DOSN_SERVE_USERS"); s && *s) spec = s;
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

/// The serving configurations the benchmark sweeps (mixed policies and
/// connectivity regimes, per the serving-layer design).
struct ServeCase {
  std::string name;
  dosn::placement::PolicyKind policy;
  dosn::placement::Connectivity connectivity;
  double fault_intensity = 0.0;
  Seconds crypto_op_cost = 0;
};

std::vector<ServeCase> serve_cases() {
  using dosn::placement::Connectivity;
  using dosn::placement::PolicyKind;
  return {
      {"maxav_conrep", PolicyKind::kMaxAv, Connectivity::kConRep, 0.0, 0},
      {"maxav_unconrep", PolicyKind::kMaxAv, Connectivity::kUnconRep, 0.0, 0},
      {"random_conrep", PolicyKind::kRandom, Connectivity::kConRep, 0.0, 0},
      {"maxav_stressed", PolicyKind::kMaxAv, Connectivity::kConRep, 0.5, 2},
  };
}

/// Churn-plus-relay base plan the stressed case scales down; the relay
/// window also exercises the UnconRep fallback when intensity > 0.
dosn::net::FaultPlan stress_plan(std::uint64_t seed) {
  dosn::net::FaultPlan plan;
  plan.seed = seed ^ 0x5eedf417ULL;
  plan.session_no_show = 0.25;
  plan.session_truncate = 0.25;
  plan.truncate_max_fraction = 0.6;
  plan.relay_outages.push_back(
      {dosn::interval::kDaySeconds, 2 * dosn::interval::kDaySeconds});
  return plan;
}

struct Scenario {
  std::string name;
  std::size_t users = 0;
  std::string policy;
  std::string connectivity;
  double fault_intensity = 0.0;
  Seconds crypto_op_cost = 0;
  std::size_t served_users = 0;
  std::size_t cohort_degree = 0;
  std::uint64_t requests = 0;
  std::uint64_t unserved = 0;
  std::uint64_t slo_misses = 0;
  double slo_miss_fraction = 0.0;
  double goodput_rps = 0.0;
  Seconds p50_s = 0, p99_s = 0, p999_s = 0;
  Seconds read_p50_s = 0, read_p99_s = 0;
  Seconds feed_p50_s = 0, feed_p99_s = 0;
  Seconds write_p50_s = 0, write_p99_s = 0;
  std::array<double, 4> run_ms{};  // threads 1, 2, 4, 8
  std::uint64_t checksum = 0;
  bool identical = false;
};

}  // namespace

int main() {
  const std::uint64_t seed = dosn::bench::bench_seed();
  constexpr std::array<std::size_t, 4> kThreadCounts{1, 2, 4, 8};
  constexpr std::size_t kServedCap = 2000;

  std::vector<Scenario> scenarios;
  bool all_identical = true;

  for (const std::size_t users : serve_users()) {
    dosn::synth::ScaleInputConfig input_config;
    dosn::synth::ScaleOptions opts;
    opts.users = users;
    input_config.preset = dosn::synth::scale_preset(opts);
    const auto gen_start = Clock::now();
    const auto input = dosn::synth::build_scale_study_input(input_config, seed);
    std::printf("serve N=%-8zu input built in %.0fms (cohort %zu, deg %zu)\n",
                users, ms_since(gen_start), input.cohort.size(),
                input.cohort_degree);

    for (const auto& c : serve_cases()) {
      dosn::serve::ServingConfig config;
      config.policy = c.policy;
      config.connectivity = c.connectivity;
      config.replicas = 5;
      config.served_users = kServedCap;
      config.crypto_op_cost = c.crypto_op_cost;
      if (c.fault_intensity > 0.0)
        config.faults = dosn::net::scaled(stress_plan(seed), c.fault_intensity);
      else if (c.connectivity == dosn::placement::Connectivity::kUnconRep)
        config.faults.relay_outages = stress_plan(seed).relay_outages;

      Scenario s;
      s.name = "serve_" + std::to_string(users) + "_" + c.name;
      s.users = users;
      s.policy = to_string(c.policy);
      s.connectivity = to_string(c.connectivity);
      s.fault_intensity = c.fault_intensity;
      s.crypto_op_cost = c.crypto_op_cost;
      s.cohort_degree = input.cohort_degree;

      dosn::serve::ServingReport reference;
      s.identical = true;
      for (std::size_t i = 0; i < kThreadCounts.size(); ++i) {
        const std::size_t threads = kThreadCounts[i];
        const auto start = Clock::now();
        dosn::serve::ServingReport report;
        if (threads == 1) {
          report = run_serving_study(input.dataset, input.schedules,
                                     input.cohort, seed, config);
        } else {
          dosn::util::ThreadPool pool(
              dosn::util::RuntimeOptions{.threads = threads});
          report = run_serving_study(input.dataset, input.schedules,
                                     input.cohort, seed, config, &pool);
        }
        s.run_ms[i] = ms_since(start);
        if (threads == 1)
          reference = report;
        else
          s.identical &= report == reference;
      }

      s.served_users = reference.served_users;
      s.requests = reference.requests;
      s.unserved = reference.unserved;
      s.slo_misses = reference.slo_misses;
      s.slo_miss_fraction = reference.slo_miss_fraction();
      s.goodput_rps = reference.goodput_rps();
      s.p50_s = reference.latency.quantile(0.50);
      s.p99_s = reference.latency.quantile(0.99);
      s.p999_s = reference.latency.quantile(0.999);
      s.read_p50_s = reference.read.latency.quantile(0.50);
      s.read_p99_s = reference.read.latency.quantile(0.99);
      s.feed_p50_s = reference.feed.latency.quantile(0.50);
      s.feed_p99_s = reference.feed.latency.quantile(0.99);
      s.write_p50_s = reference.write.latency.quantile(0.50);
      s.write_p99_s = reference.write.latency.quantile(0.99);
      s.checksum = reference.request_log_checksum;
      all_identical &= s.identical;

      std::printf(
          "  %-16s p50=%llds p99=%llds p999=%llds  goodput=%.3frps  "
          "miss=%.3f  unserved=%llu/%llu  t1=%.0fms t2=%.0fms t4=%.0fms "
          "t8=%.0fms  identical=%s\n",
          c.name.c_str(), static_cast<long long>(s.p50_s),
          static_cast<long long>(s.p99_s), static_cast<long long>(s.p999_s),
          s.goodput_rps, s.slo_miss_fraction,
          static_cast<unsigned long long>(s.unserved),
          static_cast<unsigned long long>(s.requests), s.run_ms[0],
          s.run_ms[1], s.run_ms[2], s.run_ms[3],
          s.identical ? "yes" : "NO");
      scenarios.push_back(s);
    }
  }

  if (dosn::obs::enabled()) {
    std::printf("\nobservability snapshot:\n%s\n",
                dosn::obs::to_table(dosn::obs::Registry::global().snapshot())
                    .c_str());
  }

  // Top-level "threads" is the configured maximum across the per-scenario
  // runs (the per-thread-count timings carry the detail).
  dosn::bench::write_bench_json(
      "BENCH_serving.json", "serving_load", seed, kThreadCounts.back(),
      [&](dosn::util::JsonWriter& w) {
        dosn::bench::write_hardware_fields(w);
        w.field("process_peak_rss_mb", dosn::bench::peak_rss_mb());
        w.key("scenarios");
        w.begin_array();
        for (const auto& s : scenarios) {
          w.begin_object();
          w.field("name", s.name);
          w.field("users", static_cast<std::uint64_t>(s.users));
          w.field("policy", s.policy);
          w.field("connectivity", s.connectivity);
          w.field("fault_intensity", s.fault_intensity);
          w.field("crypto_op_cost_s",
                  static_cast<std::uint64_t>(s.crypto_op_cost));
          w.field("served_users", static_cast<std::uint64_t>(s.served_users));
          w.field("cohort_degree",
                  static_cast<std::uint64_t>(s.cohort_degree));
          w.field("requests", s.requests);
          w.field("unserved", s.unserved);
          w.field("slo_misses", s.slo_misses);
          w.field("slo_miss_fraction", s.slo_miss_fraction);
          w.field("goodput_rps", s.goodput_rps);
          w.field("p50_s", static_cast<std::uint64_t>(s.p50_s));
          w.field("p99_s", static_cast<std::uint64_t>(s.p99_s));
          w.field("p999_s", static_cast<std::uint64_t>(s.p999_s));
          w.field("read_p50_s", static_cast<std::uint64_t>(s.read_p50_s));
          w.field("read_p99_s", static_cast<std::uint64_t>(s.read_p99_s));
          w.field("feed_p50_s", static_cast<std::uint64_t>(s.feed_p50_s));
          w.field("feed_p99_s", static_cast<std::uint64_t>(s.feed_p99_s));
          w.field("write_p50_s", static_cast<std::uint64_t>(s.write_p50_s));
          w.field("write_p99_s", static_cast<std::uint64_t>(s.write_p99_s));
          w.field("run_t1_ms", s.run_ms[0]);
          w.field("run_t2_ms", s.run_ms[1]);
          w.field("run_t4_ms", s.run_ms[2]);
          w.field("run_t8_ms", s.run_ms[3]);
          dosn::bench::write_hardware_fields(w, kThreadCounts.back());
          w.field("checksum", s.checksum);
          w.field("outputs_identical", s.identical);
          w.end_object();
        }
        w.end_array();
      });
  std::printf("wrote BENCH_serving.json\n");

  return all_identical ? 0 : 1;
}
