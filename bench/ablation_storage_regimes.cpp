// Storage-regime ablation: MaxAv+ConRep vs. DHT vs. socially-aware DHT
// vs. super-peer storekeepers, written to BENCH_storage_regimes.json.
//
// Per population size (synth scale presets, default 100000 and 1000000
// users) the harness builds the scale study input once and runs the
// serving study (src/serve) for four storage regimes
//
//   * maxav_conrep — the paper's regime: MaxAv friend replication under
//     ConRep (the baseline every alternative is compared against);
//   * plain_dht    — profiles on a Chord ring over all users, plain
//     per-user keys (net/social_dht with the remap off);
//   * social_dht   — the same ring with the friend-clustered key remap:
//     cluster-mates share owner arcs, so feed fan-in resolves many
//     friends through one contacted owner (replica-locality hits);
//   * super_peer   — MaxAv selection extended by SuperNova-style
//     volunteer storekeepers for groups below the availability target;
//
// under three fault scenarios: zero (no fault ever fires), churn_burst
// (a correlated no-show storm on mild background churn) and
// regional_outage (one region down for two days on the same base churn).
// Reported per (population, regime, scenario): the four comparison axes —
// delivered availability (realized group-union online fraction), access
// delay (p50/p99 over all served requests), replication degree (group
// members beyond the owner, storekeepers included) and mean lookup hops
// (with the replica-locality hit count) — plus unserved counts and
// per-thread-count wall times.
//
// Every cell runs at threads {1, 2, 4, 8}; the four ServingReports must
// agree bit for bit (outputs_identical — the whole-report equality, not
// just the request-log checksum). The harness additionally asserts, and
// exits nonzero when violated:
//
//   * social_dht mean lookup hops <= plain_dht mean lookup hops, and the
//     remap produces replica-locality hits — the clustering pays;
//   * super_peer delivered availability >= maxav_conrep and unserved
//     requests <= maxav_conrep, per scenario — the storekeeper tier only
//     widens the serving surface.
//
// Environment knobs: DOSN_REGIME_USERS (comma-separated population
// sizes, default "100000,1000000" — CI smoke runs just 100000),
// DOSN_BENCH_SEED, DOSN_OBS.
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

std::vector<std::size_t> regime_users() {
  std::string spec = "100000,1000000";
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at startup.
  if (const char* s = std::getenv("DOSN_REGIME_USERS"); s && *s) spec = s;
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

/// The three fault scenarios every regime is measured under. The non-zero
/// classes layer a composite window (net/scenario.hpp text form) on mild
/// background churn — the same shapes the resilience bench sweeps.
struct FaultCase {
  std::string name;
  std::string spec;  // empty = the zero plan
};

std::vector<FaultCase> fault_cases() {
  return {
      {"zero", ""},
      {"churn_burst",
       "churn_burst start=518400 end=691200 no_show=0.8 participation=0.9\n"},
      {"regional_outage",
       "regional_outage regions=3 region=0 start=259200 end=432000 "
       "participation=1\n"},
  };
}

dosn::net::FaultPlan fault_plan(std::uint64_t seed, const FaultCase& f) {
  dosn::net::FaultPlan plan;
  if (f.spec.empty()) return plan;  // the zero plan
  plan.seed = seed ^ 0x5ce9a410ULL;
  plan.session_no_show = 0.15;
  plan.session_truncate = 0.15;
  plan.truncate_max_fraction = 0.5;
  plan.scenario = dosn::net::parse_scenario(f.spec);
  return plan;
}

/// One storage regime under test. Every case keeps MaxAv/ConRep and the
/// replica budget 5 so the regimes differ only in where profiles live.
struct RegimeCase {
  std::string name;
  dosn::placement::StorageRegime regime;
  bool socially_aware = false;
};

std::vector<RegimeCase> regime_cases() {
  using dosn::placement::StorageRegime;
  return {
      {"maxav_conrep", StorageRegime::kReplicaGroup, false},
      {"plain_dht", StorageRegime::kSocialDht, false},
      {"social_dht", StorageRegime::kSocialDht, true},
      {"super_peer", StorageRegime::kSuperPeer, false},
  };
}

dosn::serve::ServingConfig regime_config(const RegimeCase& r,
                                         const dosn::net::FaultPlan& plan,
                                         std::size_t served_cap) {
  dosn::serve::ServingConfig config;
  config.policy = dosn::placement::PolicyKind::kMaxAv;
  config.connectivity = dosn::placement::Connectivity::kConRep;
  config.replicas = 5;
  config.served_users = served_cap;
  config.faults = plan;
  config.regime = r.regime;
  // Ring knobs: the replica budget matched to the group regimes, a
  // per-hop routing tax small against the SLO but visible in p50.
  config.social_dht.replication = 5;
  config.social_dht.socially_aware = r.socially_aware;
  config.social_dht.cluster_cap = 16;
  config.social_dht.hop_cost = 5;
  // Storekeeper knobs from the Sporadic coverage distribution (median
  // ~0.06, p95 ~0.21): the threshold admits roughly the top 5% of users
  // as volunteers, and the target is far above what a friend group
  // reaches on its own, so the tier visibly steps in.
  config.super_peer.volunteer_threshold = 0.2;
  config.super_peer.target_availability = 0.5;
  config.super_peer.max_storekeepers = 8;
  return config;
}

struct Cell {
  std::string name;
  std::size_t users = 0;
  std::string regime;
  std::string scenario;
  std::size_t served_users = 0;
  double availability = 0.0;
  double replication_degree = 0.0;
  double mean_lookup_hops = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t locality_hits = 0;
  std::uint64_t storekeepers = 0;
  std::uint64_t requests = 0;
  std::uint64_t unserved = 0;
  double slo_miss_fraction = 0.0;
  Seconds p50_s = 0, p99_s = 0;
  std::array<double, 4> run_ms{};  // threads 1, 2, 4, 8
  std::uint64_t checksum = 0;
  bool identical = false;
};

/// Property verdicts in the shape tools/check_bench_regression.py
/// consumes (one outputs_identical boolean per named check).
struct GateCheck {
  std::string name;
  bool ok = false;
};

}  // namespace

int main() {
  const std::uint64_t seed = dosn::bench::bench_seed();
  constexpr std::array<std::size_t, 4> kThreadCounts{1, 2, 4, 8};
  constexpr std::size_t kServedCap = 500;

  std::vector<Cell> cells;
  std::vector<GateCheck> checks;
  bool all_ok = true;

  for (const std::size_t users : regime_users()) {
    dosn::synth::ScaleInputConfig input_config;
    dosn::synth::ScaleOptions opts;
    opts.users = users;
    input_config.preset = dosn::synth::scale_preset(opts);
    const auto gen_start = Clock::now();
    const auto input = dosn::synth::build_scale_study_input(input_config, seed);
    std::printf("regimes N=%-8zu input built in %.0fms (cohort %zu, deg %zu)\n",
                users, ms_since(gen_start), input.cohort.size(),
                input.cohort_degree);

    // cells[fault][regime] indices into `cells` for the property checks.
    std::vector<std::vector<std::size_t>> index;

    for (const auto& f : fault_cases()) {
      index.emplace_back();
      const auto plan = fault_plan(seed, f);
      for (const auto& r : regime_cases()) {
        const auto config = regime_config(r, plan, kServedCap);

        Cell c;
        c.name = "regimes_" + std::to_string(users) + "_" + r.name + "_" +
                 f.name;
        c.users = users;
        c.regime = r.name;
        c.scenario = f.name;

        dosn::serve::ServingReport reference;
        c.identical = true;
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
          c.run_ms[i] = ms_since(start);
          if (threads == 1)
            reference = report;
          else
            c.identical &= report == reference;
        }

        c.served_users = reference.served_users;
        c.availability = reference.regime.availability(reference.horizon);
        c.replication_degree = reference.regime.replication_degree();
        c.mean_lookup_hops = reference.regime.mean_lookup_hops();
        c.lookups = reference.regime.lookups;
        c.locality_hits = reference.regime.locality_hits;
        c.storekeepers = reference.regime.storekeepers;
        c.requests = reference.requests;
        c.unserved = reference.unserved;
        c.slo_miss_fraction = reference.slo_miss_fraction();
        c.p50_s = reference.latency.quantile(0.50);
        c.p99_s = reference.latency.quantile(0.99);
        c.checksum = reference.request_log_checksum;
        all_ok &= c.identical;

        std::printf(
            "  %-13s %-15s avail=%.3f repl=%.2f hops=%.2f local=%llu "
            "keep=%llu p50=%llds p99=%llds miss=%.3f unserved=%llu/%llu "
            "t1=%.0fms identical=%s\n",
            r.name.c_str(), f.name.c_str(), c.availability,
            c.replication_degree, c.mean_lookup_hops,
            static_cast<unsigned long long>(c.locality_hits),
            static_cast<unsigned long long>(c.storekeepers),
            static_cast<long long>(c.p50_s), static_cast<long long>(c.p99_s),
            c.slo_miss_fraction, static_cast<unsigned long long>(c.unserved),
            static_cast<unsigned long long>(c.requests), c.run_ms[0],
            c.identical ? "yes" : "NO");

        index.back().push_back(cells.size());
        cells.push_back(c);
      }
    }

    // The headline comparisons, per scenario: regimes are rows 0..3 of
    // each index entry in regime_cases() order.
    const auto faults = fault_cases();
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const Cell& conrep = cells[index[fi][0]];
      const Cell& plain = cells[index[fi][1]];
      const Cell& social = cells[index[fi][2]];
      const Cell& super = cells[index[fi][3]];
      const std::string tag =
          std::to_string(users) + "_" + faults[fi].name;

      const bool hops_ok =
          social.mean_lookup_hops <= plain.mean_lookup_hops &&
          social.locality_hits > 0;
      checks.push_back({"social_hops_le_plain_" + tag, hops_ok});
      if (!hops_ok)
        std::printf("FAIL: social_dht hops %.3f > plain %.3f (or no "
                    "locality hits) [%s]\n",
                    social.mean_lookup_hops, plain.mean_lookup_hops,
                    tag.c_str());

      const bool super_ok = super.availability >= conrep.availability &&
                            super.unserved <= conrep.unserved;
      checks.push_back({"superpeer_ge_conrep_" + tag, super_ok});
      if (!super_ok)
        std::printf("FAIL: super_peer avail=%.3f unserved=%llu vs conrep "
                    "avail=%.3f unserved=%llu [%s]\n",
                    super.availability,
                    static_cast<unsigned long long>(super.unserved),
                    conrep.availability,
                    static_cast<unsigned long long>(conrep.unserved),
                    tag.c_str());
      all_ok &= hops_ok && super_ok;
    }
  }

  if (dosn::obs::enabled()) {
    std::printf("\nobservability snapshot:\n%s\n",
                dosn::obs::to_table(dosn::obs::Registry::global().snapshot())
                    .c_str());
  }

  dosn::bench::write_bench_json(
      "BENCH_storage_regimes.json", "ablation_storage_regimes", seed,
      kThreadCounts.back(), [&](dosn::util::JsonWriter& w) {
        w.field("served_users", static_cast<std::uint64_t>(kServedCap));
        dosn::bench::write_hardware_fields(w, kThreadCounts.back());
        w.key("scenarios");
        w.begin_array();
        for (const auto& c : cells) {
          w.begin_object();
          w.field("name", c.name);
          w.field("users", static_cast<std::uint64_t>(c.users));
          w.field("regime", c.regime);
          w.field("fault_scenario", c.scenario);
          w.field("served_users", static_cast<std::uint64_t>(c.served_users));
          w.field("availability", c.availability);
          w.field("replication_degree", c.replication_degree);
          w.field("mean_lookup_hops", c.mean_lookup_hops);
          w.field("lookups", c.lookups);
          w.field("locality_hits", c.locality_hits);
          w.field("storekeepers", c.storekeepers);
          w.field("requests", c.requests);
          w.field("unserved", c.unserved);
          w.field("slo_miss_fraction", c.slo_miss_fraction);
          w.field("p50_s", static_cast<std::uint64_t>(c.p50_s));
          w.field("p99_s", static_cast<std::uint64_t>(c.p99_s));
          w.field("run_t1_ms", c.run_ms[0]);
          w.field("run_t2_ms", c.run_ms[1]);
          w.field("run_t4_ms", c.run_ms[2]);
          w.field("run_t8_ms", c.run_ms[3]);
          w.field("checksum", c.checksum);
          w.field("outputs_identical", c.identical);
          w.end_object();
        }
        for (const auto& g : checks) {
          w.begin_object();
          w.field("name", g.name);
          w.field("outputs_identical", g.ok);
          w.end_object();
        }
        w.end_array();
        w.field("process_peak_rss_mb", dosn::bench::peak_rss_mb());
      });
  std::printf("\nwrote BENCH_storage_regimes.json (%s)\n",
              all_ok ? "all checks passed" : "CHECKS FAILED");
  return all_ok ? 0 : 1;
}
